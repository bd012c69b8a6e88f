"""File ingestion: option chains, dated return series, calibration settings.

Formats are deliberately small and self-contained:

chain CSV::

    # spot=<float>
    # rate=<float>
    strike,days_to_maturity,market_price
    90.0,21,10.5
    ...

A chain file is read into a :class:`~mptree.calibration.ChainFile`, the
one home of a chain's rules; this module imports it, so
``market_io.ChainFile`` names the same class. A malformed line gets a
line-numbered DataFormatError; a chain that parses but breaks a chain
rule (no quote, or a call priced above the spot) raises ChainFile's
DomainError, which names the rule but no line.

returns CSV: ``date,value`` rows with ISO-8601 dates (an optional literal
``date,value`` header is tolerated). A file in canonical form is parsed in
whole columns: an optional first line exactly ``date,value``, then lines
that each hold exactly one comma (no blank or ``#`` lines), every date
token accepted by ``date.fromisoformat`` as it stands, every value token by
``float`` and finite (and positive for prices), dates strictly ascending.
Every other file goes through the line-by-line parser, which gives the
same rows for a canonical file and is the one source of diagnostics.

config: ``key=value`` lines with ``#`` comments, read into a
:class:`~mptree.calibration.CalibrationConfig`; each key may appear once
and sets one field, and an absent key keeps its default: ``dt``,
``optimizer_tolerance`` (field ``tolerance``), ``optimizer_restarts``
(``restarts``), ``optimizer_max_iterations`` (``max_iterations``),
``seed`` and ``maturity_filter`` (``true`` or ``false``; it acts in
:func:`~mptree.calibration.calibrate_suite`, not in :func:`load_chain`,
which reads every quote). Every malformed line, a repeated key
included, produces a line-numbered diagnostic rather than a crash or a
silent skip.

All three readers drop a leading UTF-8 byte-order mark, which spreadsheet
programs write at the start of "CSV UTF-8" files. Their line syntax is
written once: ``_numbered`` gives each non-blank line stripped and with
its number from 1, and the chain, config and line-by-line returns parsers
all read through it. Only the canonical returns path reads raw lines.
"""

from __future__ import annotations

import datetime as _dt
import math
import operator
from dataclasses import dataclass, replace
from itertools import repeat
from pathlib import Path
from typing import Iterator, Literal

import numpy as np

from .calibration import CalibrationConfig, ChainFile, OptionQuote
from .errors import DataFormatError, DomainError

__all__ = [
    "ReturnSeries",
    "load_chain",
    "write_chain",
    "load_returns",
    "load_config",
]

@dataclass(frozen=True)
class ReturnSeries:
    """Dated values, either prices or simple returns."""

    rows: tuple[tuple[_dt.date, float], ...]
    value_kind: Literal["price", "return"]

    def __post_init__(self) -> None:
        _check_value_kind(self.value_kind)

    def returns(self) -> tuple[tuple[_dt.date, float], ...]:
        """Simple returns; price series are differenced, P_t/P_{t-1} - 1."""
        if self.value_kind == "return":
            return self.rows
        out = []
        for (d_prev, p_prev), (d_cur, p_cur) in zip(self.rows, self.rows[1:]):
            out.append((d_cur, p_cur / p_prev - 1.0))
        return tuple(out)


def _check_value_kind(value_kind: str) -> None:
    if value_kind not in ("price", "return"):
        raise DomainError(f"value_kind must be 'price' or 'return', got {value_kind!r}")


def _numeric(token: str, line_no: int, what: str) -> float:
    try:
        value = float(token)
    except ValueError:
        raise DataFormatError(
            f"line {line_no}: non-numeric {what}: {token!r}") from None
    if not math.isfinite(value):
        raise DataFormatError(f"line {line_no}: non-finite {what}: {token!r}")
    return value


def _read_lines(path: str | Path) -> list[str]:
    """The lines of a text file; a leading UTF-8 byte-order mark is dropped."""
    return Path(path).read_text(encoding="utf-8-sig").splitlines()


def _numbered(lines: list[str]) -> Iterator[tuple[int, str]]:
    """(line number from 1, stripped line) for each line that is not blank."""
    return ((line_no, line) for line_no, raw in enumerate(lines, start=1)
            if (line := raw.strip()))


# The chain file's metadata keys, in the order write_chain writes them.
_CHAIN_KEYS = ("spot", "rate")


def load_chain(path: str | Path) -> ChainFile:
    """Parse a chain CSV into all of its quotes.

    No quote is dropped: ``maturity_filter`` acts where the chain is fit,
    in :func:`~mptree.calibration.calibrate_suite`. A malformed line
    raises DataFormatError naming it. The parsed chain is then checked by
    :class:`~mptree.calibration.ChainFile`, whose DomainError reaches the
    caller as it is: a file with no quote, or with a call priced above
    its spot, is rejected there.
    """
    meta: dict[str, float] = {}
    header_seen = False
    quotes: list[OptionQuote] = []
    for line_no, line in _numbered(_read_lines(path)):
        if line.startswith("#"):
            key, eq, value = (part.strip() for part in line[1:].partition("="))
            if eq and key in _CHAIN_KEYS:
                if key in meta:
                    raise DataFormatError(
                        f"line {line_no}: repeated '# {key}=' metadata line")
                meta[key] = _numeric(value, line_no, key)
                # ChainFile checks the spot too, but cannot name its line.
                if key == "spot" and not meta[key] > 0.0:
                    raise DataFormatError(
                        f"line {line_no}: spot must be positive, got {meta[key]}")
            continue
        if not header_seen:
            columns = [c.strip() for c in line.split(",")]
            if columns != ["strike", "days_to_maturity", "market_price"]:
                raise DataFormatError(
                    f"line {line_no}: expected header "
                    f"'strike,days_to_maturity,market_price', got {line!r}")
            header_seen = True
            continue
        fields = line.split(",")
        if len(fields) != 3:
            raise DataFormatError(
                f"line {line_no}: expected 3 comma-separated fields, "
                f"got {len(fields)}")
        strike = _numeric(fields[0], line_no, "strike")
        days_raw = fields[1].strip()
        try:
            days = int(days_raw)
        except ValueError:
            raise DataFormatError(
                f"line {line_no}: non-integer days_to_maturity: "
                f"{days_raw!r}") from None
        price = _numeric(fields[2], line_no, "market_price")
        try:
            quotes.append(OptionQuote(strike=strike, days_to_maturity=days,
                                      market_price=price))
        except DomainError as exc:
            raise DataFormatError(f"line {line_no}: {exc}") from None
    for key in _CHAIN_KEYS:
        if key not in meta:
            raise DataFormatError(f"missing '# {key}=' metadata line")
    if not header_seen:
        raise DataFormatError("missing 'strike,days_to_maturity,market_price' header")
    return ChainFile(**meta, quotes=tuple(quotes))


def write_chain(chain: ChainFile, path: str | Path) -> None:
    """Write a chain in canonical form; loading it back round-trips bytes."""
    lines = [f"# {key}={getattr(chain, key)!r}" for key in _CHAIN_KEYS]
    lines.append("strike,days_to_maturity,market_price")
    for quote in chain.quotes:
        lines.append(
            f"{quote.strike!r},{quote.days_to_maturity},{quote.market_price!r}")
    Path(path).write_text("\n".join(lines) + "\n")


def load_returns(path: str | Path,
                 value_kind: Literal["price", "return"] = "return") -> ReturnSeries:
    """Parse a ``date,value`` CSV with strictly ascending ISO dates."""
    _check_value_kind(value_kind)
    lines = _read_lines(path)
    rows = _canonical_rows(lines, value_kind)
    if rows is None:
        rows = _rows_line_by_line(lines, value_kind)
    return ReturnSeries(rows=rows, value_kind=value_kind)


def _canonical_rows(lines: list[str], value_kind: str
                    ) -> tuple[tuple[_dt.date, float], ...] | None:
    """The rows of a file in canonical form, parsed in whole columns; else None."""
    body = lines[1:] if lines[:1] == ["date,value"] else lines
    tokens = ",".join(body).split(",")
    # As many commas as lines, and a comma on every line: one on each.
    if not body or len(tokens) != 2 * len(body) or not all(
            map(operator.contains, body, repeat(","))):
        return None
    try:
        dates = list(map(_dt.date.fromisoformat, tokens[0::2]))
        values = list(map(float, tokens[1::2]))
    except ValueError:
        return None
    checked = np.array(values)
    if not np.isfinite(checked).all() or (
            value_kind == "price" and not (checked > 0.0).all()):
        return None
    if not all(map(operator.lt, dates, dates[1:])):
        return None
    return tuple(zip(dates, values))


def _rows_line_by_line(lines: list[str], value_kind: str
                       ) -> tuple[tuple[_dt.date, float], ...]:
    """Parse any returns file; the source of every line-numbered diagnostic."""
    rows: list[tuple[_dt.date, float]] = []
    for line_no, line in _numbered(lines):
        if line.startswith("#") or line.replace(" ", "") == "date,value":
            continue
        fields = line.split(",")
        if len(fields) != 2:
            raise DataFormatError(
                f"line {line_no}: expected 'date,value', got {line!r}")
        try:
            date = _dt.date.fromisoformat(fields[0].strip())
        except ValueError:
            raise DataFormatError(
                f"line {line_no}: unparseable ISO date {fields[0].strip()!r}") from None
        value = _numeric(fields[1], line_no, "value")
        if value_kind == "price" and value <= 0.0:
            raise DataFormatError(f"line {line_no}: price must be positive, got {value}")
        if rows:
            if date == rows[-1][0]:
                raise DataFormatError(f"line {line_no}: duplicate date {date.isoformat()}")
            if date < rows[-1][0]:
                raise DataFormatError(
                    f"line {line_no}: dates must be ascending, {date.isoformat()} "
                    f"follows {rows[-1][0].isoformat()}")
        rows.append((date, value))
    if not rows:
        raise DataFormatError("returns file contains no data rows")
    return tuple(rows)


# Config file key -> (CalibrationConfig field, parser).
_CONFIG_KEYS = {
    "dt": ("dt", float),
    "optimizer_tolerance": ("tolerance", float),
    "optimizer_restarts": ("restarts", int),
    "optimizer_max_iterations": ("max_iterations", int),
    "seed": ("seed", int),
    "maturity_filter": ("maturity_filter",
                        lambda token: {"true": True, "false": False}[token.lower()]),
}


def load_config(path: str | Path) -> CalibrationConfig:
    """Parse a config file; rejects unknown or repeated keys and bad values."""
    config = CalibrationConfig()
    seen: set[str] = set()
    for line_no, line in _numbered(_read_lines(path)):
        if line.startswith("#"):
            continue
        if "=" not in line:
            raise DataFormatError(f"line {line_no}: expected key=value, got {line!r}")
        key, _, token = line.partition("=")
        key, token = key.strip(), token.strip()
        if key not in _CONFIG_KEYS:
            raise DataFormatError(f"line {line_no}: unknown key {key!r}")
        if key in seen:
            raise DataFormatError(f"line {line_no}: repeated key {key!r}")
        seen.add(key)
        name, parse = _CONFIG_KEYS[key]
        try:
            config = replace(config, **{name: parse(token)})
        except DomainError as exc:
            raise DataFormatError(f"line {line_no}: {key}: {exc}") from None
        except (KeyError, ValueError):
            raise DataFormatError(
                f"line {line_no}: malformed value for {key}: {token!r}") from None
    return config
