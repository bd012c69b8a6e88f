"""File ingestion: option chains, dated return series, calibration settings.

Formats are deliberately small and self-contained:

chain CSV::

    # spot=<float>
    # rate=<float>
    strike,days_to_maturity,market_price
    90.0,21,10.5
    ...

returns CSV: ``date,value`` rows with ISO-8601 dates (an optional literal
``date,value`` header is tolerated).

config: ``key=value`` lines with ``#`` comments, read into a
:class:`~mptree.calibration.CalibrationConfig`; each key sets one field and
an absent key keeps its default: ``dt``, ``optimizer_tolerance`` (field
``tolerance``), ``optimizer_restarts`` (``restarts``),
``optimizer_max_iterations`` (``max_iterations``), ``seed`` and
``maturity_filter`` (``true`` or ``false``). Every malformed input
produces a line-numbered diagnostic rather than a crash or a silent skip.
"""

from __future__ import annotations

import datetime as _dt
import math
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Literal

from .calibration import CalibrationConfig, OptionQuote
from .errors import DataFormatError, DomainError

__all__ = [
    "ChainFile",
    "ReturnSeries",
    "load_chain",
    "write_chain",
    "load_returns",
    "load_config",
    "MAX_CALIBRATION_DAYS",
]

# Chains used for calibration can be restricted to short-dated quotes.
MAX_CALIBRATION_DAYS = 100


@dataclass(frozen=True)
class ChainFile:
    """An option chain with its spot and annualized risk-free rate."""

    spot: float
    rate: float
    quotes: tuple[OptionQuote, ...]

    def __post_init__(self) -> None:
        # Plain floats, so that write_chain's repr() output parses back.
        object.__setattr__(self, "spot", float(self.spot))
        object.__setattr__(self, "rate", float(self.rate))
        if not self.spot > 0.0:
            raise DomainError(f"spot must be positive, got {self.spot}")
        if len(self.quotes) == 0:
            raise DomainError("chain must contain at least one quote")


@dataclass(frozen=True)
class ReturnSeries:
    """Dated values, either prices or simple returns."""

    rows: tuple[tuple[_dt.date, float], ...]
    value_kind: Literal["price", "return"]

    def returns(self) -> tuple[tuple[_dt.date, float], ...]:
        """Simple returns; price series are differenced, P_t/P_{t-1} - 1."""
        if self.value_kind == "return":
            return self.rows
        out = []
        for (d_prev, p_prev), (d_cur, p_cur) in zip(self.rows, self.rows[1:]):
            out.append((d_cur, p_cur / p_prev - 1.0))
        return tuple(out)


def _numeric(token: str, line_no: int, what: str) -> float:
    try:
        value = float(token)
    except ValueError:
        raise DataFormatError(
            f"line {line_no}: non-numeric {what}: {token!r}") from None
    if not math.isfinite(value):
        raise DataFormatError(f"line {line_no}: non-finite {what}: {token!r}")
    return value


def load_chain(path: str | Path, short_maturities_only: bool = False) -> ChainFile:
    """Parse a chain CSV; optionally drop quotes beyond 100 trading days."""
    lines = Path(path).read_text().splitlines()
    spot = rate = None
    header_seen = False
    quotes: list[OptionQuote] = []
    for line_no, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            body = line[1:].strip()
            if "=" in body:
                key, _, value = body.partition("=")
                key = key.strip()
                if key == "spot":
                    spot = _numeric(value.strip(), line_no, "spot")
                    if not spot > 0.0:
                        raise DataFormatError(
                            f"line {line_no}: spot must be positive, got {spot}")
                elif key == "rate":
                    rate = _numeric(value.strip(), line_no, "rate")
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
            quote = OptionQuote(strike=strike, days_to_maturity=days,
                                market_price=price)
        except DomainError as exc:
            raise DataFormatError(f"line {line_no}: {exc}") from None
        if short_maturities_only and quote.days_to_maturity > MAX_CALIBRATION_DAYS:
            continue
        quotes.append(quote)
    if spot is None:
        raise DataFormatError("missing '# spot=' metadata line")
    if rate is None:
        raise DataFormatError("missing '# rate=' metadata line")
    if not header_seen:
        raise DataFormatError("missing 'strike,days_to_maturity,market_price' header")
    if not quotes:
        raise DataFormatError("chain file contains no quotes after filtering")
    return ChainFile(spot=spot, rate=rate, quotes=tuple(quotes))


def write_chain(chain: ChainFile, path: str | Path) -> None:
    """Write a chain in canonical form; loading it back round-trips bytes."""
    lines = [f"# spot={chain.spot!r}", f"# rate={chain.rate!r}",
             "strike,days_to_maturity,market_price"]
    for quote in chain.quotes:
        lines.append(
            f"{quote.strike!r},{quote.days_to_maturity},{quote.market_price!r}")
    Path(path).write_text("\n".join(lines) + "\n")


def load_returns(path: str | Path,
                 value_kind: Literal["price", "return"] = "return") -> ReturnSeries:
    """Parse a ``date,value`` CSV with strictly ascending ISO dates."""
    if value_kind not in ("price", "return"):
        raise DomainError(f"value_kind must be 'price' or 'return', got {value_kind!r}")
    lines = Path(path).read_text().splitlines()
    rows: list[tuple[_dt.date, float]] = []
    for line_no, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.replace(" ", "") == "date,value":
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
    return ReturnSeries(rows=tuple(rows), value_kind=value_kind)


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
    """Parse a config file; unknown keys and malformed values are rejected."""
    config = CalibrationConfig()
    for line_no, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise DataFormatError(f"line {line_no}: expected key=value, got {line!r}")
        key, _, token = line.partition("=")
        key, token = key.strip(), token.strip()
        if key not in _CONFIG_KEYS:
            raise DataFormatError(f"line {line_no}: unknown key {key!r}")
        name, parse = _CONFIG_KEYS[key]
        try:
            config = replace(config, **{name: parse(token)})
        except DomainError as exc:
            raise DataFormatError(f"line {line_no}: {key}: {exc}") from None
        except (KeyError, ValueError):
            raise DataFormatError(
                f"line {line_no}: malformed value for {key}: {token!r}") from None
    return config
