"""Chain file IO: canonical write and byte round-trip."""

import datetime as _dt
import math
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mptree import market_io
from mptree.calibration import OptionQuote
from mptree.calibration import CalibrationConfig
from mptree.errors import DataFormatError
from mptree.errors import DomainError
from mptree.market_io import ChainFile, load_chain, write_chain
from mptree.market_io import load_config
from mptree.market_io import load_returns
from mptree.market_io import ReturnSeries
from test_edge_inputs import reals


def test_write_chain_round_trips_numpy_scalar_inputs(tmp_path):
    quotes = tuple(OptionQuote(np.float64(k), np.int64(d), np.float64(p))
                   for k, d, p in ((90.0, 21, 11.25), (100.0, 21, 0.1 + 0.2),
                                   (110.0, 42, 1.0 / 3.0)))
    chain = ChainFile(np.float64(100.0), np.float64(0.04), quotes)
    first = tmp_path / "first.csv"
    write_chain(chain, first)
    text = first.read_text()
    assert "np." not in text
    assert text.splitlines()[:2] == ["# spot=100.0", "# rate=0.04"]

    loaded = load_chain(first)
    assert loaded == chain
    second = tmp_path / "second.csv"
    write_chain(loaded, second)
    assert second.read_bytes() == first.read_bytes()


_FINITE = st.floats(allow_nan=False, allow_infinity=False)
_POSITIVE = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)


@settings(deadline=None)
@given(spot=_POSITIVE, rate=_FINITE, data=st.data())
def test_chain_round_trips_through_write_and_load(tmp_path_factory, spot, rate, data):
    # Prices within the spot; the property below covers those above it.
    prices = st.floats(min_value=0.0, max_value=spot, exclude_min=True)
    quotes = data.draw(st.lists(st.builds(OptionQuote, _POSITIVE, st.integers(1, 10_000),
                                          prices), min_size=1, max_size=30))
    chain = ChainFile(spot, rate, tuple(quotes))
    directory = tmp_path_factory.mktemp("chain")
    first, second = directory / "first.csv", directory / "second.csv"
    write_chain(chain, first)
    loaded = load_chain(first)
    assert loaded == chain
    write_chain(loaded, second)
    assert second.read_bytes() == first.read_bytes()


@settings(deadline=None, max_examples=300)
@given(spot=reals, rate=reals, data=st.data())
def test_chain_file_raises_or_round_trips_through_write_and_load(
        tmp_path_factory, spot, rate, data):
    # Prices on both sides of the spot, next to it included.
    near_spot = st.sampled_from((0.5, 1.0, 1.0 + 2.0 ** -52, 2.0)).map(lambda f: spot * f)
    rows = data.draw(st.lists(st.tuples(reals, st.integers(-1, 400), reals | near_spot),
                              max_size=4))
    try:
        chain = ChainFile(spot, rate, tuple(OptionQuote(*row) for row in rows))
    except DomainError:
        return
    path = tmp_path_factory.mktemp("chain") / "chain.csv"
    write_chain(chain, path)
    assert load_chain(path) == chain


def test_chain_file_rejects_a_nan_spot():
    quote = OptionQuote(100.0, 21, 1.0)
    with pytest.raises(DomainError, match="spot must be positive, got nan"):
        ChainFile(float("nan"), 0.04, (quote,))


def test_chain_file_rejects_an_empty_quote_tuple():
    with pytest.raises(DomainError, match="chain must contain at least one quote"):
        ChainFile(100.0, 0.04, ())


@pytest.mark.parametrize("rate", [float("nan"), float("inf"), -float("inf")])
def test_chain_file_rejects_a_non_finite_rate(rate):
    quote = OptionQuote(100.0, 21, 1.0)
    with pytest.raises(DomainError, match=f"rate must be finite, got {rate}"):
        ChainFile(100.0, rate, (quote,))


def test_load_config_sets_calibration_config_fields(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("# comment\n\ndt = 0.004\noptimizer_tolerance=1e-8\n"
                    "optimizer_restarts=0\noptimizer_max_iterations=50\nseed=9\n"
                    "maturity_filter=TRUE\n")
    assert load_config(path) == CalibrationConfig(
        dt=0.004, tolerance=1e-8, restarts=0, max_iterations=50, seed=9,
        maturity_filter=True)
    # Those six keys are every setting there is.
    assert {f.name for f in fields(CalibrationConfig)} == {
        "dt", "tolerance", "restarts", "max_iterations", "seed", "maturity_filter"}
    path.write_text("seed=1\n")
    assert load_config(path) == CalibrationConfig(seed=1)


@pytest.mark.parametrize("read,text", [
    (load_chain, "# spot=100.0\n# rate=0.04\nstrike,days_to_maturity,market_price\n"
                 "95.0,21,7.5\n105.0,21,1.5\n"),
    (load_returns, "date,value\n2020-01-02,0.01\n2020-01-03,-0.02\n"),
    (load_config, "seed=7\noptimizer_restarts=1\n"),
], ids=["chain", "returns", "config"])
def test_readers_accept_a_utf8_byte_order_mark(tmp_path, monkeypatch, read, text):
    # Spreadsheet programs write the mark at the start of "CSV UTF-8" files.
    # A canonical returns file keeps the column path with or without it.
    def no_line_loop(*args):
        raise AssertionError("canonical returns file took the line loop")

    monkeypatch.setattr(market_io, "_rows_line_by_line", no_line_loop)
    plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
    plain.write_bytes(text.encode())
    marked.write_bytes(b"\xef\xbb\xbf" + text.encode())
    assert read(marked) == read(plain)


def test_load_config_names_the_line_of_an_out_of_range_value(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("seed=1\noptimizer_restarts=-1\n")
    with pytest.raises(DataFormatError, match="line 2: optimizer_restarts"):
        load_config(path)


@pytest.mark.parametrize("token", ["nan", "inf"])
@pytest.mark.parametrize("key,field", [("optimizer_tolerance", "tolerance"), ("dt", "dt")])
def test_load_config_names_the_line_of_a_non_finite_value(tmp_path, key, field, token):
    path = tmp_path / "run.cfg"
    path.write_text(f"seed=1\n{key}={token}\n")
    with pytest.raises(DataFormatError, match=f"line 2: {key}: {field} must be finite and > 0"):
        load_config(path)


def test_load_config_names_the_line_of_a_repeated_key(tmp_path):
    # The later value used to win silently.
    path = tmp_path / "run.cfg"
    path.write_text("seed=1\n# again\n seed = 2\n")
    with pytest.raises(DataFormatError, match="line 3: repeated key 'seed'"):
        load_config(path)


CHAIN_HEAD = "# spot=100.0\n# rate=0.04\nstrike,days_to_maturity,market_price\n"


@pytest.mark.parametrize("text,message", [
    ("# spot=abc\n# rate=0.04\n", "line 1: non-numeric spot: 'abc'"),
    ("# spot=inf\n# rate=0.04\n", "line 1: non-finite spot: 'inf'"),
    ("# spot=-5\n# rate=0.04\n", "line 1: spot must be positive, got -5.0"),
    ("# spot=100.0\n# rate=x\n", "line 2: non-numeric rate: 'x'"),
    ("# spot=100.0\n# rate=nan\n", "line 2: non-finite rate: 'nan'"),
    ("# spot=100.0\n\nstrike,days,price\n", "line 3: expected header"),
    (CHAIN_HEAD + "90.0,21\n", "line 4: expected 3 comma-separated fields, got 2"),
    (CHAIN_HEAD + "90.0,21,1.0,2.0\n", "line 4: expected 3 comma-separated fields, got 4"),
    (CHAIN_HEAD + "90.0,21,11.0\nabc,21,1.0\n", "line 5: non-numeric strike: 'abc'"),
    (CHAIN_HEAD + "90.0,21.5,1.0\n", "line 4: non-integer days_to_maturity: '21.5'"),
    (CHAIN_HEAD + "90.0,21,-\n", "line 4: non-numeric market_price: '-'"),
    (CHAIN_HEAD + "90.0,21,inf\n", "line 4: non-finite market_price: 'inf'"),
    (CHAIN_HEAD + "-90.0,21,1.0\n", "line 4: strike must be positive"),
    (CHAIN_HEAD + "90.0,0,1.0\n", "line 4: days to maturity must be >= 1"),
    (CHAIN_HEAD + "90.0,21,0.0\n", "line 4: market price must be positive"),
    ("# spot=100\n# spot=50\n# rate=0.04\nstrike,days_to_maturity,market_price\n"
     "90.0,21,1.0\n", "line 2: repeated '# spot=' metadata line"),
    ("# spot=100\n#rate = 0.05\n" + CHAIN_HEAD[13:] + "90.0,21,1.0\n",
     "line 3: repeated '# rate=' metadata line"),
])
def test_load_chain_names_the_bad_line(tmp_path, text, message):
    path = tmp_path / "chain.csv"
    path.write_text(text)
    with pytest.raises(DataFormatError) as exc:
        load_chain(path)
    assert str(exc.value).startswith(message)


@pytest.mark.parametrize("text,message,error", [
    ("# rate=0.04\nstrike,days_to_maturity,market_price\n90.0,21,1.0\n",
     "missing '# spot=' metadata line", DataFormatError),
    ("# spot=100.0\nstrike,days_to_maturity,market_price\n90.0,21,1.0\n",
     "missing '# rate=' metadata line", DataFormatError),
    ("# spot=100.0\n# rate=0.04\n", "missing 'strike,days_to_maturity,market_price' header",
     DataFormatError),
    # A well-formed file with no quote breaks a chain rule, which ChainFile holds.
    (CHAIN_HEAD, "chain must contain at least one quote", DomainError),
])
def test_load_chain_rejects_an_incomplete_file(tmp_path, text, message, error):
    path = tmp_path / "chain.csv"
    path.write_text(text)
    with pytest.raises(error) as exc:
        load_chain(path)
    assert str(exc.value) == message


@pytest.mark.parametrize("text,kind,message", [
    ("date,value\n2020-01-02\n", "return", "line 2: expected 'date,value'"),
    ("2020-01-02,0.1,0.2\n", "return", "line 1: expected 'date,value'"),
    ("2020-01-02\n20200103,20200104,1.0\n", "return", "line 1: expected 'date,value'"),
    ("2020-01-02,0.1\n2020-13-01,0.1\n", "return", "line 2: unparseable ISO date '2020-13-01'"),
    ("2020-01-02,up\n", "return", "line 1: non-numeric value: 'up'"),
    ("2020-01-02,-inf\n", "return", "line 1: non-finite value: '-inf'"),
    ("2020-01-02,100.0\n2020-01-03,0.0\n", "price", "line 2: price must be positive"),
    ("2020-01-02,0.1\n# gap\n2020-01-02,0.1\n", "return", "line 3: duplicate date 2020-01-02"),
    ("2020-01-03,0.1\n2020-01-02,0.1\n", "return",
     "line 2: dates must be ascending, 2020-01-02 follows 2020-01-03"),
])
def test_load_returns_names_the_bad_line(tmp_path, text, kind, message):
    path = tmp_path / "returns.csv"
    path.write_text(text)
    with pytest.raises(DataFormatError) as exc:
        load_returns(path, value_kind=kind)
    assert str(exc.value).startswith(message)


def test_load_returns_rejects_a_file_without_rows(tmp_path):
    path = tmp_path / "returns.csv"
    path.write_text("# header only\ndate,value\n\n")
    with pytest.raises(DataFormatError, match="^returns file contains no data rows$"):
        load_returns(path)


@pytest.mark.parametrize("make", [
    lambda kind: load_returns("never-read.csv", value_kind=kind),
    lambda kind: ReturnSeries(((_dt.date(2020, 1, 2), 0.01),
                               (_dt.date(2020, 1, 3), 0.02)), kind),
])
def test_an_unknown_value_kind_is_rejected(make):
    with pytest.raises(DomainError,
                       match="^value_kind must be 'price' or 'return', got 'returns'$"):
        make("returns")


def _reference_rows(lines, value_kind):
    """The line-by-line returns parser as it stood before column parsing."""
    rows = []
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
        try:
            value = float(fields[1])
        except ValueError:
            raise DataFormatError(
                f"line {line_no}: non-numeric value: {fields[1]!r}") from None
        if not math.isfinite(value):
            raise DataFormatError(f"line {line_no}: non-finite value: {fields[1]!r}")
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


def _mutate(lines, kind, at, draw):
    """Apply one edit of the given kind to the data lines, at index ``at``."""
    i = at % len(lines)
    date, _, value = lines[i].partition(",")
    if kind == "insert":
        lines.insert(i, draw(st.sampled_from(
            ["", "   ", "# note", "#", "date,value", " date , value", "# a,b"])))
    elif kind == "pad":
        lines[i] = draw(st.sampled_from([" {}", "{} ", "{}\t"])).format(lines[i])
    elif kind == "pad_comma":
        lines[i] = f"{date} , {value}"
    elif kind == "duplicate_date" and i > 0:
        lines[i] = f"{lines[i - 1].partition(',')[0]},{value}"
    elif kind == "swap_dates" and i > 0:
        previous, _, previous_value = lines[i - 1].partition(",")
        lines[i - 1], lines[i] = f"{date},{previous_value}", f"{previous},{value}"
    elif kind == "basic_date":
        lines[i] = f"{date.replace('-', '')},{value}"
    elif kind == "value":
        token = draw(st.sampled_from(["nan", "inf", "-inf", "up", "0", "-1.5", "1e400", ""]))
        lines[i] = f"{date},{token}"
    elif kind == "add_comma":
        lines[i] = draw(st.sampled_from(["{},", ",{}", "{},0.5"])).format(lines[i])
    elif kind == "drop_comma":
        lines[i] = lines[i].replace(",", draw(st.sampled_from(["", " ", ";"])))


_MUTATIONS = ["insert", "pad", "pad_comma", "duplicate_date", "swap_dates",
              "basic_date", "value", "add_comma", "drop_comma"]


@settings(deadline=None, max_examples=300)
@given(data=st.data(),
       value_kind=st.sampled_from(["return", "price"]),
       start=st.dates(min_value=_dt.date(1990, 1, 1), max_value=_dt.date(2030, 1, 1)),
       gaps=st.lists(st.integers(1, 5), min_size=1, max_size=12),
       header=st.booleans(),
       line_end=st.sampled_from(["\n", "\r\n"]),
       edits=st.lists(st.tuples(st.sampled_from(_MUTATIONS), st.integers(0, 100)),
                      max_size=3))
def test_load_returns_matches_the_line_parser_on_mutated_files(
        tmp_path_factory, data, value_kind, start, gaps, header, line_end, edits):
    values = st.floats(min_value=1e-6, max_value=1e6) if value_kind == "price" else \
        st.floats(min_value=-0.5, max_value=0.5)
    lines, day = [], start
    for gap in gaps:
        day += _dt.timedelta(days=gap)
        lines.append(f"{day.isoformat()},{data.draw(values)!r}")
    for kind, at in edits:
        _mutate(lines, kind, at, data.draw)
    text = line_end.join((["date,value"] if header else []) + lines) + line_end
    path = tmp_path_factory.mktemp("returns") / "returns.csv"
    path.write_bytes(text.encode())

    try:
        expected = _reference_rows(text.splitlines(), value_kind)
    except DataFormatError as exc:
        with pytest.raises(DataFormatError) as got:
            load_returns(path, value_kind=value_kind)
        assert str(got.value) == str(exc)
    else:
        assert load_returns(path, value_kind=value_kind).rows == expected
