"""Chain file IO: canonical write and byte round-trip."""

import numpy as np
import pytest

from mptree.calibration import OptionQuote
from mptree.calibration import CalibrationConfig
from mptree.errors import DataFormatError
from mptree.errors import DomainError
from mptree.market_io import ChainFile, load_chain, write_chain
from mptree.market_io import load_config
from mptree.market_io import load_returns


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


def test_chain_file_rejects_a_nan_spot():
    quote = OptionQuote(100.0, 21, 1.0)
    with pytest.raises(DomainError, match="spot must be positive, got nan"):
        ChainFile(float("nan"), 0.04, (quote,))


def test_load_config_sets_calibration_config_fields(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("# comment\n\ndt = 0.004\noptimizer_tolerance=1e-8\n"
                    "optimizer_restarts=0\noptimizer_max_iterations=50\nseed=9\n"
                    "maturity_filter=TRUE\n")
    assert load_config(path) == CalibrationConfig(
        dt=0.004, tolerance=1e-8, restarts=0, max_iterations=50, seed=9,
        maturity_filter=True)
    path.write_text("seed=1\n")
    assert load_config(path) == CalibrationConfig(seed=1)


def test_load_config_names_the_line_of_an_out_of_range_value(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("seed=1\noptimizer_restarts=-1\n")
    with pytest.raises(DataFormatError, match="line 2: optimizer_restarts"):
        load_config(path)


@pytest.mark.parametrize("token", ["nan", "inf"])
def test_load_config_names_the_line_of_a_non_finite_tolerance(tmp_path, token):
    path = tmp_path / "run.cfg"
    path.write_text(f"seed=1\noptimizer_tolerance={token}\n")
    with pytest.raises(DataFormatError, match="line 2: optimizer_tolerance: tolerance"):
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
])
def test_load_chain_names_the_bad_line(tmp_path, text, message):
    path = tmp_path / "chain.csv"
    path.write_text(text)
    with pytest.raises(DataFormatError) as exc:
        load_chain(path)
    assert str(exc.value).startswith(message)


@pytest.mark.parametrize("text,message", [
    ("# rate=0.04\nstrike,days_to_maturity,market_price\n90.0,21,1.0\n",
     "missing '# spot=' metadata line"),
    ("# spot=100.0\nstrike,days_to_maturity,market_price\n90.0,21,1.0\n",
     "missing '# rate=' metadata line"),
    ("# spot=100.0\n# rate=0.04\n", "missing 'strike,days_to_maturity,market_price' header"),
    (CHAIN_HEAD, "chain file contains no quotes after filtering"),
    (CHAIN_HEAD + "90.0,150,1.0\n", "chain file contains no quotes after filtering"),
])
def test_load_chain_rejects_an_incomplete_file(tmp_path, text, message):
    path = tmp_path / "chain.csv"
    path.write_text(text)
    with pytest.raises(DataFormatError) as exc:
        load_chain(path, short_maturities_only=True)
    assert str(exc.value) == message


@pytest.mark.parametrize("text,kind,message", [
    ("date,value\n2020-01-02\n", "return", "line 2: expected 'date,value'"),
    ("2020-01-02,0.1,0.2\n", "return", "line 1: expected 'date,value'"),
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
