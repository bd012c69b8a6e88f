"""Chain file IO: canonical write and byte round-trip."""

import numpy as np
import pytest

from mptree.calibration import OptionQuote
from mptree.calibration import CalibrationConfig
from mptree.errors import DataFormatError
from mptree.market_io import ChainFile, load_chain, write_chain
from mptree.market_io import load_config


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
