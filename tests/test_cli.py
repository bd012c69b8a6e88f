"""Command-line output layout."""

import pytest

from mptree.calibration import OptionQuote, model_prices
from mptree.calibration import CalibrationConfig, calibrate_suite, calibration_report_csv
from mptree.cli import main
from mptree.market_io import ChainFile, write_chain
from mptree.market_io import load_chain
from mptree.model import jarrow_rudd_params
from mptree.model import ModelParams, crr_params, tian_params
from mptree.pricing import Lattice, Payoff, price_european


def test_calibrate_prints_plain_numbers(tmp_path, capsys):
    protos = [OptionQuote(k, 21, 1.0) for k in (90.0, 100.0, 110.0)]
    prices = model_prices("jr", jarrow_rudd_params(0.04, 0.25), protos, 100.0, 0.04)
    quotes = tuple(OptionQuote(q.strike, q.days_to_maturity, p)
                   for q, p in zip(protos, prices))
    path = tmp_path / "chain.csv"
    write_chain(ChainFile(100.0, 0.04, quotes), path)

    assert main(["calibrate", "--chain", str(path), "--models", "crr,jr"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[:2] == ["# spot=100.0", "# rate=0.04"]
    assert lines[2].startswith("model,sigma,g,v,gamma,delta,")
    assert [line.split(",")[0] for line in lines[3:]] == ["crr", "jr"]
    for line in lines[3:]:
        for token in line.split(",")[1:10]:
            float(token)


# ---------------------------------------------------------------------------
# price
# ---------------------------------------------------------------------------

PRICE_ARGS = ["--s0", "100", "--strike", "95", "--r", "0.03", "--sigma", "0.25",
              "--T", "0.5", "--n", "60"]
PRICE_MODELS = [
    ("crr", [], crr_params(0.03, 0.25)),
    ("jr", [], jarrow_rudd_params(0.03, 0.25)),
    ("tian", [], tian_params(0.03, 0.25)),
    ("mpbin1", ["--g", "0.45"], ModelParams(0.03, 0.03, 0.45, 0.0, 0.25)),
    ("mp", ["--gamma", "0.08", "--delta", "0.01", "--g", "0.48", "--v", "0.1"],
     ModelParams(0.08, 0.01, 0.48, 0.1, 0.25)),
]


@pytest.mark.parametrize("full", [False, True])
@pytest.mark.parametrize("name,extra,params", PRICE_MODELS,
                         ids=[m[0] for m in PRICE_MODELS])
def test_price_prints_price_european_of_the_constructor_params(
        capsys, name, extra, params, full):
    argv = ["--full-precision"] * full + ["price", "--model", name] + PRICE_ARGS + extra
    assert main(argv) == 0
    lattice = Lattice.build(100.0, params, 60, 0.5 / 60, 0.03)
    value = price_european(lattice, params, Payoff.call(95.0))
    expected = repr(value) if full else format(value, ".6g")
    assert capsys.readouterr().out == expected + "\n"


@pytest.mark.parametrize("name,extra", [
    ("mpbin1", []),
    ("mp", ["--delta", "0.01", "--g", "0.48"]),
    ("mp", ["--gamma", "0.08", "--g", "0.48"]),
    ("mp", ["--gamma", "0.08", "--delta", "0.01"]),
])
def test_price_missing_family_flag_exits_1(capsys, name, extra):
    assert main(["price", "--model", name] + PRICE_ARGS + extra) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")


@pytest.mark.parametrize("name", ["heston", "mpbin2"])
def test_price_unknown_model_is_a_usage_error(capsys, name):
    with pytest.raises(SystemExit) as exc:
        main(["price", "--model", name] + PRICE_ARGS)
    assert exc.value.code == 2


# ---------------------------------------------------------------------------
# calibrate --config
# ---------------------------------------------------------------------------

def _two_maturity_chain(tmp_path):
    protos = [OptionQuote(k, d, 1.0) for d in (21, 150) for k in (90.0, 100.0, 110.0)]
    prices = model_prices("jr", jarrow_rudd_params(0.04, 0.25), protos, 100.0, 0.04)
    quotes = tuple(OptionQuote(q.strike, q.days_to_maturity, p)
                   for q, p in zip(protos, prices))
    path = tmp_path / "chain.csv"
    write_chain(ChainFile(100.0, 0.04, quotes), path)
    return path


def test_calibrate_config_sets_every_calibration_value(tmp_path, capsys):
    chain_path = _two_maturity_chain(tmp_path)
    config_path = tmp_path / "run.cfg"
    config_path.write_text("# short run\ndt=0.004\noptimizer_tolerance=1e-6\n"
                           "optimizer_restarts=1\noptimizer_max_iterations=40\n"
                           "seed=7\nmaturity_filter=true\n")
    assert main(["calibrate", "--chain", str(chain_path), "--models", "crr,mpbin1",
                 "--config", str(config_path)]) == 0
    out = capsys.readouterr().out

    chain = load_chain(chain_path, short_maturities_only=True)
    assert {q.days_to_maturity for q in chain.quotes} == {21}
    config = CalibrationConfig(dt=0.004, tolerance=1e-6, restarts=1,
                               max_iterations=40, seed=7)
    results = calibrate_suite(["crr", "mpbin1"], chain.quotes, chain.spot,
                              chain.rate, config)
    assert out == ("# spot=100.0\n# rate=0.04\n"
                   + calibration_report_csv(results))


@pytest.mark.parametrize("text", [
    "colour=blue\n",
    "ci_level=0.9\n",
    "seed=abc\n",
    "optimizer_restarts=1.5\n",
    "maturity_filter=yes\n",
    "dt\n",
    "dt=0\n",
    "dt=-0.004\n",
    "optimizer_tolerance=0\n",
    "optimizer_restarts=-1\n",
    "optimizer_max_iterations=0\n",
])
def test_calibrate_rejects_a_bad_config(tmp_path, capsys, text):
    chain_path = _two_maturity_chain(tmp_path)
    config_path = tmp_path / "run.cfg"
    config_path.write_text(text)
    assert main(["calibrate", "--chain", str(chain_path), "--config",
                 str(config_path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
