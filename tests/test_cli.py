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
from mptree import convergence, pricing, stats
from mptree.market_io import load_returns


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
    "optimizer_tolerance=nan\n",
    "optimizer_tolerance=inf\n",
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


def test_price_rejects_zero_steps(capsys):
    argv = ["price", "--model", "crr"] + PRICE_ARGS[:-1] + ["0"]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: step count must be >= 1, got 0\n"


# ---------------------------------------------------------------------------
# converge, estimate-p, demo-discontinuity, moments
# ---------------------------------------------------------------------------

def test_converge_prints_the_rate_experiment(capsys):
    assert main(["converge", "--b", "0.05", "--sigma", "0.2", "--g", "0.45",
                 "--v", "0.1", "--t", "0.5", "--n-values", "16,32,64"]) == 0
    params = ModelParams(0.05, 0.05, 0.45, 0.1, 0.2)
    expected = convergence.rate_experiment(params, 0.5, [16, 32, 64]).to_csv()
    out = capsys.readouterr().out
    assert out == expected
    lines = out.splitlines()
    assert lines[0] == "n,distance,scaled"
    assert [line.split(",")[0] for line in lines[1:4]] == ["16", "32", "64"]
    assert lines[4].startswith("# slope=")


@pytest.mark.parametrize("n_values", ["16", "64,32", "16,16"])
def test_converge_rejects_a_step_list_without_a_slope(capsys, n_values):
    assert main(["converge", "--b", "0.05", "--sigma", "0.2", "--g", "0.5",
                 "--n-values", n_values]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")


RETURNS = ("date,value\n2020-01-02,0.01\n2020-01-03,-0.02\n2020-06-01,0.0\n"
           "2021-01-04,0.03\n2021-01-05,0.01\n2021-02-01,-0.01\n2021-03-01,0.02\n")


def _estimate_p_header(counts, full):
    fmt = (lambda x: repr(float(x))) if full else (lambda x: format(float(x), ".6g"))
    lo, hi = stats.proportion_ci(counts, 0.95)
    return [f"# ups={counts.ups}", f"# total={counts.total}",
            f"# p_hat={fmt(counts.proportion)}", f"# ci_low={fmt(lo)}",
            f"# ci_high={fmt(hi)}", f"# exact_test_p0={fmt(0.5)}",
            f"# exact_test_p_value={fmt(stats.exact_binomial_test(counts, 0.5))}"], fmt


@pytest.mark.parametrize("full", [False, True])
def test_estimate_p_prints_the_pooled_estimate(tmp_path, capsys, full):
    path = tmp_path / "returns.csv"
    path.write_text(RETURNS)
    assert main(["--full-precision"] * full + ["estimate-p", "--returns", str(path)]) == 0
    header, _ = _estimate_p_header(stats.UpDownCounts(4, 7), full)
    assert capsys.readouterr().out.splitlines() == header


def test_estimate_p_by_year_adds_homogeneity_and_a_year_table(tmp_path, capsys):
    path = tmp_path / "returns.csv"
    path.write_text(RETURNS)
    assert main(["estimate-p", "--returns", str(path), "--by-year"]) == 0
    header, fmt = _estimate_p_header(stats.UpDownCounts(4, 7), False)
    dated = load_returns(path).returns()
    years = stats.grouped_estimates(dated)
    hom = stats.homogeneity_test([e.counts for e in years])
    assert capsys.readouterr().out.splitlines() == header + [
        f"# homogeneity_statistic={fmt(hom.statistic)}",
        f"# homogeneity_df={hom.df}",
        f"# homogeneity_p_value={fmt(hom.p_value)}",
        "year,ups,total,p_hat,ci_low,ci_high",
        f"2020,1,3,{fmt(1 / 3)},{fmt(years[0].ci_low)},{fmt(years[0].ci_high)}",
        f"2021,3,4,{fmt(0.75)},{fmt(years[1].ci_low)},{fmt(years[1].ci_high)}",
    ]


def test_estimate_p_by_year_with_one_year_has_no_homogeneity_lines(tmp_path, capsys):
    path = tmp_path / "returns.csv"
    path.write_text("2020-01-02,0.01\n2020-01-03,-0.02\n")
    assert main(["estimate-p", "--returns", str(path), "--by-year"]) == 0
    header, fmt = _estimate_p_header(stats.UpDownCounts(1, 2), False)
    lo, hi = stats.proportion_ci(stats.UpDownCounts(1, 2))
    assert capsys.readouterr().out.splitlines() == header + [
        "year,ups,total,p_hat,ci_low,ci_high", f"2020,1,2,0.5,{fmt(lo)},{fmt(hi)}"]


@pytest.mark.parametrize("text,kind", [
    ("2020-01-02,abc\n", "return"),
    ("2020-01-02,100.0\n", "price"),
    ("# nothing\n", "return"),
])
def test_estimate_p_bad_returns_exit_1(tmp_path, capsys, text, kind):
    path = tmp_path / "returns.csv"
    path.write_text(text)
    assert main(["estimate-p", "--returns", str(path), "--value-kind", kind]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")


def test_demo_discontinuity_prints_the_gaps_and_the_grid(capsys):
    assert main(["demo-discontinuity", "--s0", "100", "--strike", "100", "--r", "0.05",
                 "--sigma", "0.2", "--T", "1"]) == 0
    call = Payoff.call(100.0)
    grid = [0.0, 0.01, 0.5, 0.99, 1.0]
    reports = [pricing.discontinuity_report(100.0, 0.05, 0.2, 1.0, call, p) for p in grid]
    assert capsys.readouterr().out.splitlines() == [
        f"# gap_at_0={reports[0].gap_at_0:.6g}", f"# gap_at_1={reports[0].gap_at_1:.6g}",
        "p,f0"] + [f"{p:.6g},{r.f0_at_p:.6g}" for p, r in zip(grid, reports)]


def test_demo_discontinuity_put_on_a_custom_grid(capsys):
    assert main(["--full-precision", "demo-discontinuity", "--s0", "100", "--strike", "105",
                 "--r", "0.02", "--sigma", "0.3", "--T", "0.5", "--kind", "put",
                 "--p-grid", "0.25,1.0"]) == 0
    put = Payoff.put(105.0)
    reports = [pricing.discontinuity_report(100.0, 0.02, 0.3, 0.5, put, p)
               for p in (0.25, 1.0)]
    assert capsys.readouterr().out.splitlines() == [
        f"# gap_at_0={reports[0].gap_at_0!r}", f"# gap_at_1={reports[0].gap_at_1!r}",
        "p,f0", f"0.25,{reports[0].f0_at_p!r}", f"1.0,{reports[1].f0_at_p!r}"]


def test_demo_discontinuity_arbitrage_rate_exits_1(capsys):
    assert main(["demo-discontinuity", "--s0", "100", "--strike", "100", "--r", "5",
                 "--sigma", "0.2", "--T", "1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: replication probability")


def test_moments_prints_one_row_per_moment_and_step(capsys):
    assert main(["moments", "--j-max", "3", "--halvings", "2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "j,dt,step_moment,gbm_moment,abs_error,halving_ratio,status"
    rows = [line.split(",") for line in lines[1:-1]]
    assert [(row[0], row[1]) for row in rows] == [
        (str(j), format(dt, ".6g")) for j in (1, 2, 3)
        for dt in (1 / 252, 1 / 504, 1 / 1008)]
    assert [row[5] for row in rows[::3]] == ["nan"] * 3
    assert {row[6] for row in rows} == {"PASS"}
    assert lines[-1] == "# overall=PASS"


def test_moments_rejects_an_inadmissible_probability(capsys):
    assert main(["moments", "--g", "1.5"]) == 1
    captured = capsys.readouterr()
    assert captured.out == "j,dt,step_moment,gbm_moment,abs_error,halving_ratio,status\n"
    assert captured.err.startswith("error: base up probability g")
