"""Command-line output layout."""

import pytest

from mptree import calibration
from mptree.calibration import OptionQuote, build_params, model_prices
from mptree.calibration import CalibrationConfig, calibrate_suite, calibration_report_csv
from mptree.cli import build_parser, main
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
    ("mpbin2", ["--g", "0.45", "--gamma", "0.08"],
     build_params("mpbin2", (0.25, 0.45, 0.08), 0.03)),
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


@pytest.mark.parametrize("argv", [
    ["price", "--model", "crr", "--s0", "100", "--strike", "-5", "--r", "0.03",
     "--sigma", "0.25", "--T", "0.5", "--n", "60"],
    ["price", "--model", "crr", "--s0", "100", "--strike", "nan", "--r", "0.03",
     "--sigma", "0.25", "--T", "0.5", "--n", "60"],
    ["demo-discontinuity", "--s0", "100", "--strike", "-10", "--r", "0.03",
     "--sigma", "0.25", "--T", "0.5", "--kind", "put"],
], ids=["price-negative", "price-nan", "demo-put-negative"])
def test_a_negative_or_nan_strike_exits_1(capsys, argv):
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: strike must be finite and >= 0, got ")


def test_price_mp_reads_an_absent_v_as_zero(capsys):
    extra = ["--gamma", "0.08", "--delta", "0.01", "--g", "0.48"]
    assert main(["--full-precision", "price", "--model", "mp"] + PRICE_ARGS + extra) == 0
    params = ModelParams(0.08, 0.01, 0.48, 0.0, 0.25)
    value = price_european(Lattice.build(100.0, params, 60, 0.5 / 60, 0.03), params,
                           Payoff.call(95.0))
    assert capsys.readouterr().out == repr(value) + "\n"


UNREAD_FLAGS = [
    ("crr", ["--g", "0.9"], "--g"),
    ("crr", ["--gamma", "0.08"], "--gamma"),
    ("jr", ["--delta", "0.01"], "--delta"),
    ("tian", ["--v", "0.1"], "--v"),
    ("crr", ["--v", "0"], "--v"),
    ("mpbin1", ["--g", "0.45", "--v", "5"], "--v"),
    ("mpbin1", ["--g", "0.45", "--gamma", "0.08"], "--gamma"),
    ("mpbin2", ["--g", "0.45", "--gamma", "0.08", "--delta", "0.01"], "--delta"),
    ("mpbin2", ["--g", "0.45", "--gamma", "0.08", "--v", "0.1"], "--v"),
]


@pytest.mark.parametrize("name,extra,flag", UNREAD_FLAGS,
                         ids=[f"{name}{flag}" for name, _, flag in UNREAD_FLAGS])
def test_price_rejects_a_tree_flag_the_model_does_not_read(capsys, name, extra, flag):
    assert main(["price", "--model", name] + PRICE_ARGS + extra) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: model {name} does not read {flag}\n"


def test_price_mpbin2_at_g_one_exits_1(capsys):
    extra = ["--g", "1", "--gamma", "0.08"]
    assert main(["price", "--model", "mpbin2"] + PRICE_ARGS + extra) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: base up probability g must lie strictly "
                            "inside (0, 1), got 1.0\n")


@pytest.mark.parametrize("name", ["heston"])
def test_price_unknown_model_is_a_usage_error(capsys, name):
    with pytest.raises(SystemExit) as exc:
        main(["price", "--model", name] + PRICE_ARGS)
    assert exc.value.code == 2


def test_price_flags_cover_every_calibration_family():
    # Every family of the registry prices from flags named after its free
    # parameters, so the CLI cannot drift from the family table.
    sub = next(a for a in build_parser()._actions if a.choices and "price" in a.choices)
    price = sub.choices["price"]
    flags = {opt for action in price._actions for opt in action.option_strings}
    model = next(a for a in price._actions if "--model" in a.option_strings)
    assert tuple(model.choices) == (*calibration.MODELS, "mp")
    for name in calibration.MODELS:
        assert {f"--{p}" for p in calibration.free_parameter_names(name)} <= flags, name


# ---------------------------------------------------------------------------
# calibrate --config
# ---------------------------------------------------------------------------

def test_calibrate_config_help_names_every_key(capsys):
    with pytest.raises(SystemExit) as stop:
        main(["calibrate", "--help"])
    assert stop.value.code == 0
    help_text = " ".join(capsys.readouterr().out.split())
    assert ("keys: dt, optimizer_tolerance, optimizer_restarts, "
            "optimizer_max_iterations, seed, maturity_filter") in help_text


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

    chain = load_chain(chain_path)
    short = [q for q in chain.quotes if q.days_to_maturity <= 100]
    assert {q.days_to_maturity for q in short} == {21}
    config = CalibrationConfig(dt=0.004, tolerance=1e-6, restarts=1,
                               max_iterations=40, seed=7)
    results = calibrate_suite(["crr", "mpbin1"], short, chain.spot,
                              chain.rate, config)
    assert out == ("# spot=100.0\n# rate=0.04\n"
                   + calibration_report_csv(results))


def test_calibrate_reports_a_maturity_filter_that_leaves_no_quote_as_one_error_line(
        tmp_path, capsys):
    chain_path = tmp_path / "chain.csv"
    write_chain(ChainFile(100.0, 0.04, (OptionQuote(90.0, 150, 12.0),)), chain_path)
    config_path = tmp_path / "run.cfg"
    config_path.write_text("maturity_filter=true\n")
    assert main(["calibrate", "--chain", str(chain_path), "--config",
                 str(config_path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: maturity_filter left no quote within 100 days\n"


def test_calibrate_reports_a_negative_seed_as_one_error_line(tmp_path, capsys):
    # NumPy's generator used to reject it inside the fit, with a traceback.
    chain_path = _two_maturity_chain(tmp_path)
    config_path = tmp_path / "run.cfg"
    config_path.write_text("seed=-1\n")
    assert main(["calibrate", "--chain", str(chain_path), "--config",
                 str(config_path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: line 1: seed: seed must be an integer >= 0, got -1\n"


def test_calibrate_rejects_an_empty_model_list(tmp_path, capsys):
    chain_path = _two_maturity_chain(tmp_path)
    assert main(["calibrate", "--chain", str(chain_path), "--models", ","]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: model list must be non-empty")


def test_calibrate_reports_a_discount_too_large_for_exp_as_one_error_line(tmp_path, capsys):
    path = tmp_path / "chain.csv"
    path.write_text("# spot=100\n# rate=-180000\nstrike,days_to_maturity,market_price\n"
                    "100,21,2.0\n")
    assert main(["calibrate", "--chain", str(path), "--models", "jr"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: -rate*dt = 714.2857142857142 is too large for exp\n"


def test_calibrate_rejects_a_call_priced_above_the_spot(tmp_path, capsys):
    # Written as text, since ChainFile rejects such a chain.
    path = tmp_path / "chain.csv"
    path.write_text("# spot=100.0\n# rate=0.04\nstrike,days_to_maturity,market_price\n"
                    "90.0,21,10.6\n100.0,21,150.0\n110.0,21,0.4\n")
    assert main(["calibrate", "--chain", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    line, = captured.err.splitlines()
    assert line.startswith("error: no call is worth more than the spot 100.0")
    assert "market_price=150.0" in line


@pytest.mark.parametrize("text", [
    "colour=blue\n",
    "ci_level=0.9\n",
    "seed=abc\n",
    "optimizer_restarts=1.5\n",
    "maturity_filter=yes\n",
    "dt\n",
    "dt=0\n",
    "dt=-0.004\n",
    "dt=inf\n",
    "seed=1\nseed=2\n",
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


@pytest.mark.parametrize("exc, err", [
    (MemoryError("Unable to allocate 74.5 GiB"),
     "error: out of memory: Unable to allocate 74.5 GiB\n"),
    (MemoryError(), "error: out of memory\n"),
], ids=["with-message", "without-message"])
def test_price_reports_a_failed_allocation(monkeypatch, capsys, exc, err):
    # The lattice is never allocated: Lattice.build fails as a refused
    # allocation of 1e10 steps would.
    def build(*args, **kwargs):
        raise exc
    monkeypatch.setattr(pricing.Lattice, "build", build)
    argv = ["price", "--model", "crr"] + PRICE_ARGS[:-1] + ["10000000000"]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == err


def test_price_rejects_zero_steps(capsys):
    argv = ["price", "--model", "crr"] + PRICE_ARGS[:-1] + ["0"]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: step count must be >= 1, got 0\n"


@pytest.mark.parametrize("argv, message", [
    (["converge", "--b", "1e300", "--sigma", "0.2", "--g", "0.45", "--n-values", "16,32"],
     "log u = 6.25e+298 is too large for exp"),
    (["price", "--model", "mp", "--gamma", "1e300", "--delta", "0.01", "--g", "0.5",
      "--s0", "100", "--strike", "100", "--r", "0.05", "--sigma", "0.2", "--T", "1",
      "--n", "10"], "log u = 1e+299 is too large for exp"),
    (["price", "--model", "jr", "--s0", "inf", "--strike", "100", "--r", "0.05",
      "--sigma", "0.2", "--T", "1", "--n", "10"], "spot must be finite, got inf"),
    (["price", "--model", "jr", "--s0", "1e308", "--strike", "100", "--r", "0.05",
      "--sigma", "0.2", "--T", "1", "--n", "10"], "top node s0*u^n overflows: "),
], ids=["converge-exp", "price-exp", "price-infinite-spot", "price-top-node"])
def test_a_tree_whose_numbers_overflow_exits_1(recwarn, capsys, argv, message):
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {message}")
    assert captured.err.count("\n") == 1 and captured.err.endswith("\n")
    assert not recwarn.list


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


def test_converge_default_output_is_pinned(capsys):
    # Captured from the release whose rate_experiment called lognormal_cdf
    # once per support point; evaluating F per slice must keep every bit.
    assert main(["converge", "--b", "0.05", "--sigma", "0.2", "--g", "0.45"]) == 0
    assert capsys.readouterr().out == (
        "n,distance,scaled\n"
        "16,0.10272667330158775,0.410906693206351\n"
        "32,0.07283793727045212,0.41203359497261655\n"
        "64,0.051332658581814905,0.41066126865451924\n"
        "128,0.036474018013424814,0.41265640759060757\n"
        "256,0.02587230981132488,0.41395695698119805\n"
        "512,0.018294653709976294,0.4139607583290838\n"
        "1024,0.012942560755432764,0.41416194417384844\n"
        "2048,0.009153173410147541,0.4142253432122703\n"
        "# slope=-0.49812410508986926\n")


@pytest.mark.parametrize("n_values", ["16", "64,32", "16,16"])
def test_converge_rejects_a_step_list_without_a_slope(capsys, n_values):
    assert main(["converge", "--b", "0.05", "--sigma", "0.2", "--g", "0.5",
                 "--n-values", n_values]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")


def test_converge_rejects_a_step_count_below_one(capsys):
    assert main(["converge", "--b", "0.05", "--sigma", "0.2", "--g", "0.5",
                 "--n-values", "0,16"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: step counts must be >= 1, got 0\n"


def test_converge_rejects_a_step_count_that_is_not_an_integer(capsys):
    assert main(["converge", "--b", "0.05", "--sigma", "0.2", "--g", "0.5",
                 "--n-values", "16,abc"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: --n-values must be a comma-separated list of "
                            "int values, got '16,abc'\n")


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


def test_estimate_p_by_year_prints_nothing_when_homogeneity_is_degenerate(tmp_path,
                                                                         capsys):
    path = tmp_path / "returns.csv"
    path.write_text("2020-01-02,0.01\n2020-01-03,0.02\n2021-01-04,0.03\n")
    assert main(["estimate-p", "--returns", str(path), "--by-year"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: pooled proportion is degenerate (0 or 1); "
                            "expected counts vanish\n")


def test_estimate_p_level_whose_quantile_is_infinite_exits_1(tmp_path, capsys):
    path = tmp_path / "returns.csv"
    path.write_text(RETURNS)
    argv = ["estimate-p", "--returns", str(path), "--ci-level", "0.99999999999999994"]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: confidence level")


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


@pytest.mark.parametrize("sigma, t", [("0.2", "0"), ("0", "1"), ("nan", "1")])
def test_demo_discontinuity_rejects_a_sigma_or_t_that_is_not_positive(capsys, sigma, t):
    assert main(["demo-discontinuity", "--s0", "100", "--strike", "100", "--r", "0.05",
                 "--sigma", sigma, "--T", t]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: sigma and t must be positive")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("r, sigma, message", [
    ("0.05", "1000", "sigma*sqrt(t) = 1000.0 is too large for exp"),
    ("1000", "0.2", "r*t = 1000.0 is too large for exp"),
])
def test_demo_discontinuity_rejects_an_exponent_too_large_for_exp(capsys, r, sigma,
                                                                  message):
    assert main(["demo-discontinuity", "--s0", "100", "--strike", "100", "--r", r,
                 "--sigma", sigma, "--T", "1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_demo_discontinuity_rejects_an_infinite_price(capsys):
    # exp(709) is finite, so the exp bound passes, but 100*exp(709) is not.
    assert main(["demo-discontinuity", "--s0", "100", "--strike", "100", "--r", "0.05",
                 "--sigma", "709", "--T", "1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: s0*u = inf is not finite\n"


def test_demo_discontinuity_rejects_an_empty_grid(capsys):
    assert main(["demo-discontinuity", "--s0", "100", "--strike", "100", "--r", "0.05",
                 "--sigma", "0.2", "--T", "1", "--p-grid", " , "]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --p-grid must list at least one probability\n"


def test_demo_discontinuity_rejects_a_probability_that_is_not_a_number(capsys):
    assert main(["demo-discontinuity", "--s0", "100", "--strike", "100", "--r", "0.05",
                 "--sigma", "0.2", "--T", "1", "--p-grid", "0.5,abc"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: --p-grid must be a comma-separated list of "
                            "float values, got '0.5,abc'\n")


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


def test_moments_passes_rows_that_agree_exactly(capsys):
    assert main(["moments", "--b", "0", "--sigma", "1e-8", "--j-max", "1",
                 "--halvings", "2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(",")[4:] for line in lines[1:-1]] == [["0", "nan", "PASS"]] * 3
    assert lines[-1] == "# overall=PASS"


def test_moments_rejects_an_inadmissible_probability(capsys):
    assert main(["moments", "--g", "1.5"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: base up probability g")


def test_moments_prints_nothing_when_a_step_rounds_to_a_flat_tree(capsys):
    assert main(["moments", "--dt-start", "1e-170", "--j-max", "1",
                 "--halvings", "1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: step factors must satisfy 0 < d < u, "
                            "got d=1.0, u=1.0\n")


@pytest.mark.parametrize("flag", ["--j-max", "--halvings"])
@pytest.mark.parametrize("value", ["0", "-1"])
def test_moments_rejects_a_run_that_compares_nothing(capsys, flag, value):
    assert main(["moments", flag, value]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {flag} must be >= 1, got {value}\n"


@pytest.mark.parametrize("args, message", [
    (["--j-max", "65", "--halvings", "1"], "--j-max must be <= 64, got 65"),
    (["--dt-start", "0"], "--dt-start must be finite and > 0, got 0.0"),
    (["--dt-start", "-0.01"], "--dt-start must be finite and > 0, got -0.01"),
    (["--dt-start", "nan"], "--dt-start must be finite and > 0, got nan"),
    (["--dt-start", "inf"], "--dt-start must be finite and > 0, got inf"),
])
def test_moments_rejects_a_bad_order_or_step_before_the_header(capsys, args, message):
    assert main(["moments"] + args) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize("args, message", [
    (["--g", "1e-12", "--sigma", "1", "--dt-start", "0.01", "--j-max", "64"],
     "u^62 overflows: u = 100001.00049995"),
    (["--b", "0.05", "--sigma", "1", "--dt-start", "1", "--j-max", "64"],
     "log moment = 742.95 is too large for exp"),
])
def test_moments_reports_an_overflowing_moment_as_one_error_line(capsys, args, message):
    assert main(["moments"] + args) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


# ---------------------------------------------------------------------------
# --full-precision output, pinned byte for byte
# ---------------------------------------------------------------------------

# Captured before the tree checks and the exp guard each moved to one place
# in mptree.model; every printed bit must stay as it was.
PINNED_FULL_PRECISION = [
    (["price", "--model", "mpbin1", "--s0", "100", "--strike", "95", "--r", "0.05",
      "--sigma", "0.25", "--g", "0.45", "--T", "0.5", "--n", "60"],
     "11.073729106269216\n"),
    (["price", "--model", "tian", "--s0", "100", "--strike", "105", "--r", "0.03",
      "--sigma", "0.3", "--T", "1", "--n", "80", "--factors", "asymptotic"],
     "11.080564066743587\n"),
    (["demo-discontinuity", "--s0", "100", "--strike", "100", "--r", "0.05",
      "--sigma", "0.2", "--T", "1"],
     "# gap_at_0=-12.162284964623943\n"
     "# gap_at_1=8.898196858132968\n"
     "p,f0\n"
     "0.0,0.0\n"
     "0.01,12.162284964623943\n"
     "0.5,12.162284964623943\n"
     "0.99,12.162284964623943\n"
     "1.0,21.06048182275691\n"),
    (["demo-discontinuity", "--s0", "100", "--strike", "105", "--r", "0.02",
      "--sigma", "0.3", "--T", "0.5", "--kind", "put", "--p-grid", "0.25,0.5,1.0"],
     "# gap_at_0=11.23706297578487\n"
     "# gap_at_1=-12.637207270753041\n"
     "p,f0\n"
     "0.25,12.637207270753041\n"
     "0.5,12.637207270753041\n"
     "1.0,0.0\n"),
]


@pytest.mark.parametrize("argv, expected", PINNED_FULL_PRECISION)
def test_full_precision_output_is_pinned(capsys, argv, expected):
    assert main(["--full-precision"] + argv) == 0
    assert capsys.readouterr().out == expected


def test_estimate_p_by_year_full_precision_output_is_pinned(tmp_path, capsys):
    path = tmp_path / "returns.csv"
    path.write_text(RETURNS)
    assert main(["--full-precision", "estimate-p", "--returns", str(path),
                 "--by-year"]) == 0
    assert capsys.readouterr().out == (
        "# ups=4\n"
        "# total=7\n"
        "# p_hat=0.5714285714285714\n"
        "# ci_low=0.25045836452765724\n"
        "# ci_high=0.8417801447485302\n"
        "# exact_test_p0=0.5\n"
        "# exact_test_p_value=1.0\n"
        "# homogeneity_statistic=1.2152777777777777\n"
        "# homogeneity_df=1\n"
        "# homogeneity_p_value=0.2702893848016987\n"
        "year,ups,total,p_hat,ci_low,ci_high\n"
        "2020,1,3,0.3333333333333333,0.06149194472039632,0.7923403991979523\n"
        "2021,3,4,0.75,0.300641842582402,0.9544127391902995\n")


MOMENTS_DEFAULT_FULL_PRECISION = (
    'j,dt,step_moment,gbm_moment,abs_error,halving_ratio,status\n'
    '1,0.003968253968253968,1.0001984126984127,1.000198432383514,1.9685101326771814e-08,nan,PASS\n'
    '1,0.001984126984126984,1.0000992063492065,1.0000992112703189,4.92111240646409e-09,0.9999668936976936,PASS\n'
    '1,0.000992063492063492,1.0000496031746031,1.000049604404861,1.2302578955569743e-09,0.9999835760231596,PASS\n'
    '1,0.000496031746031746,1.0000248015873017,1.0000248018948634,3.0756175384283324e-10,0.9999911561749121,PASS\n'
    '1,0.000248015873015873,1.0000124007936508,1.0000124008705409,7.689004988264969e-11,0.9999949463409704,PASS\n'
    '1,0.0001240079365079365,1.0000062003968253,1.000006200416048,1.9222623492964885e-11,1.0000057756395078,PASS\n'
    '2,0.003968253968253968,1.0005555949231546,1.0005557099051252,1.1498197061143856e-07,nan,PASS\n'
    '2,0.001984126984126984,1.0002777876196778,1.0002778163615973,2.8741919511077185e-08,0.9998756973197293,PASS\n'
    '2,0.000992063492063492,1.0001388913493636,1.000138898534397,7.1850334570910945e-09,0.9999378718351738,PASS\n'
    '2,0.000496031746031746,1.0000694450595633,1.0000694468557656,1.79620229801003e-09,0.9999687871946159,PASS\n'
    '2,0.000248015873015873,1.000034722376002,1.0000347228250455,4.490434690751499e-10,0.9999841767770469,PASS\n'
    '2,0.0001240079365079365,1.0000173611495558,1.0000173612618162,1.1226042317957763e-10,0.9999960441316671,PASS\n'
    '3,0.003968253968253968,1.0010716411642737,1.001072002756068,3.615917942845215e-07,nan,PASS\n'
    '3,0.001984126984126984,1.0005357674329498,1.0005358578062398,9.037328996264193e-08,0.9997272215921025,PASS\n'
    '3,0.000992063492063492,1.0002678704295436,1.0002678930197848,2.259024123318909e-08,0.999863620878573,PASS\n'
    '3,0.000496031746031746,1.0001339318930853,1.00013393754026,5.64717472784082e-09,0.9999317261905312,PASS\n'
    '3,0.000248015873015873,1.0000669651161267,1.000066966527872,1.4117453872586339e-09,0.9999657919551643,PASS\n'
    '3,0.0001240079365079365,1.0000334823504595,1.0000334827033903,3.5293079569953534e-10,0.999984271625257,PASS\n'
    '4,0.003968253968253968,1.0017466711445766,1.0017475569470147,8.858024380664631e-07,nan,PASS\n'
    '4,0.001984126984126984,1.0008731757140603,1.0008733970622932,2.2134823285391292e-07,0.999537699792625,PASS\n'
    '4,0.000992063492063492,1.0004365478956945,1.0004366032199608,5.532426627929965e-08,0.999768836027943,PASS\n'
    '4,0.000496031746031746,1.0002182639579167,1.000218277787384,1.3829467349069091e-08,0.9998843747336659,PASS\n'
    '4,0.000248015873015873,1.000109129481526,1.0001091329386929,3.4571667750782353e-09,0.9999421345207338,PASS\n'
    '4,0.0001240079365079365,1.0000545641164105,1.0000545649806778,8.642673243741683e-10,0.9999718042004034,PASS\n'
    '5,0.003968253968253968,1.0025808298446348,1.0025826945034562,1.8646588213488968e-06,nan,PASS\n'
    '5,0.001984126984126984,1.0012900486946756,1.001290514537842,4.658431662640794e-07,0.9993102457790918,PASS\n'
    '5,0.000992063492063492,1.0006449328040483,1.00064504922467,1.1642062158756517e-07,0.9996550772331655,PASS\n'
    '5,0.000496031746031746,1.0003224435179054,1.0003224726180402,2.910013474632933e-08,0.9998274996132646,PASS\n'
    '5,0.000248015873015873,1.000161216038136,1.0001612233125419,7.27440596648421e-09,0.9999137158499649,PASS\n'
    '5,0.0001240079365079365,1.0000806065888894,1.0000806084074132,1.8185237760093287e-09,0.9999572662773665,PASS\n'
    '6,0.003968253968253968,1.0035742875318068,1.0035778137215554,3.526189748637165e-06,nan,PASS\n'
    '6,0.001984126984126984,1.0017864289167155,1.0017873096229335,8.80706217953886e-07,0.9990457470920499,PASS\n'
    '6,0.000992063492063492,1.000893035786971,1.0008932558584525,2.200714814826199e-07,0.9995227784080112,PASS\n'
    '6,0.000496031746031746,1.0004464732307534,1.0004465282354937,5.5004740318054246e-08,0.9997613493122821,PASS\n'
    '6,0.000248015873015873,1.000223225450333,1.0002232391998767,1.3749543725793956e-08,0.9998806391078212,PASS\n'
    '6,0.0001240079365079365,1.0001116099339842,1.000111613371166,3.437181872456563e-09,0.9999406354142375,PASS\n'
    '7,0.003968253968253968,1.0047272397932812,1.0047333894847592,6.149691478052333e-06,nan,PASS\n'
    '7,0.001984126984126984,1.0023623652364804,1.0023639007290512,1.535492570869934e-06,0.9987444582219852,PASS\n'
    '7,0.000992063492063492,1.0011808690534774,1.0011812526855721,3.836320947581129e-07,0.9993720634956011,PASS\n'
    '7,0.000496031746031746,1.0005903561480818,1.0005904520259885,9.587790672505037e-08,0.9996859807624089,PASS\n'
    '7,0.000248015873015873,1.0002951584809434,1.000295182446656,2.396571252560875e-08,0.9998429604574228,PASS\n'
    '7,0.0001240079365079365,1.0001475743423915,1.0001475803333506,5.990959062174284e-09,0.9999217099466744,PASS\n'
    '8,0.003968253968253968,1.0060399075731417,1.0060499736415176,1.0066068375946813e-05,nan,PASS\n'
    '8,0.001984126984126984,1.0030179128292809,1.0030204253361532,2.5125068723319544e-06,0.9984064397319885,PASS\n'
    '8,0.000992063492063492,1.0015084463898094,1.0015090740158838,6.27626074445331e-07,0.9992029575828497,PASS\n'
    '8,0.000496031746031746,1.0007540957155034,1.0007542525594801,1.568439766952423e-07,0.9996014065148856,PASS\n'
    '8,0.000248015873015873,1.000377015991252,1.0003770551944302,3.9203178259228366e-08,0.999800670328644,PASS\n'
    '8,0.0001240079365079365,1.0001885000294182,1.0001885098292373,9.799819178368807e-09,0.9999004788405843,PASS\n'
    '# overall=PASS\n'
)


def test_moments_default_full_precision_output_is_pinned(capsys):
    assert main(["--full-precision", "moments"]) == 0
    assert capsys.readouterr().out == MOMENTS_DEFAULT_FULL_PRECISION
