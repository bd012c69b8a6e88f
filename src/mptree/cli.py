"""Command-line entry point.

Subcommands: price, calibrate, converge, estimate-p, demo-discontinuity,
moments. Output is CSV on stdout with ``#`` comment metadata. The
subcommands price, estimate-p, demo-discontinuity and moments print
numbers at 6 significant digits unless --full-precision is given, which
prints each float's shortest round-trip repr; calibrate and converge
always print that repr. Exit codes: 0 success, 1 data or domain errors
or a failed allocation, 2 usage errors.
"""

from __future__ import annotations

import argparse
import math
import sys
from typing import Sequence

from . import calibration, convergence, market_io, model, pricing, stats
from .errors import ArbitrageError, DataFormatError, DomainError


def _fmt(value: float, full: bool) -> str:
    return repr(float(value)) if full else format(float(value), ".6g")


# "mp" sets the five tree parameters directly, reading an absent --v as 0;
# every other --model is a calibration family whose free parameters come from
# the flags of the same name. A tree flag the model does not read is an error.
_TREE_PARAMETERS = ("gamma", "delta", "g", "v", "sigma")


def _parse_list(text: str, flag: str, convert: type) -> list:
    """The comma-separated values of ``flag``; empty items are skipped."""
    try:
        return [convert(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise DomainError(f"{flag} must be a comma-separated list of "
                          f"{convert.__name__} values, got {text!r}") from None


def _model_params_from_args(args: argparse.Namespace) -> model.ModelParams:
    direct = args.model == "mp"
    names = _TREE_PARAMETERS if direct else calibration.free_parameter_names(args.model)
    unread = [f"--{name}" for name in _TREE_PARAMETERS
              if name not in names and getattr(args, name) is not None]
    if unread:
        raise DomainError(f"model {args.model} does not read {', '.join(unread)}")
    values = {name: getattr(args, name) for name in names}
    if direct and values["v"] is None:
        values["v"] = 0.0
    missing = [f"--{name}" for name, value in values.items() if value is None]
    if missing:
        raise DomainError(f"model {args.model} requires {', '.join(missing)}")
    if direct:
        return model.ModelParams(**values)
    return calibration.build_params(args.model, list(values.values()), args.r)


def _cmd_price(args: argparse.Namespace) -> int:
    if args.n < 1:
        raise DomainError(f"step count must be >= 1, got {args.n}")
    dt = args.T / args.n
    params = _model_params_from_args(args)
    lattice = pricing.Lattice.build(args.s0, params, args.n, dt, args.r,
                                    method=args.factors)
    value = pricing.price_european(lattice, params, pricing.Payoff.call(args.strike))
    print(_fmt(value, args.full_precision))
    return 0


def _cmd_calibrate(args: argparse.Namespace) -> int:
    cfg = (market_io.load_config(args.config) if args.config
           else calibration.CalibrationConfig())
    chain = market_io.load_chain(args.chain)
    models = [m.strip() for m in args.models.split(",") if m.strip()]
    results = calibration.calibrate_suite(models, chain.quotes, chain.spot,
                                          chain.rate, cfg)
    print(f"# spot={chain.spot!r}")
    print(f"# rate={chain.rate!r}")
    sys.stdout.write(calibration.calibration_report_csv(results))
    return 0


def _cmd_converge(args: argparse.Namespace) -> int:
    params = model.ModelParams(gamma=args.b, delta=args.b, g=args.g, v=args.v,
                               sigma=args.sigma)
    n_values = _parse_list(args.n_values, "--n-values", int)
    experiment = convergence.rate_experiment(params, args.t, n_values)
    sys.stdout.write(experiment.to_csv())
    return 0


def _cmd_estimate_p(args: argparse.Namespace) -> int:
    series = market_io.load_returns(args.returns, value_kind=args.value_kind)
    dated = series.returns()
    if len(dated) == 0:
        raise DataFormatError("no returns available after conversion")
    values = [value for _, value in dated]
    counts = stats.up_proportion(values)
    lo, hi = stats.proportion_ci(counts, args.ci_level)
    p_value = stats.exact_binomial_test(counts, args.p0)
    estimates = (stats.grouped_estimates(dated, level=args.ci_level)
                 if args.by_year else [])
    hom = (stats.homogeneity_test([e.counts for e in estimates])
           if len(estimates) >= 2 else None)
    full = args.full_precision
    print(f"# ups={counts.ups}")
    print(f"# total={counts.total}")
    print(f"# p_hat={_fmt(counts.proportion, full)}")
    print(f"# ci_low={_fmt(lo, full)}")
    print(f"# ci_high={_fmt(hi, full)}")
    print(f"# exact_test_p0={_fmt(args.p0, full)}")
    print(f"# exact_test_p_value={_fmt(p_value, full)}")
    if args.by_year:
        if hom is not None:
            print(f"# homogeneity_statistic={_fmt(hom.statistic, full)}")
            print(f"# homogeneity_df={hom.df}")
            print(f"# homogeneity_p_value={_fmt(hom.p_value, full)}")
        print("year,ups,total,p_hat,ci_low,ci_high")
        for est in estimates:
            print(f"{est.year},{est.counts.ups},{est.counts.total},"
                  f"{_fmt(est.p_hat, full)},{_fmt(est.ci_low, full)},"
                  f"{_fmt(est.ci_high, full)}")
    return 0


def _cmd_demo_discontinuity(args: argparse.Namespace) -> int:
    payoff = pricing.Payoff(kind=args.kind, strike=args.strike)
    grid = _parse_list(args.p_grid, "--p-grid", float)
    if not grid:
        raise DomainError("--p-grid must list at least one probability")
    full = args.full_precision
    reports = [pricing.discontinuity_report(args.s0, args.r, args.sigma, args.T,
                                            payoff, p) for p in grid]
    print(f"# gap_at_0={_fmt(reports[0].gap_at_0, full)}")
    print(f"# gap_at_1={_fmt(reports[0].gap_at_1, full)}")
    print("p,f0")
    for p, report in zip(grid, reports):
        print(f"{_fmt(p, full)},{_fmt(report.f0_at_p, full)}")
    return 0


def _cmd_moments(args: argparse.Namespace) -> int:
    # Each verdict compares two step sizes, so fewer than one order or one
    # halving would report PASS having checked nothing.
    for flag, value in (("--j-max", args.j_max), ("--halvings", args.halvings)):
        if value < 1:
            raise DomainError(f"{flag} must be >= 1, got {value}")
    if args.j_max > model.MAX_MOMENT_ORDER:
        raise DomainError(f"--j-max must be <= {model.MAX_MOMENT_ORDER}, got {args.j_max}")
    if not 0.0 < args.dt_start < math.inf:
        raise DomainError(f"--dt-start must be finite and > 0, got {args.dt_start}")
    params = model.ModelParams(gamma=args.b, delta=args.b, g=args.g, v=args.v,
                               sigma=args.sigma)
    full = args.full_precision
    # Every row is computed before any is printed, so an error prints nothing.
    lines = ["j,dt,step_moment,gbm_moment,abs_error,halving_ratio,status"]
    all_pass = True
    for j in range(1, args.j_max + 1):
        previous = None
        dt = args.dt_start
        for _ in range(args.halvings + 1):
            sm = model.step_moment(params, dt, j)
            gm = model.gbm_moment(args.b, args.sigma, dt, j)
            err = abs(sm - gm)
            scaled = err / dt ** 2
            if previous is None or previous == scaled == 0.0:
                ratio, status = float("nan"), "PASS"
            else:
                ratio = scaled / previous if previous > 0 else float("inf")
                ok = 0.25 <= ratio <= 4.0
                status = "PASS" if ok else "FAIL"
                all_pass = all_pass and ok
            lines.append(f"{j},{_fmt(dt, full)},{_fmt(sm, full)},{_fmt(gm, full)},"
                         f"{_fmt(err, full)},{_fmt(ratio, full)},{status}")
            previous = scaled
            dt /= 2.0
    lines.append(f"# overall={'PASS' if all_pass else 'FAIL'}")
    print("\n".join(lines))
    return 0 if all_pass else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mptree",
        description="Binomial tree pricing, calibration, and diagnostics")
    parser.add_argument("--full-precision", action="store_true",
                        help="print full-precision floats instead of 6 significant "
                             "digits (price, estimate-p, demo-discontinuity, moments; "
                             "calibrate and converge always do)")
    sub = parser.add_subparsers(dest="command", required=True)

    p_price = sub.add_parser("price", help="price a European call on the lattice")
    p_price.add_argument("--model", choices=(*calibration.MODELS, "mp"), required=True)
    p_price.add_argument("--s0", type=float, required=True)
    p_price.add_argument("--strike", type=float, required=True)
    p_price.add_argument("--r", type=float, required=True)
    p_price.add_argument("--sigma", type=float, required=True)
    p_price.add_argument("--T", type=float, required=True, help="maturity in years")
    p_price.add_argument("--n", type=int, required=True, help="number of steps")
    p_price.add_argument("--gamma", type=float, default=None)
    p_price.add_argument("--delta", type=float, default=None)
    p_price.add_argument("--g", type=float, default=None)
    p_price.add_argument("--v", type=float, default=None)
    p_price.add_argument("--factors", choices=("exact", "asymptotic"),
                         default="exact")
    p_price.set_defaults(func=_cmd_price)

    p_cal = sub.add_parser("calibrate", help="fit models to an option chain")
    p_cal.add_argument("--chain", required=True, help="chain CSV path")
    p_cal.add_argument("--models", default=",".join(calibration.MODELS),
                       help=f"comma-separated subset of {','.join(calibration.MODELS)}, fit "
                            "in that order; mpbin1 and mpbin2 also fit every family before them")
    p_cal.add_argument("--config", default=None,
                       help="path of a file of key=value lines; keys: "
                            + ", ".join(market_io._CONFIG_KEYS))
    p_cal.set_defaults(func=_cmd_calibrate)

    p_conv = sub.add_parser("converge",
                            help="Kolmogorov distance to the lognormal limit")
    p_conv.add_argument("--b", type=float, required=True, help="mean drift")
    p_conv.add_argument("--sigma", type=float, required=True)
    p_conv.add_argument("--g", type=float, required=True)
    p_conv.add_argument("--v", type=float, default=0.0)
    p_conv.add_argument("--t", type=float, default=1.0, help="horizon in years")
    p_conv.add_argument("--n-values", default="16,32,64,128,256,512,1024,2048")
    p_conv.set_defaults(func=_cmd_converge)

    p_est = sub.add_parser("estimate-p", help="up-move probability inference")
    p_est.add_argument("--returns", required=True, help="date,value CSV path")
    p_est.add_argument("--value-kind", choices=("return", "price"),
                       default="return")
    p_est.add_argument("--by-year", action="store_true",
                       help="per-year estimates plus homogeneity test")
    p_est.add_argument("--p0", type=float, default=0.5)
    p_est.add_argument("--ci-level", type=float, default=0.95)
    p_est.set_defaults(func=_cmd_estimate_p)

    p_disc = sub.add_parser("demo-discontinuity",
                            help="one-step endpoint gaps of replication pricing")
    p_disc.add_argument("--s0", type=float, required=True)
    p_disc.add_argument("--strike", type=float, required=True)
    p_disc.add_argument("--r", type=float, required=True)
    p_disc.add_argument("--sigma", type=float, required=True)
    p_disc.add_argument("--T", type=float, required=True)
    p_disc.add_argument("--kind", choices=("call", "put"), default="call")
    p_disc.add_argument("--p-grid", default="0.0,0.01,0.5,0.99,1.0")
    p_disc.set_defaults(func=_cmd_demo_discontinuity)

    p_mom = sub.add_parser("moments",
                           help="tree versus GBM one-step moment errors")
    p_mom.add_argument("--b", type=float, default=0.05)
    p_mom.add_argument("--sigma", type=float, default=0.2)
    p_mom.add_argument("--g", type=float, default=0.5)
    p_mom.add_argument("--v", type=float, default=0.0)
    p_mom.add_argument("--j-max", type=int, default=8)
    p_mom.add_argument("--dt-start", type=float,
                       default=1.0 / calibration.TRADING_DAYS_PER_YEAR)
    p_mom.add_argument("--halvings", type=int, default=5)
    p_mom.set_defaults(func=_cmd_moments)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (DomainError, ArbitrageError, DataFormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"error: out of memory: {exc}" if str(exc) else "error: out of memory",
              file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
