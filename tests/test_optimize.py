"""Transformed Nelder-Mead and Levenberg-Marquardt: sanity cases, determinism, guards."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mptree.errors import DomainError
from mptree.optimize import (MinimizeConfig, _decoder, _to_unconstrained,
                             least_squares, minimize)

TIGHT = MinimizeConfig(tolerance=1e-14)


def test_quadratic_bowl():
    result = minimize(lambda x: (x[0] - 3.0) ** 2, [(-10.0, 10.0)], [0.0],
                      config=TIGHT)
    assert abs(result.x[0] - 3.0) < 1e-6
    assert result.converged
    assert result.evaluations > 0


def test_rosenbrock_with_restarts():
    def rosenbrock(x):
        return (1 - x[0]) ** 2 + 100.0 * (x[1] - x[0] ** 2) ** 2

    result = minimize(rosenbrock, [(-5.0, 10.0), (-5.0, 10.0)], [-1.2, 1.0],
                      config=TIGHT)
    assert result.value < 1e-8
    assert np.allclose(result.x, [1.0, 1.0], atol=1e-3)


def test_bit_identical_across_runs():
    def bumpy(x):
        return (x[0] - 0.3) ** 2 + 0.1 * np.sin(25 * x[0]) ** 2 + (x[1] - 0.7) ** 4

    config = MinimizeConfig(tolerance=1e-12, seed=5)
    first = minimize(bumpy, [(0.0, 1.0), (0.0, 1.0)], [0.5, 0.5], config=config)
    second = minimize(bumpy, [(0.0, 1.0), (0.0, 1.0)], [0.5, 0.5], config=config)
    assert np.array_equal(first.x, second.x)
    assert first.value == second.value
    assert first.evaluations == second.evaluations
    assert first.converged == second.converged


def test_log_transform_stays_inside_box():
    # Objective pulls toward zero; the log-logit keeps iterates positive
    # and inside the box.
    result = minimize(lambda x: x[0], [(1e-4, 5.0)], [1.0],
                      transforms=["log"], config=TIGHT)
    assert 1e-4 <= result.x[0] <= 5.0
    assert result.x[0] < 2e-4


def test_logit_transform_stays_inside_box():
    result = minimize(lambda x: -x[0], [(0.0, 1.0)], [0.5], config=TIGHT)
    assert 0.0 < result.x[0] < 1.0
    assert result.x[0] > 1.0 - 1e-3


def test_infeasible_start_rejected():
    with pytest.raises(DomainError, match="infeasible start"):
        minimize(lambda x: x[0] ** 2, [(0.0, 1.0)], [2.0])


def test_nonfinite_objective_at_start_rejected():
    with pytest.raises(DomainError, match="not finite"):
        minimize(lambda x: float("nan"), [(0.0, 1.0)], [0.5])


def test_dimension_mismatches_rejected():
    with pytest.raises(DomainError):
        minimize(lambda x: 0.0, [(0.0, 1.0)], [0.5, 0.5])
    with pytest.raises(DomainError):
        minimize(lambda x: 0.0, [(0.0, 1.0)], [0.5], transforms=["logit", "log"])


def test_unknown_transform_rejected():
    with pytest.raises(DomainError, match="transform"):
        minimize(lambda x: 0.0, [(0.0, 1.0)], [0.5], transforms=["affine"])


def test_log_transform_needs_positive_lower_bound():
    with pytest.raises(DomainError, match="positive lower bound"):
        minimize(lambda x: 0.0, [(0.0, 1.0)], [0.5], transforms=["log"])


def test_config_validation():
    with pytest.raises(DomainError):
        MinimizeConfig(tolerance=0.0)
    with pytest.raises(DomainError):
        MinimizeConfig(tolerance=float("nan"))
    with pytest.raises(DomainError):
        MinimizeConfig(tolerance=float("inf"))
    with pytest.raises(DomainError):
        MinimizeConfig(restarts=-1)
    with pytest.raises(DomainError):
        MinimizeConfig(max_iterations=0)


@pytest.mark.parametrize("field,value,message", [
    ("seed", -1, "seed must be an integer >= 0, got -1"),
    ("seed", 1.5, "seed must be an integer >= 0, got 1.5"),
    ("seed", 2.0, "seed must be an integer >= 0, got 2.0"),
    ("restarts", 1.5, "restarts must be an integer >= 0, got 1.5"),
    ("max_iterations", 2.5, "max_iterations must be an integer >= 1, got 2.5"),
    ("max_iterations", None, "max_iterations must be an integer >= 1, got None"),
])
def test_config_rejects_a_count_that_is_not_a_valid_integer(field, value, message):
    # Each used to pass, then fail inside minimize: a negative seed in NumPy's
    # generator, a float count in range().
    with pytest.raises(DomainError, match=re.escape(message)):
        MinimizeConfig(**{field: value})


def test_config_takes_numpy_integer_counts():
    config = MinimizeConfig(max_iterations=np.int64(40), restarts=np.int32(1), seed=np.uint8(3))
    plain = MinimizeConfig(max_iterations=40, restarts=1, seed=3)
    runs = [minimize(lambda x: float((x[0] - 0.3) ** 2), [(-1.0, 1.0)], [0.5], config=cfg)
            for cfg in (config, plain)]
    assert runs[0].x.tolist() == runs[1].x.tolist()
    assert runs[0].evaluations == runs[1].evaluations


def test_restartless_run_still_reports():
    result = minimize(lambda x: (x[0] + 1.0) ** 2, [(-4.0, 4.0)], [2.0],
                      config=MinimizeConfig(tolerance=1e-12, restarts=0))
    assert abs(result.x[0] + 1.0) < 1e-5
    assert result.converged


@pytest.mark.parametrize("transform,bounds", [
    ("logit", (1e-4, 1.0 - 1e-4)),
    ("log", (1e-4, 5.0)),
])
@pytest.mark.parametrize("pull", [1.0, -1.0], ids=["to_lo", "to_hi"])
def test_iterates_stay_strictly_inside_box_at_each_edge(transform, bounds, pull):
    lo, hi = bounds
    seen = []

    def objective(x):
        seen.append(x[0])
        return pull * x[0]

    result = minimize(objective, [bounds], [0.5], transforms=[transform],
                      config=TIGHT)
    assert all(lo < x < hi for x in seen)
    edge = lo if pull > 0 else hi
    assert abs(result.x[0] - edge) < 1e-3 * edge


@settings(deadline=None, max_examples=300)
@given(box=st.sampled_from([("log", 1e-4, 5.0), ("logit", 1e-4, 1.0 - 1e-4),
                            ("logit", 0.0, 1.0)]),
       frac=st.floats(1e-9, 1.0 - 1e-9))
def test_transform_round_trip_stays_inside_box(box, frac):
    # frac is the start's place in the box, on the log scale for "log".
    kind, lo, hi = box
    if kind == "log":
        x = math.exp(math.log(lo) + (math.log(hi) - math.log(lo)) * frac)
    else:
        x = lo + (hi - lo) * frac
    back = _decoder(lo, hi, kind)(_to_unconstrained(x, lo, hi, kind))
    assert lo < back < hi
    assert abs(back - x) <= 1e-13 * x


def test_restarts_evaluate_no_point_twice():
    # Each run takes its first vertex's value from before it: the start's
    # value for the first run, the incumbent's for a restart.
    seen = []

    def bowl(x):
        seen.append(tuple(x))
        return (x[0] - 0.3) ** 2 + (x[1] + 1.0) ** 2

    result = minimize(bowl, [(-4.0, 4.0)] * 2, [1.0, 1.0],
                      config=MinimizeConfig(tolerance=1e-8, restarts=3))
    assert len(set(seen)) == len(seen) == result.evaluations


@pytest.mark.parametrize("start", [1e-14, 1.0 - 1e-14])
def test_first_evaluation_is_at_a_start_near_a_bound(start):
    # A result is never worse than its start only if the search begins at
    # the start, however close to a bound it lies.
    seen = []

    def objective(x):
        seen.append(x[0])
        return (x[0] - 0.5) ** 2

    minimize(objective, [(0.0, 1.0)], [start],
             config=MinimizeConfig(max_iterations=1, restarts=0))
    assert seen[0] == pytest.approx(start, rel=1e-14)


# ---------------------------------------------------------------------------
# Levenberg-Marquardt
# ---------------------------------------------------------------------------

def test_least_squares_fits_linear_residuals_exactly():
    result = least_squares(lambda x: np.array([x[0] - 0.3, 2.0 * (x[1] + 1.5), x[0] + x[1] + 1.2]),
                           [(-1.0, 1.0), (-4.0, 4.0)], [0.9, 3.0])
    assert result.value < 1e-24
    assert np.allclose(result.x, [0.3, -1.5], atol=1e-12)
    assert result.converged


def test_least_squares_solves_rosenbrock():
    result = least_squares(lambda x: np.array([1.0 - x[0], 10.0 * (x[1] - x[0] ** 2)]),
                           [(-2.0, 2.0), (-2.0, 2.0)], [-1.2, 1.0])
    assert result.converged
    assert result.value < 1e-24
    assert np.allclose(result.x, [1.0, 1.0], atol=1e-10)


def test_least_squares_reports_the_iteration_cap():
    # SSE = |x - 0.3|: the Gauss-Newton step overshoots to the mirror point,
    # so every accepted step only shrinks the distance by a factor, and
    # twenty iterations cannot bring it below any of the stopping limits.
    result = least_squares(lambda x: np.array([math.sqrt(abs(x[0] - 0.3))]),
                           [(0.0, 1.0)], [0.9])
    assert not result.converged
    assert result.value < 0.6


def test_least_squares_reports_no_convergence_where_its_transform_saturated():
    # The residual's zero lies above the box, so the steps run to its top,
    # where the difference point decodes to the same x and the Jacobian is 0.
    result = least_squares(lambda x: np.array([x[0] - 2.0]), [(0.0, 1.0)], [0.5])
    assert result.x[0] == math.nextafter(1.0, 0.0)
    assert not result.converged
    # A residual that is flat where the difference step does move x is a
    # stationary point.
    assert least_squares(lambda x: np.array([1.0]), [(0.0, 1.0)], [0.5]).converged


def test_least_squares_reports_no_convergence_where_one_coordinate_saturated():
    # x0 runs to the top of its box as above, but x1 keeps the gradient
    # nonzero, so the search stops on a small gain, not a zero Jacobian.
    result = least_squares(lambda x: np.array([x[0] - 2.0, x[1] - 0.3, x[1] - 0.4]),
                           [(0.0, 1.0), (0.0, 1.0)], [0.5, 0.5])
    assert result.x[0] == math.nextafter(1.0, 0.0)
    assert result.x[1] == pytest.approx(0.35, abs=1e-9)
    assert not result.converged


def test_least_squares_rejects_steps_to_non_finite_residuals():
    # The residual's zero (0.8) lies where it is not finite, and the start
    # is so close to that region that its forward difference is too.
    seen = []

    def residuals(x):
        seen.append(x[0])
        return np.array([x[0] - 0.8 if x[0] < 0.5 else math.nan])

    start = 0.5 - 1e-9
    result = least_squares(residuals, [(0.0, 1.0)], [start])
    assert any(x >= 0.5 for x in seen)
    assert result.x[0] < 0.5
    assert result.value <= (start - 0.8) ** 2
    assert result.converged


def test_least_squares_shares_the_start_checks():
    with pytest.raises(DomainError, match="infeasible start"):
        least_squares(lambda x: x, [(0.0, 1.0)], [2.0])
    with pytest.raises(DomainError, match="positive lower bound"):
        least_squares(lambda x: x, [(0.0, 1.0)], [0.5], transforms=["log"])
    with pytest.raises(DomainError, match="not finite"):
        least_squares(lambda x: np.array([math.inf]), [(0.0, 1.0)], [0.5])


@pytest.mark.parametrize("tolerance", [0.0, -1.0, math.nan, math.inf])
def test_least_squares_rejects_a_tolerance_that_is_not_finite_and_positive(tolerance):
    with pytest.raises(DomainError, match="tolerance must be finite and > 0"):
        least_squares(lambda x: x - 0.3, [(0.0, 1.0)], [0.5], tolerance=tolerance)


@settings(deadline=None, max_examples=50)
@given(box=st.sampled_from([("logit", -2.0, 3.0), ("log", 1e-3, 10.0)]),
       fracs=st.tuples(st.floats(0.01, 0.99), st.floats(0.01, 0.99)),
       targets=st.tuples(st.floats(-3.0, 12.0), st.floats(-3.0, 12.0)),
       weight=st.floats(0.1, 100.0))
def test_least_squares_never_worsens_its_start_and_stays_inside_the_box(
        box, fracs, targets, weight):
    kind, lo, hi = box
    seen = []

    def residuals(x):
        seen.append(x.copy())
        return np.array([x[0] - targets[0], weight * (x[1] - x[0] ** 2),
                         x[0] * x[1] - targets[1]])

    start = [lo + (hi - lo) * frac for frac in fracs]
    start_sse = float(np.sum(residuals(np.array(start)) ** 2))
    result = least_squares(residuals, [(lo, hi)] * 2, start, transforms=[kind] * 2)
    assert result.value <= start_sse
    assert all(lo < v < hi for x in seen for v in x)
    assert all(lo < v < hi for v in result.x)
