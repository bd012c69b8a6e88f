"""Transformed Nelder-Mead: sanity cases, determinism, guards."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mptree.errors import DomainError
from mptree.optimize import (MinimizeConfig, _from_unconstrained,
                             _to_unconstrained, minimize)

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
    back = _from_unconstrained(_to_unconstrained(x, lo, hi, kind), lo, hi, kind)
    assert lo < back < hi
    assert abs(back - x) <= 1e-13 * x


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
