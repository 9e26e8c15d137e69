"""Tests for the optimization substrate: simplex, LP builder, grid, MC."""

import numpy as np
import pytest
from scipy.optimize import linprog

from repro.optim import (
    LinearProgram,
    estimate_expected_value,
    grid_search,
    simplex_solve,
)
from repro.utils.errors import OptimizationError


class TestSimplex:
    def test_simple_maximization(self):
        # max x + 2y s.t. x + y <= 12, 0 <= x,y <= 10 -> (2, 10), obj 22.
        result = simplex_solve(
            np.array([1.0, 2.0]),
            a_ub=np.array([[1.0, 1.0]]),
            b_ub=np.array([12.0]),
            lower=np.zeros(2),
            upper=np.array([10.0, 10.0]),
        )
        assert result.is_optimal
        assert result.objective == pytest.approx(22.0)
        np.testing.assert_allclose(result.x, [2.0, 10.0])

    def test_equality_constraint(self):
        # max x + y s.t. x + 2y == 8, x,y in [0, 5] -> x=5, y=1.5.
        result = simplex_solve(
            np.array([1.0, 1.0]),
            a_eq=np.array([[1.0, 2.0]]),
            b_eq=np.array([8.0]),
            lower=np.zeros(2),
            upper=np.array([5.0, 5.0]),
        )
        assert result.is_optimal
        assert result.objective == pytest.approx(6.5)

    def test_shifted_lower_bounds(self):
        # max x s.t. x <= 7, x >= 3.
        result = simplex_solve(
            np.array([1.0]),
            a_ub=np.array([[1.0]]),
            b_ub=np.array([7.0]),
            lower=np.array([3.0]),
            upper=np.array([np.inf]),
        )
        assert result.x[0] == pytest.approx(7.0)

    def test_negative_lower_bounds(self):
        # max -x with x in [-5, 5] -> x = -5.
        result = simplex_solve(
            np.array([-1.0]), lower=np.array([-5.0]), upper=np.array([5.0])
        )
        assert result.x[0] == pytest.approx(-5.0)

    def test_infeasible_detected(self):
        # x <= 1 and x >= 3 simultaneously.
        result = simplex_solve(
            np.array([1.0]),
            a_ub=np.array([[1.0]]),
            b_ub=np.array([1.0]),
            lower=np.array([3.0]),
            upper=np.array([10.0]),
        )
        assert result.status == "infeasible"

    def test_unbounded_detected(self):
        result = simplex_solve(np.array([1.0]), lower=np.array([0.0]))
        assert result.status == "unbounded"

    def test_crossed_bounds_infeasible(self):
        result = simplex_solve(
            np.array([1.0]), lower=np.array([5.0]), upper=np.array([1.0])
        )
        assert result.status == "infeasible"

    @pytest.mark.parametrize("trial", range(20))
    def test_agrees_with_scipy_on_random_lps(self, trial):
        rng = np.random.default_rng(trial)
        n = int(rng.integers(2, 7))
        m = int(rng.integers(1, 5))
        c = rng.normal(size=n)
        a = rng.normal(size=(m, n))
        b = rng.uniform(0.5, 5.0, m)
        lower = np.zeros(n)
        upper = rng.uniform(1.0, 8.0, n)
        mine = simplex_solve(c, a_ub=a, b_ub=b, lower=lower, upper=upper)
        ref = linprog(-c, A_ub=a, b_ub=b, bounds=list(zip(lower, upper, strict=True)),
                      method="highs")
        assert mine.is_optimal and ref.status == 0
        assert mine.objective == pytest.approx(-ref.fun, abs=1e-7)

    def test_negative_rhs_handled_via_artificials(self):
        # x + y >= 2 encoded as -x - y <= -2.
        result = simplex_solve(
            np.array([-1.0, -1.0]),  # minimize x + y
            a_ub=np.array([[-1.0, -1.0]]),
            b_ub=np.array([-2.0]),
            lower=np.zeros(2),
            upper=np.array([5.0, 5.0]),
        )
        assert result.is_optimal
        assert -(result.objective) == pytest.approx(2.0)


class TestLinearProgram:
    def test_named_solution(self):
        lp = LinearProgram()
        lp.add_variable("fast", lower=0, upper=10, objective=2.0)
        lp.add_variable("slow", lower=0, upper=10, objective=1.0)
        lp.add_constraint("budget", {"fast": 1.0, "slow": 1.0}, "<=", 12.0)
        solution = lp.solve()
        assert solution.is_optimal
        assert solution["fast"] == pytest.approx(10.0)
        assert solution["slow"] == pytest.approx(2.0)

    def test_ge_and_eq_senses(self):
        lp = LinearProgram()
        lp.add_variable("x", lower=0, upper=10, objective=-1.0)  # minimize x
        lp.add_constraint("floor", {"x": 1.0}, ">=", 4.0)
        solution = lp.solve()
        assert solution["x"] == pytest.approx(4.0)

    def test_simplex_and_scipy_agree(self):
        lp = LinearProgram()
        lp.add_variable("a", 1, 8, objective=3.0)
        lp.add_variable("b", 2, 9, objective=1.0)
        lp.add_constraint("cap", {"a": 2.0, "b": 1.0}, "<=", 15.0)
        solution = lp.solve()
        ref = linprog([-3.0, -1.0], A_ub=[[2.0, 1.0]], b_ub=[15.0],
                      bounds=[(1, 8), (2, 9)], method="highs")
        assert solution.is_optimal and ref.status == 0
        assert solution.objective == pytest.approx(-ref.fun)

    def test_duplicate_variable_rejected(self):
        lp = LinearProgram()
        lp.add_variable("x")
        with pytest.raises(OptimizationError):
            lp.add_variable("x")

    def test_unknown_variable_in_constraint_rejected(self):
        lp = LinearProgram()
        lp.add_variable("x")
        with pytest.raises(OptimizationError):
            lp.add_constraint("c", {"y": 1.0}, "<=", 1.0)

    def test_empty_lp_rejected(self):
        with pytest.raises(OptimizationError):
            LinearProgram().solve()

    def test_bad_sense_rejected(self):
        lp = LinearProgram()
        lp.add_variable("x")
        with pytest.raises(OptimizationError):
            lp.add_constraint("c", {"x": 1.0}, "<", 1.0)


class TestGridSearch:
    def test_finds_minimum_cell(self):
        result = grid_search(
            lambda p: (p["a"] - 3) ** 2 + (p["b"] + 1) ** 2,
            axes={"a": [0, 1, 2, 3, 4], "b": [-2, -1, 0]},
        )
        assert result.best.point == {"a": 3, "b": -1}
        assert result.best.value == 0.0
        assert len(result.evaluations) == 15

    def test_maximize_mode(self):
        result = grid_search(lambda p: p["x"], axes={"x": [1, 5, 3]}, minimize=False)
        assert result.best.point["x"] == 5

    def test_empty_axis_rejected(self):
        with pytest.raises(ValueError):
            grid_search(lambda p: 0.0, axes={"x": []})


class TestMonteCarlo:
    def test_estimates_known_mean(self):
        result = estimate_expected_value(
            lambda rng: rng.normal(5.0, 1.0), n_draws=4000,
            rng=np.random.default_rng(0),
        )
        assert result.mean == pytest.approx(5.0, abs=0.1)
        assert result.stderr == pytest.approx(1.0 / np.sqrt(4000), rel=0.2)

    def test_confidence_interval_brackets_mean(self):
        result = estimate_expected_value(
            lambda rng: rng.uniform(0, 1), n_draws=1000,
            rng=np.random.default_rng(1),
        )
        low, high = result.confidence_interval()
        assert low < 0.5 < high

    def test_validation(self):
        with pytest.raises(ValueError):
            estimate_expected_value(lambda rng: 0.0, n_draws=1)
