"""Dense two-phase simplex on small maximization programs."""

from __future__ import annotations

import math

import numpy as np
import pytest

from ocselect import FiniteLP, InfeasibleError, LPSolution, UnboundedError, simplex_solve

PHI = (1.0 + math.sqrt(5.0)) / 2.0


class TestValidation:
    def test_rejects_dimension_mismatch(self):
        with pytest.raises(ValueError):
            FiniteLP((1.0, 0.0), ((1.0,),), (1.0,))

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            FiniteLP((float("inf"),), ((1.0,),), (1.0,))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            FiniteLP((), (), ())


class TestBasics:
    def test_single_bound(self):
        sol = simplex_solve(FiniteLP((1.0,), ((1.0,),), (3.0,)))
        assert sol.value == pytest.approx(3.0, abs=1e-12)
        assert sol.solution[0] == pytest.approx(3.0, abs=1e-12)

    def test_two_variable_corner(self):
        # max 3x + 2y s.t. x + y <= 4, x <= 2  ->  x=2, y=2, value 10
        lp = FiniteLP((3.0, 2.0), ((1.0, 1.0), (1.0, 0.0)), (4.0, 2.0))
        sol = simplex_solve(lp)
        assert sol.value == pytest.approx(10.0, abs=1e-9)

    def test_negative_rhs_uses_phase_one(self):
        # max -x s.t. -x <= -2, x <= 5  ->  x = 2, value -2
        lp = FiniteLP((-1.0,), ((-1.0,), (1.0,)), (-2.0, 5.0))
        sol = simplex_solve(lp)
        assert sol.value == pytest.approx(-2.0, abs=1e-9)
        assert sol.solution[0] == pytest.approx(2.0, abs=1e-9)

    def test_infeasible_detected(self):
        # x <= 1 and -x <= -3 cannot both hold for x >= 0
        lp = FiniteLP((1.0,), ((1.0,), (-1.0,)), (1.0, -3.0))
        with pytest.raises(InfeasibleError):
            simplex_solve(lp)

    def test_unbounded_detected(self):
        # max x with only a lower-bound style row
        lp = FiniteLP((1.0,), ((-1.0,),), (0.0,))
        with pytest.raises(UnboundedError):
            simplex_solve(lp)

    def test_degenerate_redundant_rows_terminate(self):
        lp = FiniteLP(
            (1.0, 1.0),
            ((1.0, 0.0), (1.0, 0.0), (1.0, 0.0), (0.0, 1.0), (1.0, 1.0)),
            (1.0, 1.0, 1.0, 1.0, 2.0),
        )
        sol = simplex_solve(lp)
        assert sol.value == pytest.approx(2.0, abs=1e-9)

    def test_zero_rhs_degeneracy_terminates(self):
        # Optimum pinned at the origin-adjacent face; Bland's rule must exit.
        lp = FiniteLP(
            (1.0, 1.0, 1.0),
            ((1.0, -1.0, 0.0), (1.0, 0.0, -1.0), (1.0, 1.0, 1.0)),
            (0.0, 0.0, 3.0),
        )
        sol = simplex_solve(lp)
        assert sol.value == pytest.approx(3.0, abs=1e-9)


class TestOrderCompetitiveToyProgram:
    """One ladder point: two order constraints over (ratio, acceptance mass)."""

    def lp(self) -> FiniteLP:
        # max r subject to
        #   r*phi     <= 1 + p(phi-1)      (free box arrives last)
        #   r*(phi+1) <= (phi+1) - p       (free box after the top rung)
        #   p <= 1
        return FiniteLP(
            (1.0, 0.0),
            ((PHI, -(PHI - 1.0)), (PHI + 1.0, 1.0), (0.0, 1.0)),
            (1.0, PHI + 1.0, 1.0),
        )

    def test_solver_matches_hand_algebra(self):
        sol = simplex_solve(self.lp())
        # Equalizing the two binding rows gives p = 1/2 and value phi/2.
        assert sol.value == pytest.approx(PHI / 2.0, abs=1e-9)
        assert sol.solution[1] == pytest.approx(0.5, abs=1e-9)

    def test_brute_force_cross_check(self):
        best = -1.0
        for p in np.linspace(0.0, 1.0, 100_001):
            r = min((1.0 + p * (PHI - 1.0)) / PHI, 1.0 - p / (PHI + 1.0))
            best = max(best, float(r))
        sol = simplex_solve(self.lp())
        assert sol.value == pytest.approx(best, abs=1e-8)


class TestSolutionContract:
    def test_solution_is_feasible_and_value_consistent(self):
        rng = np.random.default_rng(17)
        for _ in range(40):
            n, m = int(rng.integers(1, 6)), int(rng.integers(1, 7))
            rows = rng.uniform(-1.0, 2.0, size=(m, n))
            rhs = rng.uniform(0.2, 3.0, size=m)
            obj = rng.uniform(-1.0, 1.0, size=n)
            lp = FiniteLP(
                tuple(map(float, obj)),
                tuple(tuple(map(float, r)) for r in rows),
                tuple(map(float, rhs)),
            )
            try:
                sol = simplex_solve(lp)
            except UnboundedError:
                continue
            z = np.array(sol.solution)
            assert (z >= -1e-9).all()
            assert (rows @ z <= rhs + 1e-9).all()
            assert sol.value == pytest.approx(float(obj @ z), abs=1e-9)
            assert isinstance(sol, LPSolution)


class TestPivotCounts:
    def test_no_artificials_means_no_phase_one_pivots(self):
        # max 3x + 2y s.t. x + y <= 4, x <= 2: Bland enters x, then y.
        lp = FiniteLP((3.0, 2.0), ((1.0, 1.0), (1.0, 0.0)), (4.0, 2.0))
        assert simplex_solve(lp).pivots == (0, 2)

    def test_negative_rhs_pivots_in_phase_one(self):
        # max -x s.t. -x <= -2, x <= 5: one pivot drives the artificial out.
        lp = FiniteLP((-1.0,), ((-1.0,), (1.0,)), (-2.0, 5.0))
        assert simplex_solve(lp).pivots == (1, 0)

    def test_counts_repeat_exactly_across_reruns(self):
        from ocselect import build_primal_general

        lp = build_primal_general(0.02)
        first = simplex_solve(lp).pivots
        assert first[0] == 0 and first[1] > 0
        assert all(simplex_solve(lp).pivots == first for _ in range(3))
