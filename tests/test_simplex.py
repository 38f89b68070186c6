"""Dense two-phase simplex on small maximization programs."""

from __future__ import annotations

import math

import numpy as np
import pytest

from ocselect import FiniteLP, InfeasibleError, LPSolution, UnboundedError, simplex, simplex_solve
from ocselect.simplex import PIVOT_BLOCK

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

    @pytest.mark.parametrize(
        "rows, rhs",
        [(((1.0, 0.0), (1.0,)), (1.0, 1.0)), (((1.0, 0.0),), (1.0, 1.0)), (((1.0, 0.0),), ())],
    )
    def test_rejects_ragged_rows_and_rhs_mismatch(self, rows, rhs):
        with pytest.raises(ValueError):
            FiniteLP((1.0, 0.0), rows, rhs)

    def test_fields_are_read_only_float64_arrays(self):
        lp = FiniteLP((1, 0), ((1, 2), (3, 4), (5, 6)), (7, 8, 9))
        for field, shape in ((lp.objective, (2,)), (lp.rows, (3, 2)), (lp.rhs, (3,))):
            assert isinstance(field, np.ndarray)
            assert field.dtype == np.float64 and field.shape == shape
            with pytest.raises(ValueError):
                field[0] = 1.0
        assert lp.n_vars == 2

    def test_caller_arrays_are_copied(self):
        rows = np.ones((2, 2))
        lp = FiniteLP(np.ones(2), rows, np.ones(2))
        rows[0, 0] = 5.0
        assert rows.flags.writeable and lp.rows[0, 0] == 1.0


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


def dense_pivot(tableau, basis, row, col):
    """Rank-1 update over every column: the reference ``simplex._pivot`` must match."""
    tableau[row] /= tableau[row, col]
    factors = tableau[:, col].copy()
    factors[row] = 0.0
    tableau -= factors[:, None] * tableau[row]
    basis[row] = col


def row_with_zero_runs(rng, width, col):
    """Nonzero entries with zero runs between random cut points; nonzero at ``col``."""
    cuts = np.sort(rng.choice(np.arange(1, width), size=min(width - 1, 6), replace=False))
    row = rng.uniform(0.5, 2.0, size=width) * rng.choice([-1.0, 1.0], size=width)
    first_zero = bool(rng.integers(2))
    for k, (a, b) in enumerate(zip(np.r_[0, cuts], np.r_[cuts, width])):
        if (k % 2 == 0) == first_zero:
            row[a:b] = 0.0
    row[col] = rng.uniform(0.5, 2.0)
    return row


class TestPivotKernel:
    @pytest.mark.parametrize(
        "width", [5, PIVOT_BLOCK - 1, PIVOT_BLOCK, PIVOT_BLOCK + 1, 3 * PIVOT_BLOCK + 7]
    )
    def test_matches_the_dense_update(self, width):
        rng = np.random.default_rng(width)
        for _ in range(20):
            height = int(rng.integers(2, 12))
            dense = rng.uniform(-3.0, 3.0, size=(height, width))
            dense[rng.random((height, width)) < 0.2] = 0.0
            row, col = int(rng.integers(height)), int(rng.integers(width - 1))
            dense[row] = row_with_zero_runs(rng, width, col)
            runs = np.asfortranarray(dense)
            dense_basis, runs_basis = np.arange(height), np.arange(height)
            dense_pivot(dense, dense_basis, row, col)
            simplex._pivot(runs, runs_basis, row, col)
            assert runs.flags.f_contiguous
            assert (runs == dense).all()
            assert (runs_basis == dense_basis).all()

    @pytest.mark.parametrize(
        "lp",
        [
            # x + y >= 2 twice, x + y <= 2, x <= 1.5: artificials stay basic at
            # zero level after phase 1 and are pivoted out before phase 2.
            FiniteLP(
                (1.0, 2.0),
                ((-1.0, -1.0), (-1.0, -1.0), (1.0, 1.0), (1.0, 0.0)),
                (-2.0, -2.0, 2.0, 1.5),
            ),
            FiniteLP((1.0,), ((-1.0,), (-1.0,), (1.0,)), (-1.0, -1.0, 1.0)),
        ],
    )
    def test_phase_one_with_redundant_rows_matches_dense_pivots(self, lp, monkeypatch):
        drop = simplex._drop_artificials
        basic_artificials = []

        def spy(tableau, basis, first_art):
            basic_artificials.append(int((basis >= first_art).sum()))
            return drop(tableau, basis, first_art)

        monkeypatch.setattr(simplex, "_drop_artificials", spy)
        runs = simplex_solve(lp)
        monkeypatch.setattr(simplex, "_pivot", dense_pivot)
        assert simplex_solve(lp) == runs
        assert basic_artificials[0] > 0

    def test_random_programs_match_dense_pivots(self, monkeypatch):
        rng = np.random.default_rng(23)
        programs = []
        for _ in range(60):
            n, m = int(rng.integers(1, 7)), int(rng.integers(1, 8))
            rows = rng.uniform(-1.0, 2.0, size=(m, n))
            rows[rng.random((m, n)) < 0.3] = 0.0
            programs.append(FiniteLP(rng.uniform(-1.0, 1.0, size=n), rows, rng.uniform(-1.0, 3.0, size=m)))

        def outcomes():
            results = []
            for lp in programs:
                try:
                    results.append(simplex_solve(lp))
                except (InfeasibleError, UnboundedError) as err:
                    results.append(str(err))
            return results

        runs = outcomes()
        monkeypatch.setattr(simplex, "_pivot", dense_pivot)
        assert outcomes() == runs
        assert sum(isinstance(r, LPSolution) and r.pivots[0] > 0 for r in runs) >= 5


class TestDropArtificials:
    def test_duplicated_rows_pivot_below_the_artificials_and_keep_every_row(self, monkeypatch):
        # Integer programs with one row repeated: phase 1 often ends with an
        # artificial basic at zero level.  Its row must hold -1 in the
        # artificial's slack column, so it pivots out there and no row goes.
        rng = np.random.default_rng(41)
        drop, pivot = simplex._drop_artificials, simplex._pivot
        flipped = np.zeros(0, dtype=int)
        basic_artificials = 0

        def spy(tableau, basis, first_art):
            nonlocal basic_artificials
            m = basis.size
            slack, art = first_art - m + flipped, first_art + np.arange(flipped.size)
            assert (tableau[:m, slack] == -tableau[:m, art]).all()
            for i in np.flatnonzero(basis >= first_art):
                assert tableau[i, slack[basis[i] - first_art]] == -1.0
                basic_artificials += 1
            columns = []

            def recorded(tableau, basis, row, col):
                columns.append(col)
                pivot(tableau, basis, row, col)

            monkeypatch.setattr(simplex, "_pivot", recorded)
            try:
                out, kept = drop(tableau, basis, first_art)
            finally:
                monkeypatch.setattr(simplex, "_pivot", pivot)
            assert all(col < first_art for col in columns)
            assert out.shape == (m + 1, first_art + 1) and out.flags.f_contiguous
            assert kept.size == m and (kept < first_art).all()
            return out, kept

        monkeypatch.setattr(simplex, "_drop_artificials", spy)
        solved = 0
        for _ in range(3000):
            n, m = int(rng.integers(1, 5)), int(rng.integers(1, 5))
            rows = rng.integers(-3, 4, size=(m, n)).astype(float)
            rhs = rng.integers(-4, 5, size=m).astype(float)
            dup = int(rng.integers(m))
            rows, rhs = np.vstack([rows, rows[dup]]), np.append(rhs, rhs[dup])
            lp = FiniteLP(rng.integers(-2, 3, size=n).astype(float), rows, rhs)
            flipped = np.flatnonzero(lp.rhs < 0.0)
            try:
                simplex_solve(lp)
            except (InfeasibleError, UnboundedError):
                continue
            solved += 1
        assert solved >= 500 and basic_artificials >= 20
