"""Dense one-phase simplex on small maximization programs."""

from __future__ import annotations

import math

import numpy as np
import pytest
import simplex_reference as reference
from conftest import SIMPLEX_FAULTS

from ocselect import (
    FiniteLP,
    LPSolution,
    UnboundedError,
    build_primal_general,
    build_primal_tvd,
    simplex,
    simplex_solve,
    solve_c_detection,
)
from ocselect.simplex import FEASIBILITY_TOL

PHI = (1.0 + math.sqrt(5.0)) / 2.0
# simplex_solve against the dense reference: the largest difference in the
# value or any coordinate of the solution (seen: 1e-14 on the hardness
# programs), and the largest relative gap between two ratios that count as
# a ratio-test tie within rounding (seen: 1.3e-15).
VALUE_BOUND = 1e-12
RATIO_TIE = 1e-12
# Against scipy's HiGHS, whose own feasibility tolerance is 1e-7.
HIGHS_BOUND = 1e-7


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
        "objective, rows, rhs",
        [
            ((1.0, 2.0), ((-1.0, -1.0), (-1.0, -1.0), (1.0, 1.0), (1.0, 0.0)), (-2.0, -2.0, 2.0, 1.5)),
            ((1.0,), ((-1.0,), (-1.0,), (1.0,)), (-1.0, -1.0, 1.0)),
        ],
    )
    def test_rejects_negative_rhs(self, objective, rows, rhs):
        with pytest.raises(ValueError, match="nonnegative"):
            FiniteLP(objective, rows, rhs)

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
    def test_two_variable_corner_takes_two_pivots(self):
        # max 3x + 2y s.t. x + y <= 4, x <= 2: Bland enters x, then y.
        lp = FiniteLP((3.0, 2.0), ((1.0, 1.0), (1.0, 0.0)), (4.0, 2.0))
        assert simplex_solve(lp).pivots == 2

    def test_counts_repeat_exactly_across_reruns(self):
        lp = build_primal_general(0.02)
        first = simplex_solve(lp).pivots
        assert first > 0
        assert all(simplex_solve(lp).pivots == first for _ in range(3))


def outcome(solve, lp):
    try:
        return solve(lp)
    except UnboundedError as err:
        return f"{type(err).__name__}: {err}"


def pivot_paths(lp):
    """The (row, entering label) pivots of simplex_solve and of the
    reference, in order; a reference column's index is its label.

    Each reference pivot also carries the tableau it was taken on.
    """
    delayed, dense = [], []
    pivot, dense_pivot = simplex._Delayed.pivot, reference.dense_pivot

    def recorded(self, row, col, column):
        delayed.append((row, int(self.labels[col])))
        pivot(self, row, col, column)

    def recorded_dense(tableau, basis, row, col):
        dense.append((row, col, tableau.copy()))
        dense_pivot(tableau, basis, row, col)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(simplex._Delayed, "pivot", recorded)
        patch.setattr(reference, "dense_pivot", recorded_dense)
        outcome(simplex_solve, lp), outcome(reference.solve, lp)
    return delayed, dense


def assert_parted_at_a_ratio_tie(lp):
    """The two pivot paths first differ in the leaving row, at a ratio-test
    tie: both rows' ratios agree within RATIO_TIE, so either may leave."""
    delayed, dense = pivot_paths(lp)
    step = next(j for j, (a, b) in enumerate(zip(delayed, dense)) if a != b[:2])
    (row, col), (ref_row, ref_col, tableau) = delayed[step], dense[step]
    assert col == ref_col and row != ref_row
    ratios = tableau[[row, ref_row], -1] / tableau[[row, ref_row], col]
    assert abs(ratios[0] - ratios[1]) <= RATIO_TIE * max(1.0, abs(ratios[1]))


class TestReferenceSolver:
    """simplex_solve against the dense Bland tableau of tests/simplex_reference.py.

    Both take the same pivots, so they return the same outcome, pivot counts
    and values within VALUE_BOUND.  The only room left is a ratio-test tie
    within rounding, where the two sums of the same terms pick different rows.
    """

    def assert_same(self, lps, max_ties=0):
        ties = 0
        for lp in lps:
            got, expected = outcome(simplex_solve, lp), outcome(reference.solve, lp)
            if isinstance(expected, str):
                if got != expected:
                    assert got.split(":")[0] == expected.split(":")[0]
                    assert_parted_at_a_ratio_tie(lp)
                    ties += 1
                continue
            assert isinstance(got, LPSolution) and got.pivots == expected.pivots
            assert abs(got.value - expected.value) <= VALUE_BOUND
            assert np.abs(np.subtract(got.solution, expected.solution)).max() <= VALUE_BOUND
            assert got.residual <= FEASIBILITY_TOL
        assert ties <= max_ties

    def test_random_programs(self):
        self.assert_same(random_programs())

    def test_duplicated_rows(self):
        # No path parts on these programs today; max_ties leaves room for
        # ratio ties within rounding, as assert_same traces them.
        self.assert_same(duplicated_row_programs(), max_ties=3)

    @pytest.mark.parametrize("step", [0.02, 0.005, 0.001])
    def test_hardness_programs(self, step):
        lps = [build_primal_general(step), build_primal_tvd(solve_c_detection(), step)]
        self.assert_same(lps)

    @pytest.mark.parametrize("step", [0.02, 0.005])
    def test_values_match_highs(self, step):
        linprog = pytest.importorskip("scipy.optimize").linprog
        for lp in (build_primal_general(step), build_primal_tvd(solve_c_detection(), step)):
            highs = linprog(-lp.objective, A_ub=lp.rows, b_ub=lp.rhs, method="highs")
            assert highs.status == 0
            assert abs(simplex_solve(lp).value + highs.fun) <= HIGHS_BOUND

    def test_random_programs_match_highs(self):
        linprog = pytest.importorskip("scipy.optimize").linprog
        for lp in random_programs():
            highs = linprog(-lp.objective, A_ub=lp.rows, b_ub=lp.rhs, method="highs")
            got = outcome(simplex_solve, lp)
            if isinstance(got, str):
                assert highs.status == 3
            else:
                assert highs.status == 0
                assert abs(got.value + highs.fun) <= HIGHS_BOUND


def random_programs():
    """Seed 23's 60 programs: sparse real rows, rhs in [0, 3)."""
    rng = np.random.default_rng(23)
    for _ in range(60):
        n, m = int(rng.integers(1, 7)), int(rng.integers(1, 8))
        rows = rng.uniform(-1.0, 2.0, size=(m, n))
        rows[rng.random((m, n)) < 0.3] = 0.0
        yield FiniteLP(rng.uniform(-1.0, 1.0, size=n), rows, rng.uniform(0.0, 3.0, size=m))


def full_tableau(tableau, basis, labels, n_vars):
    """A condensed tableau in the dense reference's layout: each nonbasic
    variable's column at its label, a unit column for each basic one, b last."""
    full = np.zeros((tableau.shape[0], n_vars + 1), order="F")
    full[:, labels] = tableau[:, :-1]
    full[np.arange(basis.size), basis] = 1.0
    full[:, -1] = tableau[:, -1]
    return full


class TestDelayedPivots:
    """_Delayed against the dense rank-1 update, pivot for pivot.

    The condensed tableau is 45 columns wide, so the last flush tile is
    partial; the dense one adds a unit column for each of its 12 basic
    variables.  Each condensed column is compared with the dense column of
    its label.
    """

    @pytest.mark.parametrize("n_pivots", [1, simplex.DELAY - 1, simplex.DELAY, 2 * simplex.DELAY + 3])
    def test_reads_and_flushes_equal_the_dense_pivots(self, n_pivots):
        rng = np.random.default_rng(5)
        tableau = np.asfortranarray(rng.uniform(-1.0, 1.0, size=(13, 45)))
        labels, basis = np.arange(44), 44 + np.arange(12)
        dense, dense_basis = full_tableau(tableau, basis, labels, 56), basis.copy()
        delayed = simplex._Delayed(tableau, basis, labels)
        for _ in range(n_pivots):
            row = int(rng.integers(12))
            col = int(np.abs(dense[row, labels]).argmax())
            reference.dense_pivot(dense, dense_basis, row, int(labels[col]))
            delayed.pivot(row, col, delayed.read(slice(None), col))
        columns = np.append(labels, -1)
        assert delayed.k == n_pivots % simplex.DELAY
        assert np.abs(delayed.read(slice(None), slice(None)) - dense[:, columns]).max() <= VALUE_BOUND
        delayed.flush()
        assert delayed.k == 0 and tableau.flags.f_contiguous
        assert np.abs(tableau - dense[:, columns]).max() <= VALUE_BOUND
        assert (basis == dense_basis).all()

    @pytest.mark.parametrize("delay", [1, 5])
    def test_the_delay_does_not_change_the_solve(self, delay, monkeypatch):
        lps = [
            build_primal_general(0.02),
            FiniteLP(
                (1.0, 1.0),
                ((1.0, 0.0), (1.0, 0.0), (1.0, 0.0), (0.0, 1.0), (1.0, 1.0)),
                (1.0, 1.0, 1.0, 1.0, 2.0),
            ),
        ]
        expected = [simplex_solve(lp) for lp in lps]
        monkeypatch.setattr(simplex, "DELAY", delay)
        for lp, want in zip(lps, expected):
            got = simplex_solve(lp)
            assert got.pivots == want.pivots
            assert abs(got.value - want.value) <= VALUE_BOUND
            assert np.abs(np.subtract(got.solution, want.solution)).max() <= VALUE_BOUND


class TestOptimalityCheck:
    def test_an_early_stop_is_feasible_but_not_optimal(self, stop_simplex, monkeypatch):
        lp = build_primal_general(0.02)
        optimum = simplex_solve(lp)
        stop_simplex(10)
        monkeypatch.setattr(simplex, "DUALITY_TOL", math.inf)
        stopped = simplex_solve(lp)
        assert stopped.pivots == 10 and stopped.residual <= FEASIBILITY_TOL
        assert stopped.value < optimum.value - 1e-3

    def test_the_dual_check_catches_an_early_stop(self, stop_simplex):
        stop_simplex(10)
        with pytest.raises(ArithmeticError, match="optimality post-check"):
            simplex_solve(build_primal_general(0.02))

    def test_a_negative_dual_alone_is_caught(self, stop_simplex):
        # max x + 2y s.t. x <= 1 and x + y <= 2.  Bland enters x, then y,
        # and a solve stopped there, at (1, 1), leaves y = (-1, 2), which
        # meets A^T y = c and b . y = 3 = c . z, so only y >= 0 fails.
        stop_simplex(2)
        with pytest.raises(ArithmeticError, match="optimality post-check"):
            simplex_solve(FiniteLP((1.0, 2.0), ((1.0, 0.0), (1.0, 1.0)), (1.0, 2.0)))

    @pytest.mark.parametrize("fault", SIMPLEX_FAULTS)
    def test_a_corrupted_tableau_breaks_down(self, fault, break_simplex):
        # Unchecked, the faults end in numpy's empty argmin, in
        # UnboundedError and, pivots later, in the optimality post-check.
        break_simplex(fault)
        with pytest.raises(ArithmeticError, match="breaks down"):
            simplex_solve(build_primal_general(0.02))

    @pytest.mark.parametrize(
        "module, solve",
        [(simplex, simplex_solve), (reference, reference.solve)],
        ids=["condensed", "reference"],
    )
    def test_a_nan_b_after_the_last_pivot_fails_the_post_check(self, module, solve, monkeypatch):
        # NaN > FEASIBILITY_TOL is False: a check for "beyond the bounds"
        # would pass the NaN point on to the optimality check.
        iterate = module._iterate

        def corrupted(tableau, *args):
            pivots = iterate(tableau, *args)
            tableau[:-1, -1] = math.nan
            return pivots

        monkeypatch.setattr(module, "_iterate", corrupted)
        with pytest.raises(ArithmeticError, match="post-check, residual nan"):
            solve(build_primal_general(0.02))

    def test_a_duality_gap_alone_is_caught(self, monkeypatch):
        # The general program's first ladder row, x = phi, has no negative
        # coefficient, and its slack ends nonbasic: raising its dual (that
        # slack's reduced cost, in the cost row at the column of label n + 1)
        # by 1 / (phi + 1), over its rhs, keeps y >= 0 and A^T y >= c, and
        # opens a gap of 1.
        iterate = simplex._iterate
        lp = build_primal_general(0.02)
        assert lp.rows[1].min() >= 0.0 and lp.rhs[1] == PHI + 1.0

        def loosened(tableau, basis, labels):
            pivots = iterate(tableau, basis, labels)
            (col,) = np.flatnonzero(labels == lp.n_vars + 1)
            tableau[-1, col] += 1.0 / lp.rhs[1]
            return pivots

        monkeypatch.setattr(simplex, "_iterate", loosened)
        with pytest.raises(ArithmeticError, match=r"duality 1\.0"):
            simplex_solve(lp)


def duplicated_row_programs():
    """Seed 41's integer programs with one row repeated, rhs in 0..4: exact
    ratio ties and degenerate pivots at every size."""
    rng = np.random.default_rng(41)
    for _ in range(3000):
        n, m = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        rows = rng.integers(-3, 4, size=(m, n)).astype(float)
        rhs = rng.integers(0, 5, size=m).astype(float)
        dup = int(rng.integers(m))
        rows, rhs = np.vstack([rows, rows[dup]]), np.append(rhs, rhs[dup])
        yield FiniteLP(rng.integers(-2, 3, size=n).astype(float), rows, rhs)
