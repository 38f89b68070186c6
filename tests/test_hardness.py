"""Hard ladder families, their finite programs, and dual certificates.

The general family should cap deterministic-start policies near 0.82927
and the detection family should cap the detecting policy near 0.75818.
Primal optima are pinned at several grid steps, dual certificates are
checked for feasibility and for failing when perturbed, and weak duality
ties the two sides together.
"""

from __future__ import annotations

import functools
import math
import tracemalloc

import numpy as np
import pytest

from conftest import inverse_target
from ocselect import (
    HardnessParameterError,
    build_primal_general,
    build_primal_tvd,
    detection_formula,
    detection_hard_order,
    detection_opt_prediction,
    free_after_order,
    free_last_order,
    general_opt_prediction,
    integrate_weighted,
    make_detection_hard_instance,
    make_general_hard_instance,
    opt_online,
    prophet_value,
    randomized_value,
    rho_732,
    simplex_solve,
    solve_c_detection,
    solve_c_732,
    tva_exact,
    tvd_on_detection_order,
    verify_dual_general,
    verify_dual_tvd,
)
from ocselect.hardness import primal_tableau_mb

PHI = (1.0 + math.sqrt(5.0)) / 2.0

GENERAL_DUAL_BOUND = 0.8292693210370199
DETECTION_DUAL_BOUND = 0.7581835229538507
DETECTION_C = 0.5830273880648249

GENERAL_PRIMAL_PINS = {
    0.04: 0.8275075417644092,
    0.02: 0.8284067709324809,
    0.01: 0.8288356369669453,
    0.005: 0.8290518709316097,
}
DETECTION_PRIMAL_PINS = {
    0.02: 0.7582341449730822,
    0.01: 0.7581993084683858,
    0.005: 0.7581887822245813,
}


@functools.lru_cache(maxsize=None)
def general_primal_value(step: float) -> float:
    return simplex_solve(build_primal_general(step)).value


@functools.lru_cache(maxsize=None)
def detection_primal_value(step: float) -> float:
    return simplex_solve(build_primal_tvd(DETECTION_C, step)).value


class TestGeneralFamilyConstruction:
    def test_two_rung_ladder(self):
        hard = make_general_hard_instance(0.5, 0.2)
        assert hard.grid == pytest.approx((PHI, 1.0), abs=1e-12)
        assert hard.step == pytest.approx(PHI - 1.0, abs=1e-12)
        ids = [b.box_id for b in hard.instance.boxes]
        assert ids == ["d0000", "d0001", "free"]

    def test_free_box_atoms(self):
        hard = make_general_hard_instance(0.5, 0.2)
        free = hard.instance.boxes[-1].dist
        (zero_value, miss), (spike_value, hit) = free.atoms
        assert (zero_value, miss) == (0.0, 0.8)
        assert spike_value == pytest.approx(5.0, abs=1e-12)
        assert hit == pytest.approx(0.2, abs=1e-12)

    def test_singleton_ladder_above_span(self):
        hard = make_general_hard_instance(0.7, 0.2)
        assert hard.grid == (PHI,)
        assert free_last_order(hard) == ("d0000", "free")

    def test_snapped_step_divides_span(self):
        hard = make_general_hard_instance(0.1, 1e-4)
        assert len(hard.grid) == 7
        assert hard.grid[0] == pytest.approx(PHI, abs=1e-12)
        assert hard.grid[-1] == 1.0
        diffs = [a - b for a, b in zip(hard.grid, hard.grid[1:])]
        assert diffs == pytest.approx([hard.step] * 6, abs=1e-9)

    def test_rejects_bad_parameters(self):
        with pytest.raises(HardnessParameterError):
            make_general_hard_instance(0.0, 1e-4)
        with pytest.raises(HardnessParameterError):
            make_general_hard_instance(-0.1, 1e-4)
        # delta must stay strictly below epsilon squared; 0.25^2 is an
        # exact float, so the boundary case really hits the boundary
        with pytest.raises(HardnessParameterError):
            make_general_hard_instance(0.25, 0.0625)
        with pytest.raises(HardnessParameterError):
            make_general_hard_instance(0.1, 0.02)
        with pytest.raises(HardnessParameterError):
            make_general_hard_instance(0.1, 0.0)


class TestGeneralOrders:
    def test_free_last_descends_then_free(self):
        hard = make_general_hard_instance(0.5, 0.2)
        assert free_last_order(hard) == ("d0000", "d0001", "free")

    def test_free_after_top_rung(self):
        hard = make_general_hard_instance(0.5, 0.2)
        assert free_after_order(hard, PHI) == ("d0000", "free", "d0001")

    def test_free_after_foot_equals_free_last(self):
        hard = make_general_hard_instance(0.5, 0.2)
        assert free_after_order(hard, 1.0) == free_last_order(hard)

    def test_off_grid_value_rejected(self):
        hard = make_general_hard_instance(0.5, 0.2)
        with pytest.raises(ValueError):
            free_after_order(hard, 1.3)


class TestGeneralOptPrediction:
    def test_matches_exact_recursion_on_every_rung(self):
        hard = make_general_hard_instance(0.1, 1e-4)
        for x in hard.grid:
            order = free_after_order(hard, x)
            exact = opt_online(hard.instance, order).stages[0, 0]
            assert general_opt_prediction(hard, x) == pytest.approx(exact, abs=1e-9)

    def test_foot_order_is_worth_the_ladder_top(self):
        hard = make_general_hard_instance(0.1, 1e-4)
        assert general_opt_prediction(hard, 1.0) == pytest.approx(PHI, abs=1e-12)
        exact = opt_online(hard.instance, free_last_order(hard)).stages[0, 0]
        assert exact == pytest.approx(PHI, abs=1e-12)

    def test_approaches_x_plus_one(self):
        # Above the foot the order is worth x + 1 up to one rung of slack
        # and the free-box discretization error.
        hard = make_general_hard_instance(0.1, 1e-4)
        for x in hard.grid[:-1]:
            opt = general_opt_prediction(hard, x)
            tol = 1.5 * hard.epsilon + 2.0 * hard.delta / hard.epsilon * (x + 1.0)
            assert abs(opt - (x + 1.0)) <= tol


class TestTargetRecursion:
    """Updated targets on ladder boxes follow two closed forms."""

    def test_deterministic_box_clears_or_keeps_target(self):
        hard = make_general_hard_instance(0.1, 1e-4)
        for j, y in enumerate(hard.grid):
            dist = hard.instance.boxes[j].dist
            assert inverse_target(dist, y - 0.05) == 0.0
            assert inverse_target(dist, y + 0.05) == pytest.approx(y + 0.05, abs=1e-9)

    def test_general_free_box_shifts_by_its_expectation(self):
        hard = make_general_hard_instance(0.1, 1e-4)
        free = hard.instance.boxes[-1].dist
        for g in (1.0, 1.2, PHI):
            expected = max((g - 1.0) / (1.0 - hard.delta), 0.0)
            assert inverse_target(free, g) == pytest.approx(expected, abs=1e-9)

    def test_detection_free_box_shifts_by_one_step(self):
        hard = make_detection_hard_instance(DETECTION_C, 0.04, 1e-3)
        free = hard.instance.boxes[-1].dist
        for g in (hard.c, 0.75, 0.9, 1.0):
            expected = max((g - hard.step) / (1.0 - hard.delta), 0.0)
            assert inverse_target(free, g) == pytest.approx(expected, abs=1e-9)


class TestDetectionFamilyConstruction:
    def test_small_instance_layout(self):
        hard = make_detection_hard_instance(0.6, 0.2, 0.01)
        assert hard.step == pytest.approx(0.2, abs=1e-12)
        assert hard.multiplicity == 2
        assert hard.grid == pytest.approx((0.6, 0.4, 0.2, 0.0), abs=1e-12)
        assert len(hard.instance.boxes) == 4 * 2 + 2
        assert hard.free_ids == ("f0000", "f0001")

    def test_free_boxes_carry_one_step_of_expectation(self):
        hard = make_detection_hard_instance(0.6, 0.2, 0.01)
        free = hard.instance.boxes[-1].dist
        (zero_value, miss), (spike_value, hit) = free.atoms
        assert zero_value == 0.0
        assert miss == pytest.approx(0.99, abs=1e-12)
        assert spike_value == pytest.approx(20.0, abs=1e-12)
        assert hit == pytest.approx(0.01, abs=1e-12)

    def test_prophet_value_is_nearly_one(self):
        hard = make_detection_hard_instance(DETECTION_C, 0.04, 1e-3)
        p = prophet_value(hard.instance)
        assert abs(p - 1.0) <= 2.0 * hard.multiplicity * hard.delta

    def test_rejects_bad_parameters(self):
        with pytest.raises(HardnessParameterError):
            make_detection_hard_instance(0.4, 0.1, 1e-4)
        with pytest.raises(HardnessParameterError):
            make_detection_hard_instance(1.0, 0.1, 1e-4)
        with pytest.raises(HardnessParameterError):
            make_detection_hard_instance(0.6, 0.7, 1e-4)
        with pytest.raises(HardnessParameterError):
            make_detection_hard_instance(0.6, 0.25, 0.0625)
        with pytest.raises(HardnessParameterError):
            make_detection_hard_instance(0.6, 0.1, 0.02)


class TestDetectionOrders:
    def test_three_stage_structure(self):
        hard = make_detection_hard_instance(0.6, 0.2, 0.01)
        order = detection_hard_order(hard, 0.4)
        assert order == (
            "d0000x0000",
            "d0000x0001",
            "f0000",
            "d0001x0000",
            "f0001",
            "d0001x0001",
            "d0002x0000",
            "d0002x0001",
            "d0003x0000",
            "d0003x0001",
        )

    def test_order_covers_every_box_once(self):
        hard = make_detection_hard_instance(0.6, 0.2, 0.01)
        order = detection_hard_order(hard, 0.6)
        assert sorted(order) == sorted(b.box_id for b in hard.instance.boxes)

    def test_top_rung_has_empty_first_stage(self):
        hard = make_detection_hard_instance(0.6, 0.2, 0.01)
        order = detection_hard_order(hard, 0.6)
        assert order[:4] == ("f0000", "d0000x0000", "f0001", "d0000x0001")

    def test_every_rung_above_the_cut_on_a_finer_ladder(self):
        # Four copies per rung, five rungs above 2c-1: every box once, the
        # free boxes alternating with the copies of x, the rest descending.
        hard = make_detection_hard_instance(DETECTION_C, 0.1, 1e-3)
        m = hard.multiplicity
        value = {b.box_id: b.dist.atoms for b in hard.instance.boxes}
        xs = [x for x in hard.grid if x > 2.0 * hard.c - 1.0 + 1e-9]
        assert m >= 3 and len(xs) >= 4
        for j, x in enumerate(xs):
            order = detection_hard_order(hard, x)
            assert len(order) == len(hard.instance.ids)
            assert sorted(order) == sorted(hard.instance.ids)
            paired = order[j * m : (j + 2) * m]
            assert paired[0::2] == hard.free_ids
            assert all(value[b] == ((x, 1.0),) for b in paired[1::2])
            rest = [value[b][0][0] for b in order[: j * m] + order[(j + 2) * m :]]
            assert rest == sorted(rest, reverse=True) and x not in rest

    def test_rungs_at_or_below_detection_cut_rejected(self):
        hard = make_detection_hard_instance(0.6, 0.2, 0.01)
        # 2c - 1 = 0.2: the alternating stage only works above the cut.
        with pytest.raises(ValueError):
            detection_hard_order(hard, 0.2)
        with pytest.raises(ValueError):
            detection_hard_order(hard, 0.0)
        with pytest.raises(ValueError):
            detection_hard_order(hard, 0.37)


class TestDetectionOptPrediction:
    def test_matches_exact_recursion(self):
        hard = make_detection_hard_instance(DETECTION_C, 0.04, 1e-3)
        cut = 2.0 * hard.c - 1.0
        xs = [x for x in hard.grid if x > cut + 1e-9]
        for x in (xs[0], xs[len(xs) // 2], xs[-1]):
            order = detection_hard_order(hard, x)
            exact = opt_online(hard.instance, order).stages[0, 0]
            assert detection_opt_prediction(hard, x) == pytest.approx(exact, abs=1e-9)

    def test_approaches_one_minus_c_plus_x(self):
        hard = make_detection_hard_instance(DETECTION_C, 0.04, 1e-3)
        cut = 2.0 * hard.c - 1.0
        for x in hard.grid:
            if x <= cut + 1e-9:
                continue
            opt = detection_opt_prediction(hard, x)
            tol = 0.75 * hard.step + 3.0 * hard.delta / hard.epsilon
            assert abs(opt - (1.0 - hard.c + x)) <= tol


class TestDetectionFormula:
    def test_targeted_branch_returns_the_target(self):
        assert detection_formula(0.6, 0.5, 0.8) == pytest.approx(0.8, abs=1e-12)
        assert detection_formula(0.6, 0.5, 0.6) == pytest.approx(0.6, abs=1e-12)

    def test_switched_branch_takes_the_floor(self):
        # kink at 1 - c + x = 0.9; above it the policy has switched
        assert detection_formula(0.6, 0.5, 0.95) == pytest.approx(0.55, abs=1e-12)
        # low rung, modest target: the 1 - c floor binds
        assert detection_formula(0.6, 0.2, 0.75) == pytest.approx(0.4, abs=1e-12)

    def test_exact_policy_tracks_the_formula(self):
        hard = make_detection_hard_instance(DETECTION_C, 0.04, 1e-3)
        tol = 5.0 * (hard.epsilon + hard.delta / hard.epsilon)
        cut = 2.0 * hard.c - 1.0
        xs = [x for x in hard.grid if x > cut + 1e-9]
        for x in (xs[0], xs[len(xs) // 2], xs[-1]):
            kink = 1.0 - hard.c + x
            for g0 in (hard.c, hard.c + 0.05, 0.75, 0.9, 1.0):
                if abs(g0 - kink) < 0.06:
                    continue
                exact = tvd_on_detection_order(hard, x, g0)
                limit = detection_formula(hard.c, x, g0)
                assert abs(exact - limit) <= tol

    def test_rejects_targets_outside_band(self):
        hard = make_detection_hard_instance(DETECTION_C, 0.04, 1e-3)
        with pytest.raises(ValueError):
            tvd_on_detection_order(hard, hard.c, 0.5)
        with pytest.raises(ValueError):
            tvd_on_detection_order(hard, hard.c, 1.1)


class TestGeneralPrimal:
    def test_rejects_bad_steps(self):
        for step in (0.0, -0.1, PHI - 1.0, 0.7):
            with pytest.raises(HardnessParameterError):
                build_primal_general(step)

    def test_pinned_optima(self):
        for step, pin in GENERAL_PRIMAL_PINS.items():
            assert general_primal_value(step) == pytest.approx(pin, abs=1e-9)

    def test_refinement_climbs_toward_the_bound(self):
        values = [general_primal_value(s) for s in (0.04, 0.02, 0.01, 0.005)]
        for coarse, fine in zip(values, values[1:]):
            assert fine >= coarse - 1e-12
        assert all(v >= 1.0 / PHI for v in values)
        assert all(v <= GENERAL_DUAL_BOUND + 1e-9 for v in values)

    def test_fine_grid_reaches_the_bound(self):
        value = general_primal_value(1e-3)
        assert abs(value - GENERAL_DUAL_BOUND) <= 5e-3


class TestDetectionPrimal:
    def test_rejects_bad_parameters(self):
        with pytest.raises(HardnessParameterError):
            build_primal_tvd(0.5, 0.01)
        with pytest.raises(HardnessParameterError):
            build_primal_tvd(1.0, 0.01)
        with pytest.raises(HardnessParameterError):
            build_primal_tvd(0.6, 0.0)
        with pytest.raises(HardnessParameterError):
            build_primal_tvd(0.6, 0.5)

    def test_ten_cell_pin(self):
        h = (1.0 - DETECTION_C) / 10.0
        value = simplex_solve(build_primal_tvd(DETECTION_C, h)).value
        assert value == pytest.approx(0.7585715541261239, abs=1e-9)

    def test_pinned_optima(self):
        for step, pin in DETECTION_PRIMAL_PINS.items():
            assert detection_primal_value(step) == pytest.approx(pin, abs=1e-9)

    def test_refinement_descends_toward_the_bound(self):
        values = [detection_primal_value(s) for s in (0.02, 0.01, 0.005)]
        for coarse, fine in zip(values, values[1:]):
            assert fine <= coarse + 1e-12
        assert all(v >= DETECTION_DUAL_BOUND - 1e-9 for v in values)
        assert all(v <= 0.80 for v in values)


class TestDensityPlugIn:
    """The 0.732 density is a feasible point of the detection program."""

    def cell_masses(self, cells: int) -> tuple[float, ...]:
        spec = rho_732()
        c, _ = solve_c_732()
        h = (1.0 - c) / cells
        return tuple(
            integrate_weighted(spec, "one", c + i * h, c + (i + 1) * h)
            for i in range(cells)
        )

    def test_masses_sum_to_one(self):
        q = self.cell_masses(40)
        assert math.fsum(q) == pytest.approx(1.0, abs=1e-9)

    def test_rounded_guarantee_is_feasible(self):
        c, _ = solve_c_732()
        cells = 40
        lp = build_primal_tvd(c, (1.0 - c) / cells)
        z = (0.732,) + self.cell_masses(cells)
        for row, rhs in zip(lp.rows[:-1], lp.rhs[:-1]):
            lhs = math.fsum(a * b for a, b in zip(row, z))
            assert lhs <= rhs

    def test_exact_guarantee_is_nearly_tight(self):
        c, gamma = solve_c_732()
        cells = 200
        lp = build_primal_tvd(c, (1.0 - c) / cells)
        z = (gamma,) + self.cell_masses(cells)
        worst = max(
            math.fsum(a * b for a, b in zip(row, z)) - rhs
            for row, rhs in zip(lp.rows[:-1], lp.rhs[:-1])
        )
        assert worst <= 0.0
        assert worst >= -1e-4


def general_constraint(report, x):
    """mu (x-1) + int_1^x lam(y)(x-y-1) dy for the certificate lam = K e^y."""
    cert = report.certificate
    return cert.mu * (x - 1.0) - cert.lam(0.0) * math.e * (x - 1.0)


def detection_constraint(report, y):
    """The detection certificate's constraint at y, minus mu, as once scanned."""
    c, a, b, mu = report.c, report.a, report.b, report.certificate.mu
    lo, mid = 2.0 * c - 1.0, 1.0 - c
    total = a * (1.0 / lo - 1.0 / mid) + b * (2.0 * c - 1.0) / mid
    z = y - (1.0 - c)
    if z <= lo:
        below = 0.0
    elif z < mid:
        below = a * (1.0 / lo - 1.0 / z)
    else:
        below = a * (1.0 / lo - 1.0 / mid) + b * (min(z, c) - mid) / mid
    return y * (total - below) + max(1.0 - c, z) * below - mu


class TestDualsAgainstDenseScan:
    """The breakpoint maxima, checked against the 10^4-point scans they replace."""

    @pytest.mark.parametrize("inject", [0.0, 1e-3])
    def test_general_maximum_is_a_breakpoint_value(self, inject):
        report = verify_dual_general(inject_error=inject)
        breakpoints = [general_constraint(report, x) for x in (1.0, PHI)]
        assert report.max_violation == max([-report.normalization_slack] + breakpoints)
        scan = [general_constraint(report, 1.0 + (PHI - 1.0) * i / 9999) for i in range(10_000)]
        assert max(scan) <= report.max_violation + 4 * math.ulp(report.certificate.mu)

    @pytest.mark.parametrize("inject", [0.0, 1e-3])
    def test_detection_maximum_is_a_breakpoint_value(self, inject):
        report = verify_dual_tvd(inject_error=inject)
        c = report.c
        breakpoints = [detection_constraint(report, y) for y in (c, 2.0 - 2.0 * c, 1.0)]
        assert report.max_violation == max([-report.normalization_residual] + breakpoints)
        scan = [detection_constraint(report, c + (1.0 - c) * i / 9999) for i in range(10_000)]
        assert max(scan) <= report.max_violation + 4 * math.ulp(report.certificate.mu)

    def test_detection_constraint_is_tight_on_the_whole_range(self):
        report = verify_dual_tvd()
        c = report.c
        for i in range(101):
            y = c + (1.0 - c) * i / 100
            assert abs(detection_constraint(report, y)) <= 4 * math.ulp(report.certificate.mu)

    @pytest.mark.parametrize("verify", [verify_dual_general, verify_dual_tvd])
    def test_nan_certificate_is_a_violation(self, verify):
        report = verify(inject_error=float("nan"))
        assert not (report.max_violation <= 1e-8)


def solver_tableau_mb(lp):
    """simplex_solve's condensed tableau: (rows + 1) x (variables + 1)
    float64 entries, one column per nonbasic variable plus b."""
    return (len(lp.rhs) + 1) * (lp.n_vars + 1) * 8 / 2**20


class TestPrimalTableauSize:
    @pytest.mark.parametrize("step", [0.02, 0.005, 0.001])
    def test_is_the_larger_solver_tableau(self, step):
        general = solver_tableau_mb(build_primal_general(step))
        detection = solver_tableau_mb(build_primal_tvd(DETECTION_C, step))
        assert primal_tableau_mb(step) == general > detection

    @pytest.mark.parametrize("step", [0.0, 5e-324, PHI - 1.0, math.nan])
    def test_rejects_steps_outside_the_ladder(self, step):
        with pytest.raises(HardnessParameterError):
            primal_tableau_mb(step)


def loop_primal_general(grid_step):
    """The general program built entry by entry in Python floats."""
    cells = max(1, round((PHI - 1.0) / grid_step))
    step = (PHI - 1.0) / cells
    grid = [PHI - j * step for j in range(cells + 1)]
    grid[-1] = 1.0
    rows = [[PHI] + [1.0 - x for x in grid]]
    rhs = [1.0]
    for i, x in enumerate(grid):
        rows.append([x + 1.0] + [x + 1.0 - y if j <= i else 0.0 for j, y in enumerate(grid)])
        rhs.append(x + 1.0)
    rows.append([0.0] + [1.0] * len(grid))
    rhs.append(1.0)
    return [1.0] + [0.0] * len(grid), rows, rhs


def loop_primal_tvd(c, grid_step):
    """The detection program built entry by entry in Python floats."""
    cells = max(2, round((1.0 - c) / grid_step))
    h = (1.0 - c) / cells
    mids = [c + (i + 0.5) * h for i in range(cells)]
    xs = [2.0 * c - 1.0 + (j + 1) * h for j in range(cells)]
    xs[-1] = c
    rows = []
    for x in xs:
        opt_x = 1.0 - c + x
        values = [y if y <= opt_x else max(1.0 - c, y - (1.0 - c)) for y in mids]
        rows.append([opt_x] + [-v for v in values])
    rows.append([0.0] + [1.0] * cells)
    return [1.0] + [0.0] * cells, rows, [0.0] * cells + [1.0]


class TestPrimalBuilders:
    @pytest.mark.parametrize("step", [0.1, 0.02, 0.0123, 0.005, 0.001])
    def test_match_the_loop_builders_bit_for_bit(self, step):
        for lp, loop in (
            (build_primal_general(step), loop_primal_general(step)),
            (build_primal_tvd(DETECTION_C, step), loop_primal_tvd(DETECTION_C, step)),
        ):
            for field, reference in zip((lp.objective, lp.rows, lp.rhs), loop):
                expected = np.array(reference, dtype=float)
                assert field.shape == expected.shape
                assert field.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("epsilon", [0.6, 0.3, 0.1, 0.0123, 0.005, 0.001])
    def test_general_program_reads_the_instance_ladder(self, epsilon):
        # Row 1 + j of the program is the free-after-x_j order of the
        # instance at the same step, with x_j + 1 in the ratio column.
        grid = np.array(make_general_hard_instance(epsilon, epsilon * epsilon / 2).grid)
        assert grid.size > 1
        assert (grid + 1.0).tobytes() == build_primal_general(epsilon).rows[1:-1, 0].tobytes()

    def test_pivot_counts(self):
        assert simplex_solve(build_primal_general(0.005)).pivots == 125
        assert simplex_solve(build_primal_tvd(DETECTION_C, 0.005)).pivots == 84

    def test_build_and_solve_peak_at_most_twice_the_tableau(self):
        # The program's rows and two tableaus: 8.8 MB at step 0.001, so one
        # more tableau-sized copy (2.9 MB) beside the solver's would fail.
        tracemalloc.start()
        try:
            lp = build_primal_general(0.001)
            simplex_solve(lp)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak / 2**20 <= lp.rows.nbytes / 2**20 + 2.0 * primal_tableau_mb(0.001)


class TestGeneralDual:
    def test_certificate_is_feasible(self):
        report = verify_dual_general()
        assert report.objective == pytest.approx(GENERAL_DUAL_BOUND, abs=1e-12)
        assert abs(report.objective - 0.8293) <= 1e-3
        assert report.max_violation <= 1e-8
        assert report.normalization_slack == pytest.approx(0.0, abs=1e-12)

    def test_certificate_density_matches_multiplier_at_the_foot(self):
        report = verify_dual_general()
        cert = report.certificate
        assert (cert.lo, cert.hi) == (1.0, PHI)
        assert cert.lam(1.0) == pytest.approx(cert.mu, abs=1e-15)

    def test_perturbed_certificate_fails(self):
        report = verify_dual_general(inject_error=1e-3)
        assert report.max_violation > 1e-8


class TestDetectionDual:
    def test_certificate_is_feasible(self):
        report = verify_dual_tvd()
        assert report.c == pytest.approx(DETECTION_C, abs=1e-12)
        assert report.a == pytest.approx(0.2159418197954235, abs=1e-9)
        assert report.b == pytest.approx(1.300425226112278, abs=1e-9)
        assert report.objective == pytest.approx(DETECTION_DUAL_BOUND, abs=1e-12)
        assert abs(report.objective - 0.758184) <= 1e-4
        assert report.max_violation <= 1e-8
        assert report.normalization_residual == pytest.approx(0.0, abs=1e-12)

    def test_perturbed_certificate_fails(self):
        report = verify_dual_tvd(inject_error=1e-3)
        assert report.max_violation > 1e-8


class TestSolveCDetection:
    def test_fixed_point_residual(self):
        c = solve_c_detection()
        rhs = -1.0 + 1.0 / (2.0 * (1.0 - c)) + (1.0 - c) * math.log(
            (1.0 - c) / (2.0 * c - 1.0)
        )
        assert abs(rhs - c) < 1e-10

    def test_root_in_expected_band(self):
        c = solve_c_detection()
        assert 0.55 < c < 0.62
        # two-piece support [2c-1, 1-c) + [1-c, c] needs 2c-1 < 1-c
        assert 2.0 * c - 1.0 < 1.0 - c


class TestWeakDuality:
    def test_general_gap_shrinks_under_refinement(self):
        gaps = [
            GENERAL_DUAL_BOUND - general_primal_value(s) for s in (0.02, 0.01, 0.005)
        ]
        for gap in gaps:
            assert 0.0 < gap <= 1e-3
        for coarse, fine in zip(gaps, gaps[1:]):
            assert fine <= coarse + 1e-6

    def test_detection_gap_shrinks_under_refinement(self):
        gaps = [
            detection_primal_value(s) - DETECTION_DUAL_BOUND for s in (0.02, 0.01, 0.005)
        ]
        for gap in gaps:
            assert 0.0 < gap <= 1e-3
        for coarse, fine in zip(gaps, gaps[1:]):
            assert fine <= coarse + 1e-6


class TestEndToEndGeneral:
    """A golden-ratio starting target earns the ladder top on every order."""

    def test_min_ratio_sits_at_the_golden_floor(self):
        hard = make_general_hard_instance(0.1, 1e-4)
        g0 = prophet_value(hard.instance) / PHI
        orders = [free_last_order(hard)]
        orders += [free_after_order(hard, x) for x in hard.grid]
        ratios = []
        for order in orders:
            alg = tva_exact(hard.instance, order, g0).stages[0, 0]
            assert alg == pytest.approx(PHI, abs=1e-9)
            ratios.append(alg / opt_online(hard.instance, order).stages[0, 0])
        worst = min(ratios)
        assert worst >= 1.0 / PHI - 1e-9
        assert worst <= 1.0 / PHI + hard.step
        assert worst <= GENERAL_DUAL_BOUND


class TestEndToEndDetection:
    """The 0.732 randomized policy clears its floor on the hard orders."""

    def test_randomized_ratio_between_floor_and_cap(self):
        hard = make_detection_hard_instance(DETECTION_C, 0.04, 1e-3)
        spec = rho_732()
        cut = 2.0 * hard.c - 1.0
        xs = [x for x in hard.grid if x > cut + 1e-9]
        ratios = []
        for x in (xs[0], xs[len(xs) // 2], xs[-1]):
            order = detection_hard_order(hard, x)
            value = randomized_value(hard.instance, order, spec, policy_kind="tvd")
            opt = opt_online(hard.instance, order).stages[0, 0]
            ratios.append(value / opt)
        assert min(ratios) >= 0.732 - 0.01
        assert max(ratios) <= 1.0 + 1e-9
        # the family keeps even this density close to the detection cap
        assert min(ratios) <= DETECTION_DUAL_BOUND + 5e-3
