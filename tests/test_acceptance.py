"""Package-level acceptance checks.

Eleven behavioural criteria, one test each, in order: target consistency,
robustness, the deterministic golden-ratio floor, the randomized density
guarantees, the density constants, stage-wise target monotonicity, both
hardness bounds, the detection-family limit formulas, brute-force oracle
equivalence, and Monte Carlo agreement.  Each test finishes by printing a
single ``criterion K: PASS`` line with its key numbers; run pytest with
``-s`` to see them.
"""

from __future__ import annotations

import csv
import io
import math
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import scalar_reference as ref
from conftest import all_orders, brute_force_opt, random_instance
from ocselect import (
    PHI,
    build_primal_general,
    detection_formula,
    detection_hard_order,
    integrate_weighted,
    make_detection_hard_instance,
    opt_online,
    prophet_value,
    rho_656,
    rho_732,
    simplex_solve,
    solve_c_656,
    solve_c_732,
    solve_c_detection,
    tva_exact,
    tvd_exact,
    verify_dual_general,
    verify_dual_tvd,
    verify_guarantee,
)
from ocselect.benchmarks import order_indices
from ocselect.cli import main
from ocselect.policies import lane_randomized_values, lane_values

DATA_DIR = Path(__file__).resolve().parents[1] / "data"
GRID_POINTS = 20
FLOOR_TOL = 1e-9
STAGE_TOL = 1e-9


@pytest.fixture(scope="module")
def sweep_report(sweep_instances) -> SimpleNamespace:
    """One pass over 500 instances x all orders, shared by criteria 1-3 and 6.

    For every (instance, order) pair the pass evaluates the plain targeted
    policy on 20 starting targets in [0, OPT] (consistency, under-direction
    stage monotonicity), 20 in (OPT, prophet] (robustness for both policies,
    over-direction monotonicity), and once at prophet/phi (the golden floor).
    Each instance's orders go through the lane evaluator together: a tva
    lane's thresholds are its targets, as ``tva_exact`` reports them.
    """
    report = SimpleNamespace(
        pairs=0,
        consistency_worst=math.inf,
        consistency_elapsed=0.0,
        robustness_tva_worst=math.inf,
        robustness_tvd_worst=math.inf,
        under_worst=-math.inf,
        over_worst=math.inf,
        over_points=0,
        golden_worst=math.inf,
    )
    for instance in sweep_instances:
        prophet = prophet_value(instance)
        orders = all_orders(instance)
        perm = np.array([order_indices(instance, order) for order in orders])
        report.pairs += len(orders)
        opt = lane_values("opt", instance, perm, np.arange(len(orders)), None).stages
        opt_total = opt[:, 0]
        # The optimum after each stage, per order: the targets' yardstick.
        after = opt[:, 1:]

        start = time.perf_counter()
        g0 = np.linspace(0.0, opt_total, GRID_POINTS, axis=1)
        rows = np.repeat(np.arange(len(orders)), GRID_POINTS)
        result = lane_values("tva", instance, perm, rows, g0.ravel())
        report.consistency_worst = min(
            report.consistency_worst, float((result.stages[:, 0] - g0.ravel()).min())
        )
        report.under_worst = max(
            report.under_worst, float((result.thresholds - after[rows]).max())
        )
        report.consistency_elapsed += time.perf_counter() - start

        over = np.flatnonzero(prophet > opt_total)
        if over.size:
            span = prophet - opt_total[over]
            k = np.arange(1, GRID_POINTS + 1)
            g0 = (opt_total[over, None] + span[:, None] * k / GRID_POINTS).ravel()
            rows = np.repeat(over, GRID_POINTS)
            result = lane_values("tva", instance, perm, rows, g0)
            report.robustness_tva_worst = min(
                report.robustness_tva_worst,
                float((result.stages[:, 0] - (prophet - g0)).min()),
            )
            # The over-direction stage claim needs a strict overestimate; at
            # float-equality g0 == OPT the under-direction branch applies
            # instead.
            strict = g0 > opt_total[rows] + 1e-9
            report.over_points += int(strict.sum())
            if strict.any():
                report.over_worst = min(
                    report.over_worst,
                    float((result.thresholds[strict] - after[rows[strict]]).min()),
                )
            detect = lane_values("tvd", instance, perm, rows, g0)
            floor = np.maximum(prophet - g0, g0 / 2.0)
            report.robustness_tvd_worst = min(
                report.robustness_tvd_worst, float((detect.stages[:, 0] - floor).min())
            )

        positive = np.flatnonzero(opt_total > 0.0)
        if positive.size:
            golden = np.full(positive.size, prophet / PHI)
            value = lane_values("tva", instance, perm, positive, golden)
            report.golden_worst = min(
                report.golden_worst, float((value.stages[:, 0] / opt_total[positive]).min())
            )
    return report


class TestCriterion1Consistency:
    def test_underestimated_target_is_always_met(self, sweep_report):
        assert sweep_report.pairs > 10_000
        assert sweep_report.consistency_worst >= -FLOOR_TOL
        assert sweep_report.consistency_elapsed <= 120.0
        print(
            f"criterion 1: PASS consistency on {sweep_report.pairs} orders, "
            f"worst margin {sweep_report.consistency_worst:.2e}, "
            f"{sweep_report.consistency_elapsed:.1f}s"
        )


class TestCriterion2Robustness:
    def test_overestimated_target_keeps_the_fallback(self, sweep_report):
        assert sweep_report.robustness_tva_worst >= -FLOOR_TOL
        assert sweep_report.robustness_tvd_worst >= -FLOOR_TOL
        print(
            "criterion 2: PASS robustness, worst margins "
            f"tva {sweep_report.robustness_tva_worst:.2e} / "
            f"tvd {sweep_report.robustness_tvd_worst:.2e}"
        )


class TestCriterion3GoldenFloor:
    def test_prophet_over_phi_start_clears_golden_ratio(self, sweep_report):
        assert sweep_report.golden_worst >= 0.618033 - 1e-6
        print(
            "criterion 3: PASS golden floor, worst ratio "
            f"{sweep_report.golden_worst:.6f}"
        )


class TestCriterion4RandomizedGuarantees:
    def test_densities_clear_their_ratios_per_order(self):
        rng = np.random.default_rng(20260415)
        picks = [
            (rho_656(), "tva"),
            (rho_732(), "tvd"),
        ]
        worst = {spec.name: math.inf for spec, _ in picks}
        for _ in range(100):
            instance = random_instance(rng, int(rng.integers(2, 4)))
            perm = np.array([order_indices(instance, order) for order in all_orders(instance)])
            opt = lane_values("opt", instance, perm, np.arange(len(perm)), None).stages[:, 0]
            perm, opt = perm[opt > 0.0], opt[opt > 0.0]
            for spec, kind in picks:
                values = lane_randomized_values(instance, perm, spec, kind)
                for value, order_opt in zip(values, opt.tolist()):
                    worst[spec.name] = min(worst[spec.name], value / order_opt)
        for spec, _ in picks:
            assert spec.gamma is not None
            assert worst[spec.name] >= spec.gamma - 1e-3
        analytic = {
            spec.name: verify_guarantee(spec, kind).min_ratio
            for spec, kind in picks
        }
        for spec, _ in picks:
            assert analytic[spec.name] >= spec.gamma - 1e-6
        print(
            "criterion 4: PASS randomized guarantees, worst sampled ratios "
            + ", ".join(f"{name} {value:.6f}" for name, value in worst.items())
            + ", analytic "
            + ", ".join(f"{name} {value:.6f}" for name, value in analytic.items())
        )


class TestCriterion5DensityConstants:
    def test_constants_and_total_mass(self):
        c656, gamma656 = solve_c_656()
        assert c656 == pytest.approx(0.523, abs=1e-3)
        assert gamma656 == pytest.approx(0.656, abs=1e-3)
        c732, gamma732 = solve_c_732()
        assert c732 == pytest.approx(0.555, abs=1e-3)
        assert gamma732 == pytest.approx(0.732, abs=1e-3)
        for spec in (rho_656(), rho_732()):
            mass = integrate_weighted(spec, "one", 0.5, 1.0)
            assert mass == pytest.approx(1.0, abs=1e-8)
        print(
            "criterion 5: PASS constants "
            f"({c656:.6f}, {gamma656:.6f}) and ({c732:.6f}, {gamma732:.6f}), "
            "unit mass within 1e-8"
        )


class TestCriterion6StageMonotonicity:
    def test_targets_track_the_optimum_stage_by_stage(self, sweep_report):
        assert sweep_report.under_worst <= STAGE_TOL
        assert sweep_report.over_points > 10_000
        assert sweep_report.over_worst >= -STAGE_TOL
        print(
            "criterion 6: PASS stage-wise monotonicity, max under-target "
            f"excess {sweep_report.under_worst:.2e}, min over-target margin "
            f"{sweep_report.over_worst:.2e} on {sweep_report.over_points} points"
        )


class TestCriterion7GeneralHardness:
    def test_dual_certificate_and_fine_primal(self):
        start = time.perf_counter()
        report = verify_dual_general()
        assert abs(report.objective - 0.8293) <= 1e-3
        assert report.max_violation <= 1e-8
        primal = simplex_solve(build_primal_general(1e-3)).value
        assert abs(primal - 0.8293) <= 5e-3
        elapsed = time.perf_counter() - start
        assert elapsed <= 60.0
        print(
            f"criterion 7: PASS general bound, dual {report.objective:.10f}, "
            f"primal(1e-3) {primal:.10f}, {elapsed:.1f}s"
        )


class TestCriterion8DetectionHardness:
    def test_dual_certificate_constants(self):
        report = verify_dual_tvd()
        assert report.c == pytest.approx(0.583027, abs=1e-5)
        assert report.a == pytest.approx(0.215941, abs=1e-5)
        assert report.b == pytest.approx(1.300426, abs=1e-5)
        assert report.objective == pytest.approx(0.758184, abs=1e-4)
        assert report.max_violation <= 1e-8
        print(
            f"criterion 8: PASS detection bound, c {report.c:.6f}, "
            f"(a, b) ({report.a:.6f}, {report.b:.6f}), "
            f"objective {report.objective:.6f}"
        )


def detection_optima(hard, xs) -> list[float]:
    """``opt_online`` of the detection hard order at each x, as the lanes of one pass."""
    orders = [detection_hard_order(hard, x) for x in xs]
    perm = np.array([order_indices(hard.instance, order) for order in orders])
    lanes = lane_values("opt", hard.instance, perm, np.arange(len(xs)), None)
    return lanes.stages[:, 0].tolist()


def detection_tvd_values(hard, starts) -> list[float]:
    """``tvd_on_detection_order(hard, x, g0)`` for each (x, g0), as the lanes of one pass."""
    xs = sorted({x for x, _ in starts})
    perm = np.array([order_indices(hard.instance, detection_hard_order(hard, x)) for x in xs])
    rows = np.array([xs.index(x) for x, _ in starts])
    g0 = np.array([g0 for _, g0 in starts], dtype=float)
    return lane_values("tvd", hard.instance, perm, rows, g0).stages[:, 0].tolist()


class TestCriterion9DetectionLimits:
    def assemble_errors(
        self, epsilon: float, x_fracs, g0_picks
    ) -> tuple[float, float]:
        c = solve_c_detection()
        hard = make_detection_hard_instance(c, epsilon, 1e-5)
        cut = 2.0 * c - 1.0
        rungs = [x for x in hard.grid if x > cut + 1e-9]
        opt_err = 0.0
        tvd_err = 0.0
        xs = [min(rungs, key=lambda v: abs(v - frac * c)) for frac in x_fracs]
        for x, opt in zip(xs, detection_optima(hard, xs)):
            opt_err = max(opt_err, abs(opt - (1.0 - c + x)))
        starts = [(x, g0) for x in xs for g0 in g0_picks if abs(g0 - (1.0 - c + x)) >= 0.02]
        for (x, g0), exact in zip(starts, detection_tvd_values(hard, starts)):
            tvd_err = max(tvd_err, abs(exact - detection_formula(c, x, g0)))
        return opt_err, tvd_err

    def test_limit_formulas_with_refinement(self):
        c = solve_c_detection()
        hard = make_detection_hard_instance(c, 0.01, 1e-5)
        cut = 2.0 * c - 1.0
        rungs = [x for x in hard.grid if x > cut + 1e-9]
        worst_opt = 0.0
        for x, opt in zip(rungs, detection_optima(hard, rungs)):
            worst_opt = max(worst_opt, abs(opt - (1.0 - c + x)))
        assert worst_opt <= 0.01

        worst_tvd = 0.0
        picks = rungs[:: max(1, len(rungs) // 6)][:6]
        grid = [float(g0) for g0 in np.linspace(c, 1.0, 7)]
        starts = [(x, g0) for x in picks for g0 in grid if abs(g0 - (1.0 - c + x)) >= 0.02]
        for (x, g0), exact in zip(starts, detection_tvd_values(hard, starts)):
            limit = detection_formula(c, x, g0)
            worst_tvd = max(worst_tvd, abs(exact - limit))
        assert worst_tvd <= 0.06

        x_fracs = (0.4, 0.7, 0.95)
        g0_picks = (0.72, 0.93)
        coarse = self.assemble_errors(0.01, x_fracs, g0_picks)
        fine = self.assemble_errors(0.005, x_fracs, g0_picks)
        assert fine[0] < coarse[0]
        assert fine[1] < coarse[1]
        print(
            f"criterion 9: PASS detection limits, opt err {worst_opt:.5f} "
            f"(refined {coarse[0]:.5f} -> {fine[0]:.5f}), tvd err "
            f"{worst_tvd:.5f} (refined {coarse[1]:.5f} -> {fine[1]:.5f})"
        )


def enumerate_policy_value(instance, order, g0: float, kind: str) -> float:
    """Exhaust every realization of the decision tree and average.

    Each stage accepts the first value at or above its threshold from the
    scalar reference, so the oracle shares neither the lane inversion nor
    ``SuffixTables`` with the evaluators it checks.
    """
    boxes = order_indices(instance, order)
    dists = [instance.dists[b] for b in boxes]
    thresholds = ref.stage_thresholds(kind, g0, instance, boxes).per_stage
    terms: list[float] = []

    def walk(stage: int, prob: float) -> None:
        if stage == len(dists):
            return
        for value, p in dists[stage].atoms:
            if value >= thresholds[stage]:
                terms.append(prob * p * value)
            else:
                walk(stage + 1, prob * p)

    walk(0, 1.0)
    return math.fsum(terms)


class TestCriterion10OracleEquivalence:
    def test_exact_recursions_match_exhaustive_enumeration(self):
        rng = np.random.default_rng(77)
        worst = 0.0
        for _ in range(1000):
            instance = random_instance(rng, int(rng.integers(1, 5)), max_atoms=3)
            ids = sorted(instance.ids)
            order = tuple(str(i) for i in rng.permutation(ids))
            opt = opt_online(instance, order).stages[0, 0]
            worst = max(worst, abs(opt - brute_force_opt(instance, order)))
            assert worst <= 1e-12
            g0 = float(rng.uniform(0.0, 1.4)) * prophet_value(instance)
            exact_tva = tva_exact(instance, order, g0).stages[0, 0]
            worst = max(
                worst, abs(exact_tva - enumerate_policy_value(instance, order, g0, "tva"))
            )
            exact_tvd = tvd_exact(instance, order, g0).stages[0, 0]
            worst = max(
                worst, abs(exact_tvd - enumerate_policy_value(instance, order, g0, "tvd"))
            )
            assert worst <= 1e-12
        print(f"criterion 10: PASS oracle equivalence on 1000 cases, worst gap {worst:.2e}")


class TestCriterion11MonteCarlo:
    def run_simulation(self, tmp_path, name: str, argv: list[str]) -> bytes:
        out = tmp_path / name
        assert main(argv + ["--out", str(out)]) == 0
        return out.read_bytes()

    def test_sampling_matches_exact_values_and_reruns_bitwise(self, tmp_path):
        two_box = str(DATA_DIR / "two_box.json")
        four_box = str(DATA_DIR / "four_box.json")
        base = [
            "simulate",
            "--instance",
            two_box,
            "--policy",
            "tva",
            "--g0",
            "auto",
            "--order",
            "risky,steady",
            "--runs",
            "100000",
            "--seed",
            "20260822",
        ]
        first = self.run_simulation(tmp_path, "a.csv", base)
        second = self.run_simulation(tmp_path, "b.csv", base)
        assert first == second
        zs = []
        for argv, name in (
            (base, "z1.csv"),
            (
                [
                    "simulate",
                    "--instance",
                    four_box,
                    "--policy",
                    "tvd",
                    "--g0",
                    "auto",
                    "--runs",
                    "100000",
                    "--seed",
                    "7",
                ],
                "z2.csv",
            ),
            (
                [
                    "simulate",
                    "--instance",
                    four_box,
                    "--policy",
                    "sta",
                    "--tau",
                    "2.0",
                    "--runs",
                    "100000",
                    "--seed",
                    "99",
                ],
                "z3.csv",
            ),
        ):
            blob = self.run_simulation(tmp_path, name, argv)
            row = next(csv.DictReader(io.StringIO(blob.decode())))
            zs.append(float(row["z_score"]))
        assert all(abs(z) <= 4.0 for z in zs)
        print(
            "criterion 11: PASS Monte Carlo, z-scores "
            + ", ".join(f"{z:+.2f}" for z in zs)
            + ", re-runs byte-identical"
        )
