"""One-order scalar evaluators: the reference the lane evaluators are tested against.

Each function here walks one arrival order one Python float at a time,
through the distributions' own tables and the step machines' helpers
(``inverse_target``, ``suffix_expected_max``, ``best_single_threshold``).
The lane pass in ``ocselect`` repeats the same IEEE operations in the same
order, so the tests compare the two under ``==``, every field of each
``EvaluationResult`` included.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import NamedTuple, Sequence

from ocselect import DensitySpec, DiscreteDistribution, EvaluationResult, Instance
from ocselect.benchmarks import ArrivalOrder, best_single_threshold, order_indices
from ocselect.distributions import expected_max_with, inverse_target, suffix_expected_max
from ocselect.policies import EXACT_POLICIES, PolicyError, _mix, _mixture_pieces


def ordered_dists(instance: Instance, order: ArrivalOrder) -> tuple[DiscreteDistribution, ...]:
    """Distributions in arrival order, validating the order is a bijection."""
    return tuple(instance.dists[i] for i in order_indices(instance, order))


def emax_after(dists: Sequence[DiscreteDistribution]) -> list[float]:
    """emax_after[t] = E[max of the boxes strictly after stage t]."""
    return suffix_expected_max(dists[1:])


def threshold_run_values(
    dists: Sequence[DiscreteDistribution], thresholds: Sequence[float]
) -> tuple[float, ...]:
    """Per-stage values of taking the first v_t >= thresholds[t], by backward induction."""
    stages = [0.0]
    acc = 0.0
    for d, threshold in zip(reversed(dists), reversed(thresholds)):
        idx = bisect_left(d.values, threshold)
        acc = d.tail_mean[idx] + d.head_mass[idx] * acc
        stages.append(acc)
    return tuple(reversed(stages))


class Thresholds(NamedTuple):
    per_stage: list[float]
    targets: list[float]
    switch_stage: int | None


def stage_thresholds(
    policy_kind: str, g0: float, dists: Sequence[DiscreteDistribution]
) -> Thresholds:
    """Acceptance threshold of each stage, with the targets walked to get there.

    ``sta`` accepts at g0 at every stage.  ``tva`` accepts at each target of
    the walk g_t = inverse_target(d_t, g_{t-1}).  ``tvd`` walks the same
    targets until the first g_t above emax_after[t]; from that switch stage on
    it accepts at the best single threshold over the remaining boxes.
    """
    if policy_kind not in EXACT_POLICIES:
        raise PolicyError(f"unknown policy kind: {policy_kind!r}")
    if not (g0 >= 0.0):
        what = "threshold" if policy_kind == "sta" else "initial target"
        raise ValueError(f"{what} must be >= 0: {g0!r}")
    n = len(dists)
    if policy_kind == "sta":
        return Thresholds([g0] * n, [], None)
    levels = emax_after(dists) if policy_kind == "tvd" else None
    targets: list[float] = []
    g = g0
    for t, d in enumerate(dists):
        g = inverse_target(d, g)
        targets.append(g)
        if levels is not None and g > levels[t]:
            tau = best_single_threshold(dists[t:]).tau
            return Thresholds(targets[:t] + [tau] * (n - t), targets, t)
    return Thresholds(targets, targets, None)


def opt_online(instance: Instance, order: ArrivalOrder) -> EvaluationResult:
    """Order-aware online optimum by backward induction."""
    stages = [0.0]
    acc = 0.0
    for d in reversed(ordered_dists(instance, order)):
        acc = expected_max_with(d, acc)
        stages.append(acc)
    return EvaluationResult("opt", tuple(reversed(stages)))


def sta_exact(instance: Instance, order: ArrivalOrder, tau: float) -> EvaluationResult:
    dists = ordered_dists(instance, order)
    plan = stage_thresholds("sta", tau, dists)
    return EvaluationResult("sta", threshold_run_values(dists, plan.per_stage), threshold=tau)


def exact(policy_kind: str, instance: Instance, order: ArrivalOrder, g0: float) -> EvaluationResult:
    """``tva_exact`` or ``tvd_exact``, one stage at a time."""
    dists = ordered_dists(instance, order)
    plan = stage_thresholds(policy_kind, g0, dists)
    switch = plan.switch_stage
    return EvaluationResult(
        policy_kind,
        threshold_run_values(dists, plan.per_stage),
        targets=tuple(plan.targets),
        switch_stage=switch,
        threshold=None if switch is None else plan.per_stage[switch],
    )


def tva_exact(instance: Instance, order: ArrivalOrder, g0: float) -> EvaluationResult:
    return exact("tva", instance, order, g0)


def tvd_exact(instance: Instance, order: ArrivalOrder, g0: float) -> EvaluationResult:
    return exact("tvd", instance, order, g0)


EVALUATORS = {"sta": sta_exact, "tva": tva_exact, "tvd": tvd_exact}


def randomized_value(
    instance: Instance, order: ArrivalOrder, density: DensitySpec, policy_kind: str = "tvd"
) -> float:
    """The mixture over the same pieces, each valued by the scalar evaluator at its midpoint."""
    dists = ordered_dists(instance, order)
    boxes = order_indices(instance, order)
    weights, mids = _mixture_pieces(instance, boxes, emax_after(dists), density, policy_kind)
    evaluate = EVALUATORS[policy_kind]
    return _mix(weights, [evaluate(instance, order, g0).total for g0 in mids])
