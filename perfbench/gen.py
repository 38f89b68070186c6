"""Seeded instance generator for the benchmark workloads.

Every instance is a list of boxes, each with ``atoms`` distinct values drawn
uniformly from [VALUE_LO, VALUE_HI) and rounded to six decimals; no value
repeats anywhere in the instance.  Probabilities are integer weights over
PROB_DENOMINATOR, so they are exact binary fractions that sum to exactly one
and the loader never renormalizes them.
"""

from __future__ import annotations

import random

VALUE_LO = 0.0
VALUE_HI = 10.0
PROB_DENOMINATOR = 1024
MAX_WEIGHT = 64


def workload_rng(workload: str, seed: int) -> random.Random:
    """One stream per (workload, seed); string seeding is stable across runs."""
    return random.Random(f"ocselect-bench:{workload}:{seed}")


def make_instance(rng: random.Random, boxes: int, atoms: int) -> dict:
    used: set[float] = set()
    out = []
    for b in range(boxes):
        values: list[float] = []
        while len(values) < atoms:
            v = round(rng.uniform(VALUE_LO, VALUE_HI), 6)
            if v not in used:
                used.add(v)
                values.append(v)
        raw = [rng.randint(1, MAX_WEIGHT) for _ in range(atoms)]
        scale = PROB_DENOMINATOR / sum(raw)
        weights = [max(1, int(w * scale)) for w in raw]
        weights[weights.index(max(weights))] += PROB_DENOMINATOR - sum(weights)
        pairs = sorted(zip(values, weights))
        out.append(
            {"id": f"b{b}", "atoms": [[v, w / PROB_DENOMINATOR] for v, w in pairs]}
        )
    return {"boxes": out}
