"""Reference values computed apart from ocselect, used to check its output.

Nothing here imports ocselect.  The per-order online optimum is a backward
induction and the prophet value a product of CDFs, both read straight from
the instance JSON.  The hardness programs are rebuilt from their definitions
and solved with scipy's HiGHS, and the density constants are brentq roots of
their defining equations.  scipy is only used here, as an oracle.
"""

from __future__ import annotations

import math

PHI = (1.0 + math.sqrt(5.0)) / 2.0
ROOT_XTOL = 1e-15


class InstanceOracle:
    """Benchmarks of one instance, from its JSON payload."""

    def __init__(self, payload: dict):
        self.atoms = {
            box["id"]: [(float(v), float(p)) for v, p in box["atoms"]]
            for box in payload["boxes"]
        }

    @property
    def ids(self) -> tuple[str, ...]:
        return tuple(self.atoms)

    def opt(self, order: tuple[str, ...]) -> float:
        """Online optimum: value-to-go is E[max(v_t, value-to-go from t+1)]."""
        if sorted(order) != sorted(self.atoms):
            raise ValueError(f"{order!r} is not a permutation of the box ids")
        acc = 0.0
        for box in reversed(order):
            acc = sum(p * max(v, acc) for v, p in self.atoms[box])
        return acc

    def prophet(self) -> float:
        """E[max over all boxes] from the product of the boxes' CDFs."""
        support = sorted({v for atoms in self.atoms.values() for v, _ in atoms})
        total = 0.0
        below = 0.0
        for x in support:
            cdf = math.prod(
                sum(p for v, p in atoms if v <= x) for atoms in self.atoms.values()
            )
            total += x * (cdf - below)
            below = cdf
        return total


def density_constants() -> dict[str, tuple[float, float]]:
    """(c, gamma) of both starting-target densities.

    rho-656: ln(1/(2c-1)) - 2c = 2, gamma = 1/(1+c).
    rho-732: 1/(6c-3) = e^(2c) on (1/2, 2/3), gamma = -2 / ln(16(2c-1)/27).
    """
    from scipy.optimize import brentq

    c656 = brentq(
        lambda c: math.log(1.0 / (2.0 * c - 1.0)) - 2.0 * c - 2.0, 0.51, 0.75, xtol=ROOT_XTOL
    )
    c732 = brentq(
        lambda c: 1.0 / (6.0 * c - 3.0) - math.exp(2.0 * c), 0.5 + 1e-6, 2.0 / 3.0, xtol=ROOT_XTOL
    )
    return {
        "rho-656": (c656, 1.0 / (1.0 + c656)),
        "rho-732": (c732, -2.0 / math.log(16.0 * (2.0 * c732 - 1.0) / 27.0)),
    }


def detection_c() -> float:
    """c = -1 + 1/(2(1-c)) + (1-c) ln((1-c)/(2c-1)), the root in [0.51, 0.65]."""
    from scipy.optimize import brentq

    def residual(c: float) -> float:
        return -1.0 + 1.0 / (2.0 * (1.0 - c)) + (1.0 - c) * math.log(
            (1.0 - c) / (2.0 * c - 1.0)
        ) - c

    return brentq(residual, 0.51, 0.65, xtol=ROOT_XTOL)


def general_program(step: float):
    """Variables (ratio, p_x for x on the ladder phi, ..., 1).

    The free-last order: phi*ratio + sum (1-x) p_x <= 1.  For each ladder x,
    the free-after-x order: (x+1) ratio + sum over y >= x of (x+1-y) p_y
    <= x+1.  Total acceptance probability: sum p_x <= 1.
    """
    cells = max(1, round((PHI - 1.0) / step))
    h = (PHI - 1.0) / cells
    ladder = [PHI - j * h for j in range(cells)] + [1.0]
    rows = [[PHI] + [1.0 - x for x in ladder]]
    rhs = [1.0]
    for i, x in enumerate(ladder):
        rows.append([x + 1.0] + [x + 1.0 - y if j <= i else 0.0 for j, y in enumerate(ladder)])
        rhs.append(x + 1.0)
    rows.append([0.0] + [1.0] * len(ladder))
    rhs.append(1.0)
    return rows, rhs


def detection_program(c: float, step: float):
    """Variables (ratio, q_y for the cells of [c, 1]).

    Each x in (2c-1, c] is one hard order with optimum 1-c+x; a starting
    target y earns y up to that optimum and max(1-c, y-(1-c)) above it.
    """
    cells = max(2, round((1.0 - c) / step))
    h = (1.0 - c) / cells
    mids = [c + (i + 0.5) * h for i in range(cells)]
    xs = [2.0 * c - 1.0 + (j + 1) * h for j in range(cells - 1)] + [c]
    rows = []
    rhs = []
    for x in xs:
        opt_x = 1.0 - c + x
        earned = [y if y <= opt_x else max(1.0 - c, y - (1.0 - c)) for y in mids]
        rows.append([opt_x] + [-e for e in earned])
        rhs.append(0.0)
    rows.append([0.0] + [1.0] * cells)
    rhs.append(1.0)
    return rows, rhs


def max_ratio(rows, rhs) -> float:
    """max ratio (the first variable) s.t. rows . z <= rhs, z >= 0, by HiGHS."""
    from scipy.optimize import linprog

    objective = [-1.0] + [0.0] * (len(rows[0]) - 1)
    # HiGHS presolve takes about 4 s on the dense triangular general program
    # and saves nothing; without it the solve takes about 1 s.
    result = linprog(
        objective,
        A_ub=rows,
        b_ub=rhs,
        bounds=(0, None),
        method="highs",
        options={"presolve": False},
    )
    if result.status != 0:
        raise ArithmeticError(f"linprog failed: {result.message}")
    return -result.fun
