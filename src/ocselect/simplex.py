"""Small dense simplex solver for the certification programs.

The linear programs here have at most a few hundred variables, so a plain
dense tableau with Bland's anti-cycling rule is both sufficient and easy
to audit.  Problems are stated as: maximize objective . z subject to
rows . z <= rhs and z >= 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

FEASIBILITY_TOL = 1e-9
PIVOT_TOL = 1e-10
PHASE1_TOL = 1e-8


class InfeasibleError(ValueError):
    """The constraint set admits no nonnegative solution."""


class UnboundedError(ValueError):
    """The objective is unbounded above on the feasible set."""


@dataclass(frozen=True)
class FiniteLP:
    """maximize objective . z  subject to  rows . z <= rhs,  z >= 0."""

    objective: tuple[float, ...]
    rows: tuple[tuple[float, ...], ...]
    rhs: tuple[float, ...]

    def __post_init__(self) -> None:
        n = len(self.objective)
        if n == 0:
            raise ValueError("LP needs at least one variable")
        if len(self.rows) != len(self.rhs):
            raise ValueError("row/rhs count mismatch")
        for row in self.rows:
            if len(row) != n:
                raise ValueError("row width does not match variable count")
        flat = list(self.objective) + list(self.rhs) + [v for r in self.rows for v in r]
        if not all(np.isfinite(flat)):
            raise ValueError("LP data must be finite")

    @property
    def n_vars(self) -> int:
        return len(self.objective)


class LPSolution(NamedTuple):
    value: float
    solution: tuple[float, ...]
    # Largest violation of rows . z <= rhs at the returned point (>= 0).
    residual: float
    # Bland pivots taken in phase 1 and phase 2 (0 in phase 1 without artificials).
    pivots: tuple[int, int]


def simplex_solve(lp: FiniteLP) -> LPSolution:
    """Two-phase dense simplex with Bland's rule.

    Raises InfeasibleError / UnboundedError, and ArithmeticError if the
    returned point fails the independent feasibility post-check.
    """
    n = lp.n_vars
    m = len(lp.rows)
    a = np.array(lp.rows, dtype=float).reshape(m, n)
    b = np.array(lp.rhs, dtype=float)
    c = np.array(lp.objective, dtype=float)

    # Ax + s = b with slacks; flip rows with negative rhs and add artificials.
    flip = b < 0.0
    a = np.where(flip[:, None], -a, a)
    b = np.where(flip, -b, b)
    slack = np.diag(np.where(flip, -1.0, 1.0))
    art_rows = np.nonzero(flip)[0]
    n_art = len(art_rows)
    art = np.zeros((m, n_art))
    for k, i in enumerate(art_rows):
        art[i, k] = 1.0

    tableau = np.hstack([a, slack, art, b[:, None]])
    basis = [n + i for i in range(m)]
    for k, i in enumerate(art_rows):
        basis[i] = n + m + k

    if n_art:
        cost1 = np.zeros(n + m + n_art)
        cost1[n + m :] = 1.0
        reduced = cost1.copy()
        obj = 0.0
        for i in range(m):
            if basis[i] >= n + m:
                reduced[: n + m + n_art] -= tableau[i, :-1]
                obj -= tableau[i, -1]
        tableau = np.vstack([tableau, np.append(reduced, obj)])
        phase1 = _iterate(tableau, basis)
        if tableau[-1, -1] < -PHASE1_TOL:
            raise InfeasibleError(f"phase-1 infeasibility {-tableau[-1, -1]:.3e}")
        tableau = _drop_artificials(tableau, basis, n + m)
    else:
        phase1 = 0
        tableau = np.vstack([tableau, np.zeros(tableau.shape[1])])

    # Phase 2: minimize -objective.
    cost2 = np.zeros(tableau.shape[1] - 1)
    cost2[:n] = -c
    reduced = cost2.copy()
    obj = 0.0
    rows_total = tableau.shape[0] - 1
    for i in range(rows_total):
        coef = cost2[basis[i]]
        if coef != 0.0:
            reduced -= coef * tableau[i, :-1]
            obj -= coef * tableau[i, -1]
    tableau[-1, :-1] = reduced
    tableau[-1, -1] = obj
    phase2 = _iterate(tableau, basis)

    z = np.zeros(tableau.shape[1] - 1)
    for i in range(rows_total):
        z[basis[i]] = tableau[i, -1]
    solution = z[:n]

    residual = float(np.max(np.array(lp.rows) @ solution - np.array(lp.rhs), initial=0.0))
    if residual > FEASIBILITY_TOL or float(np.min(solution, initial=0.0)) < -FEASIBILITY_TOL:
        raise ArithmeticError(f"solution fails post-check, residual {residual:.3e}")
    value = float(np.dot(lp.objective, solution))
    return LPSolution(value, tuple(float(v) for v in solution), residual, (phase1, phase2))


def _iterate(tableau: np.ndarray, basis: list[int]) -> int:
    """Pivot until no reduced cost is negative; returns the number of pivots."""
    m = tableau.shape[0] - 1
    limit = 200 * (tableau.shape[0] + tableau.shape[1])
    for pivots in range(limit):
        reduced = tableau[-1, :-1]
        candidates = np.nonzero(reduced < -PIVOT_TOL)[0]
        if candidates.size == 0:
            return pivots
        col = int(candidates[0])  # Bland: lowest eligible index enters
        column = tableau[:m, col]
        positive = np.nonzero(column > PIVOT_TOL)[0]
        if positive.size == 0:
            raise UnboundedError(f"column {col} unbounded")
        ratios = tableau[positive, -1] / column[positive]
        best = ratios.min()
        ties = positive[np.nonzero(ratios <= best + 1e-15)[0]]
        row = int(min(ties, key=lambda i: basis[i]))  # Bland: lowest basis leaves
        _pivot(tableau, basis, row, col)
    raise ArithmeticError("pivot limit exceeded")


def _pivot(tableau: np.ndarray, basis: list[int], row: int, col: int) -> None:
    tableau[row] /= tableau[row, col]
    factors = tableau[:, col].copy()
    factors[row] = 0.0
    tableau -= factors[:, None] * tableau[row]
    basis[row] = col


def _drop_artificials(tableau: np.ndarray, basis: list[int], first_art: int) -> np.ndarray:
    """Pivot zero-level artificials out of the basis, then cut their columns."""
    m = tableau.shape[0] - 1
    drop_rows = []
    for i in range(m):
        if basis[i] < first_art:
            continue
        pivots = np.nonzero(np.abs(tableau[i, :first_art]) > PIVOT_TOL)[0]
        if pivots.size:
            _pivot(tableau, basis, i, int(pivots[0]))
        else:
            drop_rows.append(i)  # redundant row
    if drop_rows:
        keep = [i for i in range(m) if i not in drop_rows] + [m]
        tableau = tableau[keep]
        for i in sorted(drop_rows, reverse=True):
            del basis[i]
    return np.hstack([tableau[:, :first_art], tableau[:, -1:]])
