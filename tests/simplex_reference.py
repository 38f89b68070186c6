"""Dense Bland tableau: the reference the condensed delayed-update simplex is compared with.

``solve`` is a whole one-phase solver of its own.  Its tableau holds every
column, [A | slacks | b] over the cost row, so a column's index is its
variable's label and a basic variable's column is a unit vector.  Every
pivot is one rank-1 update of the whole tableau, applied at once.  It
builds the tableau, pivots from the slack basis (feasible, since FiniteLP's
rhs is nonnegative), reads the answer and applies both post-checks as
``ocselect.simplex`` did before it held pivots back and kept only the
nonbasic columns, and it shares no code with that module beyond its
tolerances, its exception and its result type.
"""

from __future__ import annotations

import numpy as np

from ocselect.simplex import DUALITY_TOL, FEASIBILITY_TOL, PIVOT_TOL, LPSolution, UnboundedError


def solve(lp):
    """One-phase dense simplex with Bland's rule, every pivot a rank-1 update."""
    n, m = lp.n_vars, lp.rhs.size

    tableau = np.zeros((m + 1, n + m + 1), order="F")
    tableau[:m, :n] = lp.rows
    tableau[np.arange(m), n + np.arange(m)] = 1.0
    tableau[:m, -1] = lp.rhs
    tableau[m, :n] = -lp.objective
    basis = n + np.arange(m)
    pivots = _iterate(tableau, basis)

    z = np.zeros(n + m)
    z[basis] = tableau[:-1, -1]
    solution = z[:n]

    residual = float(np.max(lp.rows @ solution - lp.rhs, initial=0.0))
    # Written as "not within bounds" so that a NaN reads as a violation.
    if not (residual <= FEASIBILITY_TOL and np.min(solution, initial=0.0) >= -FEASIBILITY_TOL):
        raise ArithmeticError(f"solution fails post-check, residual {residual:.3e}")
    value = float(np.dot(lp.objective, solution))
    y = tableau[-1, n : n + m]
    worst = np.max([-y.min(initial=0.0), np.max(lp.objective - y @ lp.rows), lp.rhs @ y - value])
    if not worst <= DUALITY_TOL:
        raise ArithmeticError(f"solution fails the optimality post-check, duality {worst:.3e}")
    return LPSolution(value, tuple(float(v) for v in solution), residual, pivots)


def dense_pivot(tableau, basis, row, col):
    """Rank-1 update over every column of the tableau."""
    tableau[row] /= tableau[row, col]
    factors = tableau[:, col].copy()
    factors[row] = 0.0
    tableau -= factors[:, None] * tableau[row]
    basis[row] = col


def _iterate(tableau, basis):
    """Pivot until no reduced cost is negative; returns the number of pivots."""
    m = tableau.shape[0] - 1
    for pivots in range(200 * (tableau.shape[0] + tableau.shape[1])):
        entering = tableau[-1, :-1] < -PIVOT_TOL
        col = int(entering.argmax())  # Bland: lowest eligible index enters
        if not entering[col]:
            return pivots
        column = tableau[:m, col]
        positive = np.flatnonzero(column > PIVOT_TOL)
        if positive.size == 0:
            raise UnboundedError(f"column {col} unbounded")
        ratios = tableau[positive, -1] / column[positive]
        ties = positive[ratios <= ratios.min() + 1e-15]
        row = int(ties[basis[ties].argmin()])  # Bland: lowest basis leaves
        dense_pivot(tableau, basis, row, col)
    raise ArithmeticError("pivot limit exceeded")
