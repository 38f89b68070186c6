"""Dense Bland tableau: the reference the condensed delayed-update simplex is compared with.

``solve`` is a whole two-phase solver of its own.  Its tableau holds every
column, [A | slacks | artificials | b] over the cost row, so a column's index
is its variable's label and a basic variable's column is a unit vector.
Every pivot is one rank-1 update of the whole tableau, applied at once.  It
builds the tableau, runs both phases, reads the answer and applies both
post-checks as ``ocselect.simplex`` did before it held pivots back and kept
only the nonbasic columns, and it shares no code with that module beyond
its tolerances, exceptions and result type.
"""

from __future__ import annotations

import numpy as np

from ocselect.simplex import (
    DUALITY_TOL,
    FEASIBILITY_TOL,
    PHASE1_TOL,
    PIVOT_TOL,
    InfeasibleError,
    LPSolution,
    UnboundedError,
)


def solve(lp):
    """Two-phase dense simplex with Bland's rule, every pivot a rank-1 update."""
    n, m = lp.n_vars, lp.rhs.size

    flip = lp.rhs < 0.0
    art_rows = np.flatnonzero(flip)
    n_art = art_rows.size
    tableau = np.zeros((m + 1, n + m + n_art + 1), order="F")
    tableau[:m, :n] = lp.rows
    tableau[art_rows, :n] = -lp.rows[art_rows]
    tableau[np.arange(m), n + np.arange(m)] = np.where(flip, -1.0, 1.0)
    tableau[art_rows, n + m + np.arange(n_art)] = 1.0
    tableau[:m, -1] = np.where(flip, -lp.rhs, lp.rhs)
    basis = n + np.arange(m)
    basis[art_rows] = n + m + np.arange(n_art)

    phase1 = 0
    if n_art:
        cost = tableau[m]
        cost[n + m : -1] = 1.0
        cost -= tableau[art_rows].sum(axis=0)
        phase1 = _iterate(tableau, basis)
        if tableau[-1, -1] < -PHASE1_TOL:
            raise InfeasibleError(f"phase-1 infeasibility {-tableau[-1, -1]:.3e}")
        tableau, basis = _drop_artificials(tableau, basis, n + m)

    cost = tableau[-1]
    cost[:] = 0.0
    cost[:n] = -lp.objective
    priced = np.flatnonzero(basis < n)
    cost += lp.objective[basis[priced]] @ tableau[priced]
    phase2 = _iterate(tableau, basis)

    z = np.zeros(tableau.shape[1] - 1)
    z[basis] = tableau[:-1, -1]
    solution = z[:n]

    residual = float(np.max(lp.rows @ solution - lp.rhs, initial=0.0))
    if residual > FEASIBILITY_TOL or float(np.min(solution, initial=0.0)) < -FEASIBILITY_TOL:
        raise ArithmeticError(f"solution fails post-check, residual {residual:.3e}")
    value = float(np.dot(lp.objective, solution))
    y = tableau[-1, n : n + m]
    worst = np.max([-y.min(initial=0.0), np.max(lp.objective - y @ lp.rows), lp.rhs @ y - value])
    if not worst <= DUALITY_TOL:
        raise ArithmeticError(f"solution fails the optimality post-check, duality {worst:.3e}")
    return LPSolution(value, tuple(float(v) for v in solution), residual, (phase1, phase2))


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


def _drop_artificials(tableau, basis, first_art):
    """Pivot zero-level artificials out of the basis, then cut their columns."""
    for i in np.flatnonzero(basis >= first_art):
        pivots = np.flatnonzero(np.abs(tableau[i, :first_art]) > PIVOT_TOL)
        dense_pivot(tableau, basis, i, int(pivots[0]))
    tableau[:, first_art] = tableau[:, -1]
    return tableau[:, : first_art + 1], basis
