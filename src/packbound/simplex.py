"""Revised dual simplex over exact rationals.

Solves   min c.x  subject to  A x <= b,  x >= 0   with c >= 0.

The all-slack basis is dual feasible when c >= 0, so the dual simplex walks
straight to optimality without a phase-one.  A basis is a set S of basic
structural columns and a set T of tight rows (the rows whose slack is
nonbasic), with |S| = |T| = k.  Every pivot reads the basic values, the
leaving row of B^-1 [A | I] and the reduced costs off the k x k block
A[T][S]; no m x (n + m) tableau is stored or updated.

Each row (with its right-hand side) and the cost vector are scaled once by
a positive integer to integers, and the block is inverted fraction-free
(adjugate over determinant), so the pivots run in integer arithmetic.
Scaling row i scales its slack, which leaves every dual ratio of one
leaving row multiplied by the same positive factor, so only the basic
slack values are divided back by the row scale before they are compared.

The leaving row is the most negative basic value and the entering column
the smallest dual ratio, ties to the smallest index; after MAX_ITER // 2
pivots the leaving row is the first negative one (Bland), which keeps the
walk finite.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .exact import frac

MAX_ITER = 20000


class SimplexError(ValueError):
    pass


class Infeasible(SimplexError):
    pass


def _integer_row(values):
    """A rational row times the lcm of its denominators (an integer row),
    and that multiplier."""
    scale = math.lcm(*(v.denominator for v in values))
    return [v.numerator * (scale // v.denominator) for v in values], scale


def _adjugate(block):
    """(adj, det) of a nonsingular square integer matrix, signed so that
    det > 0 and adj / det is its inverse: fraction-free Gauss-Jordan
    (Bareiss) on [block | I], where every division is exact."""
    k = len(block)
    aug = [row + [int(i == j) for j in range(k)]
           for i, row in enumerate(block)]
    prev = 1
    for p in range(k):
        piv = next((i for i in range(p, k) if aug[i][p]), None)
        if piv is None:
            raise SimplexError("singular basis block")
        aug[p], aug[piv] = aug[piv], aug[p]
        top = aug[p]
        d = top[p]
        for i in range(k):
            if i != p:
                f = aug[i][p]
                aug[i] = [(d * x - f * y) // prev
                          for x, y in zip(aug[i], top)]
        prev = d
    sign = -1 if prev < 0 else 1
    return [[sign * v for v in row[k:]] for row in aug], sign * prev


def solve_min(c, a_rows, b):
    """Exact optimum of min c.x s.t. a_rows x <= b, x >= 0.

    Returns dict with x (list of Fractions), objective, iterations and basis
    (the basic column of every row position; column n + i is the slack of
    row i).
    """
    m = len(a_rows)
    n = len(c)
    c = [frac(v) for v in c]
    if any(v < 0 for v in c):
        raise SimplexError("dual simplex start requires c >= 0")
    rows, rhs, row_scale = [], [], []
    for i in range(m):
        ints, scale = _integer_row([frac(v) for v in a_rows[i]]
                                   + [frac(b[i])])
        rows.append(ints[:n])
        rhs.append(ints[n])
        row_scale.append(scale)
    cost, _ = _integer_row(c)
    basis = list(range(n, n + m))
    basic_cols = []   # S, in the column order of the block
    tight = []        # T, in the row order of the block

    iterations = 0
    while True:
        # adj / det is the inverse of A[T][S]; det * x_S = adj b_T
        adj, det = _adjugate([[rows[t][s] for s in basic_cols]
                              for t in tight])
        xs = [sum(a * rhs[t] for a, t in zip(arow, tight)) for arow in adj]
        x_scaled = dict(zip(basic_cols, xs))
        # leaving position: a basic value is num / (det * den)
        leave = None
        best_num, best_den = 0, 1
        bland = iterations >= MAX_ITER // 2
        for p, col in enumerate(basis):
            if col < n:
                num, den = x_scaled[col], 1
            else:
                row = rows[col - n]
                num = det * rhs[col - n] - sum(
                    row[s] * x for s, x in zip(basic_cols, xs))
                den = row_scale[col - n]
            if num < 0 and (bland or num * best_den < best_num * den):
                leave, best_num, best_den = p, num, den
                if bland:
                    break
        if leave is None:
            break
        if iterations >= MAX_ITER:
            raise SimplexError("iteration limit exceeded")
        iterations += 1
        # the leaving row of B^-1 [A | I], times det: g . A[T][j] plus
        # base_j for structural column j, and g_r for the slack of tight[r]
        out = basis[leave]
        if out < n:
            g = adj[basic_cols.index(out)]
            base = [0] * n
        else:
            row = rows[out - n]
            g = [-sum(row[s] * adj[q][r] for q, s in enumerate(basic_cols))
                 for r in range(len(tight))]
            base = [det * v for v in row]
        # reduced costs times det: cost_j det - pi . A[T][j], -pi_r
        pi = [sum(cost[s] * adj[q][r] for q, s in enumerate(basic_cols))
              for r in range(len(tight))]
        # entering column: smallest ratio reduced cost / -entry over the
        # negative entries, ties to the smallest column index
        enter = None
        best_cost, best_step = 0, 1
        in_s = set(basic_cols)
        for j in range(n):
            if j in in_s:
                continue
            col = [rows[t][j] for t in tight]
            step = -base[j] - sum(gv * a for gv, a in zip(g, col))
            if step > 0:
                rc = cost[j] * det - sum(pv * a for pv, a in zip(pi, col))
                if enter is None or rc * best_step < best_cost * step:
                    enter, best_cost, best_step = j, rc, step
        for r in sorted(range(len(tight)), key=tight.__getitem__):
            step = -g[r]
            if step > 0 and (enter is None
                             or -pi[r] * best_step < best_cost * step):
                enter, best_cost, best_step = n + tight[r], -pi[r], step
        if enter is None:
            raise Infeasible("primal infeasible (no entering column)")
        basis[leave] = enter
        # the block's row and column orders are free: only the sets matter
        if out < n:
            basic_cols.remove(out)
        else:
            tight.append(out - n)
        if enter < n:
            basic_cols.append(enter)
        else:
            tight.remove(enter - n)

    x = [Fraction(0)] * n
    for s, v in zip(basic_cols, xs):
        x[s] = Fraction(v, det)
    objective = sum(ci * xi for ci, xi in zip(c, x))
    return {"x": x, "objective": objective, "iterations": iterations,
            "basis": tuple(basis)}
