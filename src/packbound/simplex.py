"""Revised dual simplex over exact rationals.

Solves   min c.x  subject to  A x <= b,  x >= 0.

A basis is a set S of basic structural columns and a set T of tight rows
(the rows whose slack is nonbasic), with |S| = |T| = k.  The walk needs a
dual-feasible start (S, T), every reduced cost >= 0, and keeps it dual
feasible, so it needs no phase one; the start is not checked.  The default
start is the all-slack basis (S = T = empty), dual feasible when c >= 0.
Rows appended with basic slacks leave every reduced cost unchanged, so an
optimal basis is a dual-feasible start for the same problem with more
rows.  Each pivot enters on a nonzero entry, so every block A[T][S] of the
walk is nonsingular, and it reads the basic values, the leaving row of
B^-1 [A | I] and the reduced costs off that block; no m x (n + m) tableau
is stored or updated.

Rows arrive scaled: each is integers over one positive denominator, the
pair exact.integer_scaled returns, so a caller that appends rows builds
each pair once.  A call multiplies row i and its right-hand side b_i by
the lcm of that denominator and b_i's, and the cost vector by the lcm of
its denominators, and inverts the block with exact.fraction_free_solve
(adjugate over determinant), so the pivots run in integer arithmetic.

The leaving variable is the basic one farthest, in Euclidean distance,
from its bound: a structural x_j < 0 lies |x_j| from x_j >= 0, and the
slack s_i < 0 of row i lies |s_i| / |a_i| from its hyperplane, the same
for the row at any scale.  The entering column is the smallest dual
ratio, which scaling the leaving row multiplies by one positive factor,
so a common factor of a row's integers and its denominator changes no
pivot.  Both choices break ties to the smallest index.  After
MAX_ITER // 2 pivots the leaving row is the first negative one (Bland),
which keeps the walk finite.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import itemgetter, mul

from .exact import PackboundError, frac, fraction_free_solve, integer_scaled

MAX_ITER = 20000


class Infeasible(PackboundError):
    pass


class IterationLimit(PackboundError):
    """The walk stopped after MAX_ITER pivots without an optimum."""


def solve_min(c, a_rows, b, basis=None):
    """Exact optimum of min c.x s.t. a_rows x <= b, x >= 0.

    Each row of a_rows is a pair (ints, den) of integers and a positive
    integer denominator, the row ints / den, as exact.integer_scaled
    returns it; c and b are rational.  basis is the start (S, T), the basic
    structural columns and the tight rows, which must be dual feasible (see
    the module docstring); None starts from the all-slack basis.

    Returns dict with x (list of Fractions), objective, iterations (the
    pivots) and basis, the optimal (S, T), which is a valid start for the
    same c and a_rows with rows appended.  Raises Infeasible when no x
    satisfies the rows and IterationLimit after MAX_ITER pivots.
    """
    m = len(a_rows)
    n = len(c)
    c = [frac(v) for v in c]
    # row i times lcm(den, the denominator of b_i): integers
    rows, rhs = [], []
    for (ints, den), b_i in zip(a_rows, b, strict=True):
        b_i = frac(b_i)
        scale = math.lcm(den, b_i.denominator)
        rows.append(ints if scale == den else [v * (scale // den)
                                               for v in ints])
        rhs.append(b_i.numerator * (scale // b_i.denominator))
    # |row i|^2 of the integer row, 1 for a zero row
    row_norm2 = [sum(map(mul, row, row)) or 1 for row in rows]
    cost, _ = integer_scaled(c)
    # S in the column order of the block, T in its row order
    basic_cols, tight = map(list, basis or ((), ()))
    # the basic column at every row position (column n + i is the slack of
    # row i): a tight row holds a column of S, any other row its own slack
    positions = list(range(n, n + m))
    for t, s in zip(tight, basic_cols):
        positions[t] = s

    iterations = 0
    while True:
        # adj / det is the inverse of A[T][S]; det * x_S = adj b_T
        adj, det = fraction_free_solve(
            [list(map(rows[t].__getitem__, basic_cols)) for t in tight],
            [[int(i == j) for j in tight] for i in tight])
        rhs_t = [rhs[t] for t in tight]
        xs = [sum(map(mul, arow, rhs_t)) for arow in adj]
        x_scaled = dict(zip(basic_cols, xs))
        # reduced costs times det: cost_j det - pi . A[T][j], -pi_r
        cost_s = [cost[s] for s in basic_cols]
        adj_cols = list(zip(*adj))
        pi = [sum(map(mul, cost_s, col)) for col in adj_cols]
        # A[T][j] for every column j
        cols = list(zip(*(rows[t] for t in tight))) if tight else [()] * n
        in_s = set(basic_cols)
        # a row's entries in the columns of S, padded with column 0 twice
        # so that itemgetter returns a tuple for any k; a dot product with a
        # k-vector through map() stops after k terms
        pick = itemgetter(*basic_cols, 0, 0)
        # leaving position: the basic variable farthest from its bound, a
        # structural x_j = num / det at distance |num| / det and a slack
        # num / (det * scale) of row i at distance |num| / (det * |row i|);
        # scores num^2 / norm2 compare by cross-multiplication
        leave = None
        best_num2, best_norm2 = 0, 1
        bland = iterations >= MAX_ITER // 2
        for p, col in enumerate(positions):
            if col < n:
                num, norm2 = x_scaled[col], 1
            else:
                num = det * rhs[col - n] - sum(map(mul, pick(rows[col - n]),
                                                   xs))
                norm2 = row_norm2[col - n]
            if num < 0 and (bland or num * num * best_norm2
                            > best_num2 * norm2):
                leave, best_num2, best_norm2 = p, num * num, norm2
                if bland:
                    break
        if leave is None:
            break
        if iterations >= MAX_ITER:
            raise IterationLimit("iteration limit exceeded")
        iterations += 1
        # the leaving row of B^-1 [A | I], times det: g . A[T][j] plus
        # base_j for structural column j, and g_r for the slack of tight[r]
        out = positions[leave]
        if out < n:
            g = adj[basic_cols.index(out)]
            base = [0] * n
        else:
            row = rows[out - n]
            row_s = pick(row)
            g = [-sum(map(mul, row_s, col)) for col in adj_cols]
            base = [det * v for v in row]
        # entering column: smallest ratio reduced cost / -entry over the
        # negative entries, ties to the smallest column index
        enter = None
        best_cost, best_step = 0, 1
        for j in range(n):
            if j in in_s:
                continue
            step = -base[j] - sum(map(mul, g, cols[j]))
            if step > 0:
                rc = cost[j] * det - sum(map(mul, pi, cols[j]))
                if enter is None or rc * best_step < best_cost * step:
                    enter, best_cost, best_step = j, rc, step
        for r in sorted(range(len(tight)), key=tight.__getitem__):
            step = -g[r]
            if step > 0 and (enter is None
                             or -pi[r] * best_step < best_cost * step):
                enter, best_cost, best_step = n + tight[r], -pi[r], step
        if enter is None:
            raise Infeasible("primal infeasible (no entering column)")
        positions[leave] = enter
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
            "basis": (tuple(basic_cols), tuple(tight))}
