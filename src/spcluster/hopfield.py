"""Discrete-time recurrent network with bipolar states and signum units.

States are length-N vectors over {-1, +1}.  One sweep updates components
in fixed ascending order, each update seeing the components already
updated earlier in the same sweep, with sgn(0) = +1.  The network is the
one correlation learning builds from M binary patterns
(``hebbian_learn``): a symmetric, zero-diagonal integer matrix, under
which every trajectory reaches a fixed point within ``sweep_bound(w)``
sweeps.  ``converge_many`` takes and returns states as 0/1 rows (+-1
exists only inside it): it relaxes a batch under the network of the
patterns it is given, by sweeping its distinct rows or, for small N, a
table of all 2^N states once, groups them by fixed point, and raises
``NetworkError`` if a state is still changing at that bound, so
nonconvergence can never pass silently.  Its float products, each a
field plus 1/2, are exact half-integers, so results are reproducible
bit for bit; the tests check it against a scalar integer reference.
"""

from __future__ import annotations

import functools

import numpy as np


class NetworkError(ValueError):
    """A refused connection matrix, pattern or state, or a row still changing."""


def bipolar_from_binary(v) -> np.ndarray:
    """Map a 0/1 vector to -1/+1 component-wise."""
    b = np.asarray(v)
    if not ((b == 0) | (b == 1)).all():
        raise NetworkError("binary vector entries must all be 0 or 1")
    return (2 * b.astype(np.int8) - 1).astype(np.int8)


def hebbian_learn(patterns) -> np.ndarray:
    """Correlation learning over binary patterns.

    w_ij = sum over patterns of (2r_i - 1)(2r_j - 1) for i != j, w_ii = 0.
    The result is a symmetric integer matrix with zero diagonal; with M
    patterns every entry has magnitude at most M and the same parity as M.
    """
    p = np.asarray(patterns)
    if p.ndim != 2 or p.shape[0] < 1:
        raise NetworkError("patterns must form a non-empty M x N matrix")
    if not ((p == 0) | (p == 1)).all():
        raise NetworkError("patterns must be binary")
    b = (2 * p.astype(np.int64) - 1)
    w = b.T @ b
    np.fill_diagonal(w, 0)
    return w


def check_weights(w: np.ndarray) -> np.ndarray:
    """Return w if it is square, zero-diagonal and symmetric, as relaxation
    needs, else raise ``NetworkError``.  ``hebbian_learn`` weights are so by
    construction; the tests' scalar ``converge`` checks any matrix with it."""
    w = np.asarray(w)
    if w.ndim != 2 or w.shape[0] != w.shape[1]:
        raise NetworkError("connection matrix must be square")
    if (np.diagonal(w) != 0).any():
        raise NetworkError("connection matrix must have a zero diagonal")
    if (w != w.T).any():
        raise NetworkError("connection matrix must be symmetric off the diagonal")
    return w


def sweep_bound(w: np.ndarray) -> int:
    """Sweeps that relaxation under w needs at most, from any start:
    S + N + 1, where S = sum_ij |w_ij|.

    For a symmetric zero-diagonal integer matrix every field
    h_j = sum_k w_jk x_k is an integer, and updating unit j changes the
    energy E = -1/2 x'Wx by -(x_j' - x_j) h_j.

    - A strict flip (h_j != 0) sets x_j to sgn(h_j), so E falls by
      2 |h_j| >= 2.  E lies in [-S/2, S/2] and never rises, so at most
      S/2 strict flips occur.
    - A zero-field flip leaves E unchanged and, since sgn(0) = +1, only
      turns a -1 into +1.  A unit returns to -1 only by a strict flip, so
      at most N plus the number of strict flips of them occur.
    - Every sweep that changes the state flips at least one unit, so at
      most S + N sweeps change it, and one more confirms the fixed point.

    The bound is exact for w = [[0]] from [-1]: one flip, then the
    confirming sweep.  ``w`` is an integer array whose row sums of |w|
    fit in int64; Hebbian weights from M patterns have row sums of at
    most M (N - 1).
    """
    # each row sum is exact in int64; their total is summed as Python ints
    return sum(np.abs(w).sum(axis=1).tolist()) + w.shape[0] + 1


def distinct_rows(states) -> tuple[np.ndarray, np.ndarray]:
    """Group equal rows of a 0/1 matrix by an exact key.

    Returns ``first``, the first occurrence of each distinct row, in
    ascending order of the row's key sum_j 2^j [x_j > 0], and ``inverse``,
    which maps every row to its position in ``first``.  Each word of up to
    64 columns is keyed by those bits packed into the narrowest unsigned
    type (numpy radix-sorts 8 and 16 bits).  One stable sort over the
    words, highest first, groups equal rows in key order and finds each
    group's first occurrence.
    """
    x = np.asarray(states)
    keys = []
    for lo in range(0, max(x.shape[1], 1), 64):  # 0 columns still make one (empty) word
        n = min(x.shape[1] - lo, 64)
        dtype = np.min_scalar_type((1 << n) - 1)
        powers = dtype.type(1) << np.arange(n, dtype=dtype)
        keys.append((x[:, lo:lo + n] > 0).astype(dtype) @ powers)
    order = np.lexsort(keys)
    starts = np.zeros(order.size, dtype=bool)
    starts[:1] = True
    for key in keys:
        starts[1:] |= key[order[1:]] != key[order[:-1]]
    inverse = np.empty_like(order)
    inverse[order] = np.cumsum(starts) - 1
    return order[starts], inverse


def converge_many(
    states, patterns, rows: tuple[np.ndarray, np.ndarray] | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Relax every row of a B x N 0/1 matrix, a state with 1 for +1 and 0
    for -1, under the network ``hebbian_learn`` builds from the M x N
    binary ``patterns``.

    Each row is swept until a sweep flips nothing; rows do not interact.
    Equal rows share a trajectory, so only the R distinct rows are mapped
    to +-1 and relaxed.  If 2^N <= max(4R, 2^12), one sweep of a table of
    all 2^N states gives each state's successor, each row follows
    successors from its table index, sum_j 2^j b_j, to a fixed point, and
    rows are grouped by the terminal index; else the rows are swept as the
    columns of one matrix and grouped by ``distinct_rows``.  The
    attractors come in ascending key order, so any order of the input
    rows gives the same ones, with ``sweeps`` and ``labels`` permuted to
    match.  ``rows``, ``distinct_rows(states)`` with its distinct rows in
    any order, lets a caller relaxing the same states under many networks
    group them once.

    A unit update is one float product of [w_j, 1/2] with every state (the
    columns of a matrix over a row of ones): each field plus 1/2.  Every
    partial sum of it is a multiple of 1/2 of magnitude at most the row
    sum of |w| plus 1/2, and Hebbian row sums are at most M (N - 1), since
    |w_jk| <= M.  So the products are exact in float32 when
    M (N - 1) < 2^23, and else in float64, which holds every multiple of
    1/2 below 2^52.  M (N - 1) cannot reach 2^52: ``hebbian_learn`` holds
    the patterns as int64, 8 M N bytes, which would then be 32 PiB.

    Returns ``(attractors, sweeps, labels)``: the read-only K x N int8 0/1
    images of the distinct terminal states, per-row sweep counts (counting
    the final sweep that flips nothing), and per-row labels, so that row i
    settles at ``attractors[labels[i]]``.  Every row settles within
    ``sweep_bound(w)`` sweeps or the call raises ``NetworkError``.  Also
    raises ``NetworkError`` for patterns that are not binary, for states
    that are not 0/1 rows of the patterns' width, and for ``rows`` with
    an ``inverse`` not of one entry per state or a ``first[k]`` outside
    group k; a group's rows are not compared, and all take its attractor.
    """
    w = hebbian_learn(patterns)
    m, n = len(patterns), w.shape[0]
    x = np.asarray(states)
    if x.ndim != 2:
        raise NetworkError("states must form a B x N matrix")
    if x.shape[1] != n:
        raise NetworkError(f"states have {x.shape[1]} components but patterns have {n}")
    if not ((x == 0) | (x == 1)).all():
        raise NetworkError("state entries must all be 0 or 1")
    budget = sweep_bound(w)
    dtype = np.float32 if m * (n - 1) < 2**23 else np.float64

    first, inverse = distinct_rows(x) if rows is None else rows
    if inverse.shape != (x.shape[0],) or (inverse[first] != np.arange(first.size)).any():
        raise NetworkError("rows need one inverse entry per state and each first[k] in group k")
    # wb[j] @ xt is f + 1/2 for each column's field f: never 0, and of the
    # sign of f with sgn(0) = +1
    wb = np.hstack((w, np.full((n, 1), 0.5))).astype(dtype)
    if 1 << n <= max(4 * first.size, 1 << 12):  # the crossover measured in README
        table, cur, sweeps = _follow_table(wb, x[first], budget)
        reached = np.zeros(table.shape[1], dtype=bool)
        reached[cur] = True  # a terminal index is its state's key
        found = np.flatnonzero(reached)
        group = np.empty(table.shape[1], dtype=np.intp)
        group[found] = np.arange(found.size)
        attractors, group = (table[:n, found] > 0).T.astype(np.int8), group[cur]
    else:
        xt = np.ones((n + 1, first.size), dtype)
        start = x[first].astype(np.int8, copy=False)  # a copy, mapped to +-1 in place
        start *= 2
        start -= 1
        xt[:n] = start.T
        ids = np.arange(first.size)  # column c of xt is row ids[c]
        changes = np.zeros(first.size, dtype=np.int64)
        final = np.empty((first.size, n), dtype=np.int8)
        sweeps = np.empty(first.size, dtype=np.int64)
        for _ in range(budget):
            before = xt.copy()
            _sweep(wb, xt)
            # a sweep that changes nothing leaves a fixed point, which no later
            # sweep changes: a row's count is one more than its changing sweeps,
            # and settled columns can sweep on until at most half still change
            changed = (xt != before).any(axis=0)
            changes += changed
            moving = np.count_nonzero(changed)
            if 2 * moving <= changed.size:
                final[ids[~changed]] = xt[:n, ~changed].T
                sweeps[ids[~changed]] = changes[~changed] + 1
                if not moving:
                    break
                xt, ids, changes = xt.compress(changed, axis=1), ids[changed], changes[changed]
        else:
            raise NetworkError(f"{moving} distinct rows still changing after {budget} sweeps")
        keys, group = distinct_rows(final)
        attractors = (final[keys] > 0).astype(np.int8)
    attractors.flags.writeable = False
    return attractors, sweeps[inverse], group[inverse]


@functools.lru_cache(maxsize=1)
def _state_table(n: int, dtype) -> np.ndarray:
    """Every +-1 state of n components as a column over a row of ones,
    read-only: component j of column c is +1 where bit j of c is set."""
    table = np.ones((n + 1, 1 << n), dtype)
    table[:n] = (np.arange(1 << n) >> np.arange(n)[:, None] & 1) * 2 - 1
    table.flags.writeable = False
    return table


def _sweep(wb: np.ndarray, xt: np.ndarray) -> None:
    """One ascending sweep of every column of xt, in place."""
    field = np.empty(xt.shape[1], xt.dtype)
    for wj, xj in zip(wb, xt):
        np.sign(np.dot(wj, xt, out=field), out=xj)


def _follow_table(
    wb: np.ndarray, starts: np.ndarray, budget: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The state table, and the terminal column and sweep count of each 0/1
    row of ``starts``, which steps through successors until a step changes
    nothing."""
    n = starts.shape[1]
    table = _state_table(n, wb.dtype)
    xt = table.copy()
    _sweep(wb, xt)
    # a state's index is sum_j 2^j b_j for its 0/1 image b, and for its +-1 form x
    # sum_j 2^(j-1) x_j + (2^n - 1) / 2: every partial sum of either is a
    # multiple of 1/2 below 2^n, exact in float32 for n <= 23
    half = np.ldexp(np.ones(n + 1, np.float32 if n <= 23 else np.float64), np.arange(-1, n))
    cur = (starts @ half[1:]).astype(np.intp)  # half[j + 1] is 2^j
    half[n] = (2.0**n - 1) / 2
    succ = (half @ xt).astype(np.intp)
    sweeps = np.ones(len(starts), dtype=np.int64)
    for _ in range(budget):
        step = succ[cur]
        changed = step != cur
        if not changed.any():
            return table, cur, sweeps
        sweeps += changed
        cur = step
    raise NetworkError(f"{changed.sum()} distinct rows still changing after {budget} sweeps")
