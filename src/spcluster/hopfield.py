"""Discrete-time recurrent network with bipolar states and signum units.

States are length-N vectors over {-1, +1}.  One sweep updates components
in fixed ascending order, each update seeing the components already
updated earlier in the same sweep, with sgn(0) = +1.  The network is the
one correlation learning builds from M binary patterns
(``hebbian_learn``): a symmetric, zero-diagonal integer matrix, under
which every trajectory reaches a fixed point within ``sweep_bound(w)``
sweeps.  ``converge_many`` relaxes a batch of states under the network
of the patterns it is given and raises ``NetworkError`` if a state is
still changing at that bound, so nonconvergence can never pass silently.
Its float products, each a field plus 1/2, are exact half-integers, so
results are bit-reproducible; the tests check it against a scalar
integer reference.
"""

from __future__ import annotations

import numpy as np


class NetworkError(ValueError):
    """Base class for connection-matrix and state validation failures."""


class NotSymmetric(NetworkError):
    def __init__(self) -> None:
        super().__init__("connection matrix must be symmetric off the diagonal")


class NonzeroDiagonal(NetworkError):
    def __init__(self) -> None:
        super().__init__("connection matrix must have a zero diagonal")


def bipolar_from_binary(v) -> np.ndarray:
    """Map a 0/1 vector to -1/+1 component-wise."""
    b = np.asarray(v)
    if not ((b == 0) | (b == 1)).all():
        raise NetworkError("binary vector entries must all be 0 or 1")
    return (2 * b.astype(np.int8) - 1).astype(np.int8)


def binary_from_bipolar(x) -> np.ndarray:
    """Inverse of ``bipolar_from_binary``: +1 -> 1, -1 -> 0."""
    s = np.asarray(x)
    if not ((s == -1) | (s == 1)).all():
        raise NetworkError("bipolar vector entries must all be -1 or +1")
    return ((s + 1) // 2).astype(np.int8)


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


# the tests' scalar converge validates with it; it stays here as bench/tracer.py wraps it
def check_weights(w: np.ndarray) -> np.ndarray:
    """Validate the fixed-point convergence condition; returns w."""
    w = np.asarray(w)
    if w.ndim != 2 or w.shape[0] != w.shape[1]:
        raise NetworkError("connection matrix must be square")
    if (np.diagonal(w) != 0).any():
        raise NonzeroDiagonal()
    if (w != w.T).any():
        raise NotSymmetric()
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
    """Group equal rows of a +-1 matrix by an exact key.

    Returns ``first``, the index of the first occurrence of each distinct
    row in ascending order, and ``inverse``, which maps every row to its
    position in ``first``.  Rows of up to 62 components are
    keyed by their sign bits packed into the narrowest unsigned type, which
    ``np.unique`` radix-sorts at 8 and 16 bits; wider rows are compared whole.
    """
    x = np.asarray(states)
    n = x.shape[1]
    if n <= 62:
        dtype = np.min_scalar_type((1 << n) - 1)
        keys = (x > 0).astype(dtype) @ (dtype.type(1) << np.arange(n, dtype=dtype))
        _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    else:
        _, first, inverse = np.unique(x, axis=0, return_index=True, return_inverse=True)
    # renumber the groups from key order to order of first occurrence
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(order.size)
    return first[order], rank[inverse.ravel()]


def converge_many(
    states, patterns, rows: tuple[np.ndarray, np.ndarray] | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Relax every row of a B x N state matrix under the network that
    ``hebbian_learn`` builds from the M x N binary ``patterns``.

    Each row is swept until a sweep flips nothing; rows do not interact.
    Equal rows share a trajectory, so only the distinct rows are relaxed
    and their results are copied to every duplicate.  ``rows`` is
    ``distinct_rows(states)``, possibly with the distinct rows reordered;
    a caller relaxing the same states under many networks passes it to
    group them once.

    A unit update is one float product of [w_j, 1/2] with every state (the
    columns of a matrix over a row of ones): each field plus 1/2.  Every
    partial sum of it is a multiple of 1/2 of magnitude at most the row
    sum of |w| plus 1/2, and Hebbian row sums are at most M (N - 1), since
    |w_jk| <= M.  So the products are exact in float32 when
    M (N - 1) < 2^23, and else in float64, which holds every multiple of
    1/2 below 2^52.  M (N - 1) cannot reach 2^52: ``hebbian_learn`` holds
    the patterns as int64, 8 M N bytes, which would then be 32 PiB.

    Returns the read-only int8 terminal states, per-row sweep counts
    (counting the final sweep that flips nothing), and a per-row
    convergence flag that is always True, since every row settles within
    ``sweep_bound(w)`` sweeps or the call raises ``NetworkError``.  Also
    raises ``NetworkError`` for patterns that are not binary, for states
    that are not -1/+1 rows of the patterns' width, and for ``rows`` that
    do not group the states.
    """
    w = hebbian_learn(patterns)
    m, n = len(patterns), w.shape[0]
    x = np.asarray(states)
    if x.ndim != 2:
        raise NetworkError("states must form a B x N matrix")
    if x.shape[1] != n:
        raise NetworkError(f"states have {x.shape[1]} components but patterns have {n}")
    if not ((x == 1) | (x == -1)).all():
        raise NetworkError("state entries must all be -1 or +1")
    budget = sweep_bound(w)
    dtype = np.float32 if m * (n - 1) < 2**23 else np.float64

    first, inverse = distinct_rows(x) if rows is None else rows
    if inverse.shape != (x.shape[0],) or (inverse[first] != np.arange(first.size)).any():
        raise NetworkError("rows do not group these states")
    # wb[j] @ xt is f + 1/2 for each column's field f: never 0, and of the
    # sign of f with sgn(0) = +1.  Column c of xt is distinct row ids[c].
    wb = np.hstack((w, np.full((n, 1), 0.5))).astype(dtype)
    xt = np.ones((n + 1, first.size), dtype)
    xt[:n] = x[first].T
    ids = np.arange(first.size)
    changes = np.zeros(first.size, dtype=np.int64)
    final = np.empty((first.size, n), dtype=np.int8)
    sweeps = np.empty(first.size, dtype=np.int64)
    for _ in range(budget):
        before = xt.copy()
        field = np.empty(xt.shape[1], dtype)
        for wj, xj in zip(wb, xt):
            np.sign(np.dot(wj, xt, out=field), out=xj)
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

    out = np.take(final, inverse, axis=0)  # several times faster than final[inverse]
    out.flags.writeable = False
    return out, sweeps[inverse], np.ones(x.shape[0], dtype=bool)

