"""Discrete-time recurrent network with bipolar states and signum units.

States are length-N vectors over {-1, +1}.  One sweep updates components
in fixed ascending order, each update seeing the components already
updated earlier in the same sweep, with sgn(0) = +1.  For a symmetric,
zero-diagonal integer connection matrix every trajectory reaches a fixed
point within ``sweep_bound(w)`` sweeps.  The kernels validate the matrix
eagerly and raise ``NetworkError`` if a state is still changing at that
bound, so nonconvergence can never pass silently.

The scalar ``sweep``/``converge`` use integer arithmetic and are the
reference for the batch kernel ``converge_many``, whose float products,
each a field plus 1/2, are exact half-integers (or the call is refused),
so results are bit-reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class NetworkError(ValueError):
    """Base class for connection-matrix and state validation failures."""


class NotSymmetric(NetworkError):
    def __init__(self) -> None:
        super().__init__("connection matrix must be symmetric off the diagonal")


class NonzeroDiagonal(NetworkError):
    def __init__(self) -> None:
        super().__init__("connection matrix must have a zero diagonal")


@dataclass(frozen=True, eq=False)
class ConvergenceResult:
    """Outcome of iterating sweeps from one initial state.

    ``sweeps_used`` counts every sweep performed, including the final
    confirming sweep that flips nothing; a fixed-point input therefore
    reports 1.
    """

    fixed_point: np.ndarray
    sweeps_used: int


def _as_state(v) -> np.ndarray:
    x = np.asarray(v)
    if x.ndim != 1:
        raise NetworkError("state must be a 1-D vector")
    return x


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


def sweep(state, w: np.ndarray) -> tuple[np.ndarray, bool]:
    """One full pass updating components 0..N-1 in order.

    Each update sees the components already rewritten earlier in this
    pass.  sgn(0) = +1.  Returns the new state and whether anything
    flipped.
    """
    x = _as_state(state).astype(np.int64).copy()
    w = np.asarray(w)
    changed = False
    for j in range(x.shape[0]):
        new = 1 if w[j] @ x >= 0 else -1
        if new != x[j]:
            changed = True
            x[j] = new
    out = x.astype(np.int8)
    out.flags.writeable = False
    return out, changed


def _abs_row_sums(w: np.ndarray) -> np.ndarray:
    """Row sums of |w| for an integer matrix, exact as float64.

    A field is a sum of +-w_jk, so it and every partial sum are integers
    of magnitude at most its row's sum.  Raises ``NetworkError`` for
    non-integer entries and for row sums of 2^53 or more, which float64
    cannot hold exactly.
    """
    if w.dtype.kind not in "biu" and not np.array_equal(w, np.trunc(w)):
        raise NetworkError("connection matrix entries must be integers")
    # converted to float before abs so that the int64 minimum cannot wrap;
    # the float sum only rounds once it has already reached 2^53
    sums = np.abs(w.astype(np.float64)).sum(axis=1)
    bound = sums.max(initial=0.0)
    if bound >= 2.0**53:
        raise NetworkError(f"fields up to {bound:.3g} are not exact in float64")
    return sums


def sweep_bound(w: np.ndarray, abs_row_sums: np.ndarray | None = None) -> int:
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
    confirming sweep.  ``abs_row_sums`` are the row sums of |w| from
    ``_abs_row_sums``, passed by a caller that already holds them.
    """
    if abs_row_sums is None:
        abs_row_sums = _abs_row_sums(np.asarray(w))
    # each row sum is an exact integer below 2^53; their total may not be
    return sum(int(v) for v in abs_row_sums.tolist()) + len(abs_row_sums) + 1


def converge(state0, w: np.ndarray) -> ConvergenceResult:
    """Iterate sweeps until a sweep flips nothing.

    Requires a symmetric zero-diagonal integer matrix, for which that
    happens within ``sweep_bound(w)`` sweeps; a state still changing after
    that many raises ``NetworkError``.
    """
    w = check_weights(w)
    x = _as_state(state0)
    budget = sweep_bound(w)
    for s in range(1, budget + 1):
        x, changed = sweep(x, w)
        if not changed:
            return ConvergenceResult(x, s)
    raise NetworkError(f"state still changing after {budget} sweeps")


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
    states, w: np.ndarray, rows: tuple[np.ndarray, np.ndarray] | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Batch variant of ``converge`` over rows of a B x N state matrix.

    Row trajectories are independent, so this is exactly ``converge``
    applied per row.  Equal rows share a trajectory, so only the distinct
    rows are relaxed and their results are copied to every duplicate.
    ``rows`` is ``distinct_rows(states)``, possibly with the distinct rows
    reordered; a caller relaxing the same states under many matrices
    passes it to group them once.
    A unit update is one float product of [w_j, 1/2] with every state (the
    columns of a matrix over a row of ones): each field plus 1/2, exact as
    float32 for row sums of |w| below 2^23 and as float64 below 2^52.
    Returns the read-only int8 terminal states, per-row sweep counts, and
    a per-row convergence flag that is always True, since every row
    settles within ``sweep_bound(w)`` sweeps or the call raises
    ``NetworkError``.  Also raises ``NetworkError`` for entries other than
    -1/+1, for non-integer weights, and for row sums of 2^52 or more.
    """
    w = check_weights(w)
    x = np.asarray(states)
    if x.ndim != 2:
        raise NetworkError("states must form a B x N matrix")
    n = x.shape[1]
    if w.shape[0] != n:
        raise NetworkError(f"states have {n} components but matrix is {w.shape[0]} wide")
    if not ((x == 1) | (x == -1)).all():
        raise NetworkError("state entries must all be -1 or +1")
    row_sums = _abs_row_sums(w)
    budget = sweep_bound(w, row_sums)
    # each partial sum of a field plus 1/2 is a multiple of 1/2 of magnitude
    # at most the row sum plus 1/2: exact in float32 below 2^23
    bound = row_sums.max(initial=0.0)
    if bound >= 2.0**52:
        raise NetworkError(f"fields up to {bound:.3g} are not exact to 1/2 in float64")
    dtype = np.float32 if bound < 2.0**23 else np.float64

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


def energy(state, w: np.ndarray) -> float:
    """Quadratic diagnostic E = -1/2 * x' W x, non-increasing along sweeps."""
    x = _as_state(state).astype(np.int64)
    return float(-0.5 * (x @ np.asarray(w) @ x))

