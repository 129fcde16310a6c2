"""Discrete-time recurrent network with bipolar states and signum units.

States are length-N vectors over {-1, +1}.  One sweep updates components
in fixed ascending order, each update seeing the components already
updated earlier in the same sweep, with sgn(0) = +1.  For a symmetric,
zero-diagonal connection matrix every trajectory reaches a fixed point;
``converge`` checks that condition eagerly so nonconvergence can never
pass silently.

The scalar ``sweep``/``converge`` use integer arithmetic and are the
reference for the batch kernel ``converge_many``, whose float fields are
exact integers (or the call is refused), so results are bit-reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

ENUMERATION_LIMIT = 20  # 2^N states are materialized
BASIN_LIMIT = 16

DEFAULT_MAX_SWEEPS = 1000


class NetworkError(ValueError):
    """Base class for connection-matrix and state validation failures."""


class NotSymmetric(NetworkError):
    def __init__(self) -> None:
        super().__init__("connection matrix must be symmetric off the diagonal")


class NonzeroDiagonal(NetworkError):
    def __init__(self) -> None:
        super().__init__("connection matrix must have a zero diagonal")


class TooLarge(NetworkError):
    def __init__(self, n: int, limit: int) -> None:
        self.n = n
        super().__init__(f"exhaustive scan over 2^{n} states exceeds the limit of 2^{limit}")


class LengthMismatch(NetworkError):
    def __init__(self, message: str) -> None:
        super().__init__(message)


@dataclass(frozen=True, eq=False)
class ConvergenceResult:
    """Outcome of iterating sweeps from one initial state.

    ``sweeps_used`` counts every sweep performed, including the final
    confirming sweep that flips nothing; a fixed-point input therefore
    reports 1.  ``converged`` is False only when the sweep budget ran out
    while the state was still changing.
    """

    fixed_point: np.ndarray
    sweeps_used: int
    converged: bool


def _as_state(v) -> np.ndarray:
    x = np.asarray(v)
    if x.ndim != 1:
        raise NetworkError("state must be a 1-D vector")
    return x


def bipolar_from_binary(v) -> np.ndarray:
    """Map a 0/1 vector to -1/+1 component-wise."""
    b = np.asarray(v)
    if not np.isin(b, (0, 1)).all():
        raise NetworkError("binary vector entries must all be 0 or 1")
    return (2 * b.astype(np.int8) - 1).astype(np.int8)


def binary_from_bipolar(x) -> np.ndarray:
    """Inverse of ``bipolar_from_binary``: +1 -> 1, -1 -> 0."""
    s = np.asarray(x)
    if not np.isin(s, (-1, 1)).all():
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
        raise LengthMismatch("patterns must form a non-empty M x N matrix")
    if not np.isin(p, (0, 1)).all():
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


def local_field(state, w: np.ndarray, i: int) -> int:
    """Weighted input sum at unit i: sum_k w[i, k] * x[k]."""
    x = _as_state(state)
    return int(np.asarray(w)[i] @ x.astype(np.int64))


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


def converge(state0, w: np.ndarray, max_sweeps: int = DEFAULT_MAX_SWEEPS) -> ConvergenceResult:
    """Iterate sweeps until a sweep flips nothing or the budget runs out.

    Requires a symmetric zero-diagonal matrix, for which termination is
    guaranteed; the budget exists to make misuse loud rather than silent.
    """
    if max_sweeps < 1:
        raise NetworkError("max_sweeps must be at least 1")
    w = check_weights(w)
    x = _as_state(state0)
    for s in range(1, max_sweeps + 1):
        x, changed = sweep(x, w)
        if not changed:
            return ConvergenceResult(x, s, True)
    return ConvergenceResult(x, max_sweeps, False)


def distinct_rows(states) -> tuple[np.ndarray, np.ndarray]:
    """Group equal rows of a +-1 matrix by an exact key.

    Returns ``first``, the index of the first occurrence of each distinct
    row (in key order, not row order), and ``inverse``, which maps every
    row to its position in ``first``.  Rows of up to 62 components are
    keyed by their sign bits packed into one int64; wider rows are
    compared whole.
    """
    x = np.asarray(states)
    n = x.shape[1]
    if n <= 62:
        keys = (x > 0).astype(np.int64) @ (np.int64(1) << np.arange(n, dtype=np.int64))
        _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    else:
        _, first, inverse = np.unique(x, axis=0, return_index=True, return_inverse=True)
    return first, inverse.ravel()


def _field_dtype(w: np.ndarray) -> type:
    """The narrowest float type in which every field of w is exact.

    A field is a sum of +-w_jk, so it and every partial sum are integers
    of magnitude at most the largest row sum of |w|.  float32 holds such
    integers exactly below 2^24 and float64 below 2^53.
    """
    if w.dtype.kind not in "biu" and not np.array_equal(w, np.trunc(w)):
        raise NetworkError("connection matrix entries must be integers")
    # converted to float before abs so that the int64 minimum cannot wrap;
    # the float sum only rounds once it has already reached 2^53
    bound = np.abs(w.astype(np.float64)).sum(axis=1).max(initial=0.0)
    if bound < 2.0**24:
        return np.float32
    if bound < 2.0**53:
        return np.float64
    raise NetworkError(f"fields up to {bound:.3g} are not exact in float64")


def converge_many(
    states, w: np.ndarray, max_sweeps: int = DEFAULT_MAX_SWEEPS
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Batch variant of ``converge`` over rows of a B x N state matrix.

    Row trajectories are independent, so this is exactly ``converge``
    applied per row.  Equal rows share a trajectory, so only the distinct
    rows are relaxed and their results are copied to every duplicate.
    Fields are float BLAS products, exact because ``_field_dtype`` picks a
    float type that holds every partial sum.  Returns the terminal states,
    per-row sweep counts, and per-row convergence flags.  Raises
    ``NetworkError`` for entries other than -1/+1, for non-integer
    weights, and for weights whose fields could reach 2^53.
    """
    if max_sweeps < 1:
        raise NetworkError("max_sweeps must be at least 1")
    w = check_weights(w)
    x = np.asarray(states)
    if x.ndim != 2:
        raise NetworkError("states must form a B x N matrix")
    n = x.shape[1]
    if w.shape[0] != n:
        raise LengthMismatch(f"states have {n} components but matrix is {w.shape[0]} wide")
    if not ((x == 1) | (x == -1)).all():
        raise NetworkError("state entries must all be -1 or +1")
    dtype = _field_dtype(w)

    first, inverse = distinct_rows(x)
    wf = w.astype(dtype)
    xd = x[first].astype(dtype)
    sweeps = np.zeros(first.size, dtype=np.int64)
    converged = np.zeros(first.size, dtype=bool)
    active = np.arange(first.size)
    for _ in range(max_sweeps):
        if active.size == 0:
            break
        # column-major, so that each unit's column is contiguous
        xa = np.asfortranarray(xd[active])
        before = xa.copy(order="F")
        for j in range(n):
            # a field f is an integer, so f + 1/2 is never 0 and its sign
            # is sgn(f) with sgn(0) = +1
            np.sign(xa @ wf[j] + 0.5, out=xa[:, j])
        changed = (xa != before).any(axis=1)
        xd[active] = xa
        sweeps[active] += 1
        converged[active[~changed]] = True
        active = active[changed]

    out = xd.astype(np.int8)[inverse]
    out.flags.writeable = False
    return out, sweeps[inverse], converged[inverse]


def energy(state, w: np.ndarray) -> float:
    """Quadratic diagnostic E = -1/2 * x' W x, non-increasing along sweeps."""
    x = _as_state(state).astype(np.int64)
    return float(-0.5 * (x @ np.asarray(w) @ x))


def all_states(n: int) -> np.ndarray:
    """All 2^n bipolar states, one per row, in ascending binary order."""
    count = 1 << n
    codes = np.arange(count, dtype=np.uint32)
    bits = (codes[:, None] >> np.arange(n - 1, -1, -1, dtype=np.uint32)) & 1
    return (2 * bits.astype(np.int8) - 1)


def enumerate_fixed_points(w: np.ndarray) -> list[np.ndarray]:
    """All states unchanged by a sweep, in ascending binary order.

    A state survives a sequential sweep untouched exactly when every
    component already matches the sign of its field, so the scan is a
    single matrix product per chunk.
    """
    w = np.asarray(w)
    n = w.shape[0]
    if n > ENUMERATION_LIMIT:
        raise TooLarge(n, ENUMERATION_LIMIT)
    states = all_states(n)
    found: list[np.ndarray] = []
    chunk = 1 << 14
    for lo in range(0, states.shape[0], chunk):
        block = states[lo : lo + chunk]
        fields = block.astype(np.int64) @ w.T
        fixed = ((fields >= 0) == (block > 0)).all(axis=1)
        for row in block[fixed]:
            row = row.copy()
            row.flags.writeable = False
            found.append(row)
    return found


def basin_map(w: np.ndarray, max_sweeps: int = DEFAULT_MAX_SWEEPS) -> dict[tuple[int, ...], tuple[int, ...]]:
    """Map every state (as a bipolar tuple) to its terminal fixed point."""
    w = check_weights(w)
    n = w.shape[0]
    if n > BASIN_LIMIT:
        raise TooLarge(n, BASIN_LIMIT)
    states = all_states(n)
    terminal, _, converged = converge_many(states, w, max_sweeps)
    if not converged.all():
        bad = int(np.flatnonzero(~converged)[0])
        raise NetworkError(f"state {bad} did not converge within {max_sweeps} sweeps")
    return {
        tuple(int(v) for v in src): tuple(int(v) for v in dst)
        for src, dst in zip(states, terminal)
    }
