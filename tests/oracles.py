"""Reference data and slow, obviously-correct definitions the tests check
the package against.

A 10-unit network with known behaviour: four representative score
vectors, the exact weight matrix correlation learning must produce for
them, and the complete fixed-point set of that network (four states,
found by an exhaustive scan over all 2^10 states).  Also the exhaustive
fixed-point scan itself, the scalar integer relaxation and energy that
``hopfield.converge_many`` is checked against, the paper's per-student
correct rates and caution index, and the trial seeds and representative
draws written out from their published definitions in numpy uint64
arithmetic.
"""

from dataclasses import dataclass

import numpy as np

from spcluster import hopfield
from spcluster.hopfield import NetworkError, check_weights
from spcluster.spchart import SPChart

REFERENCE_PATTERNS: tuple[tuple[int, ...], ...] = (
    (1, 0, 1, 0, 0, 0, 0, 1, 1, 1),
    (0, 0, 0, 1, 1, 0, 1, 0, 1, 0),
    (0, 1, 0, 1, 1, 1, 1, 1, 1, 1),
    (0, 0, 1, 0, 0, 1, 0, 0, 0, 0),
)

REFERENCE_WEIGHTS: tuple[tuple[int, ...], ...] = (
    (0, 0, 2, -2, -2, -2, -2, 2, 0, 2),
    (0, 0, -2, 2, 2, 2, 2, 2, 0, 2),
    (2, -2, 0, -4, -4, 0, -4, 0, -2, 0),
    (-2, 2, -4, 0, 4, 0, 4, 0, 2, 0),
    (-2, 2, -4, 4, 0, 0, 4, 0, 2, 0),
    (-2, 2, 0, 0, 0, 0, 0, 0, -2, 0),
    (-2, 2, -4, 4, 4, 0, 0, 0, 2, 0),
    (2, 2, 0, 0, 0, 0, 0, 0, 2, 4),
    (0, 0, -2, 2, 2, -2, 2, 2, 0, 2),
    (2, 2, 0, 0, 0, 0, 0, 4, 2, 0),
)

# Complete fixed-point set of the reference network; the four stored
# patterns collapse pairwise onto two attractors plus their complements.
REFERENCE_FIXED_POINTS: tuple[tuple[int, ...], ...] = (
    (1, 0, 1, 0, 0, 0, 0, 0, 0, 0),
    (1, 0, 1, 0, 0, 0, 0, 1, 0, 1),
    (0, 1, 0, 1, 1, 1, 1, 1, 1, 1),
    (0, 1, 0, 1, 1, 1, 1, 0, 1, 0),
)


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
    states = all_states(w.shape[0])
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


def converge(state0, w: np.ndarray) -> ConvergenceResult:
    """Iterate sweeps until a sweep flips nothing.

    Takes any symmetric zero-diagonal integer matrix, not only Hebbian
    weights.  Under such a matrix that happens within
    ``hopfield.sweep_bound(w)`` sweeps; a state still changing after that
    many raises ``NetworkError``.  Also refuses non-integer entries, for
    which that is no bound, and row sums of |w| of 2^53 or more, which the
    float64 sum that checks them cannot hold exactly; below that every
    int64 field is exact.
    """
    w = check_weights(w)
    if w.dtype.kind not in "biu" and not np.array_equal(w, np.trunc(w)):
        raise NetworkError("connection matrix entries must be integers")
    # converted to float before abs so that the int64 minimum cannot wrap;
    # the float sum only rounds once it has already reached 2^53
    bound = np.abs(w.astype(np.float64)).sum(axis=1).max(initial=0.0)
    if bound >= 2.0**53:
        raise NetworkError(f"fields up to {bound:.3g} are not exact in float64")
    w = w.astype(np.int64)
    x = _as_state(state0)
    budget = hopfield.sweep_bound(w)
    for s in range(1, budget + 1):
        x, changed = sweep(x, w)
        if not changed:
            return ConvergenceResult(x, s)
    raise NetworkError(f"state still changing after {budget} sweeps")


def energy(state, w: np.ndarray) -> float:
    """Quadratic diagnostic E = -1/2 * x' W x, non-increasing along sweeps."""
    x = _as_state(state).astype(np.int64)
    return float(-0.5 * (x @ np.asarray(w) @ x))


def correct_rates(chart: SPChart) -> np.ndarray:
    """Per-problem correct-answer rate: column sum / number of students."""
    return chart.bits.mean(axis=0)


def caution_index(row, rates) -> float:
    """Mean absolute deviation of one answer row from per-problem rates.

    Always in [0, 1]; zero when the row equals the rate vector, which
    happens for every member of a cluster of identical rows.  This is the
    paper's per-student definition; ``spchart.caution_from_counts``
    computes a group's mean of it from column counts.
    """
    bits = np.asarray(row, dtype=float)
    mu = np.asarray(rates, dtype=float)
    if bits.shape != mu.shape:
        raise ValueError(f"{bits.size} cells against {mu.size} rates")
    return float(np.abs(bits - mu).mean())


# SplitMix64 as in Vigna's splitmix64.c: add the golden gamma to the
# state, then mix; uint64 array arithmetic wraps modulo 2^64
GOLDEN_GAMMA = np.uint64(0x9E3779B97F4A7C15)


def splitmix64_mix(z: np.ndarray) -> np.ndarray:
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def splitmix64_words(state: int):
    """The endless SplitMix64 stream from ``state``, as Python ints."""
    z = np.array([state], dtype=np.uint64)
    while True:
        z = z + GOLDEN_GAMMA
        yield int(splitmix64_mix(z)[0])


def reference_trial_seed(master_seed: int, trial_index: int) -> int:
    """h = mix((h xor word) + gamma) over the master seed's 64-bit limbs,
    least significant first, and then the trial index, from h = 0."""
    size = 8 * max(1, -(-master_seed.bit_length() // 64))
    limbs = np.frombuffer(master_seed.to_bytes(size, "little"), dtype="<u8")
    h = np.zeros(1, dtype=np.uint64)
    for word in [*limbs, np.uint64(trial_index)]:
        h = splitmix64_mix((h ^ word) + GOLDEN_GAMMA)
    return int(h[0])


def reference_draw(population: int, m: int, seed: int) -> list[int]:
    """Floyd's sample of m indices below ``population`` from the stream at
    ``seed``: for each j from population - m on, a uniform t in [0, j]
    (j itself if t was taken) in the order chosen.  A word is used only
    when its whole block of j + 1 residues lies below 2^64."""
    words = splitmix64_words(seed)
    chosen: list[int] = []
    for j in range(population - m, population):
        n = j + 1
        word = next(w for w in words if w - w % n + n <= 2**64)
        t = word % n
        chosen.append(j if t in chosen else t)
    return chosen
