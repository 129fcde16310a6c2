"""Attractor-based clustering of S-P charts, its cost functions, and the
random-restart trial driver.

One run: pick M representative rows at random, store them in the network
by correlation learning, relax every student row to a fixed point, and
group students that share a terminal fixed point.  A clustering is scored
by ``f1`` (deviation of cluster sizes from uniform) and ``f2`` (worst
per-cluster average caution index); the driver repeats runs under a
counter-based seeding scheme so results are independent of execution
order and worker count.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import partial
from math import ceil

import numpy as np

from . import hopfield, spchart
from .spchart import SPChart

WORKERS_ENV_VAR = "SPCLUSTER_WORKERS"


class ClusteringError(ValueError):
    pass


@dataclass(frozen=True)
class Cluster:
    """One cluster: member row indices, the binary image of the fixed point
    the members fell into (None for the score baseline), the average
    caution index of the members against the cluster's own rates, and
    their number of 1 cells."""

    member_indices: tuple[int, ...]
    fixed_point: tuple[int, ...] | None
    gamma: float
    correct: int

    @property
    def size(self) -> int:
        return len(self.member_indices)


@dataclass(frozen=True, eq=False)
class Clustering:
    """A partition of a chart's students into non-empty clusters."""

    clusters: tuple[Cluster, ...]
    chart: SPChart
    representatives: tuple[int, ...]


@dataclass(frozen=True)
class TrialSummary:
    trial_index: int
    seed: int | None  # None for the score baseline
    f1: float
    f2: float
    n_clusters: int


@dataclass(frozen=True, eq=False)
class TrialReport:
    """The winning trial in full: its summary, clustering and sweeps histogram."""

    summary: TrialSummary
    clustering: Clustering
    sweeps_histogram: dict[int, int]


# SplitMix64 (Steele, Lea & Flood, OOPSLA 2014): a counter stream whose
# state advances by _GAMMA and whose words are the state passed through _mix
_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15


def _mix(z: int) -> int:
    """SplitMix64's finaliser, a bijection on 64-bit words."""
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


def trial_seed(master_seed: int, trial_index: int) -> int:
    """Trial t's 64-bit seed, derived from (master_seed, t) alone.

    Starting from h = 0, each 64-bit limb of the master seed (least
    significant first; a seed below 2^64 is one limb) and then t, a trial
    index below 2^64, is folded in as h = mix((h xor word) + gamma).
    """
    if master_seed < 0:  # -1 would fold like 2^64 - 1
        raise ClusteringError("master seed must be non-negative")
    if not 0 <= trial_index <= _MASK:  # 2^64 would fold like 0
        raise ClusteringError(f"trial index must be in [0, 2^64), got {trial_index}")
    h = 0
    for shift in range(0, max(master_seed.bit_length(), 1), 64):
        h = _mix(((h ^ ((master_seed >> shift) & _MASK)) + _GAMMA) & _MASK)
    return _mix(((h ^ trial_index) + _GAMMA) & _MASK)


def _check_m(m: int, students: int) -> None:
    if m < 1:
        raise ClusteringError("need at least one cluster")
    if m > students:
        raise ClusteringError(f"cannot make {m} clusters from {students} students")


def _draw(population: int, m: int, seed: int) -> tuple[int, ...]:
    """m distinct indices below ``population``, uniform over m-subsets.

    Floyd's algorithm (Bentley & Floyd, CACM 1987) over the SplitMix64
    stream whose state starts at ``seed``: for j from population - m up
    to population - 1 take t uniform in [0, j], and add j if t is
    already taken, else t.  t is the next word below the largest
    multiple of j + 1 not above 2^64, modulo j + 1; the words skipped
    would make low residues likelier.  Indices come in the order they
    were added.  O(m) Python steps.
    """
    state = seed
    taken: dict[int, None] = {}  # an insertion-ordered set
    for j in range(population - m, population):
        n = j + 1
        limit = (1 << 64) - (1 << 64) % n
        while True:
            state = (state + _GAMMA) & _MASK
            word = _mix(state)
            if word < limit:
                break
        t = word % n
        taken[j if t in taken else t] = None
    return tuple(taken)


def select_representatives(chart: SPChart, m: int, seed: int) -> tuple[int, ...]:
    """Draw m distinct student indices uniformly without replacement,
    from the 64-bit ``seed`` (``_draw``)."""
    if not 0 <= seed <= _MASK:  # -1 would draw as 2^64 - 1 does
        raise ClusteringError(f"seed must be in [0, 2^64), got {seed}")
    _check_m(m, chart.num_students)
    return _draw(chart.num_students, m, seed)


@dataclass(frozen=True, eq=False)
class _ChartRows:
    """A chart prepared once for many trials.

    The chart's distinct rows come in key order: ``first[k]`` is the first
    student holding row k, ``inverse[i]`` is student i's row, ``mult[k]``
    is how many students hold row k, and ``weighted[k]`` is row k's bits
    times ``mult[k]``: summed, column counts.
    """

    chart: SPChart
    first: np.ndarray
    inverse: np.ndarray
    mult: np.ndarray
    weighted: np.ndarray


def _prepare(chart: SPChart) -> _ChartRows:
    first, inverse = hopfield.distinct_rows(chart.bits)
    mult = np.bincount(inverse)
    weighted = chart.bits[first] * mult[:, None]
    return _ChartRows(chart, first, inverse, mult, weighted)


def _gammas(rows: np.ndarray, spans, sizes) -> tuple[list[float], list[int]]:
    """Gammas and 1-cell counts of consecutive runs of ``rows`` with the
    given lengths, where run k's rows sum to ``sizes[k]`` students' counts."""
    starts = np.cumsum(spans) - spans
    counts = np.add.reduceat(rows, starts, axis=0, dtype=np.int64)
    return spchart.caution_from_counts(counts, sizes), counts.sum(axis=1).tolist()


def _trial(
    rows: _ChartRows, reps: tuple[int, ...]
) -> tuple[np.ndarray, np.ndarray, list[int], tuple[list[float], list[int]], np.ndarray]:
    """Relax every student under the network storing ``reps`` and group
    the students by terminal state.

    Returns every student's cluster label, each cluster's terminal state
    and size, its ``_gammas``, and the sweeps every student took, with the
    clusters in ``converge_many``'s order, on which no score depends.
    Sizes and column counts sum the distinct rows weighted by multiplicity.
    """
    patterns = rows.chart.bits[list(reps)]
    grouping = (rows.first, rows.inverse)
    points, sweeps, labels = hopfield.converge_many(rows.chart.bits, patterns, grouping)
    distinct = labels[rows.first]
    sizes = np.bincount(distinct, weights=rows.mult).astype(np.int64)
    by_cluster = rows.weighted[np.argsort(distinct, kind="stable")]
    scores = _gammas(by_cluster, np.bincount(distinct), sizes)
    return labels, points, sizes.tolist(), scores, sweeps


def _clusters(members: np.ndarray, sizes, fixed_points, scores) -> tuple[Cluster, ...]:
    """Consecutive runs of ``members`` with the given non-zero sizes."""
    parts = np.split(members, np.cumsum(sizes)[:-1])
    return tuple(
        Cluster(tuple(part.tolist()), point, gamma, correct)
        for part, point, gamma, correct in zip(parts, fixed_points, *scores)
    )


def _cluster_with_sweeps(rows: _ChartRows, rep_indices) -> tuple[Clustering, np.ndarray]:
    """The full clustering for ``rep_indices``, with member lists, and the
    sweeps every student took.  This is the one place that orders clusters."""
    chart = rows.chart
    reps = tuple(int(i) for i in rep_indices)
    for i in reps:
        if not 0 <= i < chart.num_students:
            raise ClusteringError(f"representative index {i} out of range")
    labels, points, sizes, scores, sweeps = _trial(rows, reps)
    # labels in their narrowest type: numpy sorts up to 16 bits by a stable radix sort
    members = np.argsort(labels.astype(np.min_scalar_type(len(points) - 1)), kind="stable")
    fixed_points = [tuple(p) for p in points.tolist()]
    clusters = _clusters(members, sizes, fixed_points, scores)
    # members ascend, so a cluster's first member is its first discovery
    clusters = tuple(sorted(clusters, key=lambda c: c.member_indices[0]))
    return Clustering(clusters, chart, reps), sweeps


def rnn_cluster(chart: SPChart, rep_indices) -> Clustering:
    """Cluster students by the fixed point their row relaxes to.

    Clusters appear in order of first discovery over student index and
    list their members in ascending order.  Deterministic given the chart
    and representative indices; the number of clusters never exceeds the
    number of fixed points of the learned network.
    """
    clustering, _ = _cluster_with_sweeps(_prepare(chart), rep_indices)
    return clustering


def f1(sizes, m: int) -> float:
    """Normalized shortfall of the m-th largest cluster size from L/m.

    0 when the m-th largest cluster hits the uniform size exactly, 1 when
    fewer than m clusters exist.  Always in [0, 1].
    """
    if m < 1:
        raise ClusteringError("m must be at least 1")
    sizes = sorted(sizes, reverse=True)
    L = sum(sizes)  # the clusters partition the students
    mth = sizes[m - 1] if len(sizes) >= m else 0
    # (L/m - mth) / (L/m) with one correctly rounded division
    return (L - m * mth) / L


def f2(gammas) -> float:
    """Worst (largest) of the per-cluster average caution indices ``gammas``."""
    return max(gammas)


def _summary(t: int, seed: int | None, m: int, sizes: list, gammas: list) -> TrialSummary:
    """Trial t's score from its cluster sizes and gammas (plain Python numbers)."""
    return TrialSummary(t, seed, f1(sizes, m), f2(gammas), len(sizes))


def score_baseline(chart: SPChart, m: int) -> TrialReport:
    """Split students into m contiguous groups of near-equal size by score.

    Students are ordered by total score descending (ties keep original
    order); the first L mod m groups take one extra student.  Clusters
    carry no fixed point.  The split is scored as trial 0, with no seed
    and no sweeps histogram.
    """
    L = chart.num_students
    _check_m(m, L)
    order = np.argsort(-chart.bits.sum(axis=1), kind="stable")
    base, extra = divmod(L, m)
    sizes = base + (np.arange(m) < extra)
    scores = _gammas(chart.bits[order], sizes, sizes)
    result = Clustering(_clusters(order, sizes, [None] * m, scores), chart, ())
    return TrialReport(_summary(0, None, m, sizes.tolist(), scores[0]), result, {})


def _run_one_trial(rows: _ChartRows, m: int, master_seed: int, t: int) -> TrialSummary:
    seed = trial_seed(master_seed, t)
    reps = select_representatives(rows.chart, m, seed)
    _, _, sizes, (gammas, _), _ = _trial(rows, reps)
    return _summary(t, seed, m, sizes, gammas)


def workers_from_env() -> int:
    """Worker count from the SPCLUSTER_WORKERS variable (default 1)."""
    raw = os.environ.get(WORKERS_ENV_VAR, "").strip()
    if not raw:
        return 1
    try:
        count = int(raw)
    except ValueError:
        count = 0
    if count < 1:
        raise ClusteringError(f"{WORKERS_ENV_VAR} must be a positive integer, got {raw!r}")
    return count


def run_trials(
    chart: SPChart,
    m: int,
    trials: int,
    master_seed: int,
    *,
    workers: int = 1,
) -> tuple[TrialReport, list[TrialSummary]]:
    """Run independent clustering trials and return the best one.

    Trial t is seeded from (master_seed, t), so the outcome is identical
    for any worker count or execution order.  The best trial minimizes f2
    with f1 as tie-break, then the lowest trial index.  Every trial yields
    a clustering: relaxation provably settles (``hopfield.sweep_bound``),
    so no trial can fail.
    """
    if trials < 1:
        raise ClusteringError("need at least one trial")
    if master_seed < 0:
        raise ClusteringError("master seed must be non-negative")
    if workers < 1:
        raise ClusteringError(f"need at least one worker, got {workers}")
    _check_m(m, chart.num_students)

    rows = _prepare(chart)
    run = partial(_run_one_trial, rows, m, master_seed)
    if workers <= 1 or trials == 1:
        summaries = list(map(run, range(trials)))
    else:
        # imported here: it pulls in multiprocessing, which one worker never needs
        from concurrent.futures import ProcessPoolExecutor

        # never more processes than trials or than the CPUs this process may use
        affinity = getattr(os, "sched_getaffinity", None)
        cpus = len(affinity(0)) if affinity else os.cpu_count() or 1
        chunk = ceil(trials / min(workers, trials, cpus))
        with ProcessPoolExecutor(max_workers=ceil(trials / chunk)) as pool:
            summaries = list(pool.map(run, range(trials), chunksize=chunk))

    best = min(summaries, key=lambda s: (s.f2, s.f1, s.trial_index))

    # rebuild the winning trial in full: member lists and convergence statistics
    reps = select_representatives(chart, m, best.seed)
    clustering, sweeps = _cluster_with_sweeps(rows, reps)
    values, counts = np.unique(sweeps, return_counts=True)
    histogram = {int(v): int(c) for v, c in zip(values, counts)}
    return TrialReport(best, clustering, histogram), summaries
