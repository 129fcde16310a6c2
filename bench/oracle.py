"""Independent correctness gate for one ``spcluster cluster`` report.

Everything here is recomputed from the chart and the report alone, with
code written apart from ``src/`` so that a defect there cannot hide itself:

- the clusters partition every student id exactly once;
- each cluster's caution ``gamma``, the headline ``f2`` (worst gamma) and
  ``f1`` (shortfall of the M-th largest cluster from L/M) match values
  recomputed from exact per-column counts, within ``TOLERANCE``;
- the winner is the minimum of (f2, f1, trial index) over the trials table;
- every distinct member row, relaxed by scalar sequential sweeps
  (ascending order, sgn(0) = +1) in the Hebbian network of the reported
  representatives, reaches its cluster's ``fixed_point``, and the sweep
  counts reproduce the reported ``sweeps_histogram``.
"""

from __future__ import annotations

from collections import Counter

import numpy as np

TOLERANCE = 1e-12
MAX_SWEEPS = 100_000


def hebbian(patterns: np.ndarray) -> np.ndarray:
    """w_ij = sum_l (2r_li - 1)(2r_lj - 1), zero diagonal."""
    b = 2 * np.asarray(patterns, dtype=np.int64) - 1
    w = b.T @ b
    np.fill_diagonal(w, 0)
    return w


def relax(w: np.ndarray, bits) -> tuple[str, int]:
    """Scalar sweeps from a 0/1 row until one flips nothing.

    Returns the fixed point as a 0/1 string and the sweeps used, counting
    the final sweep that flips nothing.
    """
    x = 2 * np.asarray(bits, dtype=np.int64) - 1
    for sweeps in range(1, MAX_SWEEPS + 1):
        changed = False
        for j in range(x.shape[0]):
            new = 1 if int(w[j] @ x) >= 0 else -1
            if new != x[j]:
                x[j] = new
                changed = True
        if not changed:
            return "".join("1" if v > 0 else "0" for v in x), sweeps
    raise RuntimeError(f"no fixed point within {MAX_SWEEPS} sweeps")


def cluster_gamma(bits: np.ndarray) -> float:
    """Average caution of a cluster from exact column counts:
    2 * sum_j c_j (n - c_j) / (n^2 N)."""
    n, width = bits.shape
    c = bits.sum(axis=0, dtype=np.int64)
    return 2.0 * int((c * (n - c)).sum()) / (n * n * width)


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= TOLERANCE


def check_report(
    doc: dict, bits: np.ndarray, student_ids, m: int, trials: int
) -> list[str]:
    """Every failed check as one message; empty when the report is right."""
    bits = np.asarray(bits)
    L = bits.shape[0]
    index = {sid: i for i, sid in enumerate(student_ids)}
    best = doc["best_trial"]
    clusters = best["clusters"]
    errors: list[str] = []

    members = [[index.get(s, -1) for s in c["student_ids"]] for c in clusters]
    flat = [i for group in members for i in group]
    if -1 in flat:
        errors.append("a cluster lists an unknown student id")
        return errors
    if sorted(flat) != list(range(L)):
        errors.append("clusters do not partition the students exactly once")
        return errors
    if any(c["size"] != len(g) for c, g in zip(clusters, members)):
        errors.append("a cluster size differs from its member count")

    gammas = [cluster_gamma(bits[g]) for g in members]
    for k, (c, g) in enumerate(zip(clusters, gammas)):
        if not _close(c["gamma"], g):
            errors.append(f"cluster {k + 1} gamma {c['gamma']!r} != recomputed {g!r}")
    f2 = max(gammas)
    sizes = sorted((len(g) for g in members), reverse=True)
    desired = L / m
    f1 = (desired - (sizes[m - 1] if len(sizes) >= m else 0)) / desired
    for where, section in (("report", doc), ("best_trial", best)):
        if not _close(section["f2"], f2):
            errors.append(f"{where} f2 {section['f2']!r} != recomputed {f2!r}")
        if not _close(section["f1"], f1):
            errors.append(f"{where} f1 {section['f1']!r} != recomputed {f1!r}")

    rows = doc["trials"]
    if [r["trial"] for r in rows] != list(range(trials)):
        errors.append(f"trials table does not list trials 0..{trials - 1}")
    ok = [r for r in rows if "error" not in r]
    if not ok:
        errors.append("every trial failed")
    else:
        winner = min(ok, key=lambda r: (r["f2"], r["f1"], r["trial"]))
        if winner["trial"] != best["trial_index"]:
            errors.append(f"winner is trial {best['trial_index']}, rule gives {winner['trial']}")
        elif (winner["f1"], winner["f2"], winner["seed"], winner["clusters"]) != (
            best["f1"], best["f2"], best["seed"], len(clusters)
        ):
            errors.append("best_trial disagrees with its row in the trials table")

    reps = [index.get(s, -1) for s in best["representatives"]]
    if len(reps) != m or len(set(reps)) != m or -1 in reps:
        errors.append(f"representatives are not {m} distinct student ids")
        return errors
    w = hebbian(bits[reps])
    relaxed: dict[bytes, tuple[str, int]] = {}
    sweeps = Counter()
    for k, (c, group) in enumerate(zip(clusters, members)):
        for i in group:
            key = bits[i].tobytes()
            if key not in relaxed:
                relaxed[key] = relax(w, bits[i])
                if relaxed[key][0] != c["fixed_point"]:
                    errors.append(f"a row of cluster {k + 1} relaxes to {relaxed[key][0]}")
            sweeps[relaxed[key][1]] += 1
    if len({c["fixed_point"] for c in clusters}) != len(clusters):
        errors.append("two clusters share a fixed point")
    histogram = {str(k): v for k, v in sorted(sweeps.items())}
    if histogram != best["sweeps_histogram"]:
        errors.append("sweeps_histogram differs from the recomputed sweep counts")
    return errors
