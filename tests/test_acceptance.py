"""Acceptance suite: one test per release criterion.

Each test prints a single [PASS]/[FAIL] line (visible with ``pytest -s``)
and asserts the criterion at its stated tolerance and runtime bound.
"""

import json
import time

import numpy as np
import pytest

from spcluster import cli, clustering, datagen, hopfield, spchart
from spcluster.datagen import GenSpec
from spcluster.spchart import ChartType, SPChart

from oracles import (
    REFERENCE_FIXED_POINTS,
    REFERENCE_PATTERNS,
    REFERENCE_WEIGHTS,
    all_states,
    caution_index,
    converge,
    energy,
    enumerate_fixed_points,
    sweep,
)


def verdict(label, ok, detail=""):
    suffix = f" ({detail})" if detail else ""
    print(f"[{'PASS' if ok else 'FAIL'}] {label}{suffix}")
    assert ok, f"{label}{suffix}"


def chart_of(rows):
    bits = np.array(rows, dtype=np.int8)
    return SPChart(
        bits,
        tuple(f"S{i+1}" for i in range(bits.shape[0])),
        tuple(f"P{j+1}" for j in range(bits.shape[1])),
    )


def test_criterion_1_hebbian_regression():
    patterns = np.array(REFERENCE_PATTERNS)
    expected = np.array(REFERENCE_WEIGHTS, dtype=np.int64)
    w = hopfield.hebbian_learn(patterns)  # warm-up, also the checked result
    timings = []
    for _ in range(10):
        t0 = time.perf_counter()
        hopfield.hebbian_learn(patterns)
        timings.append(time.perf_counter() - t0)
    elapsed = min(timings)
    exact = np.array_equal(w, expected) and w.shape == (10, 10)
    verdict(
        "criterion 1: correlation learning reproduces the reference matrix",
        exact and elapsed < 1e-3,
        f"exact={exact}, {elapsed * 1e6:.0f}us",
    )


def test_criterion_2_fixed_point_regression():
    w = np.array(REFERENCE_WEIGHTS, dtype=np.int64)
    t0 = time.perf_counter()
    one_sweep_fixed = True
    for point in REFERENCE_FIXED_POINTS:
        state = hopfield.bipolar_from_binary(point)
        after, changed = sweep(state, w)
        one_sweep_fixed &= (not changed) and np.array_equal(after, state)
    found = {
        tuple(hopfield.binary_from_bipolar(p).tolist())
        for p in enumerate_fixed_points(w)
    }
    elapsed = time.perf_counter() - t0
    # the exhaustive scan over all 2^10 states found exactly the four
    # reference states and no spurious extras; that result is frozen here
    complete = found == set(REFERENCE_FIXED_POINTS)
    verdict(
        "criterion 2: reference fixed points are fixed and complete",
        one_sweep_fixed and complete and elapsed < 1.0,
        f"{len(found)} fixed points, {elapsed:.3f}s",
    )


def test_criterion_3_convergence_and_energy_descent():
    rng = np.random.default_rng(20260810)
    t0 = time.perf_counter()
    energy_ok = True
    converged_ok = True
    for _ in range(100):
        n = int(rng.integers(2, 11))
        a = rng.integers(-5, 6, size=(n, n))
        w = a + a.T
        np.fill_diagonal(w, 0)

        states = all_states(n)
        # replay the dynamics over all starts, checking the energy delta
        # -(x_new - x_old) * field <= 0 at every single-component update,
        # and that every start settles within sweep_bound(w) sweeps
        x = states.astype(np.int64).copy()
        for _sweep in range(hopfield.sweep_bound(w)):
            changed = np.zeros(x.shape[0], dtype=bool)
            for j in range(n):
                field = x @ w[j]
                new = np.where(field >= 0, 1, -1)
                delta = -(new - x[:, j]) * field
                energy_ok &= bool((delta <= 0).all())
                changed |= new != x[:, j]
                x[:, j] = new
            if not changed.any():
                break
        else:
            converged_ok = False

        # cross-check the delta formula against full energy recomputation
        probe = states[rng.integers(0, states.shape[0])].astype(np.int64).copy()
        for j in range(n):
            before = energy(probe, w)
            field = int(probe @ w[j])
            old = int(probe[j])
            probe[j] = 1 if field >= 0 else -1
            energy_ok &= energy(probe, w) - before == -(probe[j] - old) * field

    elapsed = time.perf_counter() - t0
    verdict(
        "criterion 3: guaranteed convergence with non-increasing energy",
        converged_ok and energy_ok and elapsed < 30.0,
        f"{elapsed:.1f}s",
    )


def test_criterion_4_metric_regression():
    a = clustering.f1([28, 26, 23, 23], 4)
    b = clustering.f2([0.382, 0.387, 0.392, 0.390])
    c = clustering.f1([25, 25, 25, 25], 4)
    d = clustering.f2([0.404, 0.454, 0.458, 0.348])
    ok = abs(a - 0.080) <= 1e-12 and b == 0.392 and c == 0.0 and d == 0.458
    verdict("criterion 4: f1/f2 table regressions", ok, f"f1={a}, f2={b}, f1={c}, f2={d}")


def test_criterion_5_oracle_equivalence():
    rng = np.random.default_rng(5550555)
    t0 = time.perf_counter()
    agree = True
    for _ in range(50):
        L = int(rng.integers(2, 65))
        N = int(rng.integers(2, 13))
        density = rng.uniform(0.2, 0.8)
        chart = chart_of((rng.random((L, N)) < density).astype(np.int8))
        m = int(rng.integers(1, min(6, L) + 1))
        seed = int(rng.integers(2**64, dtype=np.uint64))
        reps = clustering.select_representatives(chart, m, seed)

        result = clustering.rnn_cluster(chart, reps)
        ours = {frozenset(c.member_indices) for c in result.clusters}

        # the oracle relaxes each row with the scalar integer converge
        w = hopfield.hebbian_learn(chart.bits[list(reps)])
        groups = {}
        for i, row in enumerate(hopfield.bipolar_from_binary(chart.bits)):
            key = tuple(converge(row, w).fixed_point.tolist())
            groups.setdefault(key, []).append(i)
        oracle = {frozenset(v) for v in groups.values()}
        agree &= ours == oracle
    elapsed = time.perf_counter() - t0
    verdict(
        "criterion 5: clustering equals the scalar-relaxation partition",
        agree and elapsed < 60.0,
        f"50 charts, {elapsed:.1f}s",
    )


def test_criterion_6_baseline_shape():
    rng = np.random.default_rng(66)
    chart = chart_of(rng.integers(0, 2, size=(100, 10)))
    result = clustering.score_baseline(chart, 4).clustering
    sizes = [c.size for c in result.clusters]
    value = clustering.f1(sizes, 4)
    verdict(
        "criterion 6: score baseline splits 100 students into four 25s",
        sizes == [25, 25, 25, 25] and value == 0.0,
        f"sizes={sizes}, f1={value}",
    )


def test_criterion_7_trials_beat_whole_chart_caution():
    t0 = time.perf_counter()
    wins = 0
    charts = 20
    for k in range(charts):
        chart = datagen.generate_chart(GenSpec(ChartType.TEST, 100, 10, seed=9000 + k))
        whole = spchart.average_caution(chart)
        best, _ = clustering.run_trials(chart, 4, 1000, master_seed=424_200 + k)
        wins += best.summary.f2 <= whole
    elapsed = time.perf_counter() - t0
    verdict(
        "criterion 7: best-of-1000 f2 beats whole-chart caution on >=80% of charts",
        wins >= 16 and elapsed < 600.0,
        f"{wins}/{charts} charts, {elapsed:.0f}s",
    )


def test_criterion_8_cli_determinism(tmp_path, monkeypatch):
    chart = datagen.generate_chart(GenSpec(ChartType.TEST, 80, 10, seed=88))
    input_path = tmp_path / "chart.csv"
    input_path.write_text(spchart.chart_to_csv(chart))

    outputs = []
    for run, workers in enumerate(("1", "1", "2")):
        out = tmp_path / f"report_{run}.json"
        monkeypatch.setenv("SPCLUSTER_WORKERS", workers)
        code = cli.main(
            ["cluster", "--input", str(input_path), "--clusters", "4",
             "--trials", "50", "--seed", "12", "--output", str(out)]
        )
        assert code == 0
        outputs.append(out.read_bytes())
    identical = outputs[0] == outputs[1] == outputs[2]
    json.loads(outputs[0])  # must also be well-formed
    verdict(
        "criterion 8: byte-identical reports across runs and worker counts",
        identical,
        f"{len(outputs[0])} bytes",
    )


def test_criterion_9_invariant_suite():
    rng = np.random.default_rng(999)
    cases = 1000
    t0 = time.perf_counter()

    partition_ok = bounds_ok = True
    for _ in range(cases):
        L = int(rng.integers(2, 26))
        N = int(rng.integers(2, 9))
        chart = chart_of(rng.integers(0, 2, size=(L, N)))
        m = int(rng.integers(1, min(5, L) + 1))
        seed = int(rng.integers(2**64, dtype=np.uint64))
        reps = clustering.select_representatives(chart, m, seed)
        result = clustering.rnn_cluster(chart, reps)
        members = sorted(i for c in result.clusters for i in c.member_indices)
        partition_ok &= members == list(range(L)) and all(c.size >= 1 for c in result.clusters)
        v1 = clustering.f1([c.size for c in result.clusters], m)
        v2 = clustering.f2([c.gamma for c in result.clusters])
        bounds_ok &= 0.0 <= v1 <= 1.0 and 0.0 <= v2 <= 1.0

    caution_ok = True
    for _ in range(cases):
        n = int(rng.integers(1, 33))
        row = rng.integers(0, 2, size=n)
        rates = rng.random(n)
        caution_ok &= 0.0 <= caution_index(row, rates) <= 1.0

    rearrange_ok = True
    for _ in range(cases):
        L = int(rng.integers(1, 20))
        N = int(rng.integers(1, 12))
        chart = chart_of(rng.integers(0, 2, size=(L, N)))
        rc = spchart.rearrange(chart)
        again = spchart.rearrange(rc.chart)
        rearrange_ok &= again.row_perm == tuple(range(L)) and again.col_perm == tuple(range(N))
        rows_back = rc.chart.bits[:, np.argsort(rc.col_perm)]
        rearrange_ok &= sorted(map(tuple, chart.bits.tolist())) == sorted(
            map(tuple, rows_back.tolist())
        )
        cols_back = rc.chart.bits[np.argsort(rc.row_perm)]
        rearrange_ok &= sorted(map(tuple, chart.bits.T.tolist())) == sorted(
            map(tuple, cols_back.T.tolist())
        )
        rearrange_ok &= chart.bits.sum() == rc.chart.bits.sum()

    roundtrip_ok = True
    for _ in range(cases):
        n = int(rng.integers(1, 65))
        bits = rng.integers(0, 2, size=n)
        back = hopfield.binary_from_bipolar(hopfield.bipolar_from_binary(bits))
        roundtrip_ok &= np.array_equal(back, bits)

    elapsed = time.perf_counter() - t0
    verdict(
        "criterion 9: invariant property suite (1000 cases per property)",
        partition_ok and bounds_ok and caution_ok and rearrange_ok and roundtrip_ok,
        f"{elapsed:.1f}s",
    )
