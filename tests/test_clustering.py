import concurrent.futures
import os
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spcluster import clustering, datagen, hopfield, report, spchart
from spcluster.clustering import (
    ClusteringError,
    f1,
    f2,
    rnn_cluster,
    run_trials,
    score_baseline,
    select_representatives,
    trial_seed,
)
from spcluster.datagen import GenSpec

from oracles import (
    REFERENCE_FIXED_POINTS,
    REFERENCE_PATTERNS,
    converge,
    enumerate_fixed_points,
    reference_draw,
    reference_trial_seed,
    splitmix64_words,
)


def chart_of(rows):
    bits = np.array(rows, dtype=np.int8)
    return spchart.SPChart(
        bits,
        tuple(f"S{i+1}" for i in range(bits.shape[0])),
        tuple(f"P{j+1}" for j in range(bits.shape[1])),
    )


def random_chart(rng, max_students=40, max_problems=10):
    L = int(rng.integers(2, max_students + 1))
    N = int(rng.integers(2, max_problems + 1))
    return chart_of(rng.integers(0, 2, size=(L, N)))


def seed_from(rng):
    """A 64-bit draw seed taken from a numpy generator."""
    return int(rng.integers(2**64, dtype=np.uint64))


def partition_by_basin(chart, rep_indices):
    """Oracle: group students by the fixed point the scalar ``converge``
    takes their row to."""
    w = hopfield.hebbian_learn(chart.bits[list(rep_indices)])
    groups = {}
    for i, row in enumerate(hopfield.bipolar_from_binary(chart.bits)):
        key = tuple(converge(row, w).fixed_point.tolist())
        groups.setdefault(key, []).append(i)
    return {frozenset(v) for v in groups.values()}


def reference_clusters(chart, rep_indices):
    """Oracle: group rows by the bytes of the fixed point the scalar
    ``converge`` takes them to, in a dict in order of first discovery,
    with gamma as a float mean deviation."""
    w = hopfield.hebbian_learn(chart.bits[list(rep_indices)])
    settled, groups = {}, {}  # row bytes -> fixed point; fixed point bytes -> members
    for i, row in enumerate(hopfield.bipolar_from_binary(chart.bits)):
        if row.tobytes() not in settled:
            settled[row.tobytes()] = converge(row, w).fixed_point
        groups.setdefault(settled[row.tobytes()].tobytes(), []).append(i)
    out = []
    for point, members in groups.items():
        bits = chart.bits[members].astype(float)
        point = tuple(((np.frombuffer(point, np.int8) + 1) // 2).tolist())
        out.append((tuple(members), point, float(np.abs(bits - bits.mean(axis=0)).mean())))
    return out


def scored_partition(bits, labels):
    """The gammas the production scoring path gives each cluster of a
    labelling, in label order."""
    sizes = np.bincount(labels)
    members = np.argsort(labels, kind="stable")
    gammas, _ = clustering._gammas(np.asarray(bits)[members], sizes, sizes)
    return gammas


class TestSelectRepresentatives:
    def test_full_draw_is_a_permutation(self):
        chart = chart_of(np.eye(6, dtype=np.int8))
        reps = select_representatives(chart, 6, 0)
        assert sorted(reps) == list(range(6))

    def test_same_seed_same_indices(self):
        chart = chart_of(np.eye(8, dtype=np.int8))
        a = select_representatives(chart, 3, 42)
        b = select_representatives(chart, 3, 42)
        assert a == b

    def test_m_too_large(self):
        chart = chart_of([[1, 0]])
        with pytest.raises(ClusteringError, match=r"^cannot make 2 clusters from 1 students$"):
            select_representatives(chart, 2, 0)

    @pytest.mark.parametrize("seed", [-1, 2**64, 2**64 + 5])
    def test_seed_outside_64_bits_is_refused(self, seed):
        # the stream's state is one word: -1 would draw as 2^64 - 1 does, 2^64 + 5 as 5
        chart = chart_of(np.eye(8, dtype=np.int8))
        with pytest.raises(clustering.ClusteringError, match="seed must be in"):
            select_representatives(chart, 4, seed)

    def test_uniformity_within_three_sigma(self):
        chart = chart_of(np.zeros((10, 2), dtype=np.int8) + np.eye(10, 2, dtype=np.int8))
        draws = 100_000
        counts = np.zeros(10, dtype=int)
        for t in range(draws):
            counts[select_representatives(chart, 1, trial_seed(123, t))[0]] += 1
        expected = draws / 10
        sigma = np.sqrt(draws * 0.1 * 0.9)
        assert (np.abs(counts - expected) <= 3 * sigma).all()

    def test_every_pair_equally_likely(self):
        # chi-square over all 10 two-subsets of 5 students, not only the
        # single-index marginals; 27.88 is the 0.1% point for 9 degrees of freedom
        chart = chart_of(np.eye(5, dtype=np.int8))
        draws = 50_000
        counts = {}
        for t in range(draws):
            pair = frozenset(select_representatives(chart, 2, trial_seed(2024, t)))
            counts[pair] = counts.get(pair, 0) + 1
        assert len(counts) == 10
        expected = draws / 10
        assert sum((c - expected) ** 2 / expected for c in counts.values()) < 27.88

    @settings(deadline=None, max_examples=300)
    @given(st.data(), st.integers(1, 300), st.integers(0, 2**64 - 1))
    def test_matches_the_reference_draw(self, data, students, seed):
        m = data.draw(st.integers(1, students))
        chart = chart_of(np.zeros((students, 1), dtype=np.int8))
        assert select_representatives(chart, m, seed) == tuple(reference_draw(students, m, seed))

    @pytest.mark.parametrize(
        "seed, students, m, expected",
        [
            (0, 10, 4, (2, 4, 1, 9)),
            (1, 5, 2, (1, 4)),
            (2**64 - 1, 100, 8, (17, 87, 91, 18, 15, 75, 28, 16)),
            (13309476754707697221, 1000, 4, (429, 590, 328, 236)),
        ],
    )
    def test_recorded_draws(self, seed, students, m, expected):
        chart = chart_of(np.zeros((students, 1), dtype=np.int8))
        assert select_representatives(chart, m, seed) == expected

    @pytest.mark.parametrize("population, rejected", [(2**63 + 1, 0.5), (3 * 2**62, 0.25)])
    def test_rejects_words_above_the_last_whole_block(self, population, rejected):
        # words at or above the largest multiple of the population that
        # fits below 2^64 would favour the low indices and are drawn again;
        # these populations reject about half and a quarter of all words
        limit = 2**64 - 2**64 % population
        first_rejected = 0
        for seed in range(400):
            first_rejected += next(splitmix64_words(seed)) >= limit
            expected = reference_draw(population, 1, seed)
            assert clustering._draw(population, 1, seed) == tuple(expected)
        assert abs(first_rejected / 400 - rejected) < 0.1


class TestTrialSeed:
    def test_reference_stream_is_splitmix64(self):
        # the first outputs of splitmix64.c seeded with 0 and with 1234567
        zero, other = splitmix64_words(0), splitmix64_words(1234567)
        assert [next(zero) for _ in range(2)] == [16294208416658607535, 7960286522194355700]
        assert [next(other) for _ in range(5)] == [
            6457827717110365317, 3203168211198807973, 9817491932198370423,
            4593380528125082431, 16408922859458223821,
        ]

    @settings(deadline=None, max_examples=300)
    @given(
        st.integers(0, 2**64 - 1) | st.integers(2**64 - 2, 2**64 + 2) | st.integers(0, 2**200),
        st.integers(0, 2**64 - 1),
    )
    def test_matches_the_reference(self, master, t):
        assert trial_seed(master, t) == reference_trial_seed(master, t)

    @pytest.mark.parametrize(
        "master, t, expected",
        [
            (0, 0, 12035550249420947055),
            (0, 1, 627405149472732430),
            (7, 0, 13309476754707697221),
            (2**64 - 1, 9999, 11247658685407344575),
            (2**64, 0, 4964578127960768432),
            (2**130 + 5, 3, 3287173576750475766),
        ],
    )
    def test_recorded_seeds(self, master, t, expected):
        assert trial_seed(master, t) == expected

    def test_negative_master_seed_is_refused(self):
        with pytest.raises(clustering.ClusteringError):
            trial_seed(-1, 0)

    @pytest.mark.parametrize("t", [-1, 2**64, 2**64 + 5])
    def test_trial_index_outside_64_bits_is_refused(self, t):
        # t is folded in as one word: 2^64 would fold like 0, -1 like 2^64 - 1
        with pytest.raises(clustering.ClusteringError, match="trial index must be in"):
            trial_seed(7, t)


class TestRnnCluster:
    def test_identical_rows_collapse_to_one_cluster(self):
        chart = chart_of([[1, 0, 1, 1]] * 7)
        result = rnn_cluster(chart, [0, 3])
        assert len(result.clusters) == 1
        assert result.clusters[0].member_indices == tuple(range(7))
        assert result.clusters[0].gamma == 0.0

    def test_reference_rows_land_on_fixed_points(self):
        chart = chart_of(REFERENCE_PATTERNS)
        result = rnn_cluster(chart, [0, 1, 2, 3])
        fixed = set(REFERENCE_FIXED_POINTS)
        for cluster in result.clusters:
            assert cluster.fixed_point in fixed
        by_member = {i: c for c in result.clusters for i in c.member_indices}
        # the third stored row coincides with a fixed point, so it stays put
        assert by_member[2].fixed_point == REFERENCE_FIXED_POINTS[2]

    def test_matches_basin_map_oracle(self):
        rng = np.random.default_rng(99)
        for _ in range(15):
            chart = random_chart(rng)
            m = int(rng.integers(1, min(5, chart.num_students) + 1))
            reps = select_representatives(chart, m, seed_from(rng))
            result = rnn_cluster(chart, reps)
            ours = {frozenset(c.member_indices) for c in result.clusters}
            assert ours == partition_by_basin(chart, reps)

    def test_partition_property(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            chart = random_chart(rng)
            reps = select_representatives(chart, 2, seed_from(rng))
            result = rnn_cluster(chart, reps)
            seen = [i for c in result.clusters for i in c.member_indices]
            assert sorted(seen) == list(range(chart.num_students))
            assert all(c.size >= 1 for c in result.clusters)

    def test_cluster_count_bounded_by_fixed_points(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            chart = random_chart(rng, max_students=20, max_problems=8)
            reps = select_representatives(chart, 3, seed_from(rng))
            result = rnn_cluster(chart, reps)
            w = hopfield.hebbian_learn(chart.bits[list(reps)])
            assert len(result.clusters) <= len(enumerate_fixed_points(w))

    def test_deterministic(self):
        rng = np.random.default_rng(3)
        chart = random_chart(rng)
        reps = select_representatives(chart, 3, seed_from(rng))
        a = rnn_cluster(chart, reps)
        b = rnn_cluster(chart, reps)
        assert [c.member_indices for c in a.clusters] == [c.member_indices for c in b.clusters]
        assert [c.fixed_point for c in a.clusters] == [c.fixed_point for c in b.clusters]

    def test_clusters_past_256_keep_their_order(self):
        # 16 patterns from the columns of a 16 x 16 Hadamard matrix, each
        # column over two units: w couples only the two units of a pair, so
        # the network has 2^16 fixed points, and 1,000 random rows reach
        # more than 256 of them: the winner's labels sort as uint16
        h = np.ones((1, 1), dtype=np.int8)
        for _ in range(4):
            h = np.block([[h, h], [h, -h]])
        rows = np.random.default_rng(5).integers(0, 2, size=(1000, 32))
        chart = chart_of(np.vstack(((np.repeat(h, 2, axis=1) + 1) // 2, rows)))
        result = rnn_cluster(chart, range(16))
        expected = reference_clusters(chart, range(16))
        assert len(result.clusters) > 256
        assert [c.member_indices for c in result.clusters] == [e[0] for e in expected]
        assert [c.fixed_point for c in result.clusters] == [e[1] for e in expected]

    def test_rejects_out_of_range_representative(self):
        chart = chart_of([[1, 0], [0, 1]])
        for index in (5, -1, 2):  # unchecked, -1 would pick the last student
            with pytest.raises(clustering.ClusteringError, match=f"^representative index {index} out of range$"):
                rnn_cluster(chart, [index])

    @settings(deadline=None, max_examples=60)
    @given(st.sampled_from(list(spchart.ChartType)), st.integers(1, 60), st.integers(1, 12),
           st.integers(1, 5), st.integers(0, 2**32 - 1))
    @example(spchart.ChartType.TEST, 60, 13, 5, 0)  # the column loop
    @example(spchart.ChartType.DRILL, 60, 70, 5, 0)  # the column loop, two key words
    def test_matches_dict_grouping_reference(self, chart_type, students, problems, m, seed):
        chart = datagen.generate_chart(GenSpec(chart_type, students, problems, seed))
        reps = select_representatives(chart, min(m, students), seed)
        result = rnn_cluster(chart, reps)
        expected = reference_clusters(chart, reps)
        assert [c.member_indices for c in result.clusters] == [e[0] for e in expected]
        assert [c.fixed_point for c in result.clusters] == [e[1] for e in expected]
        for cluster, (_, _, gamma) in zip(result.clusters, expected):
            assert cluster.gamma == pytest.approx(gamma, rel=0, abs=1e-12)
        worst = max(e[2] for e in expected)
        assert f2([c.gamma for c in result.clusters]) == pytest.approx(worst, rel=0, abs=1e-12)


class TestCostFunctions:
    def test_f1_table_regression(self):
        assert f1([28, 26, 23, 23], 4) == pytest.approx(0.080, abs=1e-12)

    def test_f1_uniform_sizes(self):
        assert f1([25, 25, 25, 25], 4) == 0.0

    def test_f1_fewer_clusters_than_m(self):
        assert f1([10, 10], 4) == 1.0

    def test_f1_bounds(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            k = int(rng.integers(1, 8))
            sizes = rng.integers(1, 30, size=k).tolist()
            m = int(rng.integers(1, 8))
            value = f1(sizes, m)
            assert 0.0 <= value <= 1.0

    def test_f2_table_regressions(self):
        assert f2([0.382, 0.387, 0.392, 0.390]) == 0.392
        assert f2([0.404, 0.454, 0.458, 0.348]) == 0.458

    def test_f2_homogeneous_clusters(self):
        chart = chart_of([[1, 0, 1]] * 4 + [[0, 1, 0]] * 4)
        result = rnn_cluster(chart, [0, 4])
        assert f2([c.gamma for c in result.clusters]) == 0.0

    def test_f2_empty(self):
        # no caller passes an empty clustering, and max() refuses one
        with pytest.raises(ValueError) as exc:
            f2([])
        assert exc.type is ValueError

    def test_f1_rejects_m_below_one(self):
        with pytest.raises(clustering.ClusteringError):
            f1([3, 1], 0)

    def test_f1_empty(self):
        # f1 takes L from the cluster sizes, so no clusters divides by zero
        with pytest.raises(ZeroDivisionError):
            f1([], 1)

    @settings(deadline=None, max_examples=80)
    @given(st.integers(0, 2**32 - 1))
    def test_equal_column_counts_give_identical_f2(self, seed):
        rng = np.random.default_rng(seed)
        L, N = int(rng.integers(2, 40)), int(rng.integers(1, 10))
        k = int(rng.integers(1, min(L, 5) + 1))
        labels = np.concatenate([np.arange(k), rng.integers(0, k, size=L - k)])
        bits = rng.integers(0, 2, size=(L, N))
        # shuffling each column within each cluster keeps the cluster's
        # column counts but changes which rows it holds
        other = bits.copy()
        for c in range(k):
            idx = np.flatnonzero(labels == c)
            for j in range(N):
                other[idx, j] = bits[rng.permutation(idx), j]
        order = rng.permutation(L)
        a = scored_partition(bits, labels)
        b = scored_partition(other[order], labels[order])
        assert sorted(a) == sorted(b)
        assert f2(a) == f2(b)

    @pytest.mark.parametrize(
        "rows",
        [
            [[1, 0], [0, 0]],
            # a float mean over rates of 1/6 and 1/3 gives 0.25000000000000006
            [[1, 0, 0, 0], [1, 0, 0, 1], [1, 0, 0, 0], [1, 0, 0, 1], [1, 1, 1, 0], [1, 0, 0, 0]],
        ],
    )
    def test_a_quarter_is_exactly_a_quarter(self, rows):
        bits = np.array(rows)
        assert scored_partition(bits, np.zeros(len(rows), dtype=int)) == [0.25]
        assert spchart.average_caution(chart_of(bits)) == 0.25


class TestTrialScoring:
    """Trials score labels of the chart's distinct rows, weighted by how
    many students hold each, and the winner is rebuilt from the same
    labels; the dict-grouping ``reference_clusters`` is the reference for
    both."""

    @settings(deadline=None, max_examples=60)
    @given(st.sampled_from(list(spchart.ChartType)), st.integers(1, 80), st.integers(1, 70),
           st.integers(1, 6), st.integers(0, 2**32 - 1))
    @example(spchart.ChartType.DRILL, 80, 130, 6, 0)
    def test_each_trial_matches_the_reference(self, chart_type, students, problems, m, seed):
        # drill charts over few problems repeat most rows; past 64
        # problems rows are keyed by more than one word
        chart = datagen.generate_chart(GenSpec(chart_type, students, problems, seed))
        m = min(m, students)
        best, summaries = run_trials(chart, m, 4, master_seed=seed)
        assert [s.trial_index for s in summaries] == [0, 1, 2, 3]
        for s in summaries:
            # seeds and draws from their published definitions, not the code under test
            assert s.seed == reference_trial_seed(seed, s.trial_index)
            reps = reference_draw(students, m, s.seed)
            expected = reference_clusters(chart, reps)
            assert (s.f1, s.n_clusters) == (f1([len(e[0]) for e in expected], m), len(expected))
            assert s.f2 == pytest.approx(max(e[2] for e in expected), rel=0, abs=1e-12)
        reps = reference_draw(students, m, best.summary.seed)
        assert best.clustering.representatives == tuple(reps)
        expected = reference_clusters(chart, reps)
        clusters = best.clustering.clusters
        assert [c.member_indices for c in clusters] == [e[0] for e in expected]
        assert [c.fixed_point for c in clusters] == [e[1] for e in expected]
        gammas = [c.gamma for c in clusters]
        assert gammas == pytest.approx([e[2] for e in expected], rel=0, abs=1e-12)
        assert (best.summary.f1, best.summary.f2) == (f1([c.size for c in clusters], m), f2(gammas))

    def test_repeated_rows_are_weighted(self):
        # three copies of one row and one other row: unweighted rows would
        # give two clusters of one student each
        chart = chart_of([[1, 1, 0], [0, 0, 1], [1, 1, 0], [1, 1, 0]])
        _, summaries = run_trials(chart, 2, 1, master_seed=0)
        reps = select_representatives(chart, 2, summaries[0].seed)
        expected = reference_clusters(chart, reps)
        assert [len(e[0]) for e in expected] == [3, 1]
        assert summaries[0].f1 == f1([3, 1], 2)
        assert summaries[0].f2 == pytest.approx(max(e[2] for e in expected), rel=0, abs=1e-12)

    def test_prepare_holds_no_bipolar_copy_of_the_chart(self):
        # keying the rows takes their bits as bools and packed into uint16
        # words, 3 bytes a cell at the peak; one more L x N int8 array, such
        # as a +-1 copy of the chart for the kernel, would reach 4
        chart = datagen.generate_chart(GenSpec(spchart.ChartType.DRILL, 100_000, 12, seed=1))
        tracemalloc.start()
        try:
            clustering._prepare(chart)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3.5 * chart.bits.size


class TestScoreBaseline:
    def test_equal_quarters(self):
        rng = np.random.default_rng(1)
        chart = chart_of(rng.integers(0, 2, size=(100, 10)))
        result = score_baseline(chart, 4).clustering
        sizes = [c.size for c in result.clusters]
        assert sizes == [25, 25, 25, 25]
        assert f1(sizes, 4) == 0.0
        assert all(c.fixed_point is None for c in result.clusters)

    def test_singletons_in_score_order(self):
        chart = chart_of([[1, 1], [0, 0], [1, 0], [0, 1]])
        result = score_baseline(chart, 4).clustering
        assert [c.member_indices for c in result.clusters] == [(0,), (2,), (3,), (1,)]

    def test_remainder_distribution(self):
        chart = chart_of(np.ones((10, 3), dtype=np.int8))
        result = score_baseline(chart, 3).clustering
        assert [c.size for c in result.clusters] == [4, 3, 3]

    def test_groups_are_contiguous_in_score(self):
        rng = np.random.default_rng(8)
        chart = chart_of(rng.integers(0, 2, size=(30, 6)))
        result = score_baseline(chart, 4).clustering
        scores = chart.bits.sum(axis=1)
        previous_min = None
        for cluster in result.clusters:
            member_scores = scores[list(cluster.member_indices)]
            if previous_min is not None:
                assert member_scores.max() <= previous_min
            previous_min = member_scores.min()

    def test_m_too_large(self):
        with pytest.raises(ClusteringError, match=r"^cannot make 3 clusters from 2 students$"):
            score_baseline(chart_of([[1], [0]]), 3)

    def test_scored_as_trial_zero(self):
        rng = np.random.default_rng(3)
        chart = chart_of(rng.integers(0, 2, size=(30, 6)))
        report = score_baseline(chart, 4)
        clusters = report.clustering.clusters
        sizes, gammas = [c.size for c in clusters], [c.gamma for c in clusters]
        expected = clustering.TrialSummary(0, None, f1(sizes, 4), f2(gammas), 4)
        assert report.summary == expected
        assert type(report.summary.f1) is float and type(report.summary.f2) is float
        assert report.sweeps_histogram == {}


class TestRunTrials:
    def test_single_trial_is_best(self):
        rng = np.random.default_rng(2)
        chart = random_chart(rng, max_students=20)
        best, summaries = run_trials(chart, 2, 1, master_seed=5)
        assert len(summaries) == 1
        assert best.summary == summaries[0]

    def test_deterministic_across_runs(self):
        rng = np.random.default_rng(4)
        chart = random_chart(rng, max_students=30)
        a_best, a_all = run_trials(chart, 3, 40, master_seed=9)
        b_best, b_all = run_trials(chart, 3, 40, master_seed=9)
        assert a_all == b_all
        assert a_best.summary == b_best.summary
        assert a_best.sweeps_histogram == b_best.sweeps_histogram

    def test_worker_count_does_not_change_results(self):
        rng = np.random.default_rng(6)
        chart = random_chart(rng, max_students=30)
        seq_best, seq_all = run_trials(chart, 3, 30, master_seed=1, workers=1)
        par_best, par_all = run_trials(chart, 3, 30, master_seed=1, workers=3)
        assert seq_all == par_all
        assert seq_best.summary == par_best.summary
        assert seq_best.sweeps_histogram == par_best.sweeps_histogram

    def test_pool_never_starts_more_processes_than_cpus(self, monkeypatch):
        started = []

        class InProcessPool:  # records the request and starts no process
            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items, chunksize=1):
                return map(fn, items)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
        affinity = getattr(os, "sched_getaffinity", None)
        cpus = len(affinity(0)) if affinity else os.cpu_count() or 1
        chart = random_chart(np.random.default_rng(6), max_students=30)
        trials = cpus + 1
        one_best, one_all = run_trials(chart, 3, trials, master_seed=1, workers=1)
        many_best, many_all = run_trials(chart, 3, trials, master_seed=1, workers=10**6)
        assert len(started) == (cpus > 1) and all(2 <= n <= cpus for n in started)
        assert many_all == one_all
        assert many_best.summary == one_best.summary

    def test_one_usable_cpu_runs_in_process(self, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("a pool of one process was started")

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
        chart = random_chart(np.random.default_rng(6), max_students=30)
        one_best, one_all = run_trials(chart, 3, 20, master_seed=1, workers=1)
        two_best, two_all = run_trials(chart, 3, 20, master_seed=1, workers=2)
        assert two_all == one_all
        assert two_best.summary == one_best.summary

    def test_best_minimizes_f2_over_summaries(self):
        rng = np.random.default_rng(10)
        chart = random_chart(rng, max_students=35)
        best, summaries = run_trials(chart, 3, 60, master_seed=77)
        assert all(best.summary.f2 <= s.f2 for s in summaries)

    def test_histogram_counts_all_students(self):
        rng = np.random.default_rng(14)
        chart = random_chart(rng)
        best, _ = run_trials(chart, 2, 5, master_seed=0)
        assert sum(best.sweeps_histogram.values()) == chart.num_students

    def test_parameter_validation(self):
        chart = chart_of([[1, 0], [0, 1]])
        with pytest.raises(clustering.ClusteringError):
            run_trials(chart, 2, 0, master_seed=0)
        with pytest.raises(ClusteringError, match=r"^cannot make 5 clusters from 2 students$"):
            run_trials(chart, 5, 1, master_seed=0)
        with pytest.raises(clustering.ClusteringError):
            run_trials(chart, 2, 2, -1)

    @pytest.mark.parametrize("workers", [0, -2])
    def test_workers_below_one_are_refused(self, workers):
        chart = chart_of([[1, 0], [0, 1]])
        with pytest.raises(clustering.ClusteringError, match="at least one worker"):
            run_trials(chart, 2, 2, master_seed=0, workers=workers)

    def test_kernel_errors_abort_the_run(self, monkeypatch):
        def broken(*args, **kwargs):
            raise TypeError("kernel bug")

        monkeypatch.setattr(hopfield, "converge_many", broken)
        with pytest.raises(TypeError, match="kernel bug"):
            run_trials(chart_of(np.eye(4, dtype=np.int8)), 2, 3, master_seed=0)

    def test_trial_seed_is_stable(self):
        assert trial_seed(42, 0) == trial_seed(42, 0)
        assert trial_seed(42, 0) != trial_seed(42, 1)
        assert trial_seed(42, 1) != trial_seed(43, 1)


class TestIntegerArguments:
    """Seeds, counts and indices may be any integer type; a numpy integer
    gives what the equal Python int gives, and a float is refused."""

    CHART = chart_of(np.random.default_rng(8).integers(0, 2, size=(12, 6)))

    def test_run_trials_takes_a_numpy_seed(self):
        best, summaries = run_trials(self.CHART, np.int64(3), np.int64(4), np.int64(7))
        expected_best, expected = run_trials(self.CHART, 3, 4, 7)
        assert summaries == expected
        assert all(type(s.seed) is int for s in summaries)
        docs = [
            report.report_json(report.build_cluster_report("cluster", b"", {}, b, s))
            for b, s in ((best, summaries), (expected_best, expected))
        ]
        assert docs[0] == docs[1]

    def test_select_representatives_takes_a_numpy_seed(self):
        reps = select_representatives(self.CHART, np.int64(3), np.int64(7))
        assert reps == select_representatives(self.CHART, 3, 7)

    def test_uint64_seed_gives_python_ints_and_no_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            reps = select_representatives(self.CHART, 3, np.uint64(2**64 - 1))
            seed = trial_seed(np.uint64(2**64 - 1), np.uint64(9))
            _, summaries = run_trials(self.CHART, 3, 2, np.uint64(2**63))
        assert reps == select_representatives(self.CHART, 3, 2**64 - 1)
        assert all(type(i) is int for i in reps)
        assert seed == trial_seed(2**64 - 1, 9) and type(seed) is int
        assert summaries == run_trials(self.CHART, 3, 2, 2**63)[1]

    def test_rnn_cluster_takes_numpy_indices_and_refuses_floats(self):
        result = rnn_cluster(self.CHART, np.array([1, 2]))
        assert result.representatives == (1, 2)
        assert all(type(i) is int for i in result.representatives)
        with pytest.raises(TypeError):
            rnn_cluster(self.CHART, [1.5, 2.9])

    def test_score_baseline_and_f1_take_a_numpy_m(self):
        best = score_baseline(self.CHART, np.int64(3))
        assert best.summary == score_baseline(self.CHART, 3).summary
        assert type(best.summary.f1) is float
        assert type(f1([5, 3, 2], np.int64(2))) is float

    @pytest.mark.parametrize(
        "call",
        [
            lambda c: trial_seed(7.0, 0),
            lambda c: trial_seed(7, 0.0),
            lambda c: select_representatives(c, 3, 7.0),
            lambda c: select_representatives(c, 3.0, 7),
            lambda c: run_trials(c, 3, 4, 7.0),
            lambda c: run_trials(c, 3, 4.0, 7),
            lambda c: run_trials(c, 3.0, 4, 7),
            lambda c: run_trials(c, 3, 4, 7, workers=1.0),
            lambda c: score_baseline(c, 3.0),
            lambda c: f1([5, 3, 2], 2.0),
        ],
        ids=[
            "trial_seed-master", "trial_seed-index", "select-seed", "select-m",
            "run-seed", "run-trials", "run-m", "run-workers", "baseline-m", "f1-m",
        ],
    )
    def test_float_arguments_are_refused(self, call):
        with pytest.raises(TypeError):
            call(self.CHART)
