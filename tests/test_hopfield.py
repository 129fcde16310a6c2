import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spcluster import hopfield, spchart
from spcluster.hopfield import (
    bipolar_from_binary,
    converge_many,
    hebbian_learn,
    sweep_bound,
)

from oracles import (
    REFERENCE_FIXED_POINTS,
    REFERENCE_PATTERNS,
    REFERENCE_WEIGHTS,
    all_states,
    converge,
    energy,
    enumerate_fixed_points,
    sweep,
)

REF_W = np.array(REFERENCE_WEIGHTS, dtype=np.int64)


def binary(states):
    """The 0/1 image of +-1 states, as ``converge_many`` takes and returns them."""
    return (np.asarray(states) + 1) // 2


# independent oracles, kept deliberately naive


def naive_hebbian(patterns):
    m, n = len(patterns), len(patterns[0])
    w = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            w[i][j] = sum((2 * p[i] - 1) * (2 * p[j] - 1) for p in patterns)
    return w

def naive_field(state, w, i):
    return sum(w[i][k] * state[k] for k in range(len(state)))

def local_field(state, w, i):
    """Weighted input sum at unit i: sum_k w[i, k] * x[k]."""
    return int(np.asarray(w)[i] @ np.asarray(state).astype(np.int64))

def brute_force_trajectory(state, w, max_updates=10_000):
    """Literal one-component-at-a-time updates until N in a row change nothing."""
    x = list(state)
    n = len(x)
    quiet = 0
    for t in range(max_updates):
        j = t % n
        new = 1 if naive_field(x, w, j) >= 0 else -1
        quiet = quiet + 1 if new == x[j] else 0
        x[j] = new
        if quiet == n:
            return tuple(x)
    raise AssertionError("brute-force trajectory did not settle")


class TestBipolar:
    def test_examples(self):
        assert bipolar_from_binary([0, 0, 0]).tolist() == [-1, -1, -1]
        assert bipolar_from_binary([1, 0, 1]).tolist() == [1, -1, 1]

    def test_round_trip_exhaustive(self):
        for n in range(1, 9):
            for bits in itertools.product((0, 1), repeat=n):
                assert tuple(binary(bipolar_from_binary(bits)).tolist()) == bits

    def test_rejects_bad_values(self):
        with pytest.raises(hopfield.NetworkError):
            bipolar_from_binary([0, 2])


ENTRY_VALUES = [
    np.array([0, 1]),
    np.array([0, 2]),
    np.array([-1, 1]),
    np.array([255, 1], dtype=np.uint8),
    np.array([0.0, 1.0]),
    np.array([-1.0, 1.0]),
    np.array([0.5, 1.0]),
    np.array([np.nan, 1.0]),
    np.array([True, False]),
    np.array([0, 1], dtype=object),
    np.array([-1, 1], dtype=object),
    np.array([0, "1"], dtype=object),
    np.array([None, 1], dtype=object),
    np.array(["0", "1"]),
    np.array([], dtype=float),
]


def accepts(check, values, error):
    try:
        check(values)
    except error:
        return False
    return True


@pytest.mark.parametrize("values", ENTRY_VALUES, ids=lambda v: f"{v.dtype}{v.tolist()}")
def test_entry_checks_accept_exactly_what_isin_accepts(values):
    """Binary checks accept the same arrays that np.isin does."""
    binary = bool(np.isin(values, (0, 1)).all())
    row = values.reshape(1, -1)
    assert accepts(bipolar_from_binary, values, hopfield.NetworkError) == binary
    assert accepts(hebbian_learn, row, hopfield.NetworkError) == binary
    assert accepts(
        lambda states: converge_many(states, np.zeros(states.shape, np.int8)), row, hopfield.NetworkError
    ) == binary
    ids = tuple(f"P{j + 1}" for j in range(values.size))
    assert accepts(
        lambda bits: spchart.SPChart(bits, ("S1",), ids), row, spchart.ChartError
    ) == (binary and values.size > 0)


class TestHebbianLearn:
    def test_reference_matrix_exact(self):
        w = hebbian_learn(np.array(REFERENCE_PATTERNS))
        assert np.array_equal(w, REF_W)

    def test_single_all_ones_pattern(self):
        w = hebbian_learn([[1, 1, 1]])
        assert np.array_equal(w, [[0, 1, 1], [1, 0, 1], [1, 1, 0]])

    def test_matches_naive_oracle(self):
        rng = np.random.default_rng(7)
        patterns = rng.integers(0, 2, size=(2, 6))
        assert hebbian_learn(patterns).tolist() == naive_hebbian(patterns.tolist())

    def test_structure_invariants(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            m = int(rng.integers(1, 7))
            n = int(rng.integers(2, 9))
            w = hebbian_learn(rng.integers(0, 2, size=(m, n)))
            assert np.array_equal(w, w.T)
            assert (np.diagonal(w) == 0).all()
            assert (np.abs(w) <= m).all()
            assert ((w[~np.eye(n, dtype=bool)] - m) % 2 == 0).all()

    def test_rejects_bad_input(self):
        with pytest.raises(hopfield.NetworkError, match="^patterns must be binary$"):
            hebbian_learn([[0, 2]])
        # M x 0 patterns are accepted; no pattern, or not a matrix, is not
        assert hebbian_learn(np.zeros((2, 0), dtype=int)).shape == (0, 0)
        shape_rule = "^patterns must form an M x N matrix with at least one pattern$"
        with pytest.raises(hopfield.NetworkError, match=shape_rule):
            hebbian_learn(np.zeros((0, 4), dtype=int))
        with pytest.raises(hopfield.NetworkError, match=shape_rule):
            hebbian_learn([0, 1, 1])


class TestLocalField:
    def test_zero_matrix(self):
        w = np.zeros((4, 4), dtype=int)
        state = bipolar_from_binary([1, 0, 1, 0])
        assert all(local_field(state, w, i) == 0 for i in range(4))

    def test_reference_fixed_point_field_signs(self):
        state = bipolar_from_binary(REFERENCE_FIXED_POINTS[2])
        for i in range(10):
            field = local_field(state, REF_W, i)
            assert (1 if field >= 0 else -1) == state[i]

    def test_matches_naive_oracle(self):
        rng = np.random.default_rng(3)
        w = rng.integers(-4, 5, size=(6, 6))
        state = rng.choice([-1, 1], size=6)
        for i in range(6):
            assert local_field(state, w, i) == naive_field(state.tolist(), w.tolist(), i)


class TestSweep:
    def test_fixed_point_unchanged(self):
        for point in REFERENCE_FIXED_POINTS:
            state = bipolar_from_binary(point)
            out, changed = sweep(state, REF_W)
            assert not changed
            assert np.array_equal(out, state)

    def test_hand_traced_two_units(self):
        w = np.array([[0, 1], [1, 0]])
        out, changed = sweep(np.array([-1, 1]), w)
        assert changed
        assert out.tolist() == [1, 1]

    def test_zero_matrix_forces_plus_one(self):
        out, _ = sweep(np.array([-1, -1, -1]), np.zeros((3, 3), dtype=int))
        assert out.tolist() == [1, 1, 1]

    def test_updates_see_earlier_changes(self):
        # unit 1 lands on +1 only because it sees unit 0's fresh flip; a
        # parallel update from the same start would leave it at -1
        w = np.array([[0, 1], [1, 0]])
        start = np.array([-1, 1])
        out, _ = sweep(start, w)
        assert out.tolist() == [1, 1]
        parallel = np.where(w @ start >= 0, 1, -1)
        assert parallel.tolist() == [1, -1]


def triangle(a, b):
    """Weights on three units whose largest row sum of |w| is a + b."""
    return np.array([[0, a, b], [a, 0, 1], [b, 1, 0]], dtype=np.int64)


class TestConverge:
    def test_reference_points_converge_in_one_sweep(self):
        for point in REFERENCE_FIXED_POINTS:
            res = converge(bipolar_from_binary(point), REF_W)
            assert res.sweeps_used == 1
            assert np.array_equal(res.fixed_point, bipolar_from_binary(point))

    def test_all_reference_states_converge(self):
        _, sweeps, _ = converge_many(binary(all_states(10)), REFERENCE_PATTERNS)
        assert (sweeps >= 1).all()
        assert (sweeps <= sweep_bound(REF_W)).all()

    def test_zero_matrix(self):
        res = converge(np.array([-1, 1, -1]), np.zeros((3, 3), dtype=int))
        assert res.fixed_point.tolist() == [1, 1, 1]
        assert res.sweeps_used == 2  # one changing sweep plus the confirming one

    def test_budget_exhaustion_is_loud(self, monkeypatch):
        # all +1 needs a flipping sweep and a confirming one, as unit 0's
        # field is 1 - n, so a budget of one sweep leaves it still changing;
        # two components take the state table, thirteen with one row the
        # column loop
        monkeypatch.setattr(hopfield, "sweep_bound", lambda *args: 1)
        for n in (2, 13):
            patterns = [[1] + [0] * (n - 1)]  # for n = 2 the network [[0, -1], [-1, 0]]
            with pytest.raises(hopfield.NetworkError):
                converge(np.ones(n, dtype=np.int8), hebbian_learn(patterns))
            with pytest.raises(hopfield.NetworkError):
                converge_many(np.ones((1, n), dtype=np.int8), patterns)

    def test_validates_weights(self):
        asymmetric = "^connection matrix must be symmetric off the diagonal$"
        diagonal = "^connection matrix must have a zero diagonal$"
        with pytest.raises(hopfield.NetworkError, match=asymmetric):
            converge(np.array([1, 1]), np.array([[0, 1], [2, 0]]))
        with pytest.raises(hopfield.NetworkError, match=diagonal):
            converge(np.array([1, 1]), np.array([[1, 0], [0, 1]]))
        with pytest.raises(hopfield.NetworkError):
            converge(np.array([1, -1]), np.array([[0.0, 0.5], [0.5, 0.0]]))

    def test_rejects_a_matrix_of_states(self):
        with pytest.raises(hopfield.NetworkError):
            converge(np.array([[1, -1]]), np.array([[0, 1], [1, 0]]))

    def test_fields_beyond_float64_are_refused(self):
        # row sums of |w| from 2^53 on are refused; just below, the
        # integer sweeps still relax every state
        for state in all_states(3):
            converge(state, triangle(2**52 - 1, 2**52))
        with pytest.raises(hopfield.NetworkError):
            converge(np.array([1, 1, 1]), triangle(2**52, 2**52))

    def test_reconverging_is_a_no_op(self):
        rng = np.random.default_rng(17)
        w = hebbian_learn(rng.integers(0, 2, size=(3, 8)))
        for _ in range(20):
            start = rng.choice([-1, 1], size=8)
            first = converge(start, w)
            second = converge(first.fixed_point, w)
            assert second.sweeps_used == 1
            assert np.array_equal(second.fixed_point, first.fixed_point)

    def test_converge_many_matches_converge(self):
        rng = np.random.default_rng(23)
        patterns = rng.integers(0, 2, size=(4, 9))
        w = hebbian_learn(patterns)
        starts = rng.choice([-1, 1], size=(40, 9))
        attractors, sweeps, labels = converge_many(binary(starts), patterns)
        for k in range(starts.shape[0]):
            res = converge(starts[k], w)
            assert np.array_equal(binary(res.fixed_point), attractors[labels[k]])
            assert res.sweeps_used == sweeps[k]


def repeated_rows(rng, n):
    """A batch drawn from a few distinct +-1 rows, so most rows repeat."""
    pool = rng.choice([-1, 1], size=(int(rng.integers(1, 6)), n))
    return pool[rng.integers(0, pool.shape[0], size=int(rng.integers(1, 16)))]


class TestConvergeManyAgainstScalar:
    """The batch kernel builds the Hebbian network itself, dedupes rows
    and uses float fields; the scalar ``converge`` under that network is
    the reference for every row."""

    @settings(deadline=None, max_examples=60)
    @given(st.integers(1, 8), st.integers(1, 70), st.integers(0, 2**32 - 1))
    @example(8, 70, 0)  # rows over 64 components are keyed by two words
    @example(8, 64, 0)
    @example(8, 129, 0)
    @example(8, 12, 0)  # the most components the state table always takes
    @example(8, 13, 0)  # the fewest the column loop takes for a few rows
    def test_hebbian_networks(self, m, n, seed):
        # the kernel takes and returns 0/1 rows; the oracle relaxes their +-1 images
        rng = np.random.default_rng(seed)
        patterns = rng.integers(0, 2, size=(m, n))
        states = repeated_rows(rng, n)
        w = hebbian_learn(patterns)
        expected = [converge(state, w) for state in states]
        attractors, sweeps, labels = converge_many(binary(states), patterns)
        for k, res in enumerate(expected):
            assert np.array_equal(attractors[labels[k]], binary(res.fixed_point))
            assert sweeps[k] == res.sweeps_used
        # so rows share a label exactly when they share a fixed point
        assert len(set(labels.tolist())) == len({res.fixed_point.tobytes() for res in expected})

    @settings(deadline=None, max_examples=60)
    @given(st.integers(1, 8), st.integers(1, 70), st.integers(0, 2**32 - 1))
    @example(8, 64, 0)
    @example(8, 129, 0)
    def test_precomputed_rows_change_nothing(self, m, n, seed):
        rng = np.random.default_rng(seed)
        patterns = rng.integers(0, 2, size=(m, n))
        states = binary(repeated_rows(rng, n))
        expected = converge_many(states, patterns)
        first, inverse = hopfield.distinct_rows(states)
        # the distinct rows may come in any order
        order = rng.permutation(first.size)
        rank = np.empty_like(order)
        rank[order] = np.arange(order.size)
        for rows in [(first, inverse), (first[order], rank[inverse])]:
            for got, want in zip(converge_many(states, patterns, rows), expected):
                assert got.dtype == want.dtype
                assert np.array_equal(got, want)
        # so may the input rows: the same attractors, sweeps and labels permuted
        perm = rng.permutation(len(states))
        attractors, sweeps, labels = converge_many(states[perm], patterns)
        assert np.array_equal(attractors, expected[0])
        assert np.array_equal(sweeps, expected[1][perm])
        assert np.array_equal(labels, expected[2][perm])

    # one pattern repeated m times: every |w_jk| is m, so each row sum of
    # |w| reaches the closed form's bound m (n - 1), here 2^23 - 8 and 2^23
    # over all 2^9 states (the state table), and 2^23 - 16 and 2^23 over a
    # few states of 17 components (the column loop)
    @pytest.mark.parametrize(
        "m, n, dtype",
        [
            (2**20 - 1, 9, np.float32),
            (2**20, 9, np.float64),
            (2**19 - 1, 17, np.float32),
            (2**19, 17, np.float64),
        ],
        ids=["2^23-8", "2^23", "2^23-16-columns", "2^23-columns"],
    )
    def test_field_dtype_follows_row_sums(self, monkeypatch, m, n, dtype):
        pattern = np.resize(np.array([1, 0, 1, 1, 0, 0, 1, 0, 1], dtype=np.int8), n)
        b = 2 * pattern.astype(np.int64) - 1
        w = m * np.outer(b, b)
        np.fill_diagonal(w, 0)
        states = all_states(n) if n == 9 else np.random.default_rng(n).choice([-1, 1], size=(40, n))
        expected = [converge(state, w) for state in states]
        dot, seen = np.dot, set()

        def spy(u, v, out=None):
            seen.add(u.dtype)
            return dot(u, v, out=out)

        monkeypatch.setattr(hopfield.np, "dot", spy)
        attractors, sweeps, labels = converge_many(binary(states), np.broadcast_to(pattern, (m, n)))
        assert seen == {np.dtype(dtype)}
        for k, res in enumerate(expected):
            assert np.array_equal(attractors[labels[k]], binary(res.fixed_point))
            assert sweeps[k] == res.sweeps_used

    # 2^N <= max(4R, 2^12) takes the state table: every batch up to 12
    # components, and a batch of 13 only from 2,048 distinct rows
    @pytest.mark.parametrize(
        "n, count, table", [(11, 5, True), (12, 5, True), (13, 2048, True), (13, 2047, False)]
    )
    def test_both_sides_of_the_state_table_rule(self, monkeypatch, n, count, table):
        rng = np.random.default_rng(n + count)
        patterns = rng.integers(0, 2, size=(4, n))
        states = all_states(n)[rng.permutation(2**n)[:count]]
        built, real = [], hopfield._state_table
        monkeypatch.setattr(hopfield, "_state_table", lambda *args: built.append(args) or real(*args))
        attractors, sweeps, labels = converge_many(binary(states), patterns)
        assert bool(built) == table
        w = hebbian_learn(patterns)
        for k, state in enumerate(states):
            res = converge(state, w)
            assert np.array_equal(attractors[labels[k]], binary(res.fixed_point))
            assert sweeps[k] == res.sweeps_used

    def test_rows_of_no_components_settle_in_one_sweep(self):
        states = np.empty((3, 0), dtype=np.int8)
        attractors, sweeps, labels = converge_many(states, states[:2])
        assert attractors.shape == (1, 0)
        assert sweeps.tolist() == [1, 1, 1]
        assert labels.tolist() == [0, 0, 0]

    def test_rows_that_do_not_group_the_states_are_refused(self):
        states = binary(all_states(3))
        patterns = [[1, 0, 1]]
        first, inverse = hopfield.distinct_rows(states)
        for rows in [(first, inverse[:-1]), (first[::-1], inverse)]:
            with pytest.raises(hopfield.NetworkError):
                converge_many(states, patterns, rows)

    def test_output_contract(self):
        patterns = [[1, 0, 1]]
        attractors, sweeps, labels = converge_many(np.empty((0, 3), dtype=np.int8), patterns)
        assert (attractors.shape, attractors.dtype) == ((0, 3), np.int8)
        assert (sweeps.shape, sweeps.dtype) == ((0,), np.int64)
        assert (labels.shape, labels.dtype) == ((0,), np.intp)
        for n in (3, 15):  # the state table, and for 100 rows of 15 the column loop
            attractors, _, _ = converge_many(binary(all_states(n)[:100]), [[1, 0, 1] * (n // 3)])
            assert attractors.dtype == np.int8
            with pytest.raises(ValueError):
                attractors[0, 0] = 1

    @pytest.mark.parametrize(
        "states, patterns",
        [
            (np.array([[1, -1]]), [[1, 0]]),  # a -1 entry: states are 0/1 rows
            (np.array([1, 0]), [[1, 0]]),  # one state, not a matrix of them
            (np.array([[1, 0, 1]]), [[1, 0]]),  # states wider than the patterns
            (np.array([[1, 0]]), [[1, 2]]),  # patterns that are not binary
            (np.array([[1, 0]]), [1, 0]),  # one pattern, not a matrix of them
        ],
    )
    def test_inputs_it_cannot_relax_exactly_are_refused(self, states, patterns):
        with pytest.raises(hopfield.NetworkError):
            converge_many(states, patterns)


def sign_key(row):
    """A 0/1 or +-1 row's key, sum_j 2^j [x_j = 1], as a Python int."""
    return sum(1 << j for j, v in enumerate(row.tolist()) if v == 1)


def assert_attractor_contract(states, patterns):
    """Row k of the +-1 ``states`` settles at ``attractors[labels[k]]``, the
    0/1 image of the scalar ``converge``'s fixed point; the labels use every
    attractor; the attractors are distinct, in strictly ascending key order,
    and no sweep changes them."""
    attractors, _, labels = converge_many(binary(states), patterns)
    w = hebbian_learn(patterns)
    for k, state in enumerate(states):
        assert np.array_equal(attractors[labels[k]], binary(converge(state, w).fixed_point))
    assert sorted(set(labels.tolist())) == list(range(len(attractors)))
    keys = [sign_key(a) for a in attractors]
    assert all(a < b for a, b in zip(keys, keys[1:]))
    assert len({a.tobytes() for a in attractors}) == len(attractors)
    assert not any(sweep(2 * a - 1, w)[1] for a in attractors)
    return attractors, labels


class TestAttractorsAndLabels:
    """``converge_many`` groups rows by attractor on both of its paths: by
    table index on the state table, by ``distinct_rows`` on the column loop."""

    @settings(deadline=None, max_examples=60)
    @given(st.integers(1, 8), st.integers(1, 70), st.integers(0, 2**32 - 1))
    @example(8, 12, 0)  # the state table
    @example(8, 13, 0)  # the column loop
    @example(8, 70, 0)  # the column loop, rows keyed by two words
    def test_contract(self, m, n, seed):
        rng = np.random.default_rng(seed)
        patterns = rng.integers(0, 2, size=(m, n))
        states = np.vstack((repeated_rows(rng, n), rng.choice([-1, 1], size=(20, n))))
        assert_attractor_contract(states[rng.permutation(len(states))], patterns)

    # one stored pattern of all ones: each field is the sum of the other
    # components, and every row settles at all +1 or all -1, table indices
    # 2^n - 1 and 0, so all -1 (all 0) comes first; the rows run from all +1 down by
    # an odd stride, so fewer than 2^n rows still spread over every state.
    # Up to 12 components and from 2^11 rows of 13 they take the state table,
    # and 2^11 - 1 rows of 13 the column loop
    @pytest.mark.parametrize(
        "n, count", [(11, 2**11), (12, 2**12), (12, 2**12 - 1), (13, 2**11), (13, 2**11 - 1)]
    )
    def test_many_rows_share_an_attractor(self, n, count):
        states = all_states(n)[::-1][np.arange(count) * 5 % (1 << n)]
        attractors, labels = assert_attractor_contract(states, [[1] * n])
        assert attractors.tolist() == [[0] * n, [1] * n]
        assert (np.bincount(labels) > count // 3).all()

    def test_many_wide_rows_share_an_attractor(self):
        states = np.random.default_rng(70).choice([-1, 1], size=(300, 70))
        attractors, labels = assert_attractor_contract(states, [[1] * 70])
        assert sorted(attractors.sum(axis=1).tolist()) == [0, 70]
        assert (np.bincount(labels) > 100).all()


def assert_groups_as_unique_rows_do(states):
    first, inverse = hopfield.distinct_rows(states)
    _, ref_first, ref_inverse = np.unique(states, axis=0, return_index=True, return_inverse=True)
    # the same first occurrences, in ascending key order, and the same grouping
    assert np.array_equal(np.sort(first), np.sort(ref_first))
    keys = [sign_key(row) for row in states[first]]
    assert all(a < b for a, b in zip(keys, keys[1:]))
    assert np.array_equal(first[inverse], ref_first[ref_inverse.ravel()])


class TestDistinctRows:
    """Rows are keyed by words of up to 64 components; whole-row
    ``np.unique`` is the reference."""

    @pytest.mark.parametrize("n", [1, 8, 9, 16, 17, 62, 63, 64, 65, 127, 128, 129, 200])
    def test_groups_as_unique_rows_do(self, n):
        rng = np.random.default_rng(n)
        pool = list(rng.choice([-1, 1], size=(4, n)))
        pool[0][:], pool[1][:] = 1, -1  # every word's key sets every bit of its type, or none
        pool[3] = pool[2].copy()
        pool[3][-1] *= -1  # rows differing only in the last component, its word's top bit
        for top in range(63, n, 64):  # and in the top component of each full word
            pool.append(rng.choice([-1, 1], size=n))
            pool.append(pool[-1].copy())
            pool[-1][top] *= -1
        pool = np.array(pool)
        # every pool row occurs, most of them many times
        states = pool[rng.permutation(np.resize(np.arange(len(pool)), 300))]
        assert_groups_as_unique_rows_do(states)

    @settings(deadline=None, max_examples=200)
    @given(st.integers(1, 200), st.integers(0, 300), st.integers(0, 2**32 - 1))
    def test_random_batches_group_as_unique_rows_do(self, n, r, seed):
        rng = np.random.default_rng(seed)
        # a small pool of rows a few flips apart, so that rows repeat and
        # distinct rows may differ in a single word
        pool = np.tile(rng.choice([-1, 1], size=n), (int(rng.integers(1, 8)), 1))
        flips = rng.integers(0, n, size=(len(pool), 2))
        pool[np.arange(len(pool))[:, None], flips] *= -1
        assert_groups_as_unique_rows_do(pool[rng.integers(0, len(pool), size=r)])

    @pytest.mark.parametrize("n", [10, 130])
    def test_no_rows(self, n):
        states = np.empty((0, n), dtype=np.int8)
        first, inverse = hopfield.distinct_rows(states)
        assert (first.shape, inverse.shape) == ((0,), (0,))
        attractors, sweeps, labels = converge_many(states, np.ones((2, n), dtype=np.int8))
        assert (attractors.shape, sweeps.shape, labels.shape) == ((0, n), (0,), (0,))

    def test_rows_of_no_components_are_one_group(self):
        first, inverse = hopfield.distinct_rows(np.empty((3, 0), dtype=np.int8))
        assert first.tolist() == [0]
        assert inverse.tolist() == [0, 0, 0]


def assert_within_bound(w):
    bound = sweep_bound(w)
    assert all(converge(s, w).sweeps_used <= bound for s in all_states(w.shape[0]))


class TestSweepBound:
    """Relaxation from every start settles within ``sweep_bound(w)``."""

    @settings(deadline=None, max_examples=30)
    @given(st.integers(1, 8), st.integers(1, 10), st.integers(0, 2**32 - 1))
    def test_hebbian_networks(self, m, n, seed):
        rng = np.random.default_rng(seed)
        patterns = rng.integers(0, 2, size=(m, n))
        w = hebbian_learn(patterns)
        assert_within_bound(w)
        _, sweeps, _ = converge_many(binary(all_states(n)), patterns)
        assert (sweeps <= sweep_bound(w)).all()

    @settings(deadline=None, max_examples=30)
    @given(st.integers(1, 10), st.integers(1, 5), st.integers(0, 2**32 - 1))
    def test_symmetric_integer_networks(self, n, scale, seed):
        rng = np.random.default_rng(seed)
        upper = np.triu(rng.integers(-scale, scale + 1, size=(n, n)), 1)
        assert_within_bound(upper + upper.T)

    def test_bound_is_reached(self):
        w = np.zeros((1, 1), dtype=int)
        assert sweep_bound(w) == 2
        assert converge(np.array([-1]), w).sweeps_used == 2
        assert converge_many(np.array([[0]]), [[1]])[1].tolist() == [2]  # w = [[0]]


class TestEnergy:
    def test_zero_matrix(self):
        assert energy(np.array([1, -1, 1]), np.zeros((3, 3), dtype=int)) == 0.0

    def test_hand_evaluated(self):
        assert energy(np.array([1, 1]), np.array([[0, 1], [1, 0]])) == -1.0

    def test_non_increasing_along_trajectories(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            n = int(rng.integers(2, 8))
            a = rng.integers(-3, 4, size=(n, n))
            w = a + a.T
            np.fill_diagonal(w, 0)
            x = rng.choice([-1, 1], size=n).astype(np.int64)
            for _ in range(4 * n):
                for j in range(n):
                    before = energy(x, w)
                    x[j] = 1 if w[j] @ x >= 0 else -1
                    assert energy(x, w) <= before


class TestEnumerateFixedPoints:
    def test_reference_network_has_exactly_four(self):
        points = enumerate_fixed_points(REF_W)
        found = {tuple(binary(p).tolist()) for p in points}
        assert found == set(REFERENCE_FIXED_POINTS)

    def test_zero_matrix(self):
        points = enumerate_fixed_points(np.zeros((5, 5), dtype=int))
        assert len(points) == 1
        assert points[0].tolist() == [1, 1, 1, 1, 1]

    def test_single_stored_pattern_is_fixed(self):
        rng = np.random.default_rng(29)
        for _ in range(10):
            n = int(rng.integers(2, 10))
            pattern = rng.integers(0, 2, size=(1, n))
            w = hebbian_learn(pattern)
            found = {tuple(p.tolist()) for p in enumerate_fixed_points(w)}
            assert tuple(bipolar_from_binary(pattern[0]).tolist()) in found

    def test_complement_of_nonzero_field_fixed_point_is_fixed(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            w = hebbian_learn(rng.integers(0, 2, size=(3, 7)))
            fixed = {tuple(p.tolist()) for p in enumerate_fixed_points(w)}
            for p in fixed:
                fields = np.array(p) @ w
                if (fields != 0).all():
                    assert tuple((-np.array(p)).tolist()) in fixed


def basin_map(patterns):
    """Every state of ``all_states`` mapped to the terminal state
    ``converge_many`` relaxes it to under the patterns' network, as
    bipolar tuples."""
    states = all_states(len(patterns[0]))
    attractors, _, labels = converge_many(binary(states), patterns)
    return dict(zip(map(tuple, states.tolist()), map(tuple, (2 * attractors[labels] - 1).tolist())))


class TestBasinMap:
    def test_fixed_points_map_to_themselves(self):
        mapping = basin_map(REFERENCE_PATTERNS)
        for p in enumerate_fixed_points(REF_W):
            key = tuple(p.tolist())
            assert mapping[key] == key

    def test_reference_partition(self):
        mapping = basin_map(REFERENCE_PATTERNS)
        assert len(mapping) == 1024
        images = set(mapping.values())
        binary_images = {tuple(binary(v).tolist()) for v in images}
        assert binary_images == set(REFERENCE_FIXED_POINTS)

    def test_matches_brute_force_trajectories(self):
        rng = np.random.default_rng(37)
        patterns = rng.integers(0, 2, size=(3, 8))
        w = hebbian_learn(patterns)
        mapping = basin_map(patterns)
        for state in all_states(8)[:: 7]:  # spot-check a spread of states
            expected = brute_force_trajectory(state.tolist(), w.tolist())
            assert mapping[tuple(state.tolist())] == expected
