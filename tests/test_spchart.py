import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spcluster import spchart
from spcluster.spchart import (
    ChartType,
    EmptyInput,
    LengthMismatch,
    NonBinaryCell,
    RaggedRows,
    SPChart,
)


def chart_of(rows, student_ids=None, problem_ids=None):
    bits = np.array(rows, dtype=np.int8)
    if student_ids is None:
        student_ids = tuple(f"S{i+1}" for i in range(bits.shape[0]))
    if problem_ids is None:
        problem_ids = tuple(f"P{j+1}" for j in range(bits.shape[1]))
    return SPChart(bits, tuple(student_ids), tuple(problem_ids))


@st.composite
def charts_of_width(draw, n, max_students=12):
    L = draw(st.integers(1, max_students))
    rows = draw(
        st.lists(st.lists(st.integers(0, 1), min_size=n, max_size=n), min_size=L, max_size=L)
    )
    return chart_of(rows)


@st.composite
def charts(draw, max_students=12, max_problems=10):
    return draw(charts_of_width(draw(st.integers(1, max_problems)), max_students))


class TestParse:
    def test_minimal_unlabeled(self):
        chart = spchart.parse_chart("1,0\n0,1")
        assert np.array_equal(chart.bits, [[1, 0], [0, 1]])
        assert chart.student_ids == ("S1", "S2")
        assert chart.problem_ids == ("P1", "P2")

    def test_labeled(self):
        chart = spchart.parse_chart("P1,P2\nS1,1,1\nS2,0,0")
        assert np.array_equal(chart.bits, [[1, 1], [0, 0]])
        assert chart.student_ids == ("S1", "S2")
        assert chart.problem_ids == ("P1", "P2")

    def test_non_binary_cell(self):
        with pytest.raises(NonBinaryCell) as exc:
            spchart.parse_chart("1,2\n0,1")
        assert (exc.value.row, exc.value.col) == (1, 2)

    def test_non_binary_cell_with_header_and_labels(self):
        with pytest.raises(NonBinaryCell) as exc:
            spchart.parse_chart("P1,P2\nS1,1,3\nS2,0,0")
        assert (exc.value.row, exc.value.col) == (2, 3)

    def test_header_only(self):
        chart = spchart.parse_chart("q1,q2,q3\n1,0,1")
        assert chart.problem_ids == ("q1", "q2", "q3")
        assert chart.student_ids == ("S1",)

    def test_labels_only(self):
        chart = spchart.parse_chart("alice,1,0\nbob,0,0")
        assert chart.student_ids == ("alice", "bob")
        assert np.array_equal(chart.bits, [[1, 0], [0, 0]])

    def test_header_with_corner_cell(self):
        chart = spchart.parse_chart("id,P1,P2\nS1,1,0\nS2,0,1")
        assert chart.problem_ids == ("P1", "P2")
        assert chart.student_ids == ("S1", "S2")

    def test_ragged(self):
        with pytest.raises(RaggedRows) as exc:
            spchart.parse_chart("1,0\n0,1,1")
        assert (exc.value.expected, exc.value.found) == (2, 3)

    def test_ragged_header(self):
        with pytest.raises(RaggedRows):
            spchart.parse_chart("P1,P2,P3,P4\nS1,1,0")

    def test_empty(self):
        with pytest.raises(EmptyInput):
            spchart.parse_chart("")
        with pytest.raises(EmptyInput):
            spchart.parse_chart("\n\n")
        with pytest.raises(EmptyInput):
            spchart.parse_chart("P1,P2\n")

    def test_bytes_and_whitespace(self):
        chart = spchart.parse_chart(b" 1 , 0 \n 0 , 1 \n")
        assert np.array_equal(chart.bits, [[1, 0], [0, 1]])

    def test_bad_utf8(self):
        with pytest.raises(spchart.ChartError):
            spchart.parse_chart(b"\xff\xfe1,0")

    def test_duplicate_student_ids_rejected(self):
        with pytest.raises(spchart.ChartError):
            spchart.parse_chart("S1,1,0\nS1,0,1")

    def test_round_trip_through_csv(self):
        chart = spchart.parse_chart("P1,P2\nS1,1,1\nS2,0,0")
        text = spchart.chart_to_csv(chart)
        again = spchart.parse_chart(text)
        assert again == chart
        assert spchart.chart_to_csv(again) == text

    @settings(deadline=None)
    @given(charts())
    def test_round_trip_any_chart(self, chart):
        assert spchart.parse_chart(spchart.chart_to_csv(chart)) == chart


class TestRearrange:
    def test_all_ones_is_identity(self):
        rc = spchart.rearrange(chart_of([[1, 1], [1, 1]]))
        assert rc.row_perm == (0, 1)
        assert rc.col_perm == (0, 1)
        assert np.array_equal(rc.chart.bits, [[1, 1], [1, 1]])

    def test_two_by_two(self):
        # hand-applied sort: S = (1, 2) so rows swap; P = (1, 2) so columns swap
        rc = spchart.rearrange(chart_of([[0, 1], [1, 1]]))
        assert rc.chart.student_ids == ("S2", "S1")
        assert rc.chart.problem_ids == ("P2", "P1")
        assert np.array_equal(rc.chart.bits, [[1, 1], [1, 0]])
        assert rc.s_totals == (2, 1)
        assert rc.p_totals == (2, 1)

    def test_perms_reproduce_chart(self):
        chart = chart_of([[0, 1, 1], [1, 0, 0], [1, 1, 1]])
        rc = spchart.rearrange(chart)
        rebuilt = chart.bits[list(rc.row_perm)][:, list(rc.col_perm)]
        assert np.array_equal(rebuilt, rc.chart.bits)

    @settings(deadline=None)
    @given(charts())
    def test_idempotent(self, chart):
        rc = spchart.rearrange(chart)
        again = spchart.rearrange(rc.chart)
        assert again.row_perm == tuple(range(chart.num_students))
        assert again.col_perm == tuple(range(chart.num_problems))

    @settings(deadline=None)
    @given(charts())
    def test_preserves_multisets_and_total(self, chart):
        rc = spchart.rearrange(chart)
        # undoing both permutations restores the original matrix exactly
        restored = rc.chart.bits[np.argsort(rc.row_perm)][:, np.argsort(rc.col_perm)]
        assert np.array_equal(restored, chart.bits)
        # with columns restored, the rows are the same multiset
        rows_back = rc.chart.bits[:, np.argsort(rc.col_perm)]
        assert sorted(map(tuple, chart.bits.tolist())) == sorted(
            map(tuple, rows_back.tolist())
        )
        cols_back = rc.chart.bits[np.argsort(rc.row_perm)]
        assert sorted(map(tuple, chart.bits.T.tolist())) == sorted(
            map(tuple, cols_back.T.tolist())
        )
        assert chart.bits.sum() == rc.chart.bits.sum()
        assert list(rc.s_totals) == sorted(rc.s_totals, reverse=True)
        assert list(rc.p_totals) == sorted(rc.p_totals, reverse=True)


class TestCurves:
    def test_all_correct(self):
        s_curve, p_curve = spchart.curves(spchart.rearrange(chart_of([[1, 1], [1, 1]])))
        assert s_curve == [(1, 2), (2, 2)]
        assert p_curve == [(2, 1), (2, 2)]

    def test_all_wrong(self):
        s_curve, p_curve = spchart.curves(spchart.rearrange(chart_of([[0, 0]])))
        assert s_curve == [(1, 0)]
        assert p_curve == [(0, 1), (0, 2)]

    def test_hand_counted(self):
        rc = spchart.rearrange(chart_of([[0, 1], [1, 1]]))
        s_curve, p_curve = spchart.curves(rc)
        assert s_curve == [(1, 2), (2, 1)]
        assert p_curve == [(2, 1), (1, 2)]


class TestClassify:
    def test_half_rate_is_test(self):
        assert spchart.classify_type(chart_of([[1, 0], [0, 1]])) is ChartType.TEST

    def test_extremes(self):
        assert spchart.classify_type(chart_of([[1, 1], [1, 1]])) is ChartType.DRILL
        assert spchart.classify_type(chart_of([[0, 0], [0, 0]])) is ChartType.PRETEST

    def test_boundaries_inclusive(self):
        drill = chart_of([[1] * 13 + [0] * 7])  # mean exactly 0.65
        pretest = chart_of([[1] * 7 + [0] * 13])  # mean exactly 0.35
        assert spchart.classify_type(drill) is ChartType.DRILL
        assert spchart.classify_type(pretest) is ChartType.PRETEST

    def test_custom_thresholds(self):
        chart = chart_of([[1, 1], [1, 0]])  # mean 0.75
        assert spchart.classify_type(chart, drill_threshold=0.8) is ChartType.TEST


REFERENCE_ROWS = [
    [1, 0, 1, 0, 0, 0, 0, 1, 1, 1],
    [0, 0, 0, 1, 1, 0, 1, 0, 1, 0],
    [0, 1, 0, 1, 1, 1, 1, 1, 1, 1],
    [0, 0, 1, 0, 0, 1, 0, 0, 0, 0],
]


class TestRatesAndCaution:
    def test_constant_columns(self):
        assert spchart.correct_rates(chart_of([[1, 0], [1, 0]])).tolist() == [1.0, 0.0]

    def test_symmetric(self):
        assert spchart.correct_rates(chart_of([[1, 0], [0, 1]])).tolist() == [0.5, 0.5]

    def test_reference_rows_rates(self):
        # hand column sums over the four rows, divided by 4
        rates = spchart.correct_rates(chart_of(REFERENCE_ROWS))
        assert rates.tolist() == [0.25, 0.25, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.75, 0.5]

    def test_homogeneous_cluster_gives_zero(self):
        chart = chart_of([[1, 0, 1]] * 5)
        rates = spchart.correct_rates(chart)
        for row in chart.bits:
            assert spchart.caution_index(row, rates) == 0.0
        assert spchart.average_caution(chart) == 0.0

    def test_hand_evaluated(self):
        assert spchart.caution_index([1, 0], [0.5, 0.5]) == 0.5

    def test_average_caution_two_by_two(self):
        assert spchart.average_caution(chart_of([[1, 0], [0, 1]])) == 0.5

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            spchart.caution_index([1, 0, 1], [0.5, 0.5])

    @settings(deadline=None)
    @given(charts())
    def test_bounds(self, chart):
        rates = spchart.correct_rates(chart)
        for row in chart.bits:
            assert 0.0 <= spchart.caution_index(row, rates) <= 1.0
        assert 0.0 <= spchart.average_caution(chart) <= 1.0

    @settings(deadline=None)
    @given(st.integers(1, 10), st.data())
    def test_counts_match_per_student_definition(self, n, data):
        groups = data.draw(st.lists(charts_of_width(n), min_size=1, max_size=4))
        counts = [g.bits.sum(axis=0) for g in groups]
        gammas = spchart.caution_from_counts(counts, [g.num_students for g in groups])
        for gamma, g in zip(gammas, groups):
            rates = spchart.correct_rates(g)
            expected = np.mean([spchart.caution_index(row, rates) for row in g.bits])
            assert abs(gamma - expected) <= 1e-12

    @settings(deadline=None)
    @given(st.lists(st.integers(0, 1), min_size=1, max_size=16), st.data())
    def test_binary_rates_reduce_to_hamming(self, row, data):
        rates = data.draw(
            st.lists(st.integers(0, 1), min_size=len(row), max_size=len(row))
        )
        expected = sum(a != b for a, b in zip(row, rates)) / len(row)
        assert spchart.caution_index(row, [float(r) for r in rates]) == pytest.approx(expected)


class TestTypesValidation:
    def test_chart_rejects_non_binary(self):
        with pytest.raises(spchart.ChartError):
            chart_of([[0, 2]])

    def test_chart_rejects_fractional_values(self):
        with pytest.raises(spchart.ChartError):
            SPChart(np.array([[0.5, 1.0]]), ("S1",), ("P1", "P2"))

    def test_chart_is_immutable(self):
        chart = chart_of([[1, 0]])
        with pytest.raises(ValueError):
            chart.bits[0, 0] = 0

    def test_take_rows(self):
        chart = chart_of([[1, 0], [0, 1], [1, 1]])
        sub = spchart.take_rows(chart, [2, 0])
        assert sub.student_ids == ("S3", "S1")
        assert np.array_equal(sub.bits, [[1, 1], [1, 0]])
