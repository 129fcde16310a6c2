import csv
import io
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spcluster import clustering, report, spchart
from spcluster.datagen import GenSpec, generate_chart
from spcluster.spchart import ChartError, ChartType, SPChart

from oracles import caution_index, correct_rates


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


def reference_parse(data):
    """Per-cell parser: the oracle ``parse_chart`` is checked against.  Its
    refusals are ``ChartError``s whose messages it words itself."""
    if isinstance(data, bytes):
        try:
            data = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ChartError("input is not valid UTF-8: " + str(exc)) from exc
    data = data.removeprefix("\ufeff")
    reader = csv.reader(io.StringIO(data, newline=""))
    try:
        records = list(reader)
    except csv.Error as exc:
        raise ChartError("unreadable CSV at line %d: %s" % (reader.line_num, exc)) from exc
    rows = [
        [cell.strip() for cell in record]
        for record in records
        if record and any(cell.strip() for cell in record)
    ]
    no_data = ChartError("input contains no data rows")
    if not rows:
        raise no_data
    has_header = any(not spchart._is_numeric(tok) for tok in rows[0][1:])
    data_rows = rows[1:] if has_header else rows
    if not data_rows:
        raise no_data
    has_labels = any(not spchart._is_numeric(r[0]) for r in data_rows if r)
    width = len(data_rows[0]) - (1 if has_labels else 0)
    if width < 1:
        raise no_data

    def ragged(row, found):
        counts = (row, width, found)
        return ChartError("ragged rows at row %d: expected %d cells, found %d" % counts)

    student_ids = [] if has_labels else None
    bits = np.zeros((len(data_rows), width), dtype=np.int8)
    row_offset = 2 if has_header else 1
    col_offset = 2 if has_labels else 1
    for r, record in enumerate(data_rows):
        cells = record[1:] if has_labels else record
        if len(cells) != width:
            raise ragged(r + row_offset, len(cells))
        if has_labels:
            student_ids.append(record[0])
        for c, tok in enumerate(cells):
            if tok == "0":
                continue
            if tok == "1":
                bits[r, c] = 1
            else:
                shown = " " + repr(tok) if tok else ""
                where = (shown, r + row_offset, c + col_offset)
                raise ChartError("non-binary cell%s at row %d, column %d" % where)
    problem_ids = None
    if has_header:
        header = rows[0]
        if has_labels and len(header) == width + 1:
            header = header[1:]
        if len(header) != width:
            raise ragged(1, len(header))
        problem_ids = header
    return spchart._make_chart(bits, student_ids, problem_ids)


# "\x1c" is whitespace to str.strip but not to float(); "\x0b", "\x0c",
# "\x1c", "\x85" and "\u2028" end a line for str.splitlines but not for
# csv.reader
PAD = st.sampled_from(
    ["", "", "", " ", "  ", "\t", "\u3000", "\x1c", "\x0b", "\x0c", "\x85", "\u2028"]
)
GOOD = st.sampled_from(["0", "1"])
BAD = st.sampled_from(["2", "10", "", "1 1", "01", "x", "é", "\uff11", "-1", "1.0", "\x00"])
LABEL = st.sampled_from(
    ["S1", "S2", "id", "Ålice", "学生", "a,b", 'q"1', "3", "", "  ", "x y",
     "a\x85b", "c\u2028d", "e\x0bf", "\x0c", "n\x00l"]
)


def quoted(cell):
    return '"' + cell.replace('"', '""') + '"'


@st.composite
def csv_texts(draw):
    """CSV text near the accepted layouts: optional header and label
    column, padded and quoted cells, blank rows, and a few bad tokens and
    ragged rows."""
    width = draw(st.integers(1, 4))
    header = draw(st.booleans())
    labels = draw(st.booleans())
    lines = []

    def cell(strategy):
        text = draw(PAD) + draw(strategy) + draw(PAD)
        return quoted(text) if draw(st.integers(0, 5)) == 0 or "," in text else text

    if header:
        corner = [cell(LABEL)] if labels and draw(st.booleans()) else []
        lines.append(corner + [cell(LABEL) for _ in range(width)])
    for _ in range(draw(st.integers(0, 5))):
        row = [cell(LABEL)] if labels else []
        row += [cell(BAD if draw(st.integers(0, 9)) == 0 else GOOD) for _ in range(width)]
        ragged = draw(st.integers(-1, 1)) if draw(st.integers(0, 7)) == 0 else 0
        lines.append(row[: len(row) + ragged] if ragged < 0 else row + [cell(GOOD)] * ragged)
    for _ in range(draw(st.integers(0, 2))):
        at = draw(st.integers(0, len(lines)))
        blank = [[""], [" "], ["", ""], ["", "", ""], [" ", " "], [" \t", ""], ["\x85", "\u3000"]]
        lines.insert(at, draw(st.sampled_from(blank)))
    newline = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    bom = draw(st.sampled_from(["", "", "", "\ufeff", "\ufeff\ufeff"]))
    end = draw(st.sampled_from(["", newline]))
    return bom + newline.join(",".join(line) for line in lines) + end


def parse_outcome(parse, text):
    """What a parser makes of ``text``: the chart, or the error it raises
    and its message, which names the row and column concerned."""
    try:
        return parse(text)
    except ChartError as exc:
        return type(exc), str(exc)


class TestParseAgainstReference:
    @settings(deadline=None, max_examples=400)
    @given(csv_texts())
    def test_near_valid_csv(self, text):
        expected = parse_outcome(reference_parse, text)
        assert parse_outcome(spchart.parse_chart, text) == expected
        assert parse_outcome(spchart.parse_chart, text.encode()) == expected

    @settings(deadline=None, max_examples=300)
    @given(st.text(alphabet='01,\n "\tab2é\r\x00\x0b\x85\u2028', max_size=40))
    def test_any_text(self, text):
        expected = parse_outcome(reference_parse, text)
        assert parse_outcome(spchart.parse_chart, text) == expected
        assert parse_outcome(spchart.parse_chart, text.encode()) == expected

    @pytest.mark.parametrize(
        "text",
        [
            "id,P1,P2\nS1,0,1\nS2,1,0,1\n",  # a row with one cell too many before its data
            "S1,0,1\n0,1\n",  # a line shorter than its label and data
            "0,1\n1,0,1\n",
            "0,1\n1\n",
            "x,0,1\n,0,1\n",  # an empty label
            "0,1\n\n , \n,,\n1,0",  # blank rows and no final newline
            'id,P1,P2\nS1,0,1\nS2,"0,1"\n',  # a quoted comma in place of two cells
            'id,P1\nS1,"0\n1"\n',  # a quoted line end in place of two rows
            "a\x85b,1\nc\u2028d,0\ne\x0bf,1\n\x0c,0\n",
            "id,P1,P2\nS1,0,1\nS2,1,0",  # no final newline
            "\ufeffid,P1\nS1,1\nS2,0\n",  # a byte order mark, which bytes input holds as 3 bytes
            "\xa0S1,0,1\nS2\u3000,1,0\n\u00e9,1,1\nS4\u00e9,0,0\n\u3000\xa0,1,0\n\u00e9\xa0x,0,1\n",
            "0,1,1\n1,0,1\n1,1,1\n",  # a bare chart: no header and no label column
            "S1,0,1\n\u3000\xa0\n\u2028,\u3000\nS2,1,0\n\x85\n",  # blank lines of non-ASCII spaces
            "S1,0,1\nS2,1,0\n\u3000,\n",
            "id,P1,P2\r\nS1, 0,1\r\nS2,1,0\r\n",  # CRLF with a padded cell
            "id,P1,P2\r\nS1,0,1\r\nS2,1,2\r\n",  # CRLF with a bad cell
            "S1,0,1\r\r\n\r , \rS2,1,0\r\r",  # blank lines ended by CR
            "id,P1,P2\r\n",  # a CRLF header-only file
            "id,P1\nS1,1\rS2,0\r\nS3,1\n\rS4,0",  # mixed line ends
        ],
    )
    def test_edge_cases(self, text):
        expected = parse_outcome(reference_parse, text)
        assert parse_outcome(spchart.parse_chart, text) == expected
        assert parse_outcome(spchart.parse_chart, text.encode()) == expected

    def test_lone_surrogates(self):
        # a str may hold what UTF-8 cannot encode; csv.reader reads it as any other character
        for text in ["S\ud800,1\nS2,0\n", "S1,\udfff\nS2,0\n", "id,P\ud800\nS1,1\n"]:
            assert parse_outcome(spchart.parse_chart, text) == parse_outcome(reference_parse, text)

    def test_field_size_limit(self):
        limit = csv.field_size_limit()
        over = [
            "id,P1\nS1," + "1" * (limit + 1) + "\n",  # an over-long data cell
            "id,P1\n" + "S" * (limit + 1) + ",1\n",  # an over-long label
        ]
        at_limit = [
            "id,P1\n" + "S" * limit + ",1\n",
            ",".join("1" * (limit // 2 + 1)),  # a line over the limit, of short cells
            "id,P1\n" + "\u00e9" * (limit // 2 + 1) + ",1\n",  # over the limit in bytes only
        ]
        for text in over:
            expected = parse_outcome(reference_parse, text)
            reason = f"field larger than field limit ({limit})"
            assert expected[1] == f"unreadable CSV at line 2: {reason}"
            assert parse_outcome(spchart.parse_chart, text) == expected
            assert parse_outcome(spchart.parse_chart, text.encode()) == expected
        for text in at_limit:
            assert spchart.parse_chart(text) == reference_parse(text)
            assert spchart.parse_chart(text.encode()) == reference_parse(text)

    def test_blank_rows_are_commas_and_str_isspace_whitespace(self, monkeypatch):
        calls = []
        real = spchart._parse_records
        monkeypatch.setattr(spchart, "_parse_records", lambda t: calls.append(t) or real(t))
        chart = chart_of([[0, 1], [1, 0], [1, 1]])
        whitespace = [c for c in map(chr, range(sys.maxunicode + 1)) if c.isspace()]
        for first, reads in (("S1", 0), ('"S1"', 2)):  # the byte path, then csv.reader
            for c in whitespace:
                calls.clear()
                text = f"id,P1,P2\n{first},0,1\n{c}\nS2,1,0\n{c},{c}\nS3,1,1\n"
                for data in (text, text.encode()):
                    assert spchart.parse_chart(data) == reference_parse(data) == chart, repr(c)
                assert len(calls) == reads, repr(c)
            # U+200B ZERO WIDTH SPACE is not whitespace to str.isspace, so its row is data
            text = f"id,P1,P2\n{first},0,1\n\u200b\nS2,1,0\n\u200b,\u200b\nS3,1,1\n"
            for data in (text, text.encode()):
                expected = parse_outcome(reference_parse, data)
                assert expected[1] == "ragged rows at row 3: expected 2 cells, found 0"
                assert parse_outcome(spchart.parse_chart, data) == expected

    def test_csv_reader_reads_only_quoted_and_nul_input(self, monkeypatch):
        calls = []
        real = spchart._parse_records
        monkeypatch.setattr(spchart, "_parse_records", lambda t: calls.append(t) or real(t))
        for kind in ChartType:
            text = spchart.chart_to_csv(generate_chart(GenSpec(kind, 40, 6, seed=3)))
            chart = spchart.parse_chart(text)
            for other in (text.replace("\n", "\r\n"), text.replace("\n", "\r")):
                assert spchart.parse_chart(other) == chart
                assert spchart.parse_chart(other.encode()) == chart
            assert calls == []
            for other in (text.replace("S1,", '"S1",'), text + "\x00\n"):
                outcome = parse_outcome(spchart.parse_chart, other)
                assert calls.pop() == other
                assert outcome == parse_outcome(reference_parse, other)

    def test_padded_cells_are_not_decoded_line_by_line(self, monkeypatch):
        # every line ends in a space, which only a header line may: the byte
        # path gives up at the first data line instead of decoding them all
        text = spchart.chart_to_csv(generate_chart(GenSpec(ChartType.TEST, 40, 6, seed=9)))
        padded = "".join(f" {line.replace(',', ' , ')} \n" for line in text.splitlines())
        chart = spchart.parse_chart(text)
        calls, records = [], []
        real, real_records = spchart._line, spchart._parse_records
        monkeypatch.setattr(spchart, "_line", lambda *args: calls.append(args) or real(*args))
        monkeypatch.setattr(spchart, "_parse_records", lambda t: records.append(t) or real_records(t))
        for data in (padded, padded.encode()):
            calls.clear()
            assert spchart.parse_chart(data) == reference_parse(data) == chart
            assert len(calls) <= 2
        # the header, the first line, may end in a space and be read on bytes
        records.clear()
        header, _, body = text.partition("\n")
        assert spchart.parse_chart(f"{header} \n{body}") == chart
        assert records == []

    def test_padded_first_record_skips_the_bare_attempt(self, monkeypatch):
        # a padded cell in the first data record means the cells must be
        # stripped before they are read as bits; a later one is found by
        # the bare attempt failing
        text = spchart.chart_to_csv(generate_chart(GenSpec(ChartType.TEST, 40, 6, seed=9)))
        lines = text.splitlines()
        padded = "".join(f"{line.replace(',', ' , ')}\n" for line in lines)
        late = "\n".join(lines[:3] + [lines[3].replace(",", " ,")] + lines[4:]) + "\n"
        calls = []
        real = spchart._record_bits
        monkeypatch.setattr(spchart, "_record_bits", lambda *args: calls.append(args) or real(*args))
        for data, attempts in [(padded, 1), (late, 2)]:
            calls.clear()
            assert spchart.parse_chart(data) == reference_parse(data) == spchart.parse_chart(text)
            assert len(calls) == attempts

    @pytest.mark.parametrize("kind", list(ChartType))
    def test_bare_cr_line_ends_read_as_lf(self, kind):
        # classic Mac CSV ends every line with a bare CR
        text = spchart.chart_to_csv(generate_chart(GenSpec(kind, 40, 6, seed=5)))
        assert spchart.parse_chart(text.replace("\n", "\r")) == spchart.parse_chart(text)

    @pytest.mark.parametrize("layout", ["bare", "labels", "header+labels"])
    @pytest.mark.parametrize("kind", list(ChartType))
    def test_leading_bom_is_ignored(self, kind, layout):
        text = spchart.chart_to_csv(generate_chart(GenSpec(kind, 40, 6, seed=7)))
        rows = text.splitlines(keepends=True)
        if layout != "header+labels":
            rows = rows[1:]
        if layout == "bare":
            rows = [row.partition(",")[2] for row in rows]
        text = "".join(rows)
        chart = spchart.parse_chart(text)
        for other in ("\ufeff" + text, ("\ufeff" + text).encode()):
            assert spchart.parse_chart(other) == chart
            assert reference_parse(other) == chart


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
        with pytest.raises(ChartError, match=r"^non-binary cell '2' at row 1, column 2$"):
            spchart.parse_chart("1,2\n0,1")

    def test_non_binary_cell_with_header_and_labels(self):
        with pytest.raises(ChartError, match=r"^non-binary cell '3' at row 2, column 3$"):
            spchart.parse_chart("P1,P2\nS1,1,3\nS2,0,0")

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
        with pytest.raises(ChartError, match=r"^ragged rows at row 2: expected 2 cells, found 3$"):
            spchart.parse_chart("1,0\n0,1,1")

    def test_ragged_header(self):
        with pytest.raises(ChartError, match=r"^ragged rows at row 1: expected 2 cells, found 4$"):
            spchart.parse_chart("P1,P2,P3,P4\nS1,1,0")

    def test_empty(self):
        for text in ["", "\n\n", "P1,P2\n", "S1\nS2\n"]:
            with pytest.raises(ChartError, match=r"^input contains no data rows$"):
                spchart.parse_chart(text)

    def test_bytes_and_whitespace(self):
        chart = spchart.parse_chart(b" 1 , 0 \n 0 , 1 \n")
        assert np.array_equal(chart.bits, [[1, 0], [0, 1]])

    def test_bad_utf8(self):
        invalid = r"^input is not valid UTF-8: 'utf-8' codec can't decode byte 0xff in position 0: "
        with pytest.raises(ChartError, match=invalid + "invalid start byte$"):
            spchart.parse_chart(b"\xff\xfe1,0")

    def test_duplicate_student_ids_rejected(self):
        with pytest.raises(ChartError, match=r"^student id 'S1' appears more than once$"):
            spchart.parse_chart("S1,1,0\nS1,0,1")

    @pytest.mark.parametrize(
        "text, message",
        [
            ("id,P1,P2\nS1,1,0\nS2,0,1\nS1,1,1\n", "student id 'S1' appears more than once"),
            ("id,P1\nS1,1\nS2,0\nS2,1\nS1,0\n", "student id 'S1' appears more than once"),
            ("id,P1,P1\nS1,1,0\n", "problem id 'P1' appears more than once"),
            ("id,q,p,q,p\nS1,1,0,1,0\n", "problem id 'q' appears more than once"),
        ],
    )
    def test_a_duplicate_id_is_named(self, text, message):
        # of the ids that occur again, the one that appears first
        with pytest.raises(ChartError, match=f"^{message}$"):
            spchart.parse_chart(text)

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

    def test_parse_memory_is_bounded_by_the_file(self):
        # a tall drill chart, read on the byte path: its parse peaked at 6.63
        # times the file's 3,088,937 bytes (Python 3.11, numpy 2.4); the bound
        # leaves 18% over that
        drill = generate_chart(GenSpec(ChartType.DRILL, 100_000, 12, seed=1))
        raw = spchart.chart_to_csv(drill).encode()
        tracemalloc.start()
        try:
            chart = spchart.parse_chart(raw)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert chart.num_students == 100_000
        assert peak <= 7.8 * len(raw)


class TestRearrange:
    def test_all_ones_is_identity(self):
        chart = chart_of([[1, 1], [1, 1]])
        assert spchart.rearrange(chart) == chart

    def test_two_by_two(self):
        # hand-applied sort: S = (1, 2) so rows swap; P = (1, 2) so columns swap
        sp = spchart.rearrange(chart_of([[0, 1], [1, 1]]))
        assert sp.student_ids == ("S2", "S1")
        assert sp.problem_ids == ("P2", "P1")
        assert np.array_equal(sp.bits, [[1, 1], [1, 0]])
        assert sp.bits.sum(axis=1).tolist() == [2, 1]
        assert sp.bits.sum(axis=0).tolist() == [2, 1]

    def test_perms_reproduce_chart(self):
        chart = chart_of([[0, 1, 1], [1, 0, 0], [1, 1, 1]])
        sp = spchart.rearrange(chart)
        rows = [chart.student_ids.index(s) for s in sp.student_ids]
        cols = [chart.problem_ids.index(p) for p in sp.problem_ids]
        assert np.array_equal(chart.bits[rows][:, cols], sp.bits)

    @settings(deadline=None)
    @given(charts())
    def test_idempotent(self, chart):
        sp = spchart.rearrange(chart)
        assert spchart.rearrange(sp) == sp

    @settings(deadline=None)
    @given(charts())
    def test_preserves_multisets_and_total(self, chart):
        sp = spchart.rearrange(chart)
        # the ids undo both permutations and restore the original matrix exactly
        rows = [sp.student_ids.index(s) for s in chart.student_ids]
        cols = [sp.problem_ids.index(p) for p in chart.problem_ids]
        assert np.array_equal(sp.bits[rows][:, cols], chart.bits)
        # with columns restored, the rows are the same multiset
        assert sorted(map(tuple, chart.bits.tolist())) == sorted(
            map(tuple, sp.bits[:, cols].tolist())
        )
        assert sorted(map(tuple, chart.bits.T.tolist())) == sorted(
            map(tuple, sp.bits[rows].T.tolist())
        )
        assert chart.bits.sum() == sp.bits.sum()
        s_curve, p_curve = sp.bits.sum(axis=1).tolist(), sp.bits.sum(axis=0).tolist()
        assert s_curve == sorted(s_curve, reverse=True)
        assert p_curve == sorted(p_curve, reverse=True)


# one row of 20 cells with a mean of exactly 0.65 and of exactly 0.35
BOUNDARY_ROWS = {
    ChartType.DRILL: [[1] * 13 + [0] * 7],
    ChartType.PRETEST: [[1] * 7 + [0] * 13],
}


class TestClassify:
    def test_half_rate_is_test(self):
        assert spchart.classify_type(chart_of([[1, 0], [0, 1]])) is ChartType.TEST

    def test_extremes(self):
        assert spchart.classify_type(chart_of([[1, 1], [1, 1]])) is ChartType.DRILL
        assert spchart.classify_type(chart_of([[0, 0], [0, 0]])) is ChartType.PRETEST

    def test_boundaries_inclusive(self):
        for chart_type, rows in BOUNDARY_ROWS.items():
            assert spchart.classify_type(chart_of(rows)) is chart_type

    @pytest.mark.parametrize("chart_type", [ChartType.DRILL, ChartType.PRETEST])
    def test_report_uses_the_same_figures(self, chart_type):
        chart = chart_of(BOUNDARY_ROWS[chart_type])
        best = clustering.score_baseline(chart, 1)
        figures = report.build_cluster_report("baseline", b"", {}, best, [best.summary])["chart"]
        assert figures["chart_type"] == chart_type.value == spchart.classify_type(chart).value
        assert figures["average_caution"] == spchart.average_caution(chart)

    def test_rate_thresholds(self):
        assert spchart.classify_rate(0.65) is ChartType.DRILL
        assert spchart.classify_rate(0.5) is ChartType.TEST
        assert spchart.classify_rate(0.35) is ChartType.PRETEST


REFERENCE_ROWS = [
    [1, 0, 1, 0, 0, 0, 0, 1, 1, 1],
    [0, 0, 0, 1, 1, 0, 1, 0, 1, 0],
    [0, 1, 0, 1, 1, 1, 1, 1, 1, 1],
    [0, 0, 1, 0, 0, 1, 0, 0, 0, 0],
]


class TestRatesAndCaution:
    def test_constant_columns(self):
        assert correct_rates(chart_of([[1, 0], [1, 0]])).tolist() == [1.0, 0.0]

    def test_symmetric(self):
        assert correct_rates(chart_of([[1, 0], [0, 1]])).tolist() == [0.5, 0.5]

    def test_reference_rows_rates(self):
        # hand column sums over the four rows, divided by 4
        rates = correct_rates(chart_of(REFERENCE_ROWS))
        assert rates.tolist() == [0.25, 0.25, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.75, 0.5]

    def test_homogeneous_cluster_gives_zero(self):
        chart = chart_of([[1, 0, 1]] * 5)
        rates = correct_rates(chart)
        for row in chart.bits:
            assert caution_index(row, rates) == 0.0
        assert spchart.average_caution(chart) == 0.0

    def test_hand_evaluated(self):
        assert caution_index([1, 0], [0.5, 0.5]) == 0.5

    def test_average_caution_two_by_two(self):
        assert spchart.average_caution(chart_of([[1, 0], [0, 1]])) == 0.5

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match=r"^3 cells against 2 rates$"):
            caution_index([1, 0, 1], [0.5, 0.5])

    @settings(deadline=None)
    @given(charts())
    def test_bounds(self, chart):
        rates = correct_rates(chart)
        for row in chart.bits:
            assert 0.0 <= caution_index(row, rates) <= 1.0
        assert 0.0 <= spchart.average_caution(chart) <= 1.0

    @settings(deadline=None)
    @given(st.integers(1, 10), st.data())
    def test_counts_match_per_student_definition(self, n, data):
        groups = data.draw(st.lists(charts_of_width(n), min_size=1, max_size=4))
        counts = [g.bits.sum(axis=0) for g in groups]
        gammas = spchart.caution_from_counts(counts, [g.num_students for g in groups])
        for gamma, g in zip(gammas, groups):
            rates = correct_rates(g)
            expected = np.mean([caution_index(row, rates) for row in g.bits])
            assert abs(gamma - expected) <= 1e-12

    @settings(deadline=None)
    @given(st.lists(st.integers(0, 1), min_size=1, max_size=16), st.data())
    def test_binary_rates_reduce_to_hamming(self, row, data):
        rates = data.draw(
            st.lists(st.integers(0, 1), min_size=len(row), max_size=len(row))
        )
        expected = sum(a != b for a, b in zip(row, rates)) / len(row)
        assert caution_index(row, [float(r) for r in rates]) == pytest.approx(expected)


class TestTypesValidation:
    def test_chart_rejects_non_binary(self):
        with pytest.raises(ChartError, match=r"^chart entries must all be 0 or 1$"):
            chart_of([[0, 2]])

    def test_chart_rejects_fractional_values(self):
        with pytest.raises(ChartError, match=r"^chart entries must all be 0 or 1$"):
            SPChart(np.array([[0.5, 1.0]]), ("S1",), ("P1", "P2"))

    def test_chart_rejects_ids_of_the_wrong_length(self):
        bits = np.array([[1, 0], [0, 1]])
        for student_ids, problem_ids, message in [
            (("S1",), ("P1", "P2"), "1 student ids for 2 rows"),
            (("S1", "S2", "S3"), ("P1", "P2"), "3 student ids for 2 rows"),
            (("S1", "S2"), ("P1",), "1 problem ids for 2 columns"),
            (("S1", "S2"), ("P1", "P2", "P3"), "3 problem ids for 2 columns"),
        ]:
            with pytest.raises(ChartError, match=f"^{message}$"):
                SPChart(bits, student_ids, problem_ids)

    def test_chart_is_immutable(self):
        chart = chart_of([[1, 0]])
        with pytest.raises(ValueError):
            chart.bits[0, 0] = 0

    def test_a_chart_never_equals_a_non_chart(self):
        assert (chart_of([[1, 0]]) == 5) is False

    def test_take_rows(self):
        chart = chart_of([[1, 0], [0, 1], [1, 1]])
        sub = spchart.take_rows(chart, [2, 0])
        assert sub.student_ids == ("S3", "S1")
        assert np.array_equal(sub.bits, [[1, 1], [1, 0]])
