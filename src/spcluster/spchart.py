"""S-P (student-problem) chart data model.

An S-P chart is an L x N binary matrix: row i holds student i's answers,
cell (i, j) is 1 if student i answered problem j correctly.  This module
covers parsing/serialization of the CSV form, rearrangement by totals,
the S- and P-curves, chart-type classification, and the caution index.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from enum import Enum
from itertools import islice

import numpy as np


class ChartError(ValueError):
    """Base class for chart construction and parse failures."""


class EmptyInput(ChartError):
    def __init__(self) -> None:
        super().__init__("input contains no data rows")


class NonBinaryCell(ChartError):
    """A data cell was something other than '0' or '1'.

    Coordinates are 1-based positions in the input file, counting any
    header row and label column.
    """

    def __init__(self, row: int, col: int, value: str = "") -> None:
        self.row = row
        self.col = col
        self.value = value
        shown = f" {value!r}" if value else ""
        super().__init__(f"non-binary cell{shown} at row {row}, column {col}")


class RaggedRows(ChartError):
    def __init__(self, expected: int, found: int, row: int | None = None) -> None:
        self.expected = expected
        self.found = found
        where = f" at row {row}" if row is not None else ""
        super().__init__(f"ragged rows{where}: expected {expected} cells, found {found}")


class UnreadableCsv(ChartError):
    """``csv.reader`` refused the input, at a 1-based physical line."""

    def __init__(self, line: int, reason: str) -> None:
        self.line = line
        super().__init__(f"unreadable CSV at line {line}: {reason}")


class LengthMismatch(ChartError):
    def __init__(self, expected: int, found: int) -> None:
        self.expected = expected
        self.found = found
        super().__init__(f"length mismatch: expected {expected}, found {found}")


class ChartType(Enum):
    """The three canonical chart shapes."""

    TEST = "test"
    DRILL = "drill"
    PRETEST = "pretest"


# Mean correct-rate cutoffs separating the three chart types.
DRILL_THRESHOLD = 0.65
PRETEST_THRESHOLD = 0.35


@dataclass(frozen=True, eq=False)
class SPChart:
    """Immutable L x N binary answer matrix with row/column labels."""

    bits: np.ndarray
    student_ids: tuple[str, ...]
    problem_ids: tuple[str, ...]

    def __post_init__(self) -> None:
        raw = np.asarray(self.bits)
        if raw.ndim != 2 or raw.shape[0] < 1 or raw.shape[1] < 1:
            raise ChartError("chart must be a 2-D matrix with at least one row and column")
        if not ((raw == 0) | (raw == 1)).all():  # validate before the int8 cast truncates
            raise ChartError("chart entries must all be 0 or 1")
        bits = raw.astype(np.int8)
        if len(self.student_ids) != bits.shape[0]:
            raise LengthMismatch(bits.shape[0], len(self.student_ids))
        if len(self.problem_ids) != bits.shape[1]:
            raise LengthMismatch(bits.shape[1], len(self.problem_ids))
        if len(set(self.student_ids)) != len(self.student_ids):
            raise ChartError("student ids must be unique")
        if len(set(self.problem_ids)) != len(self.problem_ids):
            raise ChartError("problem ids must be unique")
        bits.flags.writeable = False
        object.__setattr__(self, "bits", bits)
        object.__setattr__(self, "student_ids", tuple(self.student_ids))
        object.__setattr__(self, "problem_ids", tuple(self.problem_ids))

    @property
    def num_students(self) -> int:
        return self.bits.shape[0]

    @property
    def num_problems(self) -> int:
        return self.bits.shape[1]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SPChart):
            return NotImplemented
        return (
            self.student_ids == other.student_ids
            and self.problem_ids == other.problem_ids
            and np.array_equal(self.bits, other.bits)
        )


@dataclass(frozen=True, eq=False)
class RearrangedChart:
    """A chart sorted by row and column totals, with the applied permutations.

    ``chart`` row k is original row ``row_perm[k]``; likewise for columns.
    ``s_totals``/``p_totals`` are the row/column sums of the rearranged
    chart, both non-increasing.
    """

    chart: SPChart
    row_perm: tuple[int, ...]
    col_perm: tuple[int, ...]
    s_totals: tuple[int, ...]
    p_totals: tuple[int, ...]


def _make_chart(bits: np.ndarray, student_ids, problem_ids) -> SPChart:
    if student_ids is None:
        student_ids = tuple(f"S{i + 1}" for i in range(bits.shape[0]))
    if problem_ids is None:
        problem_ids = tuple(f"P{j + 1}" for j in range(bits.shape[1]))
    return SPChart(bits, tuple(student_ids), tuple(problem_ids))


def _is_numeric(token: str) -> bool:
    try:
        float(token)
    except ValueError:
        return False
    return True


# A row is blank when it holds only commas and these, the characters
# str.isspace() accepts (a test checks the list against the Unicode table).
_BLANK = (
    ",\t\n\x0b\x0c\r\x1c\x1d\x1e\x1f \x85\xa0\u1680"
    + "".join(map(chr, range(0x2000, 0x200B)))
    + "\u2028\u2029\u202f\u205f\u3000"
)


# Bytes that can begin or end a _BLANK character in UTF-8: its ASCII members
# and all over 0x7f.  Lines and labels without one at an end need no strip.
_MAYBE_BLANK = np.zeros(256, dtype=bool)
_MAYBE_BLANK[[ord(c) for c in _BLANK if c.isascii()]] = True
_MAYBE_BLANK[0x80:] = True


def _line(codes: np.ndarray, start: int = 0, end: int | None = None) -> str:
    # a lone surrogate, which only str input can hold, passes through its bytes
    return codes[start:end].tobytes().decode("utf-8", "surrogatepass")


def _plain_lines(raw: bytes) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
    """``raw`` framed by two "\\n", and the start and end of each non-blank
    line in it, or None if ``csv.reader`` must read it.  Without a quote, CR
    or NUL, or a line over ``csv.field_size_limit()`` characters, the reader
    makes one record of each "\\n"-ended line (``str.splitlines`` would also
    break at "\\x85" and others), split at every comma.  Neither byte occurs
    inside a UTF-8 character."""
    if b'"' in raw or b"\r" in raw or b"\x00" in raw:
        return None
    codes = np.frombuffer(b"\n" + raw + b"\n", dtype=np.uint8)
    breaks = np.flatnonzero(codes == ord("\n"))
    starts, ends = breaks[:-1] + 1, breaks[1:]
    limit = csv.field_size_limit()
    # a character takes at least one byte: only lines of more bytes can be too long
    for i in np.flatnonzero(ends - starts > limit).tolist():
        if len(_line(codes, starts[i], ends[i])) > limit:
            return None
    keep = np.ones(ends.size, dtype=bool)
    for i in np.flatnonzero(_MAYBE_BLANK[codes[ends - 1]]).tolist():  # an empty line ends in "\\n"
        keep[i] = bool(_line(codes, starts[i], ends[i]).strip(_BLANK))
    return codes, starts[keep], ends[keep]


def _csv_records(text: str) -> list[list[str]]:
    """The non-blank records ``csv.reader`` reads from ``text``."""
    # newline="", as the csv docs advise: records end at LF, CRLF and bare CR
    reader = csv.reader(io.StringIO(text, newline=""))
    try:
        return [record for record in reader if "".join(record).strip()]
    except csv.Error as exc:  # an over-long field, NUL before Python 3.11
        raise UnreadableCsv(reader.line_num, str(exc)) from exc


def _window_bits(codes: np.ndarray, ends: np.ndarray, skip: int, width: int) -> np.ndarray | None:
    """The ``width`` cells before each line end as a bit matrix, or None
    unless the 2 * ``width`` bytes before each end are a separator (a comma
    after a label if ``skip``, else the line end before) and "0"/"1" digits
    alternating with commas, which a short, ragged or padded line fails."""
    span = 2 * width
    if ends[0] < span:
        return None
    window = np.lib.stride_tricks.sliding_window_view(codes, span)[ends - span]
    if (window[:, 0] != ord("," if skip else "\n")).any() or (window[:, 2::2] != ord(",")).any():
        return None
    bits = window[:, 1::2] - ord("0")  # anything but "0" and "1" wraps past 1
    if (bits > 1).any():
        return None
    return bits


def _labels(codes: np.ndarray, starts: np.ndarray, cuts: np.ndarray) -> list[str] | None:
    """Each ``codes[starts[i]:cuts[i]]``, which a comma follows, stripped, or
    None if one holds a comma.  All are gathered, decoded and split at once."""
    sizes = cuts + 1 - starts
    base = np.repeat(starts - (np.cumsum(sizes) - sizes), sizes)
    picked = codes[base + np.arange(base.size)]
    if np.count_nonzero(picked == ord(",")) != starts.size:
        return None
    labels = _line(picked).split(",")[:-1]
    # an empty label begins with its comma and ends in the line end before it
    for i in np.flatnonzero(_MAYBE_BLANK[codes[starts]] | _MAYBE_BLANK[codes[cuts - 1]]).tolist():
        labels[i] = labels[i].strip()
    return labels


def _record_bits(records: list[list[str]], skip: int, width: int) -> np.ndarray | None:
    """The cells after the first ``skip`` of every record as a bit matrix,
    or None unless every record holds ``skip + width`` cells, each exactly
    "0" or "1".  The data cells of a record are joined into one line for
    ``_window_bits``, where a cell holding a comma or line end shows."""
    if set(map(len, records)) != {skip + width}:
        return None
    text = "\n" + "\n".join([",".join(islice(r, skip, None)) for r in records]) + "\n"
    codes = np.frombuffer(text.encode("utf-8", "surrogatepass"), dtype=np.uint8)
    ends = np.flatnonzero(codes == ord("\n"))[1:]
    return _window_bits(codes, ends, 0, width) if ends.size == len(records) else None


def _raise_first_bad_cell(
    rows: list[list[str]], skip: int, width: int, row_offset: int
) -> None:
    """Raise for the first ragged row or non-binary cell, in file order."""
    for r, record in enumerate(rows):
        cells = record[skip:]
        if len(cells) != width:
            raise RaggedRows(width, len(cells), row=r + row_offset)
        for c, tok in enumerate(cells):
            if tok not in ("0", "1"):
                raise NonBinaryCell(r + row_offset, c + skip + 1, tok)


def _parse_lines(codes: np.ndarray, starts: np.ndarray, ends: np.ndarray):
    """(bits, student ids, has labels, width) of data lines that are all
    bare "0"/"1" cells after one label or none, else None."""
    if starts.size == 0:
        return None
    first = _line(codes, starts[0], ends[0])
    # a label in the first line makes a label column; with none there, the
    # window rejects a label in any other line
    skip = 0 if _is_numeric(first.partition(",")[0].strip()) else 1
    width = first.count(",") + 1 - skip
    bits = _window_bits(codes, ends, skip, width) if width > 0 else None
    student_ids = _labels(codes, starts, ends - 2 * width) if skip and bits is not None else None
    if bits is None or (skip and student_ids is None):
        return None
    return bits, student_ids, skip == 1, width


def parse_chart(data: str | bytes) -> SPChart:
    """Parse a chart from CSV text.

    Accepted layouts: bare 0/1 cells; an optional first row of problem
    labels; an optional first column of student labels.  A row or column
    is treated as labels when it contains at least one non-numeric token,
    so purely numeric labels are not supported: a numeric cell that is
    not 0 or 1 is always rejected as ``NonBinaryCell``.  Missing labels
    are generated as S1..SL and P1..PN.  Cells may be padded with
    whitespace; rows of only whitespace are skipped.  One leading byte
    order mark (U+FEFF) is ignored.

    Text that ``csv.reader`` would split at every comma and line end is
    read on its UTF-8 bytes (``_plain_lines``): array operations find the
    lines, check the cells and gather the labels.  Quoted text, CR line
    ends, NUL and lines longer than ``csv.field_size_limit()`` go through
    ``csv.reader``, and what it refuses raises ``UnreadableCsv``.  Lines
    with padded or bad cells go on cell by cell, as the reader's records
    do.  All paths give the same chart.
    """
    if isinstance(data, bytes):
        if not data.isascii():
            try:
                data.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise ChartError(f"input is not valid UTF-8: {exc}") from exc
        raw = data.removeprefix(b"\xef\xbb\xbf")  # a byte order mark, as "utf-8-sig" drops
    else:
        raw = data.removeprefix("\ufeff").encode("utf-8", "surrogatepass")
    lines = _plain_lines(raw)
    if lines is None:
        rows = _csv_records(raw.decode("utf-8", "surrogatepass"))
    else:
        codes, starts, ends = lines
        rows = [_line(codes, starts[0], ends[0]).split(",")] if starts.size else []

    # a non-numeric token in the first cell alone is explained by a label
    # column, so only tokens beyond position 0 mark the row as a header
    header = [cell.strip() for cell in rows[0]] if rows else []
    has_header = any(not _is_numeric(tok) for tok in header[1:])
    parsed = None if lines is None else _parse_lines(codes, starts[has_header:], ends[has_header:])
    if parsed is not None:
        bits, student_ids, has_labels, width = parsed
    else:
        if lines is not None:  # a padded or bad cell: go on cell by cell
            rows = [_line(codes, s, e).split(",") for s, e in zip(starts.tolist(), ends.tolist())]
        data_rows = rows[1:] if has_header else rows
        if not data_rows:
            raise EmptyInput()
        has_labels = any(not _is_numeric(r[0].strip()) for r in data_rows)
        skip = 1 if has_labels else 0
        width = len(data_rows[0]) - skip
        if width < 1:
            raise EmptyInput()
        # cells are almost always bare digits; strip them only when that fails
        bits = _record_bits(data_rows, skip, width)
        if bits is None:
            data_rows = [[cell.strip() for cell in r] for r in data_rows]
            bits = _record_bits(data_rows, skip, width)
        if bits is None:
            _raise_first_bad_cell(data_rows, skip, width, row_offset=2 if has_header else 1)
        student_ids = [r[0].strip() for r in data_rows] if has_labels else None

    if has_header and has_labels and len(header) == width + 1:
        header = header[1:]  # drop the corner cell above the label column
    if has_header and len(header) != width:
        raise RaggedRows(width, len(header), row=1)
    return _make_chart(bits, student_ids, header if has_header else None)


def chart_to_csv(chart: SPChart) -> str:
    """Serialize to the canonical labeled CSV form.

    Writes a header row with a corner cell over the label column, so the
    result is unambiguous even for single-column charts.  Lossless only
    for non-numeric labels (which generated labels always are).
    """
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["id", *chart.problem_ids])
    for sid, row in zip(chart.student_ids, chart.bits):
        writer.writerow([sid, *(int(b) for b in row)])
    return buf.getvalue()


def take_rows(chart: SPChart, indices) -> SPChart:
    """Sub-chart of the given student rows (all problems kept)."""
    idx = [int(i) for i in indices]
    return SPChart(
        chart.bits[idx],
        tuple(chart.student_ids[i] for i in idx),
        chart.problem_ids,
    )


def rearrange(chart: SPChart) -> RearrangedChart:
    """Sort rows by descending score and columns by descending correct count.

    Ties keep the original order, so the result is deterministic and
    re-rearranging an already rearranged chart is the identity.
    """
    s = chart.bits.sum(axis=1)
    p = chart.bits.sum(axis=0)
    row_perm = np.argsort(-s, kind="stable")
    col_perm = np.argsort(-p, kind="stable")
    bits = chart.bits[row_perm][:, col_perm]
    out = SPChart(
        bits,
        tuple(chart.student_ids[i] for i in row_perm),
        tuple(chart.problem_ids[j] for j in col_perm),
    )
    return RearrangedChart(
        chart=out,
        row_perm=tuple(int(i) for i in row_perm),
        col_perm=tuple(int(j) for j in col_perm),
        s_totals=tuple(int(v) for v in s[row_perm]),
        p_totals=tuple(int(v) for v in p[col_perm]),
    )


def classify_rate(rate: float) -> ChartType:
    """Classify a mean correct rate over all cells of a chart.

    Drill when the mean is at or above ``DRILL_THRESHOLD``, pre-test when
    at or below ``PRETEST_THRESHOLD``, test otherwise.
    """
    if rate >= DRILL_THRESHOLD:
        return ChartType.DRILL
    if rate <= PRETEST_THRESHOLD:
        return ChartType.PRETEST
    return ChartType.TEST


def classify_type(chart: SPChart) -> ChartType:
    """Classify by the mean correct rate over all cells (``classify_rate``)."""
    return classify_rate(float(chart.bits.mean()))


def caution_from_counts(counts, sizes) -> list[float]:
    """Average caution index of groups of rows, from integer column counts.

    ``counts[k, j]`` is how many of group k's ``sizes[k]`` rows have a 1
    in column j.  In a column with c ones among n rows, c rows deviate
    from the rate c/n by (n - c)/n and n - c rows by c/n, so a group's
    mean absolute deviation over its N columns is
    2 * sum_j c_j (n - c_j) / (n^2 N).  Numerator and denominator are
    exact integers and the one division is correctly rounded, so equal
    ratios give identical floats.
    """
    c = np.asarray(counts, dtype=np.int64)
    n = np.asarray(sizes, dtype=np.int64)
    num = 2 * (c * (n[:, None] - c)).sum(axis=1)
    den = n * n * c.shape[1]
    return [a / b for a, b in zip(num.tolist(), den.tolist())]


def average_caution(chart: SPChart) -> float:
    """Mean caution index over all rows, against the chart's own rates."""
    counts = chart.bits.sum(axis=0, dtype=np.int64)
    return caution_from_counts(counts[None, :], [chart.num_students])[0]
