"""S-P (student-problem) chart data model.

An S-P chart is an L x N binary matrix: row i holds student i's answers,
cell (i, j) is 1 if student i answered problem j correctly.  This module
covers parsing/serialization of the CSV form, rearrangement by totals,
the S- and P-curves, chart-type classification, and the caution index.
"""

from __future__ import annotations

import csv
import io
from collections import Counter
from dataclasses import dataclass
from enum import Enum
from itertools import chain

import numpy as np


class ChartError(ValueError):
    """A chart that cannot be built or parsed.  The message names the row,
    column, line or value concerned; rows and columns are 1-based positions
    in the input file, counting any header row and label column."""


def _ragged(row: int, expected: int, found: int) -> ChartError:
    return ChartError(f"ragged rows at row {row}: expected {expected} cells, found {found}")


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
        for kind, ids, count, axis in (
            ("student", self.student_ids, bits.shape[0], "rows"),
            ("problem", self.problem_ids, bits.shape[1], "columns"),
        ):
            if len(ids) != count:
                raise ChartError(f"{len(ids)} {kind} ids for {count} {axis}")
            if len(set(ids)) != len(ids):
                repeated = next(i for i, n in Counter(ids).items() if n > 1)
                raise ChartError(f"{kind} id {repeated!r} appears more than once")
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


# Bytes that can begin or end a comma or a str.isspace() character in UTF-8:
# the comma, the ASCII whitespace and every byte over 0x7f.  Lines and labels
# without one at an end need no strip.
_MAYBE_BLANK = np.array([b > 0x7F or chr(b) == "," or chr(b).isspace() for b in range(256)])


def _line(codes: np.ndarray, start: int = 0, end: int | None = None) -> str:
    # a lone surrogate, which only str input can hold, passes through its bytes
    return codes[start:end].tobytes().decode("utf-8", "surrogatepass")


def _plain_lines(raw: bytes) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
    """``raw`` with each CRLF and bare CR as "\\n", framed by two "\\n",
    and the start and end of each non-blank line in it, or None if it holds
    a quote or NUL, a line over ``csv.field_size_limit()`` bytes, or a
    non-blank line after the first that ends in a ``_MAYBE_BLANK`` byte.
    Without those, ``csv.reader`` makes one record of each line, which
    "\\n", "\\r\\n" or "\\r" ends (``str.splitlines`` would also break at
    "\\x85" and others), split at every comma.  None of these bytes occurs
    inside a UTF-8 character.  A line of only commas and ``str.isspace()``
    characters is blank, as such a record is to ``_parse_records``."""
    if b'"' in raw or b"\x00" in raw:
        return None
    if b"\r" in raw:  # a test first: replace scans far slower than memchr
        raw = raw.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    codes = np.frombuffer(b"\n" + raw + b"\n", dtype=np.uint8)
    breaks = np.flatnonzero(codes == ord("\n"))
    starts, ends = breaks[:-1] + 1, breaks[1:]
    if (ends - starts > csv.field_size_limit()).any():  # no real chart has such a line
        return None
    maybe_blank = _MAYBE_BLANK[codes[ends - 1]]  # an empty line ends in "\\n"
    keep = ~maybe_blank
    for i in np.flatnonzero(maybe_blank).tolist():
        if _line(codes, starts[i], ends[i]).replace(",", "").strip():
            # a data line's window ends in a digit, so only the first
            # non-blank line, a header, can end in such a byte and be read
            if keep[:i].any():
                return None
            keep[i] = True
    return codes, starts[keep], ends[keep]


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
    # runs of bytes to drop and to keep in turn, each kept run a label and its comma
    runs = np.diff(np.column_stack((starts, cuts + 1)).ravel(), prepend=0, append=codes.size)
    picked = codes[np.repeat(np.tile([False, True], starts.size + 1)[:-1], runs)]
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
    "0" or "1"."""
    if set(map(len, records)) != {skip + width}:
        return None
    cells = list(chain.from_iterable(r[skip:] for r in records))
    if not set(cells) <= {"0", "1"}:
        return None
    return (np.frombuffer("".join(cells).encode(), dtype=np.uint8) - ord("0")).reshape(-1, width)


def _header(first: list[str]) -> list[str] | None:
    """The first row's stripped cells if they are a header, else None.  A
    non-numeric token in the first cell alone is explained by a label
    column, so only tokens beyond position 0 mark the row as a header."""
    cells = [cell.strip() for cell in first]
    return cells if any(not _is_numeric(tok) for tok in cells[1:]) else None


def _parse_lines(codes: np.ndarray, starts: np.ndarray, ends: np.ndarray):
    """(header, bits, student ids) of the lines, or None unless each data
    line is bare "0"/"1" cells after one label or none."""
    first = [_line(codes, s, e).split(",") for s, e in zip(starts[:2].tolist(), ends[:2].tolist())]
    header = _header(first[0]) if first else None
    if header is not None:
        first, starts, ends = first[1:], starts[1:], ends[1:]
    if not first:
        return None
    # a label in the first data line makes a label column; with none there,
    # the window rejects a label in any other line
    skip = 0 if _is_numeric(first[0][0].strip()) else 1
    width = len(first[0]) - skip
    bits = _window_bits(codes, ends, skip, width) if width > 0 else None
    student_ids = _labels(codes, starts, ends - 2 * width) if skip and bits is not None else None
    if bits is None or (skip and student_ids is None):
        return None
    return header, bits, student_ids


def _parse_records(text: str):
    """(header, bits, student ids) of the records ``csv.reader`` reads from
    ``text``.  Raises ``ChartError`` for what the reader refuses, and else
    for the first ragged row or non-binary cell, in file order."""
    # newline="", as the csv docs advise: records end at LF, CRLF and bare CR
    reader = csv.reader(io.StringIO(text, newline=""))
    try:
        rows = [record for record in reader if "".join(record).strip()]
    except csv.Error as exc:  # an over-long field, NUL before Python 3.11
        raise ChartError(f"unreadable CSV at line {reader.line_num}: {exc}") from exc
    header = _header(rows[0]) if rows else None
    rows = rows[header is not None:]
    skip = 1 if any(not _is_numeric(r[0].strip()) for r in rows) else 0
    width = len(rows[0]) - skip if rows else 0
    if width < 1:
        raise ChartError("input contains no data rows")
    # cells are almost always bare digits; strip them when the first record
    # shows they are not, or when the bare attempt fails
    bits = _record_bits(rows, skip, width) if set(rows[0][skip:]) <= {"0", "1"} else None
    if bits is None:
        rows = [[cell.strip() for cell in r] for r in rows]
        bits = _record_bits(rows, skip, width)
    if bits is None:
        for r, record in enumerate(rows, start=2 if header is not None else 1):
            if len(record) != skip + width:
                raise _ragged(r, width, len(record) - skip)
            for c, tok in enumerate(record[skip:], start=skip + 1):
                if tok not in ("0", "1"):
                    shown = f" {tok!r}" if tok else ""
                    raise ChartError(f"non-binary cell{shown} at row {r}, column {c}")
    return header, bits, [r[0].strip() for r in rows] if skip else None


def parse_chart(data: str | bytes) -> SPChart:
    """Parse a chart from CSV text.

    Accepted layouts: bare 0/1 cells; an optional first row of problem
    labels; an optional first column of student labels.  A row or column
    is treated as labels when it contains at least one non-numeric token,
    so purely numeric labels are not supported: a numeric cell that is
    not 0 or 1 is always rejected as a non-binary cell.  Missing labels
    are generated as S1..SL and P1..PN (``_make_chart``), as
    ``datagen.generate_chart`` names its charts.  Cells may be padded
    with whitespace; rows of only commas and ``str.isspace()`` whitespace
    are skipped.  One leading byte order mark (U+FEFF) is ignored.  Lines
    may end in LF, CRLF or CR.

    Two readers give the same chart.  Text without a quote or NUL, whose
    cells are all bare "0"/"1" after one label or none, is read on its
    UTF-8 bytes (``_plain_lines``, ``_parse_lines``): array operations
    find the lines, check the cells and gather the labels.  Everything
    else goes through ``csv.reader`` (``_parse_records``), whose cells are
    checked as strings: quoted text, NUL, lines of more bytes than
    ``csv.field_size_limit()``, padded or bad cells and ragged rows.  Every
    refusal, including what the reader refuses, raises ``ChartError``.
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
    parsed = None if lines is None else _parse_lines(*lines)
    if parsed is None:
        parsed = _parse_records(raw.decode("utf-8", "surrogatepass"))
    header, bits, student_ids = parsed
    width = bits.shape[1]
    if header is not None and student_ids is not None and len(header) == width + 1:
        header = header[1:]  # drop the corner cell above the label column
    if header is not None and len(header) != width:
        raise _ragged(1, width, len(header))
    return _make_chart(bits, student_ids, header)


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


def rearrange(chart: SPChart) -> SPChart:
    """Sort rows by descending score and columns by descending correct count.

    The sorted chart's row and column totals are the S and P curves, both
    non-increasing.  Ties keep the original order, so the result is
    deterministic and rearranging it again is the identity.  Its ids map
    each row and column back to the input, as ``SPChart`` keeps ids unique.
    """
    rows = np.argsort(-chart.bits.sum(axis=1), kind="stable")
    cols = np.argsort(-chart.bits.sum(axis=0), kind="stable")
    return SPChart(
        chart.bits[rows][:, cols],
        tuple(chart.student_ids[i] for i in rows),
        tuple(chart.problem_ids[j] for j in cols),
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
    """Classify by the exact ratio of 1 cells to all cells, correctly rounded
    (``classify_rate``); ``inspect`` and the report both classify with it."""
    return classify_rate(np.count_nonzero(chart.bits) / chart.bits.size)


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
    counts = np.einsum("ij->j", chart.bits, dtype=np.int64)
    return caution_from_counts(counts[None, :], [chart.num_students])[0]
