"""Versioned JSON report documents for clustering runs.

Reports are plain dicts built in a fixed key order and serialized as
``json.dumps(doc, indent=2)`` would; identical inputs and parameters
therefore produce byte-identical files.
"""

from __future__ import annotations

import hashlib
from json.encoder import JSONEncoder, encode_basestring_ascii as _quote
from math import isfinite
from operator import itemgetter

from . import spchart
from .clustering import TrialReport, TrialSummary
from .spchart import SPChart

FORMAT_VERSION = "3"
_encode = JSONEncoder().encode  # None, bools, NaN, infinities, subclasses
_TRIAL_KEYS = ("trial", "seed", "f1", "f2", "clusters")  # a row of the trials table


def _cluster_entry(chart: SPChart, cluster, label: str) -> dict:
    # an exact ratio, correctly rounded: the float mean of the members' bits
    rate = cluster.correct / (cluster.size * chart.num_problems)
    point = cluster.fixed_point
    ids = itemgetter(*cluster.member_indices)(chart.student_ids)  # one member: a bare id
    return {
        "label": label,
        "size": cluster.size,
        "gamma": cluster.gamma,
        "fixed_point": None if point is None else "".join(map(str, point)),
        "chart_type": spchart.classify_rate(rate).value,
        "student_ids": list(ids) if cluster.size > 1 else [ids],
    }


def build_cluster_report(
    command: str,
    raw_input: bytes,
    parameters: dict,
    best: TrialReport,
    summaries: list[TrialSummary],
) -> dict:
    chart = best.clustering.chart
    won = best.summary
    return {
        "format_version": FORMAT_VERSION,
        "command": command,
        "input_digest": "sha256:" + hashlib.sha256(raw_input).hexdigest(),
        "parameters": parameters,
        "chart": {
            "students": chart.num_students,
            "problems": chart.num_problems,
            "chart_type": spchart.classify_type(chart).value,
            "average_caution": spchart.average_caution(chart),
        },
        "f1": won.f1,
        "f2": won.f2,
        "best_trial": {
            "trial_index": won.trial_index,
            "seed": won.seed,
            "f1": won.f1,
            "f2": won.f2,
            "representatives": [
                chart.student_ids[i] for i in best.clustering.representatives
            ],
            "sweeps_histogram": {
                str(k): v for k, v in sorted(best.sweeps_histogram.items())
            },
            "clusters": [
                _cluster_entry(chart, c, f"C{k}") for k, c in enumerate(best.clustering.clusters, 1)
            ],
        },
        "trials": [
            dict(zip(_TRIAL_KEYS, (s.trial_index, s.seed, s.f1, s.f2, s.n_clusters)))
            for s in summaries
        ],
    }


def report_json(doc: dict) -> str:
    """``json.dumps(doc, indent=2) + "\\n"``, byte for byte.

    With an indent, ``json`` encodes in pure Python, one generator step
    per value.  Here each list of strings (such as a cluster's student
    ids) is quoted once, by the C ``encode_basestring_ascii`` that
    ``json`` uses, and written with one join; all pieces are joined
    once at the end.  Dict keys must be strings.
    """
    out: list[str] = []
    _write(doc, "\n", out)
    out.append("\n")
    return "".join(out)


def _write(value, newline: str, out: list[str]) -> None:
    """Append ``value`` as ``json.dumps(..., indent=2)`` writes it when
    nested at the indent that ``newline``, a line end and spaces, starts."""
    if not isinstance(value, (list, tuple, dict)):
        out.append(_scalar(value))
    elif not value:
        out.append("{}" if isinstance(value, dict) else "[]")
    elif isinstance(value, dict):
        inner = newline + "  "
        sep = "{" + inner
        for key, item in value.items():
            out.append(sep + _quote(key) + ": ")
            _write(item, inner, out)
            sep = "," + inner
        out.append(newline + "}")
    else:
        inner = newline + "  "
        joined = _joined(value, "," + inner)
        if joined is not None:
            out.append("[" + inner + joined)
        else:
            sep = "[" + inner
            for item in value:
                out.append(sep)
                _write(item, inner, out)
                sep = "," + inner
        out.append(newline + "]")


def _joined(items, sep: str) -> str | None:
    """The non-empty ``items`` written in one piece and separated by
    ``sep``, if all are strings."""
    try:
        text = "".join(items)
    except TypeError:  # not all strings
        return None
    # escapes are per character: when the joined text needs none, no item does
    if len(_quote(text)) == len(text) + 2:
        return '"' + ('"' + sep + '"').join(items) + '"'
    return sep.join(map(_quote, items))


def _scalar(value) -> str:
    """``value`` as ``json`` writes it; ``json`` itself writes all but three kinds."""
    if isinstance(value, str):
        return _quote(value)
    kind = type(value)
    if kind is int or kind is float and isfinite(value):
        return repr(value)
    return _encode(value)
