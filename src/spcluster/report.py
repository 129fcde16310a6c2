"""Versioned JSON report documents for clustering runs.

Reports are plain dicts built in a fixed key order and serialized as
``json.dumps(doc, indent=2)`` would; identical inputs and parameters
therefore produce byte-identical files.
"""

from __future__ import annotations

import hashlib
from json.encoder import encode_basestring_ascii as _quote

from . import spchart
from .clustering import Clustering, TrialReport, TrialSummary
from .spchart import SPChart

FORMAT_VERSION = "2"


def input_digest(data: bytes) -> str:
    return "sha256:" + hashlib.sha256(data).hexdigest()


def _cluster_entry(chart: SPChart, cluster, label: str) -> dict:
    rate = float(chart.bits[list(cluster.member_indices)].mean())
    return {
        "label": label,
        "size": cluster.size,
        "gamma": cluster.gamma,
        "fixed_point": (
            "".join(str(b) for b in cluster.fixed_point)
            if cluster.fixed_point is not None
            else None
        ),
        "chart_type": spchart.classify_rate(rate).value,
        "student_ids": [chart.student_ids[i] for i in cluster.member_indices],
    }


def _clusters_section(clustering: Clustering) -> list[dict]:
    return [
        _cluster_entry(clustering.chart, c, f"C{k + 1}")
        for k, c in enumerate(clustering.clusters)
    ]


def _chart_section(chart: SPChart) -> dict:
    return {
        "students": chart.num_students,
        "problems": chart.num_problems,
        "chart_type": spchart.classify_type(chart).value,
        "average_caution": spchart.average_caution(chart),
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
        "input_digest": input_digest(raw_input),
        "parameters": parameters,
        "chart": _chart_section(chart),
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
            "clusters": _clusters_section(best.clustering),
        },
        "trials": [
            {
                "trial": s.trial_index,
                "seed": s.seed,
                "f1": s.f1,
                "f2": s.f2,
                "clusters": s.n_clusters,
            }
            for s in summaries
        ],
    }


def report_json(doc: dict) -> str:
    """``json.dumps(doc, indent=2) + "\\n"``, byte for byte.

    With an indent, ``json`` encodes in pure Python, one generator step
    per value.  Here each list of strings (such as a cluster's student
    ids) is quoted by the C ``encode_basestring_ascii`` that ``json``
    uses and written with one join, and all pieces are joined once at
    the end.  Dict keys must be strings.
    """
    out: list[str] = []
    _write(doc, "\n", out)
    out.append("\n")
    return "".join(out)


_INF = float("inf")


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
        try:
            out.append("[" + inner + ("," + inner).join(map(_quote, value)))
        except TypeError:  # not all strings
            sep = "[" + inner
            for item in value:
                out.append(sep)
                _write(item, inner, out)
                sep = "," + inner
        out.append(newline + "]")


def _scalar(value) -> str:
    if isinstance(value, str):
        return _quote(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        if value != value:
            return "NaN"
        if value == _INF:
            return "Infinity"
        if value == -_INF:
            return "-Infinity"
        return float.__repr__(value)
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")
