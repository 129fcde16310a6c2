"""Versioned JSON report documents for clustering runs.

Reports are plain dicts built in a fixed key order and serialized with
``json.dumps``; identical inputs and parameters therefore produce
byte-identical files.
"""

from __future__ import annotations

import hashlib
import json

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
    chart: SPChart,
    raw_input: bytes,
    parameters: dict,
    best: TrialReport,
    summaries: list[TrialSummary],
) -> dict:
    return {
        "format_version": FORMAT_VERSION,
        "command": "cluster",
        "input_digest": input_digest(raw_input),
        "parameters": parameters,
        "chart": _chart_section(chart),
        "f1": best.f1,
        "f2": best.f2,
        "best_trial": {
            "trial_index": best.trial_index,
            "seed": best.seed,
            "f1": best.f1,
            "f2": best.f2,
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


def build_baseline_report(
    chart: SPChart,
    raw_input: bytes,
    parameters: dict,
    clustering: Clustering,
    f1_value: float,
    f2_value: float,
) -> dict:
    return {
        "format_version": FORMAT_VERSION,
        "command": "baseline",
        "input_digest": input_digest(raw_input),
        "parameters": parameters,
        "chart": _chart_section(chart),
        "f1": f1_value,
        "f2": f2_value,
        "best_trial": {
            "trial_index": 0,
            "seed": None,
            "f1": f1_value,
            "f2": f2_value,
            "representatives": [],
            "sweeps_histogram": {},
            "clusters": _clusters_section(clustering),
        },
        "trials": [
            {
                "trial": 0,
                "seed": None,
                "f1": f1_value,
                "f2": f2_value,
                "clusters": len(clustering.clusters),
            }
        ],
    }


def report_json(doc: dict) -> str:
    return json.dumps(doc, indent=2) + "\n"
