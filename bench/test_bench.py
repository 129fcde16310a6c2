"""Tests of the benchmark itself: ``python3 -m pytest bench``."""

from __future__ import annotations

import copy
import importlib
import json
import math
import sys

import pytest

import oracle
import run
import tracer

sys.path.insert(0, str(run.SRC))

from spcluster import cli, datagen, spchart  # noqa: E402


def _module_attrs() -> dict:
    return {n: dict(vars(importlib.import_module(n))) for n in tracer.WRAPPED}


def test_wrappers_replace_then_restore_every_attribute():
    before = _module_attrs()
    with pytest.raises(RuntimeError):
        with tracer.installed(tracer.Tracer()):
            for module, attr, _ in tracer.targets():
                assert getattr(module, attr) is not before[module.__name__][attr]
            raise RuntimeError("leave the block early")
    after = _module_attrs()
    assert after.keys() == before.keys()
    for name, attrs in before.items():
        assert after[name].keys() == attrs.keys()
        assert all(after[name][k] is v for k, v in attrs.items()), name


def test_trace_records_spans_trials_and_counts(tmp_path):
    chart = datagen.generate_chart(datagen.GenSpec(spchart.ChartType.TEST, 20, 5, 1))
    path = tmp_path / "chart.csv"
    path.write_text(spchart.chart_to_csv(chart))
    t = tracer.Tracer()
    argv = ["cluster", "--input", str(path), "--clusters", "2", "--trials", "4",
            "--seed", "1", "--output", str(tmp_path / "r.json")]
    with tracer.installed(t):
        assert cli.main(argv) == 0
    snap = t.snapshot()
    assert snap["spans"]["cli.main"][0] == 1
    assert snap["spans"]["clustering.trial_seed"][0] == 4
    assert len(snap["trial_ms"]) == 4
    # four trials plus the rebuilt winner relax every row
    assert snap["counters"]["converge_rows"] == 5 * 20
    calls, total, self_s = snap["spans"]["clustering.run_trials"]
    assert 0 < self_s < total


@pytest.mark.parametrize("trace", [False, True])
def test_smoke_workload_end_to_end(tmp_path, trace):
    workload = run.Workload("smoke", "test", 30, 6, 3, 5)
    result, record = run.run(workload, 3, 0.1, trace, tmp_path)
    units = run.PER_LAYER_UNITS if trace else run.END_TO_END_UNITS
    assert result["correct"], record["problems"]
    assert result["failed"] == 0
    assert result["attempted"] == 5 * (1 + sum(record["samples"].values()))
    assert list(result["metrics"]) == list(units)
    assert all(math.isfinite(m["value"]) for m in result["metrics"].values())
    if trace:
        assert record["samples"] == {k: run.MIN_CYCLES for k in ("plain", "traced", "pool")}
        assert result["metrics"]["clustering.trial.count"]["value"] == 5 * run.MIN_CYCLES
        assert result["metrics"]["clustering.pool.cpu_s_children"]["value"] > 0
    json.dumps([result, record])


@pytest.fixture(scope="module")
def report(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("oracle")
    chart = datagen.generate_chart(datagen.GenSpec(spchart.ChartType.TEST, 40, 8, 5))
    (tmp / "chart.csv").write_text(spchart.chart_to_csv(chart))
    argv = ["cluster", "--input", str(tmp / "chart.csv"), "--clusters", "3", "--trials", "20",
            "--seed", "5", "--output", str(tmp / "report.json")]
    assert cli.main(argv) == 0
    return chart, json.loads((tmp / "report.json").read_text())


def _check(chart, doc):
    return oracle.check_report(doc, chart.bits, chart.student_ids, 3, 20)


def test_oracle_accepts_the_real_report(report):
    chart, doc = report
    assert _check(chart, doc) == []


def test_oracle_rejects_students_swapped_between_clusters(report):
    chart, doc = report
    doc = copy.deepcopy(doc)
    clusters = doc["best_trial"]["clusters"]
    a, b = clusters[0]["student_ids"], clusters[1]["student_ids"]
    a[0], b[0] = b[0], a[0]
    assert _check(chart, doc)


def test_oracle_rejects_a_perturbed_f2(report):
    chart, doc = report
    doc = copy.deepcopy(doc)
    doc["f2"] += 1e-9
    doc["best_trial"]["f2"] += 1e-9
    assert any("f2" in e for e in _check(chart, doc))


def test_oracle_rejects_a_winner_that_breaks_the_rule(report):
    chart, doc = report
    doc = copy.deepcopy(doc)
    rows = doc["trials"]
    loser = max(range(len(rows)), key=lambda t: (rows[t]["f2"], rows[t]["f1"]))
    doc["best_trial"]["trial_index"] = loser
    assert any("winner" in e for e in _check(chart, doc))


def test_tail_keeps_ten_samples_beyond():
    values = [float(v) for v in range(100)]
    assert run.tail(values) == (89.0, 90)
    assert run.tail(values[:20]) == (9.5, 50)
