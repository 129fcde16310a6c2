import enum
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spcluster import cli, report

# every code point, lone surrogates and control characters included
TEXT = st.text(st.characters(exclude_categories=()), max_size=8)
FLOATS = st.floats() | st.sampled_from(
    [-0.0, 0.0, 5e-324, 1e16, 1e-7, 0.1, math.nan, math.inf, -math.inf]
)
SCALARS = (
    st.none() | st.booleans() | st.integers() | st.integers(-(2**200), 2**200) | FLOATS | TEXT
)


def containers(children):
    lists = st.lists(children, max_size=5)
    return (
        lists
        | lists.map(tuple)
        | st.lists(TEXT, max_size=5)
        | st.dictionaries(TEXT, children, max_size=5)
    )


JSON_VALUES = st.recursive(SCALARS, containers, max_leaves=40)


@settings(deadline=None, max_examples=500)
@given(JSON_VALUES)
def test_writer_matches_json_dumps(value):
    assert report.report_json(value) == json.dumps(value, indent=2) + "\n"


@pytest.mark.parametrize("odd", ["", '"', "\\", "\x07", "\u00e9", "\U0001f600"])
def test_long_string_lists(odd):
    # one string that needs an escape makes the writer quote each string alone
    ids = [f"S{i}" for i in range(5000)]
    ids[2500] += odd
    value = {"student_ids": ids, "nested": [ids[:3], tuple(ids)]}
    assert report.report_json(value) == json.dumps(value, indent=2) + "\n"


def test_trials_table_rows():
    rows = [
        {"trial": 0, "seed": None, "f1": 0.2, "f2": 1 / 3, "clusters": 2},
        {"trial": 1, "seed": 2**64 - 1, "f1": 0.0, "f2": 1e-7, "clusters": 16},
    ]
    # rows of other types, float specials, reordered, missing or extra keys
    near_misses = [
        {"trial": True, "seed": 1, "f1": 0.5, "f2": 0.5, "clusters": 2},
        {"trial": 2, "seed": 1.5, "f1": 0.5, "f2": 0.5, "clusters": 2},
        {"trial": 2, "seed": 1, "f1": math.nan, "f2": 0.5, "clusters": 2},
        {"trial": 2, "seed": 1, "f1": 0.5, "f2": -math.inf, "clusters": 2},
        {"trial": 2, "seed": 1, "f1": 1, "f2": 0.5, "clusters": 2},
        {"trial": 2, "seed": 1, "f1": 0.5, "f2": 0.5, "clusters": 2.0},
        {"trial": 2, "seed": "1", "f1": 0.5, "f2": 0.5, "clusters": 2},
        {"seed": 1, "trial": 2, "f1": 0.5, "f2": 0.5, "clusters": 2},
        {"trial": 2, "seed": 1, "f1": 0.5, "f2": 0.5},
        {"trial": 2, "seed": 1, "f1": 0.5, "f2": 0.5, "clusters": 2, "x": 0},
    ]
    for table in [rows, *([*rows, row] for row in near_misses)]:
        value = {"trials": table}
        assert report.report_json(value) == json.dumps(value, indent=2) + "\n"


def test_writer_rejects_what_json_rejects():
    for value in ({"a": {1, 2}}, [b"bytes"], {"a": [object()]}):
        with pytest.raises(TypeError):
            json.dumps(value, indent=2)
        with pytest.raises(TypeError):
            report.report_json(value)


def test_int_and_float_subclasses_are_written_as_json_writes_them():
    class Level(enum.IntEnum):
        HIGH = 3

    floats = [np.float64(x) for x in (0.1, math.nan, math.inf, -math.inf)]
    value = {"level": Level.HIGH, "floats": floats, "flags": [True, 1, False, None]}
    assert report.report_json(value) == json.dumps(value, indent=2) + "\n"
    errors = []
    for write in (report.report_json, lambda v: json.dumps(v, indent=2)):
        with pytest.raises(TypeError) as caught:
            write({"seed": np.int64(1)})
        errors.append(str(caught.value))
    assert errors[0] == errors[1]


@pytest.mark.parametrize("kind", ["test", "drill", "pretest"])
def test_cli_reports_are_what_json_dumps_writes(kind, tmp_path, monkeypatch):
    written = []
    real = report.report_json
    monkeypatch.setattr(report, "report_json", lambda doc: written.append(doc) or real(doc))
    chart, out = tmp_path / "chart.csv", tmp_path / "report.json"
    assert cli.main(["generate", "--type", kind, "--students", "120", "--problems", "8",
                     "--seed", "4", "--output", str(chart)]) == 0
    for command in (["cluster", "--trials", "30", "--seed", "2"], ["baseline"]):
        assert cli.main([*command, "--input", str(chart), "--clusters", "4",
                         "--output", str(out)]) == 0
        assert out.read_text() == json.dumps(written.pop(), indent=2) + "\n"


BASELINE_CHART = "id,P1,P2,P3,P4\nS1,1,1,0,1\nS2,0,1,0,0\nS3,1,0,1,1\nS4,0,0,0,1\nS5,1,1,1,1\n"
BASELINE_REPORT = """\
{
  "format_version": "3",
  "command": "baseline",
  "input_digest": "sha256:4d7d876a29f3c4735f7c89e07247c9dded7a01e4f5e9b69199c751405c953cc5",
  "parameters": {
    "clusters": 2,
    "trials": null,
    "seed": null,
    "drill_threshold": 0.65,
    "pretest_threshold": 0.35
  },
  "chart": {
    "students": 5,
    "problems": 4,
    "chart_type": "test",
    "average_caution": 0.44
  },
  "f1": 0.2,
  "f2": 0.25,
  "best_trial": {
    "trial_index": 0,
    "seed": null,
    "f1": 0.2,
    "f2": 0.25,
    "representatives": [],
    "sweeps_histogram": {},
    "clusters": [
      {
        "label": "C1",
        "size": 3,
        "gamma": 0.2222222222222222,
        "fixed_point": null,
        "chart_type": "drill",
        "student_ids": [
          "S5",
          "S1",
          "S3"
        ]
      },
      {
        "label": "C2",
        "size": 2,
        "gamma": 0.25,
        "fixed_point": null,
        "chart_type": "pretest",
        "student_ids": [
          "S2",
          "S4"
        ]
      }
    ]
  },
  "trials": [
    {
      "trial": 0,
      "seed": null,
      "f1": 0.2,
      "f2": 0.25,
      "clusters": 2
    }
  ]
}
"""


def test_baseline_report_bytes(tmp_path):
    # a one-trial cluster report with no seed, representatives or sweeps
    chart, out = tmp_path / "chart.csv", tmp_path / "baseline.json"
    chart.write_text(BASELINE_CHART)
    assert cli.main(["baseline", "--input", str(chart), "--clusters", "2",
                     "--output", str(out)]) == 0
    assert out.read_text() == BASELINE_REPORT


CLUSTER_CHART = (
    "id,P1,P2,P3,P4,P5\nS1,1,1,0,1,1\nS2,0,1,0,0,0\nS3,1,0,1,1,0\nS4,0,0,0,1,1\n"
    "S5,1,1,1,1,1\nS6,1,1,0,1,0\nS7,0,0,1,0,0\n"
)
CLUSTER_REPORT = """\
{
  "format_version": "3",
  "command": "cluster",
  "input_digest": "sha256:ef98aa75896e97360537b0b756b96fdce8bfb05aceccfa6f63e0a3b7cb6606d7",
  "parameters": {
    "clusters": 2,
    "trials": 3,
    "seed": 7,
    "drill_threshold": 0.65,
    "pretest_threshold": 0.35
  },
  "chart": {
    "students": 7,
    "problems": 5,
    "chart_type": "test",
    "average_caution": 0.47346938775510206
  },
  "f1": 0.42857142857142855,
  "f2": 0.2,
  "best_trial": {
    "trial_index": 2,
    "seed": 5090977316425868581,
    "f1": 0.42857142857142855,
    "f2": 0.2,
    "representatives": [
      "S4",
      "S1"
    ],
    "sweeps_histogram": {
      "1": 3,
      "2": 4
    },
    "clusters": [
      {
        "label": "C1",
        "size": 2,
        "gamma": 0.1,
        "fixed_point": "11011",
        "chart_type": "drill",
        "student_ids": [
          "S1",
          "S5"
        ]
      },
      {
        "label": "C2",
        "size": 2,
        "gamma": 0.2,
        "fixed_point": "11100",
        "chart_type": "test",
        "student_ids": [
          "S2",
          "S6"
        ]
      },
      {
        "label": "C3",
        "size": 2,
        "gamma": 0.2,
        "fixed_point": "00100",
        "chart_type": "test",
        "student_ids": [
          "S3",
          "S7"
        ]
      },
      {
        "label": "C4",
        "size": 1,
        "gamma": 0.0,
        "fixed_point": "00011",
        "chart_type": "test",
        "student_ids": [
          "S4"
        ]
      }
    ]
  },
  "trials": [
    {
      "trial": 0,
      "seed": 13309476754707697221,
      "f1": 0.14285714285714285,
      "f2": 0.35555555555555557,
      "clusters": 2
    },
    {
      "trial": 1,
      "seed": 4414019431610648415,
      "f1": 0.7142857142857143,
      "f2": 0.3,
      "clusters": 4
    },
    {
      "trial": 2,
      "seed": 5090977316425868581,
      "f1": 0.42857142857142855,
      "f2": 0.2,
      "clusters": 4
    }
  ]
}
"""
CLUSTER_STDOUT = """\
Cluster       C1      C2      C3      C4
Students       2       2       2       1
Caution    0.100   0.200   0.200   0.000
f1 = 0.429  f2 = 0.200
"""


def test_cluster_report_bytes(tmp_path, capsys):
    # the winner is the last of three trials and has more clusters than M
    chart, out = tmp_path / "chart.csv", tmp_path / "cluster.json"
    chart.write_text(CLUSTER_CHART)
    assert cli.main(["cluster", "--input", str(chart), "--clusters", "2", "--trials", "3",
                     "--seed", "7", "--output", str(out)]) == 0
    assert out.read_text() == CLUSTER_REPORT
    assert capsys.readouterr().out == CLUSTER_STDOUT
