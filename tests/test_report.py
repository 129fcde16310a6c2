import json
import math

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


def test_writer_rejects_what_json_rejects():
    for value in ({"a": {1, 2}}, [b"bytes"], {"a": [object()]}):
        with pytest.raises(TypeError):
            json.dumps(value, indent=2)
        with pytest.raises(TypeError):
            report.report_json(value)


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
