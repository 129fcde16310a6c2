"""Golden digests of the outputs that must not move.

Each case generates a chart at one of the benchmark's shapes, runs the CLI
on it in process and compares the sha256 of every byte it writes with
``tests/golden.json``: the ``cluster`` and ``baseline`` reports and tables
for seeds 1-3, and the ``inspect`` renderings and every ``--emit-charts``
file for readme and wide at seed 1.  A change that moves these bytes on
purpose rewrites the file with

    PYTHONPATH=src python tests/test_golden.py

and names each moved digest and why it moved.  The README default run is
one more in-process case.  Byte identity across worker counts, hash seeds
and BLAS threads needs fresh processes: ``python -m spcluster.cli cluster``
runs on the charts of CI's "CLI smoke run" under each environment of
``ENVIRONMENTS`` and must write the report that one process writes in
process.
"""

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

import spcluster
from spcluster import cli, datagen, spchart

GOLDEN = Path(__file__).with_name("golden.json")

# name: (chart type, students, problems, clusters, trials), as bench/run.py's workloads
SHAPES = {
    "readme": ("test", 100, 10, 4, 400),
    "wide": ("test", 2000, 40, 8, 32),
    "tall": ("drill", 50000, 12, 8, 2),
}
SEEDS = (1, 2, 3)
RENDERED = ("readme-1", "wide-1")  # tall's two renderings take about 1.4 s on a 2-core host

# name: (chart type, students, problems, clusters, trials), chart and master seed 1,
# as CI's "CLI smoke run" clusters them
SMOKE = {
    "drill-20000x14": ("drill", 20000, 14, 8, 2),  # the column loop
    "test-3000x11": ("test", 3000, 11, 4, 5),  # the state table
    "test-120x100": ("test", 120, 100, 4, 5),  # the column loop, two key words per row
}
# each sets these variables over an environment that sets none of them; two
# workers start a pool only where the process may use two CPUs
ENVIRONMENTS = {
    "workers-1": {"SPCLUSTER_WORKERS": "1"},
    "workers-2": {"SPCLUSTER_WORKERS": "2"},
    "hashseed-0": {"PYTHONHASHSEED": "0"},
    "hashseed-4242": {"PYTHONHASHSEED": "4242"},
    "blas-2-workers-2": {"OPENBLAS_NUM_THREADS": "2", "SPCLUSTER_WORKERS": "2"},
}
UNSET = ("SPCLUSTER_WORKERS", "PYTHONHASHSEED", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
README_GENERATE = ["generate", "--type", "test", "--students", "100", "--problems", "10", "--seed", "42"]
README_CLUSTER = ["cluster", "--clusters", "4", "--seed", "7"]


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _stdout(argv: list[str]) -> bytes:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(argv) == 0, argv
    return out.getvalue().encode()


def _chart_csv(kind: str, students: int, problems: int, seed: int) -> bytes:
    spec = datagen.GenSpec(spchart.ChartType(kind), students, problems, seed)
    return spchart.chart_to_csv(datagen.generate_chart(spec)).encode()


def digests(workdir: Path) -> tuple[dict[str, str], dict[str, str]]:
    """The sha256 of each generated chart's CSV, and of each output on them."""
    charts, outputs = {}, {}
    for name, (kind, students, problems, m, trials) in SHAPES.items():
        for seed in SEEDS:
            key = f"{name}-{seed}"
            csv = _chart_csv(kind, students, problems, seed)
            charts[key] = _sha(csv)
            chart = workdir / f"{key}.csv"
            chart.write_bytes(csv)
            report = workdir / f"{key}.json"
            common = ["--input", str(chart), "--clusters", str(m), "--output", str(report)]
            emit = ["--emit-charts", str(workdir / key)] if key in RENDERED else []
            stdout = _stdout(["cluster", *common, "--trials", str(trials), "--seed", str(seed), *emit])
            outputs[f"cluster/{key}"] = _sha(report.read_bytes())
            outputs[f"cluster/{key}/stdout"] = _sha(stdout)
            stdout = _stdout(["baseline", *common])
            outputs[f"baseline/{key}"] = _sha(report.read_bytes())
            outputs[f"baseline/{key}/stdout"] = _sha(stdout)
            if key in RENDERED:
                for path in sorted((workdir / key).iterdir()):
                    outputs[f"emit/{key}/{path.name}"] = _sha(path.read_bytes())
                for fmt in ("txt", "svg"):
                    outputs[f"inspect/{key}/{fmt}"] = _sha(_stdout(["inspect", "--input", str(chart), "--format", fmt]))
    return charts, outputs


def readme_default(workdir: Path) -> dict:
    """The README default run: its chart's, report's and table's digests and
    the report's length in bytes."""
    chart, report = workdir / "chart.csv", workdir / "report.json"
    assert cli.main([*README_GENERATE, "--output", str(chart)]) == 0
    stdout = _stdout([*README_CLUSTER, "--input", str(chart), "--output", str(report)])
    data = report.read_bytes()
    return {"chart": _sha(chart.read_bytes()), "report": _sha(data), "stdout": _sha(stdout), "bytes": len(data)}


def smoke_chart(workdir: Path, name: str) -> tuple[str, list[str]]:
    """Write chart ``name`` of ``SMOKE`` into ``workdir``; its digest and the
    ``cluster`` arguments that write its report to ``<name>.json``."""
    kind, students, problems, m, trials = SMOKE[name]
    csv = _chart_csv(kind, students, problems, 1)
    chart = workdir / f"{name}.csv"
    chart.write_bytes(csv)
    argv = ["cluster", "--input", str(chart), "--clusters", str(m), "--trials", str(trials),
            "--seed", "1", "--output", str(workdir / f"{name}.json")]
    return _sha(csv), argv


def smoke_digests(workdir: Path) -> dict:
    """The digests of the smoke charts and of the reports one process writes on them."""
    charts, reports = {}, {}
    for name in SMOKE:
        charts[name], argv = smoke_chart(workdir, name)
        _stdout(argv)
        reports[name] = _sha((workdir / f"{name}.json").read_bytes())
    return {"charts": charts, "reports": reports}


def test_outputs_match_golden_digests(tmp_path, monkeypatch):
    monkeypatch.delenv("SPCLUSTER_WORKERS", raising=False)
    golden = json.loads(GOLDEN.read_text())
    charts, outputs = digests(tmp_path)
    assert charts == golden["charts"], (
        "the generated charts moved (numpy's Generator stream or datagen changed), "
        "so no output digest can be compared"
    )
    assert outputs == golden["outputs"]


def test_readme_default_run_matches_golden_digests(tmp_path, monkeypatch):
    monkeypatch.delenv("SPCLUSTER_WORKERS", raising=False)
    assert readme_default(tmp_path) == json.loads(GOLDEN.read_text())["readme_default"]


@pytest.mark.parametrize("name", SMOKE)
def test_fresh_processes_write_the_golden_report(tmp_path, name):
    golden = json.loads(GOLDEN.read_text())["smoke"]
    chart_digest, argv = smoke_chart(tmp_path, name)
    assert chart_digest == golden["charts"][name], "the generated chart moved"
    src = str(Path(spcluster.__file__).parents[1])
    base = {k: v for k, v in os.environ.items() if k not in UNSET}
    base["PYTHONPATH"] = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
    reports = {}
    for label, variables in ENVIRONMENTS.items():
        done = subprocess.run([sys.executable, "-m", "spcluster.cli", *argv], env={**base, **variables},
                              capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, (label, done.stderr)
        reports[label] = _sha((tmp_path / f"{name}.json").read_bytes())
    assert reports == dict.fromkeys(ENVIRONMENTS, golden["reports"][name])


if __name__ == "__main__":
    os.environ.pop("SPCLUSTER_WORKERS", None)
    with tempfile.TemporaryDirectory() as scratch:
        charts, outputs = digests(Path(scratch))
        readme = readme_default(Path(scratch))
        smoke = smoke_digests(Path(scratch))
    doc = {"charts": charts, "outputs": outputs, "readme_default": readme, "smoke": smoke}
    GOLDEN.write_text(json.dumps(doc, indent=2) + "\n")
    print(f"wrote {len(charts)} chart and {len(outputs)} output digests, the README default run "
          f"and {len(smoke['reports'])} smoke reports to {GOLDEN}", file=sys.stderr)
