"""Golden digests of the outputs that must not move.

Each case generates a chart at one of the benchmark's shapes, runs the CLI
on it in process and compares the sha256 of every byte it writes with
``tests/golden.json``: the ``cluster`` and ``baseline`` reports and tables
for seeds 1-3, and the ``inspect`` renderings and every ``--emit-charts``
file for readme and wide at seed 1.  A change that moves these bytes on
purpose rewrites the file with

    PYTHONPATH=src python tests/test_golden.py

and names each moved digest and why it moved.  Byte identity across
worker counts, hash seeds and BLAS threads needs fresh processes; CI's
"CLI smoke run" checks it.
"""

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

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


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _stdout(argv: list[str]) -> bytes:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(argv) == 0, argv
    return out.getvalue().encode()


def digests(workdir: Path) -> tuple[dict[str, str], dict[str, str]]:
    """The sha256 of each generated chart's CSV, and of each output on them."""
    charts, outputs = {}, {}
    for name, (kind, students, problems, m, trials) in SHAPES.items():
        for seed in SEEDS:
            key = f"{name}-{seed}"
            spec = datagen.GenSpec(spchart.ChartType(kind), students, problems, seed)
            csv = spchart.chart_to_csv(datagen.generate_chart(spec)).encode()
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


def test_outputs_match_golden_digests(tmp_path, monkeypatch):
    monkeypatch.delenv(cli.clustering.WORKERS_ENV_VAR, raising=False)
    golden = json.loads(GOLDEN.read_text())
    charts, outputs = digests(tmp_path)
    assert charts == golden["charts"], (
        "the generated charts moved (numpy's Generator stream or datagen changed), "
        "so no output digest can be compared"
    )
    assert outputs == golden["outputs"]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as scratch:
        charts, outputs = digests(Path(scratch))
    GOLDEN.write_text(json.dumps({"charts": charts, "outputs": outputs}, indent=2) + "\n")
    print(f"wrote {len(charts)} chart and {len(outputs)} output digests to {GOLDEN}", file=sys.stderr)
