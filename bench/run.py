"""spcluster benchmark: times whole ``spcluster cluster`` invocations.

Usage (from the repository root)::

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

The seed makes the workload's chart (``datagen.generate_chart``) and is the
clustering master seed.  Each sample is a fresh child process
(``child.py``) that imports ``spcluster.cli`` and runs
``cli.main(["cluster", ...])`` on that chart with one worker; the loop is
closed, one child at a time, for ``--seconds`` seconds.  A warm-up
invocation before the timed loop produces the reference report, which the
independent oracle (``oracle.py``) checks; every timed report must be
byte-identical to it.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` cycles through
an untraced child, a child running under the timing wrappers of
``tracer.py``, and an untraced child using the process pool
(``SPCLUSTER_WORKERS`` = nproc, at least 2), and prints the per-layer
metrics.  The last stdout line is
one JSON object: correct, attempted and failed trials, and the metrics;
the line before it is the full record (provenance, workload properties,
median and tail of every timing with its sample count).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import oracle

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
CHILD_TIMEOUT_S = 150
MIN_CYCLES = 3
TAIL_BEYOND = 10  # samples beyond the reported tail percentile
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@dataclass(frozen=True)
class Workload:
    name: str
    chart_type: str
    students: int
    problems: int
    clusters: int
    trials: int  # per invocation, sized so a run holds about 30+ samples


WORKLOADS = {
    w.name: w
    for w in (
        # README default shape: per-trial fixed cost and report serialisation
        Workload("readme-100x10", "test", 100, 10, 4, 400),
        # relaxation and grouping dominate; almost no repeated rows
        Workload("wide-2000x40", "test", 2000, 40, 8, 32),
        # ~93% repeated rows, large parse and per-student grouping, peak RSS
        Workload("tall-50000x12-drill", "drill", 50000, 12, 8, 2),
    )
}

END_TO_END_UNITS = {
    "setup_s": "s",
    "run_s_tail": "s",
    "cpu_s_tail": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER_UNITS = {
    "spchart.parse_chart.s": "s",
    "spchart.parse_chart.mb_per_s": "MB/s",
    "spchart.report_helpers.s": "s",
    "hopfield.converge_many.self_s": "s",
    "hopfield.converge_many.rows": "count",
    "hopfield.converge_many.sweeps_per_row.mean": "count",
    "hopfield.converge_many.field_evals": "count",
    "hopfield.converge_many.madds": "count",
    "hopfield.converge_many.ns_per_field_eval": "ns",
    "hopfield.converge_many.dup_row_frac": "ratio",
    "hopfield.hebbian_learn.s": "s",
    "hopfield.bipolar_from_binary.s": "s",
    "hopfield.check_weights.s": "s",
    "clustering.run_trials.s": "s",
    "clustering.run_trials.self_s": "s",
    "clustering.trial.ms_p50": "ms",
    "clustering.trial.ms_tail": "ms",
    "clustering.trial.tail_pct": "%",
    "clustering.trial.count": "count",
    "clustering.trial_seed.s": "s",
    "clustering.select_representatives.s": "s",
    "clustering.f1.s": "s",
    "clustering.f2.s": "s",
    "clustering.rnn_cluster.self_s": "s",
    "clustering.trials_reaching_m.frac": "ratio",
    "clustering.pool.cpu_s_children": "s",
    "clustering.pool.efficiency": "ratio",
    "report.build_cluster_report.self_s": "s",
    "report.report_json.s": "s",
    "report.bytes": "B",
    "cli.main.self_s": "s",
    "trace.overhead_s": "s",
}


def tail(values: list[float]) -> tuple[float, int]:
    """The highest percentile with at least TAIL_BEYOND samples beyond it,
    and that percentile; the median (50) when there are too few samples."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= 2 * TAIL_BEYOND:
        return statistics.median(ordered), 50
    return ordered[n - TAIL_BEYOND - 1], (100 * (n - TAIL_BEYOND)) // n


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip()


class Runner:
    """Launches measured children for one workload in a scratch directory."""

    def __init__(self, workload: Workload, seed: int, workdir: Path) -> None:
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.pool_workers = max(2, nproc())
        self.chart_path = workdir / "chart.csv"
        self.count = 0

    def env(self, workers: int) -> dict[str, str]:
        env = dict(os.environ)
        env["PYTHONPATH"] = str(SRC)
        # like an ordinary install, import compiled bytecode after the warm-up
        env.pop("PYTHONDONTWRITEBYTECODE", None)
        env["SPCLUSTER_WORKERS"] = str(workers)
        if workers > 1:
            for var in BLAS_VARS:  # total threads stay within nproc
                env[var] = str(max(1, nproc() // workers))
        return env

    def blas_setting(self, workers: int) -> str:
        env = self.env(workers)
        return ",".join(f"{v}={env[v]}" for v in BLAS_VARS if v in env) or "library default"

    def invoke(self, kind: str = "plain") -> dict:
        """One child of ``kind`` plain, traced or pool: returns its
        measurements plus setup_s and the report bytes."""
        self.count += 1
        tag = f"{self.count:05d}"
        result_path = self.workdir / f"result-{tag}.json"
        report_path = self.workdir / f"report-{tag}.json"
        w = self.workload
        argv = [
            sys.executable, str(BENCH / "child.py"), str(result_path),
            "1" if kind == "traced" else "0", "cluster", "--input", str(self.chart_path),
            "--clusters", str(w.clusters), "--trials", str(w.trials),
            "--seed", str(self.seed), "--output", str(report_path),
        ]
        launched = time.monotonic()
        proc = subprocess.run(
            argv, env=self.env(self.pool_workers if kind == "pool" else 1), cwd=self.workdir,
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
            timeout=CHILD_TIMEOUT_S,
        )
        if proc.returncode != 0 or not result_path.exists():
            raise RuntimeError(f"benchmark child failed ({proc.returncode}): {proc.stderr.strip()}")
        result = json.loads(result_path.read_text())
        result["setup_s"] = result.pop("ready") - launched
        result["report"] = report_path.read_bytes() if report_path.exists() else None
        result_path.unlink()
        if report_path.exists():
            report_path.unlink()
        return result


def layer_values(snap: dict) -> dict[str, float]:
    """Per-layer values of one traced invocation."""
    spans = snap["spans"]
    total = defaultdict(float, {k: v[1] for k, v in spans.items()})
    self_s = defaultdict(float, {k: v[2] for k, v in spans.items()})
    c = defaultdict(float, snap["counters"])
    rows = c["converge_rows"]
    evals = c["field_evals"]
    parse_s = total["spchart.parse_chart"]
    return {
        "spchart.parse_chart.s": parse_s,
        "spchart.parse_chart.mb_per_s": c["parse_bytes"] / 1e6 / parse_s if parse_s else 0.0,
        "spchart.report_helpers.s": c["report_helpers_s"],
        "hopfield.converge_many.self_s": self_s["hopfield.converge_many"],
        "hopfield.converge_many.rows": rows,
        "hopfield.converge_many.sweeps_per_row.mean": c["converge_sweeps"] / rows if rows else 0.0,
        "hopfield.converge_many.field_evals": evals,
        "hopfield.converge_many.madds": c["madds"],
        "hopfield.converge_many.ns_per_field_eval": self_s["hopfield.converge_many"] / evals * 1e9 if evals else 0.0,
        "hopfield.converge_many.dup_row_frac": c["dup_rows"] / rows if rows else 0.0,
        "hopfield.hebbian_learn.s": total["hopfield.hebbian_learn"],
        "hopfield.bipolar_from_binary.s": total["hopfield.bipolar_from_binary"],
        "hopfield.check_weights.s": total["hopfield.check_weights"],
        "clustering.run_trials.s": total["clustering.run_trials"],
        "clustering.run_trials.self_s": self_s["clustering.run_trials"],
        "clustering.trial_seed.s": total["clustering.trial_seed"],
        "clustering.select_representatives.s": total["clustering.select_representatives"],
        "clustering.f1.s": total["clustering.f1"],
        "clustering.f2.s": total["clustering.f2"],
        "clustering.rnn_cluster.self_s": self_s["clustering.rnn_cluster"],
        "report.build_cluster_report.self_s": self_s["report.build_cluster_report"],
        "report.report_json.s": total["report.report_json"],
        "report.bytes": c["report_bytes"],
        "cli.main.self_s": self_s["cli.main"],
    }


def median_of(samples: list[dict], key: str) -> float:
    return statistics.median(s[key] for s in samples)


def chart_properties(chart, csv_bytes: int) -> dict:
    unique = np.unique(chart.bits, axis=0).shape[0]
    return {
        "students": chart.num_students,
        "problems": chart.num_problems,
        "unique_rows_frac": unique / chart.num_students,
        "chart_bytes": csv_bytes,
        "mean_correct_rate": float(chart.bits.mean()),
    }


def run(workload: Workload, seed: int, seconds: float, trace: bool, workdir: Path) -> tuple[dict, dict]:
    """Measure one workload; returns (result line, full record)."""
    from spcluster import datagen, spchart

    chart = datagen.generate_chart(
        datagen.GenSpec(spchart.ChartType(workload.chart_type), workload.students, workload.problems, seed)
    )
    csv = spchart.chart_to_csv(chart).encode()
    runner = Runner(workload, seed, workdir)
    runner.chart_path.write_bytes(csv)

    # warm-up: fills caches, produces the reference report for the oracle
    first = runner.invoke()
    problems: list[str] = []
    reference = first["report"]
    doc = None
    if first["exit_code"] != 0 or reference is None:
        problems.append(f"warm-up exited with {first['exit_code']}")
    else:
        doc = json.loads(reference)
        problems += oracle.check_report(doc, chart.bits, chart.student_ids, workload.clusters, workload.trials)
    error_trials = sum("error" in r for r in doc["trials"]) if doc else workload.trials

    kinds = ["plain", "traced", "pool"] if trace else ["plain"]
    samples: dict[str, list[dict]] = {k: [] for k in kinds}
    attempted, failed = workload.trials, error_trials
    start = time.monotonic()
    cycles = 0
    while cycles < MIN_CYCLES or time.monotonic() - start < seconds:
        for kind in kinds:
            s = runner.invoke(kind)
            attempted += workload.trials
            if s["exit_code"] != 0 or s["report"] != reference:
                problems.append(f"{kind} invocation {runner.count}: exit {s['exit_code']} or report differs")
                failed += workload.trials
            else:
                failed += error_trials
            del s["report"]
            samples[kind].append(s)
        cycles += 1

    plain = samples["plain"]
    timings = {}
    for key in ("setup_s", "run_s", "cpu_s"):
        value, pct = tail([s[key] for s in plain])
        timings[key] = {"p50": median_of(plain, key), "tail": value, "tail_pct": pct, "n": len(plain)}
    if not trace:
        values = {
            "setup_s": timings["setup_s"]["p50"],
            "run_s_tail": timings["run_s"]["tail"],
            "cpu_s_tail": timings["cpu_s"]["tail"],
            "peak_rss_mb": median_of(plain, "peak_rss_mb"),
        }
        units = END_TO_END_UNITS
    else:
        traced = samples["traced"]
        per = [layer_values(s["trace"]) for s in traced]
        values = {k: statistics.median(p[k] for p in per) for k in per[0]}
        trial_ms = [t for s in traced for t in s["trace"]["trial_ms"]]
        if not trial_ms:
            problems.append("traced invocations recorded no trial spans")
            trial_ms = [0.0]
        values["clustering.trial.ms_p50"] = statistics.median(trial_ms)
        values["clustering.trial.ms_tail"], values["clustering.trial.tail_pct"] = tail(trial_ms)
        values["clustering.trial.count"] = len(trial_ms)
        values["clustering.trials_reaching_m.frac"] = (
            sum(r["clusters"] >= workload.clusters for r in doc["trials"]) / len(doc["trials"]) if doc else 0.0
        )
        pool = samples["pool"]
        values["clustering.pool.cpu_s_children"] = median_of(pool, "cpu_children_s")
        values["clustering.pool.efficiency"] = median_of(plain, "run_s") / (
            runner.pool_workers * median_of(pool, "run_s")
        )
        values["trace.overhead_s"] = median_of(traced, "run_s") - median_of(plain, "run_s")
        units = PER_LAYER_UNITS

    histogram = doc["best_trial"]["sweeps_histogram"] if doc else {}
    record = {
        "workload": workload.name,
        "seed": seed,
        "chart_seed": seed,
        "master_seed": seed,
        "trials_per_invocation": workload.trials,
        "provenance": {
            "nproc": nproc(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "workers": 1,
            "blas_threads": runner.blas_setting(1),
            "pool_workers": runner.pool_workers,
            "pool_blas_threads": runner.blas_setting(runner.pool_workers),
            "git_commit": git_commit(),
        },
        "properties": {
            **chart_properties(chart, len(csv)),
            "mean_sweeps_per_row": (
                sum(int(k) * v for k, v in histogram.items()) / chart.num_students if histogram else None
            ),
        },
        "report": {
            "sha256": hashlib.sha256(reference).hexdigest() if reference else None,
            "winning_trial": doc["best_trial"]["trial_index"] if doc else None,
            "bytes": len(reference) if reference else 0,
        },
        "samples": {k: len(v) for k, v in samples.items()},
        "run_s_samples": [s["run_s"] for s in plain],
        "timings": timings,
        "problems": problems,
    }
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }
    return result, record


def print_table(result: dict, record: dict) -> None:
    print(f"workload {record['workload']}  seed {record['seed']}  samples {record['samples']}")
    for name, m in result["metrics"].items():
        print(f"  {name:<46} {m['value']:>14.6g} {m['unit']}")
    for name, t in record["timings"].items():
        print(f"  {name} p50 {t['p50']:.6g} s, p{t['tail_pct']} {t['tail']:.6g} s, n={t['n']}")
    for message in record["problems"]:
        print(f"  FAILED: {message}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not (SRC / "spcluster" / "__init__.py").is_file():
        print(f"error: no spcluster sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    workdir = ROOT / ".bench_runs" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        result, record = run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print_table(result, record)
    print("record " + json.dumps(record, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
