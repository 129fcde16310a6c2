"""Command-line interface.

Subcommands: ``cluster`` (random-restart attractor clustering),
``baseline`` (score-quantile split), ``inspect`` (rearranged chart with
curves), ``generate`` (synthetic charts), and ``fixture`` (built-in
regression check).  Exit codes: 0 ok, 1 input/parse error, 2 invalid
parameters, 4 fixture check failed.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import clustering, datagen, hopfield, reference, render, report, spchart

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_PARAMS = 2
EXIT_FIXTURE = 4


def _fail(code: int, message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def _read_chart(path: str) -> tuple[bytes, spchart.SPChart]:
    raw = Path(path).read_bytes()
    return raw, spchart.parse_chart(raw)


def _print_summary(clusters: list[dict], f1_value: float, f2_value: float) -> None:
    labels = [c["label"] for c in clusters]
    print("Cluster " + "".join(f"{label:>8}" for label in labels))
    print("Students" + "".join(f"{c['size']:>8}" for c in clusters))
    print("Caution " + "".join(f"{c['gamma']:>8.3f}" for c in clusters))
    print(f"f1 = {f1_value:.3f}  f2 = {f2_value:.3f}")


def _emit_cluster_charts(doc: dict, chart: spchart.SPChart, out_dir: str) -> None:
    directory = Path(out_dir)
    directory.mkdir(parents=True, exist_ok=True)
    by_id = {sid: i for i, sid in enumerate(chart.student_ids)}
    for k, entry in enumerate(doc["best_trial"]["clusters"], start=1):
        sub = spchart.take_rows(chart, [by_id[s] for s in entry["student_ids"]])
        rc = spchart.rearrange(sub)
        (directory / f"cluster_{k:02d}.csv").write_text(spchart.chart_to_csv(rc.chart))
        (directory / f"cluster_{k:02d}.svg").write_text(render.render_svg(rc))


def cmd_cluster(args: argparse.Namespace) -> int:
    if args.clusters < 1:
        return _fail(EXIT_PARAMS, "--clusters must be at least 1")
    if args.trials < 1:
        return _fail(EXIT_PARAMS, "--trials must be at least 1")
    if args.seed < 0:
        return _fail(EXIT_PARAMS, "--seed must be non-negative")
    try:
        workers = clustering.workers_from_env()
    except ValueError as exc:
        return _fail(EXIT_PARAMS, str(exc))
    try:
        raw, chart = _read_chart(args.input)
    except (OSError, spchart.ChartError) as exc:
        return _fail(EXIT_PARSE, f"--input: {exc}")
    if args.clusters > chart.num_students:
        return _fail(
            EXIT_PARAMS,
            f"--clusters: cannot make {args.clusters} clusters from {chart.num_students} students",
        )

    best, summaries = clustering.run_trials(
        chart, args.clusters, args.trials, args.seed, workers=workers
    )

    parameters = {
        "clusters": args.clusters,
        "trials": args.trials,
        "seed": args.seed,
        "drill_threshold": spchart.DRILL_THRESHOLD,
        "pretest_threshold": spchart.PRETEST_THRESHOLD,
    }
    doc = report.build_cluster_report(chart, raw, parameters, best, summaries)
    try:
        Path(args.output).write_text(report.report_json(doc))
        if args.emit_charts:
            _emit_cluster_charts(doc, chart, args.emit_charts)
    except OSError as exc:
        return _fail(EXIT_PARAMS, f"--output/--emit-charts: {exc}")
    _print_summary(doc["best_trial"]["clusters"], best.f1, best.f2)
    return EXIT_OK


def cmd_baseline(args: argparse.Namespace) -> int:
    if args.clusters < 1:
        return _fail(EXIT_PARAMS, "--clusters must be at least 1")
    try:
        raw, chart = _read_chart(args.input)
    except (OSError, spchart.ChartError) as exc:
        return _fail(EXIT_PARSE, f"--input: {exc}")
    if args.clusters > chart.num_students:
        return _fail(
            EXIT_PARAMS,
            f"--clusters: cannot make {args.clusters} clusters from {chart.num_students} students",
        )

    result = clustering.score_baseline(chart, args.clusters)
    f1_value = clustering.f1(result.sizes(), args.clusters)
    f2_value = clustering.f2(result.gammas())
    parameters = {
        "clusters": args.clusters,
        "trials": None,
        "seed": None,
        "drill_threshold": spchart.DRILL_THRESHOLD,
        "pretest_threshold": spchart.PRETEST_THRESHOLD,
    }
    doc = report.build_baseline_report(chart, raw, parameters, result, f1_value, f2_value)
    try:
        Path(args.output).write_text(report.report_json(doc))
    except OSError as exc:
        return _fail(EXIT_PARAMS, f"--output: {exc}")
    _print_summary(doc["best_trial"]["clusters"], f1_value, f2_value)
    return EXIT_OK


def cmd_inspect(args: argparse.Namespace) -> int:
    try:
        _, chart = _read_chart(args.input)
    except (OSError, spchart.ChartError) as exc:
        return _fail(EXIT_PARSE, f"--input: {exc}")

    rc = spchart.rearrange(chart)
    rendering = render.render_text(rc) if args.format == "txt" else render.render_svg(rc)
    print(f"students: {chart.num_students}  problems: {chart.num_problems}")
    print(f"chart type: {spchart.classify_type(chart).value}")
    print(f"average caution: {spchart.average_caution(chart):.6f}")
    print("S:", " ".join(str(s) for s in rc.s_totals))
    print("P:", " ".join(str(p) for p in rc.p_totals))
    if args.output:
        try:
            Path(args.output).write_text(rendering)
        except OSError as exc:
            return _fail(EXIT_PARAMS, f"--output: {exc}")
    else:
        print(rendering, end="")
    return EXIT_OK


def cmd_generate(args: argparse.Namespace) -> int:
    if args.students < 1:
        return _fail(EXIT_PARAMS, "--students must be at least 1")
    if args.problems < 1:
        return _fail(EXIT_PARAMS, "--problems must be at least 1")
    if args.seed < 0:
        return _fail(EXIT_PARAMS, "--seed must be non-negative")
    if not 0.0 <= args.noise <= 0.5:
        return _fail(EXIT_PARAMS, "--noise must be in [0, 0.5]")
    spec = datagen.GenSpec(
        chart_type=spchart.ChartType(args.type),
        students=args.students,
        problems=args.problems,
        seed=args.seed,
        noise=args.noise,
    )
    chart = datagen.generate_chart(spec)
    try:
        Path(args.output).write_text(spchart.chart_to_csv(chart))
    except OSError as exc:
        return _fail(EXIT_PARAMS, f"--output: {exc}")
    return EXIT_OK


def cmd_fixture(_args: argparse.Namespace) -> int:
    print("reference patterns:")
    for pattern in reference.REFERENCE_PATTERNS:
        print("  " + "".join(str(b) for b in pattern))
    learned = hopfield.hebbian_learn(np.array(reference.REFERENCE_PATTERNS))
    print("learned weights:")
    for row in learned:
        print("  " + " ".join(f"{int(v):3d}" for v in row))
    failures = reference.verify()
    points = hopfield.enumerate_fixed_points(learned)
    print(f"fixed points found: {len(points)}")
    for p in points:
        print("  " + "".join(str(int(b)) for b in hopfield.binary_from_bipolar(p)))
    if failures:
        for message in failures:
            print(f"fixture check failed: {message}", file=sys.stderr)
        return EXIT_FIXTURE
    print("fixture checks passed")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spcluster",
        description="Cluster binary S-P charts with an attractor network.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_cluster = sub.add_parser("cluster", help="random-restart attractor clustering")
    p_cluster.add_argument("--input", required=True, help="chart CSV path")
    p_cluster.add_argument("--clusters", type=int, default=4, help="desired cluster count M")
    p_cluster.add_argument("--trials", type=int, default=10000, help="random restarts")
    p_cluster.add_argument("--seed", type=int, default=0, help="master seed")
    p_cluster.add_argument("--output", required=True, help="JSON report path")
    p_cluster.add_argument("--emit-charts", help="directory for per-cluster CSV/SVG charts")
    p_cluster.set_defaults(func=cmd_cluster)

    p_base = sub.add_parser("baseline", help="score-quantile baseline clustering")
    p_base.add_argument("--input", required=True)
    p_base.add_argument("--clusters", type=int, default=4)
    p_base.add_argument("--output", required=True)
    p_base.set_defaults(func=cmd_baseline)

    p_inspect = sub.add_parser("inspect", help="render the rearranged chart with curves")
    p_inspect.add_argument("--input", required=True)
    p_inspect.add_argument("--format", choices=("txt", "svg"), default="txt")
    p_inspect.add_argument("--output", help="rendering path (default: stdout)")
    p_inspect.set_defaults(func=cmd_inspect)

    p_gen = sub.add_parser("generate", help="write a synthetic chart CSV")
    p_gen.add_argument("--type", choices=("test", "drill", "pretest"), required=True)
    p_gen.add_argument("--students", type=int, required=True)
    p_gen.add_argument("--problems", type=int, required=True)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--noise", type=float, default=0.0)
    p_gen.add_argument("--output", required=True)
    p_gen.set_defaults(func=cmd_generate)

    p_fix = sub.add_parser("fixture", help="run the built-in regression fixture")
    p_fix.set_defaults(func=cmd_fixture)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
