"""Command-line interface.

Subcommands: ``cluster`` (random-restart attractor clustering),
``baseline`` (score-quantile split), ``inspect`` (rearranged chart with
curves) and ``generate`` (synthetic charts).  Exit codes: 0 ok, 1
input/parse error, 2 invalid parameters, 141 stdout closed by its reader.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

# One BLAS thread per process: trials, spread over SPCLUSTER_WORKERS worker
# processes, are the only parallelism, and BLAS helper threads only spin or
# oversubscribe the cores.  numpy reads these once, when it loads; a value the
# user set wins, and once numpy has loaded they would only reach child processes.
if "numpy" not in sys.modules:
    for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(_var, "1")

from . import clustering, datagen, render, report, spchart  # noqa: E402

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_PARAMS = 2
EXIT_BROKEN_PIPE = 141  # 128 + SIGPIPE, as a shell reports a process the signal ended


class _Failure(Exception):
    """Ends a command: ``main`` prints ``error: <message>`` and returns the code."""


def _workers() -> int:
    """The worker count that SPCLUSTER_WORKERS sets (default 1)."""
    raw = os.environ.get("SPCLUSTER_WORKERS", "").strip()
    try:
        count = int(raw or "1")
    except ValueError:
        count = 0
    if count < 1:
        raise _Failure(EXIT_PARAMS, f"SPCLUSTER_WORKERS must be a positive integer, got {raw!r}")
    return count


def _load_chart(path: str) -> tuple[bytes, spchart.SPChart]:
    """The raw bytes and parsed chart at ``path``."""
    try:
        raw = Path(path).read_bytes()
        chart = spchart.parse_chart(raw)
    except (OSError, spchart.ChartError) as exc:
        raise _Failure(EXIT_PARSE, f"--input: {exc}") from exc
    return raw, chart


def _emit_cluster_charts(result: clustering.Clustering, out_dir: str) -> None:
    directory = Path(out_dir)
    directory.mkdir(parents=True, exist_ok=True)
    for k, cluster in enumerate(result.clusters, start=1):
        sub = spchart.rearrange(spchart.take_rows(result.chart, cluster.member_indices))
        name = f"cluster_{k:02d}"
        (directory / f"{name}.csv").write_text(spchart.chart_to_csv(sub), encoding="utf-8")
        (directory / f"{name}.svg").write_text(render.render_svg(sub), encoding="utf-8")


def _write_report(
    args: argparse.Namespace,
    raw: bytes,
    parameters: dict,
    best: clustering.TrialReport,
    summaries: list[clustering.TrialSummary],
    emit_dir: str | None = None,
) -> int:
    """Write the report (and the per-cluster charts into ``emit_dir``), then
    print the winner's table."""
    doc = report.build_cluster_report(args.command, raw, parameters, best, summaries)
    try:
        Path(args.output).write_text(report.report_json(doc), encoding="utf-8")
        if emit_dir:
            _emit_cluster_charts(best.clustering, emit_dir)
    except OSError as exc:
        flags = "--output/--emit-charts" if emit_dir else "--output"
        raise _Failure(EXIT_PARAMS, f"{flags}: {exc}") from exc
    clusters = doc["best_trial"]["clusters"]
    print("Cluster " + "".join(f"{c['label']:>8}" for c in clusters))
    print("Students" + "".join(f"{c['size']:>8}" for c in clusters))
    print("Caution " + "".join(f"{c['gamma']:>8.3f}" for c in clusters))
    print(f"f1 = {best.summary.f1:.3f}  f2 = {best.summary.f2:.3f}")
    return EXIT_OK


def cmd_cluster(args: argparse.Namespace) -> int:
    raw, chart = _load_chart(args.input)
    best, summaries = clustering.run_trials(
        chart, args.clusters, args.trials, args.seed, workers=_workers()
    )
    parameters = {"clusters": args.clusters, "trials": args.trials, "seed": args.seed}
    return _write_report(args, raw, parameters, best, summaries, args.emit_charts)


def cmd_baseline(args: argparse.Namespace) -> int:
    raw, chart = _load_chart(args.input)
    best = clustering.score_baseline(chart, args.clusters)
    parameters = {"clusters": args.clusters, "trials": None, "seed": None}
    return _write_report(args, raw, parameters, best, [best.summary])


def _print_all(text: str) -> None:
    """Write ``text`` to stdout in full, each "\n" as ``os.linesep`` as
    ``print`` writes it: unbuffered stdout (``python -u``) drops what the
    file does not take of a write, as when a pipe's reader leaves."""
    if not hasattr(sys.stdout, "buffer"):  # a text stream, as redirect_stdout sets
        sys.stdout.write(text)
        return
    sys.stdout.flush()
    text = text.replace("\n", os.linesep)
    try:
        view = memoryview(text.encode(sys.stdout.encoding, sys.stdout.errors))
    except UnicodeEncodeError as exc:
        message = f"stdout ({sys.stdout.encoding}) cannot encode the output; use --output"
        raise _Failure(EXIT_PARAMS, message) from exc
    while view:  # the rest is written again, or raises BrokenPipeError
        written = sys.stdout.buffer.write(view)
        if written is not None:  # None: a non-blocking file would block
            view = view[written:]


def cmd_inspect(args: argparse.Namespace) -> int:
    _, chart = _load_chart(args.input)
    sp = spchart.rearrange(chart)
    rendering = render.render_text(sp) if args.format == "txt" else render.render_svg(sp)
    summary = (
        f"students: {chart.num_students}  problems: {chart.num_problems}\n"
        f"chart type: {spchart.classify_type(chart).value}\n"
        f"average caution: {spchart.average_caution(chart):.6f}\n"
        f"S: {' '.join(map(str, sp.bits.sum(axis=1).tolist()))}\n"
        f"P: {' '.join(map(str, sp.bits.sum(axis=0).tolist()))}\n"
    )
    if args.output:  # written first, so that a failed write prints nothing
        try:
            Path(args.output).write_text(rendering, encoding="utf-8")
        except OSError as exc:
            raise _Failure(EXIT_PARAMS, f"--output: {exc}") from exc
    _print_all(summary if args.output else summary + rendering)
    return EXIT_OK


def cmd_generate(args: argparse.Namespace) -> int:
    try:
        spec = datagen.GenSpec(
            chart_type=spchart.ChartType(args.type),
            students=args.students,
            problems=args.problems,
            seed=args.seed,
            noise=args.noise,
        )
    except ValueError as exc:
        raise _Failure(EXIT_PARAMS, str(exc)) from exc
    chart = datagen.generate_chart(spec)
    try:
        Path(args.output).write_text(spchart.chart_to_csv(chart), encoding="utf-8")
    except OSError as exc:
        raise _Failure(EXIT_PARAMS, f"--output: {exc}") from exc
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
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
    except _Failure as exc:
        code, message = exc.args
        print(f"error: {message}", file=sys.stderr)
        return code
    except clustering.ClusteringError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARAMS
    except BrokenPipeError:
        # the reader closed stdout early; send what is still buffered to
        # devnull so that flushing it at exit cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    return code


if __name__ == "__main__":
    raise SystemExit(main())
