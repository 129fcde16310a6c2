"""Command-line interface.

Subcommands: ``cluster`` (random-restart attractor clustering),
``baseline`` (score-quantile split), ``inspect`` (rearranged chart with
curves) and ``generate`` (synthetic charts).  Exit codes: 0 ok, 1
input/parse error, 2 invalid parameters or an output, stdout included,
that cannot be written, 141 stdout closed by its reader.
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


def _write_file(flag: str, path: str | Path, text: str, *, mkdir: bool = False) -> None:
    """Write ``text`` to ``path`` as UTF-8, first making its directory if
    ``mkdir``; a failure ends the command with a message naming ``flag``."""
    try:
        if mkdir:
            Path(path).parent.mkdir(parents=True, exist_ok=True)
        Path(path).write_text(text, encoding="utf-8")
    except OSError as exc:
        raise _Failure(EXIT_PARAMS, f"{flag}: {exc}") from exc


def _print_all(text: str) -> None:
    """Write ``text`` to stdout in full, each "\n" as ``os.linesep`` as
    ``print`` writes it, or raise BrokenPipeError when the reader has left.
    The bytes go to the raw file below stdout's buffer, a write at a time,
    as unbuffered stdout (``python -u``) does: the loop writes again what
    the file did not take, and no byte stays buffered for Python's flush
    at exit to retry after a failed write."""
    if sys.stdout is None:  # file descriptor 1 was closed when Python started
        raise _Failure(EXIT_PARAMS, "stdout is closed")
    if not hasattr(sys.stdout, "buffer"):  # a text stream, as redirect_stdout sets
        sys.stdout.write(text)
        return
    text = text.replace("\n", os.linesep)
    try:
        view = memoryview(text.encode(sys.stdout.encoding, sys.stdout.errors))
    except UnicodeEncodeError as exc:
        message = f"stdout ({sys.stdout.encoding}) cannot encode the output; use --output"
        raise _Failure(EXIT_PARAMS, message) from exc
    raw = getattr(sys.stdout.buffer, "raw", sys.stdout.buffer)
    try:
        sys.stdout.flush()
        while view:  # the rest is written again
            written = raw.write(view)
            if written is not None:  # None: a non-blocking file would block
                view = view[written:]
    except BrokenPipeError:
        raise
    except OSError as exc:
        raise _Failure(EXIT_PARAMS, f"stdout: {exc}") from exc


def _emit_cluster_charts(result: clustering.Clustering, out_dir: str) -> None:
    for k, cluster in enumerate(result.clusters, start=1):
        sub = spchart.rearrange(spchart.take_rows(result.chart, cluster.member_indices))
        name = Path(out_dir) / f"cluster_{k:02d}"
        _write_file("--emit-charts", name.with_suffix(".csv"), spchart.chart_to_csv(sub), mkdir=True)
        _write_file("--emit-charts", name.with_suffix(".svg"), render.render_svg(sub), mkdir=True)


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
    _write_file("--output", args.output, report.report_json(doc))
    if emit_dir:
        _emit_cluster_charts(best.clustering, emit_dir)
    clusters = doc["best_trial"]["clusters"]
    table = (
        "Cluster " + "".join(f"{c['label']:>8}" for c in clusters),
        "Students" + "".join(f"{c['size']:>8}" for c in clusters),
        "Caution " + "".join(f"{c['gamma']:>8.3f}" for c in clusters),
        f"f1 = {best.summary.f1:.3f}  f2 = {best.summary.f2:.3f}",
    )
    _print_all("\n".join(table) + "\n")
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
        _write_file("--output", args.output, rendering)
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
    _write_file("--output", args.output, spchart.chart_to_csv(chart))
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
        return args.func(args)
    except _Failure as exc:
        code, message = exc.args
        print(f"error: {message}", file=sys.stderr)
        return code
    except clustering.ClusteringError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARAMS
    except BrokenPipeError:  # the reader closed stdout early
        return EXIT_BROKEN_PIPE


if __name__ == "__main__":
    raise SystemExit(main())
