"""One measured ``spcluster`` invocation, run as a fresh process.

Usage: child.py RESULT_JSON TRACE CLI_ARG...

Imports ``spcluster.cli`` (the set-up being measured), then times
``cli.main(CLI_ARG...)`` and writes the measurements to RESULT_JSON.  With
TRACE set to 1 the timing wrappers from ``tracer.py`` are installed after
the import and their spans are written too.  ``ready`` is read from
``time.monotonic``, the same system-wide clock the launching process
reads, so the launcher can subtract its launch time.
"""

import json
import resource
import sys
import time


def _cpu(who: int) -> float:
    usage = resource.getrusage(who)
    return usage.ru_utime + usage.ru_stime


def _timed(cli, argv: list[str]) -> dict:
    self0, children0 = _cpu(resource.RUSAGE_SELF), _cpu(resource.RUSAGE_CHILDREN)
    start = time.perf_counter()
    code = cli.main(argv)
    run_s = time.perf_counter() - start
    children = _cpu(resource.RUSAGE_CHILDREN) - children0
    return {
        "exit_code": code,
        "run_s": run_s,
        "cpu_s": _cpu(resource.RUSAGE_SELF) - self0 + children,
        "cpu_children_s": children,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def main() -> int:
    result_path, trace, *argv = sys.argv[1:]
    import spcluster.cli as cli

    ready = time.monotonic()
    if trace != "1":
        result = _timed(cli, argv)
    else:
        import tracer as tracing

        tracer = tracing.Tracer()
        with tracing.installed(tracer):
            result = _timed(cli, argv)
        result["trace"] = tracer.snapshot()
    result["ready"] = ready
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
