"""One timed conecalc CLI run in a fresh interpreter.

Usage: python conebench/child.py [--import-only] [--spans PATH] -- ARGV...

Imports ``conecalc.cli``, calls ``cli.main(ARGV)`` and prints one JSON
line: the exit code, the import time, the time from the call into
``cli.main`` until it returns (after the report is written), the peak RSS
and, with ``--spans``, the per-layer trace summary.  The spans themselves
go to PATH.  ``--import-only`` stops after the import.
"""

import json
import resource
import sys
import time


def main(argv: list) -> int:
    sep = argv.index("--")
    opts, cli_argv = argv[:sep], argv[sep + 1:]
    spans_path = opts[opts.index("--spans") + 1] if "--spans" in opts else None

    t0 = time.perf_counter()
    from conecalc import cli
    setup_s = time.perf_counter() - t0
    out = {"setup_s": setup_s, "module": cli.__file__}
    if "--import-only" in opts:
        print(json.dumps(out))
        return 0

    tracer = None
    if spans_path is not None:
        import tracer as tracing

        tracer = tracing.Tracer().install()
    t1 = time.perf_counter()
    rc = cli.main(cli_argv)
    wall_s = time.perf_counter() - t1
    out.update(rc=rc, wall_s=wall_s,
               peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    if tracer is not None:
        out["trace"] = tracer.summary(wall_s)
        tracer.write(spans_path)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
