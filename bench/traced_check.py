"""Child entry for the traced `check` workload: `matschroed check` with spans.

Usage: python3 bench/traced_check.py SPANS_PATH -- <matschroed cli arguments>

Times the library import, installs the span wrappers, runs
`matschroed.cli.main` and writes {"import_ms", "spans"} as gzip JSON to
SPANS_PATH.  The exit code is the CLI's.
"""

import gzip
import json
import sys
import time

import tracing


def main():
    path, sep, *argv = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: traced_check.py SPANS_PATH -- ARGS...")
    t0 = time.perf_counter()
    import matschroed.cli as cli

    import_ms = 1e3 * (time.perf_counter() - t0)
    tracer = tracing.Tracer()
    tracing.install(tracer)
    tracer.enabled = True
    try:
        return cli.main(argv)
    finally:
        tracer.enabled = False
        with gzip.open(path, "wt") as fh:
            json.dump({"import_ms": import_ms, "spans": tracer.spans}, fh, default=int)


if __name__ == "__main__":
    sys.exit(main())
