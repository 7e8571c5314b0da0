"""Run `matschroed check` over seeded specs and write one JSON line per spec.

    python tests/sweep.py wide --seed 7 --count 200 > sweep.jsonl

The generators are those of `tests/specs.py` (item10, wide, rational).  Every spec runs in process, with
RuntimeWarnings as errors, twice: built and checked under a clock, then through `cli.main(["check", ...])`, for
its exit code and printed lines.  Each line holds the spec and n_max; `exit` (null when an exception escaped
`cli.main`, named in `error`), `stdout` and `stderr`; the build time and the smallest `null_margin`; and per
`check` line its residual, limit, time and, for the lines read per n, the worst n.  The counts of each exit code
go to standard error.  pytest does not collect this file.
"""

import argparse
import contextlib
import io
import json
import sys
import time
import warnings
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402
from specs import GENERATORS  # noqa: E402

from matschroed import cli, operators  # noqa: E402
from matschroed.families import ConsistencyError, build_family  # noqa: E402


def per_n(ctx):
    """The residual per n of each `check` line made of one, as `cli.check_lines` reads it: {name: array}."""
    reports = {"orthonormality": operators.orthonormality_residual, "schrodinger": operators.schrodinger_residual,
               "fourier_eigen": operators.fourier_eigen_residual}
    lines = {name: report(ctx).relative for name, report in reports.items()}
    variants = [(f, s) for f in ("even", "odd") for s in (1, -1)] if ctx.spec.kind == 1 else [("even", 1)]
    lines["real_integral"] = np.max([operators.real_integral_residual(ctx, *v).relative for v in variants], axis=0)
    if ctx.n_max > 0:
        lines["three_term"] = operators.three_term_residual(ctx).relative
    return lines


def measure(spec, n_max):
    """Build and check one spec under a clock: the record's build and line fields."""
    start = time.perf_counter()
    ctx = build_family(spec, n_max)
    record = {"build_ms": 1e3 * (time.perf_counter() - start), "min_null_margin": float(ctx.null_margin.min())}
    lines, last = {}, time.perf_counter()
    for name, residual, limit in cli.check_lines(ctx, cli.DEFAULT_TOL, cli.DEFAULT_SEED):
        now = time.perf_counter()
        lines[name], last = {"residual": float(residual), "limit": float(limit), "ms": 1e3 * (now - last)}, now
    for name, relative in per_n(ctx).items():
        lines[name]["worst_n"] = int(np.argmax(relative))
    record["lines"] = lines
    return record


def run(spec, n_max):
    record = {"spec": json.loads(spec.to_json()), "n_max": n_max, "exit": None}
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.suppress(ValueError, ConsistencyError):  # `check` exits 2 on these, with the message
            record.update(measure(spec, n_max))  # first, so no line reads tables that `check` has kept
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            record["exit"] = cli.main(["check", "--spec", spec.to_json(), "--nmax", str(n_max)])
    except Exception as exc:  # a traceback `check` would print: recorded, and the sweep goes on
        record["error"] = f"{type(exc).__name__}: {exc}"
    record["stdout"], record["stderr"] = out.getvalue().splitlines(), err.getvalue().splitlines()
    return record


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("generator", choices=sorted(GENERATORS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--count", type=int, required=True)
    args = p.parse_args(argv)
    warnings.simplefilter("error", RuntimeWarning)
    exits = Counter()
    for index, (spec, n_max) in enumerate(GENERATORS[args.generator](args.seed, args.count)):
        record = {"index": index, **run(spec, n_max)}
        exits[record["exit"]] += 1
        print(json.dumps(record), flush=True)
    print("exit codes: " + ", ".join(f"{code}: {n}" for code, n in sorted(exits.items(), key=str)), file=sys.stderr)


if __name__ == "__main__":
    main()
