"""Spans around the library's layer boundaries, recorded from outside the library.

`install` replaces each public function listed in LAYERS with a wrapper,
everywhere a matschroed module holds a reference to it, so calls between
modules (e.g. expansion -> hermite.gauss_hermite) become spans too.  Spans are
kept in memory as [name, start, end, parent, op, error, arg, child_time] and
summarised or written out when the run ends.
"""

import functools
import gzip
import json
import statistics
import sys
import time

# layer -> public functions; ("matpoly", name) entries are MatrixGaussian methods
LAYERS = {
    "structmat": ["build_structured", "nilpotent_series", "phase_diag"],
    "hermite": ["gauss_hermite"],
    "matpoly": ["call", "poly_at", "fourier"],
    "families": ["build_family"],
    "operators": [
        "transform_apply",
        "quadrature_transform",
        "real_integral_residual",
        "schrodinger_residual",
        "fourier_eigen_residual",
    ],
    "expansion": ["inner_product", "expand", "reconstruct", "band_pattern"],
}
METHODS = {"call": "__call__", "poly_at": "poly_at", "fourier": "fourier"}
# spans whose first argument is recorded, for distinct-argument ratios
KEYED = {"hermite.gauss_hermite"}

NAME, START, END, PARENT, OP, ERROR, ARG, CHILD = range(8)


class Tracer:
    """In-memory span recorder; records only while `enabled` is true."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.op = None
        self.enabled = False

    def wrap(self, name, fn):
        keyed = name in KEYED

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            parent = self.stack[-1] if self.stack else -1
            rec = [name, 0.0, 0.0, parent, self.op, 0, args[0] if keyed and args else None, 0.0]
            self.stack.append(len(self.spans))
            self.spans.append(rec)
            rec[START] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                rec[ERROR] = 1
                raise
            finally:
                rec[END] = time.perf_counter()
                self.stack.pop()
                if parent >= 0:
                    self.spans[parent][CHILD] += rec[END] - rec[START]

        return wrapper

    def span(self, name, start, end, error=0):
        """Add a span measured elsewhere (e.g. a child process); returns its index."""
        self.spans.append([name, start, end, -1, self.op, error, None, 0.0])
        return len(self.spans) - 1

    def adopt(self, spans, parent):
        """Append spans recorded by another tracer, re-parenting their roots under `parent`."""
        base = len(self.spans)
        for rec in spans:
            rec = list(rec)
            rec[PARENT] = parent if rec[PARENT] < 0 else rec[PARENT] + base
            rec[OP] = self.op
            if rec[PARENT] == parent:
                self.spans[parent][CHILD] += rec[END] - rec[START]
            self.spans.append(rec)

    def write(self, path):
        with gzip.open(path, "wt") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "op", "error", "arg", "child"],
                       "spans": self.spans}, fh, default=int)


def install(tracer):
    """Wrap every function in LAYERS; the library must already be imported."""
    import matschroed.matpoly as matpoly

    modules = [m for k, m in list(sys.modules.items()) if k == "matschroed" or k.startswith("matschroed.")]
    for layer, names in LAYERS.items():
        for fname in names:
            if layer == "matpoly":
                cls = matpoly.MatrixGaussian
                attr = METHODS[fname]
                setattr(cls, attr, tracer.wrap(f"{layer}.{fname}", getattr(cls, attr)))
                continue
            original = getattr(sys.modules[f"matschroed.{layer}"], fname)
            wrapped = tracer.wrap(f"{layer}.{fname}", original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapped)


def layer_names():
    return [f"{layer}.{fname}" for layer, names in LAYERS.items() for fname in names]


def summarise(spans, n_ops):
    """Per-span-name calls/op, self ms/op, p50 ms, errors/op, and per-op distinct ratios."""
    by_name = {}
    for rec in spans:
        by_name.setdefault(rec[NAME], []).append(rec)
    out = {}
    for name in layer_names():
        recs = by_name.get(name, [])
        durations = [r[END] - r[START] for r in recs]
        self_s = sum(d - r[CHILD] for d, r in zip(durations, recs))
        out[name] = {
            "calls": len(recs) / n_ops,
            "self_ms": 1e3 * self_s / n_ops,
            "p50_ms": 1e3 * statistics.median(durations) if durations else 0.0,
            "errors": sum(r[ERROR] for r in recs) / n_ops,
        }
        if name in KEYED:
            per_op = {}
            for r in recs:
                per_op.setdefault(r[OP], []).append(r[ARG])
            calls = sum(len(v) for v in per_op.values())
            distinct = sum(len(set(v)) for v in per_op.values())
            out[name]["distinct_ratio"] = distinct / calls if calls else 0.0
    return out
