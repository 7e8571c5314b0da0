"""Command-line front-end: identity-check suites, density data for the figure
plots, transforms, expansions and matrix elements.

Exit codes: 0 all checks pass, 1 a check failed, 2 a usage or config error, or
a spec outside the range the build can solve (ConsistencyError) or a value
outside the double range.  Exit 2 prints one `error:` line; `check` ran none of
the lines it did not print.
"""

import argparse
import contextlib
import json
import math
import os
import random
import sys

import numpy as np

from .expansion import CoefficientExpansion, band_pattern, expand, reconstruct
from .families import ConsistencyError, FamilySpec, _at_support, _closed_alpha, _integer, build_family, gamma_seq
from .hermite import wave_functions
from .matpoly import MatrixGaussian
from .operators import (
    POINTWISE_GRID,
    fourier_eigen_residual,
    orthonormality_residual,
    quadrature_transform,
    real_integral_residual,
    schrodinger_residual,
    three_term_residual,
    transform_apply,
)

DEFAULT_SEED = 42
DEFAULT_TOL = 1e-9


# -- MatrixGaussian file format ---------------------------------------------


def _pairs(c):
    """Complex array -> nested lists of [re, im] pairs in the last axis."""
    return np.stack([c.real, c.imag], axis=-1).tolist()


def mg_to_dict(f: MatrixGaussian):
    coeffs = _pairs(f.coeffs.reshape(f.degree + 1, f.size * f.size))
    return {"N": f.size, "degree": f.degree, "coeffs": coeffs}


def mg_from_dict(data):
    if not isinstance(data, dict):
        raise ValueError(f"a function file must hold a JSON object, got {type(data).__name__}")
    N, d = data["N"], data["degree"]
    if not _integer(N) or N < 1:  # a JSON true is an int to isinstance
        raise ValueError(f"'N' must be a positive integer, got {N!r}")
    if not _integer(d) or d < 0:
        raise ValueError(f"'degree' must be a non-negative integer, got {d!r}")
    try:
        pairs = np.asarray(data["coeffs"], dtype=float)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"'coeffs' must be a rectangular array of numbers ({exc})") from None
    if pairs.ndim != 3 or pairs.shape[2] != 2:
        raise ValueError(f"'coeffs' must hold matrices of [re, im] pairs, got shape {pairs.shape}")
    if pairs.shape[0] != d + 1:
        raise ValueError(f"'degree' is {d} but 'coeffs' holds {pairs.shape[0]} matrices (expected degree + 1)")
    if pairs.shape[1] != N * N:
        raise ValueError(f"'coeffs' matrices have {pairs.shape[1]} entries, expected N*N = {N * N}")
    if not np.all(np.isfinite(pairs)):
        raise ValueError("'coeffs' entries must be finite")
    coeffs = pairs[..., 0] + 1j * pairs[..., 1] if pairs[..., 1].any() else pairs[..., 0]  # real if every im is 0
    return MatrixGaussian(coeffs.reshape(d + 1, N, N))


def save_mg(f, path):
    with open(path, "w") as fh:
        json.dump(mg_to_dict(f), fh)


def load_mg(path):
    with open(path) as fh:
        return mg_from_dict(json.load(fh))


# -- config ------------------------------------------------------------------


def add_family_args(p):
    p.add_argument("--spec", help="family spec as inline JSON or a path to a JSON file")
    p.add_argument("--kind", type=int, choices=(1, 2))
    p.add_argument("--N", type=int)
    p.add_argument("--nu", help="comma-separated superdiagonal parameters")


def family_spec(args):
    if args.spec:
        text = args.spec
        if os.path.exists(text):
            with open(text) as fh:
                text = fh.read()
        return FamilySpec.from_json(text)
    if args.kind is None or args.N is None:
        raise ValueError("either --spec or --kind/--N/--nu must be given")
    nu = [float(v) for v in args.nu.split(",")] if args.nu else []
    return FamilySpec(kind=args.kind, size=args.N, nu=nu)


def parse_grid(text):
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError("grid must be lo:hi:step")
    lo, hi, step = (float(v) for v in parts)
    if not all(map(math.isfinite, (lo, hi, step, hi + step, hi - lo + step))):  # numpy sizes the grid from these
        raise ValueError(f"grid {text} needs a finite lo, hi and step, with hi + step and hi - lo + step finite")
    if step <= 0 or hi <= lo:
        raise ValueError("grid needs hi > lo and step > 0")
    try:
        return np.arange(lo, hi + step / 2, step)
    except (MemoryError, ValueError):  # ValueError: numpy's "Maximum allowed size exceeded"
        count = (hi + step / 2 - lo) / step  # finite terms, but the quotient may be inf
        count = math.ceil(count) if count < 1e18 else "more than 10^18"
        raise ValueError(f"grid {text} has {count} points, too many to allocate") from None


# -- check suite -------------------------------------------------------------


def positive(value, flag):
    """value, or a ValueError naming flag unless it is a positive finite number."""
    if not (math.isfinite(value) and value > 0):
        raise ValueError(f"{flag} must be a positive finite number, got {value}")
    return value


def check_lines(ctx, tol, seed):
    """The lines of `check`, in print order: (name, residual, limit), each passing when residual < limit.

    Each compares the family with an independent computation (the Gram of alpha, trapezoid transforms, point
    values, the N = 2 closed form as a table of alpha or a seeded round trip); schrodinger, fourier_eigen and
    real_integral check the psi placement only (ROADMAP item 4), as each psi_m solves them whatever alpha holds, so
    each is read entry by entry: schrodinger on three psi rows per entry, the last two as alpha times one trapezoid
    gap per psi_m, kept for one psi-degree, and real_integral <= 2 fourier_eigen at every n.
    Every line reads alpha or Phi-tilde_n, so pointwise residuals are absolute, as |Phi-tilde_n(x)| < 1.
    """
    spec, n_max, N = ctx.spec, ctx.n_max, ctx.size
    yield "orthonormality", orthonormality_residual(ctx).relative.max(), tol
    yield "schrodinger", schrodinger_residual(ctx).relative.max(), tol
    yield "fourier_eigen", fourier_eigen_residual(ctx).relative.max(), tol
    variants = [(form, sign) for form in ("even", "odd") for sign in (1, -1)] if spec.kind == 1 else [("even", 1)]
    yield "real_integral", max(real_integral_residual(ctx, *v).relative.max() for v in variants), max(tol, 1e-8)

    if N == 2:
        closed = float(np.abs(_closed_alpha(spec, n_max) - ctx.alpha).max())  # both tables place (r, a) at psi_m
        # ||P_n||^2 = n! sqrt(pi) / 2^n diag(g_{n+kind}, 1 / g_n), compared in logs: n! leaves the double range
        g, n = gamma_seq(spec, n_max + 2), np.arange(n_max + 1)
        log_expected = ctx.plan.log_scale[:, None] + np.log(np.stack([g[n + spec.kind], 1.0 / g[n]], axis=1))
        yield "closed_form_N2", closed, max(tol, 1e-10)
        yield "norms_N2", float(np.abs(np.expm1(ctx.log_norms - log_expected)).max()), max(tol, 1e-10)  # relative

    if n_max > 0:  # x Phi-tilde_n needs Phi-tilde_{n+1}
        yield "three_term", three_term_residual(ctx).relative.max(), tol

    # round trip of a seeded-random span element
    # uniform in [-1, 1) from seeded bytes: not numpy.random, whose import costs a check run ~15 ms
    bits = np.frombuffer(random.Random(seed).randbytes(16 * (n_max + 1) * N * N), "<i8")
    coeffs = (bits * 2.0**-63).view(complex).reshape(n_max + 1, N, N)
    F = reconstruct(CoefficientExpansion(spec, n_max, coeffs), ctx)
    G = reconstruct(expand(F, ctx, project=True), ctx)  # a family that leaves its span fails here, not raises
    yield "expand_reconstruct_roundtrip", (F - G).max_abs() / F.max_abs(), tol


def cmd_check(args):
    tol = positive(args.tol, "--tol")
    failures = 0
    for name, residual, limit in check_lines(build_family(family_spec(args), args.nmax), tol, DEFAULT_SEED):
        ok = residual < limit
        failures += not ok
        print(f"{'PASS' if ok else 'FAIL'}  {name:<42} residual {residual:.3e}  tol {limit:.1e}")
    print(f"{'OK' if failures == 0 else 'FAILED'}: {failures} failing check(s)")
    return 0 if failures == 0 else 1


# -- density data ------------------------------------------------------------


def cmd_density(args):
    spec = family_spec(args)
    try:
        i, j = (int(v) for v in args.entry.split(","))
    except ValueError:  # not two fields, or one that is not an integer
        raise ValueError(f"--entry must be two integers i,j, got {args.entry!r}") from None
    if not (1 <= i <= spec.size and 1 <= j <= spec.size):
        raise ValueError(f"entry indices must be in 1..{spec.size}")
    xs = parse_grid(args.grid)
    ctx = build_family(spec, args.nmax)
    psi = wave_functions(args.nmax + spec.kind * (spec.size - 1), xs).T  # point, psi index
    v = _at_support(ctx, psi, [i - 1, j - 1])  # rows i, j of every Phi-tilde_n: point, n, row, b; real
    density = sum(v[:, :, 0, b] * v[:, :, 1, b] for b in range(spec.size))  # b in order: fixed digits
    header = "x," + ",".join(f"n{n}" for n in range(args.nmax + 1))
    table = np.column_stack([xs, density])
    np.savetxt(args.out or sys.stdout, table, fmt="%.17g", delimiter=",", header=header, comments="")
    return 0


# -- transform ---------------------------------------------------------------


def cmd_transform(args):
    f = load_mg(args.infile)
    g = transform_apply(f, args.k, args.direction)
    save_mg(g, args.out)
    if args.verify:
        q = quadrature_transform(f, args.k, POINTWISE_GRID, direction=args.direction)
        worst = float(np.max(np.abs(q - g(POINTWISE_GRID))))
        print(f"max deviation from quadrature oracle: {worst:.3e}")
    return 0


# -- expand ------------------------------------------------------------------


def cmd_expand(args):
    spec = family_spec(args)
    ctx = build_family(spec, args.nmax)
    f = load_mg(args.infile)
    e = expand(f, ctx, project=args.project)
    data = {
        "spec": json.loads(spec.to_json()),
        "n_max": e.n_max,
        "coeffs": _pairs(e.coeffs.reshape(e.n_max + 1, -1)),
    }
    text = json.dumps(data) + "\n"
    with open(args.out, "w") if args.out else contextlib.nullcontext(sys.stdout) as out:
        out.write(text)
    return 0


# -- matrix elements ---------------------------------------------------------


def cmd_matrix_elements(args):
    spec = family_spec(args)
    ctx = build_family(spec, args.nmax + args.k)
    bp = band_pattern(ctx, args.k, args.nmax, positive(args.tol, "--tol"))
    if args.out:
        bp.to_csv(args.out)
    for row in bp.mask.astype(int):
        print(" ".join("*" if v else "." for v in row))
    return 0


# -- entry point -------------------------------------------------------------


def build_parser():
    p = argparse.ArgumentParser(prog="matschroed")
    sub = p.add_subparsers(dest="command", required=True)

    pc = sub.add_parser("check", help="run all identity-check suites")
    add_family_args(pc)
    pc.add_argument("--nmax", type=int, default=8)
    pc.add_argument("--tol", type=float, default=DEFAULT_TOL)
    pc.set_defaults(func=cmd_check)

    pd = sub.add_parser("density", help="CSV of a density entry of Phi-tilde_n Phi-tilde_n^*")
    add_family_args(pd)
    pd.add_argument("--nmax", type=int, default=5)
    pd.add_argument("--entry", default="1,1", help="matrix entry i,j (1-based)")
    pd.add_argument("--grid", default="-4:4:0.05", help="lo:hi:step")
    pd.add_argument("--out", default=None)
    pd.set_defaults(func=cmd_density)

    pt = sub.add_parser("transform", help="apply the Fourier-type transform to a function file")
    pt.add_argument("infile")
    pt.add_argument("--k", type=int, default=0)
    pt.add_argument("--direction", type=int, choices=(1, -1), default=1)
    pt.add_argument("--out", required=True)
    pt.add_argument("--verify", action="store_true")
    pt.set_defaults(func=cmd_transform)

    pe = sub.add_parser("expand", help="expand a function file in the orthonormal family")
    add_family_args(pe)
    pe.add_argument("infile")
    pe.add_argument("--nmax", type=int, default=8)
    pe.add_argument("--project", action="store_true", help="allow truncated projection")
    pe.add_argument("--out", default=None)
    pe.set_defaults(func=cmd_expand)

    pm = sub.add_parser("matrix-elements", help="band matrix of F -> x^k F in the orthonormal basis")
    add_family_args(pm)
    pm.add_argument("--k", type=int, choices=(1, 2), default=1)
    pm.add_argument("--nmax", type=int, default=5)
    pm.add_argument("--tol", type=float, default=1e-10)
    pm.add_argument("--out", default=None)
    pm.set_defaults(func=cmd_matrix_elements)

    return p


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, json.JSONDecodeError, KeyError, ConsistencyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
