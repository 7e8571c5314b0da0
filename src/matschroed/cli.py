"""Command-line front-end: identity-check suites, density data for the figure
plots, transforms, expansions and matrix elements.

Exit codes: 0 all checks pass, 1 a check failed, 2 usage or config error.
"""

import argparse
import contextlib
import json
import math
import os
import sys

import numpy as np

from .expansion import CoefficientExpansion, _gram_blocks, band_pattern, expand, reconstruct
from .families import FamilySpec, build_family, closed_form_N2, gamma_seq
from .matpoly import MatrixGaussian
from .operators import (
    POINTWISE_GRID,
    fourier_eigen_residual,
    quadrature_transform,
    real_integral_residual,
    row_coverage,
    schrodinger_residual,
    symmetry_residual,
    transform_apply,
)

DEFAULT_SEED = 42


def get_seed():
    return int(os.environ.get("MATSCHROED_SEED", DEFAULT_SEED))


# -- MatrixGaussian file format ---------------------------------------------


def _pairs(c):
    """Complex array -> nested lists of [re, im] pairs in the last axis."""
    return np.stack([c.real, c.imag], axis=-1).tolist()


def mg_to_dict(f: MatrixGaussian):
    coeffs = _pairs(f.coeffs.reshape(f.degree + 1, f.size * f.size))
    return {"N": f.size, "degree": f.degree, "coeffs": coeffs}


def mg_from_dict(data):
    N, d = data["N"], data["degree"]
    if not isinstance(N, int) or N < 1:
        raise ValueError(f"'N' must be a positive integer, got {N!r}")
    if not isinstance(d, int) or d < 0:
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
    if step <= 0 or hi <= lo:
        raise ValueError("grid needs hi > lo and step > 0")
    return np.arange(lo, hi + step / 2, step)


# -- check suite -------------------------------------------------------------


def cmd_check(args):
    spec = family_spec(args)
    tol, n_max = args.tol, args.nmax
    ctx = build_family(spec, n_max)
    N = spec.size
    failures = 0

    def line(name, residual, limit):
        nonlocal failures
        ok = residual < limit
        if not ok:
            failures += 1
        print(f"{'PASS' if ok else 'FAIL'}  {name:<42} residual {residual:.3e}  tol {limit:.1e}")

    gram = _gram_blocks(ctx.phi_tilde, ctx.phi_tilde)
    ortho = float(np.max(np.abs(gram - np.eye(n_max + 1)[:, :, None, None] * np.eye(N))))
    line("orthonormality", ortho, tol)

    line("schrodinger", max(schrodinger_residual(ctx, n).max_coeff_norm for n in range(n_max + 1)), tol)
    line("fourier_eigen", max(fourier_eigen_residual(ctx, n).max_coeff_norm for n in range(n_max + 1)), tol)
    symmetry = max(symmetry_residual(ctx, n, t).max_coeff_norm for n in range(n_max + 1) for t in ("phi", "poly"))
    line("symmetry", symmetry, max(tol, 1e-12))

    # residuals on the unnormalized Phi_n, relative to max(1, max |Phi_n|) at the points compared
    def scale(n, xs):
        return max(1.0, float(np.max(np.abs(ctx.phi[n](xs)))))

    worst_real, worst_imag = 0.0, 0.0
    variants = [(form, sign) for form in ("even", "odd") for sign in (1, -1)] if spec.kind == 1 else [("even", 1)]
    for n in range(n_max + 1):
        size = scale(n, POINTWISE_GRID)
        for form, sign in variants:
            rep, mi = real_integral_residual(ctx, n, form, sign)
            worst_real = max(worst_real, rep.max_coeff_norm / size)
            worst_imag = max(worst_imag, mi)
    line("real_integral", worst_real, max(tol, 1e-8))
    line("real_integral_imag_part", worst_imag, max(tol, 1e-10))
    _, _, covered = row_coverage(N)
    line("real_integral_row_coverage", 0.0 if covered else 1.0, 0.5)

    # quadrature oracle vs exact transform at a few points
    k = spec.kind
    rng = np.random.default_rng(get_seed())
    oracle = 0.0
    xs = np.array([-3.0, -1.0, 0.0, 2.0])
    for n in (0, min(3, n_max), n_max):
        f = ctx.phi[n]
        gap = np.max(np.abs(quadrature_transform(f, k, xs) - transform_apply(f, k)(xs)))
        oracle = max(oracle, float(gap) / scale(n, xs))
    line("quadrature_oracle_vs_exact", oracle, max(tol, 1e-8))

    if N == 2:
        g = gamma_seq(spec, n_max + 4)
        closed = norms = 0.0
        for n in range(n_max + 1):
            closed = max(closed, (closed_form_N2(spec, n) - ctx.phi_tilde[n]).max_abs())
            hi = g[n + 1] if spec.kind == 1 else g[n + 2]
            expected = math.factorial(n) * np.sqrt(np.pi) / 2**n * np.diag([hi, 1.0 / g[n]])
            norms = max(norms, float(np.max(np.abs(ctx.norms[n] - expected) / np.abs(expected).max())))
        line("closed_form_N2", closed, max(tol, 1e-10))
        line("norms_N2", norms, max(tol, 1e-10))

        bp = band_pattern(ctx, 1, n_max)
        # x couples Phi-tilde_n only to n +- 1, whose entries sit kind - 1..kind + 1 off the diagonal
        offset = np.abs(np.arange(bp.mask.shape[0])[:, None] - np.arange(bp.mask.shape[0]))
        empty = (offset < spec.kind) | (offset > spec.kind + 1)
        line("band_pattern", float(bp.mask[empty].any()), 0.5)

    # round trip of a seeded-random span element
    coeffs = rng.standard_normal((n_max + 1, N, N)) + 1j * rng.standard_normal((n_max + 1, N, N))
    F = reconstruct(CoefficientExpansion(spec, n_max, coeffs), ctx)
    G = reconstruct(expand(F, ctx), ctx)
    line("expand_reconstruct_roundtrip", (F - G).max_abs() / F.max_abs(), tol)
    H = transform_apply(transform_apply(F, k, 1), k, -1)
    line("transform_roundtrip", (F - H).max_abs() / F.max_abs(), tol)

    print(f"{'OK' if failures == 0 else 'FAILED'}: {failures} failing check(s)")
    return 0 if failures == 0 else 1


# -- density data ------------------------------------------------------------


def cmd_density(args):
    spec = family_spec(args)
    i, j = (int(v) for v in args.entry.split(","))
    if not (1 <= i <= spec.size and 1 <= j <= spec.size):
        raise ValueError(f"entry indices must be in 1..{spec.size}")
    xs = parse_grid(args.grid)
    ctx = build_family(spec, args.nmax)
    vals = np.stack([f(xs) for f in ctx.phi_tilde])  # (n, x, a, b), real; b is summed in order: fixed digits
    density = sum(vals[:, :, i - 1, b] * vals[:, :, j - 1, b] for b in range(spec.size)).T
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
    bp = band_pattern(ctx, args.k, args.nmax, args.tol)
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
    pc.add_argument("--tol", type=float, default=1e-9)
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
    except (ValueError, OSError, json.JSONDecodeError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
