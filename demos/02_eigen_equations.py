"""The two eigen-equations satisfied by every Phi_n.

Each function solves a matrix Schrodinger equation with potential
x^2 I + 2J (family 1) or x^2 I + 4J (family 2), and is an eigenfunction of
a Fourier-type integral transform with diagonal eigenvalue i^n i^{kJ}.
The Schrodinger equation is checked in coefficient algebra, the transform
eigen-equation against an independent trapezoidal quadrature; the exact
transform is replayed through the same quadrature.  Both equations are
linear in the rows of Phi_n, with diagonal left multipliers, so they are
checked on the orthonormal Phi-tilde_n = ||P_n||^{-1} Phi_n.
"""

import numpy as np

from matschroed import FamilySpec, build_family
from matschroed.operators import (
    fourier_eigen_residual,
    quadrature_transform,
    schrodinger_residual,
    transform_apply,
)

for spec in (FamilySpec(1, 3, [1.0, 0.5]), FamilySpec(2, 3, [1.0, 0.5])):
    ctx = build_family(spec, 8)
    print(f"--- family {spec.kind}, N = {spec.size}, nu = {spec.nu} ---")
    # each residual is computed for every n = 0..8 at once; its arrays are indexed by n
    s = schrodinger_residual(ctx)
    f = fourier_eigen_residual(ctx)
    for n in (0, 4, 8):
        print(f"n={n}: schrodinger residual {s.relative[n]:.2e}, "
              f"transform residual {f.relative[n]:.2e}")

    # the exact transform against brute-force numerical integration
    phi = ctx.phi_tilde[5]
    exact = transform_apply(phi, spec.kind)
    xs = np.linspace(-5, 5, 11)
    quad = quadrature_transform(phi, spec.kind, xs)
    print(f"quadrature oracle vs exact transform (n=5): "
          f"{np.max(np.abs(quad - np.stack([exact(x) for x in xs]))):.2e}")
    print()
