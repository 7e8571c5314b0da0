"""Build both families and look at the orthonormal functions.

Constructs the matrix-valued orthonormal functions Phi-tilde_n for both
weights, checks orthonormality numerically, compares against the explicit
N = 2 formulas, and tabulates the diagonal densities that appear in the
figure plots (they integrate to 1 and, for family 1, never vanish).
"""

import numpy as np

from matschroed import FamilySpec, build_family, closed_form_N2, inner_product

for kind, nu1 in ((1, 1.0), (2, 0.5)):
    spec = FamilySpec(kind, 2, [nu1])
    ctx = build_family(spec, 5)
    print(f"--- family {kind}, N = 2, nu1 = {nu1} ---")

    worst = 0.0
    for n in range(6):
        for m in range(6):
            g = inner_product(ctx.phi_tilde[n], ctx.phi_tilde[m])
            target = np.eye(2) if n == m else np.zeros((2, 2))
            worst = max(worst, float(np.max(np.abs(g - target))))
    print(f"orthonormality defect over n,m <= 5: {worst:.2e}")

    worst = max((ctx.phi_tilde[n] - closed_form_N2(spec, n)).max_abs() for n in range(6))
    print(f"deviation from the closed-form expressions: {worst:.2e}")

    xs = np.arange(-6.0, 6.0 + 0.005, 0.01)
    for n in range(6):
        vals = ctx.phi_tilde[n](xs)
        dens = np.einsum("xab,xcb->xac", vals, np.conj(vals)).real
        d11, d22 = dens[:, 0, 0], dens[:, 1, 1]
        # trapezoid integral as a sanity check; the exact inner product gives these to 1e-12
        i11 = np.trapezoid(d11, xs)
        print(
            f"n={n}: density (1,1) integrates to {i11:.6f}, "
            f"min on [-6,6] = {d11.min():.3e}, min (2,2) = {d22.min():.3e}"
        )
    print()
