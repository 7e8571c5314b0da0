"""Reflection symmetry and the real integral equations.

Each Phi_n is even or odd under x -> -x, up to the diagonal signs e^{i pi J}
for family 1.  Splitting the complex transform eigen-equation into real and
imaginary parts yields real integral equations with sin/cos kernels.
Family 1 has eight variants (two forms, two signs, two parities of n);
family 2 has a single equation per parity.  Every row of P_n is pinned down
by at least one variant: the front multipliers cos((pi/2)J) and
sin((pi/2)J) split the rows between them.  The symmetry and the equations
are linear in the rows of Phi_n, with diagonal left multipliers, so they are
shown on the orthonormal Phi-tilde_n = ||P_n||^{-1} Phi_n.
"""

import numpy as np

from matschroed import FamilySpec, build_family
from matschroed.operators import real_integral_residual
from matschroed.structmat import phase_diag, trig_diag

spec1 = FamilySpec(1, 3, [0.8, -1.3])
ctx1 = build_family(spec1, 6)
print(f"--- family 1, N = 3 ---")
E = phase_diag(3, 2).real  # e^{i pi J}, diagonal +-1
for n in (0, 3, 6):
    phi = ctx1.phi_tilde[n]
    mirrored = phi.reflect().scale((-1.0) ** n).left_mul(E).right_mul(E)  # (-1)^n e^{i pi J} Phi-tilde_n(-x) e^{i pi J}
    print(f"n={n}: Phi-tilde_n(x) - (-1)^n e^(i pi J) Phi-tilde_n(-x) e^(i pi J) = {(phi - mirrored).max_abs():.1e} "
          "(exactly)")
for form in ("even", "odd"):
    for sign in (+1, -1):
        worst = real_integral_residual(ctx1, form, sign).relative.max()
        print(f"real equation ({form}, sign {sign:+d}): worst residual {worst:.2e}")
cos_rows, sin_rows = (np.flatnonzero(np.diag(trig_diag(3, kind))).tolist() for kind in ("cos", "sin"))
print(f"rows pinned by cos((pi/2)J): {cos_rows}, by sin((pi/2)J): {sin_rows}")
print()

spec2 = FamilySpec(2, 3, [0.8, -1.3])
ctx2 = build_family(spec2, 6)
print(f"--- family 2, N = 3 ---")
rep = real_integral_residual(ctx2)  # cos kernel for even n, sin for odd n
for n in range(7):
    print(f"n={n}: {rep.variant} (parity {n % 2}) residual {rep.relative[n]:.2e}")
