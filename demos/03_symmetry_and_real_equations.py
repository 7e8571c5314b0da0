"""Reflection symmetry and the real integral equations.

Splitting the complex transform eigen-equation into real and imaginary
parts yields real integral equations with sin/cos kernels.  Family 1 has
eight variants (two forms, two signs, two parities of n); family 2 has a
single equation per parity.  Every row of P_n is pinned down by at least
one variant (row-coverage).
"""

from matschroed import FamilySpec, build_family
from matschroed.operators import real_integral_residual, row_coverage, symmetry_residual

spec1 = FamilySpec(1, 3, [0.8, -1.3])
ctx1 = build_family(spec1, 6)
print(f"--- family 1, N = 3 ---")
rep = symmetry_residual(ctx1)  # every n = 0..6 at once, indexed by n
for n in (0, 3, 6):
    print(f"n={n}: reflection symmetry residual {rep.relative[n]:.2e}")
for form in ("even", "odd"):
    for sign in (+1, -1):
        worst = real_integral_residual(ctx1, form, sign)[0].pointwise.max()
        print(f"real equation ({form}, sign {sign:+d}): worst residual {worst:.2e}")
cos_rows, sin_rows, covered = row_coverage(3)
print(f"row coverage: cos rows {sorted(cos_rows)}, sin rows {sorted(sin_rows)}, "
      f"all covered: {covered}")
print()

spec2 = FamilySpec(2, 3, [0.8, -1.3])
ctx2 = build_family(spec2, 6)
print(f"--- family 2, N = 3 ---")
rep, max_imag = real_integral_residual(ctx2)  # cos kernel for even n, sin for odd n
for n in range(7):
    print(f"n={n}: {rep.variant} (parity {n % 2}) residual {rep.pointwise[n]:.2e}, "
          f"imaginary part {max_imag[n]:.2e}")
