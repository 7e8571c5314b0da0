"""Which `check` lines see which fault: a mutation table over built families.

Each mutant is a `dataclasses.replace` of a family built at kind 1 or 2, N in {2, 3, 5}, n_max = 10.  For each
mutant and shape the table holds the set of `cli.check_lines` names that must fail (read at or above their limit);
every other line must pass.  A new line, a changed limit or a line that starts to see a fault updates the table.
The failing lines read 9.8e-7 or more and the passing ones 1e-14 or less, so the limits are far from both.

Oracle noise is the one mutant of the check rather than of the family: complex noise added to the trapezoid gap of
`operators._kernel_sums`, at the first decade where `fourier_eigen` fails (NOISE_FAILS, measured).  `real_integral`
reads the same gap, so there it fails too or reads at most twice `fourier_eigen`; no other line reads the gap.
"""

import dataclasses
import functools
import math

import numpy as np
import pytest

from matschroed import operators
from matschroed.cli import DEFAULT_SEED, check_lines
from matschroed.families import FamilySpec, build_family

NU = (0.8, -1.3, 0.5, 1.1)
TOL = 1e-9


@functools.cache
def built(kind, N, nu_scale=1.0):
    return build_family(FamilySpec(kind, N, [v * nu_scale for v in NU[: N - 1]]), 10)


def with_alpha_5(ctx, change):
    alpha = ctx.alpha.copy()
    change(alpha[5])
    alpha.flags.writeable = False
    return dataclasses.replace(ctx, alpha=alpha)


def rotate_rows_0_1(block):
    c, s = math.cos(1e-6), math.sin(1e-6)
    block[[0, 1]] = [c * block[0] - s * block[1], s * block[0] + c * block[1]]


def flip_row_1(block):
    block[1] *= -1


MUTANTS = {
    "rotation": lambda ctx: with_alpha_5(ctx, rotate_rows_0_1),  # rows 0 and 1 of alpha[5] turned by 1e-6
    "sign_flip": lambda ctx: with_alpha_5(ctx, flip_row_1),  # row 1 of alpha[5] negated
    "wrong_nu": lambda ctx: dataclasses.replace(built(ctx.spec.kind, ctx.size, 1 + 1e-4), spec=ctx.spec),
    "other_kind": lambda ctx: dataclasses.replace(ctx, spec=FamilySpec(3 - ctx.spec.kind, ctx.size, ctx.spec.nu)),
}

# (mutant, kind, N, the lines that fail), measured; wrong_nu is the family of nu (1 + 1e-4) labelled nu, and
# other_kind a kind 1 family labelled kind 2 (kind = 1 here) or a kind 2 family labelled kind 1 (kind = 2)
EXPECTED = [
    ("rotation", 1, 2, "orthonormality closed_form_N2 three_term expand_reconstruct_roundtrip"),
    ("rotation", 1, 3, "orthonormality three_term expand_reconstruct_roundtrip"),
    ("rotation", 1, 5, "orthonormality three_term expand_reconstruct_roundtrip"),
    ("rotation", 2, 2, "orthonormality closed_form_N2 three_term expand_reconstruct_roundtrip"),
    ("rotation", 2, 3, "orthonormality three_term expand_reconstruct_roundtrip"),
    ("rotation", 2, 5, "orthonormality three_term expand_reconstruct_roundtrip"),
    ("sign_flip", 1, 2, "closed_form_N2"),
    ("sign_flip", 1, 3, ""),
    ("sign_flip", 1, 5, ""),
    ("sign_flip", 2, 2, "closed_form_N2"),
    ("sign_flip", 2, 3, ""),
    ("sign_flip", 2, 5, ""),
    ("wrong_nu", 1, 2, "closed_form_N2 norms_N2"),
    ("wrong_nu", 1, 3, ""),
    ("wrong_nu", 1, 5, ""),
    ("wrong_nu", 2, 2, "closed_form_N2 norms_N2"),
    ("wrong_nu", 2, 3, ""),
    ("wrong_nu", 2, 5, ""),
    ("other_kind", 1, 2, "orthonormality schrodinger closed_form_N2 norms_N2 three_term expand_reconstruct_roundtrip"),
    ("other_kind", 1, 3, "orthonormality schrodinger three_term expand_reconstruct_roundtrip"),
    ("other_kind", 1, 5, "orthonormality schrodinger three_term expand_reconstruct_roundtrip"),
    ("other_kind", 2, 2, "orthonormality closed_form_N2 norms_N2 three_term expand_reconstruct_roundtrip"),
    ("other_kind", 2, 3, "orthonormality three_term expand_reconstruct_roundtrip"),
    ("other_kind", 2, 5, "orthonormality three_term expand_reconstruct_roundtrip"),
]


@pytest.mark.parametrize("mutant, kind, N, failing", EXPECTED)
def test_check_lines_fail_exactly_as_the_table_says(mutant, kind, N, failing):
    ctx = MUTANTS[mutant](built(kind, N))
    lines = {name: (residual, limit) for name, residual, limit in check_lines(ctx, TOL, DEFAULT_SEED)}
    expected = set(failing.split())
    assert expected <= set(lines), expected - set(lines)
    for name, (residual, limit) in lines.items():
        assert (residual >= limit) == (name in expected), (name, residual, limit)


# the decade of noise on the gap at which fourier_eigen (limit TOL) first fails, at every kind and N here; measured
NOISE_FAILS = 1e-9


@pytest.mark.parametrize("kind", [1, 2])
@pytest.mark.parametrize("N", [2, 3, 5])
def test_oracle_noise_fails_fourier_eigen_and_real_integral_at_most_twice_it(monkeypatch, kind, N):
    ctx = built(kind, N)
    gap, values = operators._kernel_sums(ctx)
    rng = np.random.default_rng([kind, N])
    unit = rng.standard_normal(gap.shape) + 1j * rng.standard_normal(gap.shape)
    for level in (10.0 ** -e for e in range(14, 5, -1)):
        monkeypatch.setattr(operators, "_kernel_sums", lambda c, noisy=gap + level * unit: (noisy, values))
        lines = {name: (residual, limit) for name, residual, limit in check_lines(ctx, TOL, DEFAULT_SEED)}
        failing = {name for name, (residual, limit) in lines.items() if residual >= limit}
        if "fourier_eigen" in failing:
            break
    assert level == NOISE_FAILS and "fourier_eigen" in failing
    (fourier, _), (real, real_limit) = lines["fourier_eigen"], lines["real_integral"]
    assert real >= real_limit or real <= 2.0 * fourier, (real, fourier)
    assert failing <= {"fourier_eigen", "real_integral"}, failing
