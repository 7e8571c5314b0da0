"""Seeded spec generators for sweeps over families, with the standard library's `random` only.

Each generator yields `count` pairs (FamilySpec, n_max), drawn in a fixed order from `random.Random(seed)`, so one
seed gives the same specs on every machine and Python version.  They feed `tests/sweep.py`; tier-1 tests keep their
own inputs.

- `item10`: ROADMAP item 10's distribution: kind 1 or 2, N in 1..8, n_max in 0..30, each nu entry `nu_entry`.
- `wide`: the same with n_max = round(exp(uniform(0, ln 1500))), log-uniform in 1..1500.
- `rational`: kind 1 or 2, N in 2..8, n_max in 0..30, each nu entry `dyadic_entry`, for an exact oracle to read.
"""

import math
import random
from fractions import Fraction

from matschroed.families import FamilySpec


def nu_entry(rng):
    """With odds 1/2 signed with magnitude log-uniform in 1e-300..1e300, else normal(0, 3)."""
    if rng.random() < 0.5:
        return rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-300.0, 300.0)
    return rng.gauss(0.0, 3.0)


def _draw(seed, count, sizes, n_max, entry):
    rng = random.Random(seed)
    for _ in range(count):
        kind, N = rng.choice((1, 2)), rng.randint(*sizes)
        n = n_max(rng)
        yield FamilySpec(kind, N, [entry(rng) for _ in range(N - 1)]), n


def item10(seed, count):
    return _draw(seed, count, (1, 8), lambda rng: rng.randint(0, 30), nu_entry)


def wide(seed, count):
    return _draw(seed, count, (1, 8), lambda rng: round(math.exp(rng.uniform(0.0, math.log(1500)))), nu_entry)


def dyadic_entry(rng):
    """p / q with p in -16..16 and q in {1, 2, 4, 8}: a double that is the rational itself."""
    return float(Fraction(rng.randint(-16, 16), rng.choice((1, 2, 4, 8))))


def rational(seed, count):
    return _draw(seed, count, (2, 8), lambda rng: rng.randint(0, 30), dyadic_entry)


GENERATORS = {"item10": item10, "wide": wide, "rational": rational}
