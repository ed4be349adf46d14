"""Shared exact utilities for the test suite."""

from __future__ import annotations

import random
from fractions import Fraction

from bermoments import WeightSystem


def lagrange_value(points, x: Fraction) -> Fraction:
    """Evaluate the interpolating polynomial through `points` at `x`, exactly."""
    x = Fraction(x)
    total = Fraction(0)
    for i, (xi, yi) in enumerate(points):
        term = Fraction(yi)
        for j, (xj, _) in enumerate(points):
            if i != j:
                term *= (x - xj) / (xi - xj)
        total += term
    return total


def random_fraction(rng: random.Random, max_num: int = 9, max_den: int = 9) -> Fraction:
    return Fraction(rng.randint(-max_num, max_num), rng.randint(1, max_den))


def random_positive_fraction(rng: random.Random, max_num: int = 9, max_den: int = 9) -> Fraction:
    return Fraction(rng.randint(1, max_num), rng.randint(1, max_den))


def random_brieskorn_weights(rng: random.Random, count: int, max_m: int = 6) -> WeightSystem:
    """Weights of a Brieskorn singularity x_0^m_0 + ... ; always realizable."""
    return WeightSystem(tuple(Fraction(1, rng.randint(2, max_m)) for _ in range(count)))


# realizable weight systems, unit and non-unit, shared by the closed-form
# and command-line oracles
FIXED_SYSTEMS = [
    WeightSystem((Fraction(1, 2),)),
    WeightSystem((Fraction(1, 3), Fraction(1, 2))),
    WeightSystem((Fraction(1, 5), Fraction(1, 4), Fraction(1, 3))),
    WeightSystem((Fraction(4, 15), Fraction(1, 5))),
    WeightSystem((Fraction(2, 5), Fraction(1, 5), Fraction(1, 2))),
]
