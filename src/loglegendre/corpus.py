"""Seeded random parameter sets for cross-checking the two construction routes."""

from __future__ import annotations

import random
from fractions import Fraction

from .legendre import ParamSet


def random_paramset(rng: random.Random, max_weight: int = 60,
                    with_m: bool = False) -> tuple[ParamSet, int]:
    """One random instance (params, t) with M*t <= max_weight.

    with_m forces n >= 2 and sorts the leading m+1 exponent pairs so the
    monotonicity constraint holds.
    """
    while True:
        n = rng.randint(2 if with_m else 1, 4)
        p = [rng.randint(1, 6) for _ in range(n)]
        q = [rng.randint(0, 6) for _ in range(n)]
        m = None
        if with_m:
            m = rng.randint(1, n - 1)
            p[: m + 1], q[: m + 1] = sorted(p[: m + 1]), sorted(q[: m + 1])
        weight = sum(p) + sum(q)
        if weight > max_weight:
            continue
        t = rng.randint(1, max(1, max_weight // weight))
        z = Fraction(-rng.randint(1, 9), rng.randint(1, 9))
        return ParamSet(p=tuple(p), q=tuple(q), z=z, m=m), t


def oracle_corpus(seed: int, count: int, max_weight: int = 60,
                  with_m: bool = False) -> list[tuple[ParamSet, int]]:
    rng = random.Random(seed)
    return [random_paramset(rng, max_weight, with_m=with_m) for _ in range(count)]
