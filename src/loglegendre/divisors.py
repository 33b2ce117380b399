"""Arithmetic of the guaranteed coefficient divisors.

The transform iterates of a scaled Legendre polynomial have denominators
cleared by a product of lcm's d_{N_j t}, and their numerators share a large
prime-power divisor

    Delta_t = prod_{s prime, s^2 > N_1 t} s^mu({t/s}),

where mu(omega) is the largest gain the floor sums sum_j [(p_j + q_j) omega]
can make when the q's are permuted against the p's.  mu is a step function
with rational breakpoints, and (1/t) log Delta_t converges to a digamma
expression over those breakpoints.  Everything here is exact except the
digamma evaluations, which carry explicit precision.

All results are deterministic.  The exact integer/rational layer is safe to
use from threads.  Digamma is a finite sum by Gauss's theorem, over
per-denominator tables kept in a bounded cache (built on first use, never at
import); the tables are immutable, but the floating-point library's precision
context is process-global, so run parallel numeric work in separate
processes (as the CLI does), not threads.
"""

from __future__ import annotations

import json
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import permutations
from math import isqrt, log
from typing import Sequence

import mpmath as mp

from .errors import ParamError
from .exact import DensePoly, lcm_clearing_multiplier, primes_in_range
from .legendre import ParamSet

MAX_BRUTE_FORCE_N = 9  # 9! permutations is the largest sane exhaustive search


# ---------------------------------------------------------------------------
# exponent bookkeeping
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExponentProfile:
    """Sorted cross sums K, lcm exponents N, and diagonal sums H."""

    cross_sums: tuple[int, ...]          # all p_i + q_j, descending
    lcm_exponents: tuple[Fraction, ...]  # N_j = max(K_j, K_1/j), j = 1..n
    diagonal_sums: tuple[int, ...]       # p_l + q_l, descending


def exponent_profile(params: ParamSet) -> ExponentProfile:
    K = sorted((p + q for p in params.p for q in params.q), reverse=True)
    N = [max(Fraction(K[j - 1]), Fraction(K[0], j)) for j in range(1, params.n + 1)]
    H = sorted((p + q for p, q in params.pairs()), reverse=True)
    return ExponentProfile(tuple(K), tuple(N), tuple(H))


# ---------------------------------------------------------------------------
# the floor-gain function mu and its step profile
# ---------------------------------------------------------------------------

def floor_gain(params: ParamSet, omega: Fraction) -> int:
    """max over permutations of sum_j ([(p_j + q_sigma(j)) w] - [(p_j + q_j) w])."""
    omega = Fraction(omega)
    if not 0 <= omega < 1:
        raise ParamError("omega must lie in [0, 1)")
    n = params.n
    if n > MAX_BRUTE_FORCE_N:
        raise ParamError(f"floor_gain brute force is capped at n <= {MAX_BRUTE_FORCE_N}")
    num, den = omega.numerator, omega.denominator
    floors = [[(pj + qk) * num // den for qk in params.q] for pj in params.p]
    best = max(sum(map(list.__getitem__, floors, sigma)) for sigma in permutations(range(n)))
    return best - sum(floors[j][j] for j in range(n))


@dataclass(frozen=True)
class FloorGainProfile:
    """The step function omega -> mu(omega) on [0, 1): breakpoints and values."""

    breakpoints: tuple[Fraction, ...]  # u_1 = 0 < u_2 < ... < u_r; interval ends at 1
    values: tuple[int, ...]            # mu on [u_i, u_{i+1})

    def segments(self) -> list[tuple[Fraction, Fraction, int]]:
        ends = list(self.breakpoints[1:]) + [Fraction(1)]
        return [(a, b, v) for a, b, v in zip(self.breakpoints, ends, self.values)]

    def value_at(self, omega: Fraction) -> int:
        if not 0 <= omega < 1:
            raise ParamError("omega outside [0, 1)")
        return self.values[bisect_right(self.breakpoints, omega) - 1]

    def to_json(self) -> str:
        return json.dumps(
            [{"from": f"{a.numerator}/{a.denominator}",
              "to": f"{b.numerator}/{b.denominator}",
              "mu": v} for a, b, v in self.segments()],
            indent=2)


@lru_cache(maxsize=64)
def floor_gain_profile(params: ParamSet) -> FloorGainProfile:
    """Evaluate mu at every candidate breakpoint c/(p_i + q_j) and merge runs.

    The floors can only jump at fractions whose denominator is a cross sum,
    so the candidate set is complete by construction.  Cached per parameter
    set (the profile is immutable), so repeated callers share one build.
    """
    cands = {Fraction(0)}
    for s in set(p + q for p in params.p for q in params.q):
        for c in range(1, s):
            cands.add(Fraction(c, s))
    pts = sorted(cands)
    bps: list[Fraction] = []
    vals: list[int] = []
    for x in pts:
        v = floor_gain(params, x)
        if not vals or vals[-1] != v:
            bps.append(x)
            vals.append(v)
    return FloorGainProfile(tuple(bps), tuple(vals))


# ---------------------------------------------------------------------------
# the divisor Delta_t and its growth rate
# ---------------------------------------------------------------------------

def _prime_gains(params: ParamSet, t: int):
    """(s, mu({t/s})) for the primes s with s^2 > N_1 t, ascending, where
    the gain is nonzero; mu is looked up in the step profile.

    Primes above N_1 t contribute nothing: there {t/s} = t/s < 1/N_1, below
    the smallest breakpoint, so the product is finite.
    """
    n1t = exponent_profile(params).cross_sums[0] * t
    profile = floor_gain_profile(params)
    for s in primes_in_range(isqrt(n1t), n1t):
        gain = profile.value_at(Fraction(t % s, s))
        if gain:
            yield s, gain


def guaranteed_divisor(params: ParamSet, t: int) -> int:
    """Delta_t = prod s^mu({t/s}) over primes s with s^2 > N_1 t."""
    if t < 1:
        raise ParamError("t must be >= 1")
    out = 1
    for s, gain in _prime_gains(params, t):
        out *= s**gain
    return out


def log_guaranteed_divisor(params: ParamSet, t: int) -> float:
    """log Delta_t as a float, without forming the big integer."""
    total = 0.0
    for s, gain in _prime_gains(params, t):
        total += gain * log(s)
    return total


# ---------------------------------------------------------------------------
# digamma and the limit constant
# ---------------------------------------------------------------------------

@lru_cache(maxsize=64)
def _gauss_tables(m: int, work: int) -> tuple:
    """The numerator-free parts of Gauss's theorem for denominator m at
    `work` bits: -gamma - log(2m), cos(2 pi j/m) for 0 <= j <= m/2, and
    log sin(pi n/m) for 1 <= n <= (m-1)/2.  Built on first use."""
    with mp.workprec(work):
        base = -mp.euler - mp.log(2 * m)
        cosines = tuple(mp.cospi(mp.mpf(2 * j) / m) for j in range(m // 2 + 1))
        logsines = tuple(mp.log(mp.sinpi(mp.mpf(n) / m)) for n in range(1, (m - 1) // 2 + 1))
    return base, cosines, logsines


def digamma(x: Fraction, precision: int) -> mp.mpf:
    """psi(x) for rational x > 0 to `precision` bits.

    Writes x = k + r/m with 0 < r <= m and gcd(r, m) = 1, and adds the exact
    rational sum_{i<k} 1/(r/m + i) to psi(r/m).  psi(1) = -gamma, and for
    0 < r < m Gauss's digamma theorem (DLMF §5.4(iii)) gives the finite sum

        psi(r/m) = -gamma - log(2m) - (pi/2) cot(pi r/m)
                   + 2 sum_{n=1}^{floor((m-1)/2)} cos(2 pi n r/m) log sin(pi n/m).

    Error budget: everything runs at work = precision + 16 + bitlen(m) bits.
    There are about m roundings, each below 2^-work times a partial sum of
    size at most m log m, and the rounded arguments of cot and log sin are
    amplified by at most m^2; so the absolute error stays below
    m^2 (1 + log m) 2^-work, which is under 2^-precision for m < 2^12.
    """
    x = Fraction(x)
    if x <= 0:
        raise ParamError("digamma requires x > 0")
    m = x.denominator
    k, r = divmod(x.numerator, m)
    if r == 0:
        k, r = k - 1, 1  # m == 1: psi(k) = psi(1) + H_{k-1}
    shift = sum((Fraction(m, r + i * m) for i in range(k)), Fraction(0))
    work = precision + 16 + m.bit_length()
    with mp.workprec(work):
        if m == 1:
            result = -mp.euler
        else:
            base, cosines, logsines = _gauss_tables(m, work)
            acc = mp.mpf(0)
            for n, logsine in enumerate(logsines, start=1):
                j = n * r % m
                acc += cosines[min(j, m - j)] * logsine
            result = base - mp.pi / 2 * mp.cot(mp.pi * r / m) + 2 * acc
        return +(result + mp.mpf(shift.numerator) / shift.denominator)


def divisor_rate(params: ParamSet, precision: int = 192) -> mp.mpf:
    """The limit of (1/t) log Delta_t: sum mu(u) (psi(u') - psi(u)) over the
    profile's steps, with u' the right endpoint (1 for the last one).

    Collected by breakpoint, this is sum_u (mu_left(u) - mu_right(u)) psi(u)
    over the breakpoints and 1, with mu = 0 left of 0 and from 1 on, so psi
    is evaluated once at each point where mu jumps.
    """
    profile = floor_gain_profile(params)
    points = profile.breakpoints + (Fraction(1),)
    left = (0,) + profile.values
    right = profile.values + (0,)
    work = precision + 16
    with mp.workprec(work):
        total = mp.mpf(0)
        for u, lo, hi in zip(points, left, right):
            if lo != hi:
                total += (lo - hi) * digamma(u, work)
        return +total


# ---------------------------------------------------------------------------
# integrality checks
# ---------------------------------------------------------------------------

def strong_integrality_check(params: ParamSet, t: int,
                             transforms: Sequence[DensePoly]) -> bool:
    """Delta_t^{-1} d_{N_1 t} ... d_{N_m t} T^m(L) has integer coefficients.

    `transforms` is the list [T(L), ..., T^m(L)] at scale t; only the last
    entry is checked.  Returns False only on a violation of the guarantee,
    which would mean a bug.
    """
    if not transforms:
        return True
    mult = lcm_clearing_multiplier(exponent_profile(params).cross_sums, t, len(transforms))
    delta = guaranteed_divisor(params, t)
    top = transforms[-1]
    for c in top.coeffs:
        scaled = c * mult
        if scaled.denominator != 1:
            return False
        if scaled.numerator % delta != 0:
            return False
    return True
