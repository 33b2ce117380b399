"""Arithmetic of the guaranteed coefficient divisors.

The transform iterates of a scaled Legendre polynomial have denominators
cleared by a product of lcm's d_{N_j t}, and their numerators share a large
prime-power divisor

    Delta_t = prod_{s prime, s^2 > N_1 t} s^mu({t/s}),

where mu(omega) is the largest gain the floor sums sum_j [(p_j + q_j) omega]
can make when the q's are permuted against the p's.  Each pair gains one
exactly when its two fractional parts sum to at least 1, so mu is a largest
threshold matching, found by a sort.  mu is a step function
with rational breakpoints, and (1/t) log Delta_t converges to a digamma
expression over those breakpoints.  Everything here is exact except the
digamma evaluations, which carry explicit precision.

All results are deterministic.  The exact integer/rational layer is safe to
use from threads.  Digamma is a finite sum by Gauss's theorem, taken exactly
over per-denominator integer tables (fixed point, read off the powers of
e^(i pi/m), with the log-sines and log(2m) from the integer kernel
exact.fixed_log) kept in a bounded cache, built on first use, never at import;
the tables are immutable, but the floating-point library's precision
context is process-global, so run parallel numeric work in separate
processes (as the CLI does), not threads.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd, isqrt, lcm, log
from typing import Sequence

import mpmath as mp

from .errors import ParamError
from .exact import DensePoly, fixed_log, lcm_clearing_multiplier, primes_in_range
from .legendre import ParamSet, check_precision


# ---------------------------------------------------------------------------
# exponent bookkeeping
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExponentProfile:
    """Sorted cross sums K and lcm exponents N."""

    cross_sums: tuple[int, ...]          # all p_i + q_j, descending
    lcm_exponents: tuple[Fraction, ...]  # N_j = max(K_j, K_1/j), j = 1..n


def exponent_profile(params: ParamSet) -> ExponentProfile:
    K = sorted((p + q for p in params.p for q in params.q), reverse=True)
    N = [max(Fraction(K[j - 1]), Fraction(K[0], j)) for j in range(1, params.n + 1)]
    return ExponentProfile(tuple(K), tuple(N))


# ---------------------------------------------------------------------------
# the floor-gain function mu and its step profile
# ---------------------------------------------------------------------------

def floor_gain(params: ParamSet, omega: Fraction) -> int:
    """max over permutations sigma of sum_j ([(p_j + q_sigma(j)) w] - [(p_j + q_j) w]).

    [a + b] = [a] + [b] + 1 exactly when {a} + {b} >= 1, and [a] + [b]
    otherwise.  So with w = num/den, a_j = p_j num mod den and
    b_k = q_k num mod den, a permutation's floor sum is a constant plus the
    number of its pairs with a_j + b_k >= den.  Any matching extends to a
    permutation, so mu is a largest matching of such pairs less the diagonal
    pairs that already have it.  Greedy finds that matching: some largest
    matching pairs the largest a with the smallest b that reaches den
    (exchange the two partners otherwise), and every b skipped on the way is
    too small for each later, smaller a.
    """
    omega = Fraction(omega)
    if not 0 <= omega < 1:
        raise ParamError("omega must lie in [0, 1)")
    num, den = omega.numerator, omega.denominator
    a = [p * num % den for p in params.p]
    b = [q * num % den for q in params.q]
    cols = sorted(b)
    k = matched = 0
    for x in sorted(a, reverse=True):
        while k < len(cols) and x + cols[k] < den:
            k += 1
        if k == len(cols):
            break
        matched += 1
        k += 1
    return matched - sum(x + y >= den for x, y in zip(a, b))


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

    def rows(self) -> list[dict]:
        """The segments as rows {"from": "a/b", "to": "c/d", "mu": v}."""
        return [{"from": f"{a.numerator}/{a.denominator}",
                 "to": f"{b.numerator}/{b.denominator}",
                 "mu": v} for a, b, v in self.segments()]


@lru_cache(maxsize=64)
def floor_gain_profile(params: ParamSet) -> FloorGainProfile:
    """Evaluate mu at every candidate breakpoint c/(p_i + q_j) and merge runs.

    The floors can only jump at fractions whose denominator is a cross sum,
    so the candidate set is complete by construction.  The candidates are
    sorted as integer numerators over L, the lcm of the cross sums.  Cached
    per parameter set (the profile is immutable), so repeated callers share
    one build.
    """
    sums = set(p + q for p in params.p for q in params.q)
    L = lcm(*sums)
    bps: list[Fraction] = []
    vals: list[int] = []
    for num in sorted({c * (L // s) for s in sums for c in range(s)}):
        x = Fraction(num, L)
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
    """The numerator-free parts of Gauss's theorem for a denominator m >= 2,
    each as an integer: the value times 2^work, truncated.  Built on first use.

    Returns (base, cosines, logsines, cotangents): base = -gamma - log(2m),
    cosines[j] = cos(2 pi j/m) for 0 <= j <= m/2, and logsines[k-1] =
    log sin(pi k/m), cotangents[k-1] = (pi/2) cot(pi k/m) for
    1 <= k <= (m-1)/2.  The circular values are read off the powers zeta^k,
    k <= m/2, of zeta = e^(i pi/m) (one expjpi, then products), as
    cos(pi k/m) = Re zeta^k and sin(pi k/m) = Im zeta^k, with
    cos(pi k/m) = -cos(pi (m-k)/m) for m/2 < k <= m.  The powers are
    dropped once the tables are read.  log(2m) and the log-sines come from
    exact.fixed_log on the exact mpf values (rounded, within one unit), so
    no logarithm depends on a per-precision cache of the float library.
    """
    half = m // 2
    with mp.workprec(work):
        zeta = mp.expjpi(mp.mpf(1) / m)
        powers = [mp.mpc(1)]
        for _ in range(half):
            powers.append(powers[-1] * zeta)

        def fixed(x) -> int:
            return int(mp.ldexp(x, work))

        base = fixed(-mp.euler) - fixed_log(m, 1, work)
        cosines = tuple(fixed(powers[2 * j].real) if 2 * j <= half
                        else -fixed(powers[m - 2 * j].real) for j in range(half + 1))
        below_half = range(1, (m - 1) // 2 + 1)
        logsines = tuple(fixed_log(*powers[k].imag.man_exp, work) for k in below_half)
        cotangents = tuple(fixed(mp.pi / 2 * powers[k].real / powers[k].imag)
                           for k in below_half)
    return base, cosines, logsines, cotangents


def digamma(x: Fraction, precision: int) -> mp.mpf:
    """psi(x) for rational x > 0 to `precision` bits.

    Writes x = k + r/m with 0 < r <= m and gcd(r, m) = 1, and adds the exact
    rational sum_{i<k} 1/(r/m + i) to psi(r/m).  psi(1) = -gamma, and for
    0 < r < m Gauss's digamma theorem (DLMF §5.4(iii)) gives the finite sum

        psi(r/m) = -gamma - log(2m) - (pi/2) cot(pi r/m)
                   + 2 sum_{n=1}^{floor((m-1)/2)} cos(2 pi n r/m) log sin(pi n/m),

    summed exactly over the integer tables of :func:`_gauss_tables`.

    Error budget, for every m: with b = bitlen(m) and u = 2^-work, where
    work = precision + 8 + 3b.  zeta carries an error of at most 2u, and
    each of the k <= m/2 complex products adds at most 3u, so every power
    is off by at most 2^(b+2) u, and truncation to the integer scale adds u.
    Since sin(pi n/m) >= 2/m, that moves log sin by at most
    2^(2b+1) u (1 + 2^-work), and exact.fixed_log adds under u: at most
    2^(2b+2) u.  (pi/2) cot = (pi/2) cos/sin is off by at most
    2^(3b+3) u.  Each of the m - 1 < 2^b weighted terms of
    2 sum cos log sin, where |log sin| < b, is off by at most 2^(2b+3) u,
    the sum by at most 2^(3b+3) u.  base is off by under 3u (-gamma
    rounded and truncated, log(2m) from the kernel), and the roundings of
    result and rational shift add their sizes times u, at most 2^(b+3) u
    in all for 0 < x <= 1 (for larger x the shift's rounding is relative),
    so the total stays below 2^(3b+5) u = 2^-(precision + 3).  A precision
    below legendre.MIN_PRECISION raises ParamError.
    """
    check_precision(precision)
    x = Fraction(x)
    if x <= 0:
        raise ParamError("digamma requires x > 0")
    m = x.denominator
    k, r = divmod(x.numerator, m)
    if r == 0:
        k, r = k - 1, 1  # m == 1: psi(k) = psi(1) + H_{k-1}
    shift = sum((Fraction(m, r + i * m) for i in range(k)), Fraction(0))
    work = precision + 8 + 3 * m.bit_length()
    with mp.workprec(work):
        if m == 1:
            result = -mp.euler
        else:
            base, cosines, logsines, cotangents = _gauss_tables(m, work)
            acc, j = 0, 0
            for logsine in logsines:
                j = (j + r) % m  # n r mod m
                acc += cosines[min(j, m - j)] * logsine
            if 2 * r == m:
                cot = 0  # (pi/2) cot(pi r/m), odd about r = m/2
            else:
                cot = cotangents[r - 1] if 2 * r < m else -cotangents[m - r - 1]
            result = mp.mpf((((base - cot) << work) + 2 * acc, -2 * work))
        return +(result + mp.mpf(shift.numerator) / shift.denominator)


def divisor_rate(params: ParamSet, precision: int = 192) -> mp.mpf:
    """The limit of (1/t) log Delta_t: sum mu(u) (psi(u') - psi(u)) over the
    profile's steps, with u' the right endpoint (1 for the last one).

    Collected by breakpoint, this is sum_u (mu_left(u) - mu_right(u)) psi(u)
    over the breakpoints and 1, with mu = 0 left of 0 and from 1 on, so psi
    is evaluated once at each point where mu jumps.  A precision below
    legendre.MIN_PRECISION raises ParamError.
    """
    check_precision(precision)
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
    entry is checked, in its cleared form (1/den) sum nums[k] z^k.  Returns
    False only on a violation of the guarantee, which would mean a bug.

    For each prime s dividing den, the coefficient whose reduced denominator
    carries den's full power of s has a numerator prime to s.  So mult c is
    an integer for every coefficient c exactly when den divides mult, and
    Delta_t then divides every mult c exactly when it divides
    (mult/den) gcd(nums).  The zero polynomial (den = 1, gcd() = 0) passes.
    """
    if not transforms:
        return True
    mult = lcm_clearing_multiplier(exponent_profile(params).cross_sums, t, len(transforms))
    den, nums = transforms[-1].cleared()
    return mult % den == 0 and mult // den * gcd(*nums) % guaranteed_divisor(params, t) == 0
