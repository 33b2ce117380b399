"""Exact integer/rational arithmetic primitives and dense polynomials.

Integers are plain Python ints (arbitrary precision, exact).  Rationals are
``fractions.Fraction`` values, always reduced with positive denominator.
Polynomials are dense coefficient lists in one variable, lowest degree first,
with no trailing zero coefficients; coefficients may be ints or Fractions
(both expose ``.numerator`` / ``.denominator``).

Roots are located by Descartes' rule of signs: by Rolle's theorem the
Legendre polynomials have only real roots, and then the rule is exact.

fixed_log is a logarithm in fixed point on ints, with a stated error and
no cache that depends on its argument.  The modular kernel at the end works
on residues modulo 128-bit primes and lifts its results to the rationals by
rational reconstruction; it uses ints only.

Everything in this module is pure and deterministic; values are immutable
after construction and safe to share across threads.
"""

from __future__ import annotations

from decimal import Decimal
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate
from math import comb, gcd, isqrt, lcm, prod
from typing import Iterable, Optional, Sequence, Union

Rational = Union[int, Fraction]

NEG_INF = float("-inf")


# ---------------------------------------------------------------------------
# integers, primes, lcm
# ---------------------------------------------------------------------------

def decimal_digits(n: int) -> str:
    """str(n) for an int of any size: its decimal digits, '-' first if n < 0.

    The conversion goes through ``decimal.Decimal``, which is exact and not
    subject to CPython's int-to-str digit limit (4300 digits by default),
    and it leaves the process-wide limit alone.
    """
    return str(Decimal(n))


def _sieve_upto(n: int) -> bytearray:
    flags = bytearray(b"\x01") * (n + 1)
    flags[:2] = b"\x00\x00"
    for p in range(2, isqrt(n) + 1):
        if flags[p]:
            flags[p * p :: p] = b"\x00" * len(range(p * p, n + 1, p))
    return flags


def primes_in_range(lo, hi) -> list[int]:
    """All primes s with lo < s <= hi, ascending."""
    if lo < 0 or hi < lo:
        raise ValueError("need 0 <= lo <= hi")
    hi_i = int(hi)
    if hi_i < 2:
        return []
    flags = _sieve_upto(hi_i)
    return [p for p in range(2, hi_i + 1) if flags[p] and lo < p]


@lru_cache(maxsize=None)
def lcm_upto(l: int) -> int:
    """lcm(1, ..., l) as an exact integer, via maximal prime powers <= l; lcm_upto(0) = 1."""
    if l < 0:
        raise ValueError("l must be nonnegative")
    if l <= 1:
        return 1
    out = 1
    for p in primes_in_range(1, l):
        pk = p
        while pk * p <= l:
            pk *= p
        out *= pk
    return out


def lcm_clearing_multiplier(sums: Sequence[int], t: int, m: int) -> int:
    """prod_{j=1..m} d_{max(X_j t, floor(X_1 t / j))}, d_l = lcm(1..l), for
    descending sums X: the diagonal sums p_l + q_l, or the cross sums p_i + q_j."""
    return prod(lcm_upto(max(sums[j - 1] * t, sums[0] * t // j)) for j in range(1, m + 1))


# ---------------------------------------------------------------------------
# fixed-point logarithm
# ---------------------------------------------------------------------------

@lru_cache(maxsize=16)
def _anchor_logs(prec: int) -> tuple[int, ...]:
    """log(1 + j/64) 2^prec for j = 0..64, each below the true value by less
    than 9.2 prec + 128; the last entry is ln 2.

    Chained as log(1 + j/64) = log(1 + (j-1)/64) + 2 atanh(1/(127 + 2j)),
    with atanh(1/k) = sum_i k^-(2i+1)/(2i+1).  The powers are chained floor
    quotients, which are exact floors, so each of the fewer than
    prec/14 + 1 terms (k^2 > 2^14) is low by under 1 and each link by under
    2 prec/14 + 2.
    """
    one, acc, out = 1 << prec, 0, [0]
    for k in range(129, 256, 2):
        k2, power, d, s = k * k, one // k, 1, 0
        while power:
            s += power // d
            power //= k2
            d += 2
        acc += 2 * s
        out.append(acc)
    return tuple(out)


def fixed_log(man: int, exp: int, work: int) -> int:
    """log(man 2^exp) 2^work rounded to an int, within 1 of the true value,
    for man > 0 and work >= 1.  Ints only: no floating-point library call
    and no cache that depends on the argument.

    With b = bitlen(man) and e = exp + b - 1 the argument is x 2^e with x
    in [1, 2), held as X = floor(x 2^P) at P = work + g bits,
    g = r + bitlen(work) + bitlen(|e|) + 8.  The six bits of x after the
    leading one pick the anchor a = 1 + j/64, and Y = floor(X/a) puts y in
    [1, 1 + 1/64).  r = work // 640 square roots (math.isqrt; above about
    600 bits a root is cheaper than the series terms it saves) bring y
    nearer to 1, and log y = 2 atanh(v), v = (y - 1)/(y + 1) < 2^-7, is
    summed as mpmath's log_taylor sums it, two terms per multiplication by
    v^4.  Then log(x 2^e) = 2^r log y + log a + e ln 2, the last two read
    from :func:`_anchor_logs` at T bits, P + 16 + bitlen(P) rounded up to a
    multiple of 256, and shifted down, so that nearby precisions share one
    table.

    Error, in units u = 2^-P: X and Y lose under u each; each root lowers
    log y by under u, which the doubling back scales to under 2^(r+1) in
    all; each of the N < P/14 + 4 series terms is off by under 1.21 and v
    and the last product by under 1.01 each, all doubled back r + 1 times:
    2^(r+1) (0.087 P + 9); the table entries and e ln 2, with the shift,
    under (|e| + 1)(9.2 T + 128) 2^(P-T) + 1 < |e|/64 + 2, since
    T - P >= 16 + bitlen(P).  With W = 2^bitlen(work) and
    E = 2^bitlen(|e|) > |e|, and P < 2.01 W + E + 8, the sum stays below
    2^(g-1) = 2^(r+7) W E, and the final rounding adds 1/2 unit of 2^-work.
    """
    if man <= 0 or work < 1:
        raise ValueError("fixed_log needs man > 0 and work >= 1")
    b = man.bit_length()
    e = exp + b - 1
    r = work // 640
    P = work + r + work.bit_length() + abs(e).bit_length() + 8
    X = man << (P - b + 1) if P >= b - 1 else man >> (b - 1 - P)
    j = (X >> (P - 6)) - 64
    y = (X << 6) // (64 + j)
    for _ in range(r):
        y = isqrt(y << P)
    one = 1 << P
    v = ((y - one) << P) // (y + one)
    v2 = v * v >> P
    v4 = v2 * v2 >> P
    s0, s1, k = v, v // 3, 5
    v = v * v4 >> P
    while v:
        s0 += v // k
        s1 += v // (k + 2)
        v = v * v4 >> P
        k += 4
    T = -(-(P + 16 + P.bit_length()) // 256) * 256
    table = _anchor_logs(T)
    acc = ((s0 + (s1 * v2 >> P)) << (r + 1)) + ((table[j] + e * table[64]) >> (T - P))
    g = P - work
    return (acc + (1 << (g - 1))) >> g


# ---------------------------------------------------------------------------
# dense polynomials
# ---------------------------------------------------------------------------

def _normalize(coeffs: Iterable[Rational]) -> tuple[Rational, ...]:
    cs = list(coeffs)
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


class DensePoly:
    """Dense polynomial with exact rational coefficients, lowest degree first.

    Canonical form: no trailing zero coefficients; the zero polynomial has an
    empty coefficient tuple and degree -inf.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[Rational] = ()):
        object.__setattr__(self, "coeffs", _normalize(coeffs))

    def __setattr__(self, *a):  # immutable
        raise AttributeError("DensePoly is immutable")

    # -- basics --------------------------------------------------------

    @property
    def degree(self):
        return len(self.coeffs) - 1 if self.coeffs else NEG_INF

    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        if isinstance(other, DensePoly):
            return self.coeffs == other.coeffs
        return NotImplemented

    def __repr__(self):
        return f"DensePoly({list(self.coeffs)!r})"

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other: "DensePoly") -> "DensePoly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return DensePoly(out)

    def __neg__(self) -> "DensePoly":
        return DensePoly([-c for c in self.coeffs])

    def __sub__(self, other: "DensePoly") -> "DensePoly":
        return self + (-other)

    def __mul__(self, other) -> "DensePoly":
        if isinstance(other, DensePoly):
            a, b = self.coeffs, other.coeffs
            if not a or not b:
                return DensePoly()
            out = [0] * (len(a) + len(b) - 1)
            for i, ai in enumerate(a):
                if ai:
                    for j, bj in enumerate(b):
                        out[i + j] += ai * bj
            return DensePoly(out)
        return DensePoly([c * other for c in self.coeffs])

    __rmul__ = __mul__

    def evaluate(self, x: Rational) -> Fraction:
        """P(x) as an exact rational: Horner's rule in integers on the cleared
        coefficients and x = a/b, with one division at the end."""
        if not self.coeffs:
            return Fraction(0)
        den, nums = self.cleared()
        a, b = x.numerator, x.denominator
        acc, bp = 0, 1
        for c in reversed(nums):
            acc = acc * a + c * bp
            bp *= b
        return Fraction(acc, den * bp // b)

    def compose_negative(self) -> "DensePoly":
        """Return P(-z)."""
        return DensePoly([-c if i % 2 else c for i, c in enumerate(self.coeffs)])

    def compose_one_minus(self) -> "DensePoly":
        """Return P(1 - z), exactly."""
        out = [0] * len(self.coeffs)
        for j, c in enumerate(self.coeffs):
            if c:
                sign = 1
                for i in range(j + 1):
                    out[i] += c * sign * comb(j, i)
                    sign = -sign
        return DensePoly(out)

    def order_at_zero(self) -> int:
        if not self.coeffs:
            raise ValueError("zero polynomial has no finite order")
        return next(i for i, c in enumerate(self.coeffs) if c)

    def order_at_one(self) -> int:
        """Multiplicity of the root z = 1 (0 if P(1) != 0)."""
        if not self.coeffs:
            raise ValueError("zero polynomial has no finite order")
        p, k = self, 0
        while sum(p.coeffs) == 0:  # P(1)
            p = p.deflate_at_one()
            k += 1
        return k

    def deflate_at_one(self) -> "DensePoly":
        """Exact division by (1 - z); requires P(1) == 0.  The quotient's
        coefficients are the prefix sums of P's, the last of which is P(1)."""
        sums = list(accumulate(self.coeffs))
        if sums and sums[-1]:
            raise ValueError("polynomial does not vanish at 1")
        return DensePoly(sums[:-1])

    def content_denominator(self) -> int:
        """Positive lcm of coefficient denominators (1 for integer polys)."""
        return lcm(*{c.denominator for c in self.coeffs})

    def cleared(self) -> tuple[int, list[int]]:
        """(den, nums), den the content denominator and nums the integer
        coefficients of den * P, so that P = (1/den) sum_k nums[k] z^k."""
        den = self.content_denominator()
        return den, [c.numerator * (den // c.denominator) for c in self.coeffs]

    def derivative(self) -> "DensePoly":
        return DensePoly([i * c for i, c in enumerate(self.coeffs)][1:])

    # -- serialization ---------------------------------------------------

    def render(self) -> str:
        """Canonical text form: one 'num/den' per line, lowest degree first."""
        return "\n".join(f"{decimal_digits(c.numerator)}/{decimal_digits(c.denominator)}"
                         for c in self.coeffs)


def unit_interval_sign_variations(P: DensePoly) -> tuple[int, int]:
    """Sign variations in the coefficients of P(-x) and of P(1+x).

    By Descartes' rule of signs they bound the numbers of roots below 0 and
    above 1, with multiplicity, and equal them when all roots are real.
    """
    def variations(Q: DensePoly) -> int:
        signs = [c > 0 for c in Q.coeffs if c]
        return sum(a != b for a, b in zip(signs, signs[1:]))

    return (variations(P.compose_negative()),
            variations(P.compose_one_minus().compose_negative()))


# ---------------------------------------------------------------------------
# modular linear algebra
# ---------------------------------------------------------------------------

_PROTH_BASES = (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)


@lru_cache(maxsize=None)
def modular_prime(i: int) -> int:
    """The i-th largest prime N = k 2^64 + 1 with odd k < 2^64 (i >= 0).

    Proth's theorem proves each one: such an N is prime when
    a^((N-1)/2) = -1 mod N for some a.  Candidates on which every base in
    _PROTH_BASES gives 1 are skipped unproven, so the sequence is fixed and
    holds only primes, each of 128 bits.
    """
    if i < 0:
        raise ValueError("i must be nonnegative")
    k = (modular_prime(i - 1) >> 64) - 2 if i else (1 << 64) - 1
    while True:
        N = (k << 64) + 1
        for a in _PROTH_BASES:
            r = pow(a, N >> 1, N)
            if r != 1:
                if r == N - 1:
                    return N
                break
        k -= 2


def first_dependency_mod(columns: Sequence[Sequence[int]], p: int
                         ) -> Optional[tuple[int, list[int]]]:
    """The first column of an integer matrix that depends on the earlier
    columns modulo the prime p, with the combination that shows it.

    Returns (k, c) with c[k] = 1, residues c[0..k-1] in [0, p) and
    sum_i c[i] columns[i] = 0 mod p; None when all columns are independent
    modulo p.  Column k is reduced as its residues followed by the unit
    vector e_k, so its entries past the rows carry the combination of the
    original columns that it equals; each pivot keeps its vector from its
    first nonzero entry on.  Pivot j's combination ends at index j < k, so
    c[k] stays 1 and every entry stays in [0, p).
    """
    pivots: list[tuple[int, int, list[int]]] = []  # (row, 1/entry, vector from row on)
    for k, col in enumerate(columns):
        rows = len(col)
        vec = [x % p for x in col] + [0] * k + [1]
        for r, inv, tail in pivots:
            if vec[r]:
                f = vec[r] * inv % p
                vec[r:r + len(tail)] = [(a - f * b) % p for a, b in zip(vec[r:], tail)]
        first = next(r for r, x in enumerate(vec) if x)
        if first >= rows:
            return k, vec[rows:]
        pivots.append((first, pow(vec[first], -1, p), vec[first:]))
    return None


def crt_pair(r: int, m: int, s: int, p: int) -> int:
    """The x in [0, m p) with x = r mod m and x = s mod p; gcd(m, p) = 1."""
    return r + m * ((s - r) * pow(m, -1, p) % p)


def rational_reconstruction(a: int, m: int) -> Optional[tuple[int, int]]:
    """The (num, den) with den > 0, gcd(num, den) = 1, |num|, den <= B and
    num = a den mod m, where B = isqrt((m - 1) // 2); None when none exists.

    Since 2 B^2 < m, at most one such fraction exists (Wang 1981).  The
    extended Euclidean algorithm on (m, a) is stopped at the first remainder
    <= B; that remainder over its cofactor is the only candidate.
    """
    bound = isqrt((m - 1) // 2)
    r0, r1 = m, a % m
    t0, t1 = 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        t0, t1 = t1, t0 - q * t1
    if abs(t1) > bound or gcd(r1, t1) != 1:
        return None
    return (r1, t1) if t1 > 0 else (-r1, -t1)
