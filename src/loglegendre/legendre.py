"""Multiple Legendre polynomials, the averaging transform T, and log forms.

The polynomials are defined by composing differential operators

    D[p,q](P) = z^q (1-z)^p D_{p+q}( z^p (1-z)^q P(z) ),

where D_m is the m-th derivative divided by m!.  Applying D[p_1*t, q_1*t]
after ... after D[p_n*t, q_n*t] to the constant 1 yields an integer
polynomial L of degree M*t with M = sum(p_l + q_l).  One loop carries the
composition as z^s (1-z)^e c (see :func:`_compose`); the reduced polynomial
is read from its last state.  L itself is built from a linear recurrence of
order n in the coefficient index (:func:`_index_relation`), n small-by-big
products and one exact division per coefficient where the composition
makes one pass over the list per factor (1-z); the composition stays as
the definition that the structural checks compare L against.  The transform

    T(P)(z) = integral_0^1 (P(z) - P(y)) / (z - y) dy

acts on monomials by T(z^k) = sum_{i<k} z^i / (k-i) and produces the
companion rational polynomials; the associated log forms are

    L(z) * log(z/(z-1))^j - T^j(L)(z),

which are exponentially small compared to their two terms when z < 0.
Evaluating them therefore needs the cancellation-aware precision policy
implemented in :func:`legendre_function_value`.

T is a Toeplitz product with the weights lcm(1..d)/j: the low d slots of
the product of the reversed inputs and the weights, read from one Kronecker
product in base 10^w by the ``decimal`` module (its multiplication is a
number-theoretic transform for large operands; CPython ints use Karatsuba):

- bias: the inputs are shifted by h = max |input| to lie in [0, 2h], and
  h times a prefix sum of the weights is subtracted from each output;
- slot width: 10^w exceeds 2h times the sum of all weights, which bounds
  every slot of the product, so its digits are the sums.

The iterates T^j(L) are transforms of a shorter polynomial: L = W R with the
boundary factor W = z^(q_1 t) (1-z)^(p_1 t), and T^j(L) = W T^j(R) because R
and its transforms are orthogonal to every polynomial of degree below
deg W = (p_1 + q_1) t (see :func:`transform_iterates`).

Construction and transforms are exact integer/rational work, safe across
threads: the transform runs in a decimal context of its own with unbounded
precision, and neither reads the precision nor changes the state of the
thread's current context.  The form evaluations set the floating-point
library's process-global precision, so parallelize those across processes
instead.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from decimal import MAX_EMAX, MAX_PREC, MIN_EMIN, ROUND_DOWN, Context, Decimal
from fractions import Fraction
from itertools import accumulate, permutations
from math import comb, factorial, prod
from operator import mul
from typing import Optional, Sequence

import mpmath as mp

from .errors import InternalCheckError, ParamError, PrecisionError
from .exact import (DensePoly, decimal_digits, lcm_clearing_multiplier, lcm_upto,
                    unit_interval_sign_variations)

IDENTITY_CAP = 60                  # largest M*t the identity suite will accept
DEFAULT_GRID_STEP = Fraction(1, 1000)
DEFAULT_MAX_WORKING_BITS = 1 << 22


# ---------------------------------------------------------------------------
# parameters
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ParamSet:
    """One problem instance: exponent tuples p, q, evaluation point z = a/b.

    Constraints: every p_j >= 1 and q_j >= 0; z is a reduced rational outside
    [0, 1] (the canonical instances have z < 0).  When the form order m is
    given, 1 <= m <= n-1 and both p_1 <= ... <= p_{m+1} and
    q_1 <= ... <= q_{m+1} must hold.
    """

    p: tuple[int, ...]
    q: tuple[int, ...]
    z: Fraction
    m: Optional[int] = None

    def __post_init__(self):
        p, q = tuple(self.p), tuple(self.q)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "q", q)
        if not p or len(p) != len(q):
            raise ParamError("p and q must be nonempty tuples of equal length")
        if not (all(isinstance(x, int) for x in p + q + (self.m or 0,))
                and isinstance(self.z, (int, Fraction))):
            raise ParamError("p, q and m must be ints, and z an int or a Fraction")
        object.__setattr__(self, "z", Fraction(self.z))
        if any(x <= 0 for x in p):
            raise ParamError("all p_j must be positive")
        if any(x < 0 for x in q):
            raise ParamError("all q_j must be nonnegative")
        if 0 <= self.z <= 1:
            raise ParamError("z must lie outside [0, 1]")
        if self.m is not None:
            if not 1 <= self.m <= self.n - 1:
                raise ParamError(f"m must satisfy 1 <= m <= {self.n - 1}")
            k = self.m + 1
            if list(p[:k]) != sorted(p[:k]) or list(q[:k]) != sorted(q[:k]):
                raise ParamError(
                    "monotonicity violated: need p_1 <= ... <= p_(m+1) "
                    "and q_1 <= ... <= q_(m+1)"
                )

    @property
    def n(self) -> int:
        return len(self.p)

    @property
    def total_degree(self) -> int:
        """M = sum(p_l + q_l); the degree of the polynomial at t = 1."""
        return sum(self.p) + sum(self.q)

    def pairs(self) -> list[tuple[int, int]]:
        return list(zip(self.p, self.q))

    def describe(self) -> dict:
        return {
            "n": self.n,
            "m": self.m,
            "p": list(self.p),
            "q": list(self.q),
            "z": f"{self.z.numerator}/{self.z.denominator}",
        }


MIN_PRECISION = 64  # fewest bits a numeric result is computed to


def check_precision(precision: int) -> None:
    """Raise ParamError below MIN_PRECISION bits: there the guard bits and
    the separation and rounding margins of the numeric routines exceed the
    precision itself, and their results are wrong without warning."""
    if precision < MIN_PRECISION:
        raise ParamError(f"precision must be at least {MIN_PRECISION} bits, got {precision}")


# ---------------------------------------------------------------------------
# construction (integer fast path)
# ---------------------------------------------------------------------------

def _mul_one_minus_z_pow(c: list[int], k: int) -> list[int]:
    """Coefficients of (1-z)^k times c, as k first-difference passes.

    Each pass maps c to the coefficients of (1-z) c, c_i - c_{i-1}, so the
    product costs k big-integer subtractions per coefficient and no
    multiplication.
    """
    for _ in range(k):
        c = [a - b for a, b in zip(c + [0], [0] + c)]
    return c


def _compose(pairs: Sequence[tuple[int, int]], t: int) -> tuple[int, int, list[int]]:
    """(s, e, c) with z^s (1-z)^e c the composition of D[p_l t, q_l t] over
    pairs applied to 1, the last pair innermost.

    D[p,q] maps z^s (1-z)^e c to z^q (1-z)^p D_{p+q}( z^(p+s) x ), x =
    (1-z)^(q+e) c, and D_{p+q} sends z^(p+s+j) to C(j+p+s, p+q) z^(j+s-q),
    zero for j < q-s.  So the state becomes (max(s, q), p, [C(j+p+s, p+q) x_j
    for j >= max(0, q-s)]), p+q higher in degree (the top binomial is > 0).
    """
    s, e, c = 0, 0, [1]
    for p, q in reversed(pairs):
        p, q = p * t, q * t
        x = _mul_one_minus_z_pow(c, q + e)
        j0 = max(0, q - s)
        m, k = p + q, j0 + p + s
        b = comb(k, m)  # C(k, m), then C(k+1, m) = C(k, m)(k+1)/(k+1-m)
        c = []
        for xj in x[j0:]:
            c.append(b * xj)
            k += 1
            b = b * k // (k - m)
        s, e = max(s, q), p
    return s, e, c


def _legendre_scaled(pairs: Sequence[tuple[int, int]], t: int) -> list[int]:
    """Integer coefficients of the composition over (p_l*t, q_l*t), last pair innermost."""
    s, e, c = _compose(pairs, t)
    return [0] * s + _mul_one_minus_z_pow(c, e)


def _difference_table(values: list[int]) -> list[list[int]]:
    """[values, their forward differences, ..., down to a single entry]."""
    table = [values]
    while len(table[-1]) > 1:
        v = table[-1]
        table.append([y - x for x, y in zip(v, v[1:])])
    return table


def _index_relation(pairs: Sequence[tuple[int, int]], t: int, lo: int, count: int
                    ) -> list[tuple[int, ...]]:
    """For l = lo, ..., lo + count - 1 (lo >= 0), the weights
    (w_(n-1)(l), ..., w_0(l), g(l+1)) of the relation

        g(l+1) b_(l+1) + sum_{j<n} w_j(l) b_(l-j) = 0,

    where b_i = (-1)^i c_i for L = sum_i c_i z^i, g(k) = prod_j (k - Q_j),
    f(k) = prod_j (k + 1 + P_j), u = g - f and, with the forward difference
    Delta,

        w_j(l) = C(l, j) Delta^j u(l-j) + C(l+1, j+1) Delta^(j+1) g(l-j).

    Derivation (P_j = p_j t, Q_j = q_j t, H_j = P_j + Q_j).  The b_i are the
    Newton coefficients at k = 0 of Q(k) = prod_j C(k + P_j, H_j) (see the
    ``series`` docstring): Q(k) = sum_i b_i C(k, i).  As polynomials in k,
    g(k+1) Q(k+1) = f(k) Q(k), since C(k+1+P, H) (k+1-Q) = (k+1+P) C(k+P, H).
    For a polynomial v, the coefficient of C(k, l) in v(k) C(k, i) is
    C(l, i) Delta^(l-i) v(i) (expand Delta^l at 0), and the coefficients of
    h(k+1) are those of h at l and l+1 summed (C(k+1, l) = C(k, l) +
    C(k, l-1)).  So the coefficient of C(k, l) on the left less that on the
    right is the relation above.  Its order is n, not n+1: u has degree
    below n and g degree n, so the weight of b_(l-n) vanishes.  Each weight
    is a polynomial of degree at most n in l, so it is evaluated at the n+1
    points lo..lo+n and extended to the whole run by n prefix sums of its
    differences there.
    """
    n = len(pairs)
    base = lo - n + 1
    pts = range(base, lo + n + 2)
    g = [prod(i - q * t for _, q in pairs) for i in pts]
    dg = _difference_table(g)
    du = _difference_table([x - prod(i + 1 + p * t for p, _ in pairs) for x, i in zip(g, pts)])
    window = [[comb(l, j) * du[j][l - j - base] + comb(l + 1, j + 1) * dg[j + 1][l - j - base]
               for j in range(n - 1, -1, -1)] + [g[l + 1 - base]]
              for l in range(lo, lo + n + 1)]
    runs = []
    for column in zip(*window):
        firsts = [d[0] for d in _difference_table(list(column))]
        run = [firsts.pop()] * count  # the n-th difference is constant
        for first in reversed(firsts):
            run = list(accumulate(run[:-1], initial=first))
        runs.append(run)
    return list(zip(*runs))


def _legendre_coeffs(pairs: Sequence[tuple[int, int]], t: int) -> list[int]:
    """Integer coefficients of L over (p_l t, q_l t), t >= 0, solved from the
    relation of :func:`_index_relation` in the coefficient index.

    With K = max_j Q_j and d = M t, b_i = 0 for i < K (L vanishes to order
    K at z = 0), so b_K = Q(K) = prod_j C(K + P_j, H_j).  For l = K, ...,
    d - 1 the relation at l gives b_(l+1), since g(l+1) = prod_j (l + 1 - Q_j)
    is positive there: n products of a big integer by a small one and one
    exact division per coefficient, where the composition of the operators
    costs one pass over the list per factor (1 - z).  Two checks come free:
    every division is exact, and the relation at l = d gives b_(d+1) = 0
    (deg Q = d); InternalCheckError otherwise.  Ints only, and independent
    of the series oracle, which checks this arithmetic.
    """
    n, d = len(pairs), sum(p + q for p, q in pairs) * t
    K = max(q for _, q in pairs) * t
    b = [0] * (n - 1 + K) + [prod(comb(K + p * t, (p + q) * t) for p, q in pairs)]  # b_i at i+n-1
    for l, row in enumerate(_index_relation(pairs, t, K, d - K + 1), K):
        num = -sum(map(mul, row, b[l:l + n]))
        if l == d:
            if num:
                raise InternalCheckError(f"index relation leaves b_{d + 1} = {num} != 0")
            break
        x, rem = divmod(num, row[-1])
        if rem:
            raise InternalCheckError(f"index relation: inexact division at l = {l}")
        b.append(x)
    return [-x if i % 2 else x for i, x in enumerate(b[n - 1:])]


def legendre_poly(params: ParamSet, t: int) -> DensePoly:
    """The multiple Legendre polynomial at scale t; integer coefficients, degree M*t.

    Built by :func:`_legendre_coeffs`; the composition of the operators
    (:func:`_legendre_scaled`) is the definition that the structural checks
    compare it against.
    """
    if t < 1:
        raise ParamError("t must be >= 1")
    poly = DensePoly(_legendre_coeffs(params.pairs(), t))
    if poly.degree != params.total_degree * t:
        raise InternalCheckError(
            f"degree {poly.degree} != {params.total_degree * t} after construction"
        )
    return poly


def legendre_reduced(params: ParamSet, t: int) -> DensePoly:
    """The reduced polynomial (-1)^(q_1 t) z^(-q_1 t) (1-z)^(-p_1 t) L.

    The outermost operator D[p_1 t, q_1 t] leaves the composition as
    z^s (1-z)^(p_1 t) c with s >= q_1 t, so the reduced polynomial is
    z^(s - q_1 t) c, signed.
    """
    if t < 1:
        raise ParamError("t must be >= 1")
    s, _, c = _compose(params.pairs(), t)
    q1t = params.q[0] * t
    reduced = DensePoly([0] * (s - q1t) + c)
    return -reduced if q1t % 2 else reduced


# ---------------------------------------------------------------------------
# the transform T
# ---------------------------------------------------------------------------

# Digits per int() call when a slot is read back.  Below 640, the smallest
# int-str digit limit CPython accepts, so no limit applies to the pieces.
_INT_PIECE = 600
_INT_PIECE_BASE = 10 ** _INT_PIECE


def _slot_digits(bound: int) -> int:
    """A digit count w with 10^w > bound >= 0 (log10 2 < 0.30103)."""
    return bound.bit_length() * 30103 // 100000 + 1


def _toeplitz_tail(nums: list[int], inv: list[int]) -> list[int]:
    """out[i] = sum_{k>i} nums[k] inv[k-i] for 0 <= i < d = len(nums) - 1,
    where inv has d+1 entries, inv[0] is unused and inv[1..d] are positive.

    A short product by Kronecker substitution in base X = 10^w, multiplied
    by ``decimal``, whose large products use libmpdec's number-theoretic
    transform where CPython's ints use Karatsuba.  With

        r = sum_{a<d} (nums[d-a] + h) X^a,    v = sum_{c<d} inv[c+1] X^c,

    slot d-1-i of r*v is the biased out[i], and only the low d slots of
    r*v are read; libmpdec has no short product, so its d-1 high slots are
    computed and dropped.

    Bias: with h = max_{k>=1} |nums[k]|, the inputs nums[k] + h lie in
    [0, 2h], so every slot is a nonnegative integer.  The biased sums
    exceed out[i] by h S(d-i), S(n) = inv[1] + ... + inv[n], which one
    prefix sum removes.

    Slot width: a slot of r*v adds, for distinct c, at most 2h inv[c+1],
    so every slot is at most 2h S(d) < 10^w, and no slot carries into the
    next.

    Memory: the digit strings and r, v and r*v are O(d w); the measured
    peak (tracemalloc) is about 5 bytes per digit of d w, 2.0 MB for
    log2-m2 at t = 24 (d = 528, w = 699) and 10.5 MB for log2-m1 at
    t = 128 (d = 1280, w = 1626).

    Operands are packed from one decimal digit string each, with the
    digits from ``Decimal`` rather than str(int), and the low slots are
    read back as one digit string the same way.  Each slot is int() over
    pieces of at most _INT_PIECE = 600 digits, combined by Horner's rule;
    600 is below 640, the smallest int-str digit limit CPython accepts, so
    no limit applies at any w (the pure-Python ``_pydecimal`` converts ints
    through str and keeps the limit).  The arithmetic runs in a private
    context with unbounded precision and exponent, never in the thread's
    current context, so it is exact and safe to call from several threads
    at once.
    """
    d = len(nums) - 1
    if d <= 0:
        return []
    h = max(map(abs, nums[1:]))
    prefix = [0] * (d + 1)
    for j in range(1, d + 1):
        prefix[j] = prefix[j - 1] + inv[j]
    w = _slot_digits(2 * h * prefix[d])
    ctx = Context(prec=MAX_PREC, Emax=MAX_EMAX, Emin=MIN_EMIN, rounding=ROUND_DOWN)
    r = Decimal("".join([decimal_digits(x + h).zfill(w) for x in nums[1:]]))  # slot a: nums[d-a]
    v = Decimal("".join([decimal_digits(x).zfill(w) for x in inv[d:0:-1]]))   # slot c: inv[c+1]
    rv = ctx.multiply(r, v)
    high = ctx.to_integral_value(ctx.scaleb(rv, -w * d))
    text = format(ctx.subtract(rv, ctx.scaleb(high, w * d)), "f").zfill(w * d)
    head = w % _INT_PIECE or _INT_PIECE  # digits in a slot's first piece
    out = [0] * d
    for i in range(d):  # text piece i is slot d-1-i
        a = w * i
        x = int(text[a:a + head])
        for c0 in range(a + head, a + w, _INT_PIECE):
            x = x * _INT_PIECE_BASE + int(text[c0:c0 + _INT_PIECE])
        out[i] = x - h * prefix[d - i]
    return out


def christoffel_transform(P: DensePoly) -> DensePoly:
    """T(P)(z) = integral_0^1 (P(z)-P(y))/(z-y) dy, via T(z^k) = sum_{i<k} z^i/(k-i).

    With P = (1/den) sum_k nums[k] z^k and big = lcm(1..d), the coefficient
    of z^i is sum_{k>i} nums[k] (big/(k-i)) / (den big), a Toeplitz product
    of the weights big/m of :func:`_iterate_weights` (j = 1), computed by
    :func:`_toeplitz_tail`.
    """
    d = len(P.coeffs) - 1
    if d <= 0:
        return DensePoly()
    den, nums = P.cleared()
    big = lcm_upto(d)
    out = _toeplitz_tail(nums, _iterate_weights(d, 1, big))
    full_den = den * big
    return DensePoly([Fraction(c, full_den) for c in out])


def transform_iterates(params: ParamSet, t: int, L: DensePoly, m: int) -> list[DensePoly]:
    """[T(L), T^2(L), ..., T^m(L)] for L = legendre_poly(params, t), computed
    as T^j(L) = W T^j(R) from the quotient R = L/W of degree (M - H_1) t.

    W = z^(q_1 t) (1-z)^(p_1 t), of degree H_1 t = (p_1 + q_1) t, is the
    boundary factor that the outermost operator puts around L, so R is the
    reduced polynomial up to sign.  For any polynomial P,

        T(W P)(z) - W(z) T(P)(z) = integral_0^1 P(y) (W(z) - W(y))/(z - y) dy,

    and the kernel (W(z) - W(y))/(z - y) is a polynomial in y of degree
    below H_1 t.  R and its first m-1 transforms are orthogonal on [0, 1] to
    every polynomial of degree below H_1 t: the multiple orthogonality of
    the forms, under the monotonicity that params.m carries, which
    :func:`check_orthogonality` verifies on its own.  So the integral
    vanishes for P = T^(j-1)(R), and T^j(W R) = W T^j(R) follows one iterate
    at a time.  Each transform then has degree (M - H_1) t instead of M t.

    L must be legendre_poly(params, t): an L of another degree, or one that
    W does not divide exactly, raises ParamError.  R is L's coefficients
    without the q_1 t leading zeros, prefix-summed p_1 t times (one prefix
    sum divides by 1-z); the last p_1 t sums must be zero.  Each T^j(R) is
    multiplied back by (1-z)^(p_1 t) on its integer numerators and shifted
    by z^(q_1 t), so the Fractions of T^j(L) are built once.  m must not
    exceed params.m.
    """
    if params.m is None or m > params.m:
        raise ParamError("m exceeds the order carried by the parameter set")
    if m < 1:
        raise ParamError("m must be >= 1")
    if L.degree != params.total_degree * t:
        raise ParamError(f"L has degree {L.degree}, not M t = {params.total_degree * t}")
    p, q = params.p[0] * t, params.q[0] * t
    r = L.coeffs[q:]
    for _ in range(p):
        r = list(accumulate(r))
    if any(L.coeffs[:q]) or any(r[-p:]):
        raise ParamError(f"L is not divisible by z^{q} (1-z)^{p}, so not legendre_poly")
    cur = DensePoly(r[:-p])
    out = []
    for _ in range(m):
        cur = christoffel_transform(cur)
        den, nums = cur.cleared()
        nums = _mul_one_minus_z_pow(nums, p)
        out.append(DensePoly([0] * q + [Fraction(c, den) for c in nums]))
    return out


def _iterate_weights(d: int, j: int, big: int) -> list[int]:
    """big^j a_j(m) for m = 0..d, where T^j(z^k) = sum_{i<k} a_j(k-i) z^i.

    a_j(m) = j! |s(m, j)| / m! (s a Stirling number of the first kind), the
    z^m coefficient of (-log(1-z))^j; a_1(m) = 1/m.  With
    e_r(m) = e_r(1, 1/2, ..., 1/(m-1)) the elementary symmetric functions,
    a_j(m) = j! e_(j-1)(m) / m, and E_r(m) = big^r e_r(m) are integers for
    big = lcm(1..d) obeying E_r(1) = 0 and E_r(m+1) = E_r(m) + E_(r-1)(m) big/m
    (r >= 1).  So the rows X_r(m) = j! E_r(m) big/m start at
    X_0(m) = j! big/m, and X_r(m) is big/m times the sum of X_(r-1) below m;
    the weights are X_(j-1).  The rows are chained generators, so only the
    last one is ever held.
    """
    top = factorial(j) * big
    row = (top // m for m in range(1, d + 1))
    for _ in range(j - 1):
        row = (s * (big // m) for m, s in zip(range(1, d + 1), accumulate(row, initial=0)))
    return [0, *row]


def christoffel_value(P: DensePoly, z: Fraction, j: int = 1) -> Fraction:
    """T^j(P)(z) as an exact rational, without building T(P), ..., T^(j-1)(P).

    With the suffix evaluations S_m = sum_{k>=m} c_k z^(k-m), which satisfy
    S_m = c_m + z S_(m+1), T^j(P)(z) = sum_m a_j(m) S_m for the weights of
    :func:`_iterate_weights` (a_1(m) = 1/m); O(deg) big-integer operations
    plus O(j deg) for the weights.
    """
    if j < 1:
        raise ParamError("j must be >= 1")
    d = len(P.coeffs) - 1
    if d <= 0:
        return Fraction(0)
    den, nums = P.cleared()
    a, b = z.numerator, z.denominator
    bp = [1] * (d + 1)
    for i in range(1, d + 1):
        bp[i] = bp[i - 1] * b
    big = lcm_upto(d)
    weight = _iterate_weights(d, j, big)
    u = nums[d]
    total = u * weight[d] * bp[d - 1]
    for m in range(d - 1, 0, -1):
        u = nums[m] * bp[d - m] + a * u
        total += u * weight[m] * bp[m - 1]
    return Fraction(total, den * big ** j * bp[d - 1])


def eval_at_rational(P: DensePoly, z: Fraction) -> Fraction:
    """P(z) as an exact rational (integer-arithmetic Horner)."""
    return P.evaluate(z)


# ---------------------------------------------------------------------------
# high-precision log forms
# ---------------------------------------------------------------------------

def _bit_magnitude(x: Fraction) -> int:
    if x == 0:
        return 0
    return max(0, x.numerator.bit_length() - x.denominator.bit_length())


def _mpf_from_fraction(x: Fraction) -> mp.mpf:
    return mp.mpf(x.numerator) / x.denominator


def legendre_function_value(params: ParamSet, t: int, j: int, precision: int,
                            L: DensePoly) -> mp.mpf:
    """Value of the j-th log form L(z) log^j(z/(z-1)) - T^j(L)(z) at z = a/b,
    where L is legendre_poly(params, t).

    The form is an exponentially small difference of exponentially large
    terms, so the working precision is raised above the exact bit magnitude
    of the terms, then once more after the result's own scale is known, so
    the returned value carries `precision` significant bits.  A precision
    below MIN_PRECISION raises ParamError, a working precision above
    DEFAULT_MAX_WORKING_BITS PrecisionError.
    """
    if params.m is None or not 1 <= j <= params.m:
        raise ParamError("need 1 <= j <= m")
    check_precision(precision)
    lz, tz = eval_at_rational(L, params.z), christoffel_value(L, params.z, j)
    w = params.z / (params.z - 1)
    magbits = max(_bit_magnitude(lz), _bit_magnitude(tz), 1)

    def compute(workbits: int) -> mp.mpf:
        if workbits > DEFAULT_MAX_WORKING_BITS:
            raise PrecisionError(
                f"working precision {workbits} bits exceeds cap {DEFAULT_MAX_WORKING_BITS}"
            )
        with mp.workprec(workbits):
            logw = mp.log(_mpf_from_fraction(w))
            return _mpf_from_fraction(lz) * logw**j - _mpf_from_fraction(tz)

    # the difference only becomes trustworthy once it clears the rounding
    # noise floor 2^(magbits - workbits + guard); below that, double up
    work = precision + magbits + 64
    while True:
        val = compute(work)
        if val != 0 and mp.mag(val) > magbits - work + 24:
            break
        work *= 2
    needed = precision + magbits - mp.mag(val) + 64
    if needed > work:
        val = compute(needed)
    with mp.workprec(precision):
        return +val


def reduced_form_value(params: ParamSet, t: int, j: int, precision: int,
                       L: DensePoly) -> mp.mpf:
    """The log form scaled by z^(-q_1 t) (1-z)^(-p_1 t), the object whose decay
    rate enters the measure computation."""
    raw = legendre_function_value(params, t, j, precision, L=L)
    z = params.z
    pref = z ** (-params.q[0] * t) * (1 - z) ** (-params.p[0] * t)
    with mp.workprec(precision + 64):
        return raw * _mpf_from_fraction(pref)


# ---------------------------------------------------------------------------
# structural identity checks
# ---------------------------------------------------------------------------

@dataclass
class IdentityReport:
    name: str
    passed: bool
    witness: Optional[str] = None


def check_integer_coefficients(L: DensePoly) -> IdentityReport:
    bad = next((i for i, c in enumerate(L.coeffs) if c.denominator != 1), None)
    return IdentityReport(
        "integer-coefficients", bad is None,
        None if bad is None else f"coefficient of z^{bad} is {L.coeffs[bad]}")


def check_degree_and_orders(params: ParamSet, t: int, L: DensePoly) -> IdentityReport:
    want_deg = params.total_degree * t
    want_ord0 = max(params.q) * t
    want_ord1 = max(params.p) * t
    deg, o0, o1 = L.degree, L.order_at_zero(), L.order_at_one()
    ok = (deg, o0, o1) == (want_deg, want_ord0, want_ord1)
    return IdentityReport(
        "degree-and-orders", ok,
        None if ok else f"got deg={deg} ord0={o0} ord1={o1}, "
                        f"want {want_deg}/{want_ord0}/{want_ord1}")


def check_pair_symmetry(params: ParamSet, t: int, rng: random.Random) -> IdentityReport:
    """The composition over any order of the pairs is legendre_poly.

    Every order for n <= 3; above, the given order and 6 random ones.  The
    given order comes first either way, so the check always compares the
    operators' definition with the index recurrence that builds L.
    """
    base = legendre_poly(params, t)
    idx = list(range(params.n))
    perms = (list(permutations(idx)) if params.n <= 3 else
             [tuple(idx)] + [tuple(rng.sample(idx, len(idx))) for _ in range(6)])
    for perm in perms:
        if DensePoly(_legendre_scaled([params.pairs()[i] for i in perm], t)) != base:
            return IdentityReport("pair-symmetry", False, f"permutation {perm}")
    return IdentityReport("pair-symmetry", True)


def _factorial_multiplier(p: Sequence[int], q: Sequence[int], t: int) -> int:
    return prod(factorial((a + b) * t) for a, b in zip(p, q))


def check_bisymmetry(params: ParamSet, t: int, rng: random.Random) -> IdentityReport:
    """prod((p_l+q_l)t)! * L is invariant under independent permutations of p and q."""
    base = _factorial_multiplier(params.p, params.q, t) * legendre_poly(params, t)
    idx = list(range(params.n))
    for _ in range(4):
        pp = tuple(params.p[i] for i in rng.sample(idx, len(idx)))
        qq = tuple(params.q[i] for i in rng.sample(idx, len(idx)))
        other = _factorial_multiplier(pp, qq, t) * DensePoly(
            _legendre_scaled(list(zip(pp, qq)), t))
        if other != base:
            return IdentityReport("bisymmetry", False, f"p={pp} q={qq}")
    return IdentityReport("bisymmetry", True)


def check_mirror(params: ParamSet, t: int) -> IdentityReport:
    """L(p,q; z) = (-1)^(M t) L(q,p; 1-z), exactly."""
    left = legendre_poly(params, t)
    swapped = DensePoly(_legendre_scaled([(q, p) for p, q in params.pairs()], t))
    right = swapped.compose_one_minus()
    if (params.total_degree * t) % 2:
        right = -right
    ok = left == right
    return IdentityReport("mirror", ok, None if ok else "mirror mismatch")


def check_unit_interval_bound(params: ParamSet, t: int,
                              step: Fraction = DEFAULT_GRID_STEP) -> IdentityReport:
    """Grid-sampled sup of |reduced polynomial| on [0,1] against (Mt)!/prod((p+q)t)!."""
    if not 0 < step <= 1:
        raise ParamError(f"grid step must satisfy 0 < step <= 1, got {step}")
    core = legendre_reduced(params, t)
    bound = Fraction(factorial(params.total_degree * t),
                     _factorial_multiplier(params.p, params.q, t))
    x = Fraction(0)
    while x <= 1:
        val = abs(core.evaluate(x))
        if val > bound:
            return IdentityReport("unit-interval-bound", False,
                                  f"|core({x})| = {val} > {bound}")
        x += step
    return IdentityReport("unit-interval-bound", True)


def check_roots_in_unit_interval(params: ParamSet, t: int) -> IdentityReport:
    """No real root of the reduced polynomial P lies outside [0, 1].

    Multiplying by z^a (1-z)^b keeps all roots real and in [0, 1], and by
    Rolle's theorem so does each derivative; so all roots of P are real and
    in [0, 1].  Descartes' rule of signs checks it: P(-x) and P(1+x) must
    have no sign variation, and a failure counts the roots outside.
    """
    below, above = unit_interval_sign_variations(legendre_reduced(params, t))
    ok = below == above == 0
    return IdentityReport("roots-in-unit-interval", ok,
                          None if ok else f"sign variations: {below} below 0, {above} above 1")


def check_orthogonality(params: ParamSet, t: int, rng: random.Random) -> IdentityReport:
    """T^m(W * reduced) = W * T^m(reduced) for integer W, deg W <= (p_1+q_1) t.

    Every product is of integer polynomials: T^m(W reduced) = (1/den') nums'
    and W T^m(reduced) = (1/den) W nums, on the cleared forms, are equal
    exactly when den nums' = den' W nums.
    """
    if params.m is None:
        return IdentityReport("orthogonality", True, "skipped: no m")
    core = legendre_reduced(params, t)
    degw = (params.p[0] + params.q[0]) * t
    W = DensePoly([rng.randint(-9, 9) for _ in range(degw)] + [rng.randint(1, 9)])
    lhs, rhs = W * core, core
    for _ in range(params.m):
        lhs = christoffel_transform(lhs)
        rhs = christoffel_transform(rhs)
    (den_l, nums_l), (den_r, nums_r) = lhs.cleared(), rhs.cleared()
    ok = DensePoly(nums_l) * den_r == W * DensePoly(nums_r) * den_l
    return IdentityReport("orthogonality", ok,
                          None if ok else f"W={list(W.coeffs)}")


def check_trivial_integrality(params: ParamSet, t: int, L: DensePoly) -> IdentityReport:
    """The lcm multiplier d_{H1 t} d_{max(H2 t, [H1 t/2])} ... clears T^m(L)
    (L = legendre_poly(params, t), params.m set): it clears every coefficient
    exactly when the content denominator of T^m(L) divides it."""
    mult = trivial_clearing_multiplier(params, t)
    den = transform_iterates(params, t, L, params.m)[-1].content_denominator()
    ok = mult % den == 0
    return IdentityReport("trivial-integrality", ok,
                          None if ok else f"content denominator {den} does not divide {mult}")


def trivial_clearing_multiplier(params: ParamSet, t: int) -> int:
    """d_{H_1 t} * prod_{j=2..m} d_{max(H_j t, floor(H_1 t / j))} with H the
    diagonal sums p_l + q_l sorted descending."""
    if params.m is None:
        raise ParamError("multiplier needs the form order m")
    H = sorted((p + q for p, q in params.pairs()), reverse=True)
    return lcm_clearing_multiplier(H, t, params.m)


def structural_identity_suite(params: ParamSet, t: int,
                              grid_step: Fraction = DEFAULT_GRID_STEP) -> list[IdentityReport]:
    """Run every applicable exact identity check on a small instance."""
    if params.total_degree * t > IDENTITY_CAP:
        raise ParamError(f"instance too large for identity suite (M*t > {IDENTITY_CAP})")
    rng = random.Random(0)
    L = legendre_poly(params, t)
    reports = [
        check_integer_coefficients(L),
        check_degree_and_orders(params, t, L),
        check_pair_symmetry(params, t, rng),
        check_bisymmetry(params, t, rng),
        check_mirror(params, t),
        check_unit_interval_bound(params, t, step=grid_step),
        check_roots_in_unit_interval(params, t),
    ]
    if params.m is not None:
        reports.append(check_orthogonality(params, t, rng))
        reports.append(check_trivial_integrality(params, t, L))
    return reports
