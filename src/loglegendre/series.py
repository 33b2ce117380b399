"""Independent reconstruction of the polynomials through their power series.

With w = z/(z-1) (so (1-w)(1-z) = 1), every polynomial P(z) satisfies
(1-z) P(z) = sum_k Q(k) w^k for a unique polynomial Q of the same degree,
because (1-z)(1-z)^j = 1/(1-w)^(j+1) = sum_k C(k+j, j) w^k.  For the
constructed Legendre polynomials the series coefficients factor as a
product of binomials,

    Q(k) = prod_j C(k + p_j t, (p_j + q_j) t),

a polynomial in k.  This module rebuilds the Legendre polynomial from
integer Newton differences of Q at k = -1, ..., -(d+1) (d = M t), giving a
brute-force oracle that never touches the differential operators.  It also
hosts the basis change P <-> Q, interpolation at k = 0..d, and the
combinatorial identities tying the transform T to the formal k-derivative
of Q.  Polynomials in k are :class:`DensePoly` values, like those in z.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .errors import InternalCheckError, ParamError
from .exact import DensePoly, Rational, binomial_integer
from .legendre import ParamSet, christoffel_transform

ORACLE_CAP = 200


def _binomial_product(params: ParamSet, t: int, k: int) -> int:
    """prod_j C(k + p_j t, (p_j + q_j) t), the polynomial Q at any integer k."""
    out = 1
    for p, q in params.pairs():
        out *= binomial_integer(k + p * t, (p + q) * t)
        if out == 0:
            return 0
    return out


def series_coefficient(params: ParamSet, t: int, k: int) -> int:
    """k-th series coefficient prod_j C(k + p_j t, (p_j + q_j) t), exact."""
    if k < 0:
        raise ParamError("k must be nonnegative")
    return _binomial_product(params, t, k)


def _times_one_minus_z(c: list[int]) -> list[int]:
    """Coefficients of (1-z) c: one first-difference pass."""
    return [a - b for a, b in zip(c + [0], [0] + c)]


# ---------------------------------------------------------------------------
# the basis change P <-> Q
# ---------------------------------------------------------------------------

def _rising_binomial_basis(deg: int) -> list[list[Fraction]]:
    """B_j(k) = C(k+j, j) in monomial form, for j = 0..deg."""
    basis = [[Fraction(1)]]
    for j in range(1, deg + 1):
        prev = basis[-1]
        nxt = [Fraction(0)] * (len(prev) + 1)
        for i, b in enumerate(prev):  # multiply by (k + j) / j
            nxt[i + 1] += b
            nxt[i] += b * j
        basis.append([x / j for x in nxt])
    return basis


def p_to_q(P: DensePoly) -> DensePoly:
    """The Q(k) with (1-z) P(z) = sum_k Q(k) w^k.

    P(1-z) = sum_j a_j z^j gives P = sum_j a_j (1-z)^j, and each (1-z)^j
    contributes a_j C(k+j, j) to Q.
    """
    if P.is_zero():
        return DensePoly()
    a = P.compose_one_minus().coeffs
    basis = _rising_binomial_basis(len(a) - 1)
    out = [Fraction(0)] * len(a)
    for j, aj in enumerate(a):
        if aj:
            for i, b in enumerate(basis[j]):
                out[i] += aj * b
    return DensePoly(out)


def q_to_p(Q: DensePoly) -> DensePoly:
    """Inverse basis change: the P with (1-z) P(z) = sum_k Q(k) w^k."""
    if not Q.coeffs:
        return DensePoly()
    deg = len(Q.coeffs) - 1
    basis = _rising_binomial_basis(deg)
    rem = [Fraction(c) for c in Q.coeffs]
    a = [Fraction(0)] * (deg + 1)
    for j in range(deg, -1, -1):
        if rem[j]:
            aj = rem[j] / basis[j][j]
            a[j] = aj
            for i, b in enumerate(basis[j]):
                rem[i] -= aj * b
    if any(rem):
        raise InternalCheckError("basis peel left a remainder")
    # P = sum_j a_j (1-z)^j
    return DensePoly(a).compose_one_minus()


# ---------------------------------------------------------------------------
# interpolation and the oracle
# ---------------------------------------------------------------------------

def interpolate_at_integers(values: Sequence[Rational]) -> DensePoly:
    """The unique polynomial of degree < len(values) through (i, values[i]).

    Forward differences on the nodes 0..d, assembled in the falling
    factorial basis C(k, j); exact throughout.
    """
    if not values:
        return DensePoly()
    diffs = [Fraction(v) for v in values]
    deg = len(values) - 1
    out = [Fraction(0)] * (deg + 1)
    basis = [Fraction(1)]  # C(k, 0)
    for j in range(deg + 1):
        lead = diffs[0]
        if lead:
            for i, b in enumerate(basis):
                out[i] += lead * b
        diffs = [diffs[i + 1] - diffs[i] for i in range(len(diffs) - 1)]
        if j < deg:
            nxt = [Fraction(0)] * (len(basis) + 1)
            for i, b in enumerate(basis):  # multiply by (k - j) / (j + 1)
                nxt[i + 1] += b
                nxt[i] -= b * j
            basis = [x / (j + 1) for x in nxt]
    return DensePoly(out)


def series_k_polynomial(params: ParamSet, t: int) -> DensePoly:
    """Q(k) recovered by interpolating the binomial products at k = 0..M*t."""
    d = params.total_degree * t
    return interpolate_at_integers(
        [series_coefficient(params, t, k) for k in range(d + 1)])


def oracle_legendre(params: ParamSet, t: int) -> DensePoly:
    """Rebuild the Legendre polynomial from its series coefficients alone.

    Write P = sum_j a_j (1-z)^j, so that Q(k) = sum_j a_j C(k+j, j).  Since
    C(-1-u+j, j) = (-1)^j C(u, j), the values Q(-1-u) = sum_j (-1)^j a_j C(u, j)
    are in Newton's forward-difference form: (-1)^j a_j is the j-th forward
    difference at u = 0 of the integers Q(-1), Q(-2), ..., Q(-1-d), d = M t;
    the binomial product is a polynomial in k, so it gives Q at negative k
    too.  P then follows by Horner's rule in (1-z).  Integers only throughout.
    """
    d = params.total_degree * t
    if d > ORACLE_CAP:
        raise ParamError(f"oracle capped at M*t <= {ORACLE_CAP}")
    values = [_binomial_product(params, t, -1 - u) for u in range(d + 1)]
    a = []
    while values:
        a.append(-values[0] if len(a) % 2 else values[0])
        values = [y - x for x, y in zip(values, values[1:])]
    P: list[int] = []
    for aj in reversed(a):
        P = _times_one_minus_z(P)
        P[0] += aj
    return DensePoly(P)


# ---------------------------------------------------------------------------
# combinatorial identities
# ---------------------------------------------------------------------------

def hyperharmonic_identity(j: int, k: int) -> tuple[bool, Fraction, Fraction]:
    """C(k+j, j) sum_{i=1..j} 1/(k+i)  ==  sum_{i=1..j} C(k+j-i, j-i)/i.

    Returns (holds, lhs, rhs) so failures carry their counterexample.
    """
    if j < 0 or k < 0:
        raise ParamError("j and k must be nonnegative")
    lhs = binomial_integer(k + j, j) * sum(
        (Fraction(1, k + i) for i in range(1, j + 1)), Fraction(0))
    rhs = sum((Fraction(binomial_integer(k + j - i, j - i), i)
               for i in range(1, j + 1)), Fraction(0))
    return lhs == rhs, lhs, rhs


def derivative_series_identity(P: DensePoly) -> bool:
    """Transform versus formal derivative: p_to_q(T(P)) == -(d/dk) p_to_q(P).

    The sign is forced by the defining integral: T((1-z)^j) equals
    -sum_{i=1..j} (1-z)^(j-i)/i, so the series side picks up a minus sign
    relative to the bare k-derivative.
    """
    lhs = p_to_q(christoffel_transform(P))
    rhs = -p_to_q(P).derivative()
    return lhs == rhs
