"""Independent reconstruction of the polynomials through their power series.

With w = z/(z-1) (so (1-w)(1-z) = 1), every polynomial P(z) satisfies
(1-z) P(z) = sum_k Q(k) w^k for a unique polynomial Q of the same degree,
because (1-z)(1-z)^j = 1/(1-w)^(j+1) = sum_k C(k+j, j) w^k.  For the
constructed Legendre polynomials the series coefficients factor as a
product of binomials,

    Q(k) = prod_j C(k + p_j t, (p_j + q_j) t),

a polynomial in k.

Since (1-z) z^i = (-1)^i w^i/(1-w)^(i+1), P(z) = sum_i c_i z^i has
Q(k) = sum_i (-1)^i c_i C(k, i): the Newton coefficients of Q at k = 0 are
P's coefficients with alternating signs.  This module rebuilds the Legendre
polynomial from the forward differences of the integers Q(0), ..., Q(d)
(d = M t), giving a brute-force oracle that never touches the differential
operators, and the basis change P -> Q (:func:`p_to_q`) goes through the
same coefficients.  ``legendre_poly`` builds L from the same identity:
the ratio Q(k+1)/Q(k) gives a recurrence for the Newton coefficients.  The
two share no arithmetic, so the oracle's difference table checks the
recurrence's, and the composition of the operators checks the identity.
The module also hosts the combinatorial identities tying the transform T
to the formal k-derivative of Q.  Polynomials in k are :class:`DensePoly`
values, like those in z.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb

from .errors import ParamError
from .exact import DensePoly
from .legendre import ParamSet, christoffel_transform

ORACLE_CAP = 200


def _binomial_product(params: ParamSet, t: int, k: int) -> int:
    """prod_j C(k + p_j t, (p_j + q_j) t), the polynomial Q at an integer k >= 0."""
    out = 1
    for p, q in params.pairs():
        out *= comb(k + p * t, (p + q) * t)
        if out == 0:
            return 0
    return out


# ---------------------------------------------------------------------------
# Newton coefficients, the basis change P -> Q, and the oracle
# ---------------------------------------------------------------------------

def p_to_q(P: DensePoly) -> DensePoly:
    """The Q(k) with (1-z) P(z) = sum_k Q(k) w^k.

    Its Newton coefficients at k = 0 are P's coefficients with alternating
    signs, b = P(-z): Q(k) = sum_j b_j C(k, j), expanded in the monomial
    basis in k by Horner's rule on b_0 + k (b_1 + (k-1)/2 (b_2 + ...)).
    """
    b = P.compose_negative().coeffs
    acc = DensePoly()
    for j in range(len(b) - 1, -1, -1):
        acc = acc * DensePoly([Fraction(-j, j + 1), Fraction(1, j + 1)]) + DensePoly([b[j]])
    return acc


def oracle_legendre(params: ParamSet, t: int) -> DensePoly:
    """Rebuild the Legendre polynomial from its series coefficients alone.

    Q has degree d = M t, so the integers Q(0), Q(1), ..., Q(d) fix it, and
    by Newton's forward-difference formula Q(k) = sum_i Delta^i Q(0) C(k, i).
    Matched against Q(k) = sum_i (-1)^i c_i C(k, i), the coefficient c_i of
    z^i is (-1)^i Delta^i Q(0), read off the difference table.  Integers
    only throughout.
    """
    d = params.total_degree * t
    if d > ORACLE_CAP:
        raise ParamError(f"oracle capped at M*t <= {ORACLE_CAP}")
    values = [_binomial_product(params, t, k) for k in range(d + 1)]
    c = []
    while values:
        c.append(-values[0] if len(c) % 2 else values[0])
        values = [y - x for x, y in zip(values, values[1:])]
    return DensePoly(c)


# ---------------------------------------------------------------------------
# combinatorial identities
# ---------------------------------------------------------------------------

def hyperharmonic_identity(j: int, k: int) -> tuple[bool, Fraction, Fraction]:
    """C(k+j, j) sum_{i=1..j} 1/(k+i)  ==  sum_{i=1..j} C(k+j-i, j-i)/i.

    Returns (holds, lhs, rhs) so failures carry their counterexample.
    """
    if j < 0 or k < 0:
        raise ParamError("j and k must be nonnegative")
    lhs = comb(k + j, j) * sum(
        (Fraction(1, k + i) for i in range(1, j + 1)), Fraction(0))
    rhs = sum((Fraction(comb(k + j - i, j - i), i)
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
