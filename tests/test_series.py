import random
from fractions import Fraction
from math import comb, prod

import pytest

from loglegendre.corpus import oracle_corpus
from loglegendre.errors import ParamError
from loglegendre.exact import DensePoly
from loglegendre.legendre import ParamSet, christoffel_transform, legendre_poly, legendre_reduced
from loglegendre.series import (
    ORACLE_CAP,
    derivative_series_identity,
    hyperharmonic_identity,
    oracle_legendre,
    _binomial_product,
    p_to_q,
)


def poly(*cs):
    return DensePoly(cs)


def power(P, k):
    """P^k as k DensePoly products."""
    return prod([P] * k, start=DensePoly([1]))


def binomial_inversion(Q, d):
    """The P of degree <= d with p_to_q(P) = Q, in closed form: the
    alternating Newton coefficients c_i = sum_{k<=i} (-1)^k C(i, k) Q(k)."""
    return DensePoly([sum((-1) ** k * comb(i, k) * Q.evaluate(k) for k in range(i + 1))
                      for i in range(d + 1)])


class TestSeriesCoefficient:
    def test_vanishing_at_small_k(self, example1):
        assert _binomial_product(example1, 1, 0) == 0

    def test_square_binomials(self):
        params = ParamSet(p=(1, 1), q=(0, 0), z=Fraction(-1), m=1)
        assert _binomial_product(params, 1, 2) == 9
        assert _binomial_product(params, 1, 0) == 1

    def test_matches_product_formula(self, example1):
        for k in range(10):
            want = 1
            for p, q in example1.pairs():
                want *= comb(k + p, p + q)
            assert _binomial_product(example1, 1, k) == want


class TestBasisChange:
    def test_constant(self):
        assert p_to_q(poly(1)) == DensePoly([1])

    def test_one_minus_z(self):
        assert p_to_q(poly(1, -1)) == DensePoly([1, 1])  # k + 1

    def test_round_trip_degree_20(self):
        rng = random.Random(20)
        for _ in range(10):
            P = poly(*[Fraction(rng.randint(-9, 9), rng.randint(1, 5))
                       for _ in range(20)], 1)
            assert binomial_inversion(p_to_q(P), 20) == P

    def test_round_trip_other_direction(self):
        rng = random.Random(21)
        for _ in range(10):
            Q = DensePoly([Fraction(rng.randint(-9, 9), rng.randint(1, 5))
                           for _ in range(rng.randint(1, 15))])
            if not Q.coeffs:
                continue
            assert p_to_q(binomial_inversion(Q, Q.degree)) == Q

    def test_series_expansion_oracle(self):
        # truncated geometric check: (1-z) P(z) = sum Q(k) w^k with w = z/(z-1)
        rng = random.Random(22)
        for _ in range(10):
            P = poly(*[rng.randint(-5, 5) for _ in range(rng.randint(1, 7))], 1)
            Q = p_to_q(P)
            z = Fraction(-1, 3)
            w = z / (z - 1)
            partial = sum((Q.evaluate(k) * w**k for k in range(220)), Fraction(0))
            exact = (1 - z) * P.evaluate(z)
            assert abs(partial - exact) < Fraction(1, 10**20)


class TestInterpolation:
    def test_extrapolates_binomial_products(self, example1):
        # Q(k) of the constructed polynomial interpolates the product
        # formula at k >= 0 and continues it to k < 0
        Q = p_to_q(legendre_poly(example1, 1))
        for k in (-3, -2, -1, 0, 1, 5):
            want = 1
            for p, q in example1.pairs():
                want *= comb(k + p, p + q)
            assert Q.evaluate(k) == want


class TestOracle:
    def test_small_cases(self):
        params = ParamSet(p=(1, 1), q=(0, 0), z=Fraction(-1), m=1)
        assert oracle_legendre(params, 1) == poly(1, -3, 2)
        n1 = ParamSet(p=(1,), q=(1,), z=Fraction(-1))
        assert oracle_legendre(n1, 1) == poly(0, -1, 1)

    def test_example1_equivalence(self, example1):
        assert oracle_legendre(example1, 1) == legendre_poly(example1, 1)

    def test_random_corpus_equivalence(self):
        for params, t in oracle_corpus(seed=101, count=40, max_weight=40):
            assert oracle_legendre(params, t) == legendre_poly(params, t), \
                f"mismatch at p={params.p} q={params.q} t={t}"

    def test_cap(self, example1):
        with pytest.raises(ParamError):
            oracle_legendre(example1, 100)
        three = ParamSet(p=(1, 2), q=(0, 0), z=Fraction(-1))
        assert three.total_degree * 67 == ORACLE_CAP + 1
        with pytest.raises(ParamError):
            oracle_legendre(three, 67)

    def test_at_the_cap(self, example1):
        # the largest coefficients of the difference table: degree 195, then 200
        assert example1.total_degree * 13 == 195
        assert oracle_legendre(example1, 13) == legendre_poly(example1, 13)
        five = ParamSet(p=(1, 1, 2), q=(0, 1, 0), z=Fraction(-1, 2))
        assert five.total_degree * 40 == ORACLE_CAP
        assert oracle_legendre(five, 40) == legendre_poly(five, 40)


class TestHyperharmonic:
    def test_example(self):
        ok, lhs, rhs = hyperharmonic_identity(2, 1)
        assert ok and lhs == rhs == Fraction(5, 2)

    def test_k_zero_gives_harmonic_numbers(self):
        for j in range(12):
            ok, lhs, _ = hyperharmonic_identity(j, 0)
            assert ok
            assert lhs == sum((Fraction(1, i) for i in range(1, j + 1)), Fraction(0))

    def test_j_zero_empty_sums(self):
        ok, lhs, rhs = hyperharmonic_identity(0, 7)
        assert ok and lhs == rhs == 0

    def test_block(self):
        for j in range(12):
            for k in range(12):
                ok, lhs, rhs = hyperharmonic_identity(j, k)
                assert ok, f"j={j} k={k}: {lhs} != {rhs}"


class TestDerivativeSeries:
    def test_constant(self):
        assert derivative_series_identity(poly(1))

    def test_one_minus_z_explicit(self):
        # Q = k+1, transform image is the constant -1, matching -(dQ/dk)
        P = poly(1, -1)
        assert christoffel_transform(P) == poly(-1)
        assert p_to_q(poly(-1)) == DensePoly([-1])
        assert derivative_series_identity(P)

    def test_random_degree_15(self):
        rng = random.Random(24)
        for _ in range(30):
            P = poly(*[Fraction(rng.randint(-9, 9), rng.randint(1, 4))
                       for _ in range(15)], 1)
            assert derivative_series_identity(P)


class TestVanishingPatterns:
    def test_order_matches_series_zeros(self):
        for params, t in oracle_corpus(seed=102, count=20, max_weight=36):
            q1t = params.q[0] * t
            for k in range(q1t):
                assert _binomial_product(params, t, k) == 0 or max(params.q) == 0
            # the full vanishing range is max(q)*t, the order at z = 0
            hi = max(params.q) * t
            for k in range(hi):
                assert _binomial_product(params, t, k) == 0
            if _binomial_product(params, t, hi) == 0:
                # product can vanish by accident only below the order
                raise AssertionError("series nonzero exactly at the order")

    def test_derivative_shift(self):
        # for the boundary-stripped polynomial, the m-th derivative of the
        # interpolated series polynomial vanishes at -1 .. -(p_1+q_1) t
        cases = [
            (ParamSet(p=(1, 2), q=(0, 1), z=Fraction(-1), m=1), 1),
            (ParamSet(p=(1, 1, 2), q=(1, 1, 2), z=Fraction(-1), m=2), 1),
            (ParamSet(p=(2, 3), q=(1, 2), z=Fraction(-1), m=1), 2),
        ]
        for params, t in cases:
            m = params.m
            p1t, q1t = params.p[0] * t, params.q[0] * t
            stripped = power(poly(1, -1), p1t + q1t) * legendre_reduced(params, t)
            Q = p_to_q(stripped)
            dQ = Q
            for _ in range(m):
                dQ = dQ.derivative()
            for k in range(1, p1t + q1t + 1):
                assert Q.evaluate(-k) == 0
                assert dQ.evaluate(-k) == 0, f"failed at -{k} for p={params.p}"
