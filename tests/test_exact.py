import math
import random
from fractions import Fraction

import pytest

from loglegendre.exact import (
    DensePoly,
    binomial_integer,
    count_real_roots_in,
    lcm_upto,
    normalized_derivative,
    prime_valuation,
    primes_in_range,
)


def poly(*coeffs):
    return DensePoly(coeffs)


class TestNormalizedDerivative:
    def test_first_derivative_of_square(self):
        assert normalized_derivative(poly(0, 0, 1), 1) == poly(0, 2)

    def test_order_zero_is_identity(self):
        p = poly(3, -1, Fraction(2, 7))
        assert normalized_derivative(p, 0) == p

    def test_product_rule_hand_oracle(self):
        # z(1-z) = z - z^2, first derivative 1 - 2z
        assert normalized_derivative(poly(0, 1, -1), 1) == poly(1, -2)

    def test_monomial_rule(self):
        # z^k -> C(k, m) z^(k-m), and 0 when m > k
        for k in range(8):
            for m in range(10):
                got = normalized_derivative(poly(*([0] * k + [1])), m)
                if m > k:
                    assert got.is_zero()
                else:
                    want = [0] * (k - m) + [math.comb(k, m)]
                    assert got == DensePoly(want)

    def test_linearity(self):
        rng = random.Random(1)
        for _ in range(30):
            a = poly(*[rng.randint(-9, 9) for _ in range(rng.randint(0, 13))])
            b = poly(*[rng.randint(-9, 9) for _ in range(rng.randint(0, 13))])
            m = rng.randint(0, 8)
            assert (normalized_derivative(a + b, m)
                    == normalized_derivative(a, m) + normalized_derivative(b, m))

    def test_leibniz(self):
        rng = random.Random(2)
        for _ in range(25):
            a = poly(*[rng.randint(-9, 9) for _ in range(rng.randint(1, 13))])
            b = poly(*[rng.randint(-9, 9) for _ in range(rng.randint(1, 13))])
            m = rng.randint(0, 8)
            total = DensePoly()
            for k in range(m + 1):
                total = total + normalized_derivative(a, m - k) * normalized_derivative(b, k)
            assert normalized_derivative(a * b, m) == total


class TestLcm:
    def test_base_cases(self):
        assert lcm_upto(0) == 1
        assert lcm_upto(1) == 1

    def test_fold_oracle(self):
        acc = 1
        for i in range(1, 11):
            acc = math.lcm(acc, i)
        assert lcm_upto(10) == acc == 2520

    def test_divisibility_chain(self):
        for l in range(1, 40):
            assert lcm_upto(l) % lcm_upto(l - 1) == 0

    def test_contains_prime_powers(self):
        for l in (16, 27, 49, 60):
            for p in primes_in_range(1, l):
                pk = p
                while pk * p <= l:
                    pk *= p
                assert lcm_upto(l) % pk == 0


class TestPrimes:
    def test_examples(self):
        assert primes_in_range(4, 11) == [5, 7, 11]
        assert primes_in_range(1, 2) == [2]
        assert primes_in_range(10, 30) == [11, 13, 17, 19, 23, 29]

    def test_against_naive_oracle(self):
        def is_prime(n):
            return n > 1 and all(n % d for d in range(2, int(n**0.5) + 1))

        naive = [n for n in range(2, 2000) if is_prime(n) and 100 < n <= 1999]
        assert primes_in_range(100, 1999) == naive

    def test_segmented_path(self):
        # hi far beyond the base sieve, exclusive lower bound at a prime
        got = primes_in_range(99991, 100200)
        assert got == [100003, 100019, 100043, 100049, 100057, 100069, 100103,
                       100109, 100129, 100151, 100153, 100169, 100183, 100189, 100193]

    def test_validation(self):
        with pytest.raises(ValueError):
            primes_in_range(-1, 5)
        with pytest.raises(ValueError):
            primes_in_range(7, 3)


class TestValuation:
    def test_examples(self):
        assert prime_valuation(2, 8) == 3
        assert prime_valuation(3, 8) == 0
        assert prime_valuation(5, 2520 * 125) == 4

    def test_repeated_division_oracle(self):
        rng = random.Random(3)
        for _ in range(50):
            s = rng.choice([2, 3, 5, 7, 11])
            m = rng.randint(1, 10**9)
            count = 0
            mm = m
            while mm % s == 0:
                mm //= s
                count += 1
            assert prime_valuation(s, m) == count

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            prime_valuation(2, 0)


class TestBinomial:
    def test_examples(self):
        assert binomial_integer(4, 5) == 0
        assert binomial_integer(7, 0) == 1
        assert binomial_integer(-3, 2) == 6

    def test_falling_factorial_oracle(self):
        rng = random.Random(4)
        for _ in range(100):
            nn = rng.randint(-20, 20)
            m = rng.randint(0, 10)
            num = Fraction(1)
            for i in range(m):
                num *= nn - i
            num /= math.factorial(m)
            assert num.denominator == 1
            assert binomial_integer(nn, m) == num.numerator

    def test_negative_lower_index_rejected(self):
        with pytest.raises(ValueError):
            binomial_integer(3, -1)


class TestDensePoly:
    def test_canonical_form(self):
        assert DensePoly([1, 2, 0, 0]).coeffs == (1, 2)
        assert DensePoly([0, 0]).is_zero()
        assert DensePoly().degree == float("-inf")

    def test_render_parse_round_trip(self):
        rng = random.Random(5)
        for _ in range(40):
            cs = [Fraction(rng.randint(-99, 99), rng.randint(1, 30))
                  for _ in range(rng.randint(0, 15))]
            p = DensePoly(cs)
            assert DensePoly.parse(p.render()) == p

    def test_parse_rejects_trailing_zero(self):
        with pytest.raises(ValueError):
            DensePoly.parse("1/1\n0/1")

    def test_arithmetic(self):
        p, q = poly(1, 2), poly(0, 1, 1)
        assert p + q == poly(1, 3, 1)
        assert p - p == DensePoly()
        assert p * q == poly(0, 1, 3, 2)
        assert (p * q).evaluate(Fraction(1, 2)) == Fraction(3, 2)

    def test_deflate_at_one(self):
        p = poly(1, -2, 1)  # (1-z)^2
        assert p.deflate_at_one() == poly(1, -1)
        with pytest.raises(ValueError):
            poly(1, 1).deflate_at_one()

    def test_orders(self):
        p = poly(0, 0, 1, -1)  # z^2 (1 - z)
        assert p.order_at_zero() == 2
        assert p.order_at_one() == 1

    def test_compose_one_minus(self):
        rng = random.Random(6)
        for _ in range(20):
            p = poly(*[rng.randint(-9, 9) for _ in range(rng.randint(1, 10))])
            q = p.compose_one_minus()
            x = Fraction(rng.randint(-5, 5), rng.randint(1, 5))
            assert q.evaluate(x) == p.evaluate(1 - x)


class TestRootCounting:
    def test_known_roots(self):
        # roots at -1, 0, 2
        p = poly(0, -2, -1, 1)
        assert count_real_roots_in(p, Fraction(-3), Fraction(3)) == 3
        assert count_real_roots_in(p, Fraction(0), Fraction(3)) == 1
        assert count_real_roots_in(p, Fraction(-3), Fraction(-1)) == 1

    def test_multiple_roots_counted_once(self):
        p = poly(1, -2, 1) * poly(1, -2, 1)  # (1-z)^4
        assert count_real_roots_in(p, Fraction(0), Fraction(2)) == 1
