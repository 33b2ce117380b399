import math
import random
from fractions import Fraction
from math import prod

import mpmath as mp
import pytest

from loglegendre.exact import (
    DensePoly,
    crt_pair,
    decimal_digits,
    first_dependency_mod,
    fixed_log,
    lcm_upto,
    modular_prime,
    primes_in_range,
    rational_reconstruction,
    unit_interval_sign_variations,
)


def poly(*coeffs):
    return DensePoly(coeffs)


def power(P, k):
    """P^k as k DensePoly products."""
    return prod([P] * k, start=DensePoly([1]))


def shifted_legendre(n):
    """Rodrigues' D^n (z (1-z))^n / n! = +-P_n(2z - 1), in closed form:
    sum_j (-1)^j C(n, j) C(n + j, j) z^j."""
    return DensePoly([(-1) ** j * math.comb(n, j) * math.comb(n + j, j) for j in range(n + 1)])


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


class TestFixedLog:
    @staticmethod
    def cases(work):
        rng = random.Random(work)
        # exact powers of two, and man = 1 with huge and tiny exponents
        out = [(1, e) for e in (0, 1, -1, 64, -work, 10**6, -10**6, 2**70, -(2**70))]
        out += [(1 << k, -k + d) for k, d in ((5, 0), (100, 3), (3 * work, -7))]
        # both sides of every anchor boundary 1 + j/64 and of 2 (j = 64)
        for j in range(65):
            a = (64 + j) << (work + 4)
            out += [(a - 1, 0), (a, 0), (a + 1, 0)]
        # log(2m) as in the digamma tables: arguments above 1
        out += [(m, 1) for m in (2, 3, 41, 97, 4099)]
        # mantissas shorter and longer than the precision, any exponent
        out += [(rng.getrandbits(rng.randint(1, 3 * work)) | 1, rng.randint(-4 * work, 4 * work))
                for _ in range(20)]
        return out

    @pytest.mark.parametrize("work", [64, 512, 1060, 2600, 4096])
    def test_against_mpmath(self, work):
        for man, exp in self.cases(work):
            # the oracle carries 64 bits beyond work, plus the exponent's
            # bits, which exp ln 2 would otherwise cost it
            with mp.workprec(work + 64 + abs(exp).bit_length()):
                want = mp.ldexp(mp.log(man) + exp * mp.ln2, work)
                assert abs(fixed_log(man, exp, work) - want) < 1, (work, man, exp)

    def test_one_is_zero(self):
        assert [fixed_log(1, 0, w) for w in (1, 64, 4096)] == [0, 0, 0]
        assert fixed_log(1 << 300, -300, 512) == 0

    @pytest.mark.parametrize("man, work", [(0, 64), (-3, 64), (3, 0)])
    def test_domain(self, man, work):
        with pytest.raises(ValueError):
            fixed_log(man, 0, work)


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
            assert [Fraction(line) for line in p.render().splitlines()] == list(p.coeffs)

    def test_render_beyond_int_str_limit(self):
        # 5001 digits: str() of the int raises under CPython's default limit
        assert DensePoly([10**5000 + 1, -3]).render() == "1" + "0" * 4999 + "1/1\n-3/1"
        half = Fraction(-1, 2 * 10**5000)
        assert DensePoly([half]).render() == "-1/2" + "0" * 5000

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

    def test_zero_polynomial_has_no_order(self):
        for order in (DensePoly().order_at_zero, DensePoly().order_at_one):
            with pytest.raises(ValueError):
                order()

    def test_compose_one_minus(self):
        rng = random.Random(6)
        for _ in range(20):
            p = poly(*[rng.randint(-9, 9) for _ in range(rng.randint(1, 10))])
            q = p.compose_one_minus()
            x = Fraction(rng.randint(-5, 5), rng.randint(1, 5))
            assert q.evaluate(x) == p.evaluate(1 - x)


class TestDecimalDigits:
    def test_equals_str(self):
        rng = random.Random(7)
        for n in [0, 1, -1, 9, 10, -10, 10**18, -(10**19) + 1] + \
                 [rng.randint(-10**400, 10**400) for _ in range(50)]:
            assert decimal_digits(n) == str(n)

    def test_beyond_int_str_limit(self):
        assert decimal_digits(-(10**9000)) == "-1" + "0" * 9000
        assert decimal_digits(7 * 10**6000 + 3) == "7" + "0" * 5999 + "3"


class TestUnitIntervalSignVariations:
    def test_roots_at_the_endpoints(self):
        # z (1-z)^2 (z - 1/2): a double root at 1 and a root at 0
        p = poly(0, 1) * power(poly(1, -1), 2) * poly(Fraction(-1, 2), 1)
        assert unit_interval_sign_variations(p) == (0, 0)
        assert unit_interval_sign_variations(poly(0, 0, 0, 1)) == (0, 0)

    def test_shifted_legendre(self):
        assert unit_interval_sign_variations(poly(-1, 12, -30, 20)) == (0, 0)
        for n in (1, 6, 15):
            p = shifted_legendre(n)
            assert p.degree == n
            assert unit_interval_sign_variations(p) == (0, 0)

    def test_roots_outside_are_counted(self):
        base = shifted_legendre(6)
        assert unit_interval_sign_variations(poly(Fraction(1, 2), 1) * base) == (1, 0)
        assert unit_interval_sign_variations(poly(Fraction(-3, 2), 1) * base) == (0, 1)
        assert unit_interval_sign_variations(power(poly(1, 2), 2) * poly(-3, 2)) == (2, 1)

    def test_constants(self):
        assert unit_interval_sign_variations(DensePoly()) == (0, 0)
        assert unit_interval_sign_variations(poly(-5)) == (0, 0)


def fraction_first_dependency(columns):
    """Over Q: the first column in the span of the earlier ones and the
    combination with coefficient 1 on it, by Fraction elimination; None when
    the columns are independent."""
    basis = []  # (pivot row, reduced column, combination)
    for k, col in enumerate(columns):
        vec = [Fraction(x) for x in col]
        combo = {k: Fraction(1)}
        for r, red, rc in basis:
            if vec[r]:
                f = vec[r] / red[r]
                vec = [a - f * b for a, b in zip(vec, red)]
                for i, c in rc.items():
                    combo[i] = combo.get(i, Fraction(0)) - f * c
        first = next((r for r, x in enumerate(vec) if x), None)
        if first is None:
            return k, [combo.get(i, Fraction(0)) for i in range(k + 1)]
        basis.append((first, vec, combo))
    return None


def random_columns(rng, rows, cols, rank, zero_at=None):
    """Integer columns of the given rank: the first `rank` random, the rest
    small integer combinations of earlier ones, shuffled after the first."""
    out = [[rng.randint(-50, 50) for _ in range(rows)] for _ in range(rank)]
    while len(out) < cols:
        picks = rng.sample(range(len(out)), min(3, len(out)))
        weights = [rng.randint(-4, 4) for _ in picks]
        out.append([sum(w * out[i][r] for w, i in zip(weights, picks)) for r in range(rows)])
    head, tail = out[:1], out[1:]
    rng.shuffle(tail)
    out = head + tail
    if zero_at is not None:
        out.insert(zero_at, [0] * rows)
    return out


class TestFirstDependencyMod:
    P = modular_prime(0)

    def check_against_oracle(self, columns):
        want = fraction_first_dependency(columns)
        got = first_dependency_mod(columns, self.P)
        if want is None:
            assert got is None
            return
        k, combo = want
        assert got is not None and got[0] == k
        assert got[1] == [c.numerator * pow(c.denominator, -1, self.P) % self.P for c in combo]

    @pytest.mark.parametrize("seed", range(8))
    def test_full_rank(self, seed):
        rng = random.Random(100 + seed)
        rows = rng.randint(3, 12)
        self.check_against_oracle(random_columns(rng, rows, rng.randint(1, rows), rank=rows))

    @pytest.mark.parametrize("seed", range(12))
    def test_rank_deficient(self, seed):
        rng = random.Random(200 + seed)
        rows = rng.randint(4, 14)
        rank = rng.randint(1, rows - 1)
        columns = random_columns(rng, rows, rank + rng.randint(1, 4), rank)
        assert fraction_first_dependency(columns) is not None
        self.check_against_oracle(columns)

    @pytest.mark.parametrize("seed", range(6))
    def test_zero_column(self, seed):
        rng = random.Random(300 + seed)
        rows = rng.randint(3, 10)
        at = rng.randint(0, rows - 1)
        columns = random_columns(rng, rows, rows, rank=rows, zero_at=at)
        k, combo = fraction_first_dependency(columns)
        assert k == at and combo == [0] * at + [1]
        self.check_against_oracle(columns)

    def test_small_primes_report_no_later_index(self):
        # an unlucky prime reports a dependency early, never late, and its
        # combination holds modulo that prime
        rng = random.Random(7)
        for _ in range(40):
            rows = rng.randint(3, 8)
            columns = random_columns(rng, rows, rows + 1, rank=rows - 1)
            k_true, _ = fraction_first_dependency(columns)
            for p in (2, 3, 5, 7):
                k, c = first_dependency_mod(columns, p)
                assert k <= k_true and c[k] == 1
                for r in range(rows):
                    assert sum(c[i] * columns[i][r] for i in range(k + 1)) % p == 0

    def test_no_columns(self):
        assert first_dependency_mod([], self.P) is None


def is_probable_prime(n, bases=(2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)):
    """Miller-Rabin over fixed bases."""
    if n < 2:
        return False
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in bases:
        if a % n == 0:
            continue
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class TestModularPrimes:
    def test_form_order_and_primality(self):
        primes = [modular_prime(i) for i in range(4)]
        assert primes == sorted(primes, reverse=True)
        for p in primes:
            k, rest = divmod(p - 1, 1 << 64)
            assert rest == 0 and k % 2 == 1 and p.bit_length() == 128
            assert is_probable_prime(p)

    def test_no_prime_of_the_form_skipped(self):
        top = [modular_prime(i) for i in range(3)]
        k = (1 << 64) - 1
        for p in top:
            while (k << 64) + 1 > p:
                assert not is_probable_prime((k << 64) + 1)
                k -= 2
            k -= 2

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError):
            modular_prime(-1)


class TestRationalReconstruction:
    @pytest.mark.parametrize("m", [101, 2**31 - 1, 10**6, modular_prime(0),
                                   modular_prime(0) * modular_prime(1)])
    def test_round_trip(self, m):
        rng = random.Random(m % 1000)
        bound = math.isqrt((m - 1) // 2)
        for _ in range(300):
            num = rng.randint(-bound, bound)
            den = rng.randint(1, bound)
            g = math.gcd(num, den)
            num, den = num // g, den // g
            if math.gcd(den, m) != 1:
                continue
            a = num * pow(den, -1, m) % m
            assert rational_reconstruction(a, m) == (num, den)

    @pytest.mark.parametrize("m", [2, 3, 10, 97, 101, 360, 1009])
    def test_exhaustive_small_moduli(self, m):
        # every residue: the fraction within the bound if one exists, else None
        bound = math.isqrt((m - 1) // 2)
        for a in range(m):
            want = None
            for den in range(1, bound + 1):
                if math.gcd(den, m) != 1:
                    continue
                num = a * den % m
                num = num - m if num > m // 2 else num
                if abs(num) <= bound and math.gcd(num, den) == 1:
                    want = (num, den)
                    break
            assert rational_reconstruction(a, m) == want, (a, m)

    def test_balance_is_needed(self):
        # 49 = 49/1 = 1/33 mod 101, and both have 2|p|q < 101: no function can
        # round-trip both, so the bound is |p|, q <= isqrt(50) = 7
        assert 33 * 49 % 101 == 1
        assert rational_reconstruction(49, 101) == (-3, 2)


class TestCrtPair:
    def test_against_search(self):
        rng = random.Random(8)
        for _ in range(50):
            m, p = rng.choice([(7, 11), (2 * 9, 5), (13, 101)])
            r, s = rng.randrange(m), rng.randrange(p)
            x = crt_pair(r, m, s, p)
            assert 0 <= x < m * p and x % m == r and x % p == s
