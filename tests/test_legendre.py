import random
from fractions import Fraction
from math import factorial, prod

import mpmath as mp
import pytest

from loglegendre import legendre as legendre_module
from loglegendre.corpus import oracle_corpus
from loglegendre.errors import InternalCheckError, ParamError, PrecisionError
from loglegendre.exact import DensePoly
from loglegendre.legendre import (
    MIN_PRECISION,
    ParamSet,
    _legendre_scaled,
    check_integer_coefficients,
    check_orthogonality,
    check_pair_symmetry,
    check_roots_in_unit_interval,
    check_trivial_integrality,
    check_unit_interval_bound,
    christoffel_transform,
    christoffel_value,
    eval_at_rational,
    legendre_function_value,
    legendre_poly,
    legendre_reduced,
    reduced_form_value,
    structural_identity_suite,
    transform_iterates,
)
from loglegendre.measures import preset_catalog


def poly(*cs):
    return DensePoly(cs)


def power(P, k):
    """P^k as k DensePoly products."""
    return prod([P] * k, start=DensePoly([1]))


def apply_dpq(p, q, P):
    """z^q (1-z)^p D_{p+q}( z^p (1-z)^q P ) from the definition: DensePoly
    products, p+q derivatives and a division by (p+q)!."""
    z, w = poly(0, 1), poly(1, -1)
    inner = power(z, p) * power(w, q) * P
    for _ in range(p + q):
        inner = inner.derivative()
    return power(z, q) * power(w, p) * inner * Fraction(1, factorial(p + q))


class TestParamSet:
    def test_valid(self, example1):
        assert example1.n == 3
        assert example1.total_degree == 15

    def test_rejects_nonpositive_p(self):
        with pytest.raises(ParamError):
            ParamSet(p=(0, 1), q=(1, 1), z=Fraction(-1), m=1)

    def test_rejects_negative_q(self):
        with pytest.raises(ParamError):
            ParamSet(p=(1, 1), q=(-1, 1), z=Fraction(-1))

    def test_rejects_z_in_unit_interval(self):
        with pytest.raises(ParamError):
            ParamSet(p=(1,), q=(0,), z=Fraction(1, 2))

    def test_rejects_bad_m(self):
        with pytest.raises(ParamError):
            ParamSet(p=(1, 2), q=(0, 1), z=Fraction(-1), m=2)

    @pytest.mark.parametrize("p, z, m", [((4, 5, 3), -0.1, 1), ((4.0, 5, 3), -1, 1),
                                         ((4, 5, 3), -1, 1.5), ((4, 5, 3), "-1", 1),
                                         ((True, 5, 3), -1, 1), ((4, 5, 3), -1, True)])
    def test_rejects_non_int_entries_and_inexact_z(self, p, z, m):
        with pytest.raises(ParamError):
            ParamSet(p=p, q=(1, 2, 0), z=z, m=m)

    def test_rejects_monotonicity_violation(self):
        with pytest.raises(ParamError):
            ParamSet(p=(2, 1), q=(0, 1), z=Fraction(-1), m=1)


class TestApplyDpq:
    def test_on_constant(self):
        assert apply_dpq(1, 0, poly(1)) == poly(1, -1)        # 1 - z
        assert apply_dpq(0, 1, poly(1)) == poly(0, -1)        # -z

    def test_second_stage(self):
        # equals the n=2 polynomial with both pairs (1, 0)
        assert apply_dpq(1, 0, poly(1, -1)) == poly(1, -3, 2)

    def test_degree_growth(self):
        rng = random.Random(7)
        for _ in range(15):
            p, q = rng.randint(0, 3), rng.randint(0, 3)
            P = poly(*[rng.randint(-5, 5) for _ in range(rng.randint(1, 6))], 1)
            assert apply_dpq(p, q, P).degree == P.degree + p + q

    def test_composition_is_legendre_poly(self):
        for params, t in oracle_corpus(seed=19, count=30, max_weight=24):
            P = poly(1)
            for p, q in reversed(params.pairs()):
                P = apply_dpq(p * t, q * t, P)
            assert P == legendre_poly(params, t), f"p={params.p} q={params.q} t={t}"


class TestLegendrePoly:
    def test_n1_closed_form(self):
        # (-z)^q (1-z)^p
        for p, q in [(1, 1), (2, 0), (1, 3)]:
            params = ParamSet(p=(p,), q=(q,), z=Fraction(-1))
            want = power(poly(0, -1), q) * power(poly(1, -1), p)
            assert legendre_poly(params, 1) == want

    def test_n2_value(self):
        params = ParamSet(p=(1, 1), q=(0, 0), z=Fraction(-1), m=1)
        assert legendre_poly(params, 1) == poly(1, -3, 2)

    def test_degree_and_orders(self, example1):
        L = legendre_poly(example1, 1)
        assert L.degree == 15
        assert L.order_at_zero() == 2
        assert L.order_at_one() == 5

    def test_integer_coefficients(self, example1):
        for t in (1, 2, 3):
            L = legendre_poly(example1, t)
            assert all(c.denominator == 1 for c in L.coeffs)

    def test_scaled_degree(self, example2):
        assert legendre_poly(example2, 2).degree == example2.total_degree * 2

    def test_t_validation(self, example1):
        with pytest.raises(ParamError):
            legendre_poly(example1, 0)


class TestIndexRecurrence:
    """legendre_poly, built by the relation in the coefficient index, against
    the composition of the operators that defines L."""

    def test_presets(self):
        for name, params in preset_catalog().items():
            for t in range(1, 9):
                assert legendre_poly(params, t) == DensePoly(
                    _legendre_scaled(params.pairs(), t)), f"{name} t={t}"

    @pytest.mark.parametrize("seed", [3, 4])
    @pytest.mark.parametrize("with_m", [False, True])
    def test_corpus(self, seed, with_m):
        for params, t in oracle_corpus(seed, 40, max_weight=200, with_m=with_m):
            assert legendre_poly(params, t) == DensePoly(
                _legendre_scaled(params.pairs(), t)), f"p={params.p} q={params.q} t={t}"

    def test_log2_m1_t150(self):
        params = preset_catalog()["log2-m1"]
        assert legendre_poly(params, 150) == DensePoly(_legendre_scaled(params.pairs(), 150))

    def test_relation_holds_on_the_composition(self, example1):
        # at every l >= 0, on b_i = (-1)^i c_i of the definition, zero
        # outside 0..d; the last weight is g(l+1) = prod_j (l + 1 - q_j t)
        t = 2
        c = _legendre_scaled(example1.pairs(), t)
        n, d = example1.n, len(c) - 1
        b = [0] * (n - 1) + [-x if i % 2 else x for i, x in enumerate(c)] + [0] * (n + 1)
        rows = legendre_module._index_relation(example1.pairs(), t, 0, d + n)
        assert len(rows) == d + n
        for l, row in enumerate(rows):
            assert row[-1] == prod(l + 1 - q * t for q in example1.q)
            assert sum(w * x for w, x in zip(row, b[l:l + n + 1])) == 0, f"l={l}"

    @pytest.mark.parametrize("column", range(4))
    def test_perturbed_relation_raises(self, example1, monkeypatch, column):
        real = legendre_module._index_relation

        def perturbed(pairs, t, lo, count):
            return [row[:column] + (row[column] + 1,) + row[column + 1:]
                    for row in real(pairs, t, lo, count)]

        monkeypatch.setattr(legendre_module, "_index_relation", perturbed)
        with pytest.raises(InternalCheckError):
            legendre_poly(example1, 3)

    def test_builds_without_difference_passes(self, monkeypatch):
        def refuse(c, k):
            raise AssertionError("a (1-z) difference pass in construction")

        monkeypatch.setattr(legendre_module, "_mul_one_minus_z_pow", refuse)
        for params in preset_catalog().values():
            assert legendre_poly(params, 2).degree == params.total_degree * 2
        with pytest.raises(AssertionError):
            legendre_reduced(preset_catalog()["log2-m1"], 2)


def reduced_by_deflation(params, t):
    """The reduced polynomial the long way: strip the q_1 t zeros of L, divide
    (1-z) out p_1 t times, and fix the sign; checks both vanishing orders."""
    L = legendre_poly(params, t)
    q1t, p1t = params.q[0] * t, params.p[0] * t
    assert not any(L.coeffs[:q1t]), "vanishing order at z=0 below q_1 t"
    core = DensePoly(L.coeffs[q1t:])
    for _ in range(p1t):
        assert core.evaluate(1) == 0, "vanishing order at z=1 below p_1 t"
        core = core.deflate_at_one()
    return -core if q1t % 2 else core


class TestReduced:
    def test_against_deflation_route(self):
        log2_m1 = preset_catalog()["log2-m1"]
        cases = (oracle_corpus(seed=103, count=40, max_weight=40)
                 + [(log2_m1, t) for t in range(1, 41)])
        for params, t in cases:
            assert legendre_reduced(params, t) == reduced_by_deflation(params, t), \
                f"p={params.p} q={params.q} t={t}"

    def test_t_validation(self, example1):
        with pytest.raises(ParamError):
            legendre_reduced(example1, 0)

    def test_n1_reduces_to_one(self):
        # all boundary factors stripped: (-1)^q z^-q (1-z)^-p (-z)^q (1-z)^p = 1
        params = ParamSet(p=(1,), q=(1,), z=Fraction(-1))
        assert legendre_reduced(params, 1) == poly(1)

    def test_n2_strip(self):
        params = ParamSet(p=(1, 1), q=(0, 0), z=Fraction(-1), m=1)
        assert legendre_reduced(params, 1) == poly(1, -2)

    def test_leftover_orders(self, example1):
        # only the factors beyond (p_1, q_1) remain
        for t in (1, 2):
            core = legendre_reduced(example1, t)
            assert core.order_at_zero() == (2 - 1) * t
            assert core.order_at_one() == (5 - 4) * t

    def test_sign_convention(self):
        # q_1 odd flips the sign: the reduced polynomial of (-z)(1-z) is +1
        params = ParamSet(p=(1,), q=(1,), z=Fraction(-2))
        got = legendre_reduced(params, 1)
        assert got == poly(1)


class TestChristoffel:
    def test_monomial_images(self):
        assert christoffel_transform(poly(1)).is_zero()
        assert christoffel_transform(poly(0, 1)) == poly(1)
        assert christoffel_transform(poly(0, 0, 1)) == poly(Fraction(1, 2), 1)

    def test_on_n2_polynomial(self):
        assert christoffel_transform(poly(1, -3, 2)) == poly(-2, 2)

    def test_against_defining_integral(self):
        # independent oracle: divide P(z)-P(y) by z-y in QQ[z][y], then
        # integrate each power of y over [0, 1]
        rng = random.Random(8)
        for _ in range(25):
            P = poly(*[Fraction(rng.randint(-9, 9), rng.randint(1, 4))
                       for _ in range(rng.randint(1, 9))])
            d = len(P.coeffs) - 1
            if d < 1:
                assert christoffel_transform(P).is_zero()
                continue
            # (z^k - y^k)/(z - y) = sum_{i<k} z^i y^(k-1-i)
            acc = DensePoly()
            for k in range(1, d + 1):
                ck = P.coeffs[k]
                if ck == 0:
                    continue
                for i in range(k):
                    weight = Fraction(1, k - i)  # integral of y^(k-1-i)
                    acc = acc + DensePoly([0] * i + [ck * weight])
            assert christoffel_transform(P) == acc

    def test_degree_drop(self):
        rng = random.Random(9)
        for _ in range(10):
            P = poly(*[rng.randint(-5, 5) for _ in range(rng.randint(2, 9))], 1)
            assert christoffel_transform(P).degree == P.degree - 1

    def test_point_evaluation_matches_polynomial(self):
        rng = random.Random(10)
        for _ in range(25):
            P = poly(*[Fraction(rng.randint(-9, 9), rng.randint(1, 3))
                       for _ in range(rng.randint(1, 12))])
            z = Fraction(-rng.randint(1, 7), rng.randint(1, 7))
            assert christoffel_value(P, z) == christoffel_transform(P).evaluate(z)

    @pytest.mark.parametrize("j", [2, 3, 4])
    def test_iterate_value_matches_iterated_transform(self, j):
        rng = random.Random(20 + j)
        for _ in range(20):
            P = poly(*[Fraction(rng.randint(-9, 9), rng.randint(1, 3))
                       for _ in range(rng.randint(1, 14))])
            z = Fraction(-rng.randint(1, 7), rng.randint(1, 7))
            Q = P
            for _ in range(j):
                Q = christoffel_transform(Q)
            assert christoffel_value(P, z, j) == Q.evaluate(z)

    def test_iterate_value_on_legendre(self, example2):
        for t in (1, 3, 6):
            L = legendre_poly(example2, t)
            T2 = christoffel_transform(christoffel_transform(L))
            assert christoffel_value(L, example2.z, 2) == eval_at_rational(T2, example2.z)

    def test_iterate_values_against_relation_iterates(self):
        # at z with a denominator, against the coefficients of T^j(L) from the
        # index relation, a route that never forms christoffel_value's sums
        cases = [(params, t) for params, t in oracle_corpus(27, 20, max_weight=120, with_m=True)
                 if params.z.denominator > 1]
        assert cases
        for params, t in cases:
            L = legendre_poly(params, t)
            iterates = transform_iterates(params, t, L, params.m)
            for j, Tj in enumerate(iterates, 1):
                assert christoffel_value(L, params.z, j) == Tj.evaluate(params.z)

    def test_iterate_order_validated(self):
        with pytest.raises(ParamError):
            christoffel_value(poly(1, 2, 3), Fraction(-1), 0)

    def test_eval_at_rational(self):
        rng = random.Random(11)
        for _ in range(20):
            P = poly(*[rng.randint(-9, 9) for _ in range(rng.randint(0, 10))])
            z = Fraction(rng.randint(-9, -1), rng.randint(1, 9))
            assert eval_at_rational(P, z) == P.evaluate(z)


class TestTransformIterates:
    def test_constant_rejected(self, example1):
        # only legendre_poly(params, t) is accepted, and a constant is not it
        with pytest.raises(ParamError):
            transform_iterates(example1, 1, poly(5), 1)

    def test_iterate_chain(self, example2):
        L = legendre_poly(example2, 1)
        out = transform_iterates(example2, 1, L, 2)
        assert out[0] == christoffel_transform(L)
        assert out[1] == christoffel_transform(out[0])

    def test_m_validation(self, example1):
        L = legendre_poly(example1, 1)
        with pytest.raises(ParamError):
            transform_iterates(example1, 1, L, 2)  # params carry m=1


class TestFunctionValue:
    def test_constant_collapses_to_log(self, example1):
        val = legendre_function_value(example1, 1, 1, 192, L=poly(1))
        with mp.workprec(256):
            want = mp.log(mp.mpf(1) / 2)
        assert abs(val - want) < mp.mpf(2) ** -180

    def test_form_is_small(self, example1):
        # the form is tiny against its two huge constituents
        t = 6
        L = legendre_poly(example1, t)
        val = legendre_function_value(example1, t, 1, 128, L=L)
        lz = abs(eval_at_rational(L, example1.z))
        assert abs(val) < mp.mpf(1)
        assert lz > 10**50

    def test_precision_cap(self, example1, monkeypatch):
        monkeypatch.setattr(legendre_module, "DEFAULT_MAX_WORKING_BITS", 80)
        with pytest.raises(PrecisionError):
            legendre_function_value(example1, 3, 1, 128, L=legendre_poly(example1, 3))

    def test_second_order_form(self, example2):
        # both form orders stay tiny against their huge constituents and decay
        vals = {}
        for t in (2, 4):
            L = legendre_poly(example2, t)
            assert abs(eval_at_rational(L, example2.z)) > 10**30
            for j in (1, 2):
                v = legendre_function_value(example2, t, j, 96, L=L)
                assert abs(v) < mp.mpf(1)
                vals[(j, t)] = abs(v)
        for j in (1, 2):
            assert vals[(j, 4)] < vals[(j, 2)]

    def test_precision_floor(self, example1):
        # at 0 bits the value would be rounding noise (-3.7e-9 here)
        L = legendre_poly(example1, 2)
        for bits in (0, MIN_PRECISION - 1):
            with pytest.raises(ParamError):
                legendre_function_value(example1, 2, 1, bits, L=L)
        low = legendre_function_value(example1, 2, 1, MIN_PRECISION, L=L)
        high = legendre_function_value(example1, 2, 1, 128, L=L)
        assert abs(low - high) < abs(high) * mp.mpf(2) ** -60

    def test_j_out_of_range(self, example1):
        with pytest.raises(ParamError):
            legendre_function_value(example1, 1, 2, 96, L=legendre_poly(example1, 1))

    def test_reduced_form_scaling(self, example1):
        t = 4
        L = legendre_poly(example1, t)
        raw = legendre_function_value(example1, t, 1, 128, L=L)
        red = reduced_form_value(example1, t, 1, 128, L=L)
        # prefactor at z=-1 is (1-z)^(-4t) = 2^(-4t), |z|=1
        with mp.workprec(256):
            assert abs(red - raw * mp.mpf(2) ** (-4 * t)) < abs(red) * mp.mpf(2) ** -100


class TestStructuralSuite:
    def test_passes_on_small_instances(self):
        instances = [
            (ParamSet(p=(1, 1), q=(1, 1), z=Fraction(-1), m=1), 1),
            (ParamSet(p=(1, 2), q=(0, 1), z=Fraction(-1), m=1), 1),
            (ParamSet(p=(2, 3), q=(1, 1), z=Fraction(-3), m=1), 2),
        ]
        for params, t in instances:
            for rep in structural_identity_suite(params, t, grid_step=Fraction(1, 200)):
                assert rep.passed, f"{rep.name}: {rep.witness}"

    def test_passes_on_example1(self, example1):
        for rep in structural_identity_suite(example1, 1, grid_step=Fraction(1, 100)):
            assert rep.passed, f"{rep.name}: {rep.witness}"

    def test_mirror_example(self):
        # specific cross-check at unequal parameters
        left = legendre_poly(ParamSet(p=(1, 2), q=(0, 1), z=Fraction(-1)), 1)
        right = legendre_poly(ParamSet(p=(1, 2), q=(0, 1), z=Fraction(-1)), 1)
        assert left == right  # determinism
        swapped = ParamSet(p=(1, 2), q=(0, 1), z=Fraction(-1))
        mirrored_pairs = ParamSet(p=(1, 2), q=(0, 1), z=Fraction(-1))
        # exact identity checked by the suite; here check one value by hand
        M = 4
        x = Fraction(3, 7)
        lhs = legendre_poly(swapped, 1).evaluate(x)
        # mirror: swap (p,q) entrywise, evaluate at 1-x, sign (-1)^M
        from loglegendre.legendre import _legendre_scaled
        rhs_poly = DensePoly(_legendre_scaled([(0, 1), (1, 2)], 1))
        rhs = (-1) ** M * rhs_poly.evaluate(1 - x)
        assert lhs == rhs

    def test_unit_interval_bound_small_case(self):
        # sup of |reduced| for the (1,0),(1,0) instance is 2 at z=0
        params = ParamSet(p=(1, 1), q=(0, 0), z=Fraction(-1), m=1)
        core = legendre_reduced(params, 1)
        vals = [abs(core.evaluate(Fraction(i, 1000))) for i in range(1001)]
        assert max(vals) <= 2

    def test_size_cap(self, example1):
        with pytest.raises(ParamError):
            structural_identity_suite(example1, 10)

    def test_roots_check_names_outside_roots(self, example1, monkeypatch):
        core = legendre_reduced(example1, 2)
        assert check_roots_in_unit_interval(example1, 2).passed
        # a real root at 3/2 and a double one at -1/2
        bad = poly(-3, 2) * power(poly(1, 2), 2) * core
        monkeypatch.setattr(legendre_module, "legendre_reduced", lambda params, t: bad)
        rep = check_roots_in_unit_interval(example1, 2)
        assert not rep.passed
        assert rep.witness == "sign variations: 2 below 0, 1 above 1"

    @pytest.mark.parametrize("step", [0, Fraction(-1, 10), Fraction(3, 2)])
    def test_grid_step_outside_unit_interval_is_rejected(self, step):
        params = preset_catalog()["log2-m1"]
        with pytest.raises(ParamError):
            check_unit_interval_bound(params, 1, step=step)
        with pytest.raises(ParamError):
            structural_identity_suite(params, 1, grid_step=step)

    def test_grid_step_one_is_accepted(self):
        assert check_unit_interval_bound(preset_catalog()["log2-m1"], 1, step=1).passed

    def test_trivial_integrality_witness_names_both_numbers(self, example1, monkeypatch):
        L = legendre_poly(example1, 1)
        assert check_trivial_integrality(example1, 1, L).passed
        monkeypatch.setattr(legendre_module, "trivial_clearing_multiplier", lambda params, t: 2)
        rep = check_trivial_integrality(example1, 1, L)
        assert not rep.passed
        assert rep.witness == "content denominator 7 does not divide 2"

    def test_pair_symmetry_compares_the_given_order_first(self, monkeypatch):
        # n = 4 samples random orders, and the unpermuted composition must
        # still be compared with legendre_poly
        params = ParamSet(p=(1, 2, 1, 3), q=(0, 1, 1, 2), z=Fraction(-1))
        assert check_pair_symmetry(params, 1, random.Random(0)).passed
        good = legendre_poly(params, 1)
        off = DensePoly(good.coeffs[:3] + (good.coeffs[3] + 1,) + good.coeffs[4:])
        monkeypatch.setattr(legendre_module, "legendre_poly", lambda params, t: off)
        rep = check_pair_symmetry(params, 1, random.Random(0))
        assert not rep.passed
        assert rep.witness == "permutation (0, 1, 2, 3)"

    def test_orthogonality_fails_off_the_reduced_polynomial(self, example1, monkeypatch):
        assert check_orthogonality(example1, 2, random.Random(0)).passed
        core = legendre_reduced(example1, 2)
        monkeypatch.setattr(legendre_module, "legendre_reduced", lambda params, t: core + poly(1))
        assert not check_orthogonality(example1, 2, random.Random(0)).passed

    def test_fault_injection(self):
        corrupted = poly(1, Fraction(1, 3), 2)
        rep = check_integer_coefficients(corrupted)
        assert not rep.passed
        assert "z^1" in rep.witness

