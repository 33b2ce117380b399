"""The integer kernels of the exact path against independent references.

- multiplication by (1-z)^k (difference passes) against DensePoly products;
- the transform T (packed Toeplitz product) against a Fraction evaluation of
  T(z^k) = sum_{i<k} z^i/(k-i), on both sides of a block boundary;
- frozen SHA-256 digests of large constructions and transforms;
- the series oracle (Newton differences at negative k) against the
  interpolation route q_to_p(series_k_polynomial(...)).
"""

import hashlib
import random
from fractions import Fraction

import pytest

from loglegendre.corpus import oracle_corpus
from loglegendre.exact import DensePoly
from loglegendre.legendre import (
    TRANSFORM_BLOCK,
    ParamSet,
    _mul_one_minus_z_pow,
    _toeplitz_tail,
    christoffel_transform,
    legendre_poly,
    transform_iterates,
)
from loglegendre.measures import preset_catalog
from loglegendre.series import oracle_legendre, q_to_p, series_k_polynomial

# sha256 of render(), frozen from the schoolbook construction and the
# coefficient-by-coefficient transform
LOG2_M1_T70_SHA256 = "75377eb118914634fb0142711bb4c2f73caef1e6e881fb5731efb124683c2a92"
LOG2_M2_T24_T2_SHA256 = "96abf2e7865498d3758fc3d3d5299f3e1328b65a6097c1b83d985076a5ed7422"


def transform_by_definition(P: DensePoly) -> DensePoly:
    """T(P) from T(z^k) = sum_{i<k} z^i/(k-i), in Fractions."""
    out = [Fraction(0)] * max(len(P.coeffs) - 1, 0)
    for k, c in enumerate(P.coeffs):
        for i in range(k):
            out[i] += Fraction(c) / (k - i)
    return DensePoly(out)


def sha256(P: DensePoly) -> str:
    return hashlib.sha256(P.render().encode()).hexdigest()


class TestOneMinusZPower:
    def test_against_dense_product(self):
        rng = random.Random(41)
        for _ in range(40):
            c = [rng.randint(-10**12, 10**12) for _ in range(rng.randint(1, 30))]
            k = rng.randint(0, 25)
            got = _mul_one_minus_z_pow(list(c), k)
            assert len(got) == len(c) + k
            assert DensePoly(got) == DensePoly(c) * DensePoly([1, -1]) ** k

    def test_input_unchanged(self):
        c = [3, -1, 4]
        _mul_one_minus_z_pow(c, 5)
        assert c == [3, -1, 4]


class TestTransformKernel:
    @pytest.mark.parametrize("d", [0, 1, 2])
    def test_low_degrees(self, d):
        rng = random.Random(d)
        for _ in range(10):
            P = DensePoly([rng.randint(-9, 9) for _ in range(d)] + [rng.randint(1, 9)])
            assert christoffel_transform(P) == transform_by_definition(P)

    @pytest.mark.parametrize("d", [TRANSFORM_BLOCK - 1, TRANSFORM_BLOCK,
                                   TRANSFORM_BLOCK + 1, TRANSFORM_BLOCK + 2])
    def test_block_boundary(self, d):
        rng = random.Random(d)
        P = DensePoly([rng.randint(-10**6, 10**6) for _ in range(d)] + [1])
        assert christoffel_transform(P) == transform_by_definition(P)

    def test_all_negative(self):
        rng = random.Random(42)
        for d in (3, 17, 70):
            P = DensePoly([-rng.randint(1, 10**20) for _ in range(d + 1)])
            assert christoffel_transform(P) == transform_by_definition(P)

    def test_alternating_signs(self):
        rng = random.Random(43)
        for d in (4, 19, 71):
            P = DensePoly([(-1) ** i * rng.randint(1, 10**20) for i in range(d + 1)])
            assert christoffel_transform(P) == transform_by_definition(P)

    def test_single_huge_coefficient(self):
        for d, at, sign in ((9, 0, 1), (30, 30, -1), (60, 17, 1), (60, 59, -1)):
            cs = [1] * (d + 1)
            cs[at] = sign * 3**2000
            P = DensePoly(cs)
            assert christoffel_transform(P) == transform_by_definition(P)

    def test_fraction_inputs(self):
        rng = random.Random(44)
        for d in (1, 5, 33, 80):
            P = DensePoly([Fraction(rng.randint(-99, 99), rng.randint(1, 60))
                           for _ in range(d)] + [Fraction(rng.randint(1, 99), rng.randint(1, 60))])
            assert christoffel_transform(P) == transform_by_definition(P)

    @pytest.mark.parametrize("block", [1, 2, 3, 5, 8])
    def test_small_blocks(self, block):
        rng = random.Random(block)
        for d in (1, 2, block, block + 1, 3 * block + 2, 25):
            nums = [rng.randint(-10**9, 10**9) for _ in range(d + 1)]
            inv = [0] + [rng.randint(1, 10**6) for _ in range(d)]
            inv[1] = 10**6  # the largest entry, as lcm(1..d)/j gives
            want = [sum(nums[k] * inv[k - i] for k in range(i + 1, d + 1)) for i in range(d)]
            assert _toeplitz_tail(nums, inv, block) == want


class TestFrozenDigests:
    def test_log2_m1_t70(self):
        assert sha256(legendre_poly(preset_catalog()["log2-m1"], 70)) == LOG2_M1_T70_SHA256

    def test_log2_m2_t24_second_transform(self):
        params = preset_catalog()["log2-m2"]
        L = legendre_poly(params, 24)
        assert sha256(transform_iterates(params, 24, L, 2)[1]) == LOG2_M2_T24_T2_SHA256


class TestOracleKernel:
    def test_against_interpolation_route(self):
        for params, t in oracle_corpus(seed=202, count=30, max_weight=30):
            assert oracle_legendre(params, t) == q_to_p(series_k_polynomial(params, t)), \
                f"routes differ at p={params.p} q={params.q} t={t}"

    def test_degree_200_matches_construction(self):
        params = ParamSet(p=(4, 5, 3, 2), q=(1, 2, 0, 3), z=Fraction(-1))
        t = 200 // params.total_degree
        assert params.total_degree * t == 200
        assert oracle_legendre(params, t) == legendre_poly(params, t)
