"""The integer kernels of the exact path against independent references.

- multiplication by (1-z)^k (difference passes) against DensePoly products;
- the transform T (its definition on the cleared integer coefficients)
  against a Fraction evaluation of T(z^k) = sum_{i<k} z^i/(k-i), from
  degree 0 to 400;
- transform_iterates (the index relation differentiated in k) against the
  chain of christoffel_transform on L, and each of its checks firing on a
  perturbed relation;
- the same iterates against the boundary factor times the iterates of the
  reduced polynomial, which the multiple orthogonality makes equal, and
  the rejection of an L of the wrong degree;
- frozen SHA-256 digests of large constructions and transforms, and of L
  and the reduced polynomial for every preset at t = 1, 2, 3, 6 and for two
  seeded corpora (data/construct_sha256.json);
- the series oracle (Newton differences at negative k) against
  construction at degree 200, the oracle's cap.
"""

import hashlib
import json
import random
from fractions import Fraction
from math import prod
from pathlib import Path

import pytest

from loglegendre.corpus import oracle_corpus
from loglegendre import legendre
from loglegendre.errors import InternalCheckError, ParamError
from loglegendre.exact import DensePoly
from loglegendre.legendre import (
    ParamSet,
    _mul_one_minus_z_pow,
    christoffel_transform,
    legendre_poly,
    legendre_reduced,
    transform_iterates,
)
from loglegendre.measures import preset_catalog
from loglegendre.series import oracle_legendre

# sha256 of render(), frozen from the schoolbook construction and the
# coefficient-by-coefficient transform
LOG2_M1_T70_SHA256 = "75377eb118914634fb0142711bb4c2f73caef1e6e881fb5731efb124683c2a92"
LOG2_M2_T24_T2_SHA256 = "96abf2e7865498d3758fc3d3d5299f3e1328b65a6097c1b83d985076a5ed7422"
CONSTRUCT_SHA256 = Path(__file__).resolve().parent / "data" / "construct_sha256.json"
PRESET_SCALES = (1, 2, 3, 6)
CORPORA = [(11, 60, False), (12, 40, True)]      # (seed, max_weight, with_m), 40 each


def transform_by_definition(P: DensePoly) -> DensePoly:
    """T(P) from T(z^k) = sum_{i<k} z^i/(k-i), in Fractions."""
    out = [Fraction(0)] * max(len(P.coeffs) - 1, 0)
    for k, c in enumerate(P.coeffs):
        for i in range(k):
            out[i] += Fraction(c) / (k - i)
    return DensePoly(out)


def sha256(P: DensePoly) -> str:
    return hashlib.sha256(P.render().encode()).hexdigest()


def power(P, k):
    """P^k as k DensePoly products."""
    return prod([P] * k, start=DensePoly([1]))


def preset_digests(params) -> dict[str, list[str]]:
    """{t: [sha256 of L, sha256 of the reduced polynomial]} over PRESET_SCALES."""
    return {str(t): [sha256(legendre_poly(params, t)), sha256(legendre_reduced(params, t))]
            for t in PRESET_SCALES}


def corpus_digest(seed: int, max_weight: int, with_m: bool) -> str:
    """One sha256 over render() of L and the reduced polynomial, corpus order."""
    h = hashlib.sha256()
    for params, t in oracle_corpus(seed, 40, max_weight=max_weight, with_m=with_m):
        for P in (legendre_poly(params, t), legendre_reduced(params, t)):
            h.update(P.render().encode() + b"\n\n")
    return h.hexdigest()


class TestOneMinusZPower:
    def test_against_dense_product(self):
        rng = random.Random(41)
        for _ in range(40):
            c = [rng.randint(-10**12, 10**12) for _ in range(rng.randint(1, 30))]
            k = rng.randint(0, 25)
            got = _mul_one_minus_z_pow(list(c), k)
            assert len(got) == len(c) + k
            assert DensePoly(got) == DensePoly(c) * power(DensePoly([1, -1]), k)

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

    @pytest.mark.parametrize("d", [255, 256, 257, 258, 400])
    def test_block_boundary(self, d):
        """Degrees 255-258 and 400 with 7-digit coefficients."""
        rng = random.Random(d)
        P = DensePoly([rng.randint(-10**6, 10**6) for _ in range(d)] + [-10**6])
        assert christoffel_transform(P) == transform_by_definition(P)

    @pytest.mark.parametrize("d", [50, 97, 121])
    def test_forty_digit_values(self, d):
        rng = random.Random(d)
        P = DensePoly([rng.randint(-10**40, 10**40) for _ in range(d)] + [10**40])
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


def transform_chain(L, m):
    """[T(L), ..., T^m(L)], each christoffel_transform of the one before."""
    out = [christoffel_transform(L)]
    for _ in range(m - 1):
        out.append(christoffel_transform(out[-1]))
    return out


class TestIteratesByRelation:
    """transform_iterates against the definition, T of the previous iterate.
    log2019-m4 (d = 185 t, m = 4) runs at t = 1 only: at t = 3 its chain
    takes about a second, and TestReducedIterates covers t = 2, 3."""

    @pytest.mark.parametrize("name", sorted(preset_catalog()))
    def test_presets(self, name):
        params = preset_catalog()[name]
        for t in (1,) if name == "log2019-m4" else (1, 2, 3):
            L = legendre_poly(params, t)
            assert transform_iterates(params, t, L, params.m) == transform_chain(L, params.m), t

    def test_fewer_than_m(self):
        params = preset_catalog()["log2019-m4"]
        L = legendre_poly(params, 1)
        for m in (1, 2, 3):
            assert transform_iterates(params, 1, L, m) == transform_chain(L, m)

    def test_corpus(self):
        for params, t in oracle_corpus(seed=303, count=40, max_weight=60, with_m=True):
            L = legendre_poly(params, t)
            assert transform_iterates(params, t, L, params.m) == transform_chain(L, params.m), \
                f"p={params.p} q={params.q} t={t}"

    # (s, row, column, added to the weight, the check that fires) on log2-m2
    # at t = 2 (d = 56, q t = 2, 4, 6, 0): a left-side weight in the middle;
    # the right-side weight of b_56 in the last row, raised by g(56) so that
    # the division stays exact and T(L) gets a z^56 term; and the left-side
    # weight of y_3 in the row before the zero of g at l + 1 = 4
    PERTURBATIONS = [(0, 30, 0, 1, "inexact division"),
                     (1, 55, 4, "g", "coefficient above"),
                     (0, 3, 3, 1, "relation at l = 3")]

    @pytest.mark.parametrize("s, at, column, delta, message", PERTURBATIONS)
    def test_perturbed_relation_raises(self, monkeypatch, s, at, column, delta, message):
        params, t = preset_catalog()["log2-m2"], 2
        L = legendre_poly(params, t)
        real = legendre._index_relation

        def perturbed(pairs, t, lo, count, order=0):
            rows = real(pairs, t, lo, count, order)
            if order == s:
                row = rows[at]
                add = real(pairs, t, lo, count)[at][-1] if delta == "g" else delta
                rows[at] = row[:column] + (row[column] + add,) + row[column + 1:]
            return rows

        monkeypatch.setattr(legendre, "_index_relation", perturbed)
        with pytest.raises(InternalCheckError, match=message):
            transform_iterates(params, t, L, params.m)


class TestReducedIterates:
    """The iterates of L against those of the reduced polynomial R.  With the
    boundary factor W = z^(q_1 t) (1-z)^(p_1 t), L = (-1)^(q_1 t) W R, and

        T(W P)(z) - W(z) T(P)(z) = integral_0^1 P(y) (W(z) - W(y))/(z - y) dy,

    whose kernel is a polynomial in y of degree below deg W.  R and its first
    m-1 transforms are orthogonal on [0, 1] to every such polynomial (the
    multiple orthogonality, under the monotonicity that params.m carries),
    so T^j(L) = (-1)^(q_1 t) W T^j(R) for j <= m."""

    @staticmethod
    def through_reduced(params, t):
        """[(-1)^(q_1 t) W T^j(R) for j = 1..m]."""
        q1t = params.q[0] * t
        W = power(DensePoly([0, 1]), q1t) * power(DensePoly([1, -1]), params.p[0] * t)
        W = -W if q1t % 2 else W
        R, out = legendre_reduced(params, t), []
        for _ in range(params.m):
            R = christoffel_transform(R)
            den, nums = R.cleared()  # an integer product, then one division
            out.append(W * DensePoly(nums) * Fraction(1, den))
        return out

    @pytest.mark.parametrize("name", sorted(preset_catalog()))
    def test_presets(self, name):
        params = preset_catalog()[name]
        for t in (1, 2, 3):
            L = legendre_poly(params, t)
            assert transform_iterates(params, t, L, params.m) == self.through_reduced(params, t), t

    def test_corpus(self):
        for params, t in oracle_corpus(seed=303, count=40, max_weight=60, with_m=True):
            L = legendre_poly(params, t)
            assert transform_iterates(params, t, L, params.m) == self.through_reduced(params, t), \
                f"p={params.p} q={params.q} t={t}"

    def test_wrong_scale_rejected(self):
        params = preset_catalog()["log2-m2"]
        with pytest.raises(ParamError, match="degree"):
            transform_iterates(params, 3, legendre_poly(params, 4), 2)


class TestFrozenDigests:
    def test_log2_m1_t70(self):
        assert sha256(legendre_poly(preset_catalog()["log2-m1"], 70)) == LOG2_M1_T70_SHA256

    def test_log2_m2_t24_second_transform(self):
        params = preset_catalog()["log2-m2"]
        L = legendre_poly(params, 24)
        assert sha256(transform_iterates(params, 24, L, 2)[1]) == LOG2_M2_T24_T2_SHA256


class TestFrozenConstructions:
    """Every constructed bit against the digests in data/construct_sha256.json."""

    @pytest.mark.parametrize("name", sorted(preset_catalog()))
    def test_preset(self, name):
        frozen = json.loads(CONSTRUCT_SHA256.read_text())["presets"][name]
        assert preset_digests(preset_catalog()[name]) == frozen

    @pytest.mark.parametrize("seed, max_weight, with_m", CORPORA)
    def test_corpus(self, seed, max_weight, with_m):
        frozen = json.loads(CONSTRUCT_SHA256.read_text())["corpora"][str(seed)]
        assert corpus_digest(seed, max_weight, with_m) == frozen


class TestOracleKernel:
    def test_degree_200_matches_construction(self):
        params = ParamSet(p=(4, 5, 3, 2), q=(1, 2, 0, 3), z=Fraction(-1))
        t = 200 // params.total_degree
        assert params.total_degree * t == 200
        assert oracle_legendre(params, t) == legendre_poly(params, t)
