"""The integer kernels of the exact path against independent references.

- multiplication by (1-z)^k (difference passes) against DensePoly products;
- the transform T (the low slots of one Kronecker product in decimal)
  against a Fraction evaluation of T(z^k) = sum_{i<k} z^i/(k-i) and the
  direct Toeplitz sum, from degree 0 to 400 and up to a product of over a
  million digits, with exactly one decimal multiply per call, slots wider
  than CPython's int-str digit limit (the default one and the lowest it
  accepts) or made of whole 600-digit pieces, and in threads whose decimal
  context would round;
- transform_iterates, the christoffel_transform chain on L, against the
  boundary factor times the iterates of the reduced polynomial, which the
  multiple orthogonality makes equal, and its rejection of an L of the
  wrong degree;
- frozen SHA-256 digests of large constructions and transforms, and of L
  and the reduced polynomial for every preset at t = 1, 2, 3, 6 and for two
  seeded corpora (data/construct_sha256.json);
- the series oracle (Newton differences at negative k) against
  construction at degree 200, the oracle's cap.
"""

import decimal
import hashlib
import json
import random
import sys
import threading
from fractions import Fraction
from math import prod
from pathlib import Path

import pytest

from loglegendre.corpus import oracle_corpus
from loglegendre import legendre
from loglegendre.errors import ParamError
from loglegendre.exact import DensePoly, lcm_upto
from loglegendre.legendre import (
    ParamSet,
    _mul_one_minus_z_pow,
    _slot_digits,
    _toeplitz_tail,
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

    @staticmethod
    def record_products(monkeypatch):
        """Patch the kernel's decimal context to record, for each product,
        the digit counts of its two operands."""
        sizes = []

        class Recording(decimal.Context):
            def multiply(self, a, b):
                sizes.append((len(a.as_tuple().digits), len(b.as_tuple().digits)))
                return super().multiply(a, b)

        monkeypatch.setattr(legendre, "Context", Recording)
        return sizes

    @staticmethod
    def direct(nums, inv):
        """The Toeplitz sums out[i] = sum_{k>i} nums[k] inv[k-i], term by term."""
        d = len(nums) - 1
        return [sum(nums[k] * inv[k - i] for k in range(i + 1, d + 1)) for i in range(d)]

    @pytest.mark.parametrize("d", [255, 256, 257, 258, 400])
    def test_block_boundary(self, d, monkeypatch):
        """Degrees 255-258 and 400 with 7-digit coefficients against the
        definition, in one product."""
        rng = random.Random(d)
        P = DensePoly([rng.randint(-10**6, 10**6) for _ in range(d)] + [-10**6])
        sizes = self.record_products(monkeypatch)
        assert christoffel_transform(P) == transform_by_definition(P)
        assert len(sizes) == 1

    @pytest.mark.parametrize("d", [50, 97, 121])
    def test_forty_digit_values(self, d, monkeypatch):
        rng = random.Random(d)
        nums = [rng.randint(-10**40, 10**40) for _ in range(d + 1)]
        inv = [0] + [rng.randint(1, 10**8) for _ in range(d)]
        sizes = self.record_products(monkeypatch)
        assert _toeplitz_tail(nums, inv) == self.direct(nums, inv)
        assert len(sizes) == 1

    def test_product_over_a_million_digits(self, monkeypatch):
        """d = 300 with 2000-digit values: slots of about 2130 digits, and
        one product of two operands of about 640k digits each."""
        rng = random.Random(300)
        nums = [rng.randint(-10**2000, 10**2000) for _ in range(301)]
        inv = [0] + [lcm_upto(300) // j for j in range(1, 301)]
        sizes = self.record_products(monkeypatch)
        assert _toeplitz_tail(nums, inv) == self.direct(nums, inv)
        assert len(sizes) == 1 and sum(sizes[0]) > 10**6

    def test_slots_beyond_int_str_limit(self):
        # 9000-digit coefficients make slots of about 9050 digits; the
        # kernel must not convert them through str(int) or int(str)
        rng = random.Random(47)
        P = DensePoly([rng.randint(-10**9000, 10**9000) for _ in range(20)] + [10**9000 - 1])
        assert christoffel_transform(P) == transform_by_definition(P)

    def test_slots_beyond_lowest_int_str_limit(self):
        # slots of about 2050 digits read back under 640, the lowest limit
        # CPython accepts: every int() piece must stay below it
        rng = random.Random(49)
        P = DensePoly([rng.randint(-10**2000, 10**2000) for _ in range(30)] + [10**2000 - 1])
        inv = [0] + [lcm_upto(30) // j for j in range(1, 31)]
        assert _slot_digits(2 * 10**2000 * sum(inv)) > 640
        old = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        try:
            got = christoffel_transform(P)
        finally:
            sys.set_int_max_str_digits(old)
        assert got == transform_by_definition(P)

    @pytest.mark.parametrize("w", [600, 1200])
    def test_slots_of_whole_pieces(self, w):
        """Slot widths that are multiples of the 600-digit int() piece, so
        the first piece of a slot is a whole one."""
        rng = random.Random(w)
        inv = [0] + [rng.randint(1, 10**6) for _ in range(30)]
        h = 10**w // (20 * sum(inv))
        nums = [rng.randint(-h, h) for _ in range(30)] + [h]
        assert _slot_digits(2 * h * sum(inv)) == w
        assert _toeplitz_tail(nums, inv) == self.direct(nums, inv)

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

    @pytest.mark.parametrize("b", range(1, 9))
    def test_small_blocks(self, b, monkeypatch):
        """Degrees 1, 2, b, b+1, 3b+2 and 25 against the direct sum, one
        product per call."""
        rng = random.Random(b)
        sizes = self.record_products(monkeypatch)
        degrees = (1, 2, b, b + 1, 3 * b + 2, 25)
        for d in degrees:
            nums = [rng.randint(-10**9, 10**9) for _ in range(d + 1)]
            inv = [0] + [rng.randint(1, 10**6) for _ in range(d)]
            inv[1] = 10**6  # the largest entry, as lcm(1..d)/j gives
            assert _toeplitz_tail(nums, inv) == self.direct(nums, inv)
        assert len(sizes) == len(degrees)


class TestDecimalContext:
    """The kernel runs in a private decimal context: the thread's context,
    here one that would round every product and trap the rounding, neither
    changes the result nor is changed by the call."""

    @staticmethod
    def instance():
        params = preset_catalog()["log2-m2"]
        L = legendre_poly(params, 6)
        rng = random.Random(48)
        nums = [rng.randint(-10**60, 10**60) for _ in range(41)]
        inv = [0] + [lcm_upto(40) // j for j in range(1, 41)]
        return L, nums, inv

    @staticmethod
    def run(L, nums, inv, results, key):
        ctx = decimal.Context(prec=5, traps=[decimal.Inexact, decimal.Rounded])
        decimal.setcontext(ctx)
        before = (ctx.prec, dict(ctx.flags), dict(ctx.traps))
        out = (christoffel_transform(L), _toeplitz_tail(nums, inv))
        after = (ctx.prec, dict(ctx.flags), dict(ctx.traps))
        results[key] = (out, before, after, decimal.getcontext() is ctx)

    def check(self, n_threads):
        L, nums, inv = self.instance()
        want = (christoffel_transform(L), _toeplitz_tail(nums, inv))
        results = {}
        threads = [threading.Thread(target=self.run, args=(L, nums, inv, results, k))
                   for k in range(n_threads)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60)
            assert not th.is_alive()
        assert sorted(results) == list(range(n_threads))
        for out, before, after, same_ctx in results.values():
            assert out == want
            assert before == after and same_ctx
            assert not any(after[1].values())

    def test_one_thread(self):
        self.check(1)

    def test_two_threads_at_once(self):
        self.check(2)


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
