import itertools
import json
import math
import random
from fractions import Fraction
from pathlib import Path

import mpmath as mp
import pytest

from loglegendre.corpus import oracle_corpus
from loglegendre.divisors import (
    _gauss_tables,
    digamma,
    divisor_rate,
    exponent_profile,
    floor_gain,
    floor_gain_profile,
    FloorGainProfile,
    guaranteed_divisor,
    log_guaranteed_divisor,
    strong_integrality_check,
)
from loglegendre.errors import ParamError
from loglegendre.exact import DensePoly, lcm_clearing_multiplier, lcm_upto
from loglegendre.legendre import (
    MIN_PRECISION,
    ParamSet,
    legendre_poly,
    transform_iterates,
    trivial_clearing_multiplier,
)
from loglegendre.measures import preset_catalog

# frozen by an independent per-prime run of the defining product
EXAMPLE1_DIVISOR_T12 = 18579448222667298067513

# rows() of every preset's profile, frozen from the Fraction-floor search
PRESET_PROFILES = Path(__file__).resolve().parent / "data" / "preset_profiles.json"


def preset_breakpoints() -> list[Fraction]:
    """Every point where a preset's divisor rate evaluates digamma."""
    pts = {Fraction(1)}
    for params in preset_catalog().values():
        pts.update(floor_gain_profile(params).breakpoints)
    pts.discard(Fraction(0))
    return sorted(pts)


def floor_gain_by_definition(params, omega: Fraction) -> int:
    """The largest gain over all n! permutations, tried one by one."""
    n = params.n
    floors = [[math.floor((p + q) * omega) for q in params.q] for p in params.p]
    diag = sum(floors[j][j] for j in range(n))
    return max(sum(map(list.__getitem__, floors, s))
               for s in itertools.permutations(range(n))) - diag


def floor_gain_by_subset_dp(params, omega: Fraction) -> int:
    """The largest gain as an assignment, by a dynamic program over subsets
    of columns in O(n 2^n): after row j, best maps each set of j + 1 used
    columns to the largest floor sum of rows 0..j over them."""
    n = params.n
    num, den = omega.numerator, omega.denominator
    floors = [[(pj + qk) * num // den for qk in params.q] for pj in params.p]
    best = {0: 0}
    for row in floors:
        nxt = {}
        for used, total in best.items():
            for k, f in enumerate(row):
                bit = 1 << k
                if not used & bit and nxt.get(used | bit, -1) < total + f:
                    nxt[used | bit] = total + f
        best = nxt
    return best[(1 << n) - 1] - sum(floors[j][j] for j in range(n))


class TestExponentProfile:
    def test_example1(self, example1):
        prof = exponent_profile(example1)
        assert prof.cross_sums == (7, 6, 6, 5, 5, 5, 4, 4, 3)
        assert prof.lcm_exponents[0] == 7

    def test_example2(self, example2):
        prof = exponent_profile(example2)
        assert prof.lcm_exponents[0] == 10
        assert prof.lcm_exponents[1] == 9

    def test_n1(self):
        prof = exponent_profile(ParamSet(p=(1,), q=(0,), z=Fraction(-1)))
        assert prof.cross_sums == (1,)
        assert prof.lcm_exponents == (Fraction(1),)

    def test_lcm_index_floor(self, example2):
        K = exponent_profile(example2).cross_sums
        # N_2 = max(9, 10/2) = 9, so the second factor at t=3 is d_27
        assert lcm_clearing_multiplier(K, 3, 2) == lcm_upto(30) * lcm_upto(27)
        # fractional branch: max(K_3 t, floor(K_1 t / 3))
        assert lcm_clearing_multiplier(K, 1, 3) == \
            lcm_upto(10) * lcm_upto(9) * lcm_upto(max(K[2], 10 // 3))


class TestFloorGain:
    def test_example1_values(self, example1):
        assert floor_gain(example1, Fraction(1, 2)) == 1
        assert floor_gain(example1, Fraction(0)) == 0

    def test_example2_value(self, example2):
        assert floor_gain(example2, Fraction(1, 7)) == 2

    def test_range_validation(self, example1):
        with pytest.raises(ParamError):
            floor_gain(example1, Fraction(1))

    def test_against_definition_random_corpus(self):
        rng = random.Random(33)
        for _ in range(40):
            n = rng.randint(1, 5)
            params = ParamSet(p=tuple(rng.randint(1, 12) for _ in range(n)),
                              q=tuple(rng.randint(0, 12) for _ in range(n)),
                              z=Fraction(-1))
            omegas = {Fraction(0)} | {Fraction(rng.randint(0, d - 1), d)
                                      for d in (rng.randint(1, 30) for _ in range(12))}
            for omega in sorted(omegas):
                assert floor_gain(params, omega) == floor_gain_by_definition(params, omega), \
                    f"p={params.p} q={params.q} omega={omega}"

    @pytest.mark.parametrize("n, omegas", [(6, 8), (7, 6), (8, 3), (9, 1)])
    def test_against_definition_large_n(self, n, omegas):
        rng = random.Random(600 + n)
        params = ParamSet(p=tuple(rng.randint(1, 40) for _ in range(n)),
                          q=tuple(rng.randint(0, 40) for _ in range(n)),
                          z=Fraction(-1))
        for _ in range(omegas):
            d = rng.randint(2, 97)
            omega = Fraction(rng.randint(1, d - 1), d)
            assert floor_gain(params, omega) == floor_gain_by_definition(params, omega), \
                f"p={params.p} q={params.q} omega={omega}"

    @pytest.mark.parametrize("n", range(10, 15))
    def test_against_subset_dp_beyond_nine(self, n):
        rng = random.Random(1000 + n)
        for _ in range(4):
            params = ParamSet(p=tuple(rng.randint(1, 40) for _ in range(n)),
                              q=tuple(rng.randint(0, 40) for _ in range(n)),
                              z=Fraction(-1))
            for _ in range(4):
                d = rng.randint(2, 97)
                omega = Fraction(rng.randint(1, d - 1), d)
                assert floor_gain(params, omega) == floor_gain_by_subset_dp(params, omega), \
                    f"p={params.p} q={params.q} omega={omega}"

    def test_presets_small_denominators_against_definition(self):
        omegas = sorted({Fraction(c, d) for d in range(1, 61) for c in range(d)})
        for name, params in preset_catalog().items():
            for omega in omegas:
                assert floor_gain(params, omega) == floor_gain_by_definition(params, omega), \
                    f"{name} omega={omega}"

    def test_nonnegative(self, example1):
        rng = random.Random(30)
        for _ in range(50):
            omega = Fraction(rng.randint(0, 99), 100)
            assert floor_gain(example1, omega) >= 0


class TestProfile:
    def test_example1_table(self, example1):
        prof = floor_gain_profile(example1)
        nonzero = [(a, b, v) for a, b, v in prof.segments() if v]
        assert nonzero == [
            (Fraction(1, 6), Fraction(3, 7), 1),
            (Fraction(1, 2), Fraction(5, 7), 1),
            (Fraction(3, 4), Fraction(6, 7), 1),
        ]

    def test_example2_table(self, example2):
        prof = floor_gain_profile(example2)
        two = [(a, b) for a, b, v in prof.segments() if v == 2]
        one = [(a, b) for a, b, v in prof.segments() if v == 1]
        F = Fraction
        assert two == [(F(1, 7), F(1, 6)), (F(2, 9), F(1, 4)), (F(2, 7), F(3, 10)),
                       (F(3, 7), F(1, 2)), (F(4, 7), F(3, 5)), (F(5, 7), F(3, 4)),
                       (F(6, 7), F(7, 8))]
        assert one == [(F(1, 9), F(1, 7)), (F(1, 6), F(2, 9)), (F(1, 4), F(2, 7)),
                       (F(3, 10), F(3, 7)), (F(5, 9), F(4, 7)), (F(3, 5), F(5, 7)),
                       (F(3, 4), F(6, 7)), (F(7, 8), F(9, 10))]

    def test_n1_identically_zero(self):
        prof = floor_gain_profile(ParamSet(p=(3,), q=(2,), z=Fraction(-1)))
        assert prof.values == (0,)
        assert prof.breakpoints == (Fraction(0),)

    def test_profile_agrees_with_direct_evaluation(self, example1):
        prof = floor_gain_profile(example1)
        rng = random.Random(31)
        for _ in range(60):
            omega = Fraction(rng.randint(0, 419), 420)
            assert prof.value_at(omega) == floor_gain(example1, omega)

    def test_builds_beyond_nine(self):
        params = ParamSet(p=tuple(range(1, 11)), q=tuple(range(10)), z=Fraction(-1))
        prof = floor_gain_profile(params)
        assert prof.breakpoints[0] == 0 and prof.values[0] == 0
        for omega in (Fraction(1, 3), Fraction(7, 19), Fraction(11, 12)):
            assert prof.value_at(omega) == floor_gain_by_subset_dp(params, omega)

    def test_preset_profiles_frozen(self):
        frozen = json.loads(PRESET_PROFILES.read_text())
        for name, params in preset_catalog().items():
            assert floor_gain_profile(params).rows() == frozen[name], name

    def test_json_round_trip(self, example1):
        prof = floor_gain_profile(example1)
        rows = json.loads(json.dumps(prof.rows()))
        again = FloorGainProfile(tuple(Fraction(r["from"]) for r in rows),
                                 tuple(r["mu"] for r in rows))
        assert again == prof

    def test_built_once_per_params(self, monkeypatch):
        from loglegendre import divisors
        first = floor_gain_profile(ParamSet(p=(4, 5, 3), q=(1, 2, 0), z=Fraction(-3), m=1))
        params = ParamSet(p=(4, 5, 3), q=(1, 2, 0), z=Fraction(-3), m=1)
        assert floor_gain_profile(params) is first
        calls = []
        monkeypatch.setattr(divisors, "floor_gain", lambda *a: calls.append(a))
        guaranteed_divisor(params, 12)
        log_guaranteed_divisor(params, 12)
        divisor_rate(params, 128)
        assert calls == []


class TestGuaranteedDivisor:
    def test_frozen_regression(self, example1):
        assert guaranteed_divisor(example1, 12) == EXAMPLE1_DIVISOR_T12

    def test_against_per_prime_oracle(self, example1):
        # independent recomputation straight from the definition, for both
        # the integer and the log variant (summed in the same prime order)
        from loglegendre.exact import primes_in_range
        cases = [(example1, 9)] + [(params, t) for params in preset_catalog().values()
                                   for t in (1, 6, 24, 64)]
        for params, t in cases:
            n1t = max(p + q for p in params.p for q in params.q) * t
            want, want_log = 1, 0.0
            for s in primes_in_range(1, n1t):
                if s * s <= n1t:
                    continue
                gain = floor_gain(params, Fraction(t % s, s))
                want *= s ** gain
                if gain:
                    want_log += gain * math.log(s)
            assert guaranteed_divisor(params, t) == want, (params, t)
            assert log_guaranteed_divisor(params, t) == want_log, (params, t)

    def test_n1_trivial(self):
        params = ParamSet(p=(2,), q=(1,), z=Fraction(-1))
        for t in (1, 5, 9):
            assert guaranteed_divisor(params, t) == 1

    def test_log_variant(self, example1):
        d = guaranteed_divisor(example1, 12)
        assert log_guaranteed_divisor(example1, 12) == pytest.approx(math.log(d), rel=1e-12)


class TestDigamma:
    def test_recurrence(self):
        for x in (Fraction(1, 3), Fraction(2, 7), Fraction(5, 2), Fraction(9)):
            lhs = digamma(x + 1, 128) - digamma(x, 128)
            want = mp.mpf(x.denominator) / x.numerator
            assert abs(lhs - 1 / (mp.mpf(x.numerator) / x.denominator)) < mp.mpf(2) ** -110

    def test_at_one(self):
        # negated Euler-Mascheroni constant
        val = digamma(Fraction(1), 128)
        with mp.workprec(200):
            assert abs(val - mp.mpf("-0.57721566490153286061")) < mp.mpf(2) ** -60

    def test_half_argument_relation(self):
        lhs = digamma(Fraction(1, 2), 160)
        with mp.workprec(220):
            rhs = digamma(Fraction(1), 160) - 2 * mp.log(2)
            assert abs(lhs - rhs) < mp.mpf(2) ** -140

    def test_against_mpmath(self):
        rng = random.Random(32)
        with mp.workprec(300):
            for _ in range(20):
                x = Fraction(rng.randint(1, 60), rng.randint(1, 60))
                want = mp.digamma(mp.mpf(x.numerator) / x.denominator)
                got = digamma(x, 256)
                assert abs(got - want) < mp.mpf(2) ** -240

    @staticmethod
    def assert_matches_mpmath(points, precision):
        with mp.workprec(precision + 64):
            for x in points:
                want = mp.digamma(mp.mpf(x.numerator) / x.denominator)
                assert abs(digamma(x, precision) - want) < mp.mpf(2) ** -precision, \
                    f"x={x} at {precision} bits"

    def test_preset_breakpoints_against_mpmath_512(self):
        extra = [Fraction(1), Fraction(7), Fraction(5, 2), Fraction(61, 43)]
        self.assert_matches_mpmath(preset_breakpoints() + extra, 512)

    def test_against_mpmath_4096(self):
        # mpmath needs ~0.15 s per point at 4096 bits, so every breakpoint is
        # checked at 512 bits above, and here one per denominator, which
        # still covers every per-denominator table
        largest = {}
        for x in preset_breakpoints():
            largest[x.denominator] = x
        extra = [Fraction(1), Fraction(7), Fraction(5, 2), Fraction(61, 43)]
        self.assert_matches_mpmath(sorted(largest.values()) + extra, 4096)

    def test_denominator_above_4096(self):
        # the guard bits grow with bitlen(m), so the budget still holds where
        # cot(pi/m) is about m/pi and the sine tables are about 2^12 powers long
        m = 4099
        self.assert_matches_mpmath([Fraction(r, m) for r in (1, 2, 2049, 4098)], 128)

    def test_domain(self):
        with pytest.raises(ParamError):
            digamma(Fraction(0), 64)


class TestGaussTables:
    @pytest.mark.parametrize("m", [2, 3, 7, 41, 97])
    def test_against_mpmath(self, m):
        work = 512
        base, cosines, logsines, cotangents = _gauss_tables(m, work)
        b = m.bit_length()
        assert len(cosines) == m // 2 + 1
        assert len(logsines) == len(cotangents) == (m - 1) // 2
        with mp.workprec(work + 64):
            unit = mp.mpf(2) ** -work

            def off(entry, want):
                return abs(mp.mpf(entry) * unit - want) / unit

            assert off(base, -mp.euler - mp.log(2 * m)) < 2 ** (b + 2)
            for j, c in enumerate(cosines):
                assert off(c, mp.cospi(mp.mpf(2 * j) / m)) < 2 ** (b + 3), (m, j)
            for k, (ls, ct) in enumerate(zip(logsines, cotangents), start=1):
                assert off(ls, mp.log(mp.sinpi(mp.mpf(k) / m))) < 2 ** (2 * b + 3), (m, k)
                assert off(ct, mp.pi / 2 * mp.cot(mp.pi * k / m)) < 2 ** (3 * b + 3), (m, k)


    def test_logsines_within_budget(self):
        # the digamma budget allows 2^(2b+2) units of 2^-work per log-sine;
        # mp.log of mp.sinpi is the independent oracle
        work = 512
        with mp.workprec(work + 64):
            for m in range(2, 61):
                bound = 2 ** (2 * m.bit_length() + 2)
                for k, entry in enumerate(_gauss_tables(m, work)[2], start=1):
                    want = mp.ldexp(mp.log(mp.sinpi(mp.mpf(k) / m)), work)
                    assert abs(entry - want) < bound, (m, k)


class TestDivisorRate:
    def test_example1(self, example1):
        val = divisor_rate(example1, 192)
        assert abs(val - mp.mpf("4.995102335817")) < 1e-11

    def test_example2(self, example2):
        val = divisor_rate(example2, 192)
        assert abs(val - mp.mpf("10.792110594854")) < 1e-11

    def test_zero_profile(self):
        params = ParamSet(p=(4,), q=(2,), z=Fraction(-1))
        assert divisor_rate(params, 128) == 0

    def test_precision_floor(self, example1):
        for bits in (-5, MIN_PRECISION - 1):
            with pytest.raises(ParamError):
                divisor_rate(example1, bits)
        low = divisor_rate(example1, MIN_PRECISION)
        assert abs(low - divisor_rate(example1, 192)) < low * mp.mpf(2) ** -60

    def test_convergence_trend(self, example1):
        delta = float(divisor_rate(example1, 128))
        gaps = [abs(log_guaranteed_divisor(example1, t) / t - delta)
                for t in (32, 64, 128)]
        assert gaps[0] > gaps[1] > gaps[2]
        assert all(log_guaranteed_divisor(example1, t) / t < delta
                   for t in (32, 64, 128))


def iterates(params, t):
    return transform_iterates(params, t, legendre_poly(params, t), params.m)


def strong_by_definition(params, t, transforms):
    """The strong guarantee coefficient by coefficient: mult c is an integer
    divisible by Delta_t for every coefficient c of the last iterate."""
    mult = lcm_clearing_multiplier(exponent_profile(params).cross_sums, t, len(transforms))
    delta = guaranteed_divisor(params, t)
    return all((mult * c).denominator == 1 and (mult * c).numerator % delta == 0
               for c in transforms[-1].coeffs)


class TestIntegrality:
    def test_trivial_multiplier_example1(self, example1):
        # H = (7, 5, 3), m = 1: the multiplier is lcm(1..7t)
        from loglegendre.exact import lcm_upto
        assert trivial_clearing_multiplier(example1, 1) == lcm_upto(7)
        assert trivial_clearing_multiplier(example1, 3) == lcm_upto(21)

    def test_strong_check_small_scales(self, example1, example2):
        for t in (1, 2, 3):
            assert strong_integrality_check(example1, t, iterates(example1, t))
        assert strong_integrality_check(example2, 1, iterates(example2, 1))

    def test_strong_check_random_corpus(self):
        for params, t in oracle_corpus(seed=103, count=12, max_weight=24, with_m=True):
            assert strong_integrality_check(params, t, iterates(params, t)), \
                f"violation at p={params.p} q={params.q} m={params.m} t={t}"

    def test_strong_check_matches_definition(self):
        # as built, one coefficient + 1/7, everything / 3 and everything * 3
        verdicts = []
        for params, t in oracle_corpus(seed=2020, count=20, max_weight=30, with_m=True):
            *lower, top = iterates(params, t)
            cases = [top, DensePoly(top.coeffs[:-1] + (top.coeffs[-1] + Fraction(1, 7),)),
                     Fraction(1, 3) * top, 3 * top]
            for poly in cases:
                got = strong_integrality_check(params, t, lower + [poly])
                assert got == strong_by_definition(params, t, lower + [poly]), \
                    f"p={params.p} q={params.q} m={params.m} t={t}: {poly}"
                verdicts.append(got)
            assert verdicts[-4], f"as built: p={params.p} q={params.q} t={t}"
        assert not all(verdicts)

    def test_empty_transforms_vacuous(self, example1):
        assert strong_integrality_check(example1, 1, [])
        assert strong_integrality_check(example1, 1, [DensePoly()])

    def test_corruption_detected(self, example1):
        top = iterates(example1, 2)[-1]
        corrupted = DensePoly(
            list(top.coeffs[:-1]) + [top.coeffs[-1] + Fraction(1, 10**40)])
        assert not strong_integrality_check(example1, 2, [corrupted])


class TestLcmGrowthSanity:
    def test_lcm_exponent_growth(self):
        # (1/t) log lcm(1..N t) is near N for large t
        t = 10**4
        n = 7
        rate = math.log(lcm_upto(n * t)) / t
        assert abs(rate - n) / n < 0.05


class TestDivisorRateByBreakpoint:
    """divisor_rate evaluates psi once per point where mu jumps."""

    @staticmethod
    def pairwise_rate(profile: FloorGainProfile, precision: int) -> mp.mpf:
        # the per-step formula sum mu(u) (psi(u') - psi(u)), psi from mpmath
        work = precision + 16
        with mp.workprec(work):
            total = mp.mpf(0)
            for a, b, v in profile.segments():
                if v:
                    total += v * (mp.digamma(mp.mpf(b.numerator) / b.denominator)
                                  - mp.digamma(mp.mpf(a.numerator) / a.denominator))
            return +total

    def test_one_call_per_jump(self, monkeypatch):
        from loglegendre import divisors
        calls = []

        def counting(x, precision):
            calls.append(x)
            return digamma(x, precision)

        monkeypatch.setattr(divisors, "digamma", counting)
        total = 0
        for name, params in preset_catalog().items():
            profile = floor_gain_profile(params)
            calls.clear()
            divisor_rate(params, 512)
            ends = list(profile.breakpoints[1:]) + [Fraction(1)]
            jumps = {u for u, v, w in zip(ends, profile.values, profile.values[1:] + (0,)) if v != w}
            assert sorted(calls) == sorted(jumps), name
            total += len(calls)
        assert total == 320  # the per-step formula made 544 calls

    @pytest.mark.parametrize("precision", [128, 512])
    def test_against_pairwise_formula(self, precision):
        for name, params in preset_catalog().items():
            profile = floor_gain_profile(params)
            got = divisor_rate(params, precision)
            want = self.pairwise_rate(profile, precision)
            assert abs(got - want) <= abs(want) * mp.mpf(2) ** -(precision - 8), name
