import hashlib
import importlib.util
import sys
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

import mpmath as mp
import pytest

from loglegendre.corpus import oracle_corpus
from loglegendre import spectral
from loglegendre.errors import HypothesisError, InternalCheckError, ParamError, PrecisionError
from loglegendre.exact import DensePoly, rational_reconstruction
from loglegendre.legendre import MIN_PRECISION, ParamSet, _legendre_scaled
from loglegendre.measures import measure_bound, preset_catalog
from loglegendre.spectral import (
    RecurrenceWitness,
    SpectralData,
    _char_value_at,
    char_values,
    characteristic_polynomial,
    characteristic_roots,
    recurrence_witness,
    spectral_data,
    windowed_growth_rate,
)


def poly(*cs):
    return DensePoly(cs)


class TestCharacteristicPolynomial:
    def test_example1_expansion(self, example1):
        # -(y+3)(y+4)(y+5) + 2 y (y-1)(y-2), built independently
        lhs = -(poly(3, 1) * poly(4, 1) * poly(5, 1)) + \
            2 * (poly(0, 1) * poly(-1, 1) * poly(-2, 1))
        assert characteristic_polynomial(example1) == lhs

    def test_linear_case(self):
        params = ParamSet(p=(1,), q=(0,), z=Fraction(-1))
        assert characteristic_polynomial(params) == poly(-1, 1)  # y - 1

    def test_always_monic(self):
        for params, _ in oracle_corpus(seed=40, count=20, max_weight=40):
            assert characteristic_polynomial(params).coeffs[-1] == 1


class TestRoots:
    def test_example1_values(self, example1):
        sd = characteristic_roots(example1, 512)
        with mp.workprec(600):
            want_real = mp.mpf("20.267669670594")
            want_re = mp.mpf("-1.133834835297")
            want_im = mp.mpf("1.294140012477")
            assert abs(sd.roots[0] - want_real) < 1e-9
            pair = sorted(sd.roots[1:], key=lambda y: float(mp.im(y)))
            assert abs(mp.re(pair[0]) - want_re) < 1e-9
            assert abs(mp.im(pair[0]) + want_im) < 1e-9
            assert abs(mp.re(pair[1]) - want_re) < 1e-9
            assert abs(mp.im(pair[1]) - want_im) < 1e-9

    def test_linear_case_exact(self):
        params = ParamSet(p=(1,), q=(0,), z=Fraction(-1))
        sd = characteristic_roots(params, 128)
        assert abs(sd.roots[0] - 1) < mp.mpf(2) ** -120

    def test_conjugation_closure(self, example2):
        sd = characteristic_roots(example2, 256)
        with mp.workprec(300):
            for y in sd.roots:
                if abs(mp.im(y)) > mp.mpf(2) ** -200:
                    assert any(abs(mp.conj(y) - y2) < mp.mpf(2) ** -200
                               for y2 in sd.roots)

    def test_vieta(self, example1, example2):
        for params in (example1, example2):
            cp = characteristic_polynomial(params)
            prec = 320
            sd = characteristic_roots(params, prec)
            with mp.workprec(prec + 64):
                n = params.n
                total = sum(sd.roots)
                prod = mp.mpf(1)
                for y in sd.roots:
                    prod *= y
                want_sum = -mp.mpf(Fraction(cp.coeffs[-2]).numerator) / \
                    Fraction(cp.coeffs[-2]).denominator
                c0 = Fraction(cp.coeffs[0])
                want_prod = (-1) ** n * mp.mpf(c0.numerator) / c0.denominator
                assert abs(total - want_sum) < mp.mpf(2) ** -(prec - 20)
                assert abs(prod - want_prod) < abs(want_prod) * mp.mpf(2) ** -(prec - 20)

    def test_residuals(self, example2):
        prec = 256
        cp = characteristic_polynomial(example2)
        sd = characteristic_roots(example2, prec)
        with mp.workprec(prec + 64):
            for y in sd.roots:
                acc = mp.mpc(0)
                for c in reversed(cp.coeffs):
                    cf = Fraction(c)
                    acc = acc * y + mp.mpf(cf.numerator) / cf.denominator
                bound = mp.mpf(2) ** (-(prec - 16)) * (1 + abs(y)) ** example2.n
                assert abs(acc) < bound

    def test_against_mpmath_polyroots(self, example1):
        cp = characteristic_polynomial(example1)
        with mp.workprec(200):
            cs = [mp.mpf(Fraction(c).numerator) / Fraction(c).denominator
                  for c in reversed(cp.coeffs)]
            other = mp.polyroots(cs, maxsteps=100, extraprec=100)
            sd = characteristic_roots(example1, 128)
            for y in sd.roots:
                assert min(abs(y - o) for o in other) < mp.mpf(2) ** -100


    def test_precision_floor(self, example1):
        for bits in (0, MIN_PRECISION - 1):
            with pytest.raises(ParamError):
                characteristic_roots(example1, bits)
            with pytest.raises(ParamError):
                spectral_data(example1, bits)
        assert characteristic_roots(example1, MIN_PRECISION).precision == MIN_PRECISION

    def test_no_convergence_is_precision_error(self, example1, monkeypatch):
        # one Durand-Kerner sweep from the fixed starts does not converge
        monkeypatch.setattr(spectral, "LOCATOR_MAX_SWEEPS", 1)
        with pytest.raises(PrecisionError):
            characteristic_roots(example1, 128)


def reference_roots(params, precision):
    """mpmath's Durand-Kerner roots, run at twice `precision` with as many
    extra bits: clustered roots cost polyroots bits, and at precision + 24
    it misses them by about 2^-75 at 64 bits."""
    cs = [Fraction(c) for c in reversed(characteristic_polynomial(params).coeffs)]
    with mp.workprec(2 * precision + 24):
        return mp.polyroots([mp.mpf(c.numerator) / c.denominator for c in cs],
                            maxsteps=200, extraprec=2 * precision)


class TestNewtonRoots:
    @staticmethod
    def assert_match(params, precision):
        sd = characteristic_roots(params, precision)
        other = reference_roots(params, precision)
        assert len(sd.roots) == len(other) == params.n
        with mp.workprec(precision + 64):
            for y in sd.roots:
                err = min(abs(y - o) for o in other)
                assert err < mp.mpf(2) ** -(precision + 16) * max(1, abs(y)), \
                    (params.p, params.q, params.z, precision)

    @pytest.mark.parametrize("precision", [64, 512, 1024, 4096])
    def test_presets_against_polyroots(self, precision):
        for params in preset_catalog().values():
            self.assert_match(params, precision)

    @pytest.mark.parametrize("precision", [64, 512])
    def test_corpus_against_polyroots(self, precision):
        for params, _ in oracle_corpus(404, 30):
            self.assert_match(params, precision)

    @pytest.mark.parametrize("precision", [64, 512])
    def test_large_root_located(self, precision):
        # the largest root is about 4390: at 63 bits, polyroots could never
        # take an absolute step below its 2^-52 stopping tolerance
        params = ParamSet(p=(17, 19, 24, 1), q=(7, 12, 21, 0), z=Fraction(-43))
        self.assert_match(params, precision)

    @pytest.mark.parametrize("precision", [512, 1024])
    def test_inclusion_radius_reported(self, precision):
        for name, params in preset_catalog().items():
            sd = spectral_data(params, precision)
            assert sd.log2_root_radius < -(precision + 20), name

    def test_exact_root_has_zero_radius(self):
        sd = characteristic_roots(ParamSet(p=(1,), q=(0,), z=Fraction(-1)), 128)
        assert sd.log2_root_radius == mp.ninf

    def test_duplicated_start_raises(self, example2, monkeypatch):
        # two starts at one root converge to it together; their inclusion
        # disks meet, so no repeated root is returned
        locate = spectral._locate_roots

        def duplicated(coeffs):
            w, starts = locate(coeffs)
            return w, [starts[0]] + starts[:-1]

        monkeypatch.setattr(spectral, "_locate_roots", duplicated)
        with pytest.raises(PrecisionError, match="overlap"):
            characteristic_roots(example2, 256)

    def test_far_start_raises(self, example1, monkeypatch):
        # from 10^40 Newton needs about 200 steps, far beyond the ladder
        locate = spectral._locate_roots

        def far(coeffs):
            w, starts = locate(coeffs)
            return w, starts[:-1] + [[10**40 << w, 0]]

        monkeypatch.setattr(spectral, "_locate_roots", far)
        with pytest.raises(PrecisionError, match="Newton"):
            characteristic_roots(example1, 256)


def exact_value_and_slope(params, u):
    """f(u) and f'(u) of the characteristic polynomial, as pairs (re, im) of
    Fractions, summed term by term over the powers of the Gaussian rational u."""
    f, d, power, prev = [Fraction(0)] * 2, [Fraction(0)] * 2, (Fraction(1), Fraction(0)), None
    for k, c in enumerate(characteristic_polynomial(params).coeffs):
        f = [f[0] + c * power[0], f[1] + c * power[1]]
        if prev is not None:
            d = [d[0] + k * c * prev[0], d[1] + k * c * prev[1]]
        prev, power = power, (power[0] * u[0] - power[1] * u[1], power[0] * u[1] + power[1] * u[0])
    return f, d


def refined_disks(params, precision, monkeypatch):
    """The (x, y, r) that characteristic_roots took from each Newton refinement."""
    refined, newton = [], spectral._newton_root

    def recorded(*args):
        refined.append(newton(*args))
        return refined[-1]

    with monkeypatch.context() as patch:
        patch.setattr(spectral, "_newton_root", recorded)
        characteristic_roots(params, precision)
    return refined


HARD = [
    # clusters about a repeated q
    ParamSet(p=(3, 5, 2), q=(4, 4, 4), z=Fraction(-1, 10**6)),
    ParamSet(p=(1, 2, 3), q=(7, 7, 0), z=Fraction(-1, 10**6)),
    ParamSet(p=(6, 1, 9, 2), q=(5, 5, 5, 5), z=Fraction(-1, 10**6)),
    # n = 10
    ParamSet(p=tuple(range(1, 11)), q=tuple(range(10, 0, -1)), z=Fraction(-1)),
    ParamSet(p=(12, 40, 7, 33, 58, 21, 9, 45, 3, 60),
             q=(0, 17, 52, 8, 30, 41, 2, 59, 26, 11), z=Fraction(-3)),
    # z > 1 and large |z|
    ParamSet(p=(9, 14, 31, 5, 47), q=(20, 3, 0, 38, 12), z=Fraction(7)),
    ParamSet(p=(4, 6, 9), q=(2, 0, 7), z=Fraction(-5 * 10**5)),
    ParamSet(p=(55, 13, 28, 40, 6, 19), q=(60, 22, 0, 35, 48, 9), z=Fraction(-5 * 10**5)),
]


class TestExactDisks:
    @staticmethod
    def assert_enclosures(params, precision, monkeypatch):
        n, work = params.n, precision + 64
        other = reference_roots(params, work)
        for x, y, r in refined_disks(params, precision, monkeypatch):
            u = (Fraction(x, 1 << work), Fraction(y, 1 << work))
            f, d = exact_value_and_slope(params, u)
            # r / 2^(2 work) >= n |f(u) / f'(u)|, exactly
            assert r * r * (d[0] ** 2 + d[1] ** 2) >= n * n * (f[0] ** 2 + f[1] ** 2) * 2 ** (4 * work)
            with mp.workprec(2 * work + 64):
                centre = mp.mpc(mp.mpf((x, -work)), mp.mpf((y, -work)))
                err = min(abs(centre - o) for o in other)
                # the reference is good to 2^-(2 work + 23) relative
                slack = mp.mpf(2) ** -(2 * work + 16) * max(1, abs(centre))
                assert err <= mp.mpf((r, -2 * work)) + slack, (params, precision)

    @pytest.mark.parametrize("precision", [64, 512, 1024])
    def test_presets_inside_disks(self, precision, monkeypatch):
        for params in preset_catalog().values():
            self.assert_enclosures(params, precision, monkeypatch)

    @pytest.mark.parametrize("precision", [64, 512])
    def test_corpus_inside_disks(self, precision, monkeypatch):
        for params, _ in oracle_corpus(404, 30):
            self.assert_enclosures(params, precision, monkeypatch)

    def test_acceptance_rule_is_strict(self):
        # f(u) = u at precision 32: the ladder is the work grid 2^-96 alone,
        # and n |f/f'| < 2^-(32+23) max(1, |u|) reads |x + iy| < 2^41 there
        newton = spectral._newton_root
        x = (1 << 41) - 1
        assert newton([0, 1], x, 0, 96, 32) == (x, 0, x << 96 | 1)
        assert newton([0, 1], 1 << 41, 0, 96, 32) == (0, 0, 0)

    def test_radius_rounded_up(self):
        # the radius |u| = sqrt(5) 2^39 / 2^96 is irrational
        x, y, r = spectral._newton_root([0, 1], 1 << 40, 1 << 39, 96, 32)
        assert (x, y) == (1 << 40, 1 << 39)
        assert (r - 1) ** 2 < 5 << 78 + 192 <= r * r

    def test_locator_follows_polyroots(self, monkeypatch):
        # the same iteration from the same starts: polyroots converges within
        # exactly as many sweeps as the locator
        def sweeps(succeeds):
            return next(m for m in range(1, 201) if succeeds(m))

        def polyroots_in(coeffs, m):
            size = (max(map(abs, coeffs[:-1])) // coeffs[-1] + 1).bit_length()
            try:
                with mp.workprec(53):
                    mp.polyroots(coeffs[::-1], maxsteps=m, extraprec=20 + size)
            except mp.mp.NoConvergence:
                return False
            return True

        def locator_in(coeffs, m):
            monkeypatch.setattr(spectral, "LOCATOR_MAX_SWEEPS", m)
            try:
                spectral._locate_roots(coeffs)
            except PrecisionError:
                return False
            return True

        instances = list(preset_catalog().values()) + [p for p, _ in oracle_corpus(404, 12)]
        for params in instances:
            _, coeffs = characteristic_polynomial(params).cleared()
            assert sweeps(lambda m: polyroots_in(coeffs, m)) == \
                sweeps(lambda m: locator_in(coeffs, m)), params

    @pytest.mark.parametrize("name", ["log2019-m4", "log65-m3"])
    @pytest.mark.parametrize("precision", [64, 512, 1024])
    def test_values_against_mpmath_power(self, name, precision):
        # exponents up to 23 and 15; mpmath's z**k takes exp(k log z) once
        # k (work + 128) >= 10000, so above 64 bits the two routes differ
        params = preset_catalog()[name]
        work = precision + 64
        for y in characteristic_roots(params, precision).roots:
            v = _char_value_at(params, y, work)
            with mp.workprec(work + 128):
                want = mp.mpf(1)
                for p, q in params.pairs():
                    want *= (y - q) ** q * (y + p) ** p / mp.mpf(p + q) ** (p + q)
                assert abs(v - want) <= abs(want) * mp.mpf(2) ** -(work - 8), (name, precision)

    @pytest.mark.parametrize("precision", [64, 512])
    @pytest.mark.parametrize("index", range(len(HARD)))
    def test_hard_instances(self, index, precision):
        params = HARD[index]
        sd = characteristic_roots(params, precision)
        other = reference_roots(params, precision)
        assert len(sd.roots) == len(other) == params.n
        with mp.workprec(2 * precision + 64):
            for y in sd.roots:
                err = min(abs(y - o) for o in other)
                assert err < mp.mpf(2) ** -(precision + 16) * max(1, abs(y))


def published_exponents() -> dict:
    """The benchmark's table of published preset exponents and tolerances."""
    path = Path(__file__).resolve().parent.parent / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    mod = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = mod  # dataclasses resolve their module by name
    try:
        spec.loader.exec_module(mod)
    finally:
        del sys.modules[spec.name]
    return mod.REFERENCE


class TestCharValues:
    @pytest.mark.parametrize("precision", [64, 128])
    def test_presets_at_low_precision(self, precision):
        # tiny but legitimate values must not be taken for a vanishing one
        catalog = preset_catalog()
        for name, (field, value, tol) in published_exponents().items():
            report = measure_bound(catalog[name], precision)
            assert abs(getattr(report, field) - mp.mpf(value)) < tol, (name, precision)


    def test_example1_logs(self, example1):
        sd = spectral_data(example1, 512)
        assert abs(sd.log_abs_values[0] - mp.mpf("22.149699678920")) < 1e-9
        assert abs(sd.log_abs_values[1] - mp.mpf("-7.537440405644")) < 1e-9
        assert abs(sd.log_abs_values[2] - mp.mpf("-7.537440405644")) < 1e-9
        # the big value is excluded by the size threshold
        assert abs(sd.log_threshold - mp.mpf("13.1543")) < 1e-3
        assert abs(sd.log_v_max - sd.log_abs_values[0]) < 1e-20
        assert abs(sd.log_v_capped - sd.log_abs_values[1]) < 1e-20

    def test_example2_logs(self, example2):
        sd = spectral_data(example2, 512)
        assert abs(sd.log_abs_values[0] - mp.mpf("48.947490848559")) < 1e-9
        assert abs(sd.log_abs_values[1] - mp.mpf("-9.276132199490")) < 1e-9
        assert abs(sd.log_abs_values[3] - mp.mpf("-18.115257059384")) < 1e-9

    @staticmethod
    def fake(params, roots, precision=128):
        values = tuple(_char_value_at(params, y, precision + 64) for y in roots)
        return SpectralData(roots=roots, values=values, precision=precision)

    def test_degenerate_root_rejected(self, example1):
        # y = q_2 = 2 makes (y - q_2)^(q_2) vanish
        with pytest.raises(HypothesisError, match="vanishes"):
            char_values(example1, self.fake(example1, (mp.mpc(2, 0),)))

    def test_no_value_below_threshold_rejected(self, example1):
        fake = self.fake(example1, (mp.mpc(10**9, 0), mp.mpc(-10**9, 1)))
        with pytest.raises(HypothesisError, match="below the size threshold"):
            char_values(example1, fake)

    def test_each_value_computed_once(self, monkeypatch):
        calls = []

        def counted(params, y, work):
            calls.append(y)
            return _char_value_at(params, y, work)

        monkeypatch.setattr(spectral, "_char_value_at", counted)
        spectral_data(preset_catalog()["log2-m2"], 512)
        assert len(calls) == 4

    @pytest.mark.parametrize("p, q", [((1, 1), (1, 1)), ((1, 1), (0, 0)), ((2, 2), (0, 0)),
                                      ((2, 2), (2, 2)), ((3, 3), (0, 0))])
    def test_exact_threshold_tie_raises_after_two_doublings(self, monkeypatch, p, q):
        # at z = -1/3 one |v_h| equals the threshold exactly, so no precision
        # decides it: the roots run at the requested precision and at two
        # doublings of it, then PrecisionError names the tie
        calls = []

        def counted(params, precision):
            calls.append(precision)
            return characteristic_roots(params, precision)

        monkeypatch.setattr(spectral, "characteristic_roots", counted)
        with pytest.raises(PrecisionError, match="threshold tie"):
            spectral_data(ParamSet(p=p, q=q, z=Fraction(-1, 3)), 128)
        assert calls == [128, 256, 512]

    @pytest.mark.parametrize("precision", [64, 512, 2048])
    def test_equal_modulus_pairs_by_argument(self, precision):
        # a conjugate pair has one |v| up to rounding, so the order promised
        # for ties is the argument's, not the rounding noise's
        pairs = 0
        for name, params in preset_catalog().items():
            values = characteristic_roots(params, precision).values
            with mp.workprec(precision + 64):
                for a, b in zip(values, values[1:]):
                    if abs(abs(a) - abs(b)) <= abs(a) * mp.mpf(2) ** (-precision // 2):
                        pairs += 1
                        assert mp.arg(a) < mp.arg(b), (name, precision)
        assert pairs > 0

    @pytest.mark.parametrize("precision", [64, 512])
    def test_order_is_the_full_key_order(self, precision):
        # the argument is computed only inside ties of |v|; the order stays
        # that of the key (-|v|, arg v), on the presets and on an instance
        # with a conjugate pair that is not a preset
        extra = ParamSet(p=(5, 6, 3), q=(2, 2, 1), z=Fraction(-7, 3))
        for params in [*preset_catalog().values(), extra]:
            sd = characteristic_roots(params, precision)
            with mp.workprec(precision + 64):
                want = sorted(zip(sd.roots, sd.values),
                              key=lambda yv: (-abs(yv[1]), mp.arg(yv[1])))
                assert list(zip(sd.roots, sd.values)) == want, params
        with mp.workprec(precision + 64):
            a, b = characteristic_roots(extra, precision).values[1:]
            assert a == mp.conj(b) and a.imag < 0

    @pytest.mark.parametrize("name, ties", [("hmv-n2", 0), ("log2-m2", 2), ("log2019-m4", 4)])
    def test_argument_only_for_ties(self, monkeypatch, name, ties):
        calls = []

        def counted(x):
            calls.append(x)
            return arg(x)

        arg = mp.arg
        monkeypatch.setattr(mp, "arg", counted)
        characteristic_roots(preset_catalog()[name], 128)
        assert len(calls) == ties

    def test_example1_fields(self, example1):
        sd = spectral_data(example1, 192)
        assert sd.precision == 192
        assert len(sd.roots) == len(sd.values) == len(sd.log_abs_values) == 3
        assert mp.nstr(sd.log_v_max, 20).startswith("22.14969967892")


class TestWindowedGrowthRate:
    def test_geometric(self):
        vals = [mp.mpf(3) ** t for t in range(1, 40)]
        slope = windowed_growth_rate(vals, window=2)
        assert abs(slope - mp.log(3)) < 1e-9

    def test_decaying_geometric(self):
        vals = [mp.mpf(2) ** -t for t in range(1, 60)]
        slope = windowed_growth_rate(vals, window=3)
        assert abs(slope + mp.log(2)) < 1e-9

    def test_all_zero_rejected(self):
        with pytest.raises(ParamError):
            windowed_growth_rate([mp.mpf(0)] * 30, window=3)

    def test_too_short_rejected(self):
        with pytest.raises(ParamError):
            windowed_growth_rate([mp.mpf(1)] * 4, window=3)


class TestRecurrenceWitness:
    def test_small_instance_all_t(self):
        params = ParamSet(p=(1, 1), q=(0, 0), z=Fraction(-1), m=1)
        for t in range(0, 11):
            w = recurrence_witness(params, t)
            assert w is not None, f"no witness at t={t}"
            assert not w.is_trivial()

    def test_degree_bounds(self):
        params = ParamSet(p=(1, 1), q=(0, 0), z=Fraction(-1), m=1)
        n, M = 2, 4
        bound = M * n * (n - 1) // 2 - n + 1
        w = recurrence_witness(params, 4)
        for l, cp in enumerate(w.coefficients):
            if not cp.is_zero():
                assert cp.degree <= bound + M * (n - l)

    def test_example1_small_t(self, example1):
        w = recurrence_witness(example1, 1)
        assert w is not None and not w.is_trivial()

    def test_size_guard(self, example1):
        with pytest.raises(ParamError):
            recurrence_witness(example1, 500)


@lru_cache(maxsize=None)
def fraction_witness(params, t):
    """The elimination recurrence_witness used before the modular search:
    columns z^i * P_(t+l) reduced one by one over Fraction; the first that
    reduces to zero gives the combination, with coefficient 1 on itself."""
    n, M = params.n, params.total_degree
    Lbound = M * n * (n - 1) // 2 - n + 1
    rows = Lbound + M * (t + n) + 1
    scaled = [_legendre_scaled(params.pairs(), t + l) if t + l >= 1 else [1]
              for l in range(n + 1)]
    reduced, combos, pivots = [], [], []
    for l in range(n + 1):
        for i in range(Lbound + M * (n - l) + 1):
            vec = [Fraction(0)] * rows
            for k, c in enumerate(scaled[l]):
                vec[i + k] = Fraction(c)
            combo = {(l, i): Fraction(1)}
            for pr, idx in pivots:
                if vec[pr]:
                    f = vec[pr] / reduced[idx][pr]
                    col = reduced[idx]
                    for r in range(rows):
                        if col[r]:
                            vec[r] -= f * col[r]
                    for key, val in combos[idx].items():
                        combo[key] = combo.get(key, Fraction(0)) - f * val
            first = next((r for r in range(rows) if vec[r]), None)
            if first is None:
                polys = []
                for ll in range(n + 1):
                    cs = [Fraction(0)] * (Lbound + M * (n - ll) + 1)
                    for (kl, ki), val in combo.items():
                        if kl == ll:
                            cs[ki] = val
                    polys.append(DensePoly(cs))
                return RecurrenceWitness(t=t, coefficients=tuple(polys))
            reduced.append(vec)
            combos.append(combo)
            pivots.append((first, len(reduced) - 1))
    return None


def witness_digest(w):
    return hashlib.sha256("\n--\n".join(c.render() for c in w.coefficients).encode()).hexdigest()


SMALL = ParamSet(p=(1, 1), q=(0, 0), z=Fraction(-1), m=1)


class TestModularWitness:
    @pytest.mark.parametrize("t", range(0, 11))
    def test_small_equals_fraction_route(self, t):
        assert recurrence_witness(SMALL, t) == fraction_witness(SMALL, t)

    @pytest.mark.parametrize("t", [1, 2])
    def test_example1_equals_fraction_route(self, example1, t):
        assert recurrence_witness(example1, t) == fraction_witness(example1, t)

    def test_example1_t3_frozen_digest(self, example1):
        # SHA-256 of the Fraction route's witness (6.5 s to recompute)
        assert witness_digest(recurrence_witness(example1, 3)) == (
            "288b8c2a4004b1828b4bd30887fd383cfdc939ec4bb344851c28ae90da683caf")

    @pytest.mark.parametrize("t, want", [(1, [0, 0, 0, 89, 89, 93, 97]),
                                         (2, [0, 0, 0, 0, 0, 89, 105])])
    def test_unlucky_primes_are_passed_over(self, example1, monkeypatch, t, want):
        real = list(spectral._witness_primes())
        monkeypatch.setattr(spectral, "_witness_primes", lambda: [2, 3, 5, 7, 11, 13] + real)
        seen = []
        kernel = spectral.first_dependency_mod

        def recorded(columns, p):
            found = kernel(columns, p)
            seen.append(found[0])
            return found

        monkeypatch.setattr(spectral, "first_dependency_mod", recorded)
        assert recurrence_witness(example1, t) == fraction_witness(example1, t)
        assert seen == want

    def test_exact_check_accepts_only_the_true_weights(self, example1, monkeypatch):
        seen = []
        kernel = spectral.first_dependency_mod

        def recorded(columns, p):
            found = kernel(columns, p)
            seen.append((columns, p, found))
            return found

        monkeypatch.setattr(spectral, "first_dependency_mod", recorded)
        recurrence_witness(example1, 1)
        assert len(seen) == 1  # one prime lifts the weights at t = 1
        columns, p, (_, residues) = seen[0]
        lifted = [rational_reconstruction(r, p) for r in residues]
        assert spectral._annihilates(columns, lifted)
        i = next(i for i, (num, _) in enumerate(lifted) if num)
        lifted[i] = (lifted[i][0] + 1, lifted[i][1])
        assert not spectral._annihilates(columns, lifted)

    def test_only_unlucky_primes_raise(self, example1, monkeypatch):
        monkeypatch.setattr(spectral, "_witness_primes", lambda: [2, 3, 5, 7, 11, 13])
        with pytest.raises(InternalCheckError):
            recurrence_witness(example1, 1)

    def test_coefficients_are_fractions(self, example1):
        w = recurrence_witness(example1, 1)
        assert all(type(c) is Fraction for poly in w.coefficients for c in poly.coeffs)
