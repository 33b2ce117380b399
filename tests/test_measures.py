import json
from fractions import Fraction
from pathlib import Path

import mpmath as mp
import pytest

from loglegendre.errors import HypothesisError, ParamError
from loglegendre.legendre import MIN_PRECISION, ParamSet
from loglegendre.measures import (
    growth_decay_rates,
    measure_bound,
    preset_catalog,
)

# MeasureReport.to_dict() of every preset at 512 bits, frozen before the
# bound core was moved onto exact.fixed_log
BOUND_512 = Path(__file__).resolve().parent / "data" / "bound_512.json"


class TestGrowthDecayRates:
    def test_example1_from_published_constants(self, example1):
        delta = mp.mpf("4.995102335817")
        log_v_max = mp.mpf("22.149699678920")
        log_v_capped = mp.mpf("-7.537440405644")
        growth, decay = growth_decay_rates(example1, delta, log_v_max, log_v_capped, 128)
        assert abs(growth - mp.mpf("21.382009")) < 1e-5
        assert abs(decay - mp.mpf("8.305131")) < 1e-5
        assert abs(growth / decay + 1 - mp.mpf("3.5745539")) < 1e-6

    def test_hand_assembled_formula_with_denominator(self):
        # synthetic check of every term, including the log b contribution
        params = ParamSet(p=(1, 2), q=(0, 1), z=Fraction(-1, 2), m=1)
        delta, log_v_max, log_v_capped = mp.mpf(0), mp.mpf(3), mp.mpf(-6)
        growth, decay = growth_decay_rates(params, delta, log_v_max, log_v_capped, 128)
        # cross sums: 1,2,2,3 -> N_1 = 3; M = 4; p1 = 1, q1 = 0; b = 2
        # core = -0*log(1/2) - 1*log(3/2) + 3 - 0 + 3*log 2
        with mp.workprec(160):
            core = -mp.log(mp.mpf(3) / 2) + 3 + 3 * mp.log(2)
            assert abs(growth - (3 + core)) < mp.mpf(2) ** -100
            assert abs(decay - (6 - core)) < mp.mpf(2) ** -100

    def test_nonpositive_decay_rejected(self, example1):
        with pytest.raises(HypothesisError):
            growth_decay_rates(example1, mp.mpf(0), mp.mpf(30), mp.mpf(10), 128)

    def test_nonpositive_growth_rejected(self, example1):
        with pytest.raises(HypothesisError):
            growth_decay_rates(example1, mp.mpf(100), mp.mpf(3), mp.mpf(-50), 128)

    def test_requires_m(self):
        params = ParamSet(p=(1, 1), q=(0, 0), z=Fraction(-1))
        with pytest.raises(ParamError):
            growth_decay_rates(params, mp.mpf(0), mp.mpf(1), mp.mpf(-1), 128)


class TestMeasureBound:
    def test_example1_pipeline(self, example1):
        rep = measure_bound(example1, 256)
        assert abs(rep.approx_exponent - mp.mpf("3.574553902525")) < 1e-10
        assert rep.flags["distinct_char_values"]
        assert rep.flags["monotonicity"]

    def test_classical_n2_preset(self):
        rep = measure_bound(preset_catalog()["hmv-n2"], 256)
        assert abs(rep.approx_exponent - mp.mpf("3.891399770739906")) < 1e-12

    def test_second_order_log2_at_4096_bits(self):
        rep = measure_bound(preset_catalog()["log2-m2"], 4096)
        assert abs(rep.approx_exponent - mp.mpf("12.841618132152")) < 1e-8

    def test_natural_hypothesis_failure(self):
        # tiny |z| pushes the core so high that the decay rate goes negative
        params = ParamSet(p=(1, 1), q=(0, 0), z=Fraction(-1, 99), m=1)
        with pytest.raises(HypothesisError):
            measure_bound(params, 128)

    def test_requires_m_and_n2(self):
        with pytest.raises(ParamError):
            measure_bound(ParamSet(p=(1, 1), q=(0, 0), z=Fraction(-1)), 128)

    def test_report_serialization(self, example1):
        rep = measure_bound(example1, 192)
        payload = json.loads(json.dumps(rep.to_dict()))
        assert payload["params"]["p"] == [4, 5, 3]
        assert payload["poly_exponent"].startswith("2.574553902")
        assert payload["flags"]["distinct_char_values"] is True
        assert float(payload["log2_root_radius"]) < -(192 + 20)
        assert any(row["mu"] == 1 for row in payload["mu_profile"])
        table = rep.to_table()
        assert "approx exponent" in table

    def test_outward_rounding_weakens(self, example1):
        rep = measure_bound(example1, 192)
        with mp.workprec(256):
            assert rep.poly_exponent > rep.growth_rate / rep.decay_rate

    def test_precision_monotonicity(self, example1):
        lo = measure_bound(example1, 192)
        hi = measure_bound(example1, 384)
        with mp.workprec(400):
            assert abs(lo.approx_exponent - hi.approx_exponent) < mp.mpf(2) ** -150


class TestMirrorInvariance:
    def test_same_bound_after_swapping_roles(self):
        base = preset_catalog()["log54-m3"]
        rep1 = measure_bound(base, 256)
        mirrored = ParamSet(p=base.q, q=base.p, z=1 - base.z, m=base.m)
        rep2 = measure_bound(mirrored, 256)
        with mp.workprec(300):
            assert abs(rep1.poly_exponent - rep2.poly_exponent) < 1e-40


class TestDenominatorInstance:
    # z = -3/2 targets log(5/3); exercises every log b term with b = 2
    def test_known_value_and_mirror(self):
        base = ParamSet(p=(6, 7), q=(9, 10), z=Fraction(-3, 2), m=1)
        rep = measure_bound(base, 256)
        assert abs(rep.approx_exponent - mp.mpf("9.78705709648756793")) < 1e-14
        mirrored = ParamSet(p=(9, 10), q=(6, 7), z=Fraction(5, 2), m=1)
        rep2 = measure_bound(mirrored, 256)
        with mp.workprec(300):
            assert abs(rep.approx_exponent - rep2.approx_exponent) < 1e-40


class TestPresets:
    def test_catalog_contents(self):
        cat = preset_catalog()
        assert set(cat) == {"log2-m1", "log2-m2", "log54-m3", "log65-m3",
                            "log2019-m4", "hmv-n2"}
        big = cat["log2019-m4"]
        assert big.z == Fraction(-19)
        assert big.m == 4 and big.n == 5
        assert big.p == (14, 15, 16, 17, 18)
        first = cat["log2-m1"]
        assert first.p == (4, 5, 3) and first.q == (1, 2, 0)

    def test_all_presets_validate(self):
        for name, params in preset_catalog().items():
            assert params.n >= 2, name
            assert params.m is not None, name


class TestFrozenReports:
    def test_presets_at_512_bits(self):
        frozen = json.loads(BOUND_512.read_text())
        assert set(frozen) == set(preset_catalog())
        for name, params in preset_catalog().items():
            assert measure_bound(params, 512).to_dict() == frozen[name], name

    def test_bound_path_calls_no_mpmath_log(self, monkeypatch):
        calls = []
        real_log = mp.log
        monkeypatch.setattr(mp, "log", lambda *a, **k: calls.append(a) or real_log(*a, **k))
        for params in preset_catalog().values():
            measure_bound(params, 256)
        assert calls == []


class TestPrecisionFloor:
    def test_zero_bits_is_a_usage_error(self, example1):
        # the distinctness margin 2^-(precision // 4) would be 1: a false
        # hypothesis failure
        with pytest.raises(ParamError):
            measure_bound(example1, 0)

    def test_eight_bits_is_a_usage_error(self, example1):
        # the outward rounding 1 + 2^-(precision - 8) would double the exponent
        with pytest.raises(ParamError):
            measure_bound(example1, 8)

    def test_floor_is_inclusive_for_every_preset(self):
        assert MIN_PRECISION == 64
        for name, params in preset_catalog().items():
            with pytest.raises(ParamError):
                measure_bound(params, MIN_PRECISION - 1)
            low = measure_bound(params, MIN_PRECISION).approx_exponent
            high = measure_bound(params, 512).approx_exponent
            assert abs(low - high) < high * mp.mpf(2) ** -48, name
