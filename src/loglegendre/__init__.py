"""Exact multiple Legendre polynomials and measure bounds for rational logs."""

from .errors import HypothesisError, InternalCheckError, ParamError, PrecisionError
from .exact import (
    DensePoly,
    lcm_upto,
    primes_in_range,
)
from .legendre import (
    ParamSet,
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
from .series import (
    derivative_series_identity,
    hyperharmonic_identity,
    oracle_legendre,
    p_to_q,
)
from .divisors import (
    ExponentProfile,
    FloorGainProfile,
    digamma,
    divisor_rate,
    exponent_profile,
    floor_gain,
    floor_gain_profile,
    guaranteed_divisor,
    log_guaranteed_divisor,
    strong_integrality_check,
)
from .spectral import (
    RecurrenceWitness,
    SpectralData,
    char_values,
    characteristic_polynomial,
    characteristic_roots,
    recurrence_witness,
    spectral_data,
    windowed_growth_rate,
    windowed_log_maxima,
)
from .measures import MeasureReport, growth_decay_rates, measure_bound, preset_catalog

__version__ = "0.1.0"
