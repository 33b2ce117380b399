"""Assembly of the measure bounds from spectral and divisor data.

For valid parameters the pipeline produces two exponents built from the
same core quantity

    core = -q_1 log|z| - p_1 log|1-z| + N_1 + ... + N_m - delta
           + (M - p_1 - q_1) log b,

namely growth = log V + core and decay = -(log W + core).  When both are
positive, every integer polynomial P of degree at most m satisfies
|P(log(z/(z-1)))| >> H(P)^(-growth/decay - eps), and algebraic numbers of
degree at most m approximate log(z/(z-1)) no better than exponent
growth/decay + 1.  Hypotheses are validated and failures reported with a
human-readable cause.

With z = a/b the logs of the core are one exact log,
log(b^M / (|a|^q_1 |b-a|^p_1)), taken by spectral.log_ratio on integers.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
import mpmath as mp

from .divisors import (
    FloorGainProfile,
    divisor_rate,
    exponent_profile,
    floor_gain_profile,
)
from .errors import HypothesisError, ParamError
from .legendre import ParamSet, check_precision
from .spectral import SpectralData, log_ratio, spectral_data

DEFAULT_PRECISION = 512


@dataclass(frozen=True)
class MeasureReport:
    params: ParamSet
    precision: int
    divisor_rate: mp.mpf                  # limit of (1/t) log Delta_t
    log_v_max: mp.mpf                     # log V
    log_v_capped: mp.mpf                  # log W
    log_threshold: mp.mpf
    growth_rate: mp.mpf                   # positive by hypothesis
    decay_rate: mp.mpf                    # positive by hypothesis
    poly_exponent: mp.mpf                 # growth/decay, rounded outward
    approx_exponent: mp.mpf               # growth/decay + 1, rounded outward
    flags: dict
    spectral: SpectralData
    profile: FloorGainProfile

    @property
    def lcm_exponents(self) -> tuple[Fraction, ...]:
        """N_1..N_m, the lcm exponents the core sums."""
        return exponent_profile(self.params).lcm_exponents[: self.params.m]

    def to_dict(self) -> dict:
        dps = max(6, int(self.precision * 0.3010)) + 2
        s = lambda x: mp.nstr(x, dps)
        return {
            "params": self.params.describe(),
            "precision_bits": self.precision,
            "lcm_exponents": [f"{n.numerator}/{n.denominator}" for n in self.lcm_exponents],
            "divisor_rate": s(self.divisor_rate),
            "log_v_max": s(self.log_v_max),
            "log_v_capped": s(self.log_v_capped),
            "log_threshold": s(self.log_threshold),
            "log_abs_values": [s(x) for x in self.spectral.log_abs_values],
            "log2_root_radius": mp.nstr(self.spectral.log2_root_radius, 6),
            "growth_rate": s(self.growth_rate),
            "decay_rate": s(self.decay_rate),
            "poly_exponent": s(self.poly_exponent),
            "approx_exponent": s(self.approx_exponent),
            "flags": self.flags,
            "mu_profile": self.profile.rows(),
        }

    def to_table(self) -> str:
        d = self.to_dict()
        lines = [
            f"instance        n={d['params']['n']} m={d['params']['m']} "
            f"p={d['params']['p']} q={d['params']['q']} z={d['params']['z']}",
            f"lcm exponents   {', '.join(d['lcm_exponents'])}",
            f"divisor rate    {d['divisor_rate']}",
            f"log V           {d['log_v_max']}",
            f"log W           {d['log_v_capped']}",
            f"log threshold   {d['log_threshold']}",
            f"log |v_h|       {', '.join(d['log_abs_values'])}",
            f"growth rate     {d['growth_rate']}",
            f"decay rate      {d['decay_rate']}",
            f"poly exponent   {d['poly_exponent']}",
            f"approx exponent {d['approx_exponent']}",
        ]
        return "\n".join(lines)


def _boundary_denominator(params: ParamSet) -> int:
    """|a|^q_1 |b-a|^p_1 for z = a/b: b^(p_1+q_1) |z|^q_1 |1-z|^p_1."""
    a, b = params.z.numerator, params.z.denominator
    return abs(a) ** params.q[0] * abs(b - a) ** params.p[0]


def boundary_rate(params: ParamSet) -> mp.mpf:
    """-q_1 log|z| - p_1 log|1-z| at the current working precision: the rate
    of the factor z^(-q_1 t) (1-z)^(-p_1 t) that reduces the log forms, as
    the log of b^(p_1+q_1) / (|a|^q_1 |b-a|^p_1) for z = a/b."""
    return log_ratio(params.z.denominator ** (params.p[0] + params.q[0]),
                     _boundary_denominator(params))


def growth_decay_rates(params: ParamSet, delta, log_v_max, log_v_capped,
                       precision: int = DEFAULT_PRECISION):
    """The (growth, decay) exponent pair; raises when either is nonpositive."""
    if params.m is None:
        raise ParamError("measure computation needs the form order m")
    nsum = sum(exponent_profile(params).lcm_exponents[: params.m])
    with mp.workprec(precision + 16):
        # the boundary rate plus (M - p_1 - q_1) log b, as one exact log
        core = (log_ratio(params.z.denominator ** params.total_degree,
                          _boundary_denominator(params))
                + mp.mpf(nsum.numerator) / nsum.denominator - delta)
        growth = +(log_v_max + core)
        decay = +(-(log_v_capped + core))
    if growth <= 0 or decay <= 0:
        raise HypothesisError(
            f"exponent hypothesis fails: growth={mp.nstr(growth, 8)}, "
            f"decay={mp.nstr(decay, 8)} (both must be positive)")
    return growth, decay


def _round_outward(x, precision: int):
    """Nudge a positive exponent up by the relative amount 2^-(precision-8),
    about 256 units in its last carried place (256.5 2^-512 relative for 1/3
    at 512 bits, with the rounding of the product), so the reported bound is
    weaker than (hence implied by) the internal value."""
    with mp.workprec(precision):
        return +(x * (1 + mp.mpf(2) ** (-(precision - 8))))


def measure_bound(params: ParamSet, precision: int = DEFAULT_PRECISION) -> MeasureReport:
    """Full pipeline: exponents, mu profile, divisor rate, roots, values, rates.

    A precision below legendre.MIN_PRECISION raises ParamError.
    """
    check_precision(precision)
    if params.m is None:
        raise ParamError("measure computation needs the form order m")
    if params.n < 2:
        raise ParamError("measure computation needs n >= 2")
    profile = floor_gain_profile(params)
    delta = divisor_rate(params, precision)

    spectral = spectral_data(params, precision)
    values = spectral.values
    with mp.workprec(precision + 16):
        # distinctness is scale-free: tiny conjugate pairs are still distinct
        sep_ok = all(
            abs(values[i] - values[j])
            > mp.mpf(2) ** (-(precision // 4)) * max(abs(values[i]), abs(values[j]))
            for i in range(len(values)) for j in range(i + 1, len(values)))
    if not sep_ok:
        raise HypothesisError(
            "characteristic values are not pairwise distinct; the recurrence "
            "asymptotics underpinning the bound do not apply")

    growth, decay = growth_decay_rates(
        params, delta, spectral.log_v_max, spectral.log_v_capped, precision)

    with mp.workprec(precision + 16):
        ratio = growth / decay
        poly_exp = _round_outward(ratio, precision)
        approx_exp = _round_outward(ratio + 1, precision)

    return MeasureReport(
        params=params,
        precision=precision,
        divisor_rate=delta,
        log_v_max=spectral.log_v_max,
        log_v_capped=spectral.log_v_capped,
        log_threshold=spectral.log_threshold,
        growth_rate=growth,
        decay_rate=decay,
        poly_exponent=poly_exp,
        approx_exponent=approx_exp,
        # a returned report has passed every check, since each failed one
        # raises; monotonicity is enforced by ParamSet construction
        flags={"monotonicity": True, "distinct_char_values": True,
               "capped_value_defined": True, "growth_positive": True,
               "decay_positive": True},
        spectral=spectral,
        profile=profile,
    )


# ---------------------------------------------------------------------------
# shipped instances
# ---------------------------------------------------------------------------

def preset_catalog() -> dict[str, ParamSet]:
    """Named parameter sets reproducing the published bounds.

    log2-m1:    mu(log 2)       via n=3 at z=-1
    log2-m2:    mu_2(log 2)     via n=4 at z=-1
    log54-m3:   mu_3(log(5/4))  via n=4 at z=-4
    log65-m3:   mu_3(log(6/5))  via n=4 at z=-5
    log2019-m4: mu_4(log(20/19)) via n=5 at z=-19
    hmv-n2:     classical n=2 shape with q_1 = 0 (Rukhadze-style mu(log 2))
    """
    return {
        "log2-m1": ParamSet(p=(4, 5, 3), q=(1, 2, 0), z=Fraction(-1), m=1),
        "log2-m2": ParamSet(p=(5, 6, 7, 4), q=(1, 2, 3, 0), z=Fraction(-1), m=2),
        "log54-m3": ParamSet(p=(6, 7, 8, 9), q=(10, 11, 12, 13), z=Fraction(-4), m=3),
        "log65-m3": ParamSet(p=(8, 9, 10, 11), q=(12, 13, 14, 15), z=Fraction(-5), m=3),
        "log2019-m4": ParamSet(
            p=(14, 15, 16, 17, 18), q=(19, 20, 21, 22, 23), z=Fraction(-19), m=4),
        "hmv-n2": ParamSet(p=(6, 7), q=(0, 1), z=Fraction(-1), m=1),
    }
