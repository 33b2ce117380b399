"""Command-line front end.

Subcommands: bound, verify, asymptotics, construct, delta, presets.
Exit codes: 0 success, 1 standard output closed early (a broken pipe),
2 usage error, 3 theorem-hypothesis failure, 4 internal invariant violation.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import datetime
import json
import os
import random
import sys
from fractions import Fraction

import mpmath as mp

from . import corpus
from .divisors import (
    divisor_rate,
    floor_gain_profile,
    guaranteed_divisor,
    log_guaranteed_divisor,
    strong_integrality_check,
)
from .errors import HypothesisError, InternalCheckError, ParamError, PrecisionError
from .exact import DensePoly, decimal_digits
from .legendre import (
    MIN_PRECISION,
    ParamSet,
    eval_at_rational,
    legendre_poly,
    reduced_form_value,
    structural_identity_suite,
    transform_iterates,
)
from .measures import boundary_rate, measure_bound, preset_catalog
from .series import (
    derivative_series_identity,
    hyperharmonic_identity,
    oracle_legendre,
)
from .spectral import spectral_data, windowed_growth_rate, windowed_log_maxima

EXIT_OK, EXIT_BROKEN_PIPE, EXIT_USAGE, EXIT_HYPOTHESIS, EXIT_INTERNAL = 0, 1, 2, 3, 4

INSTANCE_KEYS = ("preset", "z", "p", "q", "m", "n")  # the flags and config keys of an instance


def _parse_int(value: str, key: str) -> int:
    """An integer: an optional sign and ASCII digits, with spaces around them at most."""
    text = value.strip()
    digits = text[1:] if text[:1] in ("+", "-") else text
    if not (digits.isascii() and digits.isdigit()):
        raise ParamError(f"{key} must be an integer (optional sign, ASCII digits), got {value!r}")
    try:
        return int(text)
    except ValueError as exc:  # past the int-str digit limit
        raise ParamError(f"{key} has too many digits") from exc


def _int_flag(text: str) -> int:
    """The argparse type of the integer flags."""
    try:
        return _parse_int(text, "the value")
    except ParamError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _parse_rational(text: str) -> Fraction:
    """z: an integer, or an integer, '/' and an integer, with spaces around it at most."""
    if len(text.split()) != 1:
        raise ParamError(f"z must be an exact rational 'a/b', got {text!r}")
    num, sep, den = text.strip().partition("/")
    b = _parse_int(den, "the denominator of z") if sep else 1
    if b == 0:
        raise ParamError("the denominator of z must not be 0")
    return Fraction(_parse_int(num, "the numerator of z" if sep else "z"), b)


def _parse_int_list(text: str) -> tuple[int, ...]:
    """Comma-separated integers; an entry may have spaces around it, not inside."""
    return tuple(_parse_int(x, f"each entry of the list {text!r}") for x in text.split(","))


def _load_config(path: str) -> dict[str, str]:
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ParamError(f"cannot read config file {path!r}: {exc}") from exc
    out: dict[str, str] = {}
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ParamError(f"bad config line: {raw.rstrip()}")
        key = key.strip()
        if key not in INSTANCE_KEYS:
            raise ParamError(f"unknown config key {key!r}; the keys are {', '.join(INSTANCE_KEYS)}")
        if key in out:
            raise ParamError(f"config key {key!r} is given twice")
        out[key] = value.strip()
    return out


def _resolve_params(args) -> ParamSet:
    cfg = _load_config(args.config) if getattr(args, "config", None) else {}

    def pick(key):
        val = getattr(args, key, None)
        return val if val is not None else cfg.get(key)

    preset = pick("preset")
    if preset:
        extra = [key for key in INSTANCE_KEYS[1:] if pick(key) is not None]
        if extra:
            raise ParamError(f"preset {preset!r} fixes the instance; drop {', '.join(extra)}")
        catalog = preset_catalog()
        if preset not in catalog:
            raise ParamError(f"unknown preset {preset!r}; try 'presets'")
        return catalog[preset]
    z, p, q = pick("z"), pick("p"), pick("q")
    if not (z and p and q):
        raise ParamError("need --preset or all of --z, --p, --q")
    m = pick("m")
    params = ParamSet(p=_parse_int_list(p), q=_parse_int_list(q), z=_parse_rational(z),
                      m=_parse_int(m, "m") if m is not None else None)
    n = pick("n")
    if n is not None and _parse_int(n, "n") != params.n:
        raise ParamError(f"--n {n} contradicts the {params.n} exponent pairs given")
    return params


def _emit(text: str, out_path):
    if out_path:
        try:
            with open(out_path, "w", encoding="utf-8") as fh:
                fh.write(text if text.endswith("\n") else text + "\n")
        except OSError as exc:
            raise ParamError(f"cannot write --out file {out_path!r}: {exc}") from exc
    else:
        print(text)


def _timestamp() -> str:
    return datetime.datetime.now(datetime.timezone.utc).isoformat()


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_bound(args) -> int:
    params = _resolve_params(args)
    report = measure_bound(params, precision=args.precision)
    if args.format == "table":
        _emit(report.to_table(), args.out)
    elif args.format == "csv":
        d = report.to_dict()
        rows = ["key,value"] + [
            f"{k},{d[k]}" for k in
            ("divisor_rate", "log_v_max", "log_v_capped", "log_threshold",
             "growth_rate", "decay_rate", "poly_exponent", "approx_exponent")]
        _emit("\n".join(rows), args.out)
    else:
        payload = report.to_dict()
        payload["timestamp"] = _timestamp()
        _emit(json.dumps(payload, indent=2, sort_keys=True), args.out)
    return EXIT_OK


# each _verify_* suite yields one line per failure


def _verify_structural(count, seed):
    # the corpus with m adds the orthogonality and trivial-integrality checks
    for params, t in (corpus.oracle_corpus(seed, count, max_weight=40)
                      + corpus.oracle_corpus(seed, count, max_weight=40, with_m=True)):
        for rep in structural_identity_suite(params, t, grid_step=Fraction(1, 50)):
            if not rep.passed:
                yield f"  FAIL {rep.name} at p={params.p} q={params.q} t={t}: {rep.witness}"


def _verify_oracle(count, seed):
    for params, t in corpus.oracle_corpus(seed, count, max_weight=50):
        if oracle_legendre(params, t) != legendre_poly(params, t):
            yield f"  FAIL oracle mismatch at p={params.p} q={params.q} t={t}"


def _verify_hyperharmonic(maximum):
    for j in range(maximum + 1):
        for k in range(maximum + 1):
            ok, lhs, rhs = hyperharmonic_identity(j, k)
            if not ok:
                yield f"  FAIL hyperharmonic j={j} k={k}: {lhs} != {rhs}"


def _verify_derivative(count, seed):
    rng = random.Random(seed)
    for _ in range(count):
        poly = DensePoly([rng.randint(-9, 9) for _ in range(rng.randint(1, 16))])
        if not derivative_series_identity(poly):
            yield f"  FAIL derivative-series on {list(poly.coeffs)}"


def _verify_integrality(count, seed):
    for params, t in corpus.oracle_corpus(seed, count, max_weight=30, with_m=True):
        transforms = transform_iterates(params, t, legendre_poly(params, t), params.m)
        if not strong_integrality_check(params, t, transforms):
            yield f"  FAIL integrality at p={params.p} q={params.q} m={params.m} t={t}"


def cmd_verify(args) -> int:
    if args.count < 1:
        raise ParamError(f"--count must be at least 1, got {args.count}")
    if args.max < 0:
        raise ParamError(f"--max must be at least 0, got {args.max}")
    suites = {
        "structural": lambda: _verify_structural(args.count, args.seed),
        "oracle": lambda: _verify_oracle(args.count, args.seed),
        "hyperharmonic": lambda: _verify_hyperharmonic(args.max),
        "derivative": lambda: _verify_derivative(args.count, args.seed),
        "integrality": lambda: _verify_integrality(max(4, args.count // 5), args.seed),
    }
    chosen = suites if args.suite == "all" else {args.suite: suites[args.suite]}
    total = 0
    for name, run in chosen.items():
        lines = list(run())
        total += len(lines)
        print(f"{name}: {'PASS' if not lines else f'FAIL ({len(lines)})'}")
        for line in lines:
            print(line)
    return EXIT_OK if total == 0 else EXIT_INTERNAL


def _asym_point(job):
    """|value| at one t: the exact |L(z)| for the L sequence, the reduced
    form as an mpf for the I sequence."""
    kind, params, t, precision = job
    L = legendre_poly(params, t)
    if kind == "L":
        return abs(eval_at_rational(L, params.z))
    return abs(reduced_form_value(params, t, 1, precision, L=L))


def cmd_asymptotics(args) -> int:
    params = _resolve_params(args)
    if args.t_max is None:
        raise ParamError("--t-max is required")
    if args.threads < 1:
        raise ParamError(f"--threads must be at least 1, got {args.threads}")
    seq = args.sequence
    if seq == "I" and params.m is None:
        raise ParamError("the I sequence needs the form order m")
    jobs = [(seq, params, t, args.precision) for t in range(1, args.t_max + 1)]
    workers = _worker_count(args.threads)
    if workers > 1:  # map keeps the jobs in order, like the serial loop
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            values = list(pool.map(_asym_point, jobs))
    else:
        values = [_asym_point(j) for j in jobs]
    wmax = windowed_log_maxima(values, params.n)
    slope = windowed_growth_rate(values, params.n)
    sd = spectral_data(params, max(args.precision, 128))
    if seq == "L":
        target = float(sd.log_v_max)
    else:
        with mp.workprec(128):
            target = float(sd.log_v_capped + boundary_rate(params))
    rel = abs(slope - target) / abs(target) if target else float("inf")
    rows = ["t,log_windowed_max", *(f"{i},{v!r}" for i, v in enumerate(wmax, start=1)),
            f"slope,{slope!r}", f"target,{target!r}", f"relative_error,{rel!r}"]
    _emit("\n".join(rows), args.out)
    return EXIT_OK


def _worker_count(requested: int) -> int:
    """Processes for `asymptotics --threads` (at least 1): at most one per CPU."""
    return min(requested, os.cpu_count() or 1)


def cmd_construct(args) -> int:
    params = _resolve_params(args)
    L = legendre_poly(params, args.t)
    transforms = transform_iterates(params, args.t, L, params.m) if params.m else []
    parts = [L.render()]
    for i, tr in enumerate(transforms, start=1):
        parts += [f"# transform {i}", tr.render()]
    _emit("\n".join(parts), args.out)
    return EXIT_OK


def cmd_delta(args) -> int:
    params = _resolve_params(args)
    t = args.t
    delta_t = guaranteed_divisor(params, t)
    log_dt = log_guaranteed_divisor(params, t)
    limit = divisor_rate(params, args.precision)
    payload = {
        "t": t,
        "divisor": decimal_digits(delta_t),
        "log_divisor_over_t": log_dt / t,
        "rate_limit": mp.nstr(limit, max(6, int(args.precision * 0.3010))),
        "mu_profile": floor_gain_profile(params).rows(),
    }
    _emit(json.dumps(payload, indent=2, sort_keys=True), args.out)
    return EXIT_OK


def cmd_presets(args) -> int:
    for name, params in preset_catalog().items():
        d = params.describe()
        print(f"{name:12s} n={d['n']} m={d['m']} z={d['z']} p={d['p']} q={d['q']}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _add_instance_flags(sp):
    sp.add_argument("--preset")
    sp.add_argument("--config", help="flat key=value file; flags override")
    sp.add_argument("--z", help="exact rational a/b (no decimals)")
    sp.add_argument("--n")
    sp.add_argument("--m")
    sp.add_argument("--p", help="comma-separated positive integers")
    sp.add_argument("--q", help="comma-separated nonnegative integers")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="loglegendre",
        description="Measure bounds for logarithms of rationals via exact "
                    "multiple Legendre polynomials")
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("bound", help="compute a measure report")
    _add_instance_flags(sp)
    sp.add_argument("--precision", type=_int_flag, default=512)
    sp.add_argument("--format", choices=("json", "csv", "table"), default="json")
    sp.add_argument("--out")
    sp.set_defaults(func=cmd_bound)

    sp = sub.add_parser("verify", help="run the exact identity suites")
    sp.add_argument("--suite", default="all",
                    choices=("all", "structural", "oracle", "hyperharmonic",
                             "derivative", "integrality"))
    sp.add_argument("--count", type=_int_flag, default=25)
    sp.add_argument("--max", type=_int_flag, default=25, help="hyperharmonic j,k range")
    sp.add_argument("--seed", type=_int_flag, default=20240901)
    sp.set_defaults(func=cmd_verify)

    sp = sub.add_parser("asymptotics", help="growth-rate experiment over t")
    _add_instance_flags(sp)
    sp.add_argument("--sequence", choices=("L", "I"), default="L")
    sp.add_argument("--t-max", dest="t_max", type=_int_flag)
    sp.add_argument("--precision", type=_int_flag, default=64)
    sp.add_argument("--threads", type=_int_flag, default=1)
    sp.add_argument("--out")
    sp.set_defaults(func=cmd_asymptotics)

    sp = sub.add_parser("construct", help="dump a polynomial in canonical text form")
    _add_instance_flags(sp)
    sp.add_argument("--t", type=_int_flag, default=1)
    sp.add_argument("--out")
    sp.set_defaults(func=cmd_construct)

    sp = sub.add_parser("delta", help="guaranteed divisor and its growth rate")
    _add_instance_flags(sp)
    sp.add_argument("--t", type=_int_flag, default=1)
    sp.add_argument("--precision", type=_int_flag, default=128)
    sp.add_argument("--out")
    sp.set_defaults(func=cmd_delta)

    sp = sub.add_parser("presets", help="list shipped parameter sets")
    sp.set_defaults(func=cmd_presets)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    precision = getattr(args, "precision", None)
    if precision is not None and precision < MIN_PRECISION:
        ap.exit(EXIT_USAGE, f"precision must be at least {MIN_PRECISION} bits\n")
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader went away (e.g. `| head`): send the rest of the output,
        # and the flush at interpreter exit, to devnull instead of a traceback
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    except ParamError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except HypothesisError as exc:
        print(f"hypothesis failure: {exc}", file=sys.stderr)
        return EXIT_HYPOTHESIS
    except (InternalCheckError, PrecisionError) as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
