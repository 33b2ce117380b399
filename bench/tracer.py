"""Span tracing around the public functions of each loglegendre layer.

The tracer lives entirely in the benchmark: it wraps functions from the
outside and changes no file of the library.  A function is replaced at every
module attribute that refers to it, because callers resolve names in their
own module (``measures`` imports ``divisor_rate`` by name, while
``divisor_rate`` calls ``digamma`` through the ``divisors`` globals).

Spans (stage, start, end, parent, size) are kept in memory and written to a
JSON file once the run ends.  A stage's self time is its span time minus the
time of its direct child spans.
"""

from __future__ import annotations

import functools
import json
import math
import sys
import time
from dataclasses import dataclass, field

# stage -> (module, public functions).  cli and corpus are front ends and are
# not layers.
SPAN_STAGES = {
    "legendre.construct": ("legendre", ("legendre_poly", "legendre_reduced")),
    "legendre.transform": ("legendre", ("christoffel_transform",)),
    "legendre.eval": ("legendre", ("eval_at_rational", "christoffel_value")),
    "legendre.form": ("legendre", ("legendre_function_value", "reduced_form_value")),
    "divisors.digamma": ("divisors", ("digamma",)),
    "divisors.rate": ("divisors", ("divisor_rate",)),
    "divisors.profile": ("divisors", ("floor_gain_profile",)),
    "divisors.divisor": ("divisors", ("guaranteed_divisor", "log_guaranteed_divisor")),
    "divisors.integrality": ("divisors", ("strong_integrality_check",)),
    "spectral.roots": ("spectral", ("characteristic_roots",)),
    "spectral.values": ("spectral", ("char_values",)),
    "spectral.witness": ("spectral", ("recurrence_witness",)),
    "spectral.fit": ("spectral", ("windowed_growth_rate",)),
    "series.oracle": ("series", ("oracle_legendre",)),
    "measures.bound": ("measures", ("measure_bound",)),
}

# Called thousands of times per run with microsecond bodies: counted, not
# spanned, so the trace does not distort the layers that call them.
COUNT_STAGES = {
    "divisors.floor_gain": ("divisors", "floor_gain"),
    "exact.lcm": ("exact", "lcm_upto"),
}


def _size_of(stage: str, args: tuple) -> int:
    """The scale a span ran at: the degree M*t for construction, the input
    degree for the transform, the working precision for digamma; 0 where
    none applies."""
    if stage == "legendre.construct" and len(args) >= 2:
        return args[0].total_degree * int(args[1])
    if stage == "legendre.transform" and args:
        return len(args[0].coeffs) - 1
    if stage == "divisors.digamma" and len(args) >= 2:
        return int(args[1])
    return 0


@dataclass
class Tracer:
    """In-memory span recorder; install() wraps, uninstall() restores."""

    spans: list = field(default_factory=list)      # [stage, start, end, parent, size]
    counts: dict = field(default_factory=dict)     # stage -> calls
    lcm_args: set = field(default_factory=set)
    coeff_bits: int = 0
    _stack: list = field(default_factory=list)
    _patched: list = field(default_factory=list)   # (module, attr, original)

    def _span_wrapper(self, stage: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        construct = stage == "legendre.construct"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            rec = [stage, 0.0, 0.0, stack[-1] if stack else -1, _size_of(stage, args)]
            spans.append(rec)
            stack.append(idx)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if construct:  # outside the span, so it does not count as construction
                bits = max((abs(c).bit_length() for c in result.coeffs), default=0)
                self.coeff_bits = max(self.coeff_bits, bits)
            return result

        return wrapper

    def _count_wrapper(self, stage: str, fn):
        counts = self.counts
        counts.setdefault(stage, 0)
        if stage == "exact.lcm":
            seen = self.lcm_args

            def wrapper(*args):
                counts[stage] += 1
                seen.add(args)
                return fn(*args)
        else:
            def wrapper(*args, **kwargs):
                counts[stage] += 1
                return fn(*args, **kwargs)
        return functools.wraps(fn)(wrapper)

    def install(self) -> None:
        """Wrap every stage's functions wherever a loglegendre module holds them."""
        mods = {name: mod for name, mod in sys.modules.items()
                if mod is not None and (name == "loglegendre" or name.startswith("loglegendre."))}
        targets = {}
        for stage, (modname, fnames) in SPAN_STAGES.items():
            for fname in fnames:
                fn = getattr(mods["loglegendre." + modname], fname)
                targets[id(fn)] = (fn, self._span_wrapper(stage, fn))
        for stage, (modname, fname) in COUNT_STAGES.items():
            fn = getattr(mods["loglegendre." + modname], fname)
            targets[id(fn)] = (fn, self._count_wrapper(stage, fn))
        for mod in mods.values():
            for attr, value in list(vars(mod).items()):
                hit = targets.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patched.append((mod, attr, value))
                    setattr(mod, attr, hit[1])

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "counts": self.counts,
                       "lcm_distinct": len(self.lcm_args),
                       "coeff_bits": self.coeff_bits}, fh)


def _fit_exponent(points: list[tuple[float, float]]) -> float:
    """Least-squares slope of log(time) against log(size) over the upper half
    of the size range; 0.0 when fewer than two distinct sizes qualify."""
    sizes = [s for s, _ in points if s > 0]
    if not sizes:
        return 0.0
    top = max(sizes)
    pts = [(math.log(s), math.log(d)) for s, d in points if s >= top / 2 and d > 0]
    if len({x for x, _ in pts}) < 2:
        return 0.0
    k = len(pts)
    sx = sum(x for x, _ in pts)
    sy = sum(y for _, y in pts)
    sxx = sum(x * x for x, _ in pts)
    sxy = sum(x * y for x, y in pts)
    return (k * sxy - sx * sy) / (k * sxx - sx * sx)


def layer_metrics(trace: dict, wall_s: float) -> dict[str, float]:
    """Per-layer numbers from one written trace: self time and calls per span
    stage, call counts, scaling exponents, coefficient size and coverage."""
    spans = trace["spans"]
    child = [0.0] * len(spans)
    for stage, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    out: dict[str, float] = {}
    for stage in SPAN_STAGES:
        out[f"{stage}.self_s"] = 0.0
        out[f"{stage}.calls"] = 0
    covered = 0.0
    by_size: dict[str, dict[int, list[float]]] = {}
    for i, (stage, start, end, parent, size) in enumerate(spans):
        dur = end - start
        self_s = dur - child[i]
        out[f"{stage}.self_s"] += self_s
        out[f"{stage}.calls"] += 1
        if parent < 0:
            covered += dur
        if size:
            by_size.setdefault(stage, {}).setdefault(size, []).append(dur)

    def per_call(stage: str) -> list[tuple[float, float]]:
        return [(s, sum(ds) / len(ds)) for s, ds in by_size.get(stage, {}).items()]

    out["legendre.construct.t_exp"] = _fit_exponent(per_call("legendre.construct"))
    out["legendre.transform.t_exp"] = _fit_exponent(per_call("legendre.transform"))
    out["divisors.digamma.prec_exp"] = _fit_exponent(per_call("divisors.digamma"))
    out["legendre.coeff_bits"] = trace["coeff_bits"]
    out["divisors.floor_gain.calls"] = trace["counts"].get("divisors.floor_gain", 0)
    lcm_calls = trace["counts"].get("exact.lcm", 0)
    out["exact.lcm.calls"] = lcm_calls
    out["exact.lcm.distinct_frac"] = trace["lcm_distinct"] / lcm_calls if lcm_calls else 0.0
    out["trace.coverage"] = covered / wall_s if wall_s > 0 else 0.0
    return out
