"""The benchmark workloads as fixed task lists with output checks.

The two benchmark workloads are the two costly halves of the pipeline:

- ``bound``   measure_bound on every preset at two precisions: digamma sums
              and characteristic roots, no polynomial is built.
- ``exact``   the exact-arithmetic half, run as three parts in turn:
  - ``slope``   the growth-slope experiment on log2-m1: many large
                constructions, exact evaluation and low-precision forms;
  - ``certify`` log2-m2 on a ladder of t: transforms, strong integrality
                and high-precision forms of order 1 and 2;
  - ``oracle``  a seeded corpus checked against the series oracle, then
                recurrence witnesses by exact elimination.

The parts are workloads of their own too, for looking at one of them; the
benchmark runs them together so that each of its runs can be long enough
to average out the drift of a shared machine.

A task returns its output; its check returns None when the output is right
and a message otherwise.  Library functions are always looked up on their
module at call time, so a tracer that replaces module attributes sees them.
Import this module once loglegendre is importable (see child.import_library).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable, Optional

import mpmath as mp

from loglegendre import divisors, legendre, measures, series, spectral

# Published exponents of the presets: (report field, value, absolute tolerance).
REFERENCE = {
    "log2-m1": ("approx_exponent", "3.574553902525", 1e-8),
    "log2-m2": ("approx_exponent", "12.841618132152", 1e-8),
    "log54-m3": ("poly_exponent", "66.9403256794", 1e-6),
    "log65-m3": ("poly_exponent", "36.9634662932", 1e-6),
    "log2019-m4": ("approx_exponent", "565.5663269277", 1e-6),
    "hmv-n2": ("approx_exponent", "3.891399770739906", 1e-12),
}
# Growth slopes of |L_t(-1)| and of the reduced order-1 form for log2-m1,
# with their relative tolerances.
SLOPE_REFERENCE = {"poly": (22.149699, 0.01), "form": (-10.310029, 0.02)}

# Full and toy sizes.  Toy sizes keep every code path but run in seconds.
SIZES = {
    "bound": {"full": {"precisions": (512, 1024), "high_presets": ("log2-m1", "log2-m2", "hmv-n2")},
              "toy": {"precisions": (256, 384), "high_presets": ("log2-m1", "hmv-n2")}},
    "slope": {"full": {"t_max": 70}, "toy": {"t_max": 30}},
    "certify": {"full": {"ladder": (6, 12, 18, 24)}, "toy": {"ladder": (2, 4, 6)}},
    "oracle": {"full": {"degrees": (12, 24, 36, 48, 60), "per_cell": 3, "witness_t": 2},
               "toy": {"degrees": (6, 12, 18), "per_cell": 1, "witness_t": 1}},
}


@dataclass
class Task:
    name: str
    run: Callable[[], Any]
    check: Callable[[Any], Optional[str]]


@dataclass
class Workload:
    tasks: list
    largest: str  # name of the task whose time is reported as task_max_s


# ---------------------------------------------------------------------------
# bound
# ---------------------------------------------------------------------------

def _bound(seed: int, size: dict, reference: dict) -> Workload:
    catalog = measures.preset_catalog()
    lo, hi = size["precisions"]
    plan = [(name, lo) for name in catalog] + [(name, hi) for name in size["high_presets"]]

    def task(name: str, prec: int) -> Task:
        field, value, tol = reference[name]

        def check(rep) -> Optional[str]:
            err = abs(getattr(rep, field) - mp.mpf(value))
            return None if err < tol else f"{field} off by {mp.nstr(err, 3)} from {value}"

        return Task(f"{name}@{prec}", lambda: measures.measure_bound(catalog[name], prec), check)

    return Workload([task(name, prec) for name, prec in plan], f"log2019-m4@{lo}")


# ---------------------------------------------------------------------------
# slope
# ---------------------------------------------------------------------------

def _slope(seed: int, size: dict, reference: dict) -> Workload:
    params = measures.preset_catalog()["log2-m1"]
    t_max = size["t_max"]
    big: dict[int, Fraction] = {}
    form: dict[int, Any] = {}

    def step(t: int) -> Task:
        def run():
            L = legendre.legendre_poly(params, t)
            big[t] = abs(legendre.eval_at_rational(L, params.z))
            form[t] = legendre.reduced_form_value(params, t, 1, 64, L=L)
            return L

        def check(L) -> Optional[str]:
            if L.degree != params.total_degree * t:
                return f"degree {L.degree} at t={t}"
            if big[t] == 0 or form[t] == 0:
                return f"vanishing value at t={t}"
            return None

        return Task(f"t={t}", run, check)

    def fit():
        scales = range(1, t_max + 1)
        return (spectral.windowed_growth_rate([big[t] for t in scales], window=3),
                spectral.windowed_growth_rate([form[t] for t in scales], window=3))

    def check_fit(slopes) -> Optional[str]:
        for what, got in zip(("poly", "form"), slopes):
            ref, tol = reference[what]
            if not abs(got - ref) / abs(ref) < tol:
                return f"{what} slope {got:.6f} vs {ref} (tolerance {tol:.0%})"
        return None

    # the seed fixes the order in which the scales are built
    order = list(range(1, t_max + 1))
    random.Random(seed).shuffle(order)
    return Workload([step(t) for t in order] + [Task("fit", fit, check_fit)], f"t={t_max}")


# ---------------------------------------------------------------------------
# certify
# ---------------------------------------------------------------------------

def _certify(seed: int, size: dict, reference: dict) -> Workload:
    params = measures.preset_catalog()["log2-m2"]
    last_mag: dict[int, Any] = {}

    def step(t: int) -> Task:
        def run():
            L = legendre.legendre_poly(params, t)
            iterates = legendre.transform_iterates(params, t, L, 2)
            ok = divisors.strong_integrality_check(params, t, iterates)
            forms = [legendre.legendre_function_value(params, t, j, 512, L=L) for j in (1, 2)]
            return ok, forms

        def check(out) -> Optional[str]:
            ok, forms = out
            if ok is not True:
                return f"strong integrality fails at t={t}"
            for j, v in enumerate(forms, start=1):
                if v == 0 or not abs(v) < 1:
                    return f"form j={j} at t={t} is {mp.nstr(v, 5)}, not a small nonzero value"
                # the forms decay geometrically, so they shrink up the ladder
                mag = mp.log(abs(v))
                if j in last_mag and not mag < last_mag[j]:
                    return f"form j={j} does not decay at t={t}"
                last_mag[j] = mag
            return None

        return Task(f"t={t}", run, check)

    ladder = size["ladder"]
    return Workload([step(t) for t in ladder], f"t={ladder[-1]}")


# ---------------------------------------------------------------------------
# oracle
# ---------------------------------------------------------------------------

def random_instance(rng: random.Random, degree: int, n: int):
    """A parameter set with n pairs and a scale t with M*t equal to `degree`,
    so the cost of a seeded corpus depends on its degrees, not on the seed."""
    t = rng.choice([s for s in (1, 2, 3) if degree % s == 0 and degree // s >= n])
    total = degree // t
    cuts = sorted(rng.sample(range(1, total), n - 1))
    sums = [b - a for a, b in zip([0] + cuts, cuts + [total])]
    p = [rng.randint(1, s) for s in sums]
    q = [s - pj for s, pj in zip(sums, p)]
    z = Fraction(-rng.randint(1, 9), rng.randint(1, 9))
    return legendre.ParamSet(p=tuple(p), q=tuple(q), z=z), t


def _oracle(seed: int, size: dict, reference: dict) -> Workload:
    rng = random.Random(seed)
    corpus = [random_instance(rng, d, n) for d in size["degrees"] for n in (1, 2, 3, 4)
              for _ in range(size["per_cell"])]
    rng.shuffle(corpus)

    def equal(params, t) -> Task:
        def check(pair) -> Optional[str]:
            return None if pair[0] == pair[1] else f"routes differ at p={params.p} q={params.q} t={t}"
        return Task(f"oracle p={params.p} q={params.q} t={t}",
                    lambda: (series.oracle_legendre(params, t), legendre.legendre_poly(params, t)),
                    check)

    def witness(label: str, params, t: int) -> Task:
        def check(w) -> Optional[str]:
            return None if w is not None and not w.is_trivial() else f"no witness for {label} at t={t}"
        return Task(f"witness {label} t={t}", lambda: spectral.recurrence_witness(params, t), check)

    small = legendre.ParamSet(p=(1, 1), q=(0, 0), z=Fraction(-1), m=1)
    ex1 = measures.preset_catalog()["log2-m1"]
    top = size["witness_t"]
    tasks = ([equal(params, t) for params, t in corpus]
             + [witness("p=(1,1) q=(0,0)", small, t) for t in range(0, 11)]
             + [witness("log2-m1", ex1, t) for t in range(1, top + 1)])
    return Workload(tasks, f"witness log2-m1 t={top}")


BUILDERS = {"bound": _bound, "slope": _slope, "certify": _certify, "oracle": _oracle}
REFERENCES = {"bound": REFERENCE, "slope": SLOPE_REFERENCE, "certify": {}, "oracle": {}}
PARTS = {"exact": ("slope", "certify", "oracle")}


def build(workload: str, seed: int, size: str = "full",
          references: Optional[dict] = None) -> Workload:
    """The task list of `workload` for `seed`; `references` maps a workload
    to values replacing the published ones its checks compare against."""
    if workload in PARTS:
        parts = [build(part, seed, size, references) for part in PARTS[workload]]
        # the largest instance of the whole is the top of the certify ladder
        return Workload([task for part in parts for task in part.tasks], parts[1].largest)
    ref = {**REFERENCES, **(references or {})}[workload]
    return BUILDERS[workload](seed, SIZES[workload][size], ref)
