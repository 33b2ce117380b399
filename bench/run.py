"""Benchmark of loglegendre: one workload, several fresh-process repetitions.

    python3 bench/run.py --workload bound --seed 1 --seconds 60 --trace 0

The benchmark's workloads are bound and exact (see workloads.py); run each
in turn to get every metric.  The three parts of exact, slope, certify and
oracle, can be run alone the same way.

Each repetition runs the workload's fixed task list in a fresh interpreter
(bench/child.py), one at a time, because every CLI run of the library pays
its lazy caches again.  Each is preceded by PROBES_PER_REP set-up-only
children, so that the set-up samples are spread over the whole run like the
repetitions are.  Repetitions, with their probes, start while they are
expected to finish within --seconds (at least MIN_REPS).  With --trace 0 the
end-to-end metrics are the medians over the repetitions (setup_s over the
probes and the repetitions); with --trace 1 untraced and traced repetitions
alternate, and the per-layer metrics are medians over the traced ones.

Every line but the last is for people: the environment fingerprint, each
metric with its unit, and any failed task.  The last line is one JSON object
with the keys correct, attempted, failed and metrics.  The exit code is 0
when every task passed its check, 1 when one failed (a workload that fails
to set up counts as one failed task, and then no metric is printed), 2 when
the benchmark could not run (then no result line is printed).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import SPAN_STAGES, layer_metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"

WORKLOADS = ("bound", "exact", "slope", "certify", "oracle")
MIN_REPS = 2
PROBES_PER_REP = 3
DEADLINE_S = 170  # the whole run, set-up probes included

END_TO_END_UNITS = {"wall_s": "s", "task_max_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER_UNITS = {
    **{f"{s}.{k}": u for s in SPAN_STAGES for k, u in (("self_s", "s"), ("calls", "count"))},
    "legendre.construct.t_exp": "exponent",
    "legendre.transform.t_exp": "exponent",
    "legendre.coeff_bits": "bits",
    "divisors.digamma.prec_exp": "exponent",
    "divisors.floor_gain.calls": "count",
    "exact.lcm.calls": "count",
    "exact.lcm.distinct_frac": "ratio",
    "trace.coverage": "ratio",
    "trace.overhead": "ratio",
}
MODULES = sorted({stage.split(".")[0] for stage in SPAN_STAGES})


class BenchError(Exception):
    """The benchmark itself could not run; no result is printed."""


class SetUpFailed(Exception):
    """The library raised while a child set the workload up."""


def spawn(args, traced: bool, rep: int, setup_only: bool, deadline: float) -> dict:
    """Run one child to completion and return its measurements."""
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--size", args.size]
    if traced:
        OUT.mkdir(exist_ok=True)
        spans = OUT / f"spans-{args.workload}-seed{args.seed}-rep{rep}.json"
        cmd += ["--spans", str(spans)]
    if setup_only:
        cmd.append("--setup-only")
    cmd += ["--spawned", repr(time.monotonic())]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"repetition {rep} exceeded the {DEADLINE_S} s deadline") from exc
    if proc.returncode != 0:
        raise BenchError(f"repetition {rep} exited {proc.returncode}: {proc.stderr.strip()}")
    rec = json.loads(proc.stdout.strip().splitlines()[-1])
    if "setup_s" not in rec:
        raise SetUpFailed(rec)
    if traced:
        rec["trace"] = json.loads(spans.read_text())
        spans.unlink()
    return rec


def collect(args) -> tuple[list[dict], list[dict], list[dict]]:
    """Set-up probes, untraced repetitions and traced repetitions."""
    deadline = time.monotonic() + DEADLINE_S
    probes: list[dict] = []
    plain: list[dict] = []
    traced: list[dict] = []
    rep_start = time.monotonic()
    longest = 0.0
    while True:
        enough = (len(plain) >= MIN_REPS if args.trace == 0
                  else len(plain) >= 1 and len(traced) >= 1)
        if enough and time.monotonic() - rep_start + longest > args.seconds:
            break
        if time.monotonic() + longest > deadline:
            if enough:
                break
            raise BenchError(f"too few repetitions fit in the {DEADLINE_S} s deadline")
        want_traced = args.trace == 1 and len(traced) < len(plain)
        t0 = time.monotonic()
        probes += [spawn(args, False, len(probes), True, deadline) for _ in range(PROBES_PER_REP)]
        rec = spawn(args, want_traced, len(plain) + len(traced), False, deadline)
        longest = max(longest, time.monotonic() - t0)
        (traced if want_traced else plain).append(rec)
    return probes, plain, traced


def end_to_end(probes: list[dict], reps: list[dict]) -> dict[str, float]:
    med = lambda key: statistics.median(r[key] for r in reps)
    return {
        "wall_s": med("wall_s"),
        "task_max_s": med("task_max_s"),
        "setup_s": statistics.median(r["setup_s"] for r in probes + reps),
        "peak_rss_mb": med("peak_rss_mb"),
    }


def per_layer(plain: list[dict], traced: list[dict]) -> dict[str, float]:
    rows = [layer_metrics(r["trace"], r["wall_s"]) for r in traced]
    out = {name: statistics.median(row[name] for row in rows)
           for name in PER_LAYER_UNITS if name != "trace.overhead"}
    out["trace.overhead"] = (statistics.median(r["wall_s"] for r in traced)
                             / statistics.median(r["wall_s"] for r in plain) - 1)
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "toy"), default="full",
                    help="toy runs every workload in seconds, for the smoke test")
    args = ap.parse_args()

    if not (ROOT / "src" / "loglegendre" / "__init__.py").is_file():
        print(f"no loglegendre sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        probes, plain, traced = collect(args)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 2
    except SetUpFailed as exc:
        rec = exc.args[0]
        for name, msg in rec["failures"]:
            print(f"FAILED {name}: {msg}")
        print(json.dumps({"correct": False, "attempted": rec["attempted"],
                          "failed": rec["failed"], "metrics": {}}))
        return 1

    reps = plain + traced
    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    env = reps[0]["env"]
    print(f"env python={env['python']} mpmath={env['mpmath']} "
          f"backend={env['mpmath_backend']} nproc={env['nproc']}")
    print(f"workload {args.workload} seed {args.seed} size {args.size}: "
          f"{len(plain)} untraced + {len(traced)} traced repetitions, "
          f"{len(probes)} set-up probes; largest instance {reps[0]['largest']}")
    for r in reps:
        for name, msg in r["failures"]:
            print(f"FAILED {name}: {msg}")

    e2e = end_to_end(probes, plain)
    print(f"  {'fail_frac':32s} {failed / attempted:.6g} ratio ({failed}/{attempted})")
    for name, value in e2e.items():
        print(f"  {name:32s} {value:.6g} {END_TO_END_UNITS[name]}")
    if args.trace:
        metrics = per_layer(plain, traced)
        units = PER_LAYER_UNITS
        for name, value in metrics.items():
            print(f"  {name:32s} {value:.6g} {units[name]}")
        wall = statistics.median(r["wall_s"] for r in traced)
        for mod in MODULES:
            share = sum(v for k, v in metrics.items()
                        if k.startswith(mod + ".") and k.endswith(".self_s")) / wall
            print(f"  share of traced wall_s in {mod:9s} {share:.1%}")
    else:
        metrics, units = e2e, END_TO_END_UNITS

    record = {"workload": args.workload, "seed": args.seed, "size": args.size,
              "trace": args.trace, "env": env, "attempted": attempted, "failed": failed,
              "metrics": metrics, "repetitions": [{k: v for k, v in r.items() if k != "trace"}
                                                  for r in reps],
              "setup_probes": [p["setup_s"] for p in probes]}
    OUT.mkdir(exist_ok=True)
    (OUT / f"run-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
