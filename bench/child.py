"""One repetition of a workload in a fresh interpreter.

Started by run.py with the monotonic time at which it was spawned, so the
reported set-up time covers interpreter start, ``import loglegendre`` and
input generation.  Prints one JSON object on its last stdout line.  Given
``--spans``, it traces the tasks and writes the spans there once they are done.
Task failures are data, not errors: the process exits 0 unless the library
cannot be imported.  An exception raised while the workload is set up (a
defect of the library under test) is reported as one failed task, with no
set-up time.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def fingerprint() -> dict:
    import mpmath
    import mpmath.libmp
    return {"python": sys.version.split()[0], "mpmath": mpmath.__version__,
            "mpmath_backend": mpmath.libmp.BACKEND, "nproc": len(os.sched_getaffinity(0))}


def import_library():
    """Import loglegendre from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    import loglegendre
    if Path(loglegendre.__file__).resolve().parent.parent != src.resolve():
        raise ImportError(f"loglegendre resolved to {loglegendre.__file__}, not {src}")
    return loglegendre


def run_rep(workload: str, seed: int, size: str, spawned: float,
            spans_path: str | None = None, setup_only: bool = False,
            references: dict | None = None) -> dict:
    """Set up and run one repetition; returns its measurements.  Tracing is
    on when `spans_path` is given."""
    import_library()
    import workloads
    wl = workloads.build(workload, seed, size, references)
    out = {"setup_s": time.monotonic() - spawned, "env": fingerprint()}
    if setup_only:
        return out

    tracer = None
    if spans_path:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    times: dict[str, float] = {}
    failures: list[tuple[str, str]] = []
    start = time.perf_counter()
    try:
        for task in wl.tasks:
            t0 = time.perf_counter()
            try:
                result = task.run()
            except Exception as exc:  # a raising task is a failed task
                times[task.name] = time.perf_counter() - t0
                failures.append((task.name, f"{type(exc).__name__}: {exc}"))
                continue
            times[task.name] = time.perf_counter() - t0
            try:
                problem = task.check(result)
            except Exception as exc:
                problem = f"check raised {type(exc).__name__}: {exc}"
            if problem:
                failures.append((task.name, problem))
        wall = time.perf_counter() - start
    finally:
        if tracer is not None:
            tracer.uninstall()
    if tracer is not None:
        tracer.write(spans_path)
    out.update({
        "wall_s": wall,
        "largest": wl.largest,
        "task_max_s": times[wl.largest],
        "attempted": len(wl.tasks),
        "failed": len(failures),
        "failures": failures,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    })
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--size", default="full")
    ap.add_argument("--spawned", type=float, required=True)
    ap.add_argument("--spans")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()
    try:
        out = run_rep(args.workload, args.seed, args.size, args.spawned,
                      args.spans, args.setup_only)
    except ImportError as exc:
        print(f"cannot import the library: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # the library failed while the workload was set up
        out = {"env": fingerprint(), "attempted": 1, "failed": 1,
               "failures": [("set-up", f"{type(exc).__name__}: {exc}")]}
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
