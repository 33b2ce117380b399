"""Smoke test of the benchmark itself, at toy size (about half a minute).

    python3 bench/smoke.py

Checks that every workload runs clean in both modes and prints exactly the
metrics BENCHMARK.json declares, each with its declared unit; that a wrong
reference value is counted as a failed task; that a library which raises
while a workload is set up gives a failed task and exit 1; and that the
benchmark refuses to run, printing no result, where the library sources are
missing.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(root: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=root,
                          capture_output=True, text=True, timeout=180)


def check_metrics(spec: dict) -> None:
    declared = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    for wl in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            proc = run(ROOT, "--workload", wl, "--seed", "3", "--seconds", "1",
                       "--trace", str(trace), "--size", "toy")
            assert proc.returncode == 0, f"{wl} trace {trace}: {proc.stdout}{proc.stderr}"
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}
            assert result["correct"] is True and result["failed"] == 0
            assert result["attempted"] >= 1
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            assert got == declared[trace], f"{wl} trace {trace}: {sorted(set(got) ^ set(declared[trace]))}"
            for name, unit in declared[trace].items():
                assert f" {unit}" in next(line for line in proc.stdout.splitlines()
                                          if line.split()[:1] == [name]), name
            assert "fail_frac" in proc.stdout and "backend=" in proc.stdout
            print(f"ok   {wl:8s} trace {trace}: {len(got)} metrics")


def check_wrong_reference() -> None:
    sys.path.insert(0, str(HERE))
    import child
    child.import_library()
    import workloads
    wrong_bound = dict(workloads.REFERENCE)
    field, value, tol = wrong_bound["log2-m1"]
    wrong_bound["log2-m1"] = (field, "3.5745540", tol)
    wrong = {"bound": wrong_bound,
             "slope": dict(workloads.SLOPE_REFERENCE, poly=(23.0, 0.01))}
    for wl in ("bound", "exact"):
        rec = child.run_rep(wl, 3, "toy", time.monotonic(), references=wrong)
        assert rec["failed"] >= 1, f"{wl}: a wrong reference went unnoticed"
        print(f"ok   {wl:8s} wrong reference: fail_frac {rec['failed'] / rec['attempted']:.3f}")


def copy_of_bench(name: str) -> Path:
    """A fresh directory under .bench_out/ with BENCHMARK.json and bench/."""
    root = ROOT / ".bench_out" / name
    shutil.rmtree(root, ignore_errors=True)
    root.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", root)
    shutil.copytree(HERE, root / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    return root


def check_setup_failure() -> None:
    broken = copy_of_bench("broken")
    try:
        shutil.copytree(ROOT / "src", broken / "src", ignore=shutil.ignore_patterns("__pycache__"))
        with open(broken / "src" / "loglegendre" / "measures.py", "a") as f:
            f.write("\n\ndef preset_catalog():\n    raise RuntimeError('broken on purpose')\n")
        proc = run(broken, "--workload", "bound", "--seed", "1", "--seconds", "1",
                   "--trace", "0", "--size", "toy")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert proc.returncode == 1, f"exit {proc.returncode}: {proc.stdout}{proc.stderr}"
        assert result["correct"] is False and result["failed"] >= 1, result
        assert "broken on purpose" in proc.stdout, proc.stdout
        print("ok   set-up failure exits 1 with a failed task")
    finally:
        shutil.rmtree(broken)


def check_bare_directory() -> None:
    bare = copy_of_bench("bare")
    try:
        proc = run(bare, "--workload", "bound", "--seed", "1", "--seconds", "1", "--trace", "0")
        assert proc.returncode != 0 and "{" not in proc.stdout, proc.stdout
        print(f"ok   bare directory exits {proc.returncode} without a result")
    finally:
        shutil.rmtree(bare)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    check_metrics(spec)
    check_wrong_reference()
    check_setup_failure()
    check_bare_directory()
    print("smoke test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
