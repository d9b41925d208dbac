#!/usr/bin/env python3
"""Smoke test and self-checks of the lipforge benchmark.

Run from the repository root:

    python3 perfbench/smoke.py                   # toy workload, about 15 s
    python3 perfbench/smoke.py --workload std    # self-check on a real workload

On the toy workload (0.25 grid, 3 rounds) it checks that:

* BENCHMARK.json names exactly the metrics and units run.py emits;
* an untraced run emits every end-to-end metric with its unit and passes;
* two traced runs of one seed emit every per-layer metric with its unit and
  give identical counts (any mismatch is reported by name); the tracing
  overhead is the traced pipeline_s minus the untraced one;
* a deliberately wrong pinned function.json hash fails the run;
* a directory holding only BENCHMARK.json and perfbench/ fails without a result.

With --workload only the untraced run and the two traced runs are made.
Scratch copies go to perfbench/out/ and are removed afterwards.
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import tracing  # noqa: E402

RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def end_to_end_spec() -> list[tuple[str, str]]:
    # run.py pins thread pools on import, which is harmless here.
    import run

    return run.END_TO_END


def run_bench(workload: str, seed: int, trace: int, cwd: Path = ROOT,
              script: Path = HERE / "run.py") -> tuple[int, dict | None, str]:
    proc = subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )
    lines = proc.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = None
    return proc.returncode, result, proc.stderr


def check_result(result: dict | None, spec: list[tuple[str, str]], label: str) -> list[str]:
    if result is None:
        return [f"{label}: no JSON result on the last line"]
    errors = []
    if set(result) != RESULT_KEYS:
        errors.append(f"{label}: result keys {sorted(result)}")
    if not result.get("correct"):
        errors.append(f"{label}: run not correct")
    if result.get("attempted", 0) < 1 or result.get("failed") != 0:
        errors.append(f"{label}: attempted={result.get('attempted')} failed={result.get('failed')}")
    metrics = result.get("metrics", {})
    if set(metrics) != {name for name, _ in spec}:
        errors.append(f"{label}: metric names differ: {sorted(set(metrics) ^ {n for n, _ in spec})}")
    for name, unit in spec:
        got = metrics.get(name, {})
        if got.get("unit") != unit or not isinstance(got.get("value"), (int, float)):
            errors.append(f"{label}: {name} emitted as {got}")
    return errors


def self_check(workload: str, seed: int) -> list[str]:
    """Untraced run plus two traced runs: metrics, determinism, overhead."""
    errors = []
    code, plain, err = run_bench(workload, seed, 0)
    errors += [f"untraced run exit {code}: {err[-500:]}"] if code else []
    errors += check_result(plain, end_to_end_spec(), "untraced run")
    traced = []
    for i in (1, 2):
        code, res, err = run_bench(workload, seed, 1)
        errors += [f"traced run {i} exit {code}: {err[-500:]}"] if code else []
        errors += check_result(res, tracing.PER_LAYER, f"traced run {i}")
        traced.append({k: v["value"] for k, v in (res or {}).get("metrics", {}).items()})
    mismatches = tracing.count_mismatches(traced[0], traced[1])
    errors += [f"count not deterministic: {m}" for m in mismatches]
    if plain and traced[0]:
        untraced_s = plain["metrics"]["pipeline_s"]["value"]
        traced_s = traced[0]["trace.pipeline_s"]
        print(f"tracing overhead on {workload} seed {seed}: {traced_s - untraced_s:.3f} s "
              f"({traced_s:.3f} s traced vs {untraced_s:.3f} s untraced, "
              f"{(traced_s - untraced_s) / untraced_s:+.1%})")
    return errors


def copy_bench(dest: Path) -> None:
    dest.mkdir(parents=True)
    shutil.copy2(ROOT / "BENCHMARK.json", dest / "BENCHMARK.json")
    shutil.copytree(HERE, dest / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))


def contract_checks() -> list[str]:
    errors = []
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = [(m["name"], m["unit"]) for m in bench["end_to_end"]]
    if declared != end_to_end_spec():
        errors.append(f"BENCHMARK.json end_to_end {declared} != run.py {end_to_end_spec()}")
    declared = [(m["name"], m["unit"]) for m in bench["per_layer"]]
    if declared != list(tracing.PER_LAYER):
        errors.append("BENCHMARK.json per_layer differs from tracing.PER_LAYER")
    import stages

    for w in bench["workloads"]:
        if w["name"] not in stages.WORKLOADS:
            errors.append(f"workload {w['name']} unknown to stages.py")

    OUT.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        bad = Path(tmp) / "badpin"
        copy_bench(bad)
        pins_path = bad / "perfbench" / "pins.json"
        pins = json.loads(pins_path.read_text(encoding="utf-8"))
        pins["smoke"] = "0" * 64
        pins_path.write_text(json.dumps(pins), encoding="utf-8")
        code, res, _ = run_bench("smoke", 0, 0, script=bad / "perfbench" / "run.py")
        if code == 0 or res is None or res["correct"] or res["failed"] < 1:
            errors.append(f"wrong pinned hash did not fail the run (exit {code}, result {res})")

        bare = Path(tmp) / "bare"
        copy_bench(bare)
        code, res, _ = run_bench("smoke", 0, 0, cwd=bare, script=bare / "perfbench" / "run.py")
        if code == 0 or res is not None:
            errors.append(f"run without sources did not fail cleanly (exit {code})")
    return errors


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="smoke")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    errors = self_check(args.workload, args.seed)
    if args.workload == "smoke":
        errors += contract_checks()
    for e in errors:
        print("FAIL", e)
    print("smoke: " + ("FAILED" if errors else "ok"))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
