#!/usr/bin/env python3
"""Benchmark of lipforge's pipeline: construct, artifact I/O, float
evaluation, verify, witness report and Dini report.

Run from the repository root:

    python3 perfbench/run.py --workload std --seed 0 --seconds 30 --trace 0

With --trace 0 the last line of standard output is a JSON object with the
end-to-end metrics; with --trace 1 the pass runs under the outside-in tracer
(perfbench/tracing.py), the object carries the per-layer metrics, and the spans
are written to perfbench/out/. The exit code is 0 only when every output
check passes. See perfbench/README.md for the workloads and metrics.
"""

import os

# All load comes from this one process: pin BLAS and OpenMP pools to a single
# thread before numpy is imported (set-up children inherit the setting).
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"

# (name, unit) of every end-to-end metric in the JSON result, in order.
END_TO_END = [
    ("setup_s", "s"),
    ("pipeline_s", "s"),
    ("peak_rss_mb", "MB"),
    ("artifact_bytes", "bytes"),
]
# Printed with the end-to-end metrics but not gated. On a shared 2-core host
# the speed of the same work drifts by 10-25% over seconds to minutes, so one
# 5-15 s stage, or a few seconds of repeated I/O or evaluation, varies from
# run to run by as much as the widest regression bound. pipeline_s, the sum
# of artifact I/O and the workload's long stages, varies less and is gated.
UNGATED = [
    ("artifact_io_s", "s"),
    ("eval_point_pts_per_s", "1/s"),
    ("eval_small_pts_per_s", "1/s"),
    ("eval_bulk_pts_per_s", "1/s"),
]
# Set-up is importing lipforge and building the workload's inputs in a fresh
# interpreter. It is sampled before construct and after every long stage, and
# the median reported.
SETUP_CHILD = """
import sys, time
t0 = time.perf_counter()
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import stages
stages.build_inputs(stages.WORKLOADS[sys.argv[3]], int(sys.argv[4]))
print(time.perf_counter() - t0)
"""


def machine_facts() -> dict:
    import mpmath
    import numpy

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
    }


def measure_setup(src: Path, workload: str, seed: int) -> float:
    proc = subprocess.run(
        [sys.executable, "-c", SETUP_CHILD, str(src), str(HERE), workload, str(seed)],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return float(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="untraced runs repeat whole passes until this much time has passed")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = Path.cwd() / "src"
    if not (src / "lipforge" / "__init__.py").is_file():
        print(f"error: lipforge sources not found under {src}; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import stages
    import tracing

    if args.workload not in stages.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    facts = machine_facts()
    print("machine: " + json.dumps(facts))

    setup_times = []

    def setup_sample():
        setup_times.append(measure_setup(src, args.workload, args.seed))

    OUT.mkdir(parents=True, exist_ok=True)
    passes = []
    tracer = None
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        if args.trace:
            tracer = tracing.Tracer()
            tracer.install()
            try:
                passes.append(stages.run_pass(args.workload, args.seed, Path(tmp), tracer, setup_sample))
            finally:
                tracer.uninstall()
        else:
            start = time.perf_counter()
            while not passes or time.perf_counter() - start < args.seconds:
                passes.append(stages.run_pass(args.workload, args.seed, Path(tmp), None, setup_sample))

    w = stages.WORKLOADS[args.workload]
    last = passes[-1]
    pipeline = [p.pipeline_s(w) for p in passes]
    e2e = {"setup_s": statistics.median(setup_times)}
    for key in last.seconds:
        e2e[key] = statistics.median(p.seconds[key] for p in passes)
    for key in last.rates:
        e2e[key] = statistics.median(p.rates[key] for p in passes)
    e2e["pipeline_s"] = statistics.median(pipeline)
    e2e["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    e2e["artifact_bytes"] = last.artifact_bytes

    witnesses = sum(p.witnesses for p in passes)
    witness_fail = witnesses - sum(p.witnesses_ok for p in passes)
    dini = sum(p.dini for p in passes)
    unfired = dini - sum(p.dini_fired for p in passes)
    checks = [c for p in passes for c in p.checks]
    check_fail = sum(1 for _, ok, _ in checks if not ok)
    shares = {
        "witness_fail_frac": witness_fail / max(witnesses, 1),
        "dini_unfired_frac": unfired / max(dini, 1),
        "check_fail_frac": check_fail / max(len(checks), 1),
    }
    correct = (
        witness_fail == 0
        and check_fail == 0
        and (witnesses > 0 or "witness_report" not in w.stages)
        and (dini > 0 or "dini_report" not in w.stages)
        and 1.0 - shares["dini_unfired_frac"] >= stages.DINI_MIN_FIRE
    )
    for name, ok, detail in checks:
        if not ok:
            print(f"FAILED check: {name} {detail}", file=sys.stderr)

    print(f"workload {args.workload} seed {args.seed}: {len(passes)} pass(es), "
          f"{witnesses} witnesses, {dini} Dini certificates, {len(checks)} checks")
    for name, unit in END_TO_END:
        print(f"  {name} = {e2e[name]:.6g} {unit}")
    long_stages = ["construct"] + [s for s in w.stages if s != "construct"]
    for name, unit in UNGATED + [(f"{s}_s", "s") for s in long_stages]:
        print(f"  {name} = {e2e[name]:.6g} {unit} (not gated)")
    for name, value in shares.items():
        print(f"  {name} = {value:.6g} fraction")

    if tracer is not None:
        sizes = dict(last.sizes)
        sizes["trace.pipeline_s"] = pipeline[0]
        layer = tracer.layer_metrics(sizes)
        trace_path = OUT / f"trace-{args.workload}-s{args.seed}.json"
        tracer.write(trace_path, facts, layer)
        print(f"  spans: {len(tracer.spans)} written to {trace_path}")
        for name, unit in tracing.PER_LAYER:
            print(f"  {name} = {layer[name]:.6g} {unit}")
        metrics = {name: {"value": layer[name], "unit": unit} for name, unit in tracing.PER_LAYER}
    else:
        metrics = {name: {"value": e2e[name], "unit": unit} for name, unit in END_TO_END}

    attempted = witnesses + dini + len(checks)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": witness_fail + unfired + check_fail,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
