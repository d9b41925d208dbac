"""Workloads and the timed pipeline of the lipforge benchmark.

A pass plays the game (``run_game``) and then runs the workload's long
stages, taken from ``verify.artifact_suite``, the witness difference-quotient
report and the Dini sub-gradient report. After each long stage it runs the
short stages: artifact I/O, float evaluation of the final tree and, through
``between``, a set-up sample. Every output is checked.
"""

from __future__ import annotations

import gc
import hashlib
import json
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import lipforge as lf
from lipforge import verify

DPS = 60

# Float evaluation over the seed's points: the first 1000 one by one, the
# first 4096 in batches of 32, and all of them in batches of 4096.
EVAL_POINT_COUNT = 1000
SMALL_BATCH = 32
SMALL_POINTS = 4096
BULK_BATCH = 4096
EVAL_POINTS = 2 * BULK_BATCH
# The eval_point and eval_batch paths share node semantics.
EVAL_AGREE_TOL = 1e-9

# Acceptance threshold for the share of Dini certificates that fire.
DINI_MIN_FIRE = 0.9

PINS_FILE = Path(__file__).with_name("pins.json")

STD = dict(lo=(0.0, 0.0), hi=(1.0, 1.0), step=0.05, ops=((0.5, 0.0), (-0.5, 0.0)), rounds=8)
WIDE = dict(lo=(0.0, 0.0, 0.0), hi=(1.0, 1.0, 1.0), step=0.1,
            ops=((0.5, 0.0, 0.0), (-0.5, 0.0, 0.0)), rounds=6)


@dataclass(frozen=True)
class Workload:
    """Game inputs of one workload and the long stages it times; everything
    except the seed is fixed. Construction always runs; it counts towards
    pipeline_s only when "construct" is among the stages."""

    lo: tuple[float, ...]
    hi: tuple[float, ...]
    step: float
    ops: tuple[tuple[float, ...], ...]
    rounds: int
    stages: tuple[str, ...]

    @property
    def dim(self) -> int:
        return len(self.lo)


WORKLOADS = {
    # The standard run (unit square, 0.05 grid, +-0.5 horizontal operators):
    # construction, dominated by patch() continuity checks, and verify.
    "std-build": Workload(**STD, stages=("construct", "verify")),
    # The same run probed: the exact path at up to 1226 digits and many small
    # float batches. Construction is preparation here.
    "std-probe": Workload(**STD, stages=("witness_report", "dini_report")),
    # Unit cube, 0.1 grid (729 targets), +-0.5 e1 operators of shape 1x3:
    # twice the patches per round, 3-D nets and float continuity sampling.
    "wide-build": Workload(**WIDE, stages=("construct", "verify")),
    # Toy run with every stage, for the benchmark's own smoke test.
    "smoke": Workload((0.0, 0.0), (1.0, 1.0), 0.25, ((0.5, 0.0), (-0.5, 0.0)), 3,
                      stages=("construct", "verify", "witness_report", "dini_report")),
}


@dataclass
class Inputs:
    domain: lf.Domain
    target: lf.TargetSet
    operators: list
    direction: np.ndarray
    points: np.ndarray


def build_inputs(w: Workload, seed: int) -> Inputs:
    """The workload's inputs; the seed only picks the evaluation points."""
    domain = lf.Domain.box(list(w.lo), list(w.hi))
    target = lf.TargetSet.grid(list(w.lo), list(w.hi), w.step)
    operators = [lf.LinearMap(np.array([row])) for row in w.ops]
    direction = np.eye(w.dim)[0]
    rng = np.random.default_rng(seed)
    points = rng.uniform(0.05, 0.95, size=(EVAL_POINTS, w.dim))
    return Inputs(domain, target, operators, direction, points)


@dataclass
class PassResult:
    """Stage times, throughputs and check outcomes of one pass."""

    seconds: dict[str, float] = field(default_factory=dict)
    rates: dict[str, float] = field(default_factory=dict)
    checks: list[tuple[str, bool, str]] = field(default_factory=list)
    witnesses_ok: int = 0
    witnesses: int = 0
    dini_fired: int = 0
    dini: int = 0
    artifact_bytes: int = 0
    sizes: dict[str, float] = field(default_factory=dict)

    def pipeline_s(self, w: Workload) -> float:
        return self.seconds["artifact_io_s"] + sum(self.seconds[f"{s}_s"] for s in w.stages)


class Clock:
    """Untraced stage context; the tracer provides `stage` in traced runs."""

    @contextmanager
    def stage(self, name: str):
        yield


def load_pin(name: str) -> str:
    return json.loads(PINS_FILE.read_text(encoding="utf-8"))[name]


def run_pass(name: str, seed: int, workdir: Path, clock=None, between=None) -> PassResult:
    """Run workload `name` once and check its outputs.

    The host's speed drifts over seconds, so the short stages, which repeat
    identical work, run after each long stage, spread over the whole pass.
    I/O keeps its fastest repeat; each evaluation path reports its points
    over its time summed across repeats.
    """
    clock = clock or Clock()
    between = between or (lambda: None)
    w = WORKLOADS[name]
    inp = build_inputs(w, seed)
    pin = load_pin(name)
    res = PassResult()
    io_times: list[float] = []
    eval_points: dict[str, int] = {}
    eval_time: dict[str, float] = {}
    fun_path = workdir / "function.json"
    tr_path = workdir / "transcript.json"

    # A full collection before each timed stage puts the collector in the same
    # state in every run, so the same collections fall inside the stage;
    # otherwise they land wherever earlier stages left the counters, which
    # moved artifact I/O by up to 40% between runs.
    def timed(stage: str, call):
        gc.collect()
        with clock.stage(stage):
            t0 = time.perf_counter()
            out = call()
            res.seconds[f"{stage}_s"] = time.perf_counter() - t0
        return out

    def short_stages():
        """Artifact I/O (write function.json and transcript.json, read both
        back), float evaluation and a set-up sample."""
        gc.collect()
        with clock.stage("artifact_io"):
            t0 = time.perf_counter()
            data = lf.serialize(fun)
            fun_path.write_bytes(data)
            transcript.save(tr_path)
            lf.load_transcript(tr_path)
            loaded = lf.deserialize(fun_path.read_bytes())
            io_times.append(time.perf_counter() - t0)
        res.checks.append(("serialize(deserialize(b)) == b", lf.serialize(loaded) == data, ""))
        digest = hashlib.sha256(data).hexdigest()
        res.checks.append(("function.json sha256 matches its pin", digest == pin, digest))
        res.artifact_bytes = len(data) + tr_path.stat().st_size
        res.sizes["lipfun.function_bytes"] = len(data)
        res.sizes["game.transcript_bytes"] = tr_path.stat().st_size

        gc.collect()
        with clock.stage("eval"):
            timings, worst = _eval_paths(fun, inp.points)
        for key, (count, seconds) in timings.items():
            eval_points[key] = eval_points.get(key, 0) + count
            eval_time[key] = eval_time.get(key, 0.0) + seconds
        res.checks.append(("eval_point agrees with eval_batch", worst <= EVAL_AGREE_TOL,
                           f"max diff {worst:.3e}"))
        between()

    between()
    transcript = timed("construct", lambda: lf.run_game(
        inp.domain, inp.target, inp.operators, "stay", rounds=w.rounds, seed=seed, dps=DPS))
    fun = transcript.final_fun

    for stage in w.stages:
        if stage == "verify":
            records = timed(stage, lambda: verify.artifact_suite(fun, seed=seed))
            res.checks += [(r.name, r.ok, r.detail) for r in records]
        elif stage == "witness_report":
            probes = timed(stage, lambda: lf.witness_bound_report(transcript, seed=seed))
            res.witnesses = len(probes)
            res.witnesses_ok = sum(1 for p in probes if p.ok)
        elif stage == "dini_report":
            # Witnesses of the last round only: nets are nested, so they are
            # every distinct net point, and a witness's ladder depends only
            # on its point. A lower min_round repeats the same certificates
            # (min_round=4 on the standard run computes 1567, 361 distinct).
            dini = timed(stage, lambda: lf.witness_dini_report(
                transcript, inp.direction, min_round=w.rounds, seed=seed))
            res.dini = len(dini)
            res.dini_fired = sum(1 for d in dini if d.report.fires)
        short_stages()

    res.seconds["artifact_io_s"] = min(io_times)
    res.rates = {key: eval_points[key] / eval_time[key] for key in eval_points}
    res.sizes.update(tree_stats(fun))
    res.sizes["nets.net_points"] = sum(len(level) for level in transcript.nets.levels)
    return res


def _eval_paths(fun, points: np.ndarray) -> tuple[dict[str, tuple[int, float]], float]:
    """(points, seconds) on each float evaluation path, and the largest
    disagreement between eval_point and eval_batch."""
    singles = points[:EVAL_POINT_COUNT]
    small = points[:SMALL_POINTS]
    t0 = time.perf_counter()
    single_vals = [lf.eval_point(fun, z) for z in singles]
    t1 = time.perf_counter()
    for i in range(0, len(small), SMALL_BATCH):
        lf.eval_batch(fun, small[i : i + SMALL_BATCH])
    t2 = time.perf_counter()
    bulk_vals = np.concatenate([lf.eval_batch(fun, points[i : i + BULK_BATCH])
                                for i in range(0, len(points), BULK_BATCH)])
    t3 = time.perf_counter()
    worst = float(np.max(np.abs(np.asarray(single_vals, dtype=float) - bulk_vals[: len(singles)])))
    timings = {
        "eval_point_pts_per_s": (len(singles), t1 - t0),
        "eval_small_pts_per_s": (len(small), t2 - t1),
        "eval_bulk_pts_per_s": (len(points), t3 - t2),
    }
    return timings, worst


def tree_stats(fun) -> dict[str, int]:
    """Node count with repeats, distinct nodes and depth (in edges) of the
    expression tree, walked through children()."""
    nodes = 0
    distinct: set[int] = set()
    depth = 0
    stack = [(fun, 0)]
    while stack:
        node, level = stack.pop()
        nodes += 1
        distinct.add(id(node))
        depth = max(depth, level)
        stack.extend((child, level + 1) for child in node.children())
    return {
        "lipfun.tree_nodes": nodes,
        "lipfun.tree_distinct_nodes": len(distinct),
        "lipfun.tree_depth": depth,
    }
