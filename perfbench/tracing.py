"""Outside-in tracer for the lipforge benchmark.

The tracer wraps every public module-level function of the eight lipforge
layers, plus ``GameTranscript.save``, in every lipforge namespace that binds
it. Rebinding only the defining module would miss calls made through
``from .x import f``, such as ``perturb.patch`` or ``game.linearize_near``.
Nothing inside ``src/lipforge`` changes; ``uninstall`` restores the originals.

Two kinds of wrapper are used:

* span wrappers keep a stack of open spans, so a function's self time is its
  span minus the spans of wrapped functions it called;
* count wrappers only count calls. They cover the scalar helpers (all of
  ``numerics`` and the hot ``space`` norms), which run millions of times in
  one pass; their time stays in the self time of the caller.

Spans are kept in memory and written out once, by ``write``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
from collections import defaultdict
from contextlib import contextmanager

LAYERS = ("space", "numerics", "lipfun", "nets", "perturb", "game", "probe", "verify")

COUNT_ONLY_SPACE = frozenset({"norm", "norm_batch", "halton_point"})

MAX_ROUNDS = 8

# (name, unit) of every per-layer metric, in output order. The end-to-end
# metric each one should move is listed in perfbench/README.md.
PER_LAYER = (
    [
        ("lipfun.patch.self_s", "s"),
        ("lipfun.patch.calls", "count"),
        ("lipfun.sup_dist.self_s", "s"),
        ("lipfun.eval_batch.self_s", "s"),
        ("lipfun.eval_batch.calls", "count"),
        ("lipfun.eval_batch.points", "count"),
        ("lipfun.eval_point.self_s", "s"),
        ("lipfun.eval_point.calls", "count"),
        ("lipfun.serialize.self_s", "s"),
        ("lipfun.deserialize.self_s", "s"),
        ("lipfun.function_bytes", "bytes"),
        ("lipfun.tree_nodes", "count"),
        ("lipfun.tree_distinct_nodes", "count"),
        ("lipfun.tree_depth", "count"),
        ("perturb.linearize_near.self_s", "s"),
    ]
    + [(f"perturb.linearize_near.r{k}.s", "s") for k in range(1, MAX_ROUNDS + 1)]
    + [
        ("perturb.choose_s.self_s", "s"),
        ("nets.nested_nets.self_s", "s"),
        ("nets.greedy_net.self_s", "s"),
        ("nets.separation.self_s", "s"),
        ("nets.net_points", "count"),
        ("game.player2_move.self_s", "s"),
        ("game.validate_move.self_s", "s"),
        ("game.save.self_s", "s"),
        ("game.load_transcript.self_s", "s"),
        ("game.transcript_bytes", "bytes"),
        ("game.witnesses.self_s", "s"),
        ("probe.dq_error.self_s", "s"),
        ("probe.dq_error.calls", "count"),
        ("probe.dini_empty_certificate.self_s", "s"),
        ("probe.dini_empty_certificate.calls", "count"),
        ("probe.dini_values.self_s", "s"),
        ("probe.witness_ladder.self_s", "s"),
        ("probe.exact_scales", "count"),
        ("probe.float_scales", "count"),
        ("verify.artifact_suite.self_s", "s"),
        ("space.unit_directions.self_s", "s"),
        ("space.unit_directions.calls", "count"),
        ("space.sample_ball.self_s", "s"),
        ("space.sample_ball.calls", "count"),
        ("numerics.exact_mpf.calls", "count"),
        ("numerics.as_vector.calls", "count"),
        ("numerics.working_dps_max", "digits"),
        ("trace.pipeline_s", "s"),
    ]
)

# Metrics that must repeat exactly across two traced runs of one seed.
DETERMINISTIC_UNITS = frozenset({"count", "bytes", "digits"})


class Tracer:
    """Span stack, call counters and the few work counters the layers expose."""

    def __init__(self):
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.round_s: dict[int, float] = defaultdict(float)
        self.spans: list[tuple[int, int, str, float, float]] = []
        self.points = 0
        self.dps_max = 0
        self.exact_scales = 0
        self.float_scales = 0
        self._round = 0
        self._stack: list[list] = []
        self._next_id = 0
        self._restore: list[tuple[object, str, object]] = []
        self._before = {"game.player2_move": self._set_round}
        self._after = {
            "lipfun.eval_batch": self._add_points,
            "perturb.linearize_near": self._add_round_time,
            "numerics.working_dps_for_scale": self._track_dps,
            "probe.witness_ladder": self._count_scales,
        }

    # -- spans ---------------------------------------------------------------

    def _enter(self, key: str) -> list:
        parent = self._stack[-1][1] if self._stack else -1
        frame = [key, self._next_id, parent, time.perf_counter(), 0.0]
        self._next_id += 1
        self._stack.append(frame)
        return frame

    def _exit(self, frame: list) -> float:
        t1 = time.perf_counter()
        self._stack.pop()
        key, span_id, parent, t0, child_s = frame
        dur = t1 - t0
        self.self_s[key] += dur - child_s
        self.calls[key] += 1
        if self._stack:
            self._stack[-1][4] += dur
        self.spans.append((span_id, parent, key, t0, t1))
        return dur

    @contextmanager
    def stage(self, name: str):
        frame = self._enter(f"stage.{name}")
        try:
            yield
        finally:
            self._exit(frame)

    # -- wrappers ------------------------------------------------------------

    def _span_wrapper(self, key: str, fn):
        before = self._before.get(key)
        after = self._after.get(key)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            frame = self._enter(key)
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = self._exit(frame)
            if after is not None:
                after(args, kwargs, result, dur)
            return result

        return wrapper

    def _count_wrapper(self, key: str, fn):
        calls = self.calls
        after = self._after.get(key)

        if after is None:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                calls[key] += 1
                return fn(*args, **kwargs)
        else:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                calls[key] += 1
                result = fn(*args, **kwargs)
                after(args, kwargs, result, 0.0)
                return result

        return wrapper

    # -- hooks that read work counts off call arguments and results -----------

    def _set_round(self, args, kwargs):
        state = args[0] if args else kwargs["state"]
        self._round = state.next_round

    def _add_points(self, args, kwargs, result, dur):
        self.points += len(args[1] if len(args) > 1 else kwargs["Z"])

    def _add_round_time(self, args, kwargs, result, dur):
        self.round_s[self._round] += dur

    def _track_dps(self, args, kwargs, result, dur):
        if result > self.dps_max:
            self.dps_max = result

    def _count_scales(self, args, kwargs, result, dur):
        # Mirrors probe's switch to the exact path: a scale below
        # FLOAT_PROBE_REL times the point scale, or a witness whose point is
        # an exact vector (sampled offsets), is probed exactly.
        from lipforge.probe import FLOAT_PROBE_REL

        w = args[1] if len(args) > 1 else kwargs["w"]
        if w.offset is not None:
            self.exact_scales += len(result.radii)
            return
        point_scale = max([1.0] + [abs(float(c)) for c in w.center])
        for t in result.radii:
            tf = float(t)
            if tf == 0.0 or tf < FLOAT_PROBE_REL * point_scale:
                self.exact_scales += 1
            else:
                self.float_scales += 1

    # -- install / uninstall -------------------------------------------------

    def install(self) -> None:
        package = importlib.import_module("lipforge")
        modules = {name: importlib.import_module(f"lipforge.{name}") for name in LAYERS}
        namespaces = list(modules.values()) + [package]
        for layer, module in modules.items():
            for name, fn in list(vars(module).items()):
                if name.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != module.__name__:
                    continue
                key = f"{layer}.{name}"
                count_only = layer == "numerics" or (layer == "space" and name in COUNT_ONLY_SPACE)
                wrapper = self._count_wrapper(key, fn) if count_only else self._span_wrapper(key, fn)
                for ns in namespaces:
                    for bound_name, value in list(vars(ns).items()):
                        if value is fn:
                            self._restore.append((ns, bound_name, value))
                            setattr(ns, bound_name, wrapper)
        transcript_cls = modules["game"].GameTranscript
        self._restore.append((transcript_cls, "save", transcript_cls.save))
        transcript_cls.save = self._span_wrapper("game.save", transcript_cls.save)

    def uninstall(self) -> None:
        for ns, name, value in reversed(self._restore):
            setattr(ns, name, value)
        self._restore.clear()

    # -- results -------------------------------------------------------------

    def layer_metrics(self, sizes: dict[str, float]) -> dict[str, float]:
        """Values of every PER_LAYER metric. `sizes` carries the ones measured
        on the artifacts rather than counted at call boundaries."""
        values: dict[str, float] = {}
        for name, _unit in PER_LAYER:
            if name in sizes:
                values[name] = sizes[name]
            elif name.endswith(".self_s"):
                values[name] = self.self_s.get(name[: -len(".self_s")], 0.0)
            elif name.endswith(".calls"):
                values[name] = self.calls.get(name[: -len(".calls")], 0)
        for k in range(1, MAX_ROUNDS + 1):
            values[f"perturb.linearize_near.r{k}.s"] = self.round_s.get(k, 0.0)
        values["lipfun.eval_batch.points"] = self.points
        values["probe.exact_scales"] = self.exact_scales
        values["probe.float_scales"] = self.float_scales
        values["numerics.working_dps_max"] = self.dps_max
        missing = [name for name, _ in PER_LAYER if name not in values]
        if missing:
            raise KeyError(f"per-layer metrics without a value: {missing}")
        return values

    def write(self, path, facts: dict, metrics: dict) -> None:
        """Write spans, call counts and metrics as one JSON document."""
        doc = {
            "machine": facts,
            "metrics": metrics,
            "calls": dict(sorted(self.calls.items())),
            "self_s": dict(sorted(self.self_s.items())),
            "span_fields": ["id", "parent", "name", "start", "end"],
            "spans": self.spans,
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(doc), encoding="utf-8")


def count_mismatches(a: dict, b: dict) -> list[str]:
    """Names of the deterministic per-layer metrics on which two traced runs
    disagree."""
    out = []
    for name, unit in PER_LAYER:
        if unit in DETERMINISTIC_UNITS and a.get(name) != b.get(name):
            out.append(f"{name}: {a.get(name)} != {b.get(name)}")
    return out
