import gc
import multiprocessing
import os
import threading
import time
from dataclasses import replace

import numpy as np
import pytest

import lipforge.verify as verify_mod
from lipforge import Const, Domain, LinearMap, NormOf, Patch, Sum, TargetSet, add_const, run_game
from lipforge.lipfun import Patched, _check_patch_continuity
from lipforge.numerics import LipForgeError
from lipforge.verify import (
    artifact_suite,
    blend_suite,
    lipschitz_suite,
    net_suite,
    perturb_suite,
    stock_selftest,
    transcript_suite,
)


@pytest.fixture(scope="module")
def small_transcript():
    domain = Domain.box([0.0, 0.0], [1.0, 1.0])
    target = TargetSet.grid([0.0, 0.0], [1.0, 1.0], 0.2)
    ops = (LinearMap(np.array([[0.5, 0.0]])), LinearMap(np.array([[-0.5, 0.0]])))
    return run_game(domain, target, ops, "stay", rounds=3, seed=0)


def test_a_nan_witness_is_the_worst_ratio(small_transcript, monkeypatch):
    """A NaN dq after finite ones is the witness bound's worst ratio."""
    report = verify_mod.witness_bound_report

    def with_a_nan(*a, **k):
        probes = report(*a, **k)
        return probes[:-1] + [replace(probes[-1], value=float("nan"))]

    monkeypatch.setattr(verify_mod, "witness_bound_report", with_a_nan)
    result = transcript_suite(small_transcript)[-1]
    assert result.name == "witness bound 4/k" and not result.ok
    assert result.detail.endswith(" violations=1 worst_ratio=nan")


def test_stock_selftest_green():
    results = stock_selftest(seed=0)
    bad = [r for r in results if not r.ok]
    assert not bad, bad


def test_individual_suites_green():
    assert all(r.ok for r in blend_suite(seed=1, configs=4, samples=200, pairs=1000))
    assert all(r.ok for r in lipschitz_suite(seed=1, pairs=1000))
    assert all(r.ok for r in net_suite(step=0.1, k_max=3))
    assert all(r.ok for r in perturb_suite(seed=1))


def test_suites_deterministic():
    a = blend_suite(seed=5, configs=3, samples=100, pairs=500)
    b = blend_suite(seed=5, configs=3, samples=100, pairs=500)
    assert [(r.name, r.ok, r.detail) for r in a] == [(r.name, r.ok, r.detail) for r in b]


def test_transcript_suite_green(small_transcript):
    results = transcript_suite(small_transcript, per_round=2, budget=8)
    bad = [r for r in results if not r.ok]
    assert not bad, bad


def test_artifact_suite_makes_no_full_collection(acceptance_run):
    """artifact_suite runs with the cyclic collector paused: no generation-2
    collection starts inside it on the standard tree, and the collector is
    on again after it."""
    tree = acceptance_run.transcript.final_fun
    inside, full = [], []

    def on_collect(phase, info):
        if phase == "start" and info["generation"] == 2 and inside:
            full.append(info)

    gc.callbacks.append(on_collect)
    try:
        inside.append("artifact_suite")
        results = artifact_suite(tree)
        inside.clear()
    finally:
        gc.callbacks.remove(on_collect)
    assert all(r.ok for r in results)
    assert full == []
    assert gc.isenabled()


def test_artifact_suite_passes_a_zero_dimensional_patched_tree():
    """R^0 is one point, inside the patch, so the layer is its inner and the
    patch sphere has no point to sample: continuity holds with nothing drawn."""
    from lipforge import Const, deserialize, serialize
    from lipforge.lipfun import Patch, Patched

    tree = Patched(Const(np.array([1.0]), 0), (Patch(np.zeros(0), 0.5, Const(np.array([2.0]), 0)),))
    results = artifact_suite(deserialize(serialize(tree)))
    assert [(r.name, r.ok) for r in results] == [
        ("artifact round-trip", True),
        ("artifact quotient <= certificate", True),
        ("artifact patch continuity", True),
    ]


def test_artifact_suite_checks_a_shared_patched_node_once(monkeypatch):
    """A Patched node that the tree reaches twice is one layer, checked once."""
    import lipforge.verify as verify_mod
    from lipforge import Const, Sum
    from lipforge.lipfun import Patch, Patched

    layer = Patched(Const(np.zeros(1), 2), (Patch(np.array([0.5, 0.5]), 0.1, Const(np.zeros(1), 2)),))
    calls = []
    check = verify_mod._check_patch_continuity
    monkeypatch.setattr(verify_mod, "_check_patch_continuity", lambda node: calls.append(node) or check(node))
    result = {r.name: r for r in artifact_suite(Sum(layer, layer))}["artifact patch continuity"]
    assert result.ok and result.detail == "patched layers checked: 1"
    assert calls == [layer]


# ---------------------------------------------------------------------------
# The quotient and continuity checks in a forked worker


@pytest.fixture
def forked(monkeypatch):
    """Forces artifact_suite's forked worker on any tree: no break-even
    size and two usable CPUs, whatever the host has."""
    monkeypatch.setattr(verify_mod, "_FORK_MIN_PATCHES", 0)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)


def _inline(monkeypatch, fun, seed=0):
    """artifact_suite(fun, seed) with every check kept in this process."""
    with monkeypatch.context() as inline:
        inline.setattr(verify_mod, "_FORK_MIN_PATCHES", 10**12)
        return artifact_suite(fun, seed=seed)


def _checks_here(monkeypatch, check=_check_patch_continuity):
    """The layers whose continuity this process checks from now on; a
    forked worker's checks land in its own copy of the list."""
    calls = []
    monkeypatch.setattr(verify_mod, "_check_patch_continuity", lambda node: calls.append(node) or check(node))
    return calls


def _layer(inners):
    """A layer over NormOf(2) with 0.01-patches of the given inners on a row of centers."""
    centers = [np.array([0.1 + 0.8 * i / max(len(inners) - 1, 1), 0.5]) for i in range(len(inners))]
    return Patched(NormOf(2), tuple(Patch(c, 0.01, f) for c, f in zip(centers, inners)))


def _float_fault():
    """A float-resolvable layer of 40 patches; patch 17 is 3e-9 off its outer."""
    return _layer([add_const(NormOf(2), [3e-9 if i == 17 else 1e-11]) for i in range(40)])


def _exact_fault():
    """A sub-float layer: its 1e-20 sphere is bounded exactly from the center,
    where the inner is 1 off the outer."""
    return Patched(Const(np.array([0.0]), 2), (Patch(np.array([0.5, 0.25]), 1e-20, Const(np.array([1.0]), 2)),))


def _assert_forked_gives_the_inline_records(monkeypatch, fun):
    """The forked path gives the inline path's records, details included,
    and this process checks no layer itself."""
    inline = _inline(monkeypatch, fun)
    calls = _checks_here(monkeypatch)
    assert artifact_suite(fun) == inline
    assert calls == []
    assert [r.name for r in inline] == ["artifact round-trip", "artifact quotient <= certificate",
                                        "artifact patch continuity"]
    assert all(r.ok for r in inline)
    assert inline[2].detail == f"patched layers checked: {len(list(verify_mod._patched_layers(fun)))}"


def test_forked_continuity_check_on_the_standard_tree(acceptance_run, monkeypatch, forked):
    _assert_forked_gives_the_inline_records(monkeypatch, acceptance_run.transcript.final_fun)


def test_forked_continuity_check_on_the_small_games(small_game, monkeypatch, forked):
    _assert_forked_gives_the_inline_records(monkeypatch, small_game.final_fun)


@pytest.mark.parametrize(
    "faults",
    [(_float_fault,), (_exact_fault,), (_float_fault, _exact_fault), (_exact_fault, _float_fault)],
    ids=["float", "exact", "float-then-exact", "exact-then-float"],
)
def test_forked_continuity_failure_has_the_inline_detail(faults, monkeypatch, forked):
    """A tree whose first layer passes and whose later layers fail: the
    forked worker reports the first faulty layer of the pre-order walk, with
    the inline path's detail, whether that layer is sampled in float or
    bounded exactly from its centers."""
    layers = [f() for f in faults]
    fun = Sum(_layer([add_const(NormOf(2), [1e-11])] * 3), layers[0] if len(layers) == 1 else Sum(*layers))
    with pytest.raises(LipForgeError) as first:
        _check_patch_continuity(layers[0])
    inline = _inline(monkeypatch, fun)
    assert not inline[2].ok and inline[2].detail == str(first.value)
    assert inline[2].detail.startswith("patch boundary mismatch " + ("bound " if faults[0] is _exact_fault else ""))
    calls = _checks_here(monkeypatch)
    assert artifact_suite(fun) == inline
    assert calls == []


@pytest.mark.parametrize("seed", [0, 5])
def test_both_paths_draw_the_serial_suites_samples(seed, monkeypatch, forked):
    """One generator per call: the round trip's 1000 points come first and
    the quotient check's pairs next, as when the three checks ran one after
    another. The inline path draws those pairs, and the forked path returns
    its records."""
    fun = _layer([add_const(NormOf(2), [1e-11])] * 3)
    drawn, sample = [], verify_mod._sample_pairs
    monkeypatch.setattr(verify_mod, "_sample_pairs", lambda *a: drawn.append(sample(*a)) or drawn[-1])
    inline = _inline(monkeypatch, fun, seed)
    rng = np.random.default_rng(seed + 3)
    rng.uniform(0.05, 0.95, size=(1000, 2))
    want = sample(rng, 2, 10_000, 1.0)
    assert len(drawn) == 1 and all(np.array_equal(got, w) for got, w in zip(drawn[0], want))
    assert artifact_suite(fun, seed=seed) == inline


def test_forked_artifact_suite_checks_a_shared_patched_node_once(monkeypatch, forked):
    """The forked twin of test_artifact_suite_checks_a_shared_patched_node_once."""
    layer = Patched(Const(np.zeros(1), 2), (Patch(np.array([0.5, 0.5]), 0.1, Const(np.zeros(1), 2)),))
    calls = _checks_here(monkeypatch)
    result = {r.name: r for r in artifact_suite(Sum(layer, layer))}["artifact patch continuity"]
    assert result.ok and result.detail == "patched layers checked: 1"
    assert calls == []


def test_a_continuity_worker_bug_reaches_the_caller(monkeypatch, forked):
    """A worker whose check raises an error that is not a LipForgeError
    re-raises it in the caller, as inline, and leaves no child."""
    monkeypatch.setattr(verify_mod, "_check_patch_continuity", lambda node: 1 // 0)
    with pytest.raises(ZeroDivisionError):
        artifact_suite(_float_fault())
    assert multiprocessing.active_children() == []


def test_a_dying_continuity_worker_ends_the_call(monkeypatch, forked):
    """A worker that exits mid-check ends its pipe: the call raises instead
    of waiting, and leaves no child."""
    monkeypatch.setattr(verify_mod, "_check_patch_continuity", lambda node: os._exit(3))
    with pytest.raises(EOFError):
        artifact_suite(_float_fault())
    assert multiprocessing.active_children() == []


def test_a_failing_round_trip_stops_the_continuity_worker(monkeypatch, forked):
    """An error in this process's round trip ends the call at once: the
    worker, still checking, is terminated and joined."""
    monkeypatch.setattr(verify_mod, "_check_patch_continuity", lambda node: time.sleep(60))
    monkeypatch.setattr(verify_mod, "serialize", lambda fun: 1 // 0)
    t0 = time.perf_counter()
    with pytest.raises(ZeroDivisionError):
        artifact_suite(_float_fault())
    assert time.perf_counter() - t0 < 30
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("reason", ["below-break-even", "one-cpu", "live-thread", "no-fork", "daemon"])
def test_artifact_suite_stays_inline_when_forking_cannot_pay(small_game, monkeypatch, forked, reason):
    """A tree below the break-even size, one usable CPU, another live
    thread, no fork start method or a daemon process keep the continuity
    check in this process, with the same records, and start no child."""
    fun = small_game.final_fun
    expected = _inline(monkeypatch, fun)
    thread = None
    if reason == "below-break-even":
        patches = sum(len(node.patches) for node in verify_mod._patched_layers(fun))
        monkeypatch.setattr(verify_mod, "_FORK_MIN_PATCHES", patches + 1)
    elif reason == "one-cpu":
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
    elif reason == "live-thread":
        release = threading.Event()
        thread = threading.Thread(target=release.wait)
        thread.start()
    elif reason == "no-fork":
        monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
    else:
        monkeypatch.setattr(multiprocessing.current_process(), "daemon", True)
    monkeypatch.setattr(multiprocessing, "get_context", lambda *a: pytest.fail("the suite forked"))
    calls = _checks_here(monkeypatch)
    try:
        records = artifact_suite(fun)
    finally:
        if thread is not None:
            release.set()
            thread.join()
    assert records == expected
    assert calls == list(verify_mod._patched_layers(fun))
