import gc

import numpy as np
import pytest

from lipforge import Domain, LinearMap, TargetSet, run_game
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
