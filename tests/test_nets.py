import hashlib
import itertools
import math
import tracemalloc

import numpy as np
import pytest

from lipforge import (
    Domain,
    LipForgeError,
    NetFamily,
    NormKind,
    TargetSet,
    greedy_net,
    nested_nets,
    norm,
    restrict,
    separation,
)
from lipforge.space import _halton, norm_batch


@pytest.fixture
def unit_box():
    return Domain.box([0.0, 0.0], [1.0, 1.0])


def test_separation_basics():
    assert separation(np.array([[0.0, 0.0], [1.0, 0.0]])) == 1.0
    assert separation(np.array([[0.0, 0.0], [0.3, 0.4]])) == pytest.approx(0.5)
    assert separation(np.array([[0.2, 0.7]])) == math.inf
    assert separation(np.empty((0, 2))) == math.inf


def test_restrict_levels(unit_box):
    target = TargetSet.grid([0.0, 0.0], [1.0, 1.0], 0.1)
    lvl1 = restrict(target, unit_box, 1)
    # margin >= 0.5 forces all coordinates to 0.5 exactly
    assert len(lvl1) == 1 and np.allclose(lvl1[0], [0.5, 0.5])
    lvl2 = restrict(target, unit_box, 2)
    assert all(float(unit_box.dist_to_boundary(p)) >= 0.25 for p in lvl2)


def test_restrict_empty_target(unit_box):
    target = TargetSet.from_points(np.empty((0, 2)))
    assert len(restrict(target, unit_box, 3)) == 0


def test_greedy_net_maximal():
    pts = np.stack(np.meshgrid(np.arange(0.1, 1.0, 0.1), np.arange(0.1, 1.0, 0.1), indexing="ij"), axis=-1).reshape(-1, 2)
    net = greedy_net(pts, 0.25)
    assert separation(net) >= 0.25
    for p in pts:
        assert float(np.min(norm_batch(net - p, NormKind.EUCLIDEAN))) < 0.25 or any(
            np.array_equal(p, q) for q in net
        )


def test_greedy_net_seed_preserved_and_idempotent():
    pts = np.array([[0.1 * i, 0.1 * j] for i in range(1, 10) for j in range(1, 10)])
    first = greedy_net(pts, 0.3)
    second = greedy_net(pts, 0.15, seed_set=first)
    for p in first:
        assert any(np.array_equal(p, q) for q in second)
    again = greedy_net(second, 0.15, seed_set=None)
    assert len(again) == len(second)


def test_greedy_net_single_point():
    net = greedy_net(np.array([[0.4, 0.4]]), 0.5)
    assert np.array_equal(net, np.array([[0.4, 0.4]]))


def test_greedy_net_bad_seed():
    with pytest.raises(LipForgeError, match="separation"):
        greedy_net(np.array([[0.5, 0.5]]), 0.5, seed_set=np.array([[0.1, 0.1], [0.2, 0.1]]))


def test_nested_nets_invariants(unit_box):
    target = TargetSet.grid([0.0, 0.0], [1.0, 1.0], 0.05)
    family = nested_nets(target, unit_box, 6)
    family.validate(unit_box, target)
    for k in range(1, 7):
        lvl = family.level(k)
        if len(lvl) >= 2:
            assert separation(lvl) >= 2.0**-k


def test_nested_nets_singleton(unit_box):
    target = TargetSet.from_points([[0.5, 0.5]])
    family = nested_nets(target, unit_box, 3)
    for k in range(1, 4):
        assert len(family.level(k)) == 1
        assert np.allclose(family.level(k)[0], [0.5, 0.5])


def test_nested_nets_empty(unit_box):
    family = nested_nets(TargetSet.from_points(np.empty((0, 2))), unit_box, 4)
    assert all(len(family.level(k)) == 0 for k in range(1, 5))


def test_nested_nets_density_surrogate(unit_box):
    target = TargetSet.grid([0.0, 0.0], [1.0, 1.0], 0.05)
    k_max = 6
    family = nested_nets(target, unit_box, k_max)
    top = family.level(k_max)
    margin = 2.0**-k_max
    for p in target.points:
        if float(unit_box.dist_to_boundary(p)) >= margin:
            assert float(np.min(norm_batch(top - p, NormKind.EUCLIDEAN))) < margin


def test_validate_refusals(unit_box):
    target = TargetSet.grid([0.0, 0.0], [1.0, 1.0], 0.125)
    family = nested_nets(target, unit_box, 3)
    family.validate(unit_box, target)
    dropped = NetFamily((family.levels[0], family.levels[1][1:], family.levels[2]))
    with pytest.raises(LipForgeError, match="level 2 does not contain level 1"):
        dropped.validate(unit_box, target)
    assert len(family.levels[2]) > len(family.levels[1])
    last = family.levels[2][-1]
    fewer = TargetSet(target.points[np.any(target.points != last, axis=1)])
    with pytest.raises(LipForgeError, match="level 3 contains a point outside the target set"):
        family.validate(unit_box, fewer)
    with pytest.raises(LipForgeError, match="level 2 violates"):
        NetFamily((family.levels[0], family.levels[2], family.levels[2])).validate(unit_box)


def test_net_csv_format(unit_box):
    target = TargetSet.from_points([[0.5, 0.5], [0.25, 0.25]])
    family = nested_nets(target, unit_box, 2)
    text = family.to_csv()
    lines = text.strip().splitlines()
    assert lines[0] == "k,x1,x2"
    assert all(line.count(",") == 2 for line in lines[1:])


def test_grid_target_is_open_interior():
    target = TargetSet.grid([0.0, 0.0], [1.0, 1.0], 0.05)
    assert len(target) == 19 * 19
    assert float(np.min(target.points)) > 0.0
    assert float(np.max(target.points)) < 1.0


@pytest.mark.parametrize("step", [0.0, -0.1, math.nan, math.inf])
def test_grid_refuses_a_step_that_is_not_positive_and_finite(step):
    """A NaN or infinite step would give a grid without points."""
    with pytest.raises(LipForgeError, match="grid step must be positive and finite"):
        TargetSet.grid([0.0, 0.0], [1.0, 1.0], step)


@pytest.mark.parametrize("count", [0, -5])
def test_low_discrepancy_refuses_a_count_below_one(count):
    """A count below one would give a run without targets."""
    with pytest.raises(LipForgeError, match=f"need at least one target point \\(got count {count}\\)"):
        TargetSet.low_discrepancy(Domain.box([0.0, 0.0], [1.0, 1.0]), count)


def ref_separation(points, kind=NormKind.EUCLIDEAN) -> float:
    """Reference: the minimum over the n x n block of all pairwise distances."""
    pts = np.asarray(points, dtype=float)
    if len(pts) < 2:
        return math.inf
    diff = pts[:, None, :] - pts[None, :, :]
    dists = norm_batch(diff.reshape(-1, pts.shape[1]), kind).reshape(len(pts), len(pts))
    np.fill_diagonal(dists, np.inf)
    return float(np.min(dists))


def ref_greedy_net(points, delta, seed_set=None, kind=NormKind.EUCLIDEAN) -> np.ndarray:
    """Reference: each point compared with every chosen point."""
    pts = np.asarray(points, dtype=float)
    chosen = []
    if seed_set is not None and len(seed_set):
        seeds = np.asarray(seed_set, dtype=float)
        if ref_separation(seeds, kind) < delta:
            raise LipForgeError("seed set violates separation")
        chosen = list(seeds)
    for p in pts:
        if not chosen or float(np.min(norm_batch(np.asarray(chosen) - p, kind))) >= delta:
            chosen.append(p)
    return np.asarray(chosen) if chosen else np.empty((0, pts.shape[1]))


def net_inputs(rng, d: int):
    """Point sets with duplicates, lattices whose neighbours sit exactly
    delta apart (step 2^-3) or delta apart up to rounding (step 0.1), with
    many equidistant ties and, offset by half a step, with the boxes of
    neighbours touching on cell boundaries, and random clouds, with the
    deltas to try."""
    for step, offset in itertools.product((0.125, 0.1), (0.0, 0.5)):
        axis = step * (np.arange(1, 8) + offset)
        lattice = np.array(list(itertools.product(axis, repeat=d)))[: 200]
        yield lattice, (step, step * 2, step * math.sqrt(2), step / 2)
        yield rng.permutation(lattice), (step, 3 * step)
    cloud = rng.uniform(-1.0, 2.0, size=(150, d))
    yield np.concatenate([cloud, cloud[::3], cloud[:5]]), (0.05, 0.2, 0.7)
    yield rng.integers(0, 4, size=(60, d)) * 0.25, (0.25, 0.5, 1.0)
    yield np.full((5, d), 0.3), (0.1,)


@pytest.mark.parametrize("kind", list(NormKind), ids=lambda k: k.value)
@pytest.mark.parametrize("d", [1, 2, 3])
def test_separation_agrees_with_all_pairs(d, kind):
    rng = np.random.default_rng(d)
    for pts, _ in net_inputs(rng, d):
        assert separation(pts, kind) == ref_separation(pts, kind)
        for n in (0, 1, 2, 3):
            assert separation(pts[:n], kind) == ref_separation(pts[:n], kind)
    # clouds with one closest pair, at any place in the walk
    for _ in range(20):
        pts = rng.uniform(0.0, 1.0, size=(int(rng.integers(4, 120)), d))
        assert separation(pts, kind) == ref_separation(pts, kind)
    # empty, one-point and 0-dimensional inputs, with the CellIndex walk's answers
    assert separation(np.empty((0, d)), kind) == math.inf
    assert separation(np.full((1, d), 0.25), kind) == math.inf
    assert separation(np.zeros((0, 0)), kind) == math.inf
    assert separation(np.zeros((1, 0)), kind) == math.inf
    assert separation(np.zeros((3, 0)), kind) == 0.0


@pytest.mark.parametrize("kind", list(NormKind), ids=lambda k: k.value)
@pytest.mark.parametrize("d", [1, 2, 3])
def test_greedy_net_agrees_with_rescan(d, kind):
    rng = np.random.default_rng(10 + d)
    for pts, deltas in net_inputs(rng, d):
        for delta in deltas:
            net = greedy_net(pts, delta, kind=kind)
            assert net.shape == ref_greedy_net(pts, delta, kind=kind).shape
            assert np.array_equal(net, ref_greedy_net(pts, delta, kind=kind))
            # a finer net seeded with this one, as nested_nets builds them
            finer = greedy_net(pts[::-1], delta / 2, seed_set=net, kind=kind)
            assert np.array_equal(finer, ref_greedy_net(pts[::-1], delta / 2, seed_set=net, kind=kind))
            # seeds closer than delta are refused by both
            bad = np.concatenate([net[:1], net[:1] + np.eye(d)[0] * delta / 2])
            for greedy in (greedy_net, ref_greedy_net):
                with pytest.raises(LipForgeError, match="seed set violates separation"):
                    greedy(pts, delta, seed_set=bad, kind=kind)
    # empty, one-point and 0-dimensional inputs, with the CellIndex walk's answers
    low, high = np.full((1, d), 0.25), np.full((1, d), 0.5)
    both = np.concatenate([high, low]) if kind is NormKind.ONE and d > 1 else high
    for pts, seeds, want in [
        (np.empty((0, d)), None, np.empty((0, d))),
        (np.empty((0, d)), np.empty((0, d)), np.empty((0, d))),
        (np.empty((0, d)), high, high),
        (low, None, low),
        (low, high, both),
        (np.zeros((0, 0)), None, np.zeros((0, 0))),
        (np.zeros((0, 0)), np.zeros((1, 0)), np.zeros((1, 0))),
        (np.zeros((3, 0)), None, np.zeros((1, 0))),
        (np.zeros((3, 0)), np.zeros((1, 0)), np.zeros((1, 0))),
    ]:
        net = greedy_net(pts, 0.5, seed_set=seeds, kind=kind)
        assert net.shape == want.shape and np.array_equal(net, want)
    for seeds in (np.zeros((2, d)), np.zeros((2, 0))):
        with pytest.raises(LipForgeError, match="seed set violates separation"):
            greedy_net(np.empty((0, seeds.shape[1])), 0.5, seed_set=seeds, kind=kind)


def test_nested_nets_fine_grid_memory(unit_box):
    """The 0.02 grid (2401 targets), 8 levels, in bounded memory: building
    them with an n x n separation block peaks at about 180 MB."""
    target = TargetSet.grid([0.0, 0.0], [1.0, 1.0], 0.02)
    tracemalloc.start()
    try:
        family = nested_nets(target, unit_box, 8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [len(lvl) for lvl in family.levels] == [1, 5, 37, 156, 475, 2401, 2401, 2401]
    assert peak < 32 * 2**20


def test_separation_memory_with_an_outlier_before_a_cluster():
    """A first point far from a dense cluster bounds the separation loosely,
    so one cell lists the whole cluster; separation still runs in memory
    linear in the points (every pair of that cell, built at once, peaks at
    about 370 MB here)."""
    pts = np.concatenate([[[0.0, 0.0]], 0.495 + 0.01 * np.random.default_rng(1).random((2000, 2))])
    tracemalloc.start()
    try:
        got = separation(pts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == min(float(norm_batch(pts[:i] - p, NormKind.EUCLIDEAN).min()) for i, p in enumerate(pts) if i)
    assert peak < 4 * 2**20


def _net_pin_input(name: str):
    """(target, domain, k_max) of a net pin."""
    square, cube = Domain.box([0.0, 0.0], [1.0, 1.0]), Domain.box([0.0] * 3, [1.0] * 3)
    if name.startswith("grid"):
        step, k_max = {"grid-0.05": (0.05, 8), "grid-0.02": (0.02, 8)}[name]
        return TargetSet.grid([0.0, 0.0], [1.0, 1.0], step), square, k_max
    if name == "cube-0.1":
        return TargetSet.grid([0.0] * 3, [1.0] * 3, 0.1), cube, 6
    domain = {
        "halton-cube-sup": Domain.box([0.0] * 3, [1.0] * 3, NormKind.SUP),
        "halton-cube-one": Domain.box([0.0] * 3, [1.0] * 3, NormKind.ONE),
        "halton-ball": Domain.ball([0.1, -0.2], 1.0),
    }[name]
    return TargetSet.low_discrepancy(domain, 2000, seed=3), domain, 7


# sha256 of nested_nets(...).to_csv(): the standard (0.05) grid, the wide
# run's cube, the 0.02 grid, and 2000 Halton targets (seed 3) in a 3-D box
# under the sup and one norms and in a Euclidean disc
NET_SHA256 = {
    "grid-0.05": "1c9d4e895be88d73d2e6d56eb06ea7c64c1070d480a330b0382d32654bdbb5a4",
    "cube-0.1": "25c2d6a6d0cff8f3a75b339b2a0c505650434167ec34e01df76074535983d4a4",
    "grid-0.02": "766682eb6f026b318c518c3f680d9834a633184a8250a67c0b4da532261cce70",
    "halton-cube-sup": "b525028e191ee551f12e18275a683d014e7d70a57f99114f78e9bd27aa27c974",
    "halton-cube-one": "e98b351f04f7a5524606c74c8777b22207390f122568a0978fee8531f381e455",
    "halton-ball": "f8e5d9fc0f677b409a062bb70be78ec09dc09332cf1ab2530ee148ee8e01228d",
}


@pytest.mark.parametrize("name", list(NET_SHA256))
def test_net_family_bytes_are_pinned(name):
    """The nets' CSV, byte for byte, on grids and Halton clouds in all three norms."""
    target, domain, k_max = _net_pin_input(name)
    family = nested_nets(target, domain, k_max)
    assert hashlib.sha256(family.to_csv().encode()).hexdigest() == NET_SHA256[name]


@pytest.mark.parametrize("points", [[[0.5, 0.5, 0.5]], [[0.5], [0.25]], np.empty((0, 3))], ids=["3d", "1d", "empty-3d"])
def test_nested_nets_refuse_targets_of_another_dimension(unit_box, points):
    """Target rows of another dimension than the domain's are refused by
    name: 3-D rows in a 2-D box failed in numpy, and 1-D rows broadcast
    into a 1-D net family."""
    target = TargetSet.from_points(points)
    with pytest.raises(LipForgeError, match=f"^points of dimension {target.points.shape[1]} in a domain of dimension 2$"):
        nested_nets(target, unit_box, 3)


def loop_low_discrepancy(domain, count, seed):
    """TargetSet.low_discrepancy's points drawn one index at a time."""
    lo, hi = domain.bounding_box()
    pts = []
    idx = (seed & 0x7FFFFFFF) * 389 + 1
    while len(pts) < count and idx < 10_000_000:
        cand = lo + (hi - lo) * _halton(np.array([idx]), domain.dim)[0]
        idx += 1
        # the per-point float margin, as dist_to_boundary once computed it
        if domain.shape == "box":
            margin = float(np.min(np.minimum(cand - domain.lo, domain.hi - cand)))
        else:
            margin = domain.radius - float(norm(cand - domain.center, domain.norm))
        if margin > 0:
            pts.append(cand)
    return np.asarray(pts) if pts else np.empty((0, domain.dim))


def test_low_discrepancy_matches_per_index_loop():
    """Block draws accept the same points as single draws, across blocks
    and up to the index cap: seed 25706 starts 365 indices below 10^7."""
    domains = (Domain.box([0, 0], [1, 1]), Domain.ball([0.2, 0.1, 0.3], 0.7, NormKind.SUP), Domain.ball([0, 0], 1.0))
    cases = [(dom, seed, count) for dom in domains for seed, count in ((0, 1), (3, 100), (25706, 1000))]
    for domain, seed, count in cases + [(domains[0], 0, 5000)]:
        got = TargetSet.low_discrepancy(domain, count, seed).points
        ref = loop_low_discrepancy(domain, count, seed)
        assert got.shape == ref.shape
        assert got.tobytes() == ref.tobytes()
    assert len(TargetSet.low_discrepancy(domains[0], 1000, 25706)) == 365


def test_levels_of_compares_points_as_floats(unit_box):
    """levels_of lists the levels whose rows equal the point as floats, as a
    per-level comparison of every row does: -0.0 finds 0.0, NaN finds
    nothing, and a point of no level gets no level."""
    family = nested_nets(TargetSet.grid([0.0, 0.0], [1.0, 1.0], 0.05), unit_box, 8)
    queries = [row for lvl in family.levels for row in lvl[::7]] + [np.array([0.5, 0.5 + 1e-16]), np.array([0.3, 0.7])]
    for x in queries:
        assert family.levels_of(x) == [k for k, lvl in enumerate(family.levels, 1) if np.any(np.all(lvl == x, axis=1))]
    zero = NetFamily((np.array([[0.0, 0.5]]), np.array([[0.0, 0.5], [np.nan, 0.5]])))
    assert zero.levels_of(np.array([-0.0, 0.5])) == [1, 2]
    assert zero.levels_of(np.array([np.nan, 0.5])) == []
