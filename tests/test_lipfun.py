import numpy as np
import pytest

from lipforge import (
    AddConst,
    Const,
    Domain,
    Linear,
    LinearMap,
    LipForgeError,
    NormKind,
    NormOf,
    Scale,
    Sum,
    deserialize,
    eval_batch,
    eval_point,
    identity,
    patch,
    radial_blend,
    serialize,
    sup_dist,
    zero_map,
)
from lipforge.lipfun import Patched, Patch
from lipforge.space import norm_batch


@pytest.fixture
def unit_box():
    return Domain.box([0.0, 0.0], [1.0, 1.0])


def test_linear_eval():
    f = Linear(LinearMap(np.array([[2.0, 0.0]])))
    assert eval_point(f, [1.0, 1.0])[0] == 2.0


def test_blend_middle_branch_value():
    # direct evaluation of the middle branch: b (|x|-a) / (|x| (b-a)) * x
    phi = radial_blend(1.0, 2.0, zero_map(1, 1), identity(1))
    assert eval_point(phi, [1.5])[0] == pytest.approx(1.0, abs=1e-15)
    assert eval_point(phi, [0.5])[0] == 0.0
    assert eval_point(phi, [3.0])[0] == 3.0


def test_blend_requires_origin_zero():
    shifted = AddConst(identity(1), np.array([1.0]))
    with pytest.raises(LipForgeError):
        radial_blend(1.0, 2.0, shifted, zero_map(1, 1))


def test_blend_requires_ordered_radii():
    with pytest.raises(LipForgeError):
        radial_blend(2.0, 1.0, zero_map(1, 1), identity(1))


def test_blend_deviation_bound_with_zero_inside():
    # with the inner mapping zero, the blend stays within a * Lip(f2) of f2
    phi = radial_blend(1.0, 2.0, zero_map(1, 1), identity(1))
    xs = np.linspace(-4, 4, 2001)[:, None]
    gap = np.max(np.abs(eval_batch(phi, xs) - xs))
    assert gap <= 1.0 + 1e-12


def test_lip_cert_rules():
    assert Scale(0.5, NormOf(2)).lip_cert == 0.5
    assert radial_blend(1.0, 2.0, zero_map(1, 1), identity(1)).lip_cert == pytest.approx(2.0)
    assert Sum(Scale(0.3, identity(2)), Scale(0.2, identity(2))).lip_cert == pytest.approx(0.5)
    assert AddConst(NormOf(3), np.array([7.0])).lip_cert == 1.0
    assert Const(np.array([3.0, 1.0]), 2).lip_cert == 0.0


def test_lipschitz_bound_sampled_pairs():
    rng = np.random.default_rng(1)
    funs = [
        NormOf(2, sign=-1),
        radial_blend(0.7, 1.9, Scale(0.5, identity(2)), Scale(0.5, identity(2))),
        Sum(Linear(LinearMap(rng.uniform(-0.3, 0.3, size=(2, 2)))), Scale(0.2, identity(2))),
    ]
    for f in funs:
        X = rng.uniform(-2, 2, size=(10_000, 2))
        Y = rng.uniform(-2, 2, size=(10_000, 2))
        gap = norm_batch(X - Y, NormKind.EUCLIDEAN)
        keep = gap > 1e-9
        diff = norm_batch(eval_batch(f, X[keep]) - eval_batch(f, Y[keep]), NormKind.EUCLIDEAN)
        assert float(np.max(diff / gap[keep])) <= f.lip_cert + 1e-9


def test_patched_empty_is_outer(unit_box):
    f = patch(NormOf(2), [], unit_box)
    z = np.array([0.3, 0.4])
    assert eval_point(f, z)[0] == eval_point(NormOf(2), z)[0]


def test_patch_overlap_rejected(unit_box):
    inner = Const(np.array([0.0]), 2)
    # identical boundary values are irrelevant; overlap must fail first
    with pytest.raises(LipForgeError, match="overlap"):
        patch(
            Const(np.array([0.0]), 2),
            [(np.array([0.4, 0.4]), 0.1, inner), (np.array([0.45, 0.4]), 0.1, inner)],
            unit_box,
        )


def test_patch_disjoint_accepted(unit_box):
    inner = Const(np.array([0.0]), 2)
    f = patch(
        Const(np.array([0.0]), 2),
        [(np.array([0.25, 0.25]), 0.1, inner), (np.array([0.75, 0.75]), 0.1, inner)],
        unit_box,
    )
    assert isinstance(f, Patched)


def test_patch_escaping_domain_rejected(unit_box):
    inner = Const(np.array([0.0]), 2)
    with pytest.raises(LipForgeError, match="escapes"):
        patch(Const(np.array([0.0]), 2), [(np.array([0.05, 0.5]), 0.1, inner)], unit_box)


def test_patch_boundary_mismatch_rejected(unit_box):
    with pytest.raises(LipForgeError, match="mismatch"):
        patch(
            Const(np.array([0.0]), 2),
            [(np.array([0.5, 0.5]), 0.1, Const(np.array([1.0]), 2))],
            unit_box,
        )


def test_patch_identity_inner_changes_nothing(unit_box):
    outer = NormOf(2)
    f = patch(outer, [(np.array([0.5, 0.5]), 0.2, NormOf(2))], unit_box)
    rng = np.random.default_rng(2)
    Z = rng.uniform(0, 1, size=(500, 2))
    assert np.array_equal(eval_batch(f, Z), eval_batch(outer, Z))


def test_patched_grid_agrees_with_naive_scan(unit_box):
    rng = np.random.default_rng(3)
    centers = unit_box.grid(6)
    keep = [c for c in centers if unit_box.dist_to_boundary(c) > 0.06]
    patches = [Patch(c, 0.05, Const(np.array([0.0]), 2)) for c in keep]
    node = Patched(Const(np.array([0.0]), 2), tuple(patches), NormKind.EUCLIDEAN)
    for _ in range(10_000):
        z = rng.uniform(0, 1, size=2)
        assert node.resolve(z) == node.resolve_naive(z)


def test_sup_dist_contracts(unit_box):
    f = NormOf(2)
    g = AddConst(NormOf(2), np.array([0.25]))
    assert sup_dist(f, f, unit_box) == 0.0
    assert sup_dist(Const(np.array([0.0]), 2), Const(np.array([0.75]), 2), unit_box) == pytest.approx(0.75)
    a = sup_dist(f, g, unit_box, budget=128, seed=9)
    b = sup_dist(g, f, unit_box, budget=128, seed=9)
    assert a == b == pytest.approx(0.25)


def test_serialize_round_trip_linear():
    f = Linear(LinearMap(np.array([[0.25, -1.5], [3.0, 0.125]])))
    g = deserialize(serialize(f))
    assert np.array_equal(g.map.matrix, f.map.matrix)


def test_serialize_round_trip_nested(unit_box):
    from lipforge.lipfun import shift_conjugate

    blend = radial_blend(0.05, 0.1, zero_map(2, 2), identity(2))
    center = np.array([0.5, 0.5])
    warp = patch(identity(2), [(center, 0.1, shift_conjugate(blend, center, NormKind.EUCLIDEAN))], unit_box,
                 boundary_samples=8)
    f = Scale(0.5, Sum(NormOf(2), Linear(LinearMap(np.array([[0.1, 0.2]])))))
    tree = Sum(f, Scale(0.25, NormOf(2)))
    rng = np.random.default_rng(4)
    Z = rng.uniform(0, 1, size=(1000, 2))
    clone = deserialize(serialize(tree))
    assert np.array_equal(eval_batch(clone, Z), eval_batch(tree, Z))
    clone2 = deserialize(serialize(warp))
    assert np.array_equal(eval_batch(clone2, Z), eval_batch(warp, Z))


def test_deserialize_rejects_garbage():
    with pytest.raises(LipForgeError, match="malformed artifact"):
        deserialize(b"{not json")
    with pytest.raises(LipForgeError, match="schema"):
        deserialize(b'{"schema": "lipforge-fun/99", "root": {}}')
    blob = serialize(NormOf(2))
    with pytest.raises(LipForgeError, match="malformed artifact"):
        deserialize(blob[: len(blob) // 2])


def test_eval_dimension_mismatch():
    with pytest.raises(LipForgeError, match="dimension"):
        eval_point(NormOf(2), [1.0, 2.0, 3.0])


def test_serialize_depth_guard(monkeypatch):
    import lipforge.lipfun as lipfun_mod

    monkeypatch.setattr(lipfun_mod, "MAX_TREE_DEPTH", 5)
    deep = NormOf(1)
    for _ in range(8):
        deep = Scale(0.5, deep)
    with pytest.raises(LipForgeError, match="deeper"):
        serialize(deep)


def _scale_chain(levels: int):
    deep = NormOf(2)
    for _ in range(levels):
        deep = Scale(0.5, deep)
    return deep


def test_tree_at_depth_limit_verifies():
    """The deepest tree the decoder accepts still works end to end under the
    default recursion limit."""
    from lipforge.lipfun import MAX_TREE_DEPTH
    from lipforge.numerics import exact_mpf
    from lipforge.verify import artifact_suite

    fun = deserialize(serialize(_scale_chain(MAX_TREE_DEPTH)))
    assert fun.lip_cert == 0.5**MAX_TREE_DEPTH
    expected = 0.5**MAX_TREE_DEPTH * 5.0**0.5
    assert eval_point(fun, [1.0, 2.0])[0] == pytest.approx(expected, rel=1e-12)
    exact = eval_point(fun, np.array([exact_mpf(1.0), exact_mpf(2.0)], dtype=object))
    assert float(exact[0]) == pytest.approx(expected, rel=1e-12)
    records = artifact_suite(fun)
    assert all(r.ok for r in records), [r for r in records if not r.ok]


def test_tree_over_depth_limit_rejected_on_decode():
    import json

    from lipforge.lipfun import MAX_TREE_DEPTH

    obj = json.loads(serialize(_scale_chain(MAX_TREE_DEPTH)))
    obj["root"] = {"kind": "scale", "c": "0.5", "f": obj["root"]}
    with pytest.raises(LipForgeError, match="deeper"):
        deserialize(json.dumps(obj))


def test_float_and_exact_paths_agree():
    from lipforge.numerics import exact_mpf

    f = radial_blend(0.5, 1.5, Scale(0.4, identity(2)), Scale(0.5, identity(2)))
    rng = np.random.default_rng(5)
    for _ in range(50):
        z = rng.uniform(-2, 2, size=2)
        ze = np.array([exact_mpf(v) for v in z], dtype=object)
        a = eval_point(f, z)
        b = eval_point(f, ze)
        assert abs(a[0] - float(b[0])) <= 1e-12
        assert abs(a[1] - float(b[1])) <= 1e-12


def test_batch_and_point_paths_agree():
    f = radial_blend(0.5, 1.5, Scale(0.4, identity(2)), Scale(0.5, identity(2)))
    rng = np.random.default_rng(6)
    Z = rng.uniform(-2, 2, size=(200, 2))
    V = eval_batch(f, Z)
    for z, v in zip(Z, V):
        assert np.allclose(eval_point(f, z), v, atol=1e-14)
