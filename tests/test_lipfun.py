import functools
import gc
import itertools
import json
import math
import re
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from lipforge import (
    AddConst,
    Affine,
    Const,
    Domain,
    Linear,
    LinearMap,
    LipForgeError,
    NormKind,
    NormOf,
    Scale,
    Sum,
    TargetSet,
    deserialize,
    eval_batch,
    eval_point,
    identity,
    patch,
    radial_blend,
    run_game,
    serialize,
    sup_dist,
    zero_map,
)
from lipforge.lipfun import (
    CONTINUITY_BLOCK_ROWS,
    CONTINUITY_TOL,
    FLOAT_RESOLVE_REL,
    Patch,
    Patched,
    LipFun,
    Precompose,
    RadialBlend,
    _check_patch_continuity,
    _identity_map,
    _sphere_directions,
    add_const,
    fun_from_dict,
    shift_conjugate,
)
from lipforge.numerics import as_vector, cached
from lipforge.space import CellTable, norm_batch, unit_directions
from lipforge.verify import artifact_suite

from cell_index import CellIndex


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


def test_each_node_kind_has_one_constructor():
    assert radial_blend is RadialBlend and add_const is AddConst


def _blend_record(f1: dict, a="0.25", b="0.5") -> dict:
    zero = {"kind": "const", "c": ["0.0"], "in_dim": 1}
    return {"kind": "radial_blend", "a": a, "b": b, "f1": f1, "f2": zero, "norm": "euclidean"}


@pytest.mark.parametrize(
    "make",
    [
        # below the 1e-12 a float test would forgive, at radii where it makes a slope of 1e-7
        lambda: radial_blend(1e-6, 2e-6, Const(np.array([1e-13]), 1), zero_map(1, 1)),
        lambda: radial_blend(0.5, 1.0, zero_map(1, 1), Const(as_vector([mpmath.mpf(2) ** -300]), 1)),
        # a quotient of 4 across the shell, which a certificate of 0 would miss
        lambda: deserialize(json.dumps(_doc(_blend_record({"kind": "const", "c": ["1.0"], "in_dim": 1}))).encode()),
        lambda: fun_from_dict(_doc(_blend_record({"kind": "const", "c": ["1.0"], "in_dim": 1}))),
    ],
    ids=["built-1e-13", "built-2^-300", "deserialize", "fun_from_dict"],
)
def test_blend_refuses_a_piece_that_does_not_vanish_at_the_origin(make):
    with pytest.raises(LipForgeError, match="^blended mappings must vanish at the origin$"):
        make()


def test_blend_decides_vanishing_at_construction_precision():
    """The pieces are evaluated at the origin at CONSTRUCTION_DPS digits,
    whatever the caller's precision: 1 + 2^-100 - 1 is 0 at 15 digits but
    not at 60, and 0.75 - 0.75 is exactly 0 at both."""
    tiny = AddConst(Sum(Const(np.array([1.0]), 1), Const(np.array([2.0 ** -100]), 1)), [-1.0])
    cancels = AddConst(Const(np.array([0.75]), 1), [-0.75])
    with mpmath.workdps(15):
        assert eval_point(tiny, as_vector([mpmath.mpf(0)]))[0] == 0
        with pytest.raises(LipForgeError, match="must vanish at the origin"):
            radial_blend(1.0, 2.0, tiny, identity(1))
        assert radial_blend(1.0, 2.0, cancels, identity(1)).lip_cert == 2.0


def test_blend_checks_dimensions_before_vanishing():
    with pytest.raises(LipForgeError, match="blended mappings must share dimensions"):
        radial_blend(1.0, 2.0, Const(np.array([1.0]), 1), Const(np.array([0.0, 0.0]), 1))


def test_a_non_vanishing_decoded_blend_waits_for_document_order():
    """The refusal is a diagnostic of the decoder: an earlier failure is
    reported first, and it comes before a later one."""
    blend = _blend_record({"kind": "const", "c": ["1.0"], "in_dim": 1})
    for root, message in (
        ({"kind": "sum", "f": {"kind": "scale", "c": "x", "f": _ONE}, "g": blend}, "malformed artifact: bad numeral 'x'"),
        ({"kind": "sum", "f": blend, "g": {"kind": "nope"}}, "blended mappings must vanish at the origin"),
    ):
        with pytest.raises(LipForgeError) as info:
            deserialize(json.dumps(_doc(root)))
        assert str(info.value) == message


def test_vector_constants_given_as_lists_are_packed():
    """AddConst and Affine pack a list as Const does, so the node evaluates
    on both paths and writes the bytes of its packed twin; an ndarray is
    kept as the same object."""
    m = LinearMap(np.array([[1.0, 0.0]]))
    for listed, packed in (
        (AddConst(NormOf(2), [1.0]), AddConst(NormOf(2), np.array([1.0]))),
        (Affine([0.5], m, [0.25, 0.25]), Affine(np.array([0.5]), m, np.array([0.25, 0.25]))),
    ):
        assert eval_point(listed, [0.5, 0.5])[0] == eval_point(packed, [0.5, 0.5])[0]
        assert eval_batch(listed, np.array([[0.5, 0.5]]))[0, 0] == eval_batch(packed, np.array([[0.5, 0.5]]))[0, 0]
        exact = as_vector([mpmath.mpf(0.5), mpmath.mpf(0.5)])
        assert eval_point(listed, exact)[0] == eval_point(packed, exact)[0]
        assert serialize(listed) == serialize(packed)
    c = np.array([0.5])
    assert Const(c, 2).c is c and AddConst(NormOf(2), c).p is c and Affine(c, m, np.array([0.0, 0.0])).base is c


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


def _lin(x: float) -> Linear:
    """A mapping of R whose certificate is x >= 0: a 1x1 operator norm is exact."""
    return Linear(LinearMap(np.array([[x]])))


def _rational(x) -> Fraction:
    return Fraction(int(x.man)) * Fraction(2) ** int(x.exp) if isinstance(x, mpmath.mpf) else Fraction(x)


# Each node kind's certificate formula, at its children's certificates l1
# and l2 and its constants c (a scale) or a < b (blend radii).
CERT_FORMULAS = {
    "sum": (lambda l1, l2, c, a, b: Sum(_lin(l1), _lin(l2)), lambda l1, l2, c, a, b: l1 + l2),
    "scale": (lambda l1, l2, c, a, b: Scale(c, _lin(l1)), lambda l1, l2, c, a, b: abs(c) * l1),
    "precompose": (lambda l1, l2, c, a, b: Precompose(_lin(l1), _lin(l2)), lambda l1, l2, c, a, b: l1 * l2),
    "radial_blend": (lambda l1, l2, c, a, b: RadialBlend(a, b, _lin(l1), _lin(l2)),
                     lambda l1, l2, c, a, b: (l1 + l2) * (1 + a / (b - a))),
}


@pytest.mark.parametrize("kind", list(CERT_FORMULAS))
def test_lip_cert_is_the_least_float_above_its_formula(kind):
    """A certificate is its formula's exact value at its children's
    certificates and its stored constants, float or mpf, rounded up once:
    never below that value, and the least float that is not."""
    make, formula = CERT_FORMULAS[kind]
    rng = np.random.default_rng(11)
    with mpmath.workdps(60):
        for trial in range(200):
            l1, l2, c, a, width = rng.uniform(0.01, 1.0, size=5).tolist()
            if trial % 2:  # constants stored as 60-digit mpfs, as the game stores them
                c, a, width = mpmath.mpf(c) / 3, mpmath.mpf(a) / 3, mpmath.mpf(width) / 7
            c, b = -c if trial % 4 > 1 else c, a + width
            exact = formula(*map(_rational, (l1, l2, c, a, b)))
            cert = make(l1, l2, c, a, b).lip_cert
            assert Fraction(cert) >= exact and Fraction(math.nextafter(cert, 0.0)) < exact, (trial, cert)


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


@pytest.mark.parametrize("d", [1, 3])
def test_patch_refuses_balls_of_another_dimension(unit_box, d):
    """Balls in R^d on a 2-D domain are refused by name, where 3-D centers
    failed in numpy and 1-D ones broadcast against the box."""
    inner = Const(np.array([0.0]), d)
    with pytest.raises(LipForgeError, match=f"^points of dimension {d} in a domain of dimension 2$"):
        patch(Const(np.array([0.0]), d), [(np.full(d, 0.5), 0.1, inner)], unit_box)


def test_patch_boundary_mismatch_rejected(unit_box):
    with pytest.raises(LipForgeError, match="mismatch"):
        patch(
            Const(np.array([0.0]), 2),
            [(np.array([0.5, 0.5]), 0.1, Const(np.array([1.0]), 2))],
            unit_box,
        )


DEEP_RADIUS = 1e-20  # below FLOAT_RESOLVE_REL: bounded exactly from the center
DEEP_CENTER = np.array([0.5, 0.25])


def collapsed_norm():
    """|.| composed with a warp that maps the 0.01-ball around DEEP_CENTER
    onto DEEP_CENTER, like the outer of linearize_near's affine layer."""
    warp = radial_blend(0.01, 0.1, zero_map(2, 2), identity(2))
    return Precompose(NormOf(2), shift_conjugate(warp, DEEP_CENTER, NormKind.EUCLIDEAN))


def test_patch_deep_mismatch_rejected(unit_box):
    assert DEEP_RADIUS < FLOAT_RESOLVE_REL
    with pytest.raises(LipForgeError, match="mismatch"):
        patch(Const(np.array([0.0]), 2), [(DEEP_CENTER, DEEP_RADIUS, Const(np.array([1.0]), 2))], unit_box)


def test_patch_deep_mismatch_rejected_through_collapsed_outer(unit_box):
    wrong = Const(np.array([float(np.linalg.norm(DEEP_CENTER)) + 1e-6]), 2)
    with pytest.raises(LipForgeError, match="mismatch"):
        patch(collapsed_norm(), [(DEEP_CENTER, DEEP_RADIUS, wrong)], unit_box)


def test_patch_deep_match_accepted(unit_box):
    outer = collapsed_norm()
    inner = Const(np.array([float(np.linalg.norm(DEEP_CENTER))]), 2)
    assert isinstance(patch(outer, [(DEEP_CENTER, DEEP_RADIUS, inner)], unit_box), Patched)


def off_axis_jump():
    """1e12 * (||z - x||_1 - r) around x = DEEP_CENTER: exactly 0 at the 2d
    axis points x +- r*e_a, but (sqrt(2) - 1) * 1e-8 on the sphere's
    diagonal, beyond CONTINUITY_TOL."""
    translate = Affine(np.zeros(2), _identity_map(2, NormKind.EUCLIDEAN), DEEP_CENTER)
    return Scale(1e12, AddConst(Precompose(NormOf(2, 1, NormKind.ONE), translate), np.array([-DEEP_RADIUS])))


def test_off_axis_jump_is_between_the_axis_points():
    from lipforge.numerics import exact_mpf

    inner = off_axis_jump()
    with mpmath.workdps(80):
        x = [exact_mpf(c) for c in DEEP_CENTER]
        r = exact_mpf(DEEP_RADIUS)
        assert eval_point(inner, np.array([x[0] + r, x[1]], dtype=object))[0] == 0
        diag = eval_point(inner, np.array([x[0] + r / mpmath.sqrt(2), x[1] + r / mpmath.sqrt(2)], dtype=object))[0]
        assert diag > CONTINUITY_TOL


def test_patch_deep_off_axis_mismatch_rejected(unit_box):
    with pytest.raises(LipForgeError, match="mismatch"):
        patch(Const(np.array([0.0]), 2), [(DEEP_CENTER, DEEP_RADIUS, off_axis_jump())], unit_box)


def test_decoded_deep_off_axis_mismatch_fails_verify():
    from lipforge.verify import artifact_suite

    node = Patched(Const(np.array([0.0]), 2), (Patch(DEEP_CENTER, DEEP_RADIUS, off_axis_jump()),))
    results = {r.name: r for r in artifact_suite(deserialize(serialize(node)))}
    assert not results["artifact patch continuity"].ok
    assert "mismatch" in results["artifact patch continuity"].detail


@pytest.mark.parametrize("kind", list(NormKind), ids=lambda k: k.value)
def test_sphere_directions_cached_and_read_only(kind):
    _sphere_directions.cache_clear()
    dirs = _sphere_directions(128, 2, 5, kind)
    assert np.array_equal(dirs, unit_directions(128, 2, seed=5, kind=kind))
    assert _sphere_directions(128, 2, 5, kind) is dirs
    with pytest.raises(ValueError):
        dirs[0, 0] = 0.0


def test_patch_draws_each_direction_set_once(unit_box, monkeypatch):
    import lipforge.lipfun as lipfun_mod

    drawn = []

    def counting(count, dim, seed, kind=NormKind.EUCLIDEAN):
        drawn.append((count, dim, seed, kind))
        return unit_directions(count, dim, seed=seed, kind=kind)

    monkeypatch.setattr(lipfun_mod, "unit_directions", counting)
    _sphere_directions.cache_clear()
    centers = [np.array([0.25, 0.25]), np.array([0.75, 0.25]), np.array([0.5, 0.75])]
    patches = [(c, 0.1, NormOf(2)) for c in centers]
    for _ in range(2):
        patch(NormOf(2), patches, unit_box)
    assert drawn == [(128, 2, i, NormKind.EUCLIDEAN) for i in range(len(centers))]
    _sphere_directions.cache_clear()


def test_patch_identity_inner_changes_nothing(unit_box):
    outer = NormOf(2)
    f = patch(outer, [(np.array([0.5, 0.5]), 0.2, NormOf(2))], unit_box)
    rng = np.random.default_rng(2)
    Z = rng.uniform(0, 1, size=(500, 2))
    assert np.array_equal(eval_batch(f, Z), eval_batch(outer, Z))


def naive_claims(node: Patched, Z: np.ndarray) -> np.ndarray:
    """Reference resolver: a mask over the whole batch per patch, in index
    order, with the first claiming patch winning; -1 where none claims."""
    claims = np.full(len(Z), -1)
    for idx, p in enumerate(node.patches):
        mask = (claims < 0) & (norm_batch(Z - p.center_float, node.norm_kind) < p.radius_float)
        claims[mask] = idx
    return claims


def resolve_naive(node: Patched, z: np.ndarray) -> int | None:
    idx = int(naive_claims(node, z[None, :])[0])
    return None if idx < 0 else idx


def naive_eval_batch(node: Patched, Z: np.ndarray) -> np.ndarray:
    out = np.empty((len(Z), node.out_dim))
    claims = naive_claims(node, Z)
    for idx in range(-1, len(node.patches)):
        mask = claims == idx
        if mask.any():
            f = node.outer if idx < 0 else node.patches[idx].inner
            out[mask] = f._eval_batch(Z[mask])
    return out


@pytest.mark.parametrize("kind", list(NormKind), ids=lambda k: k.value)
@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("batch", [0, 1, 22, 63, 64, 1000])
@pytest.mark.parametrize("count", [1, 15, 16, 40])
def test_patched_grid_agrees_with_naive_scan(count, batch, d, kind):
    """The hash-grid resolver against the mask loop, bit for bit, at patch
    centers, on patch spheres and outside every ball."""
    rng = np.random.default_rng(1000 * count + 10 * batch + d)
    side = int(np.ceil(count ** (1.0 / d)))
    cells = np.array(list(itertools.product(range(side), repeat=d))[:count], dtype=float)
    centers = (cells + 0.5) / side
    # unequal radii below 0.4 of the lattice spacing keep the balls disjoint
    radii = rng.uniform(0.1, 0.4, size=count) / side
    patches = tuple(
        Patch(c, float(r), Affine(rng.uniform(-1, 1, size=2), LinearMap(rng.uniform(-1, 1, size=(2, d))), c))
        for c, r in zip(centers, radii)
    )
    node = Patched(Linear(LinearMap(rng.uniform(-1, 1, size=(2, d)))), patches, kind)
    owner = rng.integers(0, count, size=batch)
    # 0: at the center, 1: on the sphere up to rounding, 2: in the gap between balls
    where = np.arange(batch) % 3
    dirs = rng.normal(size=(batch, d))
    dirs /= norm_batch(dirs, kind)[:, None]
    Z = centers[owner] + (np.array([0.0, 1.0, 1.5])[where] * radii[owner])[:, None] * dirs
    claims = naive_claims(node, Z)
    assert np.array_equal(claims[where == 0], owner[where == 0])
    assert np.all(claims[where == 2] == -1)
    assert np.array_equal(node._claims(Z), claims)
    assert np.array_equal(node._eval_batch(Z), naive_eval_batch(node, Z))
    assert [node.resolve(z) for z in Z] == [resolve_naive(node, z) for z in Z]


def test_overlapping_patches_are_refused():
    """Two radius-0.2 balls at (0.4, 0.5) and (0.6, 0.5), each with inner
    0.2 - ||z - c||, would certify lip_cert 1 yet jump by 0.2 across a sphere:
    Patched refuses them whether built directly or decoded."""
    def cone(c):
        dist = Precompose(NormOf(2), Affine(np.zeros(2), LinearMap(np.eye(2)), c))
        return Sum(Const(np.array([0.2]), 2), Scale(-1.0, dist))

    centers = [np.array([0.4, 0.5]), np.array([0.6, 0.5])]
    with pytest.raises(LipForgeError, match="patch overlap"):
        Patched(Const(np.array([0.0]), 2), tuple(Patch(c, 0.2, cone(c)) for c in centers), NormKind.EUCLIDEAN)
    # encode a disjoint pair, then move the second ball onto its cone's center
    apart = (Patch(centers[0], 0.2, cone(centers[0])), Patch(np.array([0.8, 0.5]), 0.19, cone(centers[1])))
    obj = json.loads(serialize(Patched(Const(np.array([0.0]), 2), apart)))
    obj["root"]["patches"][1].update(center=["0.6", "0.5"], radius="0.2")
    with pytest.raises(LipForgeError, match="patch overlap"):
        fun_from_dict(obj)
    # concentric balls overlap too, whatever their order
    c = np.array([0.5, 0.5])
    nested = tuple(Patch(c, r, Const(np.array([float(i)]), 2)) for i, r in enumerate((0.2, 0.3, 0.1)))
    with pytest.raises(LipForgeError, match="patch overlap"):
        Patched(Const(np.array([-1.0]), 2), nested, NormKind.EUCLIDEAN)


@pytest.mark.parametrize(
    "center, radius",
    [(["nan", "0.5"], "0.1"), (["0.5", "inf"], "0.1"), (["1e400", "0.5"], "0.1"), (["0.5", "0.5"], "inf")],
)
def test_patched_refuses_non_finite_balls(center, radius):
    """A patch whose center coordinate or radius is not a finite float is
    refused when built or decoded, before the patch index casts it."""
    node = Patched(Const(np.array([0.0]), 2), (Patch(np.array([0.5, 0.5]), 0.1, Const(np.array([0.0]), 2)),))
    obj = json.loads(serialize(node))
    obj["root"]["patches"][0].update(center=center, radius=radius)
    with pytest.raises(LipForgeError, match="patch center and radius must be finite"):
        fun_from_dict(obj)
    with pytest.raises(LipForgeError, match="patch center and radius must be finite"):
        Patched(Const(np.array([0.0]), 2), (Patch(np.array([float(x) for x in center]), float(radius), Const(np.array([0.0]), 2)),))


def test_patched_accepts_a_radius_below_the_float_range():
    """Finiteness is tested on the float copy, not its sign: a deep radius
    whose float underflows to 0.0 is still a ball."""
    radius = mpmath.mpf(2) ** -2000
    node = Patched(Const(np.array([0.0]), 2), (Patch(np.array([0.5, 0.5]), radius, Const(np.array([1.0]), 2)),))
    assert node.patches[0].radius_float == 0.0
    assert serialize(fun_from_dict(json.loads(serialize(node)))) == serialize(node)


def test_patched_names_the_first_faulty_patch():
    """Patch 0's non-finite center is the error, although patch 1's wrong
    dimension is a check that comes earlier for one patch."""
    inner = Const(np.array([0.0]), 2)
    patches = (Patch(np.array([np.nan, 0.5]), 0.1, inner), Patch(np.array([0.5, 0.5, 0.5]), 0.1, inner))
    with pytest.raises(LipForgeError, match="^patch center and radius must be finite$"):
        Patched(Const(np.array([0.0]), 2), patches)


def _reference_patch_fault(outer, patches) -> str | None:
    """The message of the earlier per-patch loop of Patched.__post_init__."""
    for p in patches:
        if (p.inner.in_dim, p.inner.out_dim) != (outer.in_dim, outer.out_dim):
            return "patch inner mapping has wrong dimensions"
        if len(p.center) != outer.in_dim:
            return "patch center has wrong dimension"
        if not p.radius > 0:
            return "patch radius must be positive"
        if not (np.all(np.isfinite(p.center_float)) and np.isfinite(p.radius_float)):
            return "patch center and radius must be finite"
    return None


def test_patched_refuses_as_the_per_patch_loop():
    """Seeded patch lists with faults of every kind (and none) at random
    places, float and mpf constants, are refused with the message of the
    per-patch loop, whose first faulty patch names the error."""
    rng = np.random.default_rng(23)
    outer = Const(np.array([0.0]), 2)
    faults = [
        lambda c, r: (c, r, Const(np.array([0.0, 0.0]), 2)),
        lambda c, r: (np.append(c, 0.5), r, None),
        lambda c, r: (c, -r, None),
        lambda c, r: (c, mpmath.mpf(0), None),
        lambda c, r: (c, float("nan"), None),
        lambda c, r: (np.array([np.inf, c[1]]), r, None),
        lambda c, r: (c, mpmath.mpf(2) ** 5000, None),
        lambda c, r: (np.array([mpmath.mpf(2) ** 5000, mpmath.mpf(c[1])], dtype=object), r, None),
    ]
    for _ in range(300):
        count = int(rng.integers(1, 6))
        patches = []
        for j in range(count):
            c, r, inner = np.array([0.1 + 0.2 * j, 0.5]), 0.01 * (j + 1), None
            if j % 2:
                r = mpmath.mpf(2) ** -int(rng.integers(1, 3000))
            if rng.random() < 0.3:
                c, r, inner = faults[int(rng.integers(len(faults)))](c, r)
            patches.append(Patch(c, r, inner or Const(np.array([float(j)]), 2)))
        want = _reference_patch_fault(outer, patches)
        if want is None:
            assert Patched(outer, tuple(patches)).patches == tuple(patches)
        else:
            with pytest.raises(LipForgeError, match=f"^{want}$"):
                Patched(outer, tuple(patches))


@pytest.mark.parametrize("kind", list(NormKind), ids=lambda k: k.value)
@pytest.mark.parametrize("d", [1, 2, 3])
def test_overlap_check_agrees_with_all_pairs(d, kind):
    """Testing only the pairs that share a grid cell refuses exactly the
    patch sets that the test of all n(n-1)/2 pairs refuses, including balls
    that touch up to rounding."""
    rng = np.random.default_rng(17 * d + len(kind.value))
    for trial in range(60):
        count = int(rng.integers(2, 30))
        centers = rng.uniform(0.0, 1.0, size=(count, d))
        radii = rng.uniform(0.005, 0.1, size=count) * rng.choice([1.0, 0.1, 0.01], size=count)
        if trial % 3 == 0:
            # make ball 0 touch ball 1 up to rounding
            radii[0] = float(norm_batch((centers[1] - centers[0])[None, :], kind)[0]) - radii[1]
            radii[0] = max(radii[0], 1e-6)
        gaps = norm_batch((centers[:, None, :] - centers[None, :, :]).reshape(-1, d), kind).reshape(count, count)
        np.fill_diagonal(gaps, np.inf)
        overlap = bool(np.any(gaps <= radii[:, None] + radii[None, :]))
        patches = tuple(Patch(c, float(r), Const(np.array([0.0]), d)) for c, r in zip(centers, radii))
        if overlap:
            with pytest.raises(LipForgeError, match="patch overlap"):
                Patched(Const(np.array([0.0]), d), patches, kind)
        else:
            Patched(Const(np.array([0.0]), d), patches, kind)


# The float evaluator as it was before each patched layer became one pass,
# kept as the reference: the CellIndex dict behind the earlier _claims, the
# earlier Patched._eval_batch with one batch per claim group, and the
# earlier per-patch loop of the float continuity branch.


@functools.lru_cache(maxsize=None)
def _earlier_index(node: Patched) -> CellIndex:
    """Each ball's box in a CellIndex, in index order, padded by its floor."""
    pads = node._radii + np.array(node._floors)
    index = CellIndex(2.0 * pads.max() if len(pads) else 1e-9)
    for j, (c, pad) in enumerate(zip(node._centers, pads.tolist())):
        index.add(j, c, pad)
    return index


def _earlier_claims(node: Patched, Z: np.ndarray) -> np.ndarray:
    index = _earlier_index(node)
    claims = np.full(len(Z), -1, dtype=np.intp)
    cands = [index.table.get(tuple(key), ()) for key in np.floor(Z / index.cell).tolist()]
    counts = np.fromiter(map(len, cands), dtype=np.intp, count=len(cands))
    total = int(counts.sum())
    if not total:
        return claims
    rows = np.repeat(np.arange(len(Z)), counts)
    pidx = np.fromiter(itertools.chain.from_iterable(cands), dtype=np.intp, count=total)
    hit = norm_batch(Z[rows] - node._centers[pidx], node.norm_kind) < node._radii[pidx]
    rows, pidx = rows[hit], pidx[hit]
    first = np.ones(len(rows), dtype=bool)
    first[1:] = rows[1:] != rows[:-1]
    claims[rows[first]] = pidx[first]
    return claims


def _earlier_eval_batch(self: Patched, Z: np.ndarray) -> np.ndarray:
    out = np.empty((len(Z), self.out_dim))
    claims = _earlier_claims(self, Z)
    order = np.argsort(claims, kind="stable")
    for rows in np.split(order, np.flatnonzero(np.diff(claims[order])) + 1):
        if len(rows):
            idx = claims[rows[0]]
            f = self.outer if idx < 0 else self.patches[idx].inner
            out[rows] = f._eval_batch(Z[rows])
    return out


def _earlier_float_continuity(node: Patched) -> str | None:
    """The message of the earlier float continuity loop, one patch's inner
    at a time, with a NaN gap refused; None if every sphere passes."""
    d = node.in_dim
    n_samples = 64 * d
    resolvable = [i for i, p in enumerate(node.patches) if p.radius_float > node._floors[i]]
    blocks = [node.patches[i].center_float + node.patches[i].radius_float * _sphere_directions(n_samples, d, i, node.norm_kind)
              for i in resolvable]
    all_pts = np.concatenate(blocks)
    outer_vals = node.outer._eval_batch(all_pts)
    for k, i in enumerate(resolvable):
        rows = slice(k * n_samples, (k + 1) * n_samples)
        diff = node.patches[i].inner._eval_batch(all_pts[rows]) - outer_vals[rows]
        err = float(np.max(np.abs(diff))) if diff.size else 0.0
        if not err <= CONTINUITY_TOL:
            return f"patch boundary mismatch {err:.3e} beyond tolerance"
    return None


@pytest.fixture
def earlier_eval_batch(monkeypatch):
    """eval_batch with every Patched node evaluated as before."""

    def evaluate(f: LipFun, Z: np.ndarray) -> np.ndarray:
        with monkeypatch.context() as m:
            m.setattr(Patched, "_eval_batch", _earlier_eval_batch)
            return eval_batch(f, Z)

    return evaluate


def _near_patches(f: LipFun, rng, per_patch: int) -> np.ndarray:
    """per_patch points at 0.3 to 1.5 radii around every patch of every
    distinct Patched node of f, and each patch's center."""
    d, pts, seen, stack = f.in_dim, [], set(), [f]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        if isinstance(node, Patched):
            for p in node.patches:
                dirs = rng.normal(size=(per_patch, d))
                dirs /= norm_batch(dirs, node.norm_kind)[:, None]
                scale = rng.uniform(0.3, 1.5, size=per_patch) * p.radius_float
                pts += [p.center_float[None, :], p.center_float + scale[:, None] * dirs]
        stack.extend(node.children())
    return np.concatenate(pts)


def _hand_built_layers(kind: NormKind) -> dict[str, Patched]:
    """Patched layers on a 6 x 6 grid of centers in the unit square, each of
    whose inners is one kind of mix: inners that share their map or not,
    the game's shift-conjugated warps and blends (with mpf constants),
    node kinds mixed, and Patched nodes inside and outside."""
    rng = np.random.default_rng(41 + len(kind.value))
    d, side = 2, 6
    centers = (np.array(list(itertools.product(range(side), repeat=d)), dtype=float) + 0.5) / side
    radius = 0.3 / side

    def lin(rows: int, cols: int) -> LinearMap:
        return LinearMap(rng.uniform(-1, 1, size=(rows, cols)), kind, kind)

    def mpf_vector(v) -> np.ndarray:
        return as_vector([mpmath.mpf(float(x)) + mpmath.mpf(2) ** -80 for x in v])

    shared = lin(2, d)
    warp = radial_blend(0.2 * radius, radius, zero_map(d, d), identity(d, kind), kind)
    psi = radial_blend(0.1 * radius, 0.5 * radius, identity(d, kind), zero_map(d, d), kind)
    mixed = [
        lambda c: Const(rng.uniform(-1, 1, size=2), d),
        lambda c: Const(mpf_vector(rng.uniform(-1, 1, size=2)), d),
        lambda c: Linear(lin(2, d)),
        lambda c: Linear(shared),
        lambda c: Scale(0.5, Linear(shared)),
        lambda c: Sum(Linear(shared), Const(rng.uniform(-1, 1, size=2), d)),
        lambda c: AddConst(Linear(lin(2, d)), mpf_vector(rng.uniform(-1, 1, size=2))),
        lambda c: shift_conjugate(warp, c, kind),
        lambda c: Precompose(Linear(lin(2, 3)), Linear(lin(3, d))),
        lambda c: Precompose(Linear(lin(2, 1)), NormOf(d, 1, kind)),
        lambda c: Affine(rng.uniform(-1, 1, size=2), shared, c),
    ]
    inners = {
        "shared map": [Affine(rng.uniform(-1, 1, size=2), shared, c) for c in centers],
        "own maps": [Affine(rng.uniform(-1, 1, size=2), lin(2, d), c) for c in centers],
        "game warps": [shift_conjugate(warp, c, kind) for c in centers],
        "mpf constants": [Precompose(Affine(mpf_vector(rng.uniform(-1, 1, size=2)), shared, mpf_vector(c)),
                                     shift_conjugate(psi, mpf_vector(c), kind)) for c in centers],
        "mixed kinds": [mixed[j % len(mixed)](c) for j, c in enumerate(centers)],
        "nested patched": [Patched(Affine(rng.uniform(-1, 1, size=2), shared, c),
                                   (Patch(c, 0.5 * radius, Const(rng.uniform(-1, 1, size=2), d)),
                                    Patch(c + 0.75 * radius, 0.2 * radius, Linear(shared))), kind) for c in centers],
    }
    outer = Patched(Linear(lin(2, d)), tuple(Patch(c, 1.2 * radius, Linear(lin(2, d))) for c in centers[::3] + 0.25 / side), kind)
    return {name: Patched(outer, tuple(Patch(c, radius, f) for c, f in zip(centers, fs)), kind) for name, fs in inners.items()}


@pytest.mark.parametrize("kind", list(NormKind), ids=lambda k: k.value)
def test_layer_pass_gives_the_earlier_bits(kind, earlier_eval_batch):
    """eval_batch of hand-built layers has the earlier per-group loop's bits:
    near every patch, at random points and in empty, one-row, NaN and
    infinite batches."""
    rng = np.random.default_rng(7)
    for name, node in _hand_built_layers(kind).items():
        Z = np.concatenate([_near_patches(node, rng, 8), rng.uniform(-0.2, 1.2, size=(300, 2))])
        odd = Z[:40].copy()
        odd[::2, 0], odd[1::4, 1], odd[3::4] = np.nan, np.inf, -np.inf
        for batch in (Z, Z[:0], Z[:1], Z[200:201], odd, np.concatenate([Z[:50], odd])):
            with np.errstate(all="ignore"):
                got, want = eval_batch(node, batch), earlier_eval_batch(node, batch)
            assert got.shape == want.shape and got.tobytes() == want.tobytes(), name


def test_layer_pass_gives_the_earlier_bits_on_the_standard_tree(acceptance_run, earlier_eval_batch):
    """The standard tree, near every patch of every layer and at random
    points, has the earlier per-group loop's bits."""
    f = acceptance_run.transcript.final_fun
    rng = np.random.default_rng(11)
    Z = np.concatenate([_near_patches(f, rng, 3), rng.uniform(0.0, 1.0, size=(2000, 2))])
    assert eval_batch(f, Z).tobytes() == earlier_eval_batch(f, Z).tobytes()


@pytest.mark.parametrize("block_rows", [1, 3 * 128, CONTINUITY_BLOCK_ROWS])
def test_continuity_blocks_name_the_first_faulty_patch(block_rows, monkeypatch):
    """Over 400 patches, in blocks of one, three or 256 patches, the float
    check refuses with the first faulty patch's message, as the per-patch
    loop does: gaps just above the tolerance, large, infinite and NaN."""
    import lipforge.lipfun as lipfun_mod

    monkeypatch.setattr(lipfun_mod, "CONTINUITY_BLOCK_ROWS", block_rows)
    rng = np.random.default_rng(block_rows)
    centers = (np.array(list(itertools.product(range(20), repeat=2)), dtype=float) + 0.5) / 20
    outer = NormOf(2)
    big = add_const(outer, as_vector([mpmath.mpf(2) ** 4000]))
    faults = [lambda: add_const(outer, [2e-9]), lambda: add_const(outer, [-0.5]), lambda: big,
              lambda: Scale(0.0, big)]
    for count in (0, 1, 2, 3, 2, 3):
        inners = [add_const(outer, [float(rng.uniform(-1e-10, 1e-10))]) for _ in centers]
        for j in rng.choice(len(centers), size=count, replace=False):
            inners[j] = faults[int(rng.integers(len(faults)))]()
        node = Patched(outer, tuple(Patch(c, 0.01, f) for c, f in zip(centers, inners)))
        with np.errstate(invalid="ignore"):
            want = _earlier_float_continuity(node)
        with np.errstate(invalid="ignore"):
            if want is None:
                _check_patch_continuity(node)
            else:
                with pytest.raises(LipForgeError, match=f"^{re.escape(want)}$"):
                    _check_patch_continuity(node)


def test_a_nan_continuity_gap_is_refused(unit_box):
    """An inner three times an outer of 2^4000 (mpf constants) meets it
    nowhere; in float64 both are infinite and the gap is NaN, which is
    refused by patch() and by artifact_suite's continuity check."""
    big = mpmath.mpf(2) ** 4000
    outer, inner = Const(as_vector([big]), 2), Const(as_vector([3 * big]), 2)
    with pytest.raises(LipForgeError, match="^patch boundary mismatch nan beyond tolerance$"):
        patch(outer, [((0.5, 0.5), 0.1, inner)], unit_box)
    with np.errstate(invalid="ignore"):
        records = {r.name: r for r in artifact_suite(Patched(outer, (Patch(np.array([0.5, 0.5]), 0.1, inner),)))}
    check = records["artifact patch continuity"]
    assert not check.ok and check.detail == "patch boundary mismatch nan beyond tolerance"


def _assert_stacked_blocks_keep_their_bits(tr):
    """The Dini report's blocks at every distinct witness point (x, then
    x + t v for the float scales along +-e1), plus random blocks, evaluated
    in one batch and block by block."""
    from lipforge import witnesses
    from lipforge.probe import _use_exact, witness_ladder

    f = tr.final_fun
    d = f.in_dim
    rng = np.random.default_rng(3)
    e1 = np.eye(d)[0]
    blocks, seen = [], set()
    for w in witnesses(tr, 1, 0):
        x = w.point()
        if x.tobytes() in seen:
            continue
        seen.add(x.tobytes())
        ts = np.array([t for t in witness_ladder(tr, w).radii if not _use_exact(x, t)], dtype=float)
        blocks.append(np.vstack([x[None, :]] + [x[None, :] + ts[:, None] * v[None, :] for v in (e1, -e1)]))
        if rng.random() < 0.1:
            blocks.append(rng.uniform(0.0, 1.0, size=(int(rng.integers(1, 40)), d)))
    whole = eval_batch(f, np.vstack(blocks))
    assert whole.tobytes() == np.vstack([eval_batch(f, b) for b in blocks]).tobytes()
    return len(whole)


def test_eval_batch_of_stacked_blocks_is_the_blocks(small_game):
    """Rows are evaluated independently, so the Dini report may stack the
    blocks of all its points into one batch; on the 2-D and 3-D games."""
    assert _assert_stacked_blocks_keep_their_bits(small_game) > 0


def test_eval_batch_of_stacked_blocks_is_the_blocks_on_the_standard_tree(acceptance_run):
    assert _assert_stacked_blocks_keep_their_bits(acceptance_run.transcript) > 10_000


def test_eval_point_is_a_batch_row(small_game):
    """eval_point at float points gives the eval_batch rows, bit for bit:
    random points, patch centers and float-resolvable sphere axis points."""
    f = small_game.final_fun
    d = f.in_dim
    rng = np.random.default_rng(7)
    pts = list(rng.uniform(0.0, 1.0, size=(100, d)))
    stack = [f]
    while stack:
        node = stack.pop()
        if isinstance(node, Patched):
            for p in node.patches:
                pts.append(p.center_float)
                for axis in range(d):
                    pts.append(p.center_float + p.radius_float * np.eye(d)[axis])
        stack.extend(node.children())
    Z = np.array(pts)
    singles = np.array([eval_point(f, z) for z in Z])
    assert singles.dtype == float
    assert np.array_equal(singles, eval_batch(f, Z))


def test_sup_dist_above_ten_dimensions_is_diagnosed():
    domain = Domain.box([0.0] * 11, [1.0] * 11)
    with pytest.raises(LipForgeError, match="dimension 10"):
        sup_dist(NormOf(11), AddConst(NormOf(11), np.array([0.25])), domain, budget=3000)


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
    blend = radial_blend(0.05, 0.1, zero_map(2, 2), identity(2))
    center = np.array([0.5, 0.5])
    warp = patch(identity(2), [(center, 0.1, shift_conjugate(blend, center, NormKind.EUCLIDEAN))], unit_box)
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


def test_deserialize_refuses_deep_nesting():
    """JSON nested past the parser's recursion limit is a malformed artifact."""
    for data in (b"[" * 100_000, "[" * 100_000):
        with pytest.raises(LipForgeError, match="^malformed artifact$"):
            deserialize(data)


def test_deserialize_refuses_a_deeply_nested_leaf_at_the_depth_limit():
    """A constant nested 600 lists deep that the parser reads, at the bottom
    of a tree MAX_TREE_DEPTH deep, is a malformed artifact, not a
    RecursionError from the decoder."""
    from lipforge.lipfun import MAX_TREE_DEPTH

    leaf = "0.5"
    for _ in range(600):
        leaf = [leaf]
    node = {"kind": "const", "c": leaf, "in_dim": 1}
    for _ in range(MAX_TREE_DEPTH - 1):
        node = {"kind": "scale", "c": "0.5", "f": node}
    with pytest.raises(LipForgeError, match="^malformed artifact"):
        deserialize(json.dumps({"schema": "lipforge-fun/1", "root": node}))


def test_codec_makes_no_full_collection(acceptance_run):
    """serialize and deserialize run with the cyclic collector paused: no
    generation-2 collection starts inside either call on the standard tree."""
    tree = acceptance_run.transcript.final_fun
    inside, full = [], []

    def on_collect(phase, info):
        if phase == "start" and info["generation"] == 2 and inside:
            full.append(inside[-1])

    gc.callbacks.append(on_collect)
    try:
        for _ in range(3):
            inside.append("serialize")
            data = serialize(tree)
            inside[-1] = "deserialize"
            deserialize(data)
            inside.clear()
    finally:
        gc.callbacks.remove(on_collect)
    assert full == []


def test_collector_pause_ends_without_an_older_collection():
    """A paused block that allocates past the young threshold, entered with
    the middle generation due, starts no collection older than the youngest
    before it returns: the collection due on leaving is a young one."""
    from lipforge.lipfun import _collector_paused

    inside, started = [], []

    def on_collect(phase, info):
        if phase == "start" and inside:
            started.append(info["generation"])

    assert gc.isenabled()
    gc.callbacks.append(on_collect)
    try:
        for _ in range(gc.get_threshold()[1] + 1):
            gc.collect(0)  # each young collection counts toward the middle one
        inside.append(True)
        with _collector_paused():
            kept = [[] for _ in range(10 * gc.get_threshold()[0])]
        inside.clear()
    finally:
        gc.callbacks.remove(on_collect)
    assert len(kept) and set(started) <= {0}
    assert gc.isenabled()


def test_codec_restores_the_collector():
    """The collector is on after a call that returns or raises, and a caller
    that turned it off finds it off."""
    blob = serialize(NormOf(2))
    assert gc.isenabled()
    try:
        for enabled in (True, False):
            (gc.enable if enabled else gc.disable)()
            assert serialize(deserialize(blob)) == blob
            assert gc.isenabled() is enabled
            for bad in (b"{not json", b"[" * 100_000, b'{"schema": "lipforge-fun/1", "root": {"kind": "sum"}}'):
                with pytest.raises(LipForgeError, match="malformed artifact"):
                    deserialize(bad)
                assert gc.isenabled() is enabled
            with pytest.raises(LipForgeError, match="cannot serialize"):
                serialize(object())
            assert gc.isenabled() is enabled
    finally:
        gc.enable()


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


def test_serialize_encodes_shared_subtree_once(monkeypatch):
    """A subtree reached along several paths is encoded on its first visit
    and its record reused; the bytes are those of separate copies."""
    import lipforge.numerics as numerics_mod

    def tree(make_shared):
        return Sum(Scale(0.5, make_shared()), Sum(make_shared(), make_shared()))

    def subtree():
        return Sum(Const(np.array([0.5]), 2), NormOf(2))

    shared = subtree()
    calls = []
    original = numerics_mod.encode_vector
    monkeypatch.setattr(numerics_mod, "encode_vector", lambda v: calls.append(len(v)) or original(v))
    data = serialize(tree(lambda: shared))
    assert len(calls) == 1
    assert serialize(tree(subtree)) == data
    assert len(calls) == 1 + 3


def test_serialize_reuse_keeps_the_depth_limit(monkeypatch):
    """A record is reused only as deep as it was made: a shared subtree that
    fits at its first visit but not at a deeper one is still refused."""
    import lipforge.lipfun as lipfun_mod

    monkeypatch.setattr(lipfun_mod, "MAX_TREE_DEPTH", 5)
    chain = _scale_chain(3)  # its NormOf leaf sits 3 levels below its root
    for tree in (Sum(chain, Scale(0.5, Scale(0.5, chain))), Sum(Scale(0.5, Scale(0.5, chain)), chain)):
        with pytest.raises(LipForgeError, match="deeper"):
            serialize(tree)
    fits = Sum(Scale(0.5, chain), chain)
    assert serialize(fits) == serialize(Sum(Scale(0.5, _scale_chain(3)), _scale_chain(3)))


def _decode_by_ldexp(man: int, exp: int):
    """decode_scalar's earlier formula, kept as the reference."""
    import mpmath
    from mpmath import mp

    if man == 0:
        return mpmath.mpf(0)
    with mp.workprec(max(8, abs(man).bit_length() + 8)):
        return mpmath.ldexp(mpmath.mpf(man), exp)


def test_decode_scalar_matches_ldexp_formula():
    import random

    from lipforge.numerics import decode_scalar

    rng = random.Random(7)
    cases = [(0, 0), (0, 10**4), (0, -(10**4)), (1, 0), (-1, 0), (6, -3), (-(2**100), 7)]
    for _ in range(300):
        man = rng.getrandbits(rng.randint(1, 5000)) << rng.choice((0, 0, rng.randint(1, 64)))
        exp = rng.choice((10**4, -(10**4), rng.randint(-(10**4), 10**4)))
        cases.append((rng.choice((1, -1)) * man, exp))
    for man, exp in cases:
        x = decode_scalar({"m": str(man), "e": str(exp)})
        assert x._mpf_ == _decode_by_ldexp(man, exp)._mpf_, (man, exp)


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


def test_decoded_identities_are_shared():
    """Identical identity records decode to one map per decoding, so a
    decoded tree certifies its norm once; any other encoding keeps its own
    map, another decoding makes its own, and every tree re-encodes to its
    bytes."""
    def translate(x):
        return Affine(np.zeros(2), LinearMap(np.eye(2), NormKind.SUP, NormKind.SUP), np.array(x))

    f = Sum(Sum(Precompose(NormOf(2), translate([0.25, 0.5])), Precompose(NormOf(2), translate([0.5, 0.75]))),
            Linear(LinearMap(np.eye(2)[:1], NormKind.SUP, NormKind.ONE)))
    data = serialize(f)
    g = deserialize(data)
    assert g.f.f.inner_map.map is g.f.g.inner_map.map
    assert g.g.map is not g.f.f.inner_map.map
    assert deserialize(data).f.f.inner_map.map is not g.f.f.inner_map.map
    assert serialize(g) == data
    obj = json.loads(data)
    record = obj["root"]["f"]["f"]["inner_map"]["map"]
    for change in ({"matrix": [["1.0", "-0.0"], ["0.0", "1.0"]]}, {"out_norm": "one"},
                   {"matrix": [[{"m": str(int(i == j)), "e": "0"} for j in range(2)] for i in range(2)]}):
        variant = json.loads(json.dumps(obj))
        variant["root"]["f"]["f"]["inner_map"]["map"] = {**record, **change}
        h = fun_from_dict(variant)
        assert h.f.f.inner_map.map is not h.f.g.inner_map.map
        assert json.loads(serialize(h)) == variant


# ---------------------------------------------------------------------------
# The record codec against the hand-written one it replaced


def _reference_encode_node(f, depth: int, memo: dict) -> dict:
    """The earlier _encode_node, recursing into the reference records."""
    from lipforge.lipfun import MAX_TREE_DEPTH

    if depth > MAX_TREE_DEPTH:
        raise LipForgeError(f"tree deeper than {MAX_TREE_DEPTH}")
    hit = memo.get(id(f))
    if hit is not None and depth <= hit[0]:
        return hit[1]
    record = _reference_encode_record(f, depth, memo)
    memo[id(f)] = (depth, record)
    return record


def _reference_encode_record(f, depth: int, memo: dict) -> dict:
    """The earlier _encode_record, kept as the reference for the record format."""
    from lipforge.lipfun import RadialBlend
    from lipforge.numerics import encode_scalar

    def encode_vector(v):
        return [encode_scalar(x) for x in v]

    def _encode_map(m):
        return {
            "matrix": [encode_vector(row) for row in m.matrix],
            "in_norm": m.in_norm.value,
            "out_norm": m.out_norm.value,
        }

    enc = _reference_encode_node
    if isinstance(f, Const):
        return {"kind": "const", "c": encode_vector(f.c), "in_dim": f.in_dim}
    if isinstance(f, Linear):
        return {"kind": "linear", "map": _encode_map(f.map)}
    if isinstance(f, Affine):
        return {
            "kind": "affine",
            "base": encode_vector(f.base),
            "map": _encode_map(f.map),
            "anchor": encode_vector(f.anchor),
        }
    if isinstance(f, NormOf):
        return {"kind": "norm_of", "in_dim": f.in_dim, "sign": f.sign, "norm": f.norm_kind.value}
    if isinstance(f, Sum):
        return {"kind": "sum", "f": enc(f.f, depth + 1, memo), "g": enc(f.g, depth + 1, memo)}
    if isinstance(f, Scale):
        return {"kind": "scale", "c": encode_scalar(f.c), "f": enc(f.f, depth + 1, memo)}
    if isinstance(f, AddConst):
        return {"kind": "add_const", "f": enc(f.f, depth + 1, memo), "p": encode_vector(f.p)}
    if isinstance(f, RadialBlend):
        return {
            "kind": "radial_blend",
            "a": encode_scalar(f.a),
            "b": encode_scalar(f.b),
            "f1": enc(f.f1, depth + 1, memo),
            "f2": enc(f.f2, depth + 1, memo),
            "norm": f.norm_kind.value,
        }
    if isinstance(f, Patched):
        return {
            "kind": "patched",
            "outer": enc(f.outer, depth + 1, memo),
            "norm": f.norm_kind.value,
            "patches": [
                {
                    "center": encode_vector(p.center),
                    "radius": encode_scalar(p.radius),
                    "inner": enc(p.inner, depth + 1, memo),
                }
                for p in f.patches
            ],
        }
    if isinstance(f, Precompose):
        return {
            "kind": "precompose",
            "f": enc(f.f, depth + 1, memo),
            "inner_map": enc(f.inner_map, depth + 1, memo),
        }
    raise LipForgeError(f"cannot serialize node {type(f).__name__}")


def _reference_decode_node(obj, depth: int):
    """The earlier _decode_node, kept as the reference for the record format."""
    from lipforge.lipfun import MAX_TREE_DEPTH, RadialBlend, _decode_map
    from lipforge.numerics import decode_scalar, decode_vector

    dec = _reference_decode_node
    if depth > MAX_TREE_DEPTH:
        raise LipForgeError(f"tree deeper than {MAX_TREE_DEPTH}")
    if not isinstance(obj, dict) or "kind" not in obj:
        raise LipForgeError("malformed artifact: node record expected")
    kind = obj["kind"]
    try:
        if kind == "const":
            return Const(decode_vector(obj["c"]), int(obj["in_dim"]))
        if kind == "linear":
            return Linear(_decode_map(obj["map"]))
        if kind == "affine":
            return Affine(decode_vector(obj["base"]), _decode_map(obj["map"]), decode_vector(obj["anchor"]))
        if kind == "norm_of":
            return NormOf(int(obj["in_dim"]), int(obj["sign"]), NormKind.parse(obj["norm"]))
        if kind == "sum":
            return Sum(dec(obj["f"], depth + 1), dec(obj["g"], depth + 1))
        if kind == "scale":
            return Scale(decode_scalar(obj["c"]), dec(obj["f"], depth + 1))
        if kind == "add_const":
            return AddConst(dec(obj["f"], depth + 1), decode_vector(obj["p"]))
        if kind == "radial_blend":
            return RadialBlend(
                decode_scalar(obj["a"]),
                decode_scalar(obj["b"]),
                dec(obj["f1"], depth + 1),
                dec(obj["f2"], depth + 1),
                NormKind.parse(obj["norm"]),
            )
        if kind == "patched":
            patches = tuple(
                Patch(decode_vector(p["center"]), decode_scalar(p["radius"]), dec(p["inner"], depth + 1))
                for p in obj["patches"]
            )
            return Patched(dec(obj["outer"], depth + 1), patches, NormKind.parse(obj["norm"]))
        if kind == "precompose":
            return Precompose(dec(obj["f"], depth + 1), dec(obj["inner_map"], depth + 1))
    except LipForgeError:
        raise
    except (KeyError, TypeError, ValueError, IndexError) as e:
        raise LipForgeError(f"malformed artifact: bad {kind} node") from e
    raise LipForgeError(f"malformed artifact: unknown node kind {kind!r}")


def _reference_serialize(f) -> bytes:
    return json.dumps({"schema": "lipforge-fun/1", "root": _reference_encode_node(f, 0, {})},
                      separators=(",", ":")).encode("utf-8")


def _codec_trees() -> dict:
    """Hand-built trees with every node kind, float and mpf constants (deep
    and huge ones too), all three norms, nested Patched nodes and shared
    subtrees."""
    from lipforge.lipfun import RadialBlend

    deep, huge = mpmath.mpf(3) * mpmath.mpf(2) ** -5000, mpmath.mpf(-5) * mpmath.mpf(2) ** 4000
    mixed = np.array([mpmath.mpf(0.25), deep], dtype=object)
    trees = {}
    for kind in NormKind:
        leaf = NormOf(2, -1, kind)
        lin = Linear(LinearMap(np.array([[0.5, -0.25], [0.0, 1.0]]), kind, NormKind.SUP))
        aff = Affine(mixed, LinearMap(np.array([[1.0, 0.0], [0.0, 1.0]]), kind, kind), np.array([0.5, 0.5]))
        shared = Sum(Scale(deep, leaf), Const(np.array([0.75]), 2))
        blend = RadialBlend(mpmath.mpf(0.125), 0.5, AddConst(shared, np.array([-0.75])), Scale(huge, leaf), kind)
        inner = Patched(Precompose(blend, aff), (Patch(np.array([0.5, 0.5]), deep, shared),), kind)
        tree = Patched(
            AddConst(Precompose(shared, lin), mixed[:1]),
            (
                Patch(np.array([0.25, 0.25]), 0.125, inner),
                Patch(mixed, mpmath.mpf(2) ** -300, Sum(shared, Const(np.array([mpmath.mpf(-1)]), 2))),
                Patch(np.array([0.75, 0.75]), 0.0625, shared),
            ),
            kind,
        )
        trees[kind.value] = Sum(tree, Scale(0.5, shared))
    # a layer without patches writes "patches":[]
    trees["no-patches"] = Patched(NormOf(2), (), NormKind.SUP)
    return trees


@pytest.mark.parametrize("name", list(_codec_trees()))
def test_codec_writes_and_reads_the_reference_records(name):
    tree = _codec_trees()[name]
    data = serialize(tree)
    assert data == _reference_serialize(tree)
    assert serialize(deserialize(data)) == data
    assert _reference_serialize(_reference_decode_node(json.loads(data)["root"], 0)) == data
    assert serialize(_reference_decode_node(json.loads(data)["root"], 0)) == data


def test_codec_on_the_standard_tree(acceptance_run):
    tree = acceptance_run.transcript.final_fun
    data = serialize(tree)
    assert data == _reference_serialize(tree)
    assert serialize(deserialize(data)) == data


def _records(obj) -> list:
    """Every node record below obj (a dict with a "kind"), in document order."""
    if isinstance(obj, list):
        return [r for x in obj for r in _records(x)]
    if not isinstance(obj, dict):
        return []
    return ([obj] if "kind" in obj else []) + [r for x in obj.values() for r in _records(x)]


def _nodes(f) -> set:
    """The ids of the distinct nodes of a tree."""
    seen, todo = set(), [f]
    while todo:
        node = todo.pop()
        if id(node) not in seen:
            seen.add(id(node))
            todo.extend(node.children())
    return seen


def test_decoded_standard_tree_has_one_node_per_distinct_record(acceptance_run):
    """Identical records decode to one node: the decoded standard tree has
    as many nodes as its function.json has distinct records (compared as
    JSON text), and fewer than the constructed tree."""
    tree = acceptance_run.transcript.final_fun
    data = serialize(tree)
    records = _records(json.loads(data)["root"])
    distinct = {json.dumps(r, separators=(",", ":")) for r in records}
    decoded = deserialize(data)
    assert len(_nodes(decoded)) == len(distinct) < len(_nodes(tree)) < len(records)
    assert serialize(decoded) == data


@pytest.mark.parametrize("name", [k.value for k in NormKind])
def test_decoded_codec_trees_have_one_node_per_distinct_record(name):
    data = serialize(_codec_trees()[name])
    distinct = {json.dumps(r, separators=(",", ":")) for r in _records(json.loads(data)["root"])}
    decoded = deserialize(data)
    assert len(_nodes(decoded)) == len(distinct)
    assert serialize(decoded) == data


def _translation(conjugate: AddConst) -> Affine:
    """The translation node z -> z - x of shift_conjugate's result."""
    return conjugate.f.inner_map


@pytest.mark.parametrize(
    "step, adversary, rounds, count",
    [(0.05, "stay", 4, 1106), (0.25, "jitter", 3, 153)],
    ids=["std-grid-4-stay", "pair-3-jitter"],
)
def test_a_built_game_tree_has_the_distinct_nodes_of_its_decoded_twin(step, adversary, rounds, count):
    """Construction shares each center's translation, the identity and the
    zero map, as decoding shares equal records, so a built game tree has as
    many distinct nodes as the tree its bytes decode to."""
    lo, hi = [0.0, 0.0], [1.0, 1.0]
    ops = [LinearMap(np.array([[0.5, 0.0]])), LinearMap(np.array([[-0.5, 0.0]]))]
    tree = run_game(Domain.box(lo, hi), TargetSet.grid(lo, hi, step), ops, adversary, rounds=rounds, seed=0).final_fun
    assert len(_nodes(tree)) == len(_nodes(deserialize(serialize(tree)))) == count


def test_identity_zero_map_and_translations_are_one_node_per_key():
    """identity and zero_map give one node per key, the zero constant
    read-only; shift_conjugate gives one translation per dimension, norm and
    exact anchor, anchored at a copy of the caller's vector."""
    assert identity(2) is identity(2, NormKind.EUCLIDEAN)
    assert identity(2, NormKind.SUP) is not identity(2) and identity(3) is not identity(2)
    zero = zero_map(2, 3)
    assert zero is zero_map(2, 3) and zero is not zero_map(3, 3) and zero is not zero_map(2, 2)
    with pytest.raises(ValueError, match="read-only"):
        zero.c[0] = 1.0
    x = np.array([0.25, 0.5])
    warp = _translation(shift_conjugate(identity(2), x, NormKind.EUCLIDEAN))
    assert _translation(shift_conjugate(zero_map(2, 2), x.copy(), NormKind.EUCLIDEAN)) is warp
    assert _translation(shift_conjugate(identity(2, NormKind.SUP), x, NormKind.SUP)) is not warp
    x[0] = 0.75  # the caller's vector is copied: the shared node keeps its anchor
    assert warp.anchor.tolist() == [0.25, 0.5] and not warp.anchor.flags.writeable
    # equal values stored apart: an mpf anchor, and 0.0 against -0.0
    exact = _translation(shift_conjugate(identity(2), as_vector([mpmath.mpf(0.25), mpmath.mpf(0.5)]), NormKind.EUCLIDEAN))
    assert exact is not warp and serialize(exact) != serialize(warp)
    signed = [_translation(shift_conjugate(identity(2), np.array([z, 0.5]), NormKind.EUCLIDEAN)) for z in (0.0, -0.0)]
    assert signed[0] is not signed[1] and serialize(signed[0]) != serialize(signed[1])


def test_cached_computes_once_per_instance():
    """numerics.cached computes on the first read of each instance only, on
    frozen dataclasses and on a plain class, and is itself when read from
    the class."""
    def linear_map():
        return LinearMap(np.array([[0.5, 0.25], [0.0, 1.0]]))

    instances = [
        (Affine, "_anchor_float", lambda: Affine(np.zeros(2), linear_map(), np.array([0.5, 0.5]))),
        (LipFun, "lip_cert", lambda: Affine(np.zeros(2), linear_map(), np.array([0.5, 0.5]))),
        (Patch, "radius_sq", lambda: Patch(np.zeros(2), 0.5, identity(2))),
        (LinearMap, "op_norm", linear_map),
        (CellTable, "_key_bytes", lambda: CellTable(0.5, np.zeros((1, 2)), np.ones(1))),
    ]
    for cls, name, make in instances:
        descriptor = vars(cls)[name]
        assert isinstance(descriptor, cached) and getattr(cls, name) is descriptor
        func, calls = descriptor.func, []

        def counted(instance):
            calls.append(id(instance))
            return func(instance)

        descriptor.func = counted
        try:
            objs = [make(), make()]
            for obj in objs:
                value = getattr(obj, name)
                assert getattr(obj, name) is value
            assert calls == [id(obj) for obj in objs], (cls, name)
            assert np.array_equal(value, func(objs[1])), (cls, name)
        finally:
            descriptor.func = func


_ONE = {"kind": "norm_of", "in_dim": 1, "sign": 1, "norm": "euclidean"}


@pytest.mark.parametrize(
    "a, b",
    [
        ({"kind": "const", "c": ["0.5"], "in_dim": 1}, {"kind": "const", "c": ["0.5"], "in_dim": 1.0}),
        ({"kind": "const", "c": ["0.5"], "in_dim": 1}, {"kind": "const", "c": ["0.5"], "in_dim": True}),
        ({"kind": "const", "c": ["0.5"], "in_dim": 1.0}, {"kind": "const", "c": ["0.5"], "in_dim": True}),
        ({"kind": "norm_of", "in_dim": 2, "sign": 1, "norm": "one"}, {"kind": "norm_of", "in_dim": 2, "sign": True, "norm": "one"}),
        ({"kind": "const", "c": ["0.0"], "in_dim": 1}, {"kind": "const", "c": ["-0.0"], "in_dim": 1}),
        ({"kind": "const", "c": [0.0], "in_dim": 1}, {"kind": "const", "c": [-0.0], "in_dim": 1}),
        ({"kind": "const", "c": ["1"], "in_dim": 1}, {"kind": "const", "c": [1], "in_dim": 1}),
        ({"kind": "scale", "c": {"m": "1", "e": "0"}, "f": _ONE}, {"kind": "scale", "c": "1.0", "f": _ONE}),
        ({"kind": "const", "c": [{"m": "1", "e": "0"}], "in_dim": 1}, {"kind": "const", "c": ["1.0"], "in_dim": 1}),
    ],
)
def test_records_differing_in_a_leaf_type_decode_as_each_alone(a, b):
    """Two records that differ only in the JSON type of a leaf (1, 1.0 and
    true; "0.0" and "-0.0"; an {m, e} pair and a numeral) are not one
    record: side by side, in either order, each decodes and re-encodes as
    it does alone, or the first refused one is refused with its message."""
    def alone(record):
        try:
            return json.loads(serialize(fun_from_dict({"schema": "lipforge-fun/1", "root": record})))["root"], None
        except LipForgeError as e:
            return None, str(e)

    for first, second in ((a, b), (b, a)):
        doc = {"schema": "lipforge-fun/1", "root": {"kind": "sum", "f": first, "g": second}}
        (f, f_error), (g, g_error) = alone(first), alone(second)
        if f_error or g_error:
            with pytest.raises(LipForgeError) as info:
                fun_from_dict(doc)
            assert str(info.value) == (f_error or g_error)
        else:
            want = {"schema": "lipforge-fun/1", "root": {"kind": "sum", "f": f, "g": g}}
            assert serialize(fun_from_dict(doc)) == json.dumps(want, separators=(",", ":")).encode()


def test_shared_record_below_the_depth_limit_is_refused():
    """A record whose subtree fits where it first appears is refused where
    it appears again too deep, in either order, and accepted one level
    higher, where the encoder writes it back byte for byte."""
    from lipforge.lipfun import MAX_TREE_DEPTH

    def chain(height, leaf):
        for _ in range(height):
            leaf = {"kind": "scale", "c": "0.5", "f": leaf}
        return leaf

    shared = chain(100, _ONE)  # its leaf is 100 levels below it
    for extra, ok in ((MAX_TREE_DEPTH - 101, True), (MAX_TREE_DEPTH - 100, False)):
        deep = chain(extra, shared)  # the second copy starts 1 + extra levels down
        for first, second in ((shared, deep), (deep, shared)):
            doc = {"schema": "lipforge-fun/1", "root": {"kind": "sum", "f": first, "g": second}}
            if ok:
                data = json.dumps(doc, separators=(",", ":")).encode()
                assert serialize(deserialize(data)) == data
            else:
                with pytest.raises(LipForgeError, match=f"tree deeper than {MAX_TREE_DEPTH}"):
                    fun_from_dict(doc)


def test_every_node_kind_declares_its_record():
    from lipforge.lipfun import LipFun, _KINDS, _RECORDS

    concrete, todo = set(), [LipFun]
    while todo:
        cls = todo.pop()
        concrete.update(cls.__subclasses__())
        todo.extend(cls.__subclasses__())
    assert concrete == set(_RECORDS)
    assert len(_KINDS) == len(_RECORDS)


def test_children_follow_the_reference_order():
    """Each kind lists its children in the order of the earlier explicit
    children() overrides: record order, a patch's inner after outer."""
    from lipforge.lipfun import RadialBlend

    a, b, c = NormOf(2), Scale(0.5, NormOf(2)), Const(np.array([0.0]), 2)
    patched = Patched(a, (Patch(np.array([0.25, 0.25]), 0.1, b), Patch(np.array([0.75, 0.75]), 0.1, c)))
    warp = identity(2)
    expected = [
        (c, ()),
        (identity(2), ()),
        (Affine(np.zeros(2), _identity_map(2, NormKind.EUCLIDEAN), np.ones(2)), ()),
        (a, ()),
        (Sum(a, b), (a, b)),
        (Scale(0.5, a), (a,)),
        (AddConst(a, np.array([1.0])), (a,)),
        (RadialBlend(0.5, 1.0, a, b), (a, b)),
        (patched, (a, b, c)),
        (Precompose(a, warp), (a, warp)),
    ]
    for node, children in expected:
        got = node.children()
        assert isinstance(got, tuple)
        assert len(got) == len(children) and all(x is y for x, y in zip(got, children)), type(node).__name__


@pytest.mark.parametrize(
    "record",
    [
        {"kind": "add_const", "f": {"kind": "norm_of", "in_dim": 2, "sign": 1, "norm": "euclidean"}, "p": ["nan"]},
        {"kind": "scale", "c": "1e400", "f": {"kind": "norm_of", "in_dim": 2, "sign": 1, "norm": "euclidean"}},
        {"kind": "scale", "c": "-inf", "f": {"kind": "norm_of", "in_dim": 2, "sign": 1, "norm": "euclidean"}},
        {"kind": "const", "c": [{"m": "1", "e": "0"}, "inf"], "in_dim": 2},
        {"kind": "const", "c": [1e400], "in_dim": 2},
        {"kind": "radial_blend", "a": "0.5", "b": "nan", "f1": {"kind": "const", "c": ["0"], "in_dim": 1},
         "f2": {"kind": "const", "c": ["0"], "in_dim": 1}, "norm": "euclidean"},
    ],
)
def test_decoder_refuses_non_finite_constants(record):
    with pytest.raises(LipForgeError, match="non-finite numeral"):
        fun_from_dict({"schema": "lipforge-fun/1", "root": record})


def test_decoder_accepts_deep_and_huge_exact_constants():
    """An {m, e} constant is finite whatever its exponent, even where its
    float copy underflows to 0.0 or overflows to inf."""
    leaf = {"kind": "norm_of", "in_dim": 2, "sign": 1, "norm": "euclidean"}
    for e in ("-100000", "100000"):
        obj = {"schema": "lipforge-fun/1", "root": {
            "kind": "add_const", "f": {"kind": "scale", "c": {"m": "3", "e": e}, "f": leaf},
            "p": [{"m": "-7", "e": e}]}}
        f = fun_from_dict(obj)
        assert json.loads(serialize(f)) == obj


@pytest.mark.parametrize(
    "record, kind",
    [
        ({"kind": "norm_of", "in_dim": 2.5, "sign": 1, "norm": "euclidean"}, "norm_of"),
        ({"kind": "norm_of", "in_dim": True, "sign": 1, "norm": "euclidean"}, "norm_of"),
        ({"kind": "norm_of", "in_dim": "3", "sign": 1, "norm": "euclidean"}, "norm_of"),
        ({"kind": "norm_of", "in_dim": 2, "sign": True, "norm": "euclidean"}, "norm_of"),
        ({"kind": "norm_of", "in_dim": 2, "sign": -1.0, "norm": "euclidean"}, "norm_of"),
        ({"kind": "const", "c": ["0.5"], "in_dim": 1.0}, "const"),
    ],
)
def test_decoder_refuses_integers_that_are_not_json_integers(record, kind):
    """int() would read each of these as another integer, which encodes to
    other bytes."""
    with pytest.raises(LipForgeError, match=f"bad {kind} node"):
        fun_from_dict({"schema": "lipforge-fun/1", "root": record})


def test_decoder_refuses_an_overflowing_integer():
    obj = {"schema": "lipforge-fun/1", "root": {"kind": "const", "c": ["0.5"], "in_dim": 1e400}}
    with pytest.raises(LipForgeError, match="bad const node"):
        fun_from_dict(obj)


def _chain(height, leaf):
    """leaf under `height` scale records."""
    for _ in range(height):
        leaf = {"kind": "scale", "c": "0.5", "f": leaf}
    return leaf


_CONST_ONE = {"kind": "const", "c": ["1.0"], "in_dim": 1}
_BAD_SCALAR = "malformed artifact: bad scalar {'kind': 'const', 'c': ['1.0'], 'in_dim': 1}"


def _doc(root, schema="lipforge-fun/1"):
    return {"schema": schema, "root": root}


@pytest.mark.parametrize(
    "doc, message",
    [
        ({"schema": "lipforge-fun/9", "root": {"kind": "nope"}}, "unknown schema version 'lipforge-fun/9'"),
        ({"schema": "lipforge-fun/2", "nodes": [{"kind": "const", "c": ["0"], "in_dim": 1}], "root": 0},
         "unknown schema version 'lipforge-fun/2'"),
        ([_doc(_ONE)], "malformed artifact"),
        # a record where a scalar belongs is a bad scalar, shown as written
        (_doc({"kind": "scale", "c": _CONST_ONE, "f": _ONE}), _BAD_SCALAR),
        (_doc({"kind": "const", "c": [_CONST_ONE], "in_dim": 1}), _BAD_SCALAR),
        (_doc({"kind": "norm_of", "in_dim": 1, "sign": 1, "norm": _CONST_ONE}),
         "unknown norm {'kind': 'const', 'c': ['1.0'], 'in_dim': 1}; expected euclidean, sup or one"),
        # the first failure in document order names the error, however deep
        (_doc({"kind": "scale", "c": "x", "f": {"kind": "nope"}}), "malformed artifact: bad numeral 'x'"),
        (_doc({"kind": "add_const", "f": {"kind": "nope"}, "p": ["x"]}), "malformed artifact: unknown node kind 'nope'"),
        (_doc({"kind": "sum", "f": _chain(3, {"kind": "scale", "c": "y", "f": _ONE}), "g": {"kind": "nope"}}),
         "malformed artifact: bad numeral 'y'"),
        (_doc({"kind": "sum", "f": _chain(3, {"kind": "sum", "f": _ONE}), "g": {"kind": "const", "c": "x"}}),
         "malformed artifact: bad sum node"),
        (_doc({"kind": "sum", "f": _ONE, "g": 5}), "malformed artifact: node record expected"),
        (_doc({"kind": "sum", "f": _ONE, "g": {"kind": "const", "c": ["0.5", "0.5"], "in_dim": 1}}),
         "sum of mappings with different dimensions"),
        (_doc({"kind": "patched", "outer": _ONE, "norm": "euclidean",
               "patches": [{"center": ["0.5"], "radius": "x", "inner": {"kind": "nope"}}]}),
         "malformed artifact: bad numeral 'x'"),
        (_doc({"kind": "patched", "outer": _ONE, "norm": "euclidean",
               "patches": [{"center": ["0.5"], "radius": "0.1", "inner": {"kind": "nope"}}]}),
         "malformed artifact: unknown node kind 'nope'"),
        (_doc({"kind": "patched", "outer": _ONE, "norm": "euclidean",
               "patches": [{"center": ["0.5"], "radius": "0.1"}, {"inner": {"kind": "nope"}}]}),
         "malformed artifact: bad patched node"),
        # the depth limit: the deepest level read before the first failure
        (_doc(_chain(200, _ONE)), None),
        (_doc(_chain(201, _ONE)), "tree deeper than 200"),
        (_doc(_chain(201, {"kind": "nope"})), "tree deeper than 200"),
        (_doc(_chain(200, {"kind": "nope"})), "malformed artifact: unknown node kind 'nope'"),
        (_doc({"kind": "sum", "f": {"kind": "scale", "c": "x", "f": _ONE}, "g": _chain(250, _ONE)}),
         "malformed artifact: bad numeral 'x'"),
        (_doc({"kind": "sum", "f": _chain(250, _ONE), "g": {"kind": "nope"}}), "tree deeper than 200"),
        (_doc({"kind": "sum", "f": {"kind": "nope"}, "g": _chain(250, _ONE)}), "malformed artifact: unknown node kind 'nope'"),
        (_doc({"kind": "scale", "c": "x", "f": _chain(250, _ONE)}), "malformed artifact: bad numeral 'x'"),
    ],
)
def test_decoder_reports_the_first_failure_in_document_order(doc, message):
    """deserialize and fun_from_dict check the schema first, then report the
    failure a walk of the records in document order meets first, with the
    same message; a tree deeper than MAX_TREE_DEPTH is refused where that
    walk would first step below it."""
    for decode, arg in ((deserialize, json.dumps(doc).encode()), (fun_from_dict, doc)):
        if message is None:
            assert serialize(decode(arg)) == json.dumps(doc, separators=(",", ":")).encode()
            continue
        with pytest.raises(LipForgeError) as info:
            decode(arg)
        assert str(info.value) == message


def test_decoder_fault_leaves_at_once_with_its_traceback(monkeypatch):
    """A fault of the program in the record decoder is no diagnostic: it is
    not held back for document order, so the depth limit does not hide it,
    and it keeps the traceback of where it happened."""
    import lipforge.lipfun as lipfun_mod

    make_once = lipfun_mod._make_once

    def broken(memo, make, fields):
        if make is lipfun_mod.NormOf:
            raise AttributeError("broken constructor")
        return make_once(memo, make, fields)

    monkeypatch.setattr(lipfun_mod, "_make_once", broken)
    with pytest.raises(AttributeError, match="broken constructor") as info:
        deserialize(json.dumps(_doc(_chain(250, _ONE))))
    assert info.traceback[-1].name == "broken"


def test_decode_peak_stays_within_four_times_the_file(acceptance_run):
    """Records become nodes as the parser closes them, so decoding the
    standard function.json never holds its whole JSON tree: the traced peak
    stays within four times the file's bytes (about nine when the JSON tree
    was built first)."""
    import tracemalloc

    data = serialize(acceptance_run.transcript.final_fun)
    gc.collect()
    tracemalloc.start()
    try:
        deserialize(data)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * len(data), f"peak {peak} B is {peak / len(data):.2f} times the {len(data)} B file"


def test_encode_peak_stays_within_four_times_the_file(acceptance_run):
    """serialize writes each record's text as it walks the tree, so it never
    holds a record dict for the standard tree: the traced peak stays within
    four times the file's bytes (about five when the dicts were built first)."""
    import tracemalloc

    tree = acceptance_run.transcript.final_fun
    size = len(serialize(tree))
    gc.collect()
    tracemalloc.start()
    try:
        serialize(tree)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * size, f"peak {peak} B is {peak / size:.2f} times the {size} B file"


def test_a_misplaced_tree_is_refused_as_fast_as_the_file_decodes(acceptance_run):
    """The standard tree's root record where a scale's c belongs is decoded
    record by record and then refused as a bad scalar: the diagnostic quotes
    200 characters at most, whatever the subtrees decoded below them, so the
    refusal takes about as long as decoding the valid file (best of three,
    interleaved); quoting the decoded subtrees whole took 18 times as long."""
    import time

    data = serialize(acceptance_run.transcript.final_fun)
    root = json.loads(data)["root"]
    misplaced = json.dumps(_doc({"kind": "scale", "c": root, "f": _ONE})).encode()
    valid, refused = [], []
    for _ in range(3):
        t0 = time.perf_counter()
        deserialize(data)
        t1 = time.perf_counter()
        with pytest.raises(LipForgeError, match="bad scalar") as info:
            deserialize(misplaced)
        refused.append(time.perf_counter() - t1)
        valid.append(t1 - t0)
    assert len(str(info.value)) <= len("malformed artifact: bad scalar ") + 203
    assert min(refused) <= 2 * min(valid), (refused, valid)


def test_quote_is_repr_on_one_line_cut_at_200_characters():
    """quote gives repr's bytes up to 200 characters, and its first 200 and
    '...' beyond, for the values a parsed document holds; a line break in a
    repr, as a numpy matrix has, becomes one space."""
    from lipforge.numerics import quote

    short = [
        {"kind": "const", "c": ["1.0"], "in_dim": 1},
        [], (), {}, (1,), (1, "a"), [None, True, False, -0.0, 1e300, 10**40],
        "it's", 'say "x"', "it's \"x\"", "line\nbreak", {"m": "5", "e": "-3"},
        [[[]], {"a": {"b": ("c",)}}],
    ]
    for value in short:
        assert quote(value) == repr(value)
    long = [
        ["0.5"] * 100, {str(i): [i] * 3 for i in range(50)}, "x" * 5000, [[["y" * 300]]],
        tuple(range(100)), [[[[[]]]]] * 60,
    ]
    for value in long:
        assert quote(value) == repr(value)[:200] + "...", value
    deep = []
    for _ in range(5000):
        deep = [deep]
    assert quote(deep) == "[" * 200 + "..."
    assert quote(np.eye(2)) == "array([[1., 0.], [0., 1.]])"
    assert quote({"m": np.eye(2)}) == "{'m': array([[1., 0.], [0., 1.]])}"


def test_a_misplaced_record_is_quoted_on_one_line_with_its_children_by_kind():
    """A sum of two linear records where a scale's c belongs is refused in a
    one-line message that shows the sum's decoded children by their kind."""
    identity = {"matrix": [["1.0", "0.0"], ["0.0", "1.0"]], "in_norm": "euclidean", "out_norm": "euclidean"}
    linear = {"kind": "linear", "map": identity}
    misplaced = {"kind": "scale", "c": {"kind": "sum", "f": linear, "g": linear}, "f": _ONE}
    with pytest.raises(LipForgeError) as info:
        deserialize(json.dumps(_doc(misplaced)).encode())
    assert str(info.value) == (
        "malformed artifact: bad scalar {'kind': 'sum', 'f': <linear record>, 'g': <linear record>}"
    )


@pytest.mark.parametrize(
    "edit",
    [
        lambda root: root["f"].update(c="x"),
        lambda root: root.update(kind="nope"),
        lambda root: root["f"]["f"].pop("outer"),
        lambda root: root["f"]["f"]["patches"][3].update(radius="x"),
        lambda root: root["f"]["f"]["patches"][3]["inner"].update(kind=7),
    ],
    ids=["scalar", "root-kind", "missing-field", "patch-radius", "inner-kind"],
)
def test_a_refused_tree_leaves_no_cycles(small_game, edit):
    """A refused tree leaves nothing for the cyclic collector: the error
    holds no frame that leads back to the records and nodes decoded."""
    doc = json.loads(serialize(small_game.final_fun))
    edit(doc["root"])
    data = json.dumps(doc).encode()
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        try:
            deserialize(data)
        except LipForgeError as e:
            message = str(e)
        assert message.startswith("malformed artifact")
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()
