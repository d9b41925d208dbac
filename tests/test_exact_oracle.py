"""Bit-identity of the exact evaluator against the mpf-object evaluator.

The reference below evaluates a tree with mpmath mpf objects, node by node,
the way the exact path did before it moved to raw libmp values. The raw
evaluator must return the same ``_mpf_`` tuples at the points where
exactness matters: the axis points of every patch sphere, the
difference-quotient sample points and the Dini forward points. The
reference takes the square root of every Euclidean norm it compares, so it
is also the oracle for the squared-radius ball and blend tests, checked
here a few ulps either side of each sphere.
"""

import functools

import mpmath
import numpy as np
import pytest
from mpmath import mp

from lipforge import (
    Domain,
    LinearMap,
    NormKind,
    NormOf,
    Scale,
    Sum,
    TargetSet,
    dq_error,
    identity,
    radial_blend,
    run_game,
    witnesses,
)
from lipforge.lipfun import (
    AddConst,
    Affine,
    Const,
    Linear,
    Patch,
    Patched,
    Precompose,
    RadialBlend,
    _identity_map,
    deserialize,
    serialize,
    shift_conjugate,
)
from lipforge.numerics import as_vector, exact_mpf, float_vector, raw_vector, to_float, working_dps_for_scale
from lipforge.probe import _forward_quotients, _use_exact, witness_ladder
from lipforge.space import _root_side, _sum_squares_raw, sample_ball

from cell_index import CellIndex

# ---------------------------------------------------------------------------
# Reference: the mpf-object evaluator


def ref_norm(v, kind):
    if kind is NormKind.EUCLIDEAN:
        acc = mpmath.mpf(0)
        for x in v:
            acc += x * x
        return mpmath.sqrt(acc)
    if kind is NormKind.SUP:
        return max((abs(x) for x in v), default=mpmath.mpf(0))
    acc = mpmath.mpf(0)
    for x in v:
        acc += abs(x)
    return acc


def ref_apply(m: LinearMap, v):
    rows = []
    for i in range(m.matrix.shape[0]):
        acc = mpmath.mpf(0)
        for j in range(m.matrix.shape[1]):
            acc += exact_mpf(m.matrix[i, j]) * exact_mpf(v[j])
        rows.append(acc)
    return as_vector(rows)


def ref_add(u, v):
    return as_vector([exact_mpf(u[i]) + exact_mpf(v[i]) for i in range(len(u))])


def ref_sub(u, v):
    return as_vector([exact_mpf(u[i]) - exact_mpf(v[i]) for i in range(len(u))])


@functools.lru_cache(maxsize=None)
def ref_cells(node: Patched) -> CellIndex:
    """The patch index as Patched kept it before CellTable: each ball's box
    added to a CellIndex in index order, padded by its float floor."""
    pads = node._radii + np.array(node._floors)
    index = CellIndex(2.0 * pads.max() if len(pads) else 1e-9)
    for j, (c, pad) in enumerate(zip(node._centers, pads.tolist())):
        index.add(j, c, pad)
    return index


def ref_resolve(node: Patched, z):
    index = ref_cells(node)
    for idx in index.table.get(tuple(np.floor(float_vector(z) / index.cell).tolist()), ()):
        p = node.patches[idx]
        if ref_norm(ref_sub(z, p.center), node.norm_kind) < exact_mpf(p.radius):
            return idx
    return None


def ref_eval(f, z):
    if isinstance(f, Const):
        return as_vector([exact_mpf(x) for x in f.c])
    if isinstance(f, Linear):
        return ref_apply(f.map, z)
    if isinstance(f, Affine):
        return ref_add(f.base, ref_apply(f.map, ref_sub(z, f.anchor)))
    if isinstance(f, NormOf):
        return as_vector([exact_mpf(f.sign) * ref_norm(z, f.norm_kind)])
    if isinstance(f, Sum):
        return ref_add(ref_eval(f.f, z), ref_eval(f.g, z))
    if isinstance(f, Scale):
        cc = exact_mpf(f.c)
        return as_vector([cc * exact_mpf(x) for x in ref_eval(f.f, z)])
    if isinstance(f, AddConst):
        return ref_add(ref_eval(f.f, z), f.p)
    if isinstance(f, RadialBlend):
        n = ref_norm(z, f.norm_kind)
        a, b = exact_mpf(f.a), exact_mpf(f.b)
        if n <= a:
            return ref_eval(f.f1, z)
        if n >= b:
            return ref_eval(f.f2, z)
        c1 = (b - n) / (b - a)
        c2 = b * (n - a) / (n * (b - a))
        v1 = ref_eval(f.f1, z)
        v2 = ref_eval(f.f2, z)
        return as_vector([c1 * exact_mpf(v1[i]) + c2 * exact_mpf(v2[i]) for i in range(len(v1))])
    if isinstance(f, Patched):
        idx = ref_resolve(f, z)
        return ref_eval(f.outer if idx is None else f.patches[idx].inner, z)
    if isinstance(f, Precompose):
        return ref_eval(f.f, ref_eval(f.inner_map, z))
    raise TypeError(type(f).__name__)


def ref_dq_error(f, x, operator, r, budget, seed):
    """dq_error's exact branch written with mpf objects."""
    d = f.in_dim
    with mp.workdps(working_dps_for_scale(r)):
        x_e = as_vector([exact_mpf(v) for v in x])
        r_e = exact_mpf(r)
        fx = ref_eval(f, x_e)
        best = exact_mpf(0)
        for u in sample_ball(np.zeros(d), r_e, budget, seed, operator.in_norm):
            z = as_vector([x_e[i] + u[i] for i in range(d)])
            lu = ref_apply(operator, u)
            fz = ref_eval(f, z)
            resid = as_vector([exact_mpf(fz[i]) - exact_mpf(fx[i]) - exact_mpf(lu[i]) for i in range(f.out_dim)])
            val = ref_norm(resid, operator.out_norm) / r_e
            if val > best:
                best = val
        return to_float(best)


def ref_forward_quotient(f, x, v, t):
    """An exact forward quotient of _forward_quotients written with mpf objects."""
    with mp.workdps(working_dps_for_scale(t)):
        x_e = as_vector([exact_mpf(c) for c in x])
        t_e = exact_mpf(t)
        z = as_vector([x_e[i] + t_e * exact_mpf(float(v[i])) for i in range(len(v))])
        num = exact_mpf(ref_eval(f, z)[0]) - exact_mpf(ref_eval(f, x_e)[0])
        return to_float(num / t_e)


# ---------------------------------------------------------------------------
# Helpers


def assert_same_bits(f, z):
    """Raw evaluator and reference agree bit for bit at the mpf point z."""
    raw = f._eval_exact(raw_vector(z))
    ref = ref_eval(f, z)
    assert list(raw) == [x._mpf_ for x in ref]


def patched_nodes(f):
    out, stack, seen = [], [f], set()
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        if isinstance(node, Patched):
            out.append(node)
        stack.extend(node.children())
    return out


# ---------------------------------------------------------------------------
# Tests


def test_continuity_axis_points(small_game):
    """Inner and outer at the 2d axis points x +- r*e_a of every patch: the
    evaluator on the spheres the continuity check bounds from the center."""
    checked = 0
    for node in patched_nodes(small_game.final_fun):
        for p in node.patches:
            with mp.workdps(working_dps_for_scale(p.radius)):
                center = as_vector([exact_mpf(x) for x in p.center_float])
                r = exact_mpf(p.radius)
                for axis in range(node.in_dim):
                    for sgn in (1, -1):
                        z = center.copy()
                        z[axis] = z[axis] + sgn * r
                        assert_same_bits(p.inner, z)
                        assert_same_bits(node.outer, z)
                        checked += 1
    assert checked > 0


def test_dq_sample_points(small_game):
    """Every point dq_error samples for the witness report, and its value
    wherever the probe takes the exact path."""
    f = small_game.final_fun
    exact_witnesses = 0
    for w in witnesses(small_game, 1, 0):
        x = w.point()
        budget = 2 * f.in_dim + 1
        with mp.workdps(working_dps_for_scale(w.alpha)):
            x_e = as_vector([exact_mpf(v) for v in x])
            r_e = exact_mpf(w.alpha)
            assert_same_bits(f, x_e)
            for u in sample_ball(np.zeros(f.in_dim), r_e, budget, 0, w.operator.in_norm):
                assert_same_bits(f, as_vector([x_e[i] + u[i] for i in range(f.in_dim)]))
        if _use_exact(x, w.alpha):
            exact_witnesses += 1
            assert dq_error(f, x, w.operator, w.alpha, budget, 0) == ref_dq_error(f, x, w.operator, w.alpha, budget, 0)
    assert exact_witnesses > 0


@pytest.mark.parametrize("kind", list(NormKind), ids=lambda k: k.value)
def test_dq_error_roots_only_the_largest_sample(kind, acceptance_run):
    """The exact dq_error roots and divides only its largest rounded sum of
    squares or norm; its value is the per-sample reference's, in each
    out-norm, on a small game into R^2 and at deep standard-run witnesses."""
    m = np.array([[0.3, 0.1], [-0.1, 0.2]])
    unit = Domain.box([0.0, 0.0], [1.0, 1.0])
    ops = (LinearMap(m, out_norm=kind), LinearMap(-m, out_norm=kind))
    small = run_game(unit, TargetSet.grid([0.0, 0.0], [1.0, 1.0], 0.25), ops, "stay", rounds=4, seed=0)
    std = acceptance_run.transcript
    cases = [(small.final_fun, w) for w in witnesses(small, 1, 0)]
    cases += [(std.final_fun, w) for k in (5, 8) for w in witnesses(std, 1, 0) if w.round_k == k][::120]
    checked = 0
    for f, w in cases:
        x = w.point()
        if not _use_exact(x, w.alpha):
            continue
        op = LinearMap(w.operator.matrix, w.operator.in_norm, kind)
        budget = 2 * f.in_dim + 1
        assert dq_error(f, x, op, w.alpha, budget, 0) == ref_dq_error(f, x, op, w.alpha, budget, 0)
        checked += f is std.final_fun
    assert checked >= 3


def test_dini_forward_points(small_game):
    """The exact scales of every witness ladder, along +-e1: each
    direction's quotient, computed with the other direction's from one f(x)."""
    f = small_game.final_fun
    e1 = np.eye(f.in_dim)[0]
    exact_scales = 0
    for w in witnesses(small_game, 1, 0):
        x = w.point()
        ladder = witness_ladder(small_game, w)
        quotients = _forward_quotients(f, [(x, ladder)], (e1, -e1), {})[0]
        for k, t in enumerate(ladder.radii):
            if not _use_exact(x, t):
                continue
            exact_scales += 1
            for v, values in zip((e1, -e1), quotients):
                with mp.workdps(working_dps_for_scale(t)):
                    t_e = exact_mpf(t)
                    x_e = as_vector([exact_mpf(c) for c in x])
                    assert_same_bits(f, as_vector([x_e[i] + t_e * exact_mpf(float(v[i])) for i in range(len(v))]))
                assert values[k] == ref_forward_quotient(f, x, v, t)
    assert exact_scales > 0


def test_dini_forward_points_on_the_deep_standard_tree(acceptance_run):
    """At two level-8 centers of the standard tree plus the Euclidean norm,
    whose f(x) has no exact binary form: each exact scale, from about 1e-14
    down to alpha_8 (about 1e-1139), takes f(x) at its own precision."""
    tr = acceptance_run.transcript
    f = Sum(tr.final_fun, NormOf(2))
    e1 = np.eye(2)[0]
    ws = [w for w in witnesses(tr, 1, 0) if w.round_k == tr.k_max][100:102]
    probes = [(w.point(), witness_ladder(tr, w)) for w in ws]
    exact_scales = 0
    for (x, ladder), quotients in zip(probes, _forward_quotients(f, probes, (e1, -e1), {})):
        for k, t in enumerate(ladder.radii):
            if _use_exact(x, t):
                exact_scales += 1
                assert [q[k] for q in quotients] == [ref_forward_quotient(f, x, v, t) for v in (e1, -e1)]
    assert exact_scales >= 10


@pytest.mark.parametrize("kind", list(NormKind), ids=lambda k: k.value)
def test_norm_nodes_under_every_norm(kind):
    rng = np.random.default_rng(11)
    d = 3
    funs = [
        NormOf(d, 1, kind),
        NormOf(d, -1, kind),
        Sum(NormOf(d, 1, kind), Scale(0.5, NormOf(d, -1, kind))),
        radial_blend(0.5, 1.5, Scale(0.4, identity(d, kind)), Scale(0.5, identity(d, kind)), kind),
    ]
    for dps in (15, 60, 400):
        with mp.workdps(dps):
            for _ in range(20):
                z = as_vector([exact_mpf(v) * (1 + mpmath.mpf(2) ** -150) for v in rng.uniform(-2, 2, size=d)])
                for f in funs:
                    assert_same_bits(f, z)


# ---------------------------------------------------------------------------
# Sphere boundaries: the squared-radius tests against the rounded root

BOUNDARY_PRECS = (53, 200, 2300, 7600)
ROUNDINGS = ("n", "f", "c", "d", "u")
OFFSETS = range(-8, 9)


@pytest.fixture(params=[(p, r) for p in BOUNDARY_PRECS for r in ROUNDINGS], ids=lambda pr: f"{pr[0]}{pr[1]}")
def working(request):
    """Working precision and rounding mode, restored afterwards."""
    prec, rnd = request.param
    saved = tuple(mp._prec_rounding)
    try:
        mp.prec = prec
        mp._prec_rounding[1] = rnd
        yield prec
    finally:
        mp.prec = saved[0]
        mp._prec_rounding[1] = saved[1]


def boundary_radii(prec):
    """A short float radius, one of the working precision, one with more
    bits than the working precision and a deep one."""
    third = mpmath.mpf(1) / 3
    with mp.workprec(2 * prec + 8):
        fine = mpmath.mpf(1) / 3
    return [mpmath.mpf(0.3), third, fine, mpmath.mpf(2) ** -700 * (1 + third)]


def near_sphere(center, r, prec):
    """center + r (1 + k 2^-prec) e for k in OFFSETS along four directions,
    and the exact axis points center +- r e_a, in the working precision."""
    center = [exact_mpf(c) for c in center]
    root = mpmath.sqrt(mpmath.mpf(2)) / 2
    directions = [(mpmath.mpf(0.6), mpmath.mpf(0.8)), (-mpmath.mpf(0.8), mpmath.mpf(0.6)), (root, -root),
                  (mpmath.mpf(1), mpmath.mpf(0))]
    points = []
    for e in directions:
        for k in OFFSETS:
            t = r * (1 + k * mpmath.mpf(2) ** -prec)
            points.append(as_vector([c + t * ei for c, ei in zip(center, e)]))
    for axis in range(len(center)):
        for sgn in (1, -1):
            z = list(center)
            z[axis] = mpmath.fadd(z[axis], sgn * r, exact=True)
            points.append(as_vector(z))
    return points


def count_sides(points, center, r):
    """How many points _root_side decides and how many it leaves to the root."""
    r_raw = exact_mpf(r)._mpf_
    r2 = mpmath.libmp.mpf_mul(r_raw, r_raw)
    sides = [_root_side(_sum_squares_raw(raw_vector(ref_sub(z, center))), r2) for z in points]
    return sum(1 for s in sides if s), sum(1 for s in sides if not s)


def test_ball_test_on_the_sphere(working):
    """_resolve_exact decides every point near the patch sphere as the
    rounded root does, inside and outside the band."""
    center = as_vector([exact_mpf(0.40625), exact_mpf(0.546875)])
    decided = deferred = 0
    for r in boundary_radii(working):
        node = Patched(NormOf(2), (Patch(center, r, Const(np.zeros(1), 2)),), NormKind.EUCLIDEAN)
        points = near_sphere(center, r, working)
        for z in points:
            assert node._resolve_exact(raw_vector(z)) == ref_resolve(node, z)
        d, u = count_sides(points, center, r)
        decided += d
        deferred += u
    assert decided > 0 and deferred > 0


def test_blend_on_both_spheres(working):
    """RadialBlend._eval_exact picks the branch the rounded root picks at
    points near the a and b spheres, with the spheres far apart and a few
    ulps apart."""
    origin = as_vector([exact_mpf(0.0), exact_mpf(0.0)])
    f1, f2 = Scale(0.5, identity(2)), Sum(identity(2), Scale(0.25, identity(2)))
    for a in boundary_radii(working):
        for b in (a * 1.75, a * (1 + 4 * mpmath.mpf(2) ** -working)):
            f = RadialBlend(a, b, f1, f2)
            for r in (a, b):
                for z in near_sphere(origin, r, working):
                    assert_same_bits(f, z)


def test_identity_apply_is_the_loop(working):
    """The identity fast path of apply_raw returns the general loop's bits,
    also on special values, and on decoded translations."""
    rng = np.random.default_rng(working)
    third = mpmath.mpf(1) / 3
    translate = shift_conjugate(identity(3), np.array([0.25, 0.5, 0.75]), NormKind.EUCLIDEAN).f.inner_map
    decoded = deserialize(serialize(translate))
    for m in (_identity_map(3, NormKind.EUCLIDEAN), decoded.map):
        assert m._is_identity
        for _ in range(10):
            v = as_vector([third * exact_mpf(x) for x in rng.uniform(-4, 4, size=3)])
            assert list(m.apply_raw(raw_vector(v))) == [x._mpf_ for x in ref_apply(m, v)]
        for special in (mpmath.inf, -mpmath.inf, mpmath.nan, mpmath.mpf(0)):
            v = as_vector([third, special, -third])
            assert list(m.apply_raw(raw_vector(v))) == [x._mpf_ for x in ref_apply(m, v)]
    near = np.eye(3)
    near[1, 1] = 1 + 2.0**-52
    assert not LinearMap(near)._is_identity
    assert not LinearMap(np.eye(3)[:2])._is_identity


def test_exact_mpf_is_exact_at_every_precision():
    """A float or an int converts to the same binary rational at 1 digit as
    at 60: mpmath.mpf would round 0.2 to 51 * 2^-8 at dps 1."""
    values = (0.2, -0.3, 1 / 3, 2.0**-1074, 1e308, 0.0, 3, -(2**80 + 1), np.float64(0.7))
    ref = [mpmath.libmp.from_float(x) if isinstance(x, float) else mpmath.libmp.from_int(x) for x in values]
    for dps in (1, 4, 15, 60):
        with mp.workdps(dps):
            assert [exact_mpf(x)._mpf_ for x in values] == ref, dps
    with mp.workdps(1):
        assert exact_mpf(0.2)._mpf_ == mpmath.libmp.from_man_exp(3602879701896397, -54)
        assert mpmath.mpf(0.2)._mpf_ == mpmath.libmp.from_man_exp(51, -8)


def test_root_side_at_every_small_precision():
    """_root_side against the rounded root for precisions of 1-6 bits,
    where the band is widest relative to the spacing of the numbers, on a
    grid of eighths from 0 to 2 r^2 around several radii."""
    saved = tuple(mp._prec_rounding)
    try:
        for prec in range(1, 7):
            for rnd in ROUNDINGS:
                mp.prec = prec
                mp._prec_rounding[1] = rnd
                for r_man in (1, 3, 5, 7):
                    r = mpmath.libmp.from_int(r_man)
                    r2 = mpmath.libmp.mpf_mul(r, r)
                    for k in range(16 * r_man * r_man):
                        acc = mpmath.libmp.from_man_exp(k, -3)
                        side = _root_side(acc, r2)
                        q = mpmath.libmp.mpf_sqrt(acc, prec, rnd)
                        if side:
                            assert side == mpmath.libmp.mpf_cmp(q, r), (prec, rnd, r_man, k)
    finally:
        mp.prec = saved[0]
        mp._prec_rounding[1] = saved[1]
