"""Bit-identity of the exact evaluator against the mpf-object evaluator.

The reference below evaluates a tree with mpmath mpf objects, node by node,
the way the exact path did before it moved to raw libmp values. The raw
evaluator must return the same ``_mpf_`` tuples at the points the package
evaluates exactly: patch-continuity axis points, difference-quotient sample
points and Dini forward points.
"""

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
    Patched,
    Precompose,
    RadialBlend,
)
from lipforge.numerics import as_vector, exact_mpf, float_vector, raw_vector, to_float, working_dps_for_scale
from lipforge.probe import _forward_quotient, _use_exact, witness_ladder
from lipforge.space import sample_ball

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


def ref_resolve(node: Patched, z):
    for idx in node._grid.candidates(float_vector(z)):
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
    """_forward_quotient's exact branch written with mpf objects."""
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


@pytest.fixture(scope="module", params=[2, 3], ids=["2d", "3d"])
def small_game(request):
    d = request.param
    lo, hi = [0.0] * d, [1.0] * d
    ops = (LinearMap(np.array([[0.5] + [0.0] * (d - 1)])), LinearMap(np.array([[-0.5] + [0.0] * (d - 1)])))
    return run_game(Domain.box(lo, hi), TargetSet.grid(lo, hi, 0.25), ops, "stay", rounds=4, seed=0)


# ---------------------------------------------------------------------------
# Tests


def test_continuity_axis_points(small_game):
    """The points _check_patch_continuity builds, on every patch."""
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
        with mp.workdps(working_dps_for_scale(w.s)):
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


def test_dini_forward_points(small_game):
    """The exact scales of every witness ladder, along +-e1."""
    f = small_game.final_fun
    e1 = np.eye(f.in_dim)[0]
    exact_scales = 0
    for w in witnesses(small_game, 1, 0):
        with mp.workdps(working_dps_for_scale(w.s)):
            x = w.point()
        for t in witness_ladder(small_game, w).radii:
            if not _use_exact(x, t):
                continue
            exact_scales += 1
            for v in (e1, -e1):
                with mp.workdps(working_dps_for_scale(t)):
                    t_e = exact_mpf(t)
                    x_e = as_vector([exact_mpf(c) for c in x])
                    assert_same_bits(f, as_vector([x_e[i] + t_e * exact_mpf(float(v[i])) for i in range(len(v))]))
                assert _forward_quotient(f, x, v, t) == ref_forward_quotient(f, x, v, t)
    assert exact_scales > 0


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
