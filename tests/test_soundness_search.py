"""A seeded soundness search over radial blends.

Each blend glues two small trees of Const, Linear, Affine, Sum, Scale,
AddConst and NormOf nodes, all in the blend's own norm, at radii from 2^-40
to 1. It is built with radial_blend and also decoded from a record written
by hand. Either it is refused because a piece does not vanish at the origin,
or no exact pair straddling its a- or b-sphere has a quotient above its
lip_cert. The cases come from numpy's seeded generator, so every run tries
the same ones.
"""

import json

import mpmath
import numpy as np

from lipforge import NormKind, radial_blend
from lipforge.lipfun import Affine, AddConst, Const, Linear, NormOf, Scale, Sum, deserialize, eval_point
from lipforge.numerics import LIP_ONE_TOL, LipForgeError, as_vector, working_dps_for_scale
from lipforge.space import LinearMap, norm

BLENDS = 108
PAIRS_PER_SPHERE = 3
VANISH = "blended mappings must vanish at the origin"


def _dyadics(rng, n: int) -> list[float]:
    """n dyadic floats k/8 * 2^-e with |k| <= 8, one e from 0 to 60 for all."""
    e = int(rng.integers(0, 61))
    return [float(rng.integers(-8, 9)) / 8 * 2.0 ** -e for _ in range(n)]


def _numerals(values) -> list[str]:
    return [repr(float(x)) for x in values]


def _map(rng, d: int, l: int, kind: NormKind):
    m = np.array(_dyadics(rng, l * d)).reshape(l, d)
    record = {"matrix": [_numerals(row) for row in m], "in_norm": kind.value, "out_norm": kind.value}
    return LinearMap(m, kind, kind), record


def _piece(rng, d: int, l: int, kind: NormKind, depth: int = 0):
    """A small tree R^d -> R^l in the norm kind, and its record."""
    choice = int(rng.integers(0, 7 if depth < 2 else 4))
    if choice == 0:
        c = _dyadics(rng, l) if rng.integers(0, 2) else [0.0] * l
        return Const(np.array(c), d), {"kind": "const", "c": _numerals(c), "in_dim": d}
    if choice == 1:
        m, rec = _map(rng, d, l, kind)
        return Linear(m), {"kind": "linear", "map": rec}
    if choice == 2:
        m, rec = _map(rng, d, l, kind)
        base, anchor = _dyadics(rng, l), _dyadics(rng, d)
        if rng.integers(0, 2):  # base = A anchor, exact for these dyadics: the piece vanishes at 0
            base = (m.matrix @ np.array(anchor)).tolist()
        # lists, which Affine packs as Const packs its c
        return Affine(base, m, anchor), {"kind": "affine", "base": _numerals(base), "map": rec,
                                         "anchor": _numerals(anchor)}
    if choice == 3:
        if l != 1:
            return _piece(rng, d, l, kind, depth)
        sign = 1 if rng.integers(0, 2) else -1
        return NormOf(d, sign, kind), {"kind": "norm_of", "in_dim": d, "sign": sign, "norm": kind.value}
    f, f_rec = _piece(rng, d, l, kind, depth + 1)
    if choice == 4:
        g, g_rec = _piece(rng, d, l, kind, depth + 1)
        return Sum(f, g), {"kind": "sum", "f": f_rec, "g": g_rec}
    if choice == 5:
        c = _dyadics(rng, 1)[0]
        return Scale(c, f), {"kind": "scale", "c": repr(c), "f": f_rec}
    with mpmath.workdps(60):
        at_origin = eval_point(f, as_vector([mpmath.mpf(0)] * d))
    p = _dyadics(rng, l)
    if rng.integers(0, 2) and all(mpmath.mpf(float(x)) == x for x in at_origin):
        p = [-float(x) for x in at_origin]  # cancels f(0) exactly
    return AddConst(f, p), {"kind": "add_const", "f": f_rec, "p": _numerals(p)}


def _straddling_pairs(rng, r: float, d: int, kind: NormKind):
    """Exact point pairs on either side of the sphere of radius r, a
    separation 2^-1 to 2^-50 of r apart, with the digits to evaluate them."""
    for _ in range(PAIRS_PER_SPHERE):
        eps = 2.0 ** -int(rng.integers(1, 51))
        dps = working_dps_for_scale(eps * r) + 40
        v = np.array(_dyadics(rng, d))
        while not v.any():
            v = np.array(_dyadics(rng, d))
        w1, w2 = (np.array(_dyadics(rng, d)) / (4 * d) for _ in range(2))
        with mpmath.workdps(dps):
            v = as_vector([mpmath.mpf(x) for x in v])
            z = v * (mpmath.mpf(r) / norm(v, kind))
            x = z * (1 - mpmath.mpf(eps)) + w1 * (eps * r)
            y = z * (1 + mpmath.mpf(eps)) + w2 * (eps * r)
        yield x, y, dps


def _worst_quotient(f, pairs, kind: NormKind):
    worst = mpmath.mpf(0)
    for x, y, dps in pairs:
        with mpmath.workdps(dps):
            q = norm(eval_point(f, x) - eval_point(f, y), kind) / norm(x - y, kind)
            worst = max(worst, q)
    return worst


def _blend(i: int):
    """The i-th blend of the search: its norm, input dimension, radii, whether
    both pieces vanish at the origin at 60 digits, the built node (or the
    error that refused it) and its record."""
    rng = np.random.default_rng(i)
    kind = list(NormKind)[i % 3]
    d, l = 1 + (i // 3) % 3, 1 + (i // 9) % 2
    a = 2.0 ** -int(rng.integers(1, 41))
    b = a * (1 + int(rng.integers(1, 9)) / 8)
    (f1, rec1), (f2, rec2) = _piece(rng, d, l, kind), _piece(rng, d, l, kind)
    record = {"kind": "radial_blend", "a": repr(a), "b": repr(b), "f1": rec1, "f2": rec2, "norm": kind.value}
    with mpmath.workdps(60):
        vanish = all(x == 0 for f in (f1, f2) for x in eval_point(f, as_vector([mpmath.mpf(0)] * d)))
    try:
        built = radial_blend(a, b, f1, f2, kind)
    except LipForgeError as e:
        built = e
    return rng, kind, d, (a, b), vanish, built, record


def test_blends_are_refused_or_meet_their_certificate():
    """Built and decoded, each blend is refused for a piece that does not
    vanish at the origin, or meets lip_cert on exact straddling pairs. The
    refusal is exact, and both paths reach the same verdict and certificate."""
    refused = 0
    for i in range(BLENDS):
        rng, kind, d, radii, vanish, built, record = _blend(i)
        try:
            decoded = deserialize(json.dumps({"schema": "lipforge-fun/1", "root": record}))
        except LipForgeError as e:
            decoded = e
        pairs = [p for r in radii for p in _straddling_pairs(rng, r, d, kind)]
        for f in (built, decoded):
            if isinstance(f, LipForgeError):
                assert str(f) == VANISH, (i, f)
                continue
            worst = _worst_quotient(f, pairs, kind)
            assert worst <= f.lip_cert + LIP_ONE_TOL, (i, kind, d, radii, float(worst), f.lip_cert)
        verdicts = [isinstance(f, LipForgeError) for f in (built, decoded)]
        assert verdicts == [not vanish] * 2, (i, verdicts)
        assert not vanish or built.lip_cert == decoded.lip_cert, i
        refused += not vanish
    # the search covers both outcomes
    assert BLENDS // 5 <= refused <= BLENDS - BLENDS // 5, refused
