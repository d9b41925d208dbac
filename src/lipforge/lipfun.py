"""Immutable expression trees for Lipschitz mappings R^d -> R^l.

Every node evaluates exactly (up to arithmetic rounding) and carries a
certified Lipschitz upper bound computed by structural rules, each rounded
up once from its exact value (_cert_up). The node semantics are
implemented twice:

* ``_eval_batch``, the one float64 evaluator, on (n, d) arrays of points.
  A single float point is a one-row batch, and node constants enter as
  float64 even when they are stored as mpf. A Patched layer is one pass:
  its unclaimed rows are one batch of the outer mapping and its claimed
  rows one ``_eval_rows`` pass over the inners they reach, which evaluates
  inners differing only in their constants together;
* ``_eval_exact``, the one exact evaluator, used when probing displacements
  finer than float64 resolution (patch radii constructed by deep game rounds
  fall far below 1e-308; see numerics.py). Its vectors are tuples of raw
  libmp values, and every operation is the ``mpmath.libmp`` call the mpf
  operator would make, in the same order and at the context's working
  precision, so results are bit-identical to evaluating with mpf objects.
  A Euclidean norm that only decides a ball or blend branch is compared
  squared, and its root is taken only where that cannot decide the branch
  the root would (space._root_side).
  Each node kind declares its constants' float64 and raw copies once
  (_copies, each copy made on first use and kept on the node by
  numerics.cached, which gives a node no attribute dict), as it declares
  the dimensions it reads from a child or map (_dims).
  ``eval_point`` converts object arrays of mpf at the boundary.

Construction shares nodes as the decoder shares equal records: identity,
zero_map and shift_conjugate's translations are one node per key among the
nodes alive (_shared_node), so a built tree has the distinct nodes of the
tree its function.json decodes to, but for nodes over equal operators that
were built apart (each round scales its own operator).

The radial blend node interpolates two mappings between two spheres and is
the basic gluing device: equal to ``f1`` inside radius ``a``, to ``f2``
outside radius ``b``, radially mixed in between, with certified constant
``(Lip f1 + Lip f2) * (1 + a/(b-a))`` for pieces that vanish at the origin.
"""

from __future__ import annotations

import gc
import json
import math
import weakref
from contextlib import contextmanager
from dataclasses import dataclass
from functools import lru_cache
from operator import attrgetter

import numpy as np
from mpmath import mp
from mpmath.libmp import from_float, from_int, fzero
from mpmath.libmp import mpf_add, mpf_div, mpf_ge, mpf_le, mpf_mul, mpf_sub

from .numerics import (
    CONSTRUCTION_DPS,
    INT,
    SCALAR,
    VECTOR,
    Codec,
    LipForgeError,
    Scalar,
    as_matrix,
    as_vector,
    cached,
    decode_fields,
    decode_scalar,
    decode_vector,
    encode_vector,
    exact_raw,
    float_vector,
    is_exact_vector,
    is_finite,
    is_mpf,
    mpf_vector,
    quote,
    raw_to_float,
    raw_vector,
    to_float,
    working_dps_for_scale,
)
from .space import CellTable, Domain, LinearMap, NormKind, _fraction, _norm_lt_raw, _norm_raw, _root_side, _sqrt_raw, _sum_squares_raw
from .space import _halton, norm_batch, unit_directions

FUN_SCHEMA = "lipforge-fun/1"
# Deepest node level (root = 0) that serialization accepts. Tree walks are
# recursive: lip_cert takes three frames per level and the JSON codec up to
# three nesting levels per patched node, so a tree at this depth still fits
# under Python's default recursion limit of 1000 with room for the caller.
MAX_TREE_DEPTH = 200

# A patch sphere is resolvable in float64 when its radius exceeds this
# fraction of the center scale; below it the sphere collapses onto the
# center at float64 resolution and contracts are checked exactly instead.
FLOAT_RESOLVE_REL = 1e-12

# Sphere-direction sets kept by _sphere_directions. Continuity checks sweep
# the patch seeds 0..n-1 in order, so an LRU smaller than one layer's patch
# count would never hit; construction and verification draw the same sets.
DIRECTIONS_CACHE_SIZE = 2048

# Largest sup-norm gap between inner and outer on a patch sphere that passes.
CONTINUITY_TOL = 1e-9

# Most sphere samples the float continuity check evaluates in one pass
# (whole patches' sample sets, at least one patch): it bounds the working set.
CONTINUITY_BLOCK_ROWS = 32768


def _cert_up(formula, *values) -> float:
    """The least float at least the exact value of formula at values (floats
    or mpfs, not negative), or inf if one is not finite; formula takes and
    returns exact rationals as (numerator, denominator > 0) pairs. A
    certificate is its structural rule at its children's certificates and
    its stored constants, rounded up once (S. M. Rump, Verification methods,
    Acta Numerica 2010), so no rounding takes it below the rule's value."""
    if not all(map(is_finite, values)):
        return math.inf
    num, den = formula(*[(_fraction(x) if is_mpf(x) else float(x)).as_integer_ratio() for x in values])
    try:
        t = num / den  # rounded to nearest
    except OverflowError:
        return math.inf
    n, d = t.as_integer_ratio()
    return t if n * den >= num * d else math.nextafter(t, math.inf)


def _sum(x: tuple[int, int], y: tuple[int, int]) -> tuple[int, int]:
    return x[0] * y[1] + y[0] * x[1], x[1] * y[1]


def _product(x: tuple[int, int], y: tuple[int, int]) -> tuple[int, int]:
    return x[0] * y[0], x[1] * y[1]


def _blend_rule(l1, l2, a, b) -> tuple[int, int]:
    """(l1 + l2)(1 + a/(b - a)), which is (l1 + l2) b / (b - a)."""
    (sn, sd), (an, ad), (bn, bd) = _sum(l1, l2), a, b
    return sn * bn * ad, sd * (bn * ad - an * bd)


def _as_vectors(node, *attrs: str):
    """Pack each vector constant attr of node that is not an ndarray by as_vector."""
    for attr in attrs:
        if not isinstance(v := getattr(node, attr), np.ndarray):
            object.__setattr__(node, attr, as_vector(list(v)))


def _copies(attr: str, vector: bool) -> tuple[cached, cached]:
    """The float64 copy and the raw libmp copy of the node constant attr,
    each made on its first use and cached: float_vector and raw_vector for
    a vector, to_float and exact_raw for a scalar."""
    get = attrgetter(attr)
    as_float, as_raw = (float_vector, raw_vector) if vector else (to_float, exact_raw)
    return cached(lambda node: as_float(get(node))), cached(lambda node: as_raw(get(node)))


def _dims(in_from: str, out_from: str | None = None) -> tuple[property, property]:
    """in_dim, read from the child or map in_from, and out_dim, from
    out_from or else in_from. They are not cached: a tree's dimensions walk
    its outer chain on each call, but a cache per node costs peak memory."""
    return property(attrgetter(f"{in_from}.in_dim")), property(attrgetter(f"{out_from or in_from}.out_dim"))


class LipFun:
    """Base class; concrete nodes are frozen dataclasses below."""

    in_dim: int
    out_dim: int

    def __call__(self, z) -> np.ndarray:
        return eval_point(self, z)

    @cached
    def lip_cert(self) -> float:
        return self._lip_cert()

    def _lip_cert(self) -> float:  # pragma: no cover - abstract
        raise NotImplementedError

    def _eval_exact(self, z: tuple) -> tuple:
        raise NotImplementedError

    def _eval_batch(self, Z: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def children(self) -> tuple["LipFun", ...]:
        """The child nodes, in the order of the node's record (_RECORDS);
        a Patched node lists outer, then each patch's inner."""
        out: list[LipFun] = []
        for _key, attr, codec in _RECORDS[type(self)][1]:
            out += codec.children(getattr(self, attr))
        return tuple(out)


def eval_point(f: LipFun, z) -> np.ndarray:
    """Evaluate at a single point. A point carrying mpfs takes the exact path;
    a float point is row 0 of a one-row float64 batch, so its value has the
    bits eval_batch gives that row, even where node constants are mpf."""
    if not isinstance(z, np.ndarray):
        z = as_vector(list(z))
    if len(z) != f.in_dim:
        raise LipForgeError(f"dimension mismatch: point has {len(z)}, mapping takes {f.in_dim}")
    if is_exact_vector(z):
        return mpf_vector(f._eval_exact(raw_vector(z)))
    return f._eval_batch(np.asarray(z, dtype=float)[None, :])[0]


def eval_batch(f: LipFun, Z: np.ndarray) -> np.ndarray:
    """Vectorized float64 evaluation of an (n, d) array of points. Rows are
    evaluated independently: a row has the same bits in any batch, alone
    or stacked with others, which lets probes put many points in one call.
    Every float norm and product sums each row on its own, in coordinate
    order (space.norm_batch, space._products), so this holds on every CPU."""
    Z = np.asarray(Z, dtype=float)
    if Z.ndim != 2 or Z.shape[1] != f.in_dim:
        raise LipForgeError("dimension mismatch in batch evaluation")
    return f._eval_batch(Z)


@dataclass(frozen=True, eq=False)
class Const(LipFun):
    c: np.ndarray
    in_dim: int

    def __post_init__(self):
        _as_vectors(self, "c")

    _c_float, _c_raw = _copies("c", vector=True)

    @property
    def out_dim(self) -> int:
        return len(self.c)

    def _lip_cert(self) -> float:
        return 0.0

    def _eval_exact(self, z):
        return self._c_raw

    def _eval_batch(self, Z):
        return np.broadcast_to(self._c_float, (len(Z), len(self.c))).copy()


@dataclass(frozen=True, eq=False)
class Linear(LipFun):
    map: LinearMap

    in_dim, out_dim = _dims("map")

    def _lip_cert(self) -> float:
        return self.map.op_norm

    def _eval_exact(self, z):
        return self.map.apply_raw(z)

    def _eval_batch(self, Z):
        return self.map.apply_batch(Z)


@dataclass(frozen=True, eq=False)
class Affine(LipFun):
    """z -> base + A (z - anchor)."""

    base: np.ndarray
    map: LinearMap
    anchor: np.ndarray

    def __post_init__(self):
        _as_vectors(self, "base", "anchor")
        if len(self.base) != self.map.out_dim or len(self.anchor) != self.map.in_dim:
            raise LipForgeError("affine node dimensions inconsistent")

    in_dim, out_dim = _dims("map")
    _base_float, _base_raw = _copies("base", vector=True)
    _anchor_float, _anchor_raw = _copies("anchor", vector=True)

    def _lip_cert(self) -> float:
        return self.map.op_norm

    def _eval_exact(self, z):
        prec, rnd = mp._prec_rounding
        w = tuple(mpf_sub(x, a, prec, rnd) for x, a in zip(z, self._anchor_raw))
        return tuple(mpf_add(b, y, prec, rnd) for b, y in zip(self._base_raw, self.map.apply_raw(w)))

    def _eval_batch(self, Z):
        return self._base_float + self.map.apply_batch(Z - self._anchor_float)


@dataclass(frozen=True, eq=False)
class NormOf(LipFun):
    """z -> [sign * ||z||], codomain dimension 1."""

    in_dim: int
    sign: int = 1
    norm_kind: NormKind = NormKind.EUCLIDEAN

    def __post_init__(self):
        if self.sign not in (-1, 1):
            raise LipForgeError("norm node sign must be +-1")

    out_dim = 1

    def _lip_cert(self) -> float:
        return 1.0

    def _eval_exact(self, z):
        prec, rnd = mp._prec_rounding
        return (mpf_mul(from_int(self.sign), _norm_raw(z, self.norm_kind), prec, rnd),)

    def _eval_batch(self, Z):
        return (self.sign * norm_batch(Z, self.norm_kind))[:, None]


@dataclass(frozen=True, eq=False)
class Sum(LipFun):
    f: LipFun
    g: LipFun

    def __post_init__(self):
        if (self.f.in_dim, self.f.out_dim) != (self.g.in_dim, self.g.out_dim):
            raise LipForgeError("sum of mappings with different dimensions")

    in_dim, out_dim = _dims("f")

    def _lip_cert(self) -> float:
        return _cert_up(_sum, self.f.lip_cert, self.g.lip_cert)

    def _eval_exact(self, z):
        prec, rnd = mp._prec_rounding
        return tuple(mpf_add(u, v, prec, rnd) for u, v in zip(self.f._eval_exact(z), self.g._eval_exact(z)))

    def _eval_batch(self, Z):
        return self.f._eval_batch(Z) + self.g._eval_batch(Z)


@dataclass(frozen=True, eq=False)
class Scale(LipFun):
    c: Scalar
    f: LipFun

    in_dim, out_dim = _dims("f")
    _c_float, _c_raw = _copies("c", vector=False)

    def _lip_cert(self) -> float:
        return _cert_up(_product, abs(self.c), self.f.lip_cert)

    def _eval_exact(self, z):
        prec, rnd = mp._prec_rounding
        c = self._c_raw
        return tuple(mpf_mul(c, x, prec, rnd) for x in self.f._eval_exact(z))

    def _eval_batch(self, Z):
        return self._c_float * self.f._eval_batch(Z)


@dataclass(frozen=True, eq=False)
class AddConst(LipFun):
    """z -> f(z) + p, also named add_const."""

    f: LipFun
    p: np.ndarray

    def __post_init__(self):
        _as_vectors(self, "p")
        if len(self.p) != self.f.out_dim:
            raise LipForgeError("added constant has wrong dimension")

    in_dim, out_dim = _dims("f")
    _p_float, _p_raw = _copies("p", vector=True)

    def _lip_cert(self) -> float:
        return self.f.lip_cert

    def _eval_exact(self, z):
        prec, rnd = mp._prec_rounding
        return tuple(mpf_add(u, p, prec, rnd) for u, p in zip(self.f._eval_exact(z), self._p_raw))

    def _eval_batch(self, Z):
        return self.f._eval_batch(Z) + self._p_float


@dataclass(frozen=True, eq=False)
class RadialBlend(LipFun):
    """Radial interpolation between f1 (inside a) and f2 (outside b), also
    named radial_blend. Its certificate needs f1(0) = f2(0) = 0, which every
    blend, built or decoded, meets exactly: both are evaluated at the origin
    at CONSTRUCTION_DPS digits, so a nonzero piece passes only if it cancels
    to zero there. The exact evaluator keeps a^2 and b^2 exactly and takes
    the Euclidean norm's root only in the mid shell or within a few ulps of
    a sphere (see _eval_exact).
    """

    a: Scalar
    b: Scalar
    f1: LipFun
    f2: LipFun
    norm_kind: NormKind = NormKind.EUCLIDEAN

    def __post_init__(self):
        if not (self.a > 0 and self.a < self.b):
            raise LipForgeError("radial blend requires 0 < a < b")
        if (self.f1.in_dim, self.f1.out_dim) != (self.f2.in_dim, self.f2.out_dim):
            raise LipForgeError("blended mappings must share dimensions")
        with mp.workdps(CONSTRUCTION_DPS):
            if any(x != fzero for f in (self.f1, self.f2) for x in f._eval_exact((fzero,) * self.in_dim)):
                raise LipForgeError("blended mappings must vanish at the origin")

    in_dim, out_dim = _dims("f1")
    _a_float, _a_raw = _copies("a", vector=False)
    _b_float, _b_raw = _copies("b", vector=False)

    def _lip_cert(self) -> float:
        return _cert_up(_blend_rule, self.f1.lip_cert, self.f2.lip_cert, self.a, self.b)

    @cached
    def _a_sq(self) -> tuple:
        return mpf_mul(self._a_raw, self._a_raw)

    @cached
    def _b_sq(self) -> tuple:
        return mpf_mul(self._b_raw, self._b_raw)

    def _eval_exact(self, z):
        """Under the Euclidean norm the branch is decided on one sum of
        squares against the bands of a^2 and b^2 (see space._root_side).
        The root n is taken only in the mid shell, where c1 and c2 need it,
        or when a band is too close to call; then n is compared as for the
        other norms, so every branch is the one n would pick."""
        prec, rnd = mp._prec_rounding
        a, b = self._a_raw, self._b_raw
        if self.norm_kind is NormKind.EUCLIDEAN:
            acc = _sum_squares_raw(z)
            side = _root_side(acc, self._a_sq)
            if side < 0:
                return self.f1._eval_exact(z)
            if side > 0 and _root_side(acc, self._b_sq) > 0:
                return self.f2._eval_exact(z)
            n = _sqrt_raw(acc, prec, rnd)
        else:
            n = _norm_raw(z, self.norm_kind)
        if mpf_le(n, a):
            return self.f1._eval_exact(z)
        if mpf_ge(n, b):
            return self.f2._eval_exact(z)
        # c1 = (b - n) / (b - a) and c2 = b * (n - a) / (n * (b - a))
        width = mpf_sub(b, a, prec, rnd)
        c1 = mpf_div(mpf_sub(b, n, prec, rnd), width, prec, rnd)
        c2 = mpf_div(mpf_mul(b, mpf_sub(n, a, prec, rnd), prec, rnd), mpf_mul(n, width, prec, rnd), prec, rnd)
        v1 = self.f1._eval_exact(z)
        v2 = self.f2._eval_exact(z)
        return tuple(mpf_add(mpf_mul(c1, x1, prec, rnd), mpf_mul(c2, x2, prec, rnd), prec, rnd) for x1, x2 in zip(v1, v2))

    def _eval_batch(self, Z):
        n = norm_batch(Z, self.norm_kind)
        a, b = self._a_float, self._b_float
        out = np.empty((len(Z), self.out_dim))
        inner = n <= a
        outer = n >= b
        mid = ~(inner | outer)
        if inner.any():
            out[inner] = self.f1._eval_batch(Z[inner])
        if outer.any():
            out[outer] = self.f2._eval_batch(Z[outer])
        if mid.any():
            nm = n[mid]
            c1 = (b - nm) / (b - a)
            c2 = b * (nm - a) / (nm * (b - a))
            out[mid] = c1[:, None] * self.f1._eval_batch(Z[mid]) + c2[:, None] * self.f2._eval_batch(Z[mid])
        return out


@dataclass(frozen=True, eq=False)
class Patch:
    center: np.ndarray
    radius: Scalar
    inner: LipFun

    def __post_init__(self):
        _as_vectors(self, "center")

    center_float, center_raw = _copies("center", vector=True)
    radius_float, radius_raw = _copies("radius", vector=False)

    @cached
    def radius_sq(self) -> tuple:
        """radius * radius, exact, for the squared-norm ball test."""
        return mpf_mul(self.radius_raw, self.radius_raw)


@dataclass(frozen=True, eq=False)
class Patched(LipFun):
    """Outer mapping overridden inside disjoint open balls by inner mappings.
    Balls with ||c_i - c_j|| <= r_i + r_j (float64, the node's norm) are refused
    as overlapping; only pairs that share a cell of the patch index (a
    space.CellTable of the balls' padded boxes) can be."""

    outer: LipFun
    patches: tuple[Patch, ...]
    norm_kind: NormKind = NormKind.EUCLIDEAN

    def __post_init__(self):
        # the first faulty patch names the error, its checks made in this order;
        # finiteness is that of the float copies the index and the float path
        # use (a deep radius underflows to 0.0 and is still finite)
        dims = (self.outer.in_dim, self.outer.out_dim)
        for n, p in enumerate(self.patches):
            fault = ("patch inner mapping has wrong dimensions" if (p.inner.in_dim, p.inner.out_dim) != dims
                     else "patch center has wrong dimension" if len(p.center) != dims[0]
                     else None if p.radius > 0 else "patch radius must be positive")
            if fault:
                break
        else:
            n, fault = len(self.patches), None
        centers = np.array([p.center for p in self.patches[:n]], dtype=float).reshape(n, dims[0])
        radii = np.array([p.radius for p in self.patches[:n]], dtype=float)
        if not (np.isfinite(centers).all() and np.isfinite(radii).all()):
            raise LipForgeError("patch center and radius must be finite")
        if fault:
            raise LipForgeError(fault)
        # float64 resolves a patch's radii above its floor, FLOAT_RESOLVE_REL (1 + max|center|)
        floors = FLOAT_RESOLVE_REL * (1.0 + np.max(np.abs(centers), axis=1, initial=0.0))
        pads = radii + floors
        index = CellTable(2.0 * pads.max() if len(pads) else 1e-9, centers, pads)
        i, j = index.pairs()
        if np.any(norm_batch(centers[i] - centers[j], self.norm_kind) <= radii[i] + radii[j]):
            raise LipForgeError("patch overlap")
        for name, value in (("_centers", centers), ("_radii", radii), ("_floors", floors.tolist()), ("_index", index)):
            object.__setattr__(self, name, value)

    in_dim, out_dim = _dims("outer")

    def _lip_cert(self) -> float:
        certs = [self.outer.lip_cert] + [p.inner.lip_cert for p in self.patches]
        return max(certs)

    def resolve(self, z) -> int | None:
        """Index of the patch whose open ball contains z, or None."""
        if is_exact_vector(z):
            return self._resolve_exact(raw_vector(z))
        idx = int(self._claims(np.asarray(z, dtype=float)[None, :])[0])
        return None if idx < 0 else idx

    def _claims(self, Z: np.ndarray) -> np.ndarray:
        """For each row of Z, the index of the patch whose open ball contains
        it, or -1. Each row is tested only against the patches its index
        cell lists, in index order, and the first that contains it wins."""
        claims = np.full(len(Z), -1, dtype=np.intp)
        if len(Z) == 1:  # a point (eval_point, resolve): its cell is found in Python
            pidx = self._index.point_items(Z[0].tolist())
            rows = np.zeros(len(pidx), dtype=np.intp)
        else:
            rows, pidx = self._index.candidates(Z)
        if not len(rows):
            return claims
        hit = norm_batch(Z[rows] - self._centers[pidx], self.norm_kind) < self._radii[pidx]
        rows, pidx = rows[hit], pidx[hit]
        # rows is sorted, so the first hit of each row is its first claimant
        first = np.ones(len(rows), dtype=bool)
        first[1:] = rows[1:] != rows[:-1]
        claims[rows[first]] = pidx[first]
        return claims

    def _resolve_exact(self, z: tuple) -> int | None:
        """resolve for a raw libmp point: the rounded ||z - center|| < radius,
        in the working precision. A Euclidean ball is tested on the sum of
        squares against radius^2 (space._norm_lt_raw), which takes the root
        only within a few ulps of the sphere and gives the root's answer."""
        prec, rnd = mp._prec_rounding
        for idx in self._index.point_items([raw_to_float(x) for x in z]).tolist():
            p = self.patches[idx]
            w = tuple(mpf_sub(x, c, prec, rnd) for x, c in zip(z, p.center_raw))
            if _norm_lt_raw(w, self.norm_kind, p.radius_raw, p.radius_sq):
                return idx
        return None

    def _eval_exact(self, z):
        idx = self._resolve_exact(z)
        if idx is None:
            return self.outer._eval_exact(z)
        return self.patches[idx].inner._eval_exact(z)

    def _eval_batch(self, Z):
        """The unclaimed rows are one batch of outer; the claimed rows are
        one pass of _eval_rows over the inners they reach."""
        claims = self._claims(Z)
        inside = claims >= 0
        if not inside.any():
            return self.outer._eval_batch(Z)
        out = np.empty((len(Z), self.out_dim))
        if not inside.all():
            out[~inside] = self.outer._eval_batch(Z[~inside])
        used, which = np.unique(claims[inside], return_inverse=True)
        out[inside] = _eval_rows([self.patches[i].inner for i in used.tolist()], which, Z[inside])
        return out


@dataclass(frozen=True, eq=False)
class Precompose(LipFun):
    """f composed with an inner coordinate mapping: z -> f(inner_map(z))."""

    f: LipFun
    inner_map: LipFun

    def __post_init__(self):
        if self.inner_map.out_dim != self.f.in_dim:
            raise LipForgeError("composition dimensions do not chain")

    in_dim, out_dim = _dims("inner_map", "f")

    def _lip_cert(self) -> float:
        return _cert_up(_product, self.f.lip_cert, self.inner_map.lip_cert)

    def _eval_exact(self, z):
        return self.f._eval_exact(self.inner_map._eval_exact(z))

    def _eval_batch(self, Z):
        return self.f._eval_batch(self.inner_map._eval_batch(Z))


def _stack_affine(nodes: list[Affine], which: np.ndarray, Z: np.ndarray):
    m = nodes[0].map
    if any(f.map is not m for f in nodes):
        return None
    base, anchor = (np.array([getattr(f, attr) for f in nodes]) for attr in ("_base_float", "_anchor_float"))
    return base[which] + m.apply_batch(Z - anchor[which])


def _stack_add_const(nodes: list[AddConst], which: np.ndarray, Z: np.ndarray):
    return _eval_rows([f.f for f in nodes], which, Z) + np.array([f._p_float for f in nodes])[which]


def _stack_precompose(nodes: list[Precompose], which: np.ndarray, Z: np.ndarray):
    if len({f.f.in_dim for f in nodes}) > 1:
        return None
    return _eval_rows([f.f for f in nodes], which, _eval_rows([f.inner_map for f in nodes], which, Z))


# How _eval_rows evaluates nodes of one kind in one pass: a function of
# (nodes, which, Z) that returns None when the nodes do not qualify.
_STACKED = {Affine: _stack_affine, AddConst: _stack_add_const, Precompose: _stack_precompose}


def _eval_rows(nodes: list[LipFun], which: np.ndarray, Z: np.ndarray) -> np.ndarray:
    """Row i of Z evaluated with nodes[which[i]], in the bits that node's
    _eval_batch gives the row; every node is one some row takes. Nodes of
    one kind whose parts other than their constants are the same objects
    take one pass over all their rows, each row gathering its own node's
    constants (_STACKED): an Affine's map, an AddConst's and a Precompose's
    children, by recursion. The game's patch inners qualify: a layer's
    inners share the warp or blend, the affine map and the identity map
    (_identity_map, and one node per distinct record once decoded). Any
    other mix takes one batch per node."""
    slots: dict[int, int] = {}
    slot = [slots.setdefault(id(f), len(slots)) for f in nodes]
    if len(slots) == 1 or not len(Z):
        return nodes[0]._eval_batch(Z)
    if len(slots) < len(nodes):
        nodes = list({id(f): f for f in nodes}.values())
        which = np.array(slot)[which]
    kind = type(nodes[0])
    stack = _STACKED.get(kind)
    if stack is not None and all(type(f) is kind for f in nodes):
        out = stack(nodes, which, Z)
        if out is not None:
            return out
    out = np.empty((len(Z), nodes[0].out_dim))
    order = np.argsort(which, kind="stable")
    for rows in np.split(order, np.flatnonzero(np.diff(which[order])) + 1):
        out[rows] = nodes[which[rows[0]]]._eval_batch(Z[rows])
    return out


# ---------------------------------------------------------------------------
# Construction helpers


# The nodes construction shares, as the decoder shares equal records (J.-C.
# Filliatre and S. Conchon, Type-safe modular hash-consing, 2006): one node
# per key among the nodes alive, so a key's node goes with its last tree.
_SHARED_NODES: weakref.WeakValueDictionary = weakref.WeakValueDictionary()


def _shared_node(key: tuple, make) -> LipFun:
    """The live node kept under key, or make()'s, kept under it from now."""
    node = _SHARED_NODES.get(key)
    if node is None:
        node = _SHARED_NODES[key] = make()
    return node


def identity(d: int, norm_kind: NormKind = NormKind.EUCLIDEAN) -> Linear:
    """The identity of R^d under the norm: one node per (d, norm)."""
    return _shared_node((Linear, d, norm_kind), lambda: Linear(_identity_map(d, norm_kind)))


def zero_map(in_dim: int, out_dim: int) -> Const:
    """The zero mapping R^in_dim -> R^out_dim: one node per pair of
    dimensions, its constant a read-only zero vector."""
    return _shared_node((Const, in_dim, out_dim), lambda: Const(_zeros(out_dim), in_dim))


add_const, radial_blend = AddConst, RadialBlend


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


@lru_cache(maxsize=None)
def _zeros(d: int) -> np.ndarray:
    """One read-only float64 zero vector per dimension."""
    return _read_only(np.zeros(d))


@lru_cache(maxsize=None)
def _identity_map(d: int, norm_kind: NormKind) -> LinearMap:
    """One read-only identity LinearMap per (d, norm), so its operator norm
    is computed once, not once per translation."""
    return LinearMap(_read_only(np.eye(d)), norm_kind, norm_kind)


def _exact_key(v: np.ndarray) -> tuple:
    """v's stored value, never rounded: its dtype and bytes, or for an object
    array each entry's raw libmp value and whether it is an mpf, which
    encode_scalar writes as a mantissa and exponent, not as a float."""
    if v.dtype != object:
        return v.dtype.str, v.tobytes()
    return v.dtype.str, tuple((is_mpf(x), exact_raw(x)) for x in v.tolist())


def shift_conjugate(map_fun: LipFun, x: np.ndarray, norm_kind: NormKind) -> LipFun:
    """z -> x + map_fun(z - x) for a coordinate mapping R^d -> R^d. The
    translation z -> z - x is one node per d, norm and exact anchor
    (_exact_key: a float and an mpf anchor of equal value write different
    records), anchored at a read-only copy of x, so every layer and round
    that conjugates at a center shares it, as the decoded tree does."""
    d = map_fun.in_dim
    x = np.array(x) if isinstance(x, np.ndarray) else as_vector(list(x))
    key = (Affine, d, norm_kind, *_exact_key(x))
    translate = _shared_node(key, lambda: Affine(_zeros(d), _identity_map(d, norm_kind), _read_only(x)))
    return AddConst(Precompose(map_fun, translate), translate.anchor)


def patch(outer: LipFun, patches, domain: Domain) -> Patched:
    """Override `outer` inside disjoint balls, certifying continuity.

    Balls must be pairwise disjoint and strictly inside the domain interior.
    Each inner mapping must meet the outer one on its sphere, up to
    CONTINUITY_TOL: see _check_patch_continuity.
    """
    node = Patched(outer, tuple(p if isinstance(p, Patch) else Patch(*p) for p in patches), domain.norm)
    if node.patches and not np.all(domain.margins(node._centers) > node._radii):
        raise LipForgeError("patch ball escapes the domain interior")
    _check_patch_continuity(node)
    return node


@lru_cache(maxsize=DIRECTIONS_CACHE_SIZE)
def _sphere_directions(count: int, dim: int, seed: int, kind: NormKind) -> np.ndarray:
    """unit_directions(count, dim, seed, kind), drawn once per key and shared
    read-only. Each miss calls the module name unit_directions, so a wrapper
    bound to that name sees every draw."""
    dirs = unit_directions(count, dim, seed=seed, kind=kind)
    dirs.setflags(write=False)
    return dirs


def _check_patch_continuity(node: Patched):
    """Compare every inner mapping with the outer one on its patch sphere, up
    to CONTINUITY_TOL in the sup norm.

    A sphere resolvable in float64 is sampled at 64*d directions seeded by
    the patch index. The directions depend only on (count, dim, seed, norm),
    so they come from a bounded cache: every layer and round of a game, and
    the re-check in verify, draws each set once. The samples of whole
    patches are evaluated in blocks of at most CONTINUITY_BLOCK_ROWS rows,
    the outer in one batch and the inners in one _eval_rows pass per block.
    The first faulty patch in index order names the error, and a NaN gap
    (inner and outer both infinite in float64) is refused.

    A finer sphere, of radius r around x, is bounded from its center as a
    Lipschitz enclosure (S. M. Rump, Verification methods, Acta Numerica
    2010). With inner and outer evaluated exactly at x, the patch passes when

        ||inner(x) - outer(x)||_sup + d r (Lip inner + Lip outer) <= CONTINUITY_TOL.

    This bounds the gap on the whole sphere. Let L bound f from a norm A to
    a norm B, each one of the three, and let N be the node's norm. The sup
    norm is the smallest of the three and ||w||_1 <= d ||w||_sup, so for
    ||z - x||_N = r: ||f(z) - f(x)||_sup <= ||f(z) - f(x)||_B
    <= L ||z - x||_A <= L ||z - x||_1 <= L d ||z - x||_sup <= L d r.
    Add this for inner and for outer to the gap at x.

    The sum is formed in mpf; in float64, d r Lip underflows to 0 for deep
    radii (2e-571 in round 8 of the standard run). Each lip_cert is a float,
    held exactly, and every operation rounds away from zero on terms that
    are not negative, so the bound is never below the formula's exact value
    at the stored certificates: no rounding in this check can pass a patch
    that the formula refuses. A NaN or infinite term makes the bound NaN or
    infinite, and it is refused.
    """
    d = node.in_dim
    n_samples = 64 * d
    resolvable: list[int] = []
    for i, (p, radius, floor) in enumerate(zip(node.patches, node._radii.tolist(), node._floors)):
        if radius > floor:
            resolvable.append(i)
            continue
        with mp.workdps(working_dps_for_scale(p.radius)):
            prec = mp.prec
            x = p.center_raw
            gap = [mpf_sub(u, v, prec, "u") for u, v in zip(p.inner._eval_exact(x), node.outer._eval_exact(x))]
            slope = mpf_add(from_float(p.inner.lip_cert), from_float(node.outer.lip_cert), prec, "u")
            spread = mpf_mul(mpf_mul(from_int(d), p.radius_raw, prec, "u"), slope, prec, "u")
            bound = mpf_add(_norm_raw(gap, NormKind.SUP), spread, prec, "u")
            if not mpf_le(bound, from_float(CONTINUITY_TOL)):
                raise LipForgeError(f"patch boundary mismatch bound {raw_to_float(bound):.3e} beyond tolerance")
    per_block = max(1, CONTINUITY_BLOCK_ROWS // max(n_samples, 1))
    for start in range(0, len(resolvable), per_block):
        block = resolvable[start : start + per_block]
        dirs = np.stack([_sphere_directions(n_samples, d, i, node.norm_kind) for i in block])
        which = np.repeat(np.arange(len(block)), n_samples)
        pts = (node._centers[block][:, None, :] + node._radii[block][:, None, None] * dirs).reshape(len(which), d)
        with np.errstate(invalid="ignore"):  # inf - inf: a NaN gap, refused below
            diff = _eval_rows([node.patches[i].inner for i in block], which, pts) - node.outer._eval_batch(pts)
        err = np.max(np.abs(diff).reshape(len(block), -1), axis=1, initial=0.0)
        bad = np.flatnonzero(~(err <= CONTINUITY_TOL))
        if len(bad):
            raise LipForgeError(f"patch boundary mismatch {err[bad[0]]:.3e} beyond tolerance")


# ---------------------------------------------------------------------------
# Sampled sup-distance


def _collect_probe_points(f: LipFun, cap: int) -> list[np.ndarray]:
    """Patch-aware probe points: centers plus sphere points at every radius
    visible in each patch (patch radius and blend radii of the inner tree)."""
    pts: list[np.ndarray] = []

    def blend_radii(node: LipFun, acc: set[float]):
        if isinstance(node, RadialBlend):
            for r in (node._a_float, node._b_float):
                if r > 0:
                    acc.add(r)
        for ch in node.children():
            blend_radii(ch, acc)

    def walk(node: LipFun):
        if len(pts) >= cap:
            return
        if isinstance(node, Patched):
            for p, c, radius, floor in zip(node.patches, node._centers, node._radii.tolist(), node._floors):
                pts.append(c)
                radii: set[float] = set()
                if radius > floor:
                    radii.add(radius)
                blend_radii(p.inner, radii)
                d = len(c)
                eye = np.eye(d)
                for r in sorted(radii):
                    if r <= floor:
                        continue
                    for axis in range(d):
                        pts.append(c + r * eye[axis])
                        pts.append(c - r * eye[axis])
                if len(pts) >= cap:
                    return
        for ch in node.children():
            walk(ch)

    walk(f)
    return pts[:cap]


def sup_dist(
    f: LipFun,
    g: LipFun,
    domain: Domain,
    budget: int = 256,
    seed: int = 0,
    out_norm: NormKind = NormKind.EUCLIDEAN,
) -> float:
    """Sampled lower estimate of sup_Q ||f - g|| over a deterministic set.

    The sample is a domain grid plus patch-aware points of both trees
    (patch centers and sphere points at the radii present in the trees).
    """
    if (f.in_dim, f.out_dim) != (g.in_dim, g.out_dim):
        raise LipForgeError("mappings must share dimensions")
    if f is g:
        return 0.0
    d = f.in_dim
    per_axis = max(2, int(round(budget ** (1.0 / d))))
    pts = [domain.grid(per_axis)]

    def inside(X: np.ndarray) -> np.ndarray:  # membership in the closed domain, widened by 1e-12
        return domain.margins(X) >= -1e-12

    special = _collect_probe_points(f, 4 * budget) + _collect_probe_points(g, 4 * budget)
    if special:
        sp = np.asarray(special, dtype=float)
        keep = inside(sp)
        if keep.any():
            pts.append(sp[keep])
    lo, hi = domain.bounding_box()
    extra = []
    base = (seed & 0x7FFFFFFF) * 613 + 29
    while len(extra) < max(0, budget - sum(len(p) for p in pts)):
        cand = lo + (hi - lo) * _halton(np.array([base + 17 * len(extra)]), d)[0]
        if inside(cand[None])[0]:
            extra.append(cand)
        base += 1
    if extra:
        pts.append(np.asarray(extra))
    Z = np.concatenate(pts)
    diff = eval_batch(f, Z) - eval_batch(g, Z)
    return float(np.max(norm_batch(diff, out_norm))) if len(diff) else 0.0


# ---------------------------------------------------------------------------
# Serialization (schema lipforge-fun/1)


def _encode_map(m: LinearMap, memo: dict) -> dict:
    """The record of m, made once per encoding: memo maps id(m) to it, as it
    maps a node's id to its depth and record."""
    record = memo.get(id(m))
    if record is None:
        record = memo[id(m)] = {
            "matrix": [encode_vector(row) for row in m.matrix],
            "in_norm": m.in_norm.value,
            "out_norm": m.out_norm.value,
        }
    return record


def _decode_map(obj: dict) -> LinearMap:
    try:
        in_norm, out_norm = NormKind.parse(obj["in_norm"]), NormKind.parse(obj["out_norm"])
        rows = [[decode_scalar(x) for x in row] for row in obj["matrix"]]
        return LinearMap(as_matrix(rows), in_norm, out_norm)
    except (KeyError, TypeError, IndexError) as e:
        raise LipForgeError("malformed artifact: bad linear map") from e


def _shared(codec: Codec) -> Codec:
    """codec, decoding once per distinct JSON value in a call, compared by
    repr: it tells apart what == does not (1, 1.0 and true; 0.0 and -0.0)."""
    decode = codec.decode

    def decode_shared(obj, memo: dict):
        key = (decode, repr(obj))
        value = memo.get(key)
        if value is None:
            value = memo[key] = decode(obj, memo)
        return value

    return codec._replace(decode=decode_shared)


def _make_once(memo: dict, make, fields: dict):
    """make(**fields), made once per decoding call for the same make and
    field values: memo maps make and the fields' ids to it. Each field is
    a value the memo holds, so no id is reused during the call."""
    key = (make, *map(id, fields.values()))
    value = memo.get(key)
    if value is None:
        value = memo[key] = make(**fields)
    return value


_REACH = "reach"  # memo key: the reach of the record being decoded


class _Decoded(tuple):
    """A child record as the parser's hook leaves it in its holder: (node,
    reach, error) (_decode_record). A diagnostic that quotes the holder
    shows it as its record kind."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "<refused record>" if self[0] is None else f"<{_RECORDS[type(self[0])][0]} record>"


def _decode_record(obj, memo: dict) -> _Decoded:
    """obj, a node record whose child records are decoded, as (node, reach,
    error). A diagnostic, or a RecursionError where the parser's nesting
    meets this hook, is returned as error, which the parent raises when it
    reads the field (_node_of), so the first failure in document order is
    the one reported and the height check still comes first; any other
    exception is a fault of the program and propagates at once. reach is
    the deepest level below obj read before the walk stops: the subtree's
    height, or the depth of the failure."""
    memo[_REACH] = 0
    try:
        try:
            kind = obj["kind"]
            cls, fields = _KINDS[kind]
        except (TypeError, KeyError):  # not a record, or a kind not in _KINDS
            if not isinstance(obj, dict) or "kind" not in obj:
                raise LipForgeError("malformed artifact: node record expected") from None
            raise LipForgeError(f"malformed artifact: unknown node kind {quote(kind)}") from None
        try:
            return _Decoded((_make_once(memo, cls, decode_fields(obj, fields, memo)), memo[_REACH], None))
        except (KeyError, TypeError, ValueError, IndexError, OverflowError) as e:
            raise LipForgeError(f"malformed artifact: bad {kind} node") from e
    except (LipForgeError, RecursionError) as e:  # deferred, not handled: _node_of raises it
        # alone: the frames of its traceback and its causes' lead back to the
        # records that hold it, a cycle that keeps the tree until a collection
        e.__cause__ = e.__context__ = None
        return _Decoded((None, memo[_REACH], e.with_traceback(None)))


def _node_of(child: _Decoded, memo: dict) -> LipFun:
    """A decoded child record's node, or its failure raised."""
    node, reach, error = child
    if reach >= memo[_REACH]:
        memo[_REACH] = reach + 1
    if error is not None:
        raise error
    return node


def _close_patches(patches, memo: dict):
    """patches with each patch's inner record decoded."""
    for p in patches if isinstance(patches, list) else ():
        if isinstance(p, dict) and "inner" in p:
            p["inner"] = _decode_record(p["inner"], memo)
    return patches


def _decode_patches(obj, memo: dict) -> tuple:
    """One Patch per distinct center, radius and inner, one tuple per distinct list."""
    patches = tuple(_make_once(memo, Patch, decode_fields(p, _PATCH_FIELDS, memo)) for p in obj)
    return memo.setdefault((tuple, *map(id, patches)), patches)


_NORM = _shared(Codec(lambda kind, depth, memo: kind.value, lambda obj, memo: NormKind.parse(obj)))
# A LinearMap's record, also the transcript's record of an operator.
MAP = _shared(Codec(lambda m, depth, memo: _encode_map(m, memo), lambda obj, memo: _decode_map(obj)))
_NODE = Codec(None, _node_of, lambda f: (f,))  # written by _write_node
_INT, _SCALAR, _VECTOR = _shared(INT), _shared(SCALAR), _shared(VECTOR)

# A patch's ball skips the constants' finiteness check: Patched refuses a
# center or radius that is not finite, built or decoded, with its own message.
_PATCH_FIELDS = (
    ("center", "center", _shared(Codec(VECTOR.encode, lambda obj, memo: decode_vector(obj)))),
    ("radius", "radius", _shared(Codec(SCALAR.encode, lambda obj, memo: decode_scalar(obj)))),
    ("inner", "inner", _NODE),
)
_PATCHES = Codec(None, _decode_patches, lambda patches: [p.inner for p in patches])  # written by _write_record

# The record of each node kind: its JSON kind, then its fields in file order,
# each a (JSON key, attribute, codec). The writer (_WRITER), the decoder and
# LipFun.children() all read this table.
_RECORDS: dict[type, tuple[str, tuple[tuple[str, str, Codec], ...]]] = {
    Const: ("const", (("c", "c", _VECTOR), ("in_dim", "in_dim", _INT))),
    Linear: ("linear", (("map", "map", MAP),)),
    Affine: ("affine", (("base", "base", _VECTOR), ("map", "map", MAP), ("anchor", "anchor", _VECTOR))),
    NormOf: ("norm_of", (("in_dim", "in_dim", _INT), ("sign", "sign", _INT), ("norm", "norm_kind", _NORM))),
    Sum: ("sum", (("f", "f", _NODE), ("g", "g", _NODE))),
    Scale: ("scale", (("c", "c", _SCALAR), ("f", "f", _NODE))),
    AddConst: ("add_const", (("f", "f", _NODE), ("p", "p", _VECTOR))),
    RadialBlend: ("radial_blend", (
        ("a", "a", _SCALAR), ("b", "b", _SCALAR), ("f1", "f1", _NODE), ("f2", "f2", _NODE), ("norm", "norm_kind", _NORM),
    )),
    # outer, norm, patches: the file's order, not the dataclass's
    Patched: ("patched", (("outer", "outer", _NODE), ("norm", "norm_kind", _NORM), ("patches", "patches", _PATCHES))),
    Precompose: ("precompose", (("f", "f", _NODE), ("inner_map", "inner_map", _NODE))),
}
_KINDS = {kind: (cls, fields) for cls, (kind, fields) in _RECORDS.items()}
# How the parser's hook decodes the child records of each kind's record.
_CLOSERS = {
    kind: tuple((key, _decode_record if codec is _NODE else _close_patches) for key, _, codec in fields
                if codec in (_NODE, _PATCHES))
    for kind, (_, fields) in _KINDS.items()
}


# Writes a value as json.dumps(value, separators=(",", ":")) does.
_JSON = json.JSONEncoder(separators=(",", ":"), check_circular=False).encode
# The text that opens each record, a node kind's (_RECORDS) or a patch's, then
# its fields, each opened by its key (plain names, which JSON quotes as is).
_WRITER = {cls: ("{" + (f'"kind":"{kind}",' if kind else ""), tuple(
    (f'{"," if i else ""}"{key}":', attr, codec) for i, (key, attr, codec) in enumerate(fields)))
    for cls, (kind, fields) in {**_RECORDS, Patch: (None, _PATCH_FIELDS)}.items()}


def _write_node(f: LipFun, depth: int, memo: dict, out: list) -> None:
    """Append the JSON text of f's record, f a node at the given depth, to
    out. memo maps id(node) to the depth and span of out of its last writing
    in this call: a span written at depth d is copied (its references) at
    any depth up to d, where its subtree fits under MAX_TREE_DEPTH too, and
    a deeper visit writes it again, so a tree that is too deep fails as if
    every visit were written."""
    if depth > MAX_TREE_DEPTH:
        raise LipForgeError(f"tree deeper than {MAX_TREE_DEPTH}")
    hit = memo.get(id(f))
    if hit is not None and depth <= hit[0]:
        out += out[hit[1]:hit[2]]
        return
    if type(f) not in _RECORDS:
        raise LipForgeError(f"cannot serialize node {type(f).__name__}")
    start = len(out)
    _write_record(f, depth + 1, memo, out)
    memo[id(f)] = (depth, start, len(out))


def _write_record(obj, depth: int, memo: dict, out: list) -> None:
    """Append the JSON text of obj's record (_WRITER) to out: child nodes at
    depth, patches record by record, other fields as json.dumps would."""
    opening, fields = _WRITER[type(obj)]
    out.append(opening)
    for key, attr, codec in fields:
        if codec is _NODE:
            out.append(key)
            _write_node(getattr(obj, attr), depth, memo, out)
        elif codec is _PATCHES:
            out.append(key + "[")
            for i, p in enumerate(getattr(obj, attr)):
                out.append("," if i else "")
                _write_record(p, depth, memo, out)
            out.append("]")
        else:
            out.append(key + _JSON(codec.encode(getattr(obj, attr), depth, memo)))
    out.append("}")


def fun_from_dict(obj: dict) -> LipFun:
    """The tree of a parsed document, read from its text as deserialize
    reads bytes: json.dumps is exact for anything json.loads returns, so
    both give one outcome, and the schema is checked first."""
    return deserialize(json.dumps(obj))


class _LongInt(str):
    """A JSON integer of more digits than int() converts (its limit is
    sys.get_int_max_str_digits()), kept as its numeral: a value that no
    codec takes, so the decoder refuses it where it stands, in document
    order, and quotes it as written."""

    __slots__ = ()
    __repr__ = str.__str__


def _parse_int(numeral: str):
    try:
        return int(numeral)
    except ValueError:
        return _LongInt(numeral)


def _read_tree(text: str) -> LipFun:
    """The tree of a lipforge-fun/1 text, decoded as it is parsed: the
    parser hands close each JSON object it completes, and the child records
    of a node record are decoded then (_CLOSERS), so the whole JSON tree
    never exists. A record is decoded when its holder closes, as only the
    holder knows that a node belongs there: a record where a scalar belongs
    is refused by the scalar's codec as written, but for its own child
    records, shown by kind (_Decoded). Failures wait in place (_decode_record) until
    the schema is checked and the root is read. An integer too long for
    int() is read as a _LongInt, which waits as any refused value does."""
    memo: dict = {}

    def close(record: dict) -> dict:
        if "kind" in record and type(kind := record["kind"]) is str and kind in _CLOSERS:
            for key, decode in _CLOSERS[kind]:
                if key in record:
                    record[key] = decode(record[key], memo)
        return record

    doc = json.loads(text, object_hook=close, parse_int=_parse_int)
    if not isinstance(doc, dict):
        raise LipForgeError("malformed artifact")
    if (schema := doc.get("schema")) != FUN_SCHEMA:
        raise LipForgeError(f"unknown schema version {quote(schema)}")
    node, reach, error = _decode_record(doc.get("root"), memo)
    if reach > MAX_TREE_DEPTH:
        raise LipForgeError(f"tree deeper than {MAX_TREE_DEPTH}")
    if error is not None:
        try:
            raise error
        finally:  # this frame, in the error's traceback, keeps neither it nor the records
            doc = error = None
    return node


@contextmanager
def _collector_paused():
    """The block runs with the cyclic collector off: records, JSON containers
    and nodes hold no cycles, so a full collection there could free nothing.
    The block's allocations still count, and the first object allocated
    after gc.enable() (contextlib's own StopIteration, still inside the
    block's caller) would start a collection of whatever generation the
    counts pick, a full one included. So when the youngest generation is
    past its threshold it alone is collected before the collector is back
    on, and any full collection starts from the caller's own allocations."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            if gc.get_count()[0] > gc.get_threshold()[0]:
                gc.collect(0)
            gc.enable()


def serialize(f: LipFun) -> bytes:
    """function.json's bytes for f, its records written as text (_write_node)."""
    out = [f'{{"schema":"{FUN_SCHEMA}","root":']
    with _collector_paused():
        _write_node(f, 0, {}, out)
    out.append("}")
    text, out = "".join(out), None  # the fragments go before the bytes are made
    return text.encode()


def deserialize(data) -> LipFun:
    """The tree of function.json's bytes or text (schema lipforge-fun/1),
    decoded as it is parsed (_read_tree). Text that is not JSON, or nests
    past the parser's recursion limit, is a malformed artifact."""
    with _collector_paused():
        try:
            return _read_tree(data.decode("utf-8") if isinstance(data, bytes) else data)
        except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as e:
            raise LipForgeError("malformed artifact") from e
