"""Immutable expression trees for Lipschitz mappings R^d -> R^l.

Every node evaluates exactly (up to arithmetic rounding) and carries a
certified Lipschitz upper bound computed by structural rules. The node
semantics are implemented twice:

* ``_eval_batch``, the one float64 evaluator, on (n, d) arrays of points.
  A single float point is a one-row batch, and node constants enter as
  float64 even when they are stored as mpf;
* ``_eval_exact``, the one exact evaluator, used when probing displacements
  finer than float64 resolution (patch radii constructed by deep game rounds
  fall far below 1e-308; see numerics.py). Its vectors are tuples of raw
  libmp values, and every operation is the ``mpmath.libmp`` call the mpf
  operator would make, in the same order and at the context's working
  precision, so results are bit-identical to evaluating with mpf objects.
  A Euclidean norm that only decides a ball or blend branch is compared
  squared, and its root is taken only where that cannot decide the branch
  the root would (space._root_side).
  Each node converts its constants to raw values once and caches them.
  ``eval_point`` converts object arrays of mpf at the boundary.

The radial blend node interpolates two mappings between two spheres and is
the basic gluing device: equal to ``f1`` inside radius ``a``, to ``f2``
outside radius ``b``, radially mixed in between, with certified constant
``(Lip f1 + Lip f2) * (1 + a/(b-a))``.
"""

from __future__ import annotations

import gc
import itertools
import json
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np
from mpmath import mp
from mpmath.libmp import from_float, from_int
from mpmath.libmp import mpf_add, mpf_div, mpf_ge, mpf_le, mpf_mul, mpf_sub

from .numerics import (
    INT,
    SCALAR,
    VECTOR,
    Codec,
    LipForgeError,
    Scalar,
    as_matrix,
    as_vector,
    decode_fields,
    decode_scalar,
    decode_vector,
    encode_fields,
    encode_vector,
    exact_mpf,
    exact_raw,
    float_vector,
    is_exact_vector,
    is_mpf,
    mpf_vector,
    raw_to_float,
    raw_vector,
    to_float,
    working_dps_for_scale,
)
from .space import CellIndex, Domain, LinearMap, NormKind, _norm_lt_raw, _norm_raw, _root_side, _sqrt_raw, _sum_squares_raw
from .space import _halton, norm, norm_batch, unit_directions

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


def _ratio(a: Scalar, num_b: Scalar) -> float:
    """a / (b - a) computed in the operands' arithmetic, cast to float."""
    if is_mpf(a) or is_mpf(num_b):
        return to_float(exact_mpf(a) / (exact_mpf(num_b) - exact_mpf(a)))
    return a / (num_b - a)


class LipFun:
    """Base class; concrete nodes are frozen dataclasses below."""

    in_dim: int
    out_dim: int

    def __call__(self, z) -> np.ndarray:
        return eval_point(self, z)

    @cached_property
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
        object.__setattr__(self, "c", self.c if isinstance(self.c, np.ndarray) else as_vector(list(self.c)))

    @property
    def out_dim(self) -> int:
        return len(self.c)

    def _lip_cert(self) -> float:
        return 0.0

    @cached_property
    def _c_float(self):
        return float_vector(self.c)

    @cached_property
    def _c_raw(self) -> tuple:
        return raw_vector(self.c)

    def _eval_exact(self, z):
        return self._c_raw

    def _eval_batch(self, Z):
        return np.broadcast_to(self._c_float, (len(Z), len(self.c))).copy()


@dataclass(frozen=True, eq=False)
class Linear(LipFun):
    map: LinearMap

    @property
    def in_dim(self) -> int:
        return self.map.in_dim

    @property
    def out_dim(self) -> int:
        return self.map.out_dim

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
        if len(self.base) != self.map.out_dim or len(self.anchor) != self.map.in_dim:
            raise LipForgeError("affine node dimensions inconsistent")

    @property
    def in_dim(self) -> int:
        return self.map.in_dim

    @property
    def out_dim(self) -> int:
        return self.map.out_dim

    def _lip_cert(self) -> float:
        return self.map.op_norm

    @cached_property
    def _base_float(self):
        return float_vector(self.base)

    @cached_property
    def _anchor_float(self):
        return float_vector(self.anchor)

    @cached_property
    def _base_raw(self) -> tuple:
        return raw_vector(self.base)

    @cached_property
    def _anchor_raw(self) -> tuple:
        return raw_vector(self.anchor)

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

    @property
    def out_dim(self) -> int:
        return 1

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

    @property
    def in_dim(self) -> int:
        return self.f.in_dim

    @property
    def out_dim(self) -> int:
        return self.f.out_dim

    def _lip_cert(self) -> float:
        return self.f.lip_cert + self.g.lip_cert

    def _eval_exact(self, z):
        prec, rnd = mp._prec_rounding
        return tuple(mpf_add(u, v, prec, rnd) for u, v in zip(self.f._eval_exact(z), self.g._eval_exact(z)))

    def _eval_batch(self, Z):
        return self.f._eval_batch(Z) + self.g._eval_batch(Z)


@dataclass(frozen=True, eq=False)
class Scale(LipFun):
    c: Scalar
    f: LipFun

    @property
    def in_dim(self) -> int:
        return self.f.in_dim

    @property
    def out_dim(self) -> int:
        return self.f.out_dim

    def _lip_cert(self) -> float:
        return to_float(abs(self.c)) * self.f.lip_cert

    @cached_property
    def _c_float(self) -> float:
        return to_float(self.c)

    @cached_property
    def _c_raw(self) -> tuple:
        return exact_raw(self.c)

    def _eval_exact(self, z):
        prec, rnd = mp._prec_rounding
        c = self._c_raw
        return tuple(mpf_mul(c, x, prec, rnd) for x in self.f._eval_exact(z))

    def _eval_batch(self, Z):
        return self._c_float * self.f._eval_batch(Z)


@dataclass(frozen=True, eq=False)
class AddConst(LipFun):
    f: LipFun
    p: np.ndarray

    def __post_init__(self):
        if len(self.p) != self.f.out_dim:
            raise LipForgeError("added constant has wrong dimension")

    @property
    def in_dim(self) -> int:
        return self.f.in_dim

    @property
    def out_dim(self) -> int:
        return self.f.out_dim

    def _lip_cert(self) -> float:
        return self.f.lip_cert

    @cached_property
    def _p_float(self):
        return float_vector(self.p)

    @cached_property
    def _p_raw(self) -> tuple:
        return raw_vector(self.p)

    def _eval_exact(self, z):
        prec, rnd = mp._prec_rounding
        return tuple(mpf_add(u, p, prec, rnd) for u, p in zip(self.f._eval_exact(z), self._p_raw))

    def _eval_batch(self, Z):
        return self.f._eval_batch(Z) + self._p_float


@dataclass(frozen=True, eq=False)
class RadialBlend(LipFun):
    """Radial interpolation between f1 (inside a) and f2 (outside b).

    Both mappings must vanish at the origin; use the radial_blend factory,
    which verifies this, for user-facing construction. The exact evaluator
    keeps a^2 and b^2 exactly and takes the Euclidean norm's root only in
    the mid shell or within a few ulps of a sphere (see _eval_exact).
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

    @property
    def in_dim(self) -> int:
        return self.f1.in_dim

    @property
    def out_dim(self) -> int:
        return self.f1.out_dim

    def _lip_cert(self) -> float:
        return (self.f1.lip_cert + self.f2.lip_cert) * (1.0 + _ratio(self.a, self.b))

    @cached_property
    def _a_float(self) -> float:
        return to_float(self.a)

    @cached_property
    def _b_float(self) -> float:
        return to_float(self.b)

    @cached_property
    def _a_raw(self) -> tuple:
        return exact_raw(self.a)

    @cached_property
    def _b_raw(self) -> tuple:
        return exact_raw(self.b)

    @cached_property
    def _a_sq(self) -> tuple:
        return mpf_mul(self._a_raw, self._a_raw)

    @cached_property
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

    @cached_property
    def center_float(self):
        return float_vector(self.center)

    @cached_property
    def radius_float(self) -> float:
        return to_float(self.radius)

    @cached_property
    def center_raw(self) -> tuple:
        return raw_vector(self.center)

    @cached_property
    def radius_raw(self) -> tuple:
        return exact_raw(self.radius)

    @cached_property
    def radius_sq(self) -> tuple:
        """radius * radius, exact, for the squared-norm ball test."""
        return mpf_mul(self.radius_raw, self.radius_raw)

    @cached_property
    def scale(self) -> float:
        """1 + max|center|; float64 resolves radii above FLOAT_RESOLVE_REL of it."""
        return 1.0 + float(np.max(np.abs(self.center_float), initial=0.0))


@dataclass(frozen=True, eq=False)
class Patched(LipFun):
    """Outer mapping overridden inside disjoint open balls by inner mappings.
    Balls with ||c_i - c_j|| <= r_i + r_j (float64, the node's norm) are refused
    as overlapping; only pairs that share a cell of the patch index can be."""

    outer: LipFun
    patches: tuple[Patch, ...]
    norm_kind: NormKind = NormKind.EUCLIDEAN

    def __post_init__(self):
        for p in self.patches:
            if (p.inner.in_dim, p.inner.out_dim) != (self.outer.in_dim, self.outer.out_dim):
                raise LipForgeError("patch inner mapping has wrong dimensions")
            if len(p.center) != self.outer.in_dim:
                raise LipForgeError("patch center has wrong dimension")
            if not p.radius > 0:
                raise LipForgeError("patch radius must be positive")
            # finiteness of the float copies the index and the float path use;
            # a deep radius underflows to 0.0 and is still finite
            if not (np.all(np.isfinite(p.center_float)) and np.isfinite(p.radius_float)):
                raise LipForgeError("patch center and radius must be finite")
        centers = np.array([p.center_float for p in self.patches])
        radii = np.array([p.radius_float for p in self.patches])
        pads = radii + FLOAT_RESOLVE_REL * np.array([p.scale for p in self.patches])
        index = CellIndex(2.0 * pads.max() if len(pads) else 1e-9)
        for j, (c, pad) in enumerate(zip(centers, pads.tolist())):
            index.add(j, c, pad)
        pairs = [ij for cell in index.table.values() for ij in itertools.combinations(cell, 2)]
        if pairs:
            i, j = np.array(pairs).T
            if np.any(norm_batch(centers[i] - centers[j], self.norm_kind) <= radii[i] + radii[j]):
                raise LipForgeError("patch overlap")
        for name, value in (("_centers", centers), ("_radii", radii), ("_index", index)):
            object.__setattr__(self, name, value)

    @property
    def in_dim(self) -> int:
        return self.outer.in_dim

    @property
    def out_dim(self) -> int:
        return self.outer.out_dim

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
        cands = self._index.cell_lists(Z)
        counts = np.fromiter(map(len, cands), dtype=np.intp, count=len(cands))
        total = int(counts.sum())
        if not total:
            return claims
        rows = np.repeat(np.arange(len(Z)), counts)
        pidx = np.fromiter(itertools.chain.from_iterable(cands), dtype=np.intp, count=total)
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
        zf = np.array([raw_to_float(x) for x in z])
        for idx in self._index.cell_lists(zf[None, :])[0]:
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
        """Rows grouped by claim with one stable sort; each group is one batch
        of its mapping (outer for the unclaimed), in row order."""
        out = np.empty((len(Z), self.out_dim))
        claims = self._claims(Z)
        order = np.argsort(claims, kind="stable")
        for rows in np.split(order, np.flatnonzero(np.diff(claims[order])) + 1):
            if len(rows):
                idx = claims[rows[0]]
                f = self.outer if idx < 0 else self.patches[idx].inner
                out[rows] = f._eval_batch(Z[rows])
        return out


@dataclass(frozen=True, eq=False)
class Precompose(LipFun):
    """f composed with an inner coordinate mapping: z -> f(inner_map(z))."""

    f: LipFun
    inner_map: LipFun

    def __post_init__(self):
        if self.inner_map.out_dim != self.f.in_dim:
            raise LipForgeError("composition dimensions do not chain")

    @property
    def in_dim(self) -> int:
        return self.inner_map.in_dim

    @property
    def out_dim(self) -> int:
        return self.f.out_dim

    def _lip_cert(self) -> float:
        return self.f.lip_cert * self.inner_map.lip_cert

    def _eval_exact(self, z):
        return self.f._eval_exact(self.inner_map._eval_exact(z))

    def _eval_batch(self, Z):
        return self.f._eval_batch(self.inner_map._eval_batch(Z))


# ---------------------------------------------------------------------------
# Construction helpers


def identity(d: int, norm_kind: NormKind = NormKind.EUCLIDEAN) -> Linear:
    return Linear(_identity_map(d, norm_kind))


def zero_map(in_dim: int, out_dim: int) -> Const:
    return Const(np.zeros(out_dim), in_dim)


def add_const(f: LipFun, p) -> AddConst:
    return AddConst(f, p if isinstance(p, np.ndarray) else as_vector(list(p)))


@lru_cache(maxsize=None)
def _identity_map(d: int, norm_kind: NormKind) -> LinearMap:
    """One read-only identity LinearMap per (d, norm), so its operator norm
    is computed once, not once per translation."""
    eye = np.eye(d)
    eye.setflags(write=False)
    return LinearMap(eye, norm_kind, norm_kind)


def shift_conjugate(map_fun: LipFun, x: np.ndarray, norm_kind: NormKind) -> LipFun:
    """z -> x + map_fun(z - x) for a coordinate mapping R^d -> R^d."""
    d = map_fun.in_dim
    translate = Affine(np.zeros(d), _identity_map(d, norm_kind), x)
    return AddConst(Precompose(map_fun, translate), x)


def radial_blend(a: Scalar, b: Scalar, f1: LipFun, f2: LipFun,
                 norm_kind: NormKind = NormKind.EUCLIDEAN) -> RadialBlend:
    """Glue f1 (inside radius a) to f2 (outside radius b), radially blended.

    Requires 0 < a < b and f1(0) = f2(0) = 0. The certified constant is
    (Lip f1 + Lip f2) * (1 + a/(b-a)); a sum above one is permitted and the
    certificate scales accordingly.
    """
    if not (a > 0 and a < b):
        raise LipForgeError("radial blend requires 0 < a < b")
    z0 = np.zeros(f1.in_dim)
    for fi in (f1, f2):
        v = eval_point(fi, z0)
        if to_float(norm(v, NormKind.SUP)) > 1e-12:
            raise LipForgeError("blended mappings must vanish at the origin")
    return RadialBlend(a, b, f1, f2, norm_kind)


def patch(outer: LipFun, patches, domain: Domain) -> Patched:
    """Override `outer` inside disjoint balls, certifying continuity.

    Balls must be pairwise disjoint and strictly inside the domain interior.
    Each inner mapping must meet the outer one on its sphere, up to
    CONTINUITY_TOL: see _check_patch_continuity.
    """
    def as_patch(p) -> Patch:
        if isinstance(p, Patch):
            return p
        center, radius, inner = p
        if not isinstance(center, np.ndarray):
            center = np.asarray(center, dtype=float)
        return Patch(center, radius, inner)

    node = Patched(outer, tuple(as_patch(p) for p in patches), domain.norm)
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
    the re-check in verify, draws each set once.

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
    for i, p in enumerate(node.patches):
        if p.radius_float > FLOAT_RESOLVE_REL * p.scale:
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
    if resolvable:
        blocks = []
        for i in resolvable:
            p = node.patches[i]
            dirs = _sphere_directions(n_samples, d, i, node.norm_kind)
            blocks.append(p.center_float + p.radius_float * dirs)
        all_pts = np.concatenate(blocks)
        outer_vals = node.outer._eval_batch(all_pts)
        off = 0
        for i in resolvable:
            p = node.patches[i]
            pts = all_pts[off : off + n_samples]
            diff = p.inner._eval_batch(pts) - outer_vals[off : off + n_samples]
            err = float(np.max(np.abs(diff))) if diff.size else 0.0
            if err > CONTINUITY_TOL:
                raise LipForgeError(f"patch boundary mismatch {err:.3e} beyond tolerance")
            off += n_samples


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
            for p in node.patches:
                c = p.center_float
                pts.append(c)
                radii: set[float] = set()
                if p.radius_float > FLOAT_RESOLVE_REL * p.scale:
                    radii.add(p.radius_float)
                blend_radii(p.inner, radii)
                d = len(c)
                eye = np.eye(d)
                for r in sorted(radii):
                    if r <= FLOAT_RESOLVE_REL * p.scale:
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
    special = _collect_probe_points(f, 4 * budget) + _collect_probe_points(g, 4 * budget)
    if special:
        sp = np.asarray(special, dtype=float)
        keep = np.array([domain.contains(p) for p in sp])
        if keep.any():
            pts.append(sp[keep])
    lo, hi = domain.bounding_box()
    extra = []
    base = (seed & 0x7FFFFFFF) * 613 + 29
    while len(extra) < max(0, budget - sum(len(p) for p in pts)):
        cand = lo + (hi - lo) * _halton(np.array([base + 17 * len(extra)]), d)[0]
        if domain.contains(cand):
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
    """A float identity between equal norms decodes to the shared _identity_map."""
    try:
        in_norm, out_norm, d = NormKind.parse(obj["in_norm"]), NormKind.parse(obj["out_norm"]), len(obj["matrix"])
        if in_norm is out_norm and obj["matrix"] == [["1.0" if i == j else "0.0" for j in range(d)] for i in range(d)]:
            return _identity_map(d, in_norm)
        rows = [[decode_scalar(x) for x in row] for row in obj["matrix"]]
        return LinearMap(as_matrix(rows), in_norm, out_norm)
    except (KeyError, TypeError, IndexError) as e:
        raise LipForgeError("malformed artifact: bad linear map") from e


def _encode_node(f: LipFun, depth: int, memo: dict) -> dict:
    """The record of f, a node at the given depth. memo maps id(node) to the
    depth and record of its last encoding in this call: a record made at
    depth d is reused at any depth up to d, where its subtree fits under
    MAX_TREE_DEPTH too, and a deeper visit encodes again, so a tree that is
    too deep fails as if every visit were encoded."""
    if depth > MAX_TREE_DEPTH:
        raise LipForgeError(f"tree deeper than {MAX_TREE_DEPTH}")
    hit = memo.get(id(f))
    if hit is not None and depth <= hit[0]:
        return hit[1]
    decl = _RECORDS.get(type(f))
    if decl is None:
        raise LipForgeError(f"cannot serialize node {type(f).__name__}")
    kind, fields = decl
    record = encode_fields(f, fields, depth + 1, memo, {"kind": kind})
    memo[id(f)] = (depth, record)
    return record


def _decode_node(obj, depth: int) -> LipFun:
    if depth > MAX_TREE_DEPTH:
        raise LipForgeError(f"tree deeper than {MAX_TREE_DEPTH}")
    if not isinstance(obj, dict) or "kind" not in obj:
        raise LipForgeError("malformed artifact: node record expected")
    kind = obj["kind"]
    if not isinstance(kind, str) or kind not in _KINDS:
        raise LipForgeError(f"malformed artifact: unknown node kind {kind!r}")
    cls, fields = _KINDS[kind]
    try:
        return cls(**decode_fields(obj, fields, depth + 1))
    except (KeyError, TypeError, ValueError, IndexError, OverflowError) as e:
        raise LipForgeError(f"malformed artifact: bad {kind} node") from e


_NORM = Codec(lambda kind, depth, memo: kind.value, lambda obj, depth: NormKind.parse(obj))
# A LinearMap's record, also the transcript's record of an operator.
MAP = Codec(lambda m, depth, memo: _encode_map(m, memo), lambda obj, depth: _decode_map(obj))
_NODE = Codec(_encode_node, _decode_node, lambda f: (f,))

# A patch's ball skips the constants' finiteness check: Patched refuses a
# center or radius that is not finite, built or decoded, with its own message.
_PATCH_FIELDS = (
    ("center", "center", Codec(VECTOR.encode, lambda obj, depth: decode_vector(obj))),
    ("radius", "radius", Codec(SCALAR.encode, lambda obj, depth: decode_scalar(obj))),
    ("inner", "inner", _NODE),
)
_PATCHES = Codec(
    lambda patches, depth, memo: [encode_fields(p, _PATCH_FIELDS, depth, memo, {}) for p in patches],
    lambda obj, depth: tuple(Patch(**decode_fields(p, _PATCH_FIELDS, depth)) for p in obj),
    lambda patches: [p.inner for p in patches],
)

# The record of each node kind: its JSON kind, then its fields in file order,
# each a (JSON key, attribute, codec). The encoder, the decoder and
# LipFun.children() all read this table.
_RECORDS: dict[type, tuple[str, tuple[tuple[str, str, Codec], ...]]] = {
    Const: ("const", (("c", "c", VECTOR), ("in_dim", "in_dim", INT))),
    Linear: ("linear", (("map", "map", MAP),)),
    Affine: ("affine", (("base", "base", VECTOR), ("map", "map", MAP), ("anchor", "anchor", VECTOR))),
    NormOf: ("norm_of", (("in_dim", "in_dim", INT), ("sign", "sign", INT), ("norm", "norm_kind", _NORM))),
    Sum: ("sum", (("f", "f", _NODE), ("g", "g", _NODE))),
    Scale: ("scale", (("c", "c", SCALAR), ("f", "f", _NODE))),
    AddConst: ("add_const", (("f", "f", _NODE), ("p", "p", VECTOR))),
    RadialBlend: ("radial_blend", (
        ("a", "a", SCALAR), ("b", "b", SCALAR), ("f1", "f1", _NODE), ("f2", "f2", _NODE), ("norm", "norm_kind", _NORM),
    )),
    # outer, norm, patches: the file's order, not the dataclass's
    Patched: ("patched", (("outer", "outer", _NODE), ("norm", "norm_kind", _NORM), ("patches", "patches", _PATCHES))),
    Precompose: ("precompose", (("f", "f", _NODE), ("inner_map", "inner_map", _NODE))),
}
_KINDS = {kind: (cls, fields) for cls, (kind, fields) in _RECORDS.items()}


def fun_to_dict(f: LipFun) -> dict:
    return {"schema": FUN_SCHEMA, "root": _encode_node(f, 0, {})}


def fun_from_dict(obj: dict) -> LipFun:
    if not isinstance(obj, dict):
        raise LipForgeError("malformed artifact")
    schema = obj.get("schema")
    if schema != FUN_SCHEMA:
        raise LipForgeError(f"unknown schema version {schema!r}")
    return _decode_node(obj.get("root"), 0)


@contextmanager
def _collector_paused():
    """The block runs with the cyclic collector off: records, JSON containers
    and nodes hold no cycles, so a full collection there could free nothing."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def serialize(f: LipFun) -> bytes:
    with _collector_paused():
        return json.dumps(fun_to_dict(f), separators=(",", ":")).encode("utf-8")


def deserialize(data) -> LipFun:
    with _collector_paused():
        try:
            obj = json.loads(data.decode("utf-8") if isinstance(data, bytes) else data)
        except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as e:
            raise LipForgeError("malformed artifact") from e
        return fun_from_dict(obj)
