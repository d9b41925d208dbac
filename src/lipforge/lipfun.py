"""Immutable expression trees for Lipschitz mappings R^d -> R^l.

Every node evaluates exactly (up to arithmetic rounding) and carries a
certified Lipschitz upper bound computed by structural rules. The node
semantics are implemented three times:

* ``_eval_batch``, a vectorized float64 path for bulk sampling;
* ``_eval``, its single-point float64 counterpart;
* ``_eval_exact``, the one exact evaluator, used when probing displacements
  finer than float64 resolution (patch radii constructed by deep game rounds
  fall far below 1e-308; see numerics.py). Its vectors are tuples of raw
  libmp values, and every operation is the ``mpmath.libmp`` call the mpf
  operator would make, in the same order and at the context's working
  precision, so results are bit-identical to evaluating with mpf objects.
  Each node converts its constants to raw values once and caches them.
  ``eval_point`` converts object arrays of mpf at the boundary.

The radial blend node interpolates two mappings between two spheres and is
the basic gluing device: equal to ``f1`` inside radius ``a``, to ``f2``
outside radius ``b``, radially mixed in between, with certified constant
``(Lip f1 + Lip f2) * (1 + a/(b-a))``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from mpmath import mp
from mpmath.libmp import from_int, mpf_add, mpf_div, mpf_ge, mpf_le, mpf_lt, mpf_mul, mpf_mul_int, mpf_sub

from .numerics import (
    LipForgeError,
    Scalar,
    as_matrix,
    as_vector,
    decode_scalar,
    decode_vector,
    encode_scalar,
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
from .space import Domain, LinearMap, NormKind, _norm_raw, norm, norm_batch, unit_directions

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

    def _eval(self, z: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _eval_exact(self, z: tuple) -> tuple:
        raise NotImplementedError

    def _eval_batch(self, Z: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def children(self) -> tuple["LipFun", ...]:
        return ()


def eval_point(f: LipFun, z) -> np.ndarray:
    """Evaluate at a single point; exact path if the point carries mpfs."""
    if not isinstance(z, np.ndarray):
        z = as_vector(list(z))
    if len(z) != f.in_dim:
        raise LipForgeError(f"dimension mismatch: point has {len(z)}, mapping takes {f.in_dim}")
    if is_exact_vector(z):
        return mpf_vector(f._eval_exact(raw_vector(z)))
    return f._eval(z)


def eval_batch(f: LipFun, Z: np.ndarray) -> np.ndarray:
    """Vectorized float64 evaluation of an (n, d) array of points."""
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

    def _eval(self, z):
        return self._c_float.copy()

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

    def _eval(self, z):
        return self.map.apply(z)

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

    def _eval(self, z):
        return self.base + self.map.apply(z - self.anchor)

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

    def _eval(self, z):
        return np.array([self.sign * norm(z, self.norm_kind)])

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

    def _eval(self, z):
        return self.f._eval(z) + self.g._eval(z)

    def _eval_exact(self, z):
        prec, rnd = mp._prec_rounding
        return tuple(mpf_add(u, v, prec, rnd) for u, v in zip(self.f._eval_exact(z), self.g._eval_exact(z)))

    def _eval_batch(self, Z):
        return self.f._eval_batch(Z) + self.g._eval_batch(Z)

    def children(self):
        return (self.f, self.g)


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

    def _eval(self, z):
        return self._c_float * self.f._eval(z)

    def _eval_exact(self, z):
        prec, rnd = mp._prec_rounding
        c = self._c_raw
        return tuple(mpf_mul(c, x, prec, rnd) for x in self.f._eval_exact(z))

    def _eval_batch(self, Z):
        return self._c_float * self.f._eval_batch(Z)

    def children(self):
        return (self.f,)


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

    def _eval(self, z):
        return self.f._eval(z) + self.p

    def _eval_exact(self, z):
        prec, rnd = mp._prec_rounding
        return tuple(mpf_add(u, p, prec, rnd) for u, p in zip(self.f._eval_exact(z), self._p_raw))

    def _eval_batch(self, Z):
        return self.f._eval_batch(Z) + self._p_float

    def children(self):
        return (self.f,)


@dataclass(frozen=True, eq=False)
class RadialBlend(LipFun):
    """Radial interpolation between f1 (inside a) and f2 (outside b).

    Both mappings must vanish at the origin; use the radial_blend factory,
    which verifies this, for user-facing construction.
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

    def _eval(self, z):
        n = norm(z, self.norm_kind)
        a, b = self._a_float, self._b_float
        if n <= a:
            return self.f1._eval(z)
        if n >= b:
            return self.f2._eval(z)
        c1 = (b - n) / (b - a)
        c2 = b * (n - a) / (n * (b - a))
        return c1 * self.f1._eval(z) + c2 * self.f2._eval(z)

    def _eval_exact(self, z):
        prec, rnd = mp._prec_rounding
        n = _norm_raw(z, self.norm_kind)
        a, b = self._a_raw, self._b_raw
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

    def children(self):
        return (self.f1, self.f2)


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


class _PatchGrid:
    """Uniform hash grid over patch bounding boxes for O(1) point lookup.

    The cell size is the largest padded patch extent, so each ball occupies
    at most two cells per axis even when its radius sits far below the float
    rounding pad.
    """

    def __init__(self, patches: tuple[Patch, ...]):
        pads = []
        for p in patches:
            scale = 1.0 + float(np.max(np.abs(p.center_float))) if len(p.center_float) else 1.0
            pads.append(p.radius_float + 1e-12 * scale)
        self.cell = max((2.0 * pad for pad in pads), default=1e-9)
        self.table: dict[tuple[int, ...], list[int]] = {}
        for idx, p in enumerate(patches):
            c = p.center_float
            pad = pads[idx]
            lo = np.floor((c - pad) / self.cell).astype(np.int64)
            hi = np.floor((c + pad) / self.cell).astype(np.int64)
            ranges = [range(lo[i], hi[i] + 1) for i in range(len(c))]
            for key in _iter_cells(ranges):
                self.table.setdefault(key, []).append(idx)

    def candidates(self, z_float: np.ndarray) -> list[int]:
        key = tuple(int(v) for v in np.floor(z_float / self.cell))
        return self.table.get(key, [])


def _iter_cells(ranges):
    if len(ranges) == 1:
        for a in ranges[0]:
            yield (a,)
        return
    for a in ranges[0]:
        for rest in _iter_cells(ranges[1:]):
            yield (a,) + rest


@dataclass(frozen=True, eq=False)
class Patched(LipFun):
    """Outer mapping overridden inside disjoint open balls by inner mappings."""

    outer: LipFun
    patches: tuple[Patch, ...]
    norm_kind: NormKind = NormKind.EUCLIDEAN

    def __post_init__(self):
        for p in self.patches:
            if (p.inner.in_dim, p.inner.out_dim) != (self.outer.in_dim, self.outer.out_dim):
                raise LipForgeError("patch inner mapping has wrong dimensions")
            if not p.radius > 0:
                raise LipForgeError("patch radius must be positive")

    @property
    def in_dim(self) -> int:
        return self.outer.in_dim

    @property
    def out_dim(self) -> int:
        return self.outer.out_dim

    def _lip_cert(self) -> float:
        certs = [self.outer.lip_cert] + [p.inner.lip_cert for p in self.patches]
        return max(certs)

    @cached_property
    def _grid(self) -> _PatchGrid:
        return _PatchGrid(self.patches)

    def resolve(self, z) -> int | None:
        """Index of the patch whose open ball contains z, or None."""
        if is_exact_vector(z):
            return self._resolve_exact(raw_vector(z))
        zf = np.asarray(z, dtype=float)
        for idx in self._grid.candidates(zf):
            p = self.patches[idx]
            if norm(zf - p.center_float, self.norm_kind) < p.radius_float:
                return idx
        return None

    def _resolve_exact(self, z: tuple) -> int | None:
        """resolve for a raw libmp point: ||z - center|| < radius, exactly."""
        prec, rnd = mp._prec_rounding
        zf = np.array([raw_to_float(x) for x in z])
        for idx in self._grid.candidates(zf):
            p = self.patches[idx]
            w = tuple(mpf_sub(x, c, prec, rnd) for x, c in zip(z, p.center_raw))
            if mpf_lt(_norm_raw(w, self.norm_kind), p.radius_raw):
                return idx
        return None

    def resolve_naive(self, z) -> int | None:
        """Linear-scan resolution; correctness oracle for the hash grid."""
        zf = float_vector(z) if is_exact_vector(z) else np.asarray(z, dtype=float)
        for idx, p in enumerate(self.patches):
            if norm(zf - p.center_float, self.norm_kind) < p.radius_float:
                return idx
        return None

    def _eval(self, z):
        idx = self.resolve(z)
        if idx is None:
            return self.outer._eval(z)
        return self.patches[idx].inner._eval(z)

    def _eval_exact(self, z):
        idx = self._resolve_exact(z)
        if idx is None:
            return self.outer._eval_exact(z)
        return self.patches[idx].inner._eval_exact(z)

    def _eval_batch(self, Z):
        if len(self.patches) >= 16:
            if len(Z) >= 64:
                return self._eval_batch_grid(Z)
            # small batch over many patches: per-point hash-grid resolution
            out = np.empty((len(Z), self.out_dim))
            claims: dict[int, list[int]] = {}
            outer_rows: list[int] = []
            for i in range(len(Z)):
                idx = self.resolve(Z[i])
                if idx is None:
                    outer_rows.append(i)
                else:
                    claims.setdefault(idx, []).append(i)
            if outer_rows:
                rows = np.asarray(outer_rows)
                out[rows] = self.outer._eval_batch(Z[rows])
            for pi, row_list in claims.items():
                rows = np.asarray(row_list)
                out[rows] = self.patches[pi].inner._eval_batch(Z[rows])
            return out
        out = np.empty((len(Z), self.out_dim))
        unclaimed = np.ones(len(Z), dtype=bool)
        for p in self.patches:
            if p.radius_float <= 0.0:
                continue
            mask = unclaimed & (norm_batch(Z - p.center_float, self.norm_kind) < p.radius_float)
            if mask.any():
                out[mask] = p.inner._eval_batch(Z[mask])
                unclaimed &= ~mask
        if unclaimed.any():
            out[unclaimed] = self.outer._eval_batch(Z[unclaimed])
        return out

    def _eval_batch_grid(self, Z):
        """Batch path bucketing points by hash-grid cell, so each point is
        tested only against the patches registered for its cell."""
        grid = self._grid
        cells = np.floor(Z / grid.cell).astype(np.int64)
        uniq, inverse = np.unique(cells, axis=0, return_inverse=True)
        order = np.argsort(inverse, kind="stable")
        bounds = np.searchsorted(inverse[order], np.arange(len(uniq) + 1))
        out = np.empty((len(Z), self.out_dim))
        unclaimed = np.ones(len(Z), dtype=bool)
        claims: dict[int, list[np.ndarray]] = {}
        for ui in range(len(uniq)):
            cand = grid.table.get(tuple(int(v) for v in uniq[ui]))
            if not cand:
                continue
            rows = order[bounds[ui] : bounds[ui + 1]]
            sub = Z[rows]
            taken = np.zeros(len(rows), dtype=bool)
            for pi in cand:
                p = self.patches[pi]
                if p.radius_float <= 0.0:
                    continue
                mask = (~taken) & (norm_batch(sub - p.center_float, self.norm_kind) < p.radius_float)
                if mask.any():
                    claims.setdefault(pi, []).append(rows[mask])
                    taken |= mask
            if taken.any():
                unclaimed[rows[taken]] = False
        for pi, row_blocks in claims.items():
            rows = np.concatenate(row_blocks)
            out[rows] = self.patches[pi].inner._eval_batch(Z[rows])
        if unclaimed.any():
            out[unclaimed] = self.outer._eval_batch(Z[unclaimed])
        return out

    def children(self):
        return (self.outer,) + tuple(p.inner for p in self.patches)


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

    def _eval(self, z):
        return self.f._eval(self.inner_map._eval(z))

    def _eval_exact(self, z):
        return self.f._eval_exact(self.inner_map._eval_exact(z))

    def _eval_batch(self, Z):
        return self.f._eval_batch(self.inner_map._eval_batch(Z))

    def children(self):
        return (self.f, self.inner_map)


# ---------------------------------------------------------------------------
# Construction helpers


def identity(d: int, norm_kind: NormKind = NormKind.EUCLIDEAN) -> Linear:
    return Linear(LinearMap(np.eye(d), norm_kind, norm_kind))


def zero_map(in_dim: int, out_dim: int) -> Const:
    return Const(np.zeros(out_dim), in_dim)


def add_const(f: LipFun, p) -> AddConst:
    return AddConst(f, p if isinstance(p, np.ndarray) else as_vector(list(p)))


def shift_conjugate(map_fun: LipFun, x: np.ndarray, norm_kind: NormKind) -> LipFun:
    """z -> x + map_fun(z - x) for a coordinate mapping R^d -> R^d."""
    d = map_fun.in_dim
    translate = Affine(np.zeros(d), LinearMap(np.eye(d), norm_kind, norm_kind), x)
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


def patch(
    outer: LipFun,
    patches,
    domain: Domain,
    boundary_samples: int | None = None,
    tol: float = 1e-9,
) -> Patched:
    """Override `outer` inside disjoint balls, certifying continuity.

    Balls must be pairwise disjoint and strictly inside the domain interior.
    Each inner mapping is compared against the outer one on sampled sphere
    points (64*d by default); spheres finer than float64 resolution are
    checked in exact arithmetic on an axis sample instead.
    """
    def as_patch(p) -> Patch:
        if isinstance(p, Patch):
            return p
        center, radius, inner = p
        if not isinstance(center, np.ndarray):
            center = np.asarray(center, dtype=float)
        return Patch(center, radius, inner)

    plist = tuple(as_patch(p) for p in patches)
    d = outer.in_dim
    for p in plist:
        if len(p.center) != d:
            raise LipForgeError("patch center has wrong dimension")
        if not p.radius > 0:
            raise LipForgeError("patch radius must be positive")
        margin = to_float(domain.dist_to_boundary(p.center_float))
        if not margin > p.radius_float:
            raise LipForgeError("patch ball escapes the domain interior")
    if len(plist) > 1:
        centers = np.stack([p.center_float for p in plist])
        radii = np.array([p.radius_float for p in plist])
        diff = centers[:, None, :] - centers[None, :, :]
        gaps = norm_batch(diff.reshape(-1, d), domain.norm).reshape(len(plist), len(plist))
        sums = radii[:, None] + radii[None, :]
        np.fill_diagonal(gaps, np.inf)
        if np.any(gaps <= sums):
            raise LipForgeError("patch overlap")
    node = Patched(outer, plist, domain.norm)
    _check_patch_continuity(node, boundary_samples, tol)
    return node


def _check_patch_continuity(node: Patched, boundary_samples: int | None, tol: float):
    d = node.in_dim
    n_samples = boundary_samples if boundary_samples is not None else 64 * d
    resolvable: list[int] = []
    exact_idx: list[int] = []
    for i, p in enumerate(node.patches):
        scale = 1.0 + float(np.max(np.abs(p.center_float)))
        if p.radius_float > FLOAT_RESOLVE_REL * scale:
            resolvable.append(i)
        else:
            exact_idx.append(i)
    if resolvable:
        blocks = []
        for i in resolvable:
            p = node.patches[i]
            dirs = unit_directions(n_samples, d, seed=i, kind=node.norm_kind)
            blocks.append(p.center_float + p.radius_float * dirs)
        all_pts = np.concatenate(blocks)
        outer_vals = node.outer._eval_batch(all_pts)
        off = 0
        for i in resolvable:
            p = node.patches[i]
            pts = all_pts[off : off + n_samples]
            diff = p.inner._eval_batch(pts) - outer_vals[off : off + n_samples]
            err = float(np.max(np.abs(diff))) if diff.size else 0.0
            if err > tol:
                raise LipForgeError(f"patch boundary mismatch {err:.3e} beyond tolerance")
            off += n_samples
    for i in exact_idx:
        p = node.patches[i]
        with mp.workdps(working_dps_for_scale(p.radius)):
            prec, rnd = mp._prec_rounding
            center = raw_vector(p.center_float)
            for axis in range(d):
                for sgn in (1, -1):
                    z = list(center)
                    z[axis] = mpf_add(z[axis], mpf_mul_int(p.radius_raw, sgn, prec, rnd), prec, rnd)
                    z = tuple(z)
                    diff = [mpf_sub(u, v, prec, rnd) for u, v in zip(p.inner._eval_exact(z), node.outer._eval_exact(z))]
                    if raw_to_float(_norm_raw(diff, NormKind.SUP)) > tol:
                        raise LipForgeError("patch boundary mismatch beyond tolerance")


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
                scale = 1.0 + float(np.max(np.abs(c)))
                pts.append(c)
                radii: set[float] = set()
                if p.radius_float > FLOAT_RESOLVE_REL * scale:
                    radii.add(p.radius_float)
                blend_radii(p.inner, radii)
                d = len(c)
                eye = np.eye(d)
                for r in sorted(radii):
                    if r <= FLOAT_RESOLVE_REL * scale:
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
        cand = lo + (hi - lo) * np.array(
            [_halton(base + 17 * len(extra), axis) for axis in range(d)]
        )
        if domain.contains(cand):
            extra.append(cand)
        base += 1
    if extra:
        pts.append(np.asarray(extra))
    Z = np.concatenate(pts)
    diff = eval_batch(f, Z) - eval_batch(g, Z)
    return float(np.max(norm_batch(diff, out_norm))) if len(diff) else 0.0


def _halton(index: int, axis: int) -> float:
    from .space import _HALTON_BASES, _halton_value

    return _halton_value(index, _HALTON_BASES[axis])


# ---------------------------------------------------------------------------
# Serialization (schema lipforge-fun/1)


def _encode_map(m: LinearMap) -> dict:
    return {
        "matrix": [encode_vector(row) for row in m.matrix],
        "in_norm": m.in_norm.value,
        "out_norm": m.out_norm.value,
    }


def _decode_map(obj: dict) -> LinearMap:
    try:
        rows = [[decode_scalar(x) for x in row] for row in obj["matrix"]]
        return LinearMap(as_matrix(rows), NormKind.parse(obj["in_norm"]), NormKind.parse(obj["out_norm"]))
    except (KeyError, TypeError, IndexError) as e:
        raise LipForgeError("malformed artifact: bad linear map") from e


def _encode_node(f: LipFun, depth: int) -> dict:
    if depth > MAX_TREE_DEPTH:
        raise LipForgeError(f"tree deeper than {MAX_TREE_DEPTH}")
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
        return {"kind": "sum", "f": _encode_node(f.f, depth + 1), "g": _encode_node(f.g, depth + 1)}
    if isinstance(f, Scale):
        return {"kind": "scale", "c": encode_scalar(f.c), "f": _encode_node(f.f, depth + 1)}
    if isinstance(f, AddConst):
        return {"kind": "add_const", "f": _encode_node(f.f, depth + 1), "p": encode_vector(f.p)}
    if isinstance(f, RadialBlend):
        return {
            "kind": "radial_blend",
            "a": encode_scalar(f.a),
            "b": encode_scalar(f.b),
            "f1": _encode_node(f.f1, depth + 1),
            "f2": _encode_node(f.f2, depth + 1),
            "norm": f.norm_kind.value,
        }
    if isinstance(f, Patched):
        return {
            "kind": "patched",
            "outer": _encode_node(f.outer, depth + 1),
            "norm": f.norm_kind.value,
            "patches": [
                {
                    "center": encode_vector(p.center),
                    "radius": encode_scalar(p.radius),
                    "inner": _encode_node(p.inner, depth + 1),
                }
                for p in f.patches
            ],
        }
    if isinstance(f, Precompose):
        return {
            "kind": "precompose",
            "f": _encode_node(f.f, depth + 1),
            "inner_map": _encode_node(f.inner_map, depth + 1),
        }
    raise LipForgeError(f"cannot serialize node {type(f).__name__}")


def _decode_node(obj, depth: int) -> LipFun:
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
            return Sum(_decode_node(obj["f"], depth + 1), _decode_node(obj["g"], depth + 1))
        if kind == "scale":
            return Scale(decode_scalar(obj["c"]), _decode_node(obj["f"], depth + 1))
        if kind == "add_const":
            return AddConst(_decode_node(obj["f"], depth + 1), decode_vector(obj["p"]))
        if kind == "radial_blend":
            return RadialBlend(
                decode_scalar(obj["a"]),
                decode_scalar(obj["b"]),
                _decode_node(obj["f1"], depth + 1),
                _decode_node(obj["f2"], depth + 1),
                NormKind.parse(obj["norm"]),
            )
        if kind == "patched":
            patches = tuple(
                Patch(decode_vector(p["center"]), decode_scalar(p["radius"]), _decode_node(p["inner"], depth + 1))
                for p in obj["patches"]
            )
            return Patched(_decode_node(obj["outer"], depth + 1), patches, NormKind.parse(obj["norm"]))
        if kind == "precompose":
            return Precompose(_decode_node(obj["f"], depth + 1), _decode_node(obj["inner_map"], depth + 1))
    except LipForgeError:
        raise
    except (KeyError, TypeError, ValueError, IndexError) as e:
        raise LipForgeError(f"malformed artifact: bad {kind} node") from e
    raise LipForgeError(f"malformed artifact: unknown node kind {kind!r}")


def fun_to_dict(f: LipFun) -> dict:
    return {"schema": FUN_SCHEMA, "root": _encode_node(f, 0)}


def fun_from_dict(obj: dict) -> LipFun:
    if not isinstance(obj, dict):
        raise LipForgeError("malformed artifact")
    schema = obj.get("schema")
    if schema != FUN_SCHEMA:
        raise LipForgeError(f"unknown schema version {schema!r}")
    return _decode_node(obj.get("root"), 0)


def serialize(f: LipFun) -> bytes:
    return json.dumps(fun_to_dict(f), separators=(",", ":")).encode("utf-8")


def deserialize(data) -> LipFun:
    if isinstance(data, bytes):
        try:
            data = data.decode("utf-8")
        except UnicodeDecodeError as e:
            raise LipForgeError("malformed artifact") from e
    try:
        obj = json.loads(data)
    except json.JSONDecodeError as e:
        raise LipForgeError("malformed artifact") from e
    return fun_from_dict(obj)
