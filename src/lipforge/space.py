"""Finite-dimensional normed-space primitives.

Vectors are plain numpy arrays (float64, or object dtype holding mpmath
values when a computation needs precision beyond float64). The exact
evaluator passes tuples of raw libmp values instead (see numerics.py);
``_norm_raw`` and ``LinearMap.apply_raw`` serve it, and the object-array
branches of ``norm`` and ``LinearMap.apply`` delegate to them. Operators are
real l x d matrices with an operator norm taken with respect to a chosen
pair of norms on domain and codomain. Domains are boxes or norm balls with
exact diameter and boundary-distance formulas.
"""

from __future__ import annotations

import enum
import itertools
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from mpmath import mp
from mpmath.libmp import fzero, mpf_abs, mpf_add, mpf_gt, mpf_mul, mpf_sqrt

from .numerics import (
    LipForgeError,
    Scalar,
    as_matrix,
    as_vector,
    exact_mpf,
    float_matrix,
    float_vector,
    is_exact_vector,
    is_mpf,
    mpf_vector,
    raw_vector,
    to_float,
)

# Sign-vector enumeration for exact mixed-pair operator norms is exponential
# in the enumerated dimension; desk-scale problems stay well under this.
MAX_ENUM_DIM = 20


class NormKind(enum.Enum):
    EUCLIDEAN = "euclidean"
    SUP = "sup"
    ONE = "one"

    @classmethod
    def parse(cls, text: str) -> "NormKind":
        try:
            return cls(text.strip().lower())
        except ValueError:
            raise LipForgeError(
                f"unknown norm {text!r}; expected euclidean, sup or one"
            ) from None


def norm(v: np.ndarray, kind: NormKind = NormKind.EUCLIDEAN) -> Scalar:
    """Vector norm under the given kind; exact in the vector's arithmetic."""
    v = np.asarray(v) if not isinstance(v, np.ndarray) else v
    if is_exact_vector(v):
        return mp.make_mpf(_norm_raw(raw_vector(v), kind))
    v = np.asarray(v, dtype=float)
    if kind is NormKind.EUCLIDEAN:
        return float(math.sqrt(float(np.dot(v, v))))
    if kind is NormKind.SUP:
        return float(np.max(np.abs(v))) if v.size else 0.0
    return float(np.sum(np.abs(v)))


def _norm_raw(v: tuple, kind: NormKind) -> tuple:
    """Norm of a raw libmp vector in the working precision, with the same
    operations in the same order as the mpf expressions
    ``sqrt(sum(x * x))``, ``max(abs(x))`` and ``sum(abs(x))``."""
    prec, rnd = mp._prec_rounding
    if kind is NormKind.EUCLIDEAN:
        acc = fzero
        for x in v:
            acc = mpf_add(acc, mpf_mul(x, x, prec, rnd), prec, rnd)
        return mpf_sqrt(acc, prec, rnd)
    if kind is NormKind.SUP:
        best = None
        for x in v:
            ax = mpf_abs(x, prec, rnd)
            if best is None or mpf_gt(ax, best):
                best = ax
        return fzero if best is None else best
    acc = fzero
    for x in v:
        acc = mpf_add(acc, mpf_abs(x, prec, rnd), prec, rnd)
    return acc


def norm_batch(Z: np.ndarray, kind: NormKind) -> np.ndarray:
    """Row-wise norms of an (n, d) float64 array."""
    if kind is NormKind.EUCLIDEAN:
        return np.sqrt(np.einsum("ij,ij->i", Z, Z))
    if kind is NormKind.SUP:
        return np.max(np.abs(Z), axis=1)
    return np.sum(np.abs(Z), axis=1)


def _power_iteration_2norm(m: np.ndarray) -> float:
    """Largest singular value via power iteration on A^T A.

    Deterministic normalized all-ones start, 200 iterations max, relative
    tolerance 1e-10. If the start is (numerically) orthogonal to the top
    singular direction, restarts from the best coordinate axis.
    """
    d = m.shape[1]
    b = m.T @ m

    def run(v0: np.ndarray) -> float:
        v = v0 / np.linalg.norm(v0)
        lam = 0.0
        for _ in range(200):
            w = b @ v
            nw = np.linalg.norm(w)
            if nw == 0.0:
                return 0.0
            v = w / nw
            lam_new = float(v @ (b @ v))
            if abs(lam_new - lam) <= 1e-10 * max(lam_new, 1e-300):
                lam = lam_new
                break
            lam = lam_new
        return math.sqrt(max(lam, 0.0))

    sigma = run(np.ones(d))
    # Axis lower bounds certify whether the all-ones start was degenerate.
    axis_best = 0.0
    axis_idx = 0
    for i in range(d):
        s = float(np.linalg.norm(m[:, i]))
        if s > axis_best:
            axis_best, axis_idx = s, i
    if axis_best > sigma * (1.0 + 1e-12):
        e = np.zeros(d)
        e[axis_idx] = 1.0
        sigma = max(sigma, run(e))
    return sigma


def _enumerate_sign_norm(m: np.ndarray, out_kind: NormKind) -> float:
    """max over x in {-1,+1}^d of ||A x||_out (exact extreme-point sweep)."""
    d = m.shape[1]
    if d > MAX_ENUM_DIM:
        raise LipForgeError(
            f"exact operator norm enumeration limited to dimension {MAX_ENUM_DIM}"
        )
    best = 0.0
    for signs in itertools.product((1.0, -1.0), repeat=d - 1):
        x = np.array((1.0,) + signs)
        best = max(best, float(norm(m @ x, out_kind)))
    return best


def op_norm_matrix(matrix: np.ndarray, in_norm: NormKind, out_norm: NormKind) -> float:
    m = float_matrix(matrix) if matrix.dtype == object else np.asarray(matrix, dtype=float)
    if not np.all(np.isfinite(m)):
        raise LipForgeError("operator has non-finite entries")
    if m.size == 0:
        return 0.0
    if in_norm is NormKind.ONE:
        # Extreme points of the one-norm ball are +-e_j.
        return max(float(norm(m[:, j], out_norm)) for j in range(m.shape[1]))
    if in_norm is NormKind.SUP:
        if out_norm is NormKind.SUP:
            return float(np.max(np.sum(np.abs(m), axis=1)))
        return _enumerate_sign_norm(m, out_norm)
    # euclidean domain
    if out_norm is NormKind.EUCLIDEAN:
        return _power_iteration_2norm(m)
    if out_norm is NormKind.SUP:
        return max(float(np.linalg.norm(m[i])) for i in range(m.shape[0]))
    # euclidean -> one: max over sign vectors s of ||A^T s||_2
    l = m.shape[0]
    if l > MAX_ENUM_DIM:
        raise LipForgeError(
            f"exact operator norm enumeration limited to dimension {MAX_ENUM_DIM}"
        )
    best = 0.0
    for signs in itertools.product((1.0, -1.0), repeat=l - 1):
        s = np.array((1.0,) + signs)
        best = max(best, float(np.linalg.norm(m.T @ s)))
    return best


@dataclass(frozen=True)
class LinearMap:
    """A real l x d matrix acting between normed spaces."""

    matrix: np.ndarray
    in_norm: NormKind = NormKind.EUCLIDEAN
    out_norm: NormKind = NormKind.EUCLIDEAN

    def __post_init__(self):
        mat = self.matrix
        if not isinstance(mat, np.ndarray) or mat.ndim != 2:
            object.__setattr__(self, "matrix", np.atleast_2d(np.asarray(mat, dtype=float)))
            mat = self.matrix
        if mat.dtype != object and not np.all(np.isfinite(mat)):
            raise LipForgeError("operator has non-finite entries")

    @property
    def out_dim(self) -> int:
        return self.matrix.shape[0]

    @property
    def in_dim(self) -> int:
        return self.matrix.shape[1]

    @cached_property
    def op_norm(self) -> float:
        return op_norm_matrix(self.matrix, self.in_norm, self.out_norm)

    @cached_property
    def float_matrix(self) -> np.ndarray:
        return float_matrix(self.matrix)

    @cached_property
    def _raw_matrix(self) -> tuple:
        return tuple(raw_vector(row) for row in self.matrix)

    def apply(self, v: np.ndarray) -> np.ndarray:
        if is_exact_vector(v) or self.matrix.dtype == object:
            return mpf_vector(self.apply_raw(raw_vector(v)))
        return self.float_matrix @ np.asarray(v, dtype=float)

    def apply_raw(self, v: tuple) -> tuple:
        """Matrix times a raw libmp vector in the working precision; each row
        is accumulated from zero as ``acc += m[i, j] * v[j]``."""
        prec, rnd = mp._prec_rounding
        out = []
        for row in self._raw_matrix:
            acc = fzero
            for m, x in zip(row, v):
                acc = mpf_add(acc, mpf_mul(m, x, prec, rnd), prec, rnd)
            out.append(acc)
        return tuple(out)

    def apply_batch(self, Z: np.ndarray) -> np.ndarray:
        return Z @ self.float_matrix.T

    def scaled(self, c: Scalar) -> "LinearMap":
        if is_mpf(c) or self.matrix.dtype == object:
            rows = [[exact_mpf(c) * exact_mpf(x) for x in row] for row in self.matrix]
            return LinearMap(as_matrix(rows), self.in_norm, self.out_norm)
        return LinearMap(self.float_matrix * float(c), self.in_norm, self.out_norm)


def op_norm(a: LinearMap) -> float:
    return a.op_norm


@dataclass(frozen=True)
class Domain:
    """A closed box or norm ball with nonempty interior.

    shape is "box" (fields lo, hi) or "ball" (fields center, radius); the
    norm applies to distances, diameters and ball geometry.
    """

    shape: str
    norm: NormKind = NormKind.EUCLIDEAN
    lo: np.ndarray | None = None
    hi: np.ndarray | None = None
    center: np.ndarray | None = None
    radius: float = 0.0

    def __post_init__(self):
        if self.shape == "box":
            lo = np.asarray(self.lo, dtype=float)
            hi = np.asarray(self.hi, dtype=float)
            if lo.shape != hi.shape or lo.ndim != 1:
                raise LipForgeError("box needs matching lo/hi vectors")
            if not np.all(lo < hi):
                raise LipForgeError("box must have nonempty interior (lo < hi)")
            object.__setattr__(self, "lo", lo)
            object.__setattr__(self, "hi", hi)
        elif self.shape == "ball":
            c = np.asarray(self.center, dtype=float)
            if c.ndim != 1:
                raise LipForgeError("ball needs a center vector")
            if not self.radius > 0:
                raise LipForgeError("ball must have positive radius")
            object.__setattr__(self, "center", c)
        else:
            raise LipForgeError(f"unknown domain shape {self.shape!r}")

    @classmethod
    def box(cls, lo, hi, norm: NormKind = NormKind.EUCLIDEAN) -> "Domain":
        return cls(shape="box", norm=norm, lo=np.asarray(lo, dtype=float), hi=np.asarray(hi, dtype=float))

    @classmethod
    def ball(cls, center, radius: float, norm: NormKind = NormKind.EUCLIDEAN) -> "Domain":
        return cls(shape="ball", norm=norm, center=np.asarray(center, dtype=float), radius=float(radius))

    @property
    def dim(self) -> int:
        return len(self.lo) if self.shape == "box" else len(self.center)

    def contains(self, x: np.ndarray, slack: float = 1e-12) -> bool:
        if self.shape == "box":
            xf = float_vector(x) if is_exact_vector(x) else np.asarray(x, dtype=float)
            return bool(np.all(xf >= self.lo - slack) and np.all(xf <= self.hi + slack))
        return to_float(norm(_sub(x, self.center), self.norm)) <= self.radius + slack

    def dist_to_boundary(self, x: np.ndarray) -> Scalar:
        """Exact distance from an interior point to the domain boundary.

        Raises if x lies outside the domain.
        """
        if self.shape == "box":
            if is_exact_vector(x):
                vals = []
                for i in range(len(self.lo)):
                    vals.append(exact_mpf(x[i]) - exact_mpf(self.lo[i]))
                    vals.append(exact_mpf(self.hi[i]) - exact_mpf(x[i]))
                d = min(vals)
                if d < 0:
                    raise LipForgeError("point outside domain")
                return d
            xf = np.asarray(x, dtype=float)
            d = float(np.min(np.minimum(xf - self.lo, self.hi - xf)))
            if d < 0:
                raise LipForgeError("point outside domain")
            return d
        r = norm(_sub(x, self.center), self.norm)
        out = (exact_mpf(self.radius) - r) if is_mpf(r) else (self.radius - r)
        if out < 0:
            raise LipForgeError("point outside domain")
        return out

    def diam(self) -> float:
        if self.shape == "box":
            return float(norm(self.hi - self.lo, self.norm))
        return 2.0 * self.radius

    def bounding_box(self) -> tuple[np.ndarray, np.ndarray]:
        if self.shape == "box":
            return self.lo, self.hi
        # Enclosing axis box of the norm ball (radius works for all three norms).
        return self.center - self.radius, self.center + self.radius

    def grid(self, per_axis: int) -> np.ndarray:
        """Deterministic evaluation grid inside the domain (row-major order)."""
        lo, hi = self.bounding_box()
        axes = [np.linspace(lo[i], hi[i], per_axis) for i in range(self.dim)]
        mesh = np.meshgrid(*axes, indexing="ij")
        pts = np.stack([m.ravel() for m in mesh], axis=1)
        if self.shape == "ball":
            keep = norm_batch(pts - self.center, self.norm) <= self.radius + 1e-12
            pts = pts[keep]
        return pts

    def encode(self) -> dict:
        if self.shape == "box":
            return {
                "shape": "box",
                "norm": self.norm.value,
                "lo": [repr(float(v)) for v in self.lo],
                "hi": [repr(float(v)) for v in self.hi],
            }
        return {
            "shape": "ball",
            "norm": self.norm.value,
            "center": [repr(float(v)) for v in self.center],
            "radius": repr(float(self.radius)),
        }

    @classmethod
    def decode(cls, obj: dict) -> "Domain":
        try:
            kind = NormKind.parse(obj["norm"])
            if obj["shape"] == "box":
                return cls.box([float(v) for v in obj["lo"]], [float(v) for v in obj["hi"]], kind)
            if obj["shape"] == "ball":
                return cls.ball([float(v) for v in obj["center"]], float(obj["radius"]), kind)
        except (KeyError, ValueError, TypeError) as e:
            raise LipForgeError("malformed artifact: bad domain record") from e
        raise LipForgeError(f"malformed artifact: unknown domain shape {obj.get('shape')!r}")


def _sub(x, c):
    if is_exact_vector(x):
        return as_vector([exact_mpf(x[i]) - exact_mpf(c[i]) for i in range(len(c))])
    return np.asarray(x, dtype=float) - np.asarray(c, dtype=float)


def dist_to_boundary(domain: Domain, x: np.ndarray) -> Scalar:
    return domain.dist_to_boundary(x)


def diam(domain: Domain) -> float:
    return domain.diam()


def _halton_value(index: int, base: int) -> float:
    f = 1.0
    r = 0.0
    i = index
    while i > 0:
        f /= base
        r += f * (i % base)
        i //= base
    return r


_HALTON_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29)


def halton_point(index: int, dim: int) -> np.ndarray:
    if dim > len(_HALTON_BASES):
        raise LipForgeError("low-discrepancy sampler limited to dimension 10")
    return np.array([_halton_value(index, _HALTON_BASES[i]) for i in range(dim)])


def _direction(index: int, dim: int, kind: NormKind = NormKind.EUCLIDEAN) -> np.ndarray:
    """Deterministic low-discrepancy direction of unit norm under `kind`.

    Shrunk by one part in 2^50 so that rounding in the normalization can
    never push a scaled sample outside a closed ball.
    """
    for attempt in range(64):
        v = 2.0 * halton_point(index + 7 + attempt * 977, dim) - 1.0
        n = float(norm(v, kind))
        if n > 1e-9:
            return v * ((1.0 - 2.0**-50) / n)
    return np.eye(dim)[0]


def _halton_columns(index: np.ndarray, dim: int) -> np.ndarray:
    """halton_point of every index as the rows of one array. Each element
    goes through the float operations of _halton_value in the same order;
    an index already reduced to zero only adds 0.0, which changes nothing."""
    if dim > len(_HALTON_BASES):
        raise LipForgeError("low-discrepancy sampler limited to dimension 10")
    out = np.empty((len(index), dim))
    for axis in range(dim):
        base = _HALTON_BASES[axis]
        f = np.ones(len(index))
        r = np.zeros(len(index))
        i = index.copy()
        while i.any():
            f /= base
            r += f * (i % base)
            i //= base
        out[:, axis] = r
    return out


def unit_directions(count: int, dim: int, seed: int, kind: NormKind = NormKind.EUCLIDEAN) -> np.ndarray:
    """The directions _direction(base + 13 * i) for i < count, bit for bit.

    The first attempt of every direction is drawn in one vectorized pass.
    Norms stay per row: a batched Euclidean row sum rounds differently from
    np.dot in a few percent of rows.
    """
    first = (seed & 0x7FFFFFFF) * 131 + 1 + 13 * np.arange(count, dtype=np.int64)
    v = 2.0 * _halton_columns(first + 7, dim) - 1.0
    n = np.array([float(norm(row, kind)) for row in v])
    ok = n > 1e-9
    out = v * ((1.0 - 2.0**-50) / np.where(ok, n, 1.0))[:, None]
    for row in np.flatnonzero(~ok):
        out[row] = _direction(int(first[row]), dim, kind)
    return out


def sample_ball(
    c: np.ndarray,
    r: Scalar,
    budget: int,
    seed: int,
    kind: NormKind = NormKind.EUCLIDEAN,
) -> list[np.ndarray]:
    """Deterministic probe points of the closed `kind`-norm ball around c.

    Always contains c +- r e_i for each axis; the remaining budget is filled
    with the center and alternating low-discrepancy surface/interior points.
    Works for mpf radii (points become exact object vectors).
    """
    c = np.asarray(c) if not isinstance(c, np.ndarray) else c
    d = len(c)
    if budget < 2 * d + 1:
        raise LipForgeError(f"sample budget {budget} too small; need at least {2 * d + 1}")
    if not r > 0:
        raise LipForgeError("sample radius must be positive")
    exact = is_mpf(r) or is_exact_vector(c)

    def shift(direction: np.ndarray, scale) -> np.ndarray:
        if exact:
            rr = exact_mpf(r) * exact_mpf(scale) if not is_mpf(scale) else exact_mpf(r) * scale
            return as_vector([exact_mpf(c[i]) + rr * exact_mpf(direction[i]) for i in range(d)])
        return np.asarray(c, dtype=float) + (float(r) * float(scale)) * direction

    pts: list[np.ndarray] = []
    eye = np.eye(d)
    for i in range(d):
        pts.append(shift(eye[i], 1.0))
        pts.append(shift(-eye[i], 1.0))
    extra = budget - 2 * d
    base = (seed & 0x7FFFFFFF) * 257 + 11
    for j in range(extra):
        if j == 0:
            pts.append(shift(np.zeros(d), 0.0))
            continue
        direction = _direction(base + 31 * j, d, kind)
        if j % 2 == 1:
            pts.append(shift(direction, 1.0))
        else:
            # interior radius from a 1-d low-discrepancy stream, volume-flattened
            u = _halton_value(base + 31 * j, 3)
            pts.append(shift(direction, u ** (1.0 / d)))
    return pts
