"""Finite-dimensional normed-space primitives.

Vectors are plain numpy arrays (float64, or object dtype holding mpmath
values when a computation needs precision beyond float64). The exact
evaluator passes tuples of raw libmp values instead (see numerics.py);
``_norm_raw``, ``_norm_lt_raw``, ``_root_side`` and ``LinearMap.apply_raw``
serve it, and the object-array branches of ``norm`` and ``LinearMap.apply``
delegate to them; ``norm_batch`` and ``_products`` make the same sums in
float64. Operators are
real l x d matrices with an operator norm taken with respect to a chosen
pair of norms on domain and codomain. Domains are boxes or norm balls with
exact diameter and boundary-distance formulas.
"""

from __future__ import annotations

import bisect
import enum
import math
import struct
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np
from mpmath import mp
from mpmath.libmp import fone, fzero, mpf_abs, mpf_add, mpf_gt, mpf_le, mpf_lt, mpf_mul, mpf_pos, mpf_shift, mpf_sub
from mpmath.libmp import ComplexResult, normalize, round_nearest

from .numerics import (
    FLOAT,
    FLOAT_VECTOR,
    LipForgeError,
    Scalar,
    as_matrix,
    as_vector,
    cached,
    decode_fields,
    encode_fields,
    exact_mpf,
    float_matrix,
    is_exact_vector,
    is_mpf,
    mpf_vector,
    quote,
    raw_vector,
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
        except (AttributeError, ValueError):
            # a non-string (a number, null, a list or an object) has no strip
            raise LipForgeError(
                f"unknown norm {quote(text)}; expected euclidean, sup or one"
            ) from None


def norm(v: np.ndarray, kind: NormKind = NormKind.EUCLIDEAN) -> Scalar:
    """Vector norm under the given kind; exact in the vector's arithmetic.
    A float vector's norm is norm_batch's one-row case."""
    v = np.asarray(v) if not isinstance(v, np.ndarray) else v
    if is_exact_vector(v):
        return mp.make_mpf(_norm_raw(raw_vector(v), kind))
    return float(norm_batch(np.asarray(v, dtype=float).reshape(1, -1), kind)[0])


def _norm_raw(v: tuple, kind: NormKind, exact: bool = False) -> tuple:
    """Norm of a raw libmp vector in the working precision, with the same
    operations in the same order as the mpf expressions
    ``sqrt(sum(x * x))``, ``max(abs(x))`` and ``sum(abs(x))``. Callers that
    only compare a Euclidean norm with a radius use ``_norm_lt_raw`` or
    ``_root_side`` instead, which take the root only when the comparison
    needs it. With exact, the sup and one norms round nothing (libmp
    arithmetic without a precision); exact is not for the Euclidean norm,
    whose root has no exact form: ``_norm_le_exact`` compares its square."""
    prec, rnd = (0, round_nearest) if exact else mp._prec_rounding
    if kind is NormKind.EUCLIDEAN:
        return _sqrt_raw(_sum_squares_raw(v), prec, rnd)
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


def _sum_squares_raw(v: tuple, exact: bool = False) -> tuple:
    """The rounded ``sum(x * x)`` whose root is the Euclidean ``_norm_raw``;
    with exact, the sum rounds nothing."""
    prec, rnd = (0, round_nearest) if exact else mp._prec_rounding
    acc = fzero
    for x in v:
        acc = mpf_add(acc, mpf_mul(x, x, prec, rnd), prec, rnd)
    return acc


def _sqrt_raw(s: tuple, prec: int, rnd: str) -> tuple:
    """``mpf_sqrt(s, prec, rnd)`` bit for bit, with ``math.isqrt`` for the
    integer root and its trailing zeros (many, for an exact square) stripped
    in one step rather than by ``normalize``'s loop of one byte a turn."""
    sign, man, exp, bc = s
    if sign:
        raise ComplexResult("square root of a negative number")
    if not man:
        return s
    if exp & 1:
        exp, man, bc = exp - 1, man << 1, bc + 1
    shift = max(4, 2 * prec - bc + 4)
    shift += shift & 1
    x = man << shift
    y = math.isqrt(x)
    if rnd not in "fd" and x != y * y:
        y, shift = (y << 1) + 1, shift + 2
    y >>= (tz := (y & -y).bit_length() - 1)
    return normalize(0, y, (exp - shift) // 2 + tz, y.bit_length(), prec, rnd)


def _root_side(acc: tuple, r2: tuple) -> int:
    """Sign of ``mpf_sqrt(acc) - r`` in the working precision and rounding,
    decided without the root where possible: -1 or 1 when the rounded root
    is certainly below or above r, 0 when the call is too close to make.

    acc is a rounded sum of squares, so it is not negative, and
    ``r2 = r * r`` is formed exactly (``mpf_mul`` without a precision) for
    a positive r. With p the working precision and u = 2^-p, the band is
    ``r2 -+ r2 * 2^-(p-4)``, that is r^2 (1 -+ 16u), and both ends are
    exact. Rounded to p bits in any mode, the root q of acc and the true
    root s = sqrt(acc) lie within one spacing of the p-bit numbers of s's
    binade, which is at most 2u times either, so q <= s (1 + 2u) and
    s <= q (1 + 2u): the standard a-priori bound of one rounding (S. M. Rump,
    Verification methods, Acta Numerica 2010).

    * If acc < r^2 (1 - 16u), then q <= s (1 + 2u) < r, because
      (1 - 16u)(1 + 2u)^2 = 1 - 12u - 60u^2 - 64u^3 < 1. For p <= 4 the
      lower end is not positive, and no acc passes.
    * If acc > r^2 (1 + 16u), then q >= s / (1 + 2u) > r, because
      (1 + 2u)^2 = 1 + 4u + 4u^2 <= 1 + 16u for every u <= 1/2.

    So a nonzero answer is the one the rounded root compared with r gives;
    on 0 the caller takes that root and compares it. A NaN acc or r2 fails
    both tests and also gives 0.
    """
    slack = mpf_shift(r2, 4 - mp._prec_rounding[0])
    if mpf_lt(acc, mpf_sub(r2, slack)):
        return -1
    if mpf_gt(acc, mpf_add(r2, slack)):
        return 1
    return 0


def _norm_lt_raw(v: tuple, kind: NormKind, r: tuple, r2: tuple) -> bool:
    """``mpf_lt(_norm_raw(v, kind), r)`` for a positive r with r2 = r * r
    exact. The Euclidean root is taken only when ``_root_side`` cannot
    decide; the sup and one norms take no root and are compared as is."""
    if kind is not NormKind.EUCLIDEAN:
        return mpf_lt(_norm_raw(v, kind), r)
    acc = _sum_squares_raw(v)
    side = _root_side(acc, r2)
    if side:
        return side < 0
    prec, rnd = mp._prec_rounding
    return mpf_lt(_sqrt_raw(acc, prec, rnd), r)


def _norm_le_exact(v: tuple, kind: NormKind, r: tuple) -> bool:
    """Whether ``norm(v, kind) <= r`` for a raw libmp vector, decided
    exactly: the Euclidean norm through its square, the others as is."""
    if not mpf_le(fzero, r):
        return False
    if kind is NormKind.EUCLIDEAN:
        return mpf_le(_sum_squares_raw(v, exact=True), mpf_mul(r, r))
    return mpf_le(_norm_raw(v, kind, exact=True), r)


def norm_batch(Z: np.ndarray, kind: NormKind) -> np.ndarray:
    """Row-wise norms of an (n, d) float64 array, and every float norm: each
    row summed from 0.0 over its coordinates in order, as ``_norm_raw`` sums,
    with elementwise ufuncs (no BLAS, fused multiply-add or pairwise sum), so
    its bits depend on neither the other rows nor the CPU."""
    if kind is NormKind.SUP:
        return np.max(np.abs(Z), axis=1, initial=0.0)
    acc = np.zeros(len(Z))
    for z in Z.T:
        acc += z * z if kind is NormKind.EUCLIDEAN else np.abs(z)
    return np.sqrt(acc) if kind is NormKind.EUCLIDEAN else acc


def _products(Z: np.ndarray, m: np.ndarray) -> np.ndarray:
    """``Z @ m.T`` for an (n, d) array and an (l, d) matrix, and every float
    matrix product, summed as norm_batch sums: ``acc += m[k, j] * z[j]`` from
    0.0 in coordinate order, as ``LinearMap.apply_raw`` does."""
    out = np.zeros((len(Z), len(m)))
    for z, col in zip(Z.T, m.T, strict=True):
        out += z[:, None] * col
    return out


class CellTable:
    """The package's fixed-radius near-neighbour index (Bentley 1975): items
    0..n-1 listed, in row order, in the cells of side `cell` that their boxes
    center +- pad meet. A point less than pad from a center lies in that box,
    so its cell lists the item, and items less than 2 pad apart in any of the
    three norms share a cell; callers widen pads by 1e-12 (1 + max|x|)
    against the rounding of cell bounds. Held in arrays: the sorted distinct
    cell keys, and each cell's items as a slice of one flat array. A key is a
    row of int64 cell coordinates compared whole, as one void item: cells of
    deep layers are about 4e-12 wide, so coordinates reach about 2.5e11 and
    no mixed-radix int64 key fits two of them. NaN, infinite and out-of-range
    points (no box has a coordinate beyond 5e11 cells) match no cell."""

    def __init__(self, cell: float, centers: np.ndarray, pads: np.ndarray):
        self.cell = float(cell)
        self._pack = struct.Struct(f"={max(centers.shape[1], 1)}q").pack
        flat, counts = self._box_cells(centers, pads)
        order = np.argsort(flat, kind="stable")
        # the sorted keys replace the unsorted ones and are dropped before the
        # items are listed, so at most three arrays of all entries are alive
        flat = flat[order]
        first = np.ones(len(flat), dtype=bool)
        first[1:] = flat[1:] != flat[:-1]
        self.keys = flat[first]
        self.starts = np.append(np.flatnonzero(first), len(flat))
        del flat, first
        self.items = np.repeat(np.arange(len(centers)), counts)[order]

    def _box_cells(self, centers: np.ndarray, pads: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The key of every cell that each box center +- pad meets, box by
        box, the last axis fastest (as itertools.product lists them), and
        each box's count. Keys are built column by column in place, with one
        temporary column at a time."""
        lo, spans = (np.floor((centers + s) / self.cell).astype(np.int64) for s in (-pads[:, None], pads[:, None]))
        spans -= lo - 1
        counts = spans.prod(axis=1)
        k = np.arange(counts.sum())
        k -= np.repeat(np.cumsum(counts) - counts, counts)
        keys = np.empty((len(k), centers.shape[1]), dtype=np.int64)
        for j in reversed(range(centers.shape[1])):
            span = np.repeat(spans[:, j], counts)
            np.remainder(k, span, out=keys[:, j])
            k //= span
            del span
            keys[:, j] += np.repeat(lo[:, j], counts)
        return self._as_void(keys), counts

    @staticmethod
    def _as_void(keys: np.ndarray) -> np.ndarray:
        """Each int64 key row as one void item; a 0-d key row as one zero."""
        keys = np.ascontiguousarray(keys if keys.shape[1] else np.zeros((len(keys), 1), dtype=np.int64))
        return keys.view(np.dtype((np.void, keys.itemsize * keys.shape[1]))).ravel()

    def pairs(self) -> tuple[np.ndarray, np.ndarray]:
        """(i, j): every pair of items that share a cell, i listed before j,
        once per cell they share."""
        pos = np.arange(len(self.items))
        later = np.repeat(self.starts[1:], np.diff(self.starts)) - pos - 1
        i = np.repeat(pos, later)
        j = i + 1 + np.arange(len(i)) - np.repeat(np.cumsum(later) - later, later)
        return self.items[i], self.items[j]

    def candidates(self, Z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(rows, items): each row of Z, in order, once per item its cell lists,
        the items in the order added."""
        K = np.floor(Z / self.cell)
        # only rows that cast to int64 exactly can match; NaN and infinite ones are dropped
        rows = (abs(K).max(axis=1, initial=0.0) < 2.0**62).nonzero()[0]
        if not (len(rows) and len(self.keys)):
            return rows[:0], self.items[:0]
        q = self._as_void(K[rows].astype(np.int64))
        cell = np.minimum(self.keys.searchsorted(q), len(self.keys) - 1)
        hit = self.keys[cell] == q
        rows, start = rows[hit], self.starts[cell[hit]]
        counts = self.starts[cell[hit] + 1] - start
        offsets = (start - counts.cumsum() + counts).repeat(counts)
        return rows.repeat(counts), self.items[np.arange(len(offsets)) + offsets]

    @cached
    def _key_bytes(self) -> list[bytes]:
        return self.keys.tolist()

    def point_items(self, z: list[float]) -> np.ndarray:
        """The items the cell of one point lists, candidates' answer for a
        one-row Z, as a slice of items: the cell is found in Python by
        bisection over the keys' bytes (void items sort as their bytes do)."""
        keys = self._key_bytes
        try:
            key = self._pack(*map(math.floor, [x / self.cell for x in z] or [0.0]))
        except (ValueError, OverflowError, struct.error):  # NaN, infinite, beyond int64
            return self.items[:0]
        c = bisect.bisect_left(keys, key)
        if keys[c:c + 1] != [key]:
            return self.items[:0]
        return self.items[self.starts[c]:self.starts[c + 1]]


def _least_float(proves, t: float) -> float:
    """The least float that proves accepts, by ulp steps up and then down
    from the estimate t; proves must accept every float from some point on."""
    while not proves(t):
        t = math.nextafter(t, math.inf)
    while t > 0.0 and proves(down := math.nextafter(t, 0.0)):
        t = down
    return t


def _fraction(x) -> Fraction:
    """A finite float or mpf as the rational it is."""
    if not is_mpf(x):
        return Fraction(x)
    sign, man, exp, _ = x._mpf_
    return Fraction(-man if sign else man) * Fraction(2) ** exp


def _norm_up(v, kind: NormKind) -> float:
    """The least float at least the norm of the vector of Fractions v, proven
    in Fractions, stepping from the rounded value (for the root, from
    math.hypot of the rounded entries)."""
    p = 2 if kind is NormKind.EUCLIDEAN else 1
    q = max(map(abs, v), default=Fraction(0)) if kind is NormKind.SUP else sum(abs(x) ** p for x in v)
    try:
        t = math.hypot(*map(float, v)) if p == 2 else float(q)
    except OverflowError:  # a value beyond the largest float
        return math.inf
    return _least_float(lambda t: t == math.inf or Fraction(t) ** p >= q, t)


def _bounds_2norm(m: np.ndarray, t: float) -> bool:
    """Whether ||A||_2 <= t, i.e. t^2 I - A^T A is PSD, decided by an exact LDL^T
    in Fractions (the entries are floats or Fractions): a negative pivot, or a
    zero pivot with a nonzero row, refutes it. An infinite t bounds every norm
    and a NaN none."""
    if not t < math.inf:
        return t == math.inf
    a = np.array([[Fraction(x) for x in row] for row in m.tolist()], dtype=object)
    g = Fraction(t) ** 2 * np.eye(m.shape[1], dtype=int).astype(object) - a.T @ a
    for k in range(len(g)):
        pivot, row = g[k, k], g[k, k + 1:]
        if pivot < 0 or (pivot == 0 and any(row)):
            return False
        if pivot:
            g[k + 1:, k + 1:] -= np.outer(row, row) / pivot
    return True


def _enumerate_sign_norm(m: np.ndarray, a: np.ndarray, out_kind: NormKind) -> float:
    """max over x in {-1,+1}^d with x_1 = 1 of ||A x||_out (extreme-point
    sweep) for out one or euclidean, with a the exact entries (Fractions) and
    m their float copy, rounded up as _norm_up rounds; inf where the float
    sweep overflows. A float sweep of m in blocks of 4096 sign vectors finds
    the candidates: a value is within gamma_{d+l+2} sum|m_kj| of the exact
    norm of m x (recursive summation; Higham 2002, ch. 3), which is within
    sum|a_kj - m_kj| of that of A x, so every x whose value is within twice
    the sum of both of the float maximum is evaluated exactly, in integers
    over the entries' common power-of-two denominator. Sign vectors that tie
    in float (a diagonal A) each take an exact sum."""
    l, d = m.shape
    if d > MAX_ENUM_DIM:
        raise LipForgeError(
            f"exact operator norm enumeration limited to dimension {MAX_ENUM_DIM}"
        )
    values, count = [], 2 ** (d - 1)
    for start in range(0, count, 4096):
        bits = np.arange(start, min(start + 4096, count))[:, None] >> np.arange(d - 1) & 1
        x = np.hstack([np.ones((len(bits), 1)), 1.0 - 2.0 * bits])
        values.append(norm_batch(_products(x, m), out_kind))
    values = np.concatenate(values)
    top = float(values.max())
    if top == math.inf:
        return math.inf
    exact, rounded, n = a.ravel().tolist(), [Fraction(y) for y in m.ravel().tolist()], d + l + 2
    slack = Fraction(2 * n, 2**53 - n) * sum(map(abs, rounded)) + 2 * sum(abs(x - y) for x, y in zip(exact, rounded))
    low = math.nextafter(float(top - slack), -math.inf)
    scale, p = max(x.denominator for x in exact), 2 if out_kind is NormKind.EUCLIDEAN else 1
    rows = [[int(x * scale) for x in row] for row in a.tolist()]

    def exact_norm(i: int) -> int:
        x = [1] + [1 - 2 * (i >> j & 1) for j in range(d - 1)]
        return sum(abs(sum(a * s for a, s in zip(row, x))) ** p for row in rows)

    q = Fraction(max(map(exact_norm, np.flatnonzero(values >= low).tolist())), scale**p)
    return _least_float(lambda t: t == math.inf or Fraction(t) ** p >= q, top)


def op_norm_matrix(matrix: np.ndarray, in_norm: NormKind, out_norm: NormKind) -> float:
    """The operator norm of a float or mpf matrix between the two norms: the
    least float at least the exact norm of its entries' exact values, from
    the closed forms (one -> any, sup -> sup, euclidean -> sup), the LDL^T
    proof (euclidean -> euclidean) and the sign enumerations (sup ->
    euclidean or one, euclidean -> one). The float copy only finds
    candidates and starting points."""
    m = float_matrix(matrix) if matrix.dtype == object else np.asarray(matrix, dtype=float)
    if not np.all(np.isfinite(m)):
        raise LipForgeError("operator has non-finite entries")
    if m.size == 0:
        return 0.0
    a = np.array([[_fraction(x) for x in row] for row in matrix.tolist()], dtype=object)
    if in_norm is NormKind.ONE:
        # Extreme points of the one-norm ball are +-e_j.
        return max(_norm_up(col, out_norm) for col in a.T)
    if in_norm is NormKind.SUP:
        if out_norm is NormKind.SUP:
            return max(_norm_up(row, NormKind.ONE) for row in a)
        return _enumerate_sign_norm(m, a, out_norm)
    # euclidean domain
    if out_norm is NormKind.EUCLIDEAN:
        return _least_float(lambda t: _bounds_2norm(a, t), float(np.linalg.norm(m, 2)))
    if out_norm is NormKind.SUP:
        return max(_norm_up(row, NormKind.EUCLIDEAN) for row in a)
    # euclidean -> one is the dual pair: ||A||_{2->1} = ||A^T||_{sup->2}
    return _enumerate_sign_norm(m.T, a.T, NormKind.EUCLIDEAN)


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

    @cached
    def op_norm(self) -> float:
        return op_norm_matrix(self.matrix, self.in_norm, self.out_norm)

    @cached
    def float_matrix(self) -> np.ndarray:
        return float_matrix(self.matrix)

    @cached
    def _raw_matrix(self) -> tuple:
        return tuple(raw_vector(row) for row in self.matrix)

    def apply(self, v: np.ndarray) -> np.ndarray:
        if is_exact_vector(v) or self.matrix.dtype == object:
            return mpf_vector(self.apply_raw(raw_vector(v)))
        return _products(np.asarray(v, dtype=float)[None], self.float_matrix)[0]

    @cached
    def _is_identity(self) -> bool:
        """Whether the matrix is exactly the identity (checked once per map,
        so decoded translations take the fast path of apply_raw too)."""
        rows = self._raw_matrix
        return self.out_dim == self.in_dim and all(
            m == (fone if i == j else fzero) for i, row in enumerate(rows) for j, m in enumerate(row)
        )

    def apply_raw(self, v: tuple) -> tuple:
        """Matrix times a raw libmp vector in the working precision; each row
        is accumulated from zero as ``acc += m[i, j] * v[j]``.

        An exact identity returns each coordinate rounded once: ``1 * x``
        rounds x, rounding is idempotent and the other terms are exact zeros,
        so the bits are the loop's. A zero times an infinity or NaN is NaN,
        not zero, so a vector holding one takes the loop."""
        prec, rnd = mp._prec_rounding
        if self._is_identity and all(x[1] or x == fzero for x in v):
            return tuple(mpf_pos(x, prec, rnd) for x in v)
        out = []
        for row in self._raw_matrix:
            acc = fzero
            for m, x in zip(row, v):
                acc = mpf_add(acc, mpf_mul(m, x, prec, rnd), prec, rnd)
            out.append(acc)
        return tuple(out)

    def apply_batch(self, Z: np.ndarray) -> np.ndarray:
        return _products(Z, self.float_matrix)

    def scaled(self, c: Scalar) -> "LinearMap":
        if is_mpf(c) or self.matrix.dtype == object:
            rows = [[exact_mpf(c) * exact_mpf(x) for x in row] for row in self.matrix]
            return LinearMap(as_matrix(rows), self.in_norm, self.out_norm)
        return LinearMap(self.float_matrix * float(c), self.in_norm, self.out_norm)


@dataclass(frozen=True)
class Domain:
    """A closed box or norm ball with nonempty interior and finite bounds.

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
            if not (np.all(np.isfinite(lo)) and np.all(np.isfinite(hi))):
                raise LipForgeError("box corners must be finite")
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
            if not (np.all(np.isfinite(c)) and math.isfinite(self.radius)):
                raise LipForgeError("ball center and radius must be finite")
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

    def dist_to_boundary(self, x: np.ndarray) -> Scalar:
        """Distance from an interior point to the domain boundary: a float
        point's margins row, an exact point's in its own arithmetic.

        Raises if x lies outside the domain.
        """
        if not is_exact_vector(x):
            out = float(self.margins(np.asarray(x, dtype=float)[None])[0])
        elif self.shape == "box":
            out = min(min(exact_mpf(a) - exact_mpf(lo), exact_mpf(hi) - exact_mpf(a))
                      for a, lo, hi in zip(x, self.lo, self.hi, strict=True))
        else:
            w = as_vector([exact_mpf(a) - exact_mpf(c) for a, c in zip(x, self.center, strict=True)])
            out = exact_mpf(self.radius) - norm(w, self.norm)
        if out < 0:
            raise LipForgeError("point outside domain")
        return out

    def margins(self, X: np.ndarray) -> np.ndarray:
        """The float distance of each row of an (n, d) array to the boundary,
        negative outside the domain; a row's margin does not depend on the
        others. Rows of another dimension than the domain's are refused."""
        X = np.asarray(X, dtype=float)
        if X.ndim != 2 or X.shape[1] != self.dim:
            got = f"dimension {X.shape[1]}" if X.ndim == 2 else f"shape {X.shape}"
            raise LipForgeError(f"points of {got} in a domain of dimension {self.dim}")
        if self.shape == "box":
            return np.minimum(X - self.lo, self.hi - X).min(axis=1)
        return self.radius - norm_batch(X - self.center, self.norm)

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
        if per_axis < 1:
            raise LipForgeError(f"grid needs at least one point per axis, got {per_axis}")
        lo, hi = self.bounding_box()
        axes = [np.linspace(lo[i], hi[i], per_axis) for i in range(self.dim)]
        mesh = np.meshgrid(*axes, indexing="ij")
        pts = np.stack([m.ravel() for m in mesh], axis=1)
        if self.shape == "ball":
            keep = norm_batch(pts - self.center, self.norm) <= self.radius + 1e-12
            pts = pts[keep]
        return pts

    def encode(self) -> dict:
        return encode_fields(self, _SHAPES[self.shape], 0, {}, {"shape": self.shape, "norm": self.norm.value})

    @classmethod
    def decode(cls, obj: dict) -> "Domain":
        try:
            kind, shape = NormKind.parse(obj["norm"]), obj["shape"]
            if shape in _SHAPES:
                return cls(shape, kind, **decode_fields(obj, _SHAPES[shape], {}))
        except (KeyError, ValueError, TypeError) as e:
            raise LipForgeError("malformed artifact: bad domain record") from e
        raise LipForgeError(f"malformed artifact: unknown domain shape {quote(obj.get('shape'))}")


# A domain's record after its shape and norm, as Domain.encode writes it.
_SHAPES = {
    "box": (("lo", "lo", FLOAT_VECTOR), ("hi", "hi", FLOAT_VECTOR)),
    "ball": (("center", "center", FLOAT_VECTOR), ("radius", "radius", FLOAT)),
}


_HALTON_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29)

# Most entries of a base's table of low-digit partial sums (_low_digits).
HALTON_TABLE_SIZE = 4096


@lru_cache(maxsize=None)
def _low_digits(base: int) -> tuple[np.ndarray, float]:
    """The table of a base's m lowest digits, for the largest m with
    base^m <= HALTON_TABLE_SIZE: entry j is j's radical inverse accumulated
    over m digits as _halton does (read-only), with the factor f after those
    m steps."""
    m = 1
    while base ** (m + 1) <= HALTON_TABLE_SIZE:
        m += 1
    j, sums, f = np.arange(base**m), np.zeros(base**m), 1.0
    for _ in range(m):
        f /= base
        j, digit = np.divmod(j, base)
        sums += f * digit
    sums.setflags(write=False)
    return sums, f


def _halton(index: np.ndarray, dim: int) -> np.ndarray:
    """The Halton points (van der Corput radical inverses in the first dim
    prime bases) of an int64 index array, one row per index. Each element
    is accumulated digit by digit as ``f /= base; r += f * (i % base)``, the
    lowest digit first. The low digits are read from the base's table of
    partial sums (_low_digits), which made those same steps, and each axis
    then adds its remaining digits, one pass per digit of the largest index,
    into buffers reused by every axis and digit; a digit past an index's
    last one is 0 and adds 0.0, which changes nothing, so an element's bits
    do not depend on the other indices or axes of the batch."""
    if dim > len(_HALTON_BASES):
        raise LipForgeError("low-discrepancy sampler limited to dimension 10")
    out = np.empty((len(index), dim))
    high, digit, r, term = np.empty_like(index), np.empty_like(index), np.empty(len(index)), np.empty(len(index))
    for axis, base in enumerate(_HALTON_BASES[:dim]):
        sums, f = _low_digits(base)
        np.divmod(index, len(sums), out=(high, digit))
        np.take(sums, digit, out=r)
        top = int(high.max(initial=0))
        while top:
            top //= base
            f /= base
            np.divmod(high, base, out=(high, digit))
            r += np.multiply(f, digit, out=term)
        out[:, axis] = r
    return out


def _directions(index: np.ndarray, dim: int, kind: NormKind) -> np.ndarray:
    """One low-discrepancy direction of unit `kind` norm per index.

    Row i is ``2 h - 1`` for the Halton point h at ``index[i] + 7 + 977 a``,
    taking the first attempt a < 64 whose norm exceeds 1e-9, and e_1 if none
    does. It is divided by that norm and shrunk by one part in 2^50, so that
    rounding in the normalization can never push a scaled sample outside a
    closed ball. A row's bits do not depend on the other indices.
    """
    v = 2.0 * _halton(index + 7, dim) - 1.0
    n = norm_batch(v, kind)
    for attempt in range(1, 64):
        retry = np.flatnonzero(n <= 1e-9)
        if not len(retry):
            break
        v[retry] = 2.0 * _halton(index[retry] + (7 + 977 * attempt), dim) - 1.0
        n[retry] = norm_batch(v[retry], kind)
    ok = n > 1e-9
    out = v * ((1.0 - 2.0**-50) / np.where(ok, n, 1.0))[:, None]
    if not ok.all():  # e_1 only where a row needs it: R^0 has none
        out[~ok] = np.eye(dim)[0]
    return out


def unit_directions(count: int, dim: int, seed: int | np.ndarray, kind: NormKind = NormKind.EUCLIDEAN) -> np.ndarray:
    """count deterministic unit directions of the `kind` norm for a seed:
    _directions of the indices base + 13 i, i < count, with base
    (seed & 0x7FFFFFFF) * 131 + 1. An int seed, masked before numpy sees
    it, gives a (count, dim) array; an int array of seeds gives one such set
    per seed, each the int call's bits, drawn in one pass."""
    if isinstance(seed, int):  # a Python int may be negative or past int64
        seed &= 0x7FFFFFFF
    base = (np.asarray(seed, dtype=np.int64) & 0x7FFFFFFF) * 131 + 1
    index = base[..., None] + 13 * np.arange(count, dtype=np.int64)
    return _directions(index.reshape(-1), dim, kind).reshape(*base.shape, count, dim)


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
    # rows: the 2d axis points, the center, then alternating surface and
    # interior points along the low-discrepancy directions
    eye = np.eye(d)
    rows = [row for i in range(d) for row in (eye[i], -eye[i])] + [np.zeros(d)]
    scales = [1.0] * (2 * d) + [0.0]
    extra = budget - 2 * d
    if extra > 1:
        idx = (seed & 0x7FFFFFFF) * 257 + 11 + 31 * np.arange(1, extra, dtype=np.int64)
        rows += list(_directions(idx, d, kind))
        # interior radius from the base-3 stream, volume-flattened; Python's
        # ** per element, as numpy's vectorized power may round differently
        u = _halton(idx, 2)[:, 1].tolist()
        scales += [1.0 if j % 2 else u[j - 1] ** (1.0 / d) for j in range(1, extra)]
    if is_mpf(r) or is_exact_vector(c):
        r_e, c_e = exact_mpf(r), [exact_mpf(x) for x in c]
        pts = []
        for row, scale in zip(rows, scales):
            rr = r_e * exact_mpf(scale)
            pts.append(as_vector([ci + rr * exact_mpf(x) for ci, x in zip(c_e, row)]))
        return pts
    return list(np.asarray(c, dtype=float) + (float(r) * np.array(scales))[:, None] * np.array(rows))
