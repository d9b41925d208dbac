"""Nested, uniformly separated point families inside a domain.

Level k keeps only target points whose boundary distance is at least 2^-k
and extends the previous level to a maximal 2^-k-separated subset (greedy,
input order). Maximality is relative to the finite representation of the
target set; the union over levels is dense in it at resolution 2^-k_max.
The greedy walk and `separation` find near points in a space.CellTable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .numerics import LipForgeError, cached
from .space import CellTable, Domain, NormKind, _halton, norm_batch


@dataclass(frozen=True)
class TargetSet:
    """Finite representation of the point set the nets must approximate."""

    points: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim != 2:
            raise LipForgeError("target set needs an (n, d) point array")
        object.__setattr__(self, "points", pts)

    @classmethod
    def from_points(cls, points) -> "TargetSet":
        return cls(np.asarray(points, dtype=float))

    @classmethod
    def grid(cls, lo, hi, step: float) -> "TargetSet":
        """Axis-aligned grid strictly inside the open box (lo, hi)."""
        lo = np.asarray(lo, dtype=float)
        hi = np.asarray(hi, dtype=float)
        if not 0 < step < math.inf:
            raise LipForgeError("grid step must be positive and finite")
        axes = []
        for i in range(len(lo)):
            vals = []
            k = 1
            while lo[i] + k * step < hi[i] - 1e-12:
                vals.append(lo[i] + k * step)
                k += 1
            if not vals:
                return cls(np.empty((0, len(lo))))
            axes.append(np.asarray(vals))
        mesh = np.meshgrid(*axes, indexing="ij")
        return cls(np.stack([m.ravel() for m in mesh], axis=1))

    @classmethod
    def low_discrepancy(cls, domain: Domain, count: int, seed: int = 0) -> "TargetSet":
        """Halton sample of the domain interior: the first `count` points of
        the bounding box, from index (seed mod 2^31) * 389 + 1 up to the
        index 10^7, that lie strictly inside the domain."""
        if count < 1:
            raise LipForgeError(f"need at least one target point (got count {count})")
        lo, hi = domain.bounding_box()
        pts = []
        idx = (seed & 0x7FFFFFFF) * 389 + 1
        while len(pts) < count and idx < 10_000_000:
            # candidates come in blocks; a point's bits do not depend on its block
            block = np.arange(idx, min(idx + 4096, 10_000_000), dtype=np.int64)
            idx += len(block)
            cands = lo + (hi - lo) * _halton(block, domain.dim)
            pts.extend(cands[domain.margins(cands) > 0][: count - len(pts)])
        return cls(np.asarray(pts) if pts else np.empty((0, domain.dim)))

    def __len__(self) -> int:
        return len(self.points)


def separation(points: np.ndarray, kind: NormKind = NormKind.EUCLIDEAN) -> float:
    """Minimum pairwise distance; +inf for fewer than two points. The distance
    best from the first point to the rest bounds it: the points are boxes
    x +- best in one CellTable, and each is compared with the earlier points
    its own cell lists, so memory stays linear in the points."""
    pts = np.asarray(points, dtype=float)
    if len(pts) < 2:
        return math.inf
    best = float(np.min(norm_batch(pts[1:] - pts[0], kind)))
    if not best > 0:
        return best
    pad = best + 1e-12 * (1.0 + float(np.max(np.abs(pts))))
    table = CellTable(2 * pad, pts, np.full(len(pts), pad))
    for i, p in enumerate(pts):
        near = table.point_items(p.tolist())
        near = near[:near.searchsorted(i)]
        if len(near):
            best = min(best, float(norm_batch(pts[near] - p, kind).min()))
    return best


def restrict(target: TargetSet, domain: Domain, k: int) -> np.ndarray:
    """Target points with boundary distance at least 2^-k (may be empty)."""
    if k < 1:
        raise LipForgeError("level index must be >= 1")
    margins = domain.margins(target.points)
    if np.any(margins < 0):
        raise LipForgeError("target point outside the domain")
    return target.points[margins >= 2.0 ** -k]


def greedy_net(points: np.ndarray, delta: float, seed_set: np.ndarray | None = None,
               kind: NormKind = NormKind.EUCLIDEAN) -> np.ndarray:
    """Maximal delta-separated subset containing seed_set (greedy, input order).

    The seed set must itself be delta-separated; the result is maximal with
    respect to the input list: no remaining input point can be added. The
    seeds, then the points, are boxes x +- delta in one CellTable, so a point
    closer than delta to x is listed in x's own cell. Each point kept is
    compared with the later points still free there, which it rules out.
    """
    pts = np.asarray(points, dtype=float)
    seeds = np.asarray(seed_set if seed_set is not None else (), dtype=float)
    walk = np.concatenate([a for a in (seeds, pts) if len(a)] or [pts])
    pad = delta + 1e-12 * (1.0 + float(np.max(np.abs(walk), initial=0.0)))
    table = CellTable(2 * pad, walk, np.full(len(walk), pad))
    free = np.ones(len(walk), dtype=bool)
    for i, p in enumerate(walk):
        if not free[i]:
            if i < len(seeds):
                raise LipForgeError("seed set violates separation")
            continue
        near = table.point_items(p.tolist())
        near = near[near.searchsorted(i, side="right"):]
        near = near[free[near]]
        free[near[norm_batch(p - walk[near], kind) < delta]] = False
    return walk[free]


@dataclass(frozen=True)
class NetFamily:
    """Nested levels; level k is 2^-k-separated."""

    levels: tuple[np.ndarray, ...]

    @property
    def deltas(self) -> tuple[float, ...]:
        return tuple(2.0 ** -k for k in range(1, len(self.levels) + 1))

    def level(self, k: int) -> np.ndarray:
        return self.levels[k - 1]

    @property
    def k_max(self) -> int:
        return len(self.levels)

    @cached
    def _holding(self) -> dict[tuple, list[int]]:
        held: dict[tuple, list[int]] = {}
        for k, lvl in enumerate(self.levels, start=1):
            for p in lvl.tolist():
                held.setdefault(tuple(p), []).append(k)
        return held

    def levels_of(self, point) -> list[int]:
        """The levels k whose net holds the point, its coordinates compared
        as floats; every level's membership is listed once per family."""
        return self._holding.get(tuple(float(c) for c in point), [])

    def validate(self, domain: Domain, target: TargetSet | None = None) -> None:
        """Assert the nesting/separation/margin/exact membership invariants."""
        targets = None if target is None else set(map(tuple, target.points.tolist()))
        prev: set = set()
        for k, lvl in enumerate(self.levels, start=1):
            delta = self.deltas[k - 1]
            if separation(lvl, domain.norm) < delta:
                raise LipForgeError(f"level {k} violates {delta}-separation")
            margins = domain.margins(lvl) if len(lvl) else np.empty(0)
            short = margins[margins < delta]
            if len(short):
                raise LipForgeError("point outside domain" if short[0] < 0 else f"level {k} violates the boundary margin")
            rows = set(map(tuple, lvl.tolist()))
            if not rows >= prev:
                raise LipForgeError(f"level {k} does not contain level {k - 1}")
            if targets is not None and not rows <= targets:
                raise LipForgeError(f"level {k} contains a point outside the target set")
            prev = rows

    def to_csv(self) -> str:
        if not self.levels:
            return "k\n"
        d = 0
        for lvl in self.levels:
            if len(lvl):
                d = lvl.shape[1]
                break
        header = "k," + ",".join(f"x{i + 1}" for i in range(d))
        lines = [header]
        for k, lvl in enumerate(self.levels, start=1):
            for p in lvl:
                lines.append(f"{k}," + ",".join(repr(float(v)) for v in p))
        return "\n".join(lines) + "\n"


def nested_nets(target: TargetSet, domain: Domain, k_max: int) -> NetFamily:
    """Build levels 1..k_max of nested maximal 2^-k-separated subsets."""
    if k_max < 1:
        raise LipForgeError("k_max must be >= 1")
    levels: list[np.ndarray] = []
    prev: np.ndarray | None = None
    for k in range(1, k_max + 1):
        admissible = restrict(target, domain, k)
        lvl = greedy_net(admissible, 2.0 ** -k, seed_set=prev, kind=domain.norm)
        levels.append(lvl)
        prev = lvl if len(lvl) else prev
    return NetFamily(tuple(levels))
