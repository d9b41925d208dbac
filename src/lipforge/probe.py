"""Numerical nonsmoothness probes.

The central quantity is the scaled difference-quotient error

    dq(f, x, L, r) = max over sampled u in the closed r-ball of
                     ||f(x + u) - f(x) - L u|| / r,

a sampled lower estimate of the corresponding supremum. A value near zero
at a ladder of shrinking scales is evidence (never proof) that L behaves
like a derivative of f at x. One-sided Dini quotients and their emptiness
certificate for the sub-gradient come from the same machinery.

Probes pick their working precision from the scale being probed: scales far
below float64 resolution (produced by deep game rounds) are evaluated in
exact arithmetic with enough digits to keep x + u distinguishable from x.
The exact path runs on raw libmp values through the tree's exact evaluator
(``LipFun._eval_exact``), with the libmp call behind each mpf operator, so
its quotients have the bits of the same expressions written with mpf objects.
All reports carry the ladder that produced them; claims are scoped to those
scales.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from mpmath import mp
from mpmath.libmp import fzero, mpf_add, mpf_div, mpf_gt, mpf_mul, mpf_sub

from .game import GameTranscript, Witness, witnesses
from .lipfun import LipFun
from .numerics import (
    LipForgeError,
    Scalar,
    as_vector,
    exact_mpf,
    exact_raw,
    is_exact_vector,
    raw_to_float,
    raw_vector,
    to_float,
    working_dps_for_scale,
)
from .space import Domain, LinearMap, _norm_raw, norm, sample_ball

# Below this fraction of the base-point scale, float64 differences lose all
# signal and probes switch to the exact evaluation path.
FLOAT_PROBE_REL = 1e-11


@dataclass(frozen=True)
class ScaleLadder:
    """Decreasing probe scales with a per-scale sampling budget and seed."""

    radii: tuple[Scalar, ...]
    budget: int | None = None
    seed: int = 0

    def __post_init__(self):
        if not self.radii:
            raise LipForgeError("ladder needs at least one scale")
        prev = None
        for r in self.radii:
            if not r > 0:
                raise LipForgeError("ladder scales must be positive")
            if prev is not None and not r < prev:
                raise LipForgeError("ladder scales must be strictly decreasing")
            prev = r

    @classmethod
    def geometric(cls, r0: float, ratio: float = 0.5, count: int = 20,
                  budget: int | None = None, seed: int = 0,
                  x_scale: float = 1.0) -> "ScaleLadder":
        """Geometric ladder from r0 down `count` steps.

        The smallest scale must stay above 1e3 * float64-epsilon * x_scale,
        the resolution floor of float64 probing; finer scales belong in
        exact-arithmetic ladders built from construction values.
        """
        if not (0 < ratio < 1):
            raise LipForgeError("ladder ratio must lie in (0, 1)")
        radii = tuple(r0 * ratio**i for i in range(count))
        if radii[-1] <= 1e3 * 2.22e-16 * x_scale:
            raise LipForgeError("ladder bottoms out below float64 resolution")
        return cls(radii, budget, seed)


def _point_scale(x) -> float:
    vals = [abs(to_float(v)) for v in x]
    return max(1.0, max(vals) if vals else 0.0)


def _use_exact(x, r) -> bool:
    rf = to_float(r)
    return is_exact_vector(x) or rf == 0.0 or rf < FLOAT_PROBE_REL * _point_scale(x)


def dq_error(
    f: LipFun,
    x,
    operator: LinearMap,
    r: Scalar,
    budget: int | None = None,
    seed: int = 0,
    domain: Domain | None = None,
) -> float:
    """Sampled difference-quotient error at scale r (lower estimate)."""
    x = x if isinstance(x, np.ndarray) else as_vector(list(x))
    d = f.in_dim
    if len(x) != d or operator.in_dim != d or operator.out_dim != f.out_dim:
        raise LipForgeError("dimension mismatch in probe")
    if not r > 0:
        raise LipForgeError("probe scale must be positive")
    if budget is None:
        budget = 2 * d + 1
    if domain is not None and domain.dist_to_boundary(x) < r:
        raise LipForgeError("probe ball escapes the domain")
    if _use_exact(x, r):
        with mp.workdps(working_dps_for_scale(r)):
            prec, rnd = mp._prec_rounding
            x_e = raw_vector(x)
            r_e = exact_mpf(r)
            fx = f._eval_exact(x_e)
            best = fzero
            for u in sample_ball(np.zeros(d), r_e, budget, seed, operator.in_norm):
                u = raw_vector(u)
                lu = operator.apply_raw(u)
                fz = f._eval_exact(tuple(mpf_add(a, b, prec, rnd) for a, b in zip(x_e, u)))
                # resid = fz - fx - lu; val = ||resid|| / r
                resid = [mpf_sub(mpf_sub(a, b, prec, rnd), c, prec, rnd) for a, b, c in zip(fz, fx, lu)]
                val = mpf_div(_norm_raw(resid, operator.out_norm), r_e._mpf_, prec, rnd)
                if mpf_gt(val, best):
                    best = val
            return raw_to_float(best)
    xf = np.asarray([to_float(v) for v in x], dtype=float)
    rf = to_float(r)
    fx = f._eval(xf)
    best = 0.0
    for u in sample_ball(np.zeros(d), rf, budget, seed, operator.in_norm):
        fz = f._eval(xf + u)
        resid = fz - fx - operator.float_matrix @ u
        best = max(best, float(norm(resid, operator.out_norm)) / rf)
    return best


@dataclass(frozen=True)
class DqProfile:
    scales: tuple[Scalar, ...]
    values: tuple[float, ...]
    score: float


def dq_profile(f: LipFun, x, operator: LinearMap, ladder: ScaleLadder,
               domain: Domain | None = None) -> DqProfile:
    """Per-scale dq errors; the score is their minimum over the ladder."""
    values = []
    for i, r in enumerate(ladder.radii):
        values.append(dq_error(f, x, operator, r, ladder.budget, ladder.seed + i, domain))
    return DqProfile(tuple(ladder.radii), tuple(values), min(values))


def _forward_quotient(f: LipFun, x, v: np.ndarray, t: Scalar) -> float:
    if _use_exact(x, t):
        with mp.workdps(working_dps_for_scale(t)):
            prec, rnd = mp._prec_rounding
            x_e = raw_vector(x)
            t_e = exact_raw(t)
            # z = x + t * v; quotient (f(z) - f(x)) / t
            z = tuple(mpf_add(a, mpf_mul(t_e, exact_raw(float(c)), prec, rnd), prec, rnd) for a, c in zip(x_e, v))
            num = mpf_sub(f._eval_exact(z)[0], f._eval_exact(x_e)[0], prec, rnd)
            return raw_to_float(mpf_div(num, t_e, prec, rnd))
    xf = np.asarray([to_float(c) for c in x], dtype=float)
    tf = to_float(t)
    z = xf + tf * np.asarray(v, dtype=float)
    return float((f._eval(z)[0] - f._eval(xf)[0]) / tf)


def dini_values(f: LipFun, x, v, ladder: ScaleLadder) -> list[float]:
    """Forward difference quotients (f(x + t v) - f(x)) / t along the ladder.

    Scales resolvable in float64 are evaluated in one vectorized pass; the
    rest go through the exact path at scale-adapted precision.
    """
    if f.out_dim != 1:
        raise LipForgeError("one-sided derivative probes need scalar codomain")
    v = np.asarray(v, dtype=float)
    out: list[float | None] = [None] * len(ladder.radii)
    float_idx = [i for i, t in enumerate(ladder.radii) if not _use_exact(x, t)]
    if float_idx:
        from .lipfun import eval_batch

        xf = np.asarray([to_float(c) for c in x], dtype=float)
        ts = np.asarray([to_float(ladder.radii[i]) for i in float_idx])
        Z = xf[None, :] + ts[:, None] * v[None, :]
        fx = float(f._eval(xf)[0])
        vals = eval_batch(f, Z)[:, 0]
        for j, i in enumerate(float_idx):
            out[i] = float((vals[j] - fx) / ts[j])
    for i, t in enumerate(ladder.radii):
        if out[i] is None:
            out[i] = _forward_quotient(f, x, v, t)
    return out


def dini_lower(f: LipFun, x, v, ladder: ScaleLadder) -> float:
    """Ladder surrogate for the lower one-sided derivative along v: the
    minimum forward quotient over the ladder (an upper bound for the true
    liminf at these scales)."""
    return min(dini_values(f, x, v, ladder))


@dataclass(frozen=True)
class DiniReport:
    """Emptiness certificate for the sub-gradient at the ladder's scales."""

    fires: bool
    forward: tuple[float, ...]
    backward: tuple[float, ...]
    tol: float
    scales: tuple[Scalar, ...]


def dini_empty_certificate(f: LipFun, x, v, ladder: ScaleLadder, tol: float = 1e-6) -> DiniReport:
    """Fires when both one-sided lower quotients along +-v are below -tol,
    certifying (at the ladder's resolution) that no sub-gradient exists."""
    v = np.asarray(v, dtype=float)
    fwd = dini_values(f, x, v, ladder)
    bwd = dini_values(f, x, -v, ladder)
    fires = min(fwd) < -tol and min(bwd) < -tol
    return DiniReport(fires, tuple(fwd), tuple(bwd), tol, tuple(ladder.radii))


def best_local_linear(
    f: LipFun,
    x,
    q: Scalar,
    candidates,
    budget: int | None = None,
    seed: int = 0,
) -> tuple[LinearMap, float]:
    """Candidate operator minimizing the dq error at scale q (ties: first)."""
    cands = list(candidates)
    if not cands:
        raise LipForgeError("no candidate operators")
    best_idx = 0
    best_err = None
    for i, L in enumerate(cands):
        err = dq_error(f, x, L, q, budget, seed)
        if best_err is None or err < best_err:
            best_idx, best_err = i, err
    return cands[best_idx], best_err


# ---------------------------------------------------------------------------
# Transcript-level reports


@dataclass(frozen=True)
class WitnessProbe:
    witness: Witness
    value: float
    bound: float

    @property
    def ok(self) -> bool:
        return self.value <= self.bound + 1e-9


def witness_bound_report(
    transcript: GameTranscript,
    per_round: int = 1,
    budget: int | None = None,
    seed: int = 0,
) -> list[WitnessProbe]:
    """dq error of the final mapping at every witness, at that witness's
    construction scale, against the bound 4/k."""
    fun = transcript.final_fun
    out = []
    for w in witnesses(transcript, per_round, seed):
        with mp.workdps(working_dps_for_scale(w.s)):
            x = w.point()
        val = dq_error(fun, x, w.operator, w.alpha, budget, seed)
        out.append(WitnessProbe(w, val, 4.0 / w.round_k))
    return out


def witness_ladder(transcript: GameTranscript, w: Witness, coarse_steps: int = 20,
                   ratio: float = 0.5) -> ScaleLadder:
    """Probe scales for a witness: a geometric ladder from half the boundary
    margin down, plus the exact construction scales alpha_j of every round
    whose net contains the witness center (levels are nested, so this covers
    all rounds from the center's first appearance on)."""
    scales: list[Scalar] = []
    margin = to_float(transcript.domain.dist_to_boundary(w.center))
    r0 = margin / 2.0
    for i in range(coarse_steps):
        scales.append(r0 * ratio**i)
    key = tuple(float(c) for c in w.center)
    for rec in transcript.rounds:
        if rec.net_size == 0 or rec.round_k > transcript.nets.k_max:
            continue
        level = transcript.nets.level(rec.round_k)
        if any(tuple(float(c) for c in p) == key for p in level):
            scales.append(rec.alpha)
    uniq: list[Scalar] = []
    for s in sorted(scales, reverse=True):
        if not uniq or s < uniq[-1]:
            uniq.append(s)
    return ScaleLadder(tuple(uniq), budget=None, seed=0)


@dataclass(frozen=True)
class WitnessDini:
    witness: Witness
    report: DiniReport


def witness_dini_report(
    transcript: GameTranscript,
    direction,
    min_round: int = 1,
    per_round: int = 1,
    seed: int = 0,
    tol: float = 1e-6,
    coarse_steps: int = 20,
    ratio: float = 0.5,
) -> list[WitnessDini]:
    """Sub-gradient emptiness certificates at witnesses of rounds >= min_round."""
    fun = transcript.final_fun
    if fun.out_dim != 1:
        raise LipForgeError("one-sided derivative probes need scalar codomain")
    out = []
    for w in witnesses(transcript, per_round, seed):
        if w.round_k < min_round:
            continue
        ladder = witness_ladder(transcript, w, coarse_steps, ratio)
        with mp.workdps(working_dps_for_scale(w.s)):
            x = w.point()
        out.append(WitnessDini(w, dini_empty_certificate(fun, x, direction, ladder, tol)))
    return out
