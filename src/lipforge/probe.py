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

The witness report's dq errors are independent of each other, so on a
host with n >= 2 usable CPUs it deals the witnesses round-robin into n
shares: this process computes the first and n - 1 forked workers the
others (``_in_parallel``). The workers share the tree copy-on-write, read
the exact values shared before the fork and send back their dq values and
the exact values they added, which join ``_SHARED``; each value is
computed by the same code at the same precision, so the report has the
bits and the shared values of the inline loop. Below ``2 * _CHUNK_MIN``
witnesses, on one usable CPU, without the fork start method, in a daemon
process or beside another live thread, the report runs inline. Those
conditions (``_fork_cpus``) and the fork helper (``_in_parallel``) are
shared with ``verify.artifact_suite``.
"""

from __future__ import annotations

import gc
import os
import threading
import weakref
from dataclasses import dataclass
from functools import partial
from itertools import islice

import numpy as np
from mpmath import mp
from mpmath.libmp import fnan, fzero, mpf_add, mpf_div, mpf_gt, mpf_mul, mpf_sub

from .game import GameTranscript, Witness, witnesses
from .lipfun import LipFun, eval_batch
from .numerics import (
    LipForgeError,
    Scalar,
    as_vector,
    exact_mpf,
    exact_raw,
    is_exact_vector,
    is_finite,
    raw_to_float,
    raw_vector,
    to_float,
    working_dps_for_scale,
)
from .space import Domain, LinearMap, NormKind, _norm_raw, _sqrt_raw, _sum_squares_raw, norm_batch, sample_ball

# Below this fraction of the base-point scale, float64 differences lose all
# signal and probes switch to the exact evaluation path.
FLOAT_PROBE_REL = 1e-11

# Dini certificates fire when both one-sided lower quotients are below -DINI_TOL.
DINI_TOL = 1e-6

# A witness ladder's geometric run: LADDER_STEPS scales from half the
# boundary margin down, each LADDER_RATIO times the one before.
LADDER_STEPS = 20
LADDER_RATIO = 0.5


@dataclass(frozen=True)
class ScaleLadder:
    """Strictly decreasing positive finite probe scales."""

    radii: tuple[Scalar, ...]

    def __post_init__(self):
        if not self.radii:
            raise LipForgeError("ladder needs at least one scale")
        prev = None
        for r in self.radii:
            if not r > 0:
                raise LipForgeError("ladder scales must be positive")
            if not is_finite(r):
                raise LipForgeError("ladder scales must be finite")
            if prev is not None and not r < prev:
                raise LipForgeError("ladder scales must be strictly decreasing")
            prev = r

    @classmethod
    def geometric(cls, r0: float, ratio: float = 0.5, count: int = 20) -> "ScaleLadder":
        """Geometric ladder from r0 down `count` steps. Scales below
        FLOAT_PROBE_REL of the probed point's scale are probed exactly."""
        if not (0 < ratio < 1):
            raise LipForgeError("ladder ratio must lie in (0, 1)")
        return cls(tuple(r0 * ratio**i for i in range(count)))


def _point_scale(x) -> float:
    vals = [abs(to_float(v)) for v in x]
    return max(1.0, max(vals) if vals else 0.0)


def _exact_flags(x, scales) -> list[bool]:
    """Whether x is probed exactly at each scale: x is an exact vector, or
    the scale is 0 or below FLOAT_PROBE_REL of x's scale."""
    if is_exact_vector(x):
        return [True] * len(scales)
    limit = FLOAT_PROBE_REL * _point_scale(x)
    return [rf == 0.0 or rf < limit for rf in map(to_float, scales)]


def _use_exact(x, r) -> bool:
    return _exact_flags(x, (r,))[0]


# Exact values of a final mapping that its witness and Dini reports share
# (the per-call probes keep none): f(x + u) keyed by (x, u, prec, rounding).
# Keyed weakly by the tree's root, they live as long as the tree.
_SHARED: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _exact_value(f: LipFun, memo: dict, x_e: tuple, u: tuple | None) -> tuple:
    """f(x + u) at the working precision, u the raw displacement or None for
    f(x); z = x + u is formed and evaluated only when memo lacks the value."""
    prec, rnd = mp._prec_rounding
    key = (x_e, u, prec, rnd)
    fz = memo.get(key)
    if fz is None:
        z = x_e if u is None else tuple(mpf_add(a, b, prec, rnd) for a, b in zip(x_e, u))
        fz = memo[key] = f._eval_exact(z)
    return fz


def dq_error(
    f: LipFun,
    x,
    operator: LinearMap,
    r: Scalar,
    budget: int | None = None,
    seed: int = 0,
    domain: Domain | None = None,
) -> float:
    """Sampled difference-quotient error at scale r (lower estimate). A NaN
    sample makes it NaN, which meets no bound."""
    return _dq_error(f, x, operator, r, budget, seed, domain, {})


def _dq_error(f, x, operator, r, budget, seed, domain, memo) -> float:
    """dq_error with its exact values read from and kept in memo."""
    x = x if isinstance(x, np.ndarray) else as_vector(list(x))
    d = f.in_dim
    if len(x) != d or operator.in_dim != d or operator.out_dim != f.out_dim:
        raise LipForgeError("dimension mismatch in probe")
    if not (r > 0 and is_finite(r)):
        raise LipForgeError("probe scale must be positive and finite")
    if budget is None:
        budget = 2 * d + 1
    if domain is not None and domain.dist_to_boundary(x) < r:
        raise LipForgeError("probe ball escapes the domain")
    if _use_exact(x, r):
        with mp.workdps(working_dps_for_scale(r)):
            prec, rnd = mp._prec_rounding
            x_e = raw_vector(x)
            r_e = exact_mpf(r)
            fx = _exact_value(f, memo, x_e, None)
            # The largest ||resid|| / r is the largest sum of squares (rooted)
            # or norm, divided once: the root and mpf_div are non-decreasing.
            euclidean = operator.out_norm is NormKind.EUCLIDEAN
            best = fzero
            # u = 0 lands on x unless x has more bits than the precision
            at_x = (fzero,) * d if all(bc <= prec for _, _, _, bc in x_e) else None
            for u in sample_ball(np.zeros(d), r_e, budget, seed, operator.in_norm):
                u = raw_vector(u)
                lu = operator.apply_raw(u)
                fz = fx if u == at_x else _exact_value(f, memo, x_e, u)
                # resid = fz - fx - lu
                resid = [mpf_sub(mpf_sub(a, b, prec, rnd), c, prec, rnd) for a, b, c in zip(fz, fx, lu)]
                if fnan in resid:
                    return float("nan")
                size = _sum_squares_raw(resid) if euclidean else _norm_raw(resid, operator.out_norm)
                if mpf_gt(size, best):
                    best = size
            if euclidean:
                best = _sqrt_raw(best, prec, rnd)
            return raw_to_float(mpf_div(best, r_e._mpf_, prec, rnd))
    xf = np.asarray([to_float(v) for v in x], dtype=float)
    rf = to_float(r)
    U = np.asarray(sample_ball(np.zeros(d), rf, budget, seed, operator.in_norm))
    # One batch [x; x + u_1; ...]
    F = eval_batch(f, np.vstack([xf, xf + U]))
    vals = norm_batch(F[1:] - F[0] - operator.apply_batch(U), operator.out_norm) / rf
    # np.max, unlike max, keeps a NaN
    return float(np.max(vals, initial=0.0))


@dataclass(frozen=True)
class DqProfile:
    scales: tuple[Scalar, ...]
    values: tuple[float, ...]
    score: float


def dq_profile(f: LipFun, x, operator: LinearMap, ladder: ScaleLadder,
               domain: Domain | None = None) -> DqProfile:
    """Per-scale dq errors at the default budget, seeded by the scale's
    index; the score is their minimum over the ladder."""
    values = []
    for i, r in enumerate(ladder.radii):
        values.append(dq_error(f, x, operator, r, None, i, domain))
    return DqProfile(tuple(ladder.radii), tuple(values), _least(values))


def _least(values) -> float:
    """The least of values, NaN if any is: min keeps a NaN only when it
    comes first, and a NaN must stop every certificate."""
    return float(np.min(values))


def _direction(f: LipFun, v) -> np.ndarray:
    """v as a float direction in f's domain: f.in_dim finite entries, not
    all zero. A mapping without scalar codomain is refused first."""
    if f.out_dim != 1:
        raise LipForgeError("one-sided derivative probes need scalar codomain")
    v = np.asarray(v, dtype=float)
    if v.shape != (f.in_dim,):
        raise LipForgeError(f"direction has {v.size} entries, the mapping takes {f.in_dim}")
    if not (np.all(np.isfinite(v)) and np.any(v)):
        raise LipForgeError("direction must be finite and nonzero")
    return v


def _forward_quotients(f: LipFun, probes, directions, memo: dict) -> list[list[list[float]]]:
    """Forward difference quotients (f(x + t v) - f(x)) / t for each
    (x, ladder) in probes: out[p][j] lists probe p's along directions[j],
    one per scale. The float64-resolvable scales of all probes go through
    one eval_batch call, whose rows are x, then x + t v for each scale and
    direction; the others are exact at the scale's working precision, with
    one f(x) per scale for all directions, read from and kept in memo."""
    V = np.asarray(directions)
    rows, flags = [], [_exact_flags(x, ladder.radii) for x, ladder in probes]
    for (x, ladder), exact in zip(probes, flags):
        ts = [to_float(t) for t, e in zip(ladder.radii, exact) if not e]
        if ts:
            xf = np.asarray([to_float(c) for c in x], dtype=float)
            rows += [xf[None, :], xf + (np.asarray(ts)[:, None, None] * V).reshape(-1, len(xf))]
    vals = iter(eval_batch(f, np.vstack(rows))[:, 0].tolist() if rows else ())
    out = []
    for (x, ladder), exact in zip(probes, flags):
        x_e, fx, quotients = raw_vector(x), None, [[] for _ in directions]
        for t, e in zip(ladder.radii, exact):
            if not e:
                if fx is None:
                    fx = next(vals)
                for q in quotients:
                    q.append((next(vals) - fx) / to_float(t))
                continue
            with mp.workdps(working_dps_for_scale(t)):
                prec, rnd = mp._prec_rounding
                t_e = exact_raw(t)
                fx_e = _exact_value(f, memo, x_e, None)[0]
                for q, v in zip(quotients, directions):
                    # u = t * v; quotient (f(x + u) - f(x)) / t
                    u = tuple(mpf_mul(t_e, exact_raw(float(c)), prec, rnd) for c in v)
                    fz = _exact_value(f, memo, x_e, u)[0]
                    q.append(raw_to_float(mpf_div(mpf_sub(fz, fx_e, prec, rnd), t_e, prec, rnd)))
        out.append(quotients)
    return out


def dini_values(f: LipFun, x, v, ladder: ScaleLadder) -> list[float]:
    """Forward difference quotients (f(x + t v) - f(x)) / t along the ladder."""
    return _forward_quotients(f, [(x, ladder)], (_direction(f, v),), {})[0][0]


def dini_lower(f: LipFun, x, v, ladder: ScaleLadder) -> float:
    """Ladder surrogate for the lower one-sided derivative along v: the
    minimum forward quotient over the ladder (an upper bound for the true
    liminf at these scales)."""
    return _least(dini_values(f, x, v, ladder))


@dataclass(frozen=True)
class DiniReport:
    """Emptiness certificate for the sub-gradient at the ladder's scales."""

    fires: bool
    forward: tuple[float, ...]
    backward: tuple[float, ...]
    tol: float
    scales: tuple[Scalar, ...]

    @classmethod
    def of(cls, forward, backward, ladder: ScaleLadder) -> "DiniReport":
        """Fires when both one-sided lower quotients are below -DINI_TOL."""
        fires = _least(forward) < -DINI_TOL and _least(backward) < -DINI_TOL
        return cls(fires, tuple(forward), tuple(backward), DINI_TOL, tuple(ladder.radii))


def dini_empty_certificate(f: LipFun, x, v, ladder: ScaleLadder) -> DiniReport:
    """Fires when both one-sided lower quotients along +-v are below
    -DINI_TOL, certifying (at the ladder's resolution) that no sub-gradient
    exists."""
    v = _direction(f, v)
    return DiniReport.of(*_forward_quotients(f, [(x, ladder)], (v, -v), {})[0], ladder)


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


# Forking pays from this many witnesses a share: forking a worker takes
# 0.01-0.025 s, an exact witness of the standard run about 1.5 ms, and the
# tier-1 games (up to 164 witnesses) stay inline.
_CHUNK_MIN = 100


def _fork_cpus() -> int:
    """The CPUs that forked workers may use: those this process may run on,
    or 1, which keeps the caller inline, without the fork start method, in a
    daemon process (which may not have children) or beside another live
    thread (a fork copies only the calling thread)."""
    import multiprocessing

    if ("fork" not in multiprocessing.get_all_start_methods() or multiprocessing.current_process().daemon
            or threading.active_count() > 1):
        return 1
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def _reply(task, conn) -> None:
    """A forked worker: sends back (task(), None), or (None, the error task raised)."""
    try:
        result = task(), None
    except Exception as exc:
        result = None, exc
    conn.send(result)


def _in_parallel(tasks: list) -> list:
    """[task() for task in tasks]: the first task runs in this process and
    each other in a forked daemon worker, which sends back its value or its
    error over a pipe. A worker that dies closes its pipe, so the parent's
    recv raises EOFError. An error in this process terminates the workers,
    and on every exit they are joined: no worker outlives the call. The
    first error in task order is raised."""
    import multiprocessing

    ctx, workers = multiprocessing.get_context("fork"), []
    try:
        # frozen, the inherited heap is not walked (so not copied) by the workers' collector
        gc.freeze()
        try:
            for task in tasks[1:]:
                conn, child = ctx.Pipe()
                proc = ctx.Process(target=_reply, args=(task, child), daemon=True)
                proc.start()
                workers.append((conn, proc))
                child.close()  # so a worker that dies ends its pipe
        finally:
            gc.unfreeze()
        results = [(tasks[0](), None)] + [conn.recv() for conn, _ in workers]
    except BaseException:
        for _, proc in workers:
            proc.terminate()
        raise
    finally:
        for conn, proc in workers:
            proc.join()
            conn.close()
    failed = [i for i, (_, error) in enumerate(results) if error is not None]
    if failed:
        # a worker's error comes unpickled, without a traceback; raised from
        # no local, it and this frame form no cycle
        raise results.pop(failed[0])[1]
    return [value for value, _ in results]


def _share(work, items: list, memo: dict) -> tuple:
    """[work(item, memo) for item in items] up to the first failure, that
    failure or None, and the memo entries the share added (a dict keeps
    insertion order). The failure keeps neither its traceback nor the errors
    chained to it, as a worker's loses them when it is pickled: their frames
    lead back to the caller's, whose locals hold the failure, a cycle that
    would keep the tree alive until the next collection."""
    start, values, error = len(memo), [], None
    try:
        for item in items:
            values.append(work(item, memo))
    except Exception as exc:
        error = exc.with_traceback(None)
        error.__cause__ = error.__context__ = None
    return values, error, dict(islice(memo.items(), start, None))


def witness_bound_report(
    transcript: GameTranscript,
    per_round: int = 1,
    budget: int | None = None,
    seed: int = 0,
) -> list[WitnessProbe]:
    """dq error of the final mapping at every witness, at that witness's
    construction scale, against the bound 4/k. Exact values are shared
    with the Dini report (_SHARED). The witnesses' dq errors are
    independent, so from 2 * _CHUNK_MIN witnesses on, on n >= 2 usable
    CPUs, they are dealt round-robin into n shares of at least _CHUNK_MIN;
    this process computes share 0 and n - 1 forked workers the others
    (_in_parallel). A worker reads the values shared before the fork and
    sends back its dq values and the values it added. The report has the
    bits and shared values of the inline loop, and a failure raises the
    first in witness order, as inline."""
    fun, memo = transcript.final_fun, _SHARED.setdefault(transcript.final_fun, {})
    ws = witnesses(transcript, per_round, seed)
    work = lambda w, memo: _dq_error(fun, w.point(), w.operator, w.alpha, budget, seed, None, memo)
    n = len(ws) // _CHUNK_MIN
    n = min(n, _fork_cpus()) if n > 1 else 1
    if n == 1:
        values = [work(w, memo) for w in ws]
    else:
        parts = _in_parallel([partial(_share, work, ws[i::n], memo) for i in range(n)])
        failed = {i + n * len(part): error for i, (part, error, _) in enumerate(parts) if error}
        if failed:
            # no local keeps the error raised, so its traceback and this frame form no cycle
            parts.clear()
            raise failed.pop(min(failed))
        values = [None] * len(ws)
        for i, (part, _, added) in enumerate(parts):
            values[i::n] = part
            memo.update(added)
    return [WitnessProbe(w, val, 4.0 / w.round_k) for w, val in zip(ws, values)]


def witness_ladder(transcript: GameTranscript, w: Witness) -> ScaleLadder:
    """Probe scales for a witness: LADDER_STEPS geometric scales from half
    the boundary margin down, plus the exact construction scales alpha_j of
    every round whose net contains the witness center (levels are nested, so
    this covers all rounds from the center's first appearance on)."""
    margin = to_float(transcript.domain.dist_to_boundary(w.center))
    scales: list[Scalar] = list(ScaleLadder.geometric(margin / 2.0, LADDER_RATIO, LADDER_STEPS).radii)
    held = transcript.nets.levels_of(w.center)
    for rec in transcript.rounds:
        if rec.net_size and rec.round_k <= transcript.nets.k_max and rec.round_k in held:
            scales.append(rec.alpha)
    uniq: list[Scalar] = []
    for s in sorted(scales, reverse=True):
        if not uniq or s < uniq[-1]:
            uniq.append(s)
    return ScaleLadder(tuple(uniq))


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
) -> list[WitnessDini]:
    """Sub-gradient emptiness certificates at witnesses of rounds >= min_round,
    one per distinct point: a net center's ladder depends only on the center.
    The quotients of all distinct points are computed together, with exact
    values shared with the witness report (_SHARED)."""
    fun = transcript.final_fun
    direction = _direction(fun, direction)
    index, probes, listed = {}, [], []
    for w in witnesses(transcript, per_round, seed):
        if w.round_k < min_round:
            continue
        # a net center is keyed by its bytes, an offset point by its position
        key = w.center.tobytes() if w.offset is None else len(listed)
        if key not in index:
            index[key] = len(probes)
            probes.append((w.point(), witness_ladder(transcript, w)))
        listed.append((w, index[key]))
    quotients = _forward_quotients(fun, probes, (direction, -direction), _SHARED.setdefault(fun, {}))
    reports = [DiniReport.of(fwd, bwd, ladder) for (_, ladder), (fwd, bwd) in zip(probes, quotients)]
    return [WitnessDini(w, reports[i]) for w, i in listed]
