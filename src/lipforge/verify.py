"""Re-runnable invariant suites behind the `verify` subcommand.

Each suite returns CheckResult records; a suite passes when every record
does. The stock self-test exercises the blend properties, certified
Lipschitz bounds, net invariants and the exact-linearity of the
perturbation on canned deterministic cases. Artifact and transcript suites
check stored files: serialization round-trips, certified bounds, reply-ball
nesting and the per-round witness bound of the final mapping.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from mpmath import mp
from mpmath.libmp import from_int, mpf_add, mpf_le, mpf_lt, mpf_mul

from .lipfun import (
    LipFun,
    NormOf,
    Linear,
    Patched,
    Scale,
    Sum,
    deserialize,
    eval_batch,
    eval_point,
    identity,
    radial_blend,
    serialize,
    _check_patch_continuity,
    _collector_paused,
    sup_dist,
    zero_map,
)
from .nets import TargetSet, greedy_net, nested_nets, restrict
from .numerics import LipForgeError, exact_mpf, exact_raw, to_float, working_dps_for_scale
from .game import GameTranscript
from .perturb import linearize_near
from .probe import witness_bound_report
from .space import Domain, LinearMap, NormKind, norm_batch, sample_ball


@dataclass(frozen=True)
class CheckResult:
    name: str
    ok: bool
    detail: str = ""


def _sample_pairs(rng: np.random.Generator, d: int, count: int, span: float) -> tuple[np.ndarray, np.ndarray]:
    a = rng.uniform(-span, span, size=(count, d))
    b = rng.uniform(-span, span, size=(count, d))
    return a, b


def _quotient_check(f: LipFun, rng: np.random.Generator, pairs: int, span: float) -> float:
    """Worst sampled Lipschitz quotient relative to the certified bound."""
    X, Y = _sample_pairs(rng, f.in_dim, pairs, span)
    gap = norm_batch(X - Y, NormKind.EUCLIDEAN)
    keep = gap > 1e-12
    X, Y, gap = X[keep], Y[keep], gap[keep]
    diff = norm_batch(eval_batch(f, X) - eval_batch(f, Y), NormKind.EUCLIDEAN)
    return float(np.max(diff / gap)) if len(gap) else 0.0


def _random_origin_fun(rng: np.random.Generator, d: int, out_dim: int, lip: float) -> LipFun:
    """Random mapping vanishing at the origin with certified constant lip."""
    kind = rng.integers(0, 3)
    if kind == 0 or lip == 0.0:
        if lip == 0.0:
            return zero_map(d, out_dim)
        raw = Linear(LinearMap(rng.uniform(-1, 1, size=(out_dim, d))))
    elif kind == 1 and out_dim == 1:
        raw = NormOf(d, sign=int(rng.choice((-1, 1))))
    else:
        raw = Sum(
            Linear(LinearMap(rng.uniform(-1, 1, size=(out_dim, d)))),
            Linear(LinearMap(rng.uniform(-1, 1, size=(out_dim, d)))),
        )
    cert = raw.lip_cert
    if cert == 0.0:
        return zero_map(d, out_dim)
    return Scale(lip / cert, raw)


def blend_suite(seed: int = 0, configs: int = 20, samples: int = 1000, pairs: int = 10_000) -> list[CheckResult]:
    """Randomized checks of the radial blend's five contracted properties."""
    rng = np.random.default_rng(seed)
    results = []
    for i in range(configs):
        d = int(rng.integers(1, 4))
        out_dim = d if rng.integers(0, 2) else 1
        a = float(rng.uniform(0.2, 1.0))
        b = a + float(rng.uniform(0.2, 1.0))
        lip1 = float(rng.uniform(0.0, 0.6))
        lip2 = float(rng.uniform(0.1, 0.6))
        mode = i % 3
        if mode == 1:
            lip1 = 0.0
        if mode == 2:
            lip2 = 0.0
        f1 = _random_origin_fun(rng, d, out_dim, lip1)
        f2 = _random_origin_fun(rng, d, out_dim, lip2)
        phi = radial_blend(a, b, f1, f2)
        cert = phi.lip_cert

        dirs = rng.normal(size=(samples, d))
        dirs /= np.maximum(norm_batch(dirs, NormKind.EUCLIDEAN), 1e-12)[:, None]
        radii_in = rng.uniform(0.0, a, size=samples)
        radii_out = rng.uniform(b, 2.0 * b, size=samples)
        Z_in = dirs * radii_in[:, None]
        Z_out = dirs * radii_out[:, None]

        err_in = float(np.max(norm_batch(eval_batch(phi, Z_in) - eval_batch(f1, Z_in), NormKind.EUCLIDEAN)))
        results.append(CheckResult(f"blend[{i}] inner agreement", err_in <= 1e-12, f"err={err_in:.3e}"))
        err_out = float(np.max(norm_batch(eval_batch(phi, Z_out) - eval_batch(f2, Z_out), NormKind.EUCLIDEAN)))
        results.append(CheckResult(f"blend[{i}] outer agreement", err_out <= 1e-12, f"err={err_out:.3e}"))

        worst = _quotient_check(phi, rng, pairs, 1.5 * b)
        results.append(
            CheckResult(f"blend[{i}] quotient <= certificate", worst <= cert + 1e-9, f"worst={worst:.6f} cert={cert:.6f}")
        )

        Z_all = np.concatenate([Z_in, dirs * rng.uniform(a, b, size=samples)[:, None], Z_out])
        if mode == 1:
            gap = float(np.max(norm_batch(eval_batch(phi, Z_all) - eval_batch(f2, Z_all), NormKind.EUCLIDEAN)))
            ok = gap <= a * f2.lip_cert + 1e-9
            results.append(CheckResult(f"blend[{i}] zero-inside deviation", ok, f"gap={gap:.3e} bound={a * f2.lip_cert:.3e}"))
        if mode == 2:
            mag = float(np.max(norm_batch(eval_batch(phi, Z_all), NormKind.EUCLIDEAN)))
            ok = mag <= b * f1.lip_cert + 1e-9
            results.append(CheckResult(f"blend[{i}] zero-outside magnitude", ok, f"mag={mag:.3e} bound={b * f1.lip_cert:.3e}"))
    return results


def lipschitz_suite(seed: int = 0, pairs: int = 10_000) -> list[CheckResult]:
    """Sampled quotients stay below certified bounds on assorted trees."""
    rng = np.random.default_rng(seed + 1)
    funs = {
        "norm": NormOf(2),
        "blend": radial_blend(0.5, 1.5, Scale(0.5, identity(2)), Scale(0.4, identity(2))),
        "sum": Sum(Scale(0.3, identity(3)), Linear(LinearMap(rng.uniform(-0.4, 0.4, size=(3, 3))))),
    }
    out = []
    for name, f in funs.items():
        worst = _quotient_check(f, rng, pairs, 2.0)
        out.append(CheckResult(f"lipschitz[{name}]", worst <= f.lip_cert + 1e-9, f"worst={worst:.6f} cert={f.lip_cert:.6f}"))
    return out


def net_suite(step: float = 0.05, k_max: int = 6) -> list[CheckResult]:
    """Net family invariants plus brute-force greedy maximality."""
    domain = Domain.box([0.0, 0.0], [1.0, 1.0])
    target = TargetSet.grid([0.0, 0.0], [1.0, 1.0], step)
    family = nested_nets(target, domain, k_max)
    out = []
    try:
        family.validate(domain, target)
        out.append(CheckResult("net invariants", True))
    except LipForgeError as e:
        out.append(CheckResult("net invariants", False, str(e)))
    for k in range(1, k_max + 1):
        lvl = family.level(k)
        admissible = restrict(target, domain, k)
        addable = 0
        for p in admissible:
            if len(lvl) == 0 or float(np.min(norm_batch(lvl - p, domain.norm))) >= family.deltas[k - 1]:
                addable += 1
        out.append(CheckResult(f"net level {k} maximal", addable == 0, f"addable={addable}"))
        again = greedy_net(lvl, family.deltas[k - 1], seed_set=None, kind=domain.norm)
        out.append(CheckResult(f"net level {k} idempotent", len(again) == len(lvl)))
    return out


def perturb_suite(seed: int = 0) -> list[CheckResult]:
    """Exact linearization residual, distance and Lipschitz contracts on a
    small deterministic instance."""
    rng = np.random.default_rng(seed + 2)
    domain = Domain.box([0.0, 0.0], [1.0, 1.0])
    f = Scale(0.8, NormOf(2))
    gamma = np.array([[0.3, 0.3], [0.7, 0.6]])
    L = LinearMap(np.array([[0.3, 0.1]]))
    r = 0.4
    res = linearize_near(f, gamma, L, r, domain)
    g, alpha = res.fun, res.alpha
    out = []
    worst = 0.0
    with mp.workdps(working_dps_for_scale(alpha)):
        for x in gamma:
            x_e = np.array([exact_mpf(v) for v in x], dtype=object)
            gx = eval_point(g, x_e)
            for u in sample_ball(np.zeros(2), exact_mpf(alpha), 40, seed):
                z = np.array([x_e[i] + u[i] for i in range(2)], dtype=object)
                gz = eval_point(g, z)
                lu = L.apply(u)
                resid = to_float(abs(gz[0] - gx[0] - lu[0]))
                worst = max(worst, resid / (1.0 + to_float(abs(gx[0]))))
    out.append(CheckResult("perturb exact linearity", worst <= 1e-9, f"residual={worst:.3e}"))
    rho = sup_dist(g, f, domain, budget=512, seed=seed)
    out.append(CheckResult("perturb stays in budget", rho < r, f"sampled={rho:.6f} r={r}"))
    worst_q = _quotient_check(g, rng, 10_000, 1.0)
    out.append(CheckResult("perturb certified 1-Lipschitz", worst_q <= 1.0 + 1e-9, f"worst={worst_q:.9f}"))
    return out


@_collector_paused()
def artifact_suite(fun: LipFun, seed: int = 0) -> list[CheckResult]:
    """Serialization round-trip, certified-bound and patch-continuity checks
    for a stored tree, run with the cyclic collector paused. Continuity is
    checked once per distinct Patched node, however often the tree reaches it."""
    rng = np.random.default_rng(seed + 3)
    out = []
    clone = deserialize(serialize(fun))
    Z = rng.uniform(0.05, 0.95, size=(1000, fun.in_dim))
    gap = float(np.max(np.abs(eval_batch(fun, Z) - eval_batch(clone, Z))))
    del clone
    out.append(CheckResult("artifact round-trip", gap == 0.0, f"gap={gap:.3e}"))
    worst = _quotient_check(fun, rng, 10_000, 1.0)
    out.append(
        CheckResult(
            "artifact quotient <= certificate",
            worst <= fun.lip_cert + 1e-9,
            f"worst={worst:.9f} cert={fun.lip_cert:.9f}",
        )
    )
    # each distinct node once, keyed by id, in the pre-order of a recursive walk
    checked, failure, seen, stack = 0, "", set(), [fun]
    while stack and not failure:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        if isinstance(node, Patched):
            checked += 1
            try:
                _check_patch_continuity(node)
            except LipForgeError as e:
                failure = str(e)
        stack.extend(reversed(node.children()))
    out.append(
        CheckResult(
            "artifact patch continuity",
            not failure,
            failure or f"patched layers checked: {checked}",
        )
    )
    return out


def transcript_suite(transcript: GameTranscript, per_round: int = 1, budget: int | None = None) -> list[CheckResult]:
    """Reply-radius bounds, ball nesting and the 4/k witness bound. The
    radius and nesting inequalities are decided exactly, in libmp
    arithmetic without a precision, from the stored record: a reply ball's
    nesting from the analytic rho_bound, a move's from the stored move
    (Move.nested)."""
    out = []
    prev = None
    for rec in transcript.rounds:
        k = rec.round_k
        s = exact_raw(rec.s)
        ok = rec.s > 0 and mpf_lt(mpf_mul(s, from_int(k)), exact_raw(rec.alpha))
        out.append(CheckResult(f"round {k} reply radius below alpha/k", bool(ok)))
        ok2 = mpf_le(mpf_add(exact_raw(rec.rho_bound), s), exact_raw(rec.r_accepted))
        out.append(CheckResult(f"round {k} reply ball nested", bool(ok2)))
        if prev is not None:
            ok3 = rec.move.nested(rec.r_accepted, prev.s, transcript.out_norm)
            out.append(CheckResult(f"round {k} move nested in round {k - 1}", ok3))
        prev = rec
    probes = witness_bound_report(transcript, per_round=per_round, budget=budget)
    bad = [p for p in probes if not p.ok]
    worst = max((p.value * p.witness.round_k / 4.0 for p in probes), default=0.0)
    out.append(
        CheckResult(
            "witness bound 4/k",
            not bad,
            f"witnesses={len(probes)} violations={len(bad)} worst_ratio={worst:.6f}",
        )
    )
    return out


def stock_selftest(seed: int = 0) -> list[CheckResult]:
    """The suites `lipforge verify` runs when given no artifact, at their
    default sizes."""
    return blend_suite(seed) + lipschitz_suite(seed) + net_suite() + perturb_suite(seed)
