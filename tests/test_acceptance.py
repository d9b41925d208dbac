"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

The headline items are constructive identities and explicit bounds: the
blend's agreement/deviation properties, the exact local linearity of the
perturbation, the closed-form parameter values, the 4/k witness bound of the
8-round standard run, sub-gradient emptiness certificates at deep witnesses,
net invariants with brute-force maximality, nesting/determinism of the
transcript, and the probe sanity oracles.
"""

import json
import math
import time

import numpy as np
from mpmath import mp

from lipforge import (
    AddConst,
    Domain,
    Linear,
    LinearMap,
    NormKind,
    NormOf,
    Scale,
    Sum,
    TargetSet,
    best_local_linear,
    blend_params,
    dq_error,
    eval_batch,
    greedy_net,
    linearize_near,
    nested_nets,
    radial_blend,
    restrict,
    sup_dist,
    witness_bound_report,
    witness_dini_report,
    zero_map,
)
from lipforge.numerics import exact_mpf, to_float
from lipforge.space import norm_batch, sample_ball


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}")


def _random_origin_fun(rng, d, out_dim, lip):
    kind = int(rng.integers(0, 3))
    if lip == 0.0:
        return zero_map(d, out_dim)
    if kind == 0:
        raw = Linear(LinearMap(rng.uniform(-1, 1, size=(out_dim, d))))
    elif kind == 1 and out_dim == 1:
        raw = NormOf(d, sign=int(rng.choice((-1, 1))))
    else:
        raw = Sum(
            Linear(LinearMap(rng.uniform(-1, 1, size=(out_dim, d)))),
            Linear(LinearMap(rng.uniform(-1, 1, size=(out_dim, d)))),
        )
    cert = raw.lip_cert
    return Scale(lip / cert, raw) if cert > 0 else zero_map(d, out_dim)


def test_criterion_1_blend_suite():
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    failures = []
    for i in range(20):
        d = int(rng.integers(1, 4))
        out_dim = d if int(rng.integers(0, 2)) else 1
        a = float(rng.uniform(0.2, 1.0))
        b = a + float(rng.uniform(0.2, 1.0))
        lip1 = float(rng.uniform(0.05, 0.6))
        lip2 = float(rng.uniform(0.05, 0.6))
        mode = i % 3
        if mode == 1:
            lip1 = 0.0
        if mode == 2:
            lip2 = 0.0
        f1 = _random_origin_fun(rng, d, out_dim, lip1)
        f2 = _random_origin_fun(rng, d, out_dim, lip2)
        phi = radial_blend(a, b, f1, f2)
        cert = phi.lip_cert

        dirs = rng.normal(size=(1000, d))
        dirs /= np.maximum(norm_batch(dirs, NormKind.EUCLIDEAN), 1e-12)[:, None]
        Z_in = dirs * rng.uniform(0.0, a, size=1000)[:, None]
        Z_out = dirs * rng.uniform(b, 2 * b, size=1000)[:, None]
        err_in = float(np.max(np.abs(eval_batch(phi, Z_in) - eval_batch(f1, Z_in))))
        err_out = float(np.max(np.abs(eval_batch(phi, Z_out) - eval_batch(f2, Z_out))))
        if err_in > 1e-12:
            failures.append(f"config {i}: inner agreement {err_in:.2e}")
        if err_out > 1e-12:
            failures.append(f"config {i}: outer agreement {err_out:.2e}")

        X = rng.uniform(-1.5 * b, 1.5 * b, size=(10_000, d))
        Y = rng.uniform(-1.5 * b, 1.5 * b, size=(10_000, d))
        gap = norm_batch(X - Y, NormKind.EUCLIDEAN)
        keep = gap > 1e-12
        diff = norm_batch(eval_batch(phi, X[keep]) - eval_batch(phi, Y[keep]), NormKind.EUCLIDEAN)
        worst = float(np.max(diff / gap[keep]))
        if worst > cert + 1e-9:
            failures.append(f"config {i}: quotient {worst:.9f} above certificate {cert:.9f}")

        Z_all = np.concatenate([Z_in, dirs * rng.uniform(a, b, size=1000)[:, None], Z_out])
        if mode == 1:
            gap41 = float(np.max(norm_batch(eval_batch(phi, Z_all) - eval_batch(f2, Z_all), NormKind.EUCLIDEAN)))
            if gap41 > a * f2.lip_cert + 1e-9:
                failures.append(f"config {i}: zero-inside deviation {gap41:.2e}")
        if mode == 2:
            mag = float(np.max(norm_batch(eval_batch(phi, Z_all), NormKind.EUCLIDEAN)))
            if mag > b * f1.lip_cert + 1e-9:
                failures.append(f"config {i}: zero-outside magnitude {mag:.2e}")
    elapsed = time.perf_counter() - t0
    if elapsed >= 10.0:
        failures.append(f"runtime {elapsed:.1f}s exceeds 10s")
    _report(1, not failures, f"blend suite, 20 configs, {elapsed:.1f}s")
    assert not failures, failures


def test_criterion_2_perturbation_exactness():
    t0 = time.perf_counter()
    rng = np.random.default_rng(202)
    domain = Domain.box([0.0, 0.0], [1.0, 1.0])
    failures = []
    for i in range(10):
        out_dim = 1 if i % 2 == 0 else 2
        f = _random_origin_fun(rng, 2, out_dim, float(rng.uniform(0.3, 0.95)))
        if int(rng.integers(0, 2)):
            f = AddConst(f, rng.uniform(-0.5, 0.5, size=out_dim))
        raw = rng.uniform(0.12, 0.88, size=(60, 2))
        gamma = greedy_net(raw, 0.1)[: int(rng.integers(2, 21))]
        r = float(rng.uniform(0.2, 0.7))
        L = LinearMap(rng.uniform(-1, 1, size=(out_dim, 2)))
        L = L.scaled((1 - r) * float(rng.uniform(0.3, 0.95)) / L.op_norm)
        res = linearize_near(f, gamma, L, r, domain)
        g, alpha = res.fun, to_float(res.alpha)

        for x in gamma:
            gx = eval_batch(g, x[None, :])[0]
            us = np.asarray(sample_ball(np.zeros(2), alpha, 1000, 7 * i))
            gz = eval_batch(g, x[None, :] + us)
            resid = gz - gx - us @ L.float_matrix.T
            worst = float(np.max(norm_batch(resid, NormKind.EUCLIDEAN)))
            bound = 1e-9 * (1.0 + float(norm_batch(gx[None, :], NormKind.EUCLIDEAN)[0]))
            if worst > bound:
                failures.append(f"instance {i}: residual {worst:.2e} above {bound:.2e}")
                break

        rho = sup_dist(g, f, domain, budget=256, seed=i)
        if not rho < r:
            failures.append(f"instance {i}: sampled distance {rho:.6f} not below r={r:.6f}")
        X = rng.uniform(0, 1, size=(10_000, 2))
        Y = rng.uniform(0, 1, size=(10_000, 2))
        gap = norm_batch(X - Y, NormKind.EUCLIDEAN)
        keep = gap > 1e-12
        diff = norm_batch(eval_batch(g, X[keep]) - eval_batch(g, Y[keep]), NormKind.EUCLIDEAN)
        worst_q = float(np.max(diff / gap[keep]))
        if worst_q > 1.0 + 1e-9:
            failures.append(f"instance {i}: Lipschitz quotient {worst_q:.9f}")
    elapsed = time.perf_counter() - t0
    if elapsed >= 30.0:
        failures.append(f"runtime {elapsed:.1f}s exceeds 30s")
    _report(2, not failures, f"perturbation exactness, 10 instances, {elapsed:.1f}s")
    assert not failures, failures


def test_criterion_3_parameter_regression():
    r, s, diam_q = 0.5, 0.25, math.sqrt(2.0)
    params = blend_params(r, s, diam_q)
    beta_oracle = r * s / (4.0 * (1.0 + diam_q))
    alpha_oracle = r**2 * s / (16.0 * (1.0 + diam_q) ** 2)
    beta_rel = abs(to_float(params.beta) - beta_oracle) / beta_oracle
    alpha_rel = abs(to_float(params.alpha) - alpha_oracle) / alpha_oracle
    ok = beta_rel <= 1e-12 and alpha_rel <= 1e-12
    _report(3, ok, f"beta={to_float(params.beta):.12e} alpha={to_float(params.alpha):.12e}")
    assert ok, (beta_rel, alpha_rel)


def test_criterion_4_game_witness_bound(acceptance_run):
    t0 = time.perf_counter()
    transcript = acceptance_run.transcript
    report = witness_bound_report(transcript, per_round=1)
    probe_seconds = time.perf_counter() - t0
    total_seconds = acceptance_run.construct_seconds + probe_seconds
    failures = []
    expected = sum(rec.net_size for rec in transcript.rounds)
    if len(report) != expected:
        failures.append(f"witness count {len(report)} != {expected}")
    # operators are targeted round-robin: odd rounds first, even rounds second
    if [rec.op_index for rec in transcript.rounds] != [(k - 1) % 2 for k in range(1, 9)]:
        failures.append("round-robin schedule broken")
    for pr in report:
        if pr.value > pr.bound + 1e-9:
            failures.append(
                f"round {pr.witness.round_k}: dq {pr.value:.6f} above 4/k={pr.bound:.6f}"
            )
    if total_seconds >= 60.0:
        failures.append(f"runtime {total_seconds:.1f}s exceeds 60s")
    _report(
        4,
        not failures,
        f"{len(report)} witness centers over 8 rounds, "
        f"construct {acceptance_run.construct_seconds:.1f}s + probe {probe_seconds:.1f}s",
    )
    assert not failures, failures[:5]


def test_criterion_5_dini_certificates(acceptance_run):
    transcript = acceptance_run.transcript
    dini = witness_dini_report(transcript, np.array([1.0, 0.0]), min_round=4)
    assert dini, "no witnesses probed"
    fired = sum(1 for rec in dini if rec.report.fires)
    frac = fired / len(dini)
    ok = frac >= 0.90
    _report(5, ok, f"fired {fired}/{len(dini)} = {frac:.1%} (threshold 90%)")
    assert ok


def test_criterion_6_net_suite():
    t0 = time.perf_counter()
    domain = Domain.box([0.0, 0.0], [1.0, 1.0])
    target = TargetSet.grid([0.0, 0.0], [1.0, 1.0], 0.05)
    family = nested_nets(target, domain, 6)
    failures = []
    try:
        family.validate(domain, target)
    except Exception as e:  # noqa: BLE001 - report any invariant failure
        failures.append(str(e))
    for k in range(1, 7):
        lvl = family.level(k)
        admissible = restrict(target, domain, k)
        for p in admissible:
            if len(lvl) == 0 or float(np.min(norm_batch(lvl - p, domain.norm))) >= 2.0**-k:
                failures.append(f"level {k}: addable point {p}")
                break
    elapsed = time.perf_counter() - t0
    if elapsed >= 5.0:
        failures.append(f"runtime {elapsed:.1f}s exceeds 5s")
    _report(6, not failures, f"levels {[len(family.level(k)) for k in range(1, 7)]}, {elapsed:.1f}s")
    assert not failures, failures


# The sampled ||g_k - g_{k-1}|| of the standard run's rounds, as schema
# lipforge-game/2 stored them (rho_sampled): below float64 resolution from
# round 4 on.
STANDARD_ROUND_SAMPLES = [4.18879089975066e-05, 6.777554691159425e-08, 1.1123914289701275e-16] + [0.0] * 5


def test_criterion_7_nesting_and_determinism(acceptance_run, sampled_round_distances):
    transcript = acceptance_run.transcript
    failures = []
    samples = sampled_round_distances(transcript)
    if samples != STANDARD_ROUND_SAMPLES:
        failures.append(f"sampled round distances {samples}")
    with mp.workdps(60):
        prev = None
        for rec in transcript.rounds:
            if not rec.s < exact_mpf(rec.alpha) / rec.round_k:
                failures.append(f"round {rec.round_k}: s not below alpha/k")
            if not exact_mpf(rec.rho_bound) + exact_mpf(rec.s) <= exact_mpf(rec.r_accepted):
                failures.append(f"round {rec.round_k}: reply ball not nested")
            if prev is not None and not exact_mpf(rec.r_accepted) <= exact_mpf(prev.s):
                failures.append(f"round {rec.round_k}: move not nested in previous reply")
            prev = rec
    from lipforge import run_game

    rerun = run_game(
        acceptance_run.domain,
        acceptance_run.target,
        acceptance_run.operators,
        "stay",
        rounds=8,
        seed=0,
    )
    a = json.dumps(transcript.to_dict(), separators=(",", ":"))
    b = json.dumps(rerun.to_dict(), separators=(",", ":"))
    if a != b:
        failures.append("rerun transcript differs byte-wise")
    _report(7, not failures, f"nesting certificates over {transcript.k_max} rounds + byte-identical rerun")
    assert not failures, failures


def test_criterion_8_probe_sanity_oracles():
    failures = []
    a = LinearMap(np.array([[0.7, -0.3]]))
    if dq_error(Linear(a), [0.2, 0.3], a, 0.25, budget=16, seed=0) > 1e-12:
        failures.append("linear dq not zero")
    f = NormOf(1)
    zero = LinearMap(np.array([[0.0]]))
    ident = LinearMap(np.array([[1.0]]))
    v1 = dq_error(f, [0.0], zero, 0.25, budget=16, seed=0)
    v2 = dq_error(f, [0.0], ident, 0.25, budget=16, seed=0)
    if abs(v1 - 1.0) > 1e-12:
        failures.append(f"abs-vs-zero dq {v1} != 1")
    if abs(v2 - 2.0) > 1e-12:
        failures.append(f"abs-vs-identity dq {v2} != 2")
    slopes = [LinearMap(np.array([[c]])) for c in (-1.0, 0.0, 1.0)]
    best, err = best_local_linear(f, [0.0], 0.25, slopes, budget=16, seed=0)
    # brute-force oracle: sup over |u| <= q of ||u| - c u| / q = max(|1-c|, |1+c|)
    oracle = {c: max(abs(1 - c), abs(1 + c)) for c in (-1.0, 0.0, 1.0)}
    if float(best.float_matrix[0, 0]) != 0.0 or abs(err - oracle[0.0]) > 1e-12:
        failures.append(f"best slope {best.float_matrix[0, 0]} err {err}")
    _report(8, not failures, "dq oracles 0/1/2 and slope selection")
    assert not failures, failures
