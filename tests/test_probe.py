import gc
import multiprocessing
import os
import subprocess
import sys
import threading
import weakref
from pathlib import Path

import mpmath
import numpy as np
import pytest
from mpmath import mp

from lipforge import (
    AddConst,
    Const,
    Domain,
    Linear,
    LinearMap,
    LipForgeError,
    NormOf,
    Scale,
    ScaleLadder,
    Sum,
    TargetSet,
    best_local_linear,
    dini_empty_certificate,
    dini_lower,
    dini_values,
    dq_error,
    dq_profile,
    eval_point,
    identity,
    load_transcript,
    run_game,
    witness_bound_report,
    witness_dini_report,
    witnesses,
)
from lipforge import probe
from lipforge.numerics import as_vector, raw_vector, to_float, working_dps_for_scale
from lipforge.probe import DINI_TOL, WitnessProbe, _use_exact, witness_ladder
from lipforge.space import norm, sample_ball


@pytest.fixture(scope="module")
def small_transcript():
    domain = Domain.box([0.0, 0.0], [1.0, 1.0])
    target = TargetSet.grid([0.0, 0.0], [1.0, 1.0], 0.2)
    ops = (LinearMap(np.array([[0.5, 0.0]])), LinearMap(np.array([[-0.5, 0.0]])))
    return run_game(domain, target, ops, "stay", rounds=4, seed=0)


def test_dq_error_linear_is_zero():
    a = LinearMap(np.array([[0.7, -0.3], [0.1, 0.2]]))
    f = Linear(a)
    # float path: quotient rounding noise grows like eps / r
    assert dq_error(f, [0.2, -0.4], a, 0.5, budget=32, seed=1) <= 1e-12
    assert dq_error(f, [0.2, -0.4], a, 1e-3, budget=32, seed=1) <= 1e-11
    # far below float64 resolution the exact path takes over and is clean
    assert dq_error(f, [0.2, -0.4], a, 1e-13, budget=32, seed=1) <= 1e-12


def test_dq_error_abs_oracles():
    f = NormOf(1)
    zero = LinearMap(np.array([[0.0]]))
    ident = LinearMap(np.array([[1.0]]))
    assert dq_error(f, [0.0], zero, 0.25, budget=16, seed=0) == pytest.approx(1.0, abs=1e-12)
    assert dq_error(f, [0.0], ident, 0.25, budget=16, seed=0) == pytest.approx(2.0, abs=1e-12)


def test_dq_error_shift_invariance():
    f = NormOf(2)
    g = AddConst(f, np.array([0.375]))
    L = LinearMap(np.array([[0.3, 0.1]]))
    for r in (0.6, 0.05, 1e-13):
        a = dq_error(f, [0.1, 0.2], L, r, budget=16, seed=2)
        b = dq_error(g, [0.1, 0.2], L, r, budget=16, seed=2)
        assert abs(a - b) <= 1e-12


def test_dq_error_triangle_bound():
    rng = np.random.default_rng(3)
    for _ in range(20):
        f = Scale(float(rng.uniform(0, 1)), NormOf(2))
        L = LinearMap(rng.uniform(-1, 1, size=(1, 2)))
        x = rng.uniform(-0.5, 0.5, size=2)
        r = float(rng.uniform(1e-4, 1.0))
        val = dq_error(f, x, L, r, budget=16, seed=4)
        assert val <= f.lip_cert + L.op_norm + 1e-9


def test_dq_error_below_two_for_certified_unit_lipschitz():
    rng = np.random.default_rng(4)
    f = NormOf(2, sign=-1)
    for _ in range(10):
        L = LinearMap(rng.uniform(-0.6, 0.6, size=(1, 2)))
        if L.op_norm > 1:
            continue
        val = dq_error(f, rng.uniform(-0.2, 0.2, size=2), L, float(rng.uniform(0.01, 0.5)), budget=32, seed=5)
        assert val <= 2.0 + 1e-9


def test_dq_error_ball_containment(tmp_path):
    domain = Domain.box([0.0, 0.0], [1.0, 1.0])
    f = NormOf(2)
    L = LinearMap(np.array([[0.0, 0.0]]))
    with pytest.raises(LipForgeError, match="escapes"):
        dq_error(f, [0.05, 0.5], L, 0.2, budget=8, seed=0, domain=domain)


def test_dq_error_reuses_fx_at_the_centre_sample(monkeypatch):
    """On the exact path the centre sample x + 0 is x itself, so f(x) is not
    evaluated again; an x with more bits than the working precision rounds
    to another point there and is."""
    f = Scale(0.5, NormOf(2))
    L = LinearMap(np.array([[0.25, 0.0]]))
    calls = []
    root_eval = Scale._eval_exact
    monkeypatch.setattr(Scale, "_eval_exact", lambda self, z: calls.append(z) or root_eval(self, z))
    budget = 9
    dq_error(f, [0.375, 0.625], L, 1e-13, budget, 0)
    assert len(calls) == budget
    calls.clear()
    with mp.workdps(4 * working_dps_for_scale(1e-13)):
        fine = as_vector([mpmath.mpf(1) / 3, mpmath.mpf(2) / 3])
    dq_error(f, fine, L, 1e-13, budget, 0)
    assert len(calls) == budget + 1


def test_dq_profile_linear_all_zero():
    a = LinearMap(np.array([[0.4, 0.2]]))
    ladder = ScaleLadder.geometric(0.5, 0.5, 10)
    prof = dq_profile(Linear(a), [0.0, 0.0], a, ladder)
    assert prof.score <= 1e-12
    assert all(v <= 1e-12 for v in prof.values)


def test_dq_profile_detects_wrong_operator():
    a = LinearMap(np.array([[0.4, 0.0]]))
    wrong = LinearMap(np.array([[0.1, 0.0]]))
    ladder = ScaleLadder.geometric(0.5, 0.5, 10)
    prof = dq_profile(Linear(a), [0.0, 0.0], wrong, ladder)
    # axis samples realize the full operator-norm gap at every scale
    assert prof.score >= 0.3 - 1e-12


def test_dini_lower_negative_norm():
    f = NormOf(1, sign=-1)
    ladder = ScaleLadder.geometric(0.25, 0.5, 12)
    assert dini_lower(f, [0.0], [1.0], ladder) == pytest.approx(-1.0, abs=1e-12)
    assert dini_lower(f, [0.0], [-1.0], ladder) == pytest.approx(-1.0, abs=1e-12)


def test_dini_lower_linear_matches_matrix():
    a = LinearMap(np.array([[0.7, -0.2]]))
    f = Linear(a)
    ladder = ScaleLadder.geometric(0.25, 0.5, 8)
    v = np.array([0.6, 0.8])
    assert dini_lower(f, [0.1, 0.1], v, ladder) == pytest.approx(float((a.float_matrix @ v)[0]), abs=1e-9)


def test_dini_requires_scalar_codomain():
    ladder = ScaleLadder.geometric(0.25, 0.5, 4)
    with pytest.raises(LipForgeError, match="scalar"):
        dini_values(identity(2), [0.1, 0.1], [1.0, 0.0], ladder)


BAD_DIRECTIONS = {
    "short": ([1.0], "direction has 1 entries, the mapping takes 2"),
    "long": ([1.0, 0.0, 0.0], "direction has 3 entries, the mapping takes 2"),
    "nan": ([float("nan"), 0.0], "direction must be finite and nonzero"),
    "inf": ([0.0, float("inf")], "direction must be finite and nonzero"),
    "zero": ([0.0, 0.0], "direction must be finite and nonzero"),
}


@pytest.mark.parametrize("v, message", BAD_DIRECTIONS.values(), ids=BAD_DIRECTIONS.keys())
def test_dini_refuses_a_bad_direction(small_transcript, v, message):
    """Refused before any rung: a short direction would be truncated by the
    exact rungs and broadcast by the float ones, and a non-finite or zero
    one gives NaN or zero quotients."""
    f = small_transcript.final_fun
    ladder = ScaleLadder((0.25, 1e-20))
    with pytest.raises(LipForgeError, match=message):
        dini_values(f, [0.5, 0.5], v, ladder)
    with pytest.raises(LipForgeError, match=message):
        witness_dini_report(small_transcript, v, min_round=99)


def test_dini_certificate_fires_on_negative_cone():
    ladder = ScaleLadder.geometric(0.25, 0.5, 12)
    rep = dini_empty_certificate(NormOf(1, sign=-1), [0.0], [1.0], ladder)
    assert rep.fires
    rep2 = dini_empty_certificate(NormOf(1), [0.0], [1.0], ladder)
    assert not rep2.fires


def test_best_local_linear_abs_slopes():
    f = NormOf(1)
    slopes = [LinearMap(np.array([[c]])) for c in (-1.0, 0.0, 1.0)]
    best, err = best_local_linear(f, [0.0], 0.25, slopes, budget=16, seed=0)
    # brute-force oracle: sup over |u| <= q of ||u| - c u| / q = max(|1-c|, |1+c|)
    oracle = [max(abs(1 - c), abs(1 + c)) for c in (-1.0, 0.0, 1.0)]
    assert float(best.float_matrix[0, 0]) == 0.0
    assert err == pytest.approx(1.0, abs=1e-12)
    assert min(oracle) == 1.0


def test_best_local_linear_exact_and_singleton():
    a = LinearMap(np.array([[0.3, 0.4]]))
    f = Linear(a)
    best, err = best_local_linear(f, [0.1, 0.1], 0.1, [a, a.scaled(2.0)], budget=8, seed=0)
    assert best is a and err <= 1e-12
    only, err2 = best_local_linear(f, [0.1, 0.1], 0.1, [a.scaled(2.0)], budget=8, seed=0)
    assert only.op_norm == pytest.approx(2 * a.op_norm)


def test_best_local_linear_empty():
    with pytest.raises(LipForgeError, match="candidate"):
        best_local_linear(NormOf(1), [0.0], 0.1, [], budget=8, seed=0)


@pytest.mark.parametrize("r", [np.inf, mpmath.inf])
def test_dq_error_refuses_a_non_finite_scale(r):
    e1 = LinearMap(np.array([[1.0, 0.0]]))
    with pytest.raises(LipForgeError, match="probe scale must be positive and finite"):
        dq_error(NormOf(2), (0.5, 0.5), e1, r)


@pytest.mark.parametrize("r", [0.1, 1e-30])
def test_dq_error_of_a_nan_sample_is_nan(small_transcript, r):
    """A NaN value of the mapping or a NaN point makes the quotient NaN, on
    the float path and the exact one, and a NaN quotient meets no bound."""
    e1 = LinearMap(np.array([[1.0, 0.0]]))
    assert np.isnan(dq_error(Const(np.array([np.nan]), 2), (0.5, 0.5), e1, r))
    assert np.isnan(dq_error(NormOf(2), (np.nan, 0.5), e1, r))
    w = witnesses(small_transcript)[0]
    assert not WitnessProbe(w, dq_error(NormOf(2), (np.nan, 0.5), e1, r), 4.0).ok


@pytest.mark.parametrize("radii", [(np.inf, 1.0), (mpmath.inf, 1.0)])
def test_ladder_refuses_a_non_finite_scale(radii):
    with pytest.raises(LipForgeError, match="ladder scales must be finite"):
        ScaleLadder(radii)


def test_exact_flags_of_a_point_match_use_exact_at_each_scale():
    """An exact point is probed exactly at every scale; a float point only
    at 0 and below FLOAT_PROBE_REL of its scale (here max|x| = 2)."""
    scales = (1.0, 3e-11, 1.9e-11, 0.0)
    x = np.array([2.0, -0.5])
    assert probe._exact_flags(x, scales) == [False, False, True, True]
    assert probe._exact_flags(as_vector([mpmath.mpf(2), mpmath.mpf(-0.5)]), scales) == [True] * 4
    assert [_use_exact(x, r) for r in scales] == probe._exact_flags(x, scales)


def test_ladder_validation():
    with pytest.raises(LipForgeError, match="decreasing"):
        ScaleLadder((0.5, 0.5))
    with pytest.raises(LipForgeError, match="positive"):
        ScaleLadder((0.5, 0.0))
    # no float floor: the scales below FLOAT_PROBE_REL are probed exactly
    deep = ScaleLadder.geometric(1e-10, 0.5, 20)
    assert deep.radii[-1] == 1e-10 * 0.5**19
    assert dq_profile(NormOf(1), [0.5], LinearMap(np.array([[1.0]])), deep).values[-1] == 0.0
    lad = ScaleLadder.geometric(0.5, 0.5, 20)
    assert len(lad.radii) == 20


def test_witness_bound_small_game(small_transcript):
    report = witness_bound_report(small_transcript, per_round=2, budget=8, seed=1)
    assert report, "expected witnesses"
    for pr in report:
        assert pr.value <= pr.bound + 1e-9


def test_dq_profile_at_witness_scales(small_transcript):
    # per-scale value at each construction scale alpha_k stays below 4/k
    from lipforge import witnesses
    from lipforge.probe import witness_ladder

    tr = small_transcript
    ws = [w for w in witnesses(tr, per_round=1) if w.round_k >= 2][:5]
    assert ws
    for w in ws:
        ladder = witness_ladder(tr, w)
        prof = dq_profile(tr.final_fun, w.center, w.operator, ladder)
        idx = None
        for i, scale in enumerate(prof.scales):
            if scale == w.alpha:
                idx = i
        assert idx is not None
        assert prof.values[idx] <= 4.0 / w.round_k + 1e-9


def test_witness_dini_certifies_each_distinct_point_once(monkeypatch, small_transcript):
    """Net centers shared by several rounds get one certificate, listed for
    each witness; offset points get their own. All distinct points go to one
    quotient computation, and the reports equal the ones computed witness by
    witness."""
    tr = small_transcript
    direction = np.array([1.0, 0.0])
    calls = []
    quotients = probe._forward_quotients
    monkeypatch.setattr(probe, "_forward_quotients", lambda *a: calls.append(a) or quotients(*a))
    report = witness_dini_report(tr, direction, per_round=2, seed=3)
    ws = witnesses(tr, 2, 3)
    key = lambda w: (w.round_k, w.center.tobytes(), None if w.offset is None else tuple(w.offset))
    assert [key(r.witness) for r in report] == [key(w) for w in ws]
    centers = {w.center.tobytes() for w in ws if w.offset is None}
    offsets = [w for w in ws if w.offset is not None]
    assert len(centers) < len(ws) - len(offsets)
    assert len(calls) == 1
    assert len(calls[0][1]) == len(centers) + len(offsets)
    for r in report:
        w = r.witness
        x = w.point()
        assert r.report == dini_empty_certificate(tr.final_fun, x, direction, witness_ladder(tr, w))
        assert r.report.tol == DINI_TOL


def _bits(values) -> bytes:
    return np.asarray(values, dtype=float).tobytes()


def test_witness_dini_report_has_the_bits_of_each_certificate(small_game):
    """The report's batched float scales and shared exact f(x) give every
    quotient the bits of the point's own certificate, on the 2-D and 3-D
    games, at the last round's net centers and offset points."""
    tr = small_game
    direction = np.eye(tr.domain.dim)[0]
    report = witness_dini_report(tr, direction, min_round=tr.k_max, per_round=2, seed=1)
    assert any(r.witness.offset is not None for r in report)
    exact, seen = 0, set()
    for r in report:
        x = r.witness.point()
        if x.tobytes() in seen:
            continue
        seen.add(x.tobytes())
        ladder = witness_ladder(tr, r.witness)
        alone = dini_empty_certificate(tr.final_fun, x, direction, ladder)
        assert (r.report.fires, _bits(r.report.forward), _bits(r.report.backward), r.report.scales) == (
            alone.fires, _bits(alone.forward), _bits(alone.backward), alone.scales)
        if len(seen) % 4 == 1:
            assert _bits(alone.forward) == _bits(dini_values(tr.final_fun, x, direction, ladder))
            assert _bits(alone.backward) == _bits(dini_values(tr.final_fun, x, -direction, ladder))
        exact += sum(_use_exact(x, t) for t in ladder.radii)
    assert exact > 0


def test_forward_quotients_of_many_points_are_each_points_own(small_game):
    """Each point's quotients in a many-point call are the ones it gets
    alone, on a mapping whose f(x) differs from point to point and has no
    exact binary form (the game's mapping is 0 at every net center)."""
    tr = small_game
    d = tr.domain.dim
    f = Sum(tr.final_fun, NormOf(d))
    e1 = np.eye(d)[0]
    probes = [(w.point(), witness_ladder(tr, w)) for w in witnesses(tr, 1, 0) if w.round_k == tr.k_max]
    together = probe._forward_quotients(f, probes, (e1, -e1), {})
    assert len({float(eval_point(f, x)[0]) for x, _ in probes}) > 1
    for p, quotients in zip(probes, together):
        assert [_bits(q) for q in quotients] == [_bits(q) for q in probe._forward_quotients(f, [p], (e1, -e1), {})[0]]


def test_witness_dini_small_game(small_transcript):
    dini = witness_dini_report(small_transcript, np.array([1.0, 0.0]), min_round=2)
    assert dini
    fired = sum(1 for r in dini if r.report.fires)
    assert fired / len(dini) >= 0.9


def loop_dq_error(f, x, operator, r, budget, seed):
    """dq_error's float branch as a per-sample loop of single-point calls."""
    xf = np.array([to_float(v) for v in x])
    rf = to_float(r)
    fx = eval_point(f, xf)
    best = 0.0
    for u in sample_ball(np.zeros(len(xf)), rf, budget, seed, operator.in_norm):
        resid = eval_point(f, xf + u) - fx - operator.float_matrix @ u
        best = max(best, float(norm(resid, operator.out_norm)) / rf)
    return best


def test_batched_dq_error_matches_per_sample_loop(small_game):
    """At every witness and the float-resolvable scales of its ladder."""
    f = small_game.final_fun
    checked = 0
    for w in witnesses(small_game, 1, 0):
        x = w.point()
        for i, r in enumerate(witness_ladder(small_game, w).radii[::4]):
            if _use_exact(x, r):
                continue
            budget = 2 * f.in_dim + 1 + i
            assert dq_error(f, x, w.operator, r, budget, i) == loop_dq_error(f, x, w.operator, r, budget, i)
            checked += 1
    assert checked > 0


# ---------------------------------------------------------------------------
# Exact values shared by the witness and Dini reports


def _loaded(tr, path):
    """tr read back from disk: a tree that has shared no exact values yet."""
    path.mkdir()
    tr.save(path / "transcript.json")
    return load_transcript(path / "transcript.json")


def _dini_bits(report):
    return [(r.report.fires, _bits(r.report.forward), _bits(r.report.backward), r.report.scales) for r in report]


def _counted_exact(monkeypatch, root) -> list:
    """The exact evaluations of root made in this process, from now on."""
    calls, evaluate = [], type(root)._eval_exact

    def counted(self, z):
        if self is root:
            calls.append(z)
        return evaluate(self, z)

    monkeypatch.setattr(type(root), "_eval_exact", counted)
    return calls


def test_dini_report_after_the_witness_report_evaluates_nothing_exactly(monkeypatch, small_game, tmp_path):
    """Along e1, every exact f(x) and f(x +- alpha_k e1) of the Dini report
    is a sample of the witness report at the same working precision, so
    the Dini report makes no exact evaluation of the mapping; its reports
    and the witness values equal those of a fresh transcript, bit for bit."""
    tr, fresh = _loaded(small_game, tmp_path / "a"), _loaded(small_game, tmp_path / "b")
    e1 = np.eye(tr.domain.dim)[0]
    assert tr.final_fun not in probe._SHARED
    calls = _counted_exact(monkeypatch, tr.final_fun)
    witness = witness_bound_report(tr)
    assert len(calls) > 0
    calls.clear()
    dini = witness_dini_report(tr, e1)
    assert calls == []
    assert any(_use_exact(r.witness.point(), t) for r in dini for t in r.report.scales)
    monkeypatch.undo()
    assert _dini_bits(dini) == _dini_bits(witness_dini_report(fresh, e1))
    alone = witness_bound_report(_loaded(small_game, tmp_path / "c"))
    assert _bits([p.value for p in witness]) == _bits([p.value for p in alone])


def test_witness_values_after_the_dini_report_are_each_witness_own(small_game, tmp_path):
    """In the command line's order, Dini report first, the witness report
    reads the shared values and its dq values keep the bits of dq_error,
    which shares nothing, at centers and offset points."""
    tr = _loaded(small_game, tmp_path / "a")
    witness_dini_report(tr, np.eye(tr.domain.dim)[0], per_round=2, seed=1)
    assert probe._SHARED[tr.final_fun]
    report = witness_bound_report(tr, per_round=2, seed=1)
    assert any(p.witness.offset is not None for p in report)
    expected = [dq_error(tr.final_fun, w.point(), w.operator, w.alpha, None, 1) for w in witnesses(tr, 2, 1)]
    assert _bits([p.value for p in report]) == _bits(expected)


def test_per_call_probes_share_nothing(small_game, tmp_path):
    tr = _loaded(small_game, tmp_path / "a")
    f = tr.final_fun
    e1 = np.eye(tr.domain.dim)[0]
    w = [w for w in witnesses(tr, 1, 0) if w.round_k == tr.k_max][0]
    x, ladder = w.point(), witness_ladder(tr, w)
    dq_error(f, x, w.operator, w.alpha)
    dq_profile(f, x, w.operator, ladder)
    dini_values(f, x, e1, ladder)
    dini_empty_certificate(f, x, e1, ladder)
    best_local_linear(f, x, w.alpha, tr.operators)
    assert f not in probe._SHARED


def test_one_point_at_two_precisions_has_two_shared_values():
    f = NormOf(2)
    x_e, memo = raw_vector([0.1, 0.2]), {}
    values = []
    for dps in (30, 60, 30):
        with mp.workdps(dps):
            values.append(probe._exact_value(f, memo, x_e, None))
    assert len(memo) == 2
    assert values[0] != values[1] and values[2] is values[0]


def test_shared_values_go_with_the_tree(small_game, tmp_path):
    tr = _loaded(small_game, tmp_path / "a")
    witness_bound_report(tr)
    ref, count = weakref.ref(tr.final_fun), len(probe._SHARED)
    assert ref() in probe._SHARED
    del tr
    gc.collect()
    assert ref() is None
    assert len(probe._SHARED) == count - 1


# ---------------------------------------------------------------------------
# The witness report fanned out over forked workers


@pytest.fixture
def pooled(monkeypatch):
    """Forces the pooled witness report on the small games: shares of at
    least 4 witnesses and two usable CPUs, whatever the host has, so this
    process computes share 0 and one forked worker share 1."""
    monkeypatch.setattr(probe, "_CHUNK_MIN", 4)
    monkeypatch.setattr(probe.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(probe.os, "cpu_count", lambda: 2)


def _inline(monkeypatch, call):
    """call() with the witness report kept in this process."""
    with monkeypatch.context() as inline:
        inline.setattr(probe, "_CHUNK_MIN", 10**9)
        return call()


def _share0_evaluations(tr, calls: list, per_round: int = 1, seed: int = 0) -> list:
    """The exact evaluations of tr's mapping, as counted into calls, that the
    inline loop makes over share 0 of the pooled witness report (every
    second witness) from an empty memo; calls is left empty."""
    ws = witnesses(tr, per_round, seed)
    assert min(len(ws) // probe._CHUNK_MIN, 2) == 2
    memo = {}
    for w in ws[::2]:
        probe._dq_error(tr.final_fun, w.point(), w.operator, w.alpha, None, seed, None, memo)
    share0 = calls[:]
    calls.clear()
    assert share0
    return share0


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("per_round", [1, 2])
def test_pooled_witness_report_has_the_inline_bits_and_shared_values(small_game, tmp_path, monkeypatch, pooled,
                                                                     per_round, seed):
    """The pooled report's dq values equal the inline loop's bit for bit, at
    centers and offset points, and they leave the same shared values; this
    process makes exactly the exact evaluations of share 0's witnesses, and
    the worker all those of share 1."""
    inline_tr, pooled_tr = _loaded(small_game, tmp_path / "a"), _loaded(small_game, tmp_path / "b")
    inline = _inline(monkeypatch, lambda: witness_bound_report(inline_tr, per_round=per_round, seed=seed))
    calls = _counted_exact(monkeypatch, pooled_tr.final_fun)
    share0 = _share0_evaluations(pooled_tr, calls, per_round, seed)
    report = witness_bound_report(pooled_tr, per_round=per_round, seed=seed)
    assert calls == share0
    key = lambda p: (p.witness.round_k, [repr(c) for c in p.witness.point()], p.bound)
    assert [key(p) for p in report] == [key(p) for p in inline]
    assert any(p.witness.offset is not None for p in report) == (per_round > 1)
    assert _bits([p.value for p in report]) == _bits([p.value for p in inline])
    shared = probe._SHARED[pooled_tr.final_fun]
    assert shared and shared == probe._SHARED[inline_tr.final_fun]


def test_pooled_witness_report_in_both_report_orders(small_game, tmp_path, monkeypatch, pooled):
    """After the pooled witness report, whose exact evaluations in this
    process are share 0's, the Dini report evaluates nothing exactly, and
    both reports keep the bits of a fresh transcript's in either order."""
    e1 = np.eye(small_game.domain.dim)[0]
    fresh = _loaded(small_game, tmp_path / "fresh")
    witness_alone = _inline(monkeypatch, lambda: witness_bound_report(_loaded(small_game, tmp_path / "alone")))
    dini_alone = witness_dini_report(fresh, e1)

    tr = _loaded(small_game, tmp_path / "witness-first")
    calls = _counted_exact(monkeypatch, tr.final_fun)
    share0 = _share0_evaluations(tr, calls)
    witness = witness_bound_report(tr)
    assert calls == share0
    calls.clear()
    dini = witness_dini_report(tr, e1)
    assert calls == []
    assert any(_use_exact(r.witness.point(), t) for r in dini for t in r.report.scales)
    assert _dini_bits(dini) == _dini_bits(dini_alone)
    assert _bits([p.value for p in witness]) == _bits([p.value for p in witness_alone])

    tr = _loaded(small_game, tmp_path / "dini-first")
    dini = witness_dini_report(tr, e1)
    witness = witness_bound_report(tr)
    assert _dini_bits(dini) == _dini_bits(dini_alone)
    assert _bits([p.value for p in witness]) == _bits([p.value for p in witness_alone])


def test_a_failing_worker_raises_the_first_failure_in_witness_order(small_game, monkeypatch, pooled):
    """Witnesses 5 and 8 fail; 8 is in share 0, which this process computes
    while the worker computes share 1, which holds 5, but the report raises
    witness 5's error, with its message, as the inline loop does, and
    leaves no child."""
    ws = witnesses(small_game, 1, 0)
    failing = {ws[5].point().tobytes(): 5, ws[8].point().tobytes(): 8}
    dq = probe._dq_error

    def failing_dq(f, x, *rest):
        if x.tobytes() in failing:
            raise LipForgeError(f"witness {failing[x.tobytes()]} fails")
        return dq(f, x, *rest)

    monkeypatch.setattr(probe, "_dq_error", failing_dq)
    assert min(len(ws) // probe._CHUNK_MIN, 2) == 2
    with pytest.raises(LipForgeError, match=r"^witness 5 fails$"):
        witness_bound_report(small_game)
    assert multiprocessing.active_children() == []
    with pytest.raises(LipForgeError, match=r"^witness 5 fails$"):
        _inline(monkeypatch, lambda: witness_bound_report(small_game))


def test_a_worker_bug_reaches_the_caller_and_leaves_no_child(small_game, monkeypatch, pooled):
    """An error that is not a LipForgeError, raised in the worker only,
    reaches the caller as itself."""
    parent, dq = os.getpid(), probe._dq_error
    monkeypatch.setattr(probe, "_dq_error", lambda *a: 1 // 0 if os.getpid() != parent else dq(*a))
    with pytest.raises(ZeroDivisionError):
        witness_bound_report(small_game)
    assert multiprocessing.active_children() == []


def test_a_dying_worker_ends_the_report_and_leaves_no_child(small_game, monkeypatch, pooled):
    """A worker that exits mid-share ends its pipe: the report raises
    EOFError. Only the worker exits: the nets are nested, so witness 5's
    point recurs in this process's share."""
    dying, parent, dq = witnesses(small_game, 1, 0)[5].point().tobytes(), os.getpid(), probe._dq_error
    monkeypatch.setattr(probe, "_dq_error", lambda f, x, *rest: os._exit(3) if x.tobytes() == dying
                        and os.getpid() != parent else dq(f, x, *rest))
    with pytest.raises(EOFError):
        witness_bound_report(small_game)
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("reason", ["one-cpu", "live-thread", "no-fork", "daemon"])
def test_witness_report_runs_inline_when_forking_cannot_pay(small_game, tmp_path, monkeypatch, pooled, reason):
    """One usable CPU, another live thread, no fork start method or a daemon
    process keep the report in this process, with the same bits."""
    tr = _loaded(small_game, tmp_path / "a")
    expected = witness_bound_report(tr)
    thread = None
    if reason == "one-cpu":
        monkeypatch.setattr(probe.os, "sched_getaffinity", lambda pid: {0}, raising=False)
        monkeypatch.setattr(probe.os, "cpu_count", lambda: 1)
    elif reason == "live-thread":
        release = threading.Event()
        thread = threading.Thread(target=release.wait)
        thread.start()
    elif reason == "no-fork":
        monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
    else:
        monkeypatch.setattr(multiprocessing.current_process(), "daemon", True)
    monkeypatch.setattr(multiprocessing, "get_context", lambda *a: pytest.fail("the report forked"))
    tr = _loaded(small_game, tmp_path / "b")
    calls = _counted_exact(monkeypatch, tr.final_fun)
    try:
        report = witness_bound_report(tr)
    finally:
        if thread is not None:
            release.set()
            thread.join()
    assert len(calls) > 0
    assert _bits([p.value for p in report]) == _bits([p.value for p in expected])


def test_importing_lipforge_imports_no_multiprocessing():
    """The witness report imports multiprocessing when it forks, so set-up does not."""
    code = "import sys, lipforge; print('multiprocessing' in sys.modules)"
    src = str(Path(probe.__file__).parents[1])
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                          env={**os.environ, "PYTHONPATH": src})
    assert done.stdout == "False\n"


_NAN_ORDERS = {"nan-first": [float("nan"), -1.0, -2.0], "nan-last": [-1.0, -2.0, float("nan")]}


@pytest.mark.parametrize("quotients", _NAN_ORDERS.values(), ids=_NAN_ORDERS.keys())
def test_a_nan_quotient_anywhere_stops_the_dini_certificate(quotients):
    """A NaN forward or backward quotient stops the certificate from firing,
    wherever it sits on the ladder."""
    ladder = ScaleLadder((0.5, 0.25, 0.125))
    below = [-1.0, -1.0, -1.0]
    assert probe.DiniReport.of(below, below, ladder).fires
    assert not probe.DiniReport.of(quotients, below, ladder).fires
    assert not probe.DiniReport.of(below, quotients, ladder).fires


@pytest.mark.parametrize("quotients", _NAN_ORDERS.values(), ids=_NAN_ORDERS.keys())
def test_minima_over_the_ladder_keep_a_nan(quotients, monkeypatch):
    """dq_profile's score and dini_lower are NaN, as a plain float, when any
    value on the ladder is."""
    ladder = ScaleLadder((0.5, 0.25, 0.125))
    f, a = Linear(LinearMap(np.array([[1.0]]))), LinearMap(np.array([[1.0]]))
    monkeypatch.setattr(probe, "dq_error", lambda f, x, op, r, budget, seed, domain: quotients[seed])
    monkeypatch.setattr(probe, "dini_values", lambda f, x, v, ladder: list(quotients))
    for value in (dq_profile(f, [0.5], a, ladder).score, dini_lower(f, [0.5], [1.0], ladder)):
        assert type(value) is float and value != value
    monkeypatch.setattr(probe, "dini_values", lambda f, x, v, ladder: [-1.0, np.float64(-2.0), 0.5])
    assert type(dini_lower(f, [0.5], [1.0], ladder)) is float
