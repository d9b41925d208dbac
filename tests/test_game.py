import json

import numpy as np
import pytest
from mpmath import mp

from lipforge import (
    Const,
    Domain,
    GameState,
    LinearMap,
    LipForgeError,
    NormOf,
    Scale,
    TargetSet,
    adversary,
    eval_batch,
    eval_point,
    load_transcript,
    nested_nets,
    run_game,
    serialize,
    validate_move,
    witnesses,
)
from lipforge.game import MoveRecord, player2_move
from lipforge.numerics import exact_mpf, to_float, working_dps_for_scale
from lipforge.space import norm, sample_ball


@pytest.fixture(scope="module")
def small_setup():
    domain = Domain.box([0.0, 0.0], [1.0, 1.0])
    target = TargetSet.grid([0.0, 0.0], [1.0, 1.0], 0.2)
    ops = (
        LinearMap(np.array([[0.5, 0.0]])),
        LinearMap(np.array([[-0.5, 0.0]])),
    )
    return domain, target, ops


@pytest.fixture(scope="module")
def small_transcript(small_setup):
    domain, target, ops = small_setup
    return run_game(domain, target, ops, "stay", rounds=4, seed=0)


def _fresh_state(small_setup, rounds=4):
    domain, target, ops = small_setup
    return GameState(domain=domain, nets=nested_nets(target, domain, rounds), operators=ops)


def _fake_record(k, g, s):
    return MoveRecord(
        round_k=k,
        op_index=0,
        move_kind="stay",
        move_shift=None,
        move_fun=None,
        r_offered=exact_mpf(1),
        r_accepted=exact_mpf(1),
        reply_fun=g,
        s=exact_mpf(s),
        alpha=exact_mpf(2 * s),
        beta=None,
        warp_radius=None,
        rho_bound=exact_mpf(0),
        rho_sampled=0.0,
        net_size=0,
    )


def test_validate_move_shrinks_radius(small_setup):
    state = _fresh_state(small_setup)
    g = Const(np.zeros(1), 2)
    state.history.append(_fake_record(1, g, 2.0))
    state.history.append(_fake_record(2, g, 1.5))
    accepted = validate_move(state, g, 1.0)
    # round 3 targets the first operator (norm 0.5): cap 2^-3 * 0.5
    assert to_float(accepted) == pytest.approx(0.0625)


def test_validate_move_first_round_unconstrained(small_setup):
    state = _fresh_state(small_setup)
    accepted = validate_move(state, Const(np.zeros(1), 2), 0.5)
    assert to_float(accepted) == pytest.approx(0.25)


def test_validate_move_rejects_unnested(small_setup):
    state = _fresh_state(small_setup)
    g = Const(np.zeros(1), 2)
    state.history.append(_fake_record(1, g, 0.001))
    far = Const(np.array([5.0]), 2)
    with pytest.raises(LipForgeError, match="not nested"):
        validate_move(state, far, 0.0005)


def test_validate_move_rejects_bad_radius_and_cert(small_setup):
    state = _fresh_state(small_setup)
    with pytest.raises(LipForgeError, match="positive"):
        validate_move(state, Const(np.zeros(1), 2), 0.0)
    with pytest.raises(LipForgeError, match="1-Lipschitz"):
        validate_move(state, Scale(2.0, NormOf(2)), 0.5)


def test_player2_round_identity(small_setup):
    state = _fresh_state(small_setup)
    f = Const(np.zeros(1), 2)
    r = validate_move(state, f, 0.5)
    rec = player2_move(state, f, r)
    # round 1 on the 0.2-grid has an empty net: reply is the move itself
    assert rec.net_size == 0 and rec.reply_fun is f
    f2, r2, kind, shift = adversary("stay", state, None)
    r2a = validate_move(state, f2, r2)
    rec2 = player2_move(state, f2, r2a)
    assert rec2.net_size > 0
    assert rec2.s < exact_mpf(rec2.alpha) / 2
    L = state.operators[1]
    with mp.workdps(working_dps_for_scale(rec2.alpha)):
        for x in state.nets.level(2):
            x_e = np.array([exact_mpf(v) for v in x], dtype=object)
            gx = eval_point(rec2.reply_fun, x_e)
            for u in sample_ball(np.zeros(2), exact_mpf(rec2.alpha), 8, 0):
                z = np.array([x_e[i] + u[i] for i in range(2)], dtype=object)
                gz = eval_point(rec2.reply_fun, z)
                lu = L.apply(u)
                assert to_float(abs(gz[0] - gx[0] - lu[0])) <= 1e-12


def test_adversary_stay_and_jitter(small_setup):
    state = _fresh_state(small_setup)
    f, r, kind, shift = adversary("stay", state, None)
    assert kind == "stay" and to_float(r) == pytest.approx(0.5)
    rec = player2_move(state, f, validate_move(state, f, r))
    f2, r2, kind2, shift2 = adversary("stay", state, None)
    assert f2 is rec.reply_fun and r2 == exact_mpf(rec.s) / 2
    f3, r3, kind3, shift3 = adversary("jitter", state, None)
    assert kind3 == "jitter"
    assert to_float(norm(shift3)) <= to_float(rec.s) / 4 + 1e-18
    validate_move(state, f3, r3)


def test_adversary_unknown_kind(small_setup):
    state = _fresh_state(small_setup)
    with pytest.raises(LipForgeError, match="unknown adversary"):
        adversary("confuse", state, None)


def test_run_game_round_count_and_monotone_radii(small_transcript):
    tr = small_transcript
    assert tr.k_max == 4
    ss = [rec.s for rec in tr.rounds]
    assert all(ss[i] > ss[i + 1] for i in range(len(ss) - 1))
    assert tr.tail_bound == tr.rounds[-1].s
    with mp.workdps(60):
        for rec in tr.rounds:
            assert rec.s < exact_mpf(rec.alpha) / rec.round_k
            assert rec.s <= exact_mpf(2) ** -rec.round_k


def test_run_game_round_robin_schedule(small_transcript):
    assert [rec.op_index for rec in small_transcript.rounds] == [0, 1, 0, 1]


def test_run_game_rejects_operator_norm_one(small_setup):
    domain, target, _ = small_setup
    bad = (LinearMap(np.array([[1.0, 0.0]])),)
    with pytest.raises(LipForgeError, match="operator norm must be < 1"):
        run_game(domain, target, bad, "stay", rounds=2)


def test_witnesses_centers_and_membership(small_transcript):
    tr = small_transcript
    ws = witnesses(tr, per_round=1)
    expected = sum(rec.net_size for rec in tr.rounds)
    assert len(ws) == expected
    assert all(w.offset is None for w in ws)
    ws3 = witnesses(tr, per_round=3, seed=5)
    assert len(ws3) == 3 * expected
    with mp.workdps(200):
        for w in ws3[:50]:
            if w.offset is None:
                continue
            assert norm(np.array([exact_mpf(v) for v in w.offset], dtype=object)) < exact_mpf(w.s)
    again = witnesses(tr, per_round=3, seed=5)
    assert len(again) == len(ws3)
    for a, b in zip(ws3, again):
        assert np.array_equal(a.center, b.center)


def test_transcript_save_load_replay(tmp_path, small_setup, small_transcript):
    domain, target, ops = small_setup
    tr = small_transcript
    path = tmp_path / "transcript.json"
    tr.save(path)
    loaded = load_transcript(path)
    assert loaded.k_max == tr.k_max
    assert loaded.tail_bound == tr.tail_bound
    assert serialize(loaded.final_fun) == serialize(tr.final_fun)
    replayed = run_game(domain, target, ops, "replay", rounds=4, seed=0, replay_transcript=loaded.to_dict())
    assert serialize(replayed.final_fun) == serialize(tr.final_fun)
    rng = np.random.default_rng(0)
    Z = rng.uniform(0, 1, size=(200, 2))
    assert np.array_equal(eval_batch(replayed.final_fun, Z), eval_batch(tr.final_fun, Z))


def test_replay_exhausted(small_setup, small_transcript):
    domain, target, ops = small_setup
    with pytest.raises(LipForgeError, match="replay exhausted"):
        run_game(domain, target, ops, "replay", rounds=6, seed=0, replay_transcript=small_transcript)


def test_load_transcript_missing_file(tmp_path):
    with pytest.raises(LipForgeError, match="artifact not found"):
        load_transcript(tmp_path / "nope.json")


def test_load_transcript_bad_schema(tmp_path):
    p = tmp_path / "t.json"
    p.write_text(json.dumps({"schema": "lipforge-game/99"}))
    with pytest.raises(LipForgeError, match="schema"):
        load_transcript(p)


def test_rerun_is_bit_identical(small_setup, small_transcript):
    domain, target, ops = small_setup
    tr2 = run_game(domain, target, ops, "stay", rounds=4, seed=0)
    a = json.dumps(small_transcript.to_dict(), separators=(",", ":"))
    b = json.dumps(tr2.to_dict(), separators=(",", ":"))
    assert a == b


def test_jitter_game_runs(small_setup):
    domain, target, ops = small_setup
    tr = run_game(domain, target, ops, "jitter", rounds=3, seed=7)
    assert tr.k_max == 3
    assert tr.rounds[1].move_kind == "jitter"
    assert tr.rounds[1].move_shift is not None
