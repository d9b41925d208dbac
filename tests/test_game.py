import gc
import hashlib
import json

import numpy as np
import pytest
from mpmath import mp

from lipforge import (
    Const,
    Domain,
    GameTranscript,
    LinearMap,
    LipForgeError,
    Move,
    NormKind,
    NormOf,
    Scale,
    TargetSet,
    add_const,
    adversary,
    eval_batch,
    eval_point,
    load_transcript,
    nested_nets,
    run_game,
    serialize,
    validate_move,
    witness_bound_report,
    witnesses,
)
from lipforge import game, verify
from lipforge.game import MoveRecord, player2_move
from lipforge.lipfun import fun_to_dict
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


def _fresh_record(small_setup, rounds=4):
    domain, target, ops = small_setup
    return GameTranscript(domain, ops, nested_nets(target, domain, rounds), "explicit")


def _fake_record(k, g, s):
    return MoveRecord(
        round_k=k,
        op_index=0,
        move=Move("stay"),
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


def test_move_refuses_an_unknown_kind_or_a_missing_field():
    with pytest.raises(LipForgeError, match="unknown move kind 'wobble'"):
        Move("wobble")
    with pytest.raises(LipForgeError, match="jitter move without shift"):
        Move("jitter")
    with pytest.raises(LipForgeError, match="explicit move without fun"):
        Move("explicit", shift=np.zeros(1))


def test_move_center():
    g = Const(np.zeros(1), 2)
    f = Scale(0.5, NormOf(2))
    assert Move("stay").center(g) is g
    assert Move("explicit", fun=f).center(g) is f
    jitter = Move("jitter", np.array([0.25])).center(g)
    assert jitter.f is g and jitter.p.tolist() == [0.25]


@pytest.mark.parametrize("kind, r", [(NormKind.EUCLIDEAN, 0.375), (NormKind.SUP, 0.5), (NormKind.ONE, 0.125)])
def test_move_nested_decides_exactly(kind, r):
    """||(0.375, 0.5)|| + r is exactly 1 in each norm: nested in a ball of
    radius 1, not in one of radius 1 - 2^-200, which 53 bits cannot tell
    apart."""
    move = Move("jitter", np.array([0.375, 0.5]))
    with mp.workdps(80):
        below = exact_mpf(1) - exact_mpf(2) ** -200
    assert below < 1
    assert move.nested(r, 1.0, kind) is True
    assert move.nested(r, below, kind) is False
    assert Move("stay").nested(1.0, 1.0, kind) is True
    assert Move("stay").nested(1.0, below, kind) is False
    assert Move("jitter", np.array([np.nan, 0.0])).nested(0.0, 1.0, kind) is False
    assert Move("explicit", fun=Const(np.zeros(2), 2)).nested(r, 1.0, kind) is None


def test_validate_move_shrinks_radius(small_setup):
    tr = _fresh_record(small_setup)
    g = Const(np.zeros(1), 2)
    tr.rounds.append(_fake_record(1, g, 2.0))
    tr.rounds.append(_fake_record(2, g, 1.5))
    accepted = validate_move(tr, Move("stay"), 1.0)
    # round 3 targets the first operator (norm 0.5): cap 2^-3 * 0.5
    assert to_float(accepted) == pytest.approx(0.0625)


def test_validate_move_first_round_unconstrained(small_setup):
    tr = _fresh_record(small_setup)
    accepted = validate_move(tr, Move("explicit", fun=Const(np.zeros(1), 2)), 0.5)
    assert to_float(accepted) == pytest.approx(0.25)


def test_validate_move_rejects_unnested(small_setup):
    tr = _fresh_record(small_setup)
    g = Const(np.zeros(1), 2)
    tr.rounds.append(_fake_record(1, g, 0.001))
    far = Move("explicit", fun=Const(np.array([5.0]), 2))
    with pytest.raises(LipForgeError, match="not nested"):
        validate_move(tr, far, 0.0005)
    # a NaN distance (a shift holding NaN) does not certify nesting
    with pytest.raises(LipForgeError, match="not nested"):
        validate_move(tr, Move("jitter", np.array([np.nan])), 0.0005)


def test_validate_move_rejects_bad_radius_and_cert(small_setup):
    tr = _fresh_record(small_setup)
    with pytest.raises(LipForgeError, match="positive"):
        validate_move(tr, Move("explicit", fun=Const(np.zeros(1), 2)), 0.0)
    with pytest.raises(LipForgeError, match="1-Lipschitz"):
        validate_move(tr, Move("explicit", fun=Scale(2.0, NormOf(2))), 0.5)


def test_player2_round_identity(small_setup):
    tr = _fresh_record(small_setup)
    f = Const(np.zeros(1), 2)
    move = Move("explicit", fun=f)
    rec = player2_move(tr, move, validate_move(tr, move, 0.5))
    # round 1 on the 0.2-grid has an empty net: reply is the move itself
    assert rec.net_size == 0 and rec.reply_fun is f
    move2, r2 = adversary(tr, "stay")
    rec2 = player2_move(tr, move2, validate_move(tr, move2, r2))
    assert rec2.net_size > 0
    assert rec2.s < exact_mpf(rec2.alpha) / 2
    L = tr.operators[1]
    with mp.workdps(working_dps_for_scale(rec2.alpha)):
        for x in tr.nets.level(2):
            x_e = np.array([exact_mpf(v) for v in x], dtype=object)
            gx = eval_point(rec2.reply_fun, x_e)
            for u in sample_ball(np.zeros(2), exact_mpf(rec2.alpha), 8, 0):
                z = np.array([x_e[i] + u[i] for i in range(2)], dtype=object)
                gz = eval_point(rec2.reply_fun, z)
                lu = L.apply(u)
                assert to_float(abs(gz[0] - gx[0] - lu[0])) <= 1e-12


def test_adversary_stay_and_jitter(small_setup):
    tr = _fresh_record(small_setup)
    move, r = adversary(tr, "stay")
    assert move.kind == "stay" and to_float(r) == pytest.approx(0.5)
    rec = player2_move(tr, move, validate_move(tr, move, r))
    move2, r2 = adversary(tr, "stay")
    assert move2.center(rec.reply_fun) is rec.reply_fun and r2 == exact_mpf(rec.s) / 2
    move3, r3 = adversary(tr, "jitter")
    assert move3.kind == "jitter"
    assert to_float(norm(move3.shift)) <= to_float(rec.s) / 4 + 1e-18
    validate_move(tr, move3, r3)


def test_adversary_unknown_kind(small_setup):
    tr = _fresh_record(small_setup)
    with pytest.raises(LipForgeError, match="unknown adversary"):
        adversary(tr, "confuse")


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


def test_witness_point_sets_its_own_precision(small_transcript):
    """An offset witness point is summed at its reply radius's working
    precision, so an ambient 15 or 2000 digits gives the same bits."""
    ws = [w for w in witnesses(small_transcript, per_round=2, seed=5) if w.offset is not None]
    assert ws
    for w in ws:
        with mp.workdps(working_dps_for_scale(w.s)):
            ref = [(exact_mpf(c) + exact_mpf(o))._mpf_ for c, o in zip(w.center, w.offset)]
        for dps in (15, 2000):
            with mp.workdps(dps):
                assert [x._mpf_ for x in w.point()] == ref


def test_transcript_save_load_replay(tmp_path, small_setup, small_transcript):
    domain, target, ops = small_setup
    tr = small_transcript
    path = tmp_path / "transcript.json"
    tr.save(path)
    loaded = load_transcript(path)
    assert loaded.k_max == tr.k_max
    assert loaded.tail_bound == tr.tail_bound
    assert serialize(loaded.final_fun) == serialize(tr.final_fun)
    replayed = run_game(domain, target, ops, "replay", rounds=4, seed=0, replay_transcript=loaded)
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
    p.write_text("[]")
    with pytest.raises(LipForgeError, match="schema"):
        load_transcript(p)


def test_load_transcript_refuses_deep_nesting(tmp_path):
    """JSON nested past the parser's recursion limit is a malformed artifact."""
    p = tmp_path / "transcript.json"
    p.write_text("[" * 100_000)
    with pytest.raises(LipForgeError, match="^malformed artifact$"):
        load_transcript(p)


def test_saved_transcript_names_function_json_by_sha256(tmp_path, small_transcript):
    tr = small_transcript
    tr.save(tmp_path / "transcript.json")
    data = (tmp_path / "function.json").read_bytes()
    doc = json.loads((tmp_path / "transcript.json").read_text())
    assert data == serialize(tr.final_fun)
    assert doc["schema"] == "lipforge-game/2"
    assert "final_fun" not in doc
    assert doc["function_sha256"] == hashlib.sha256(data).hexdigest()
    moved = tmp_path / "elsewhere.json"
    (tmp_path / "function.json").rename(moved)
    with pytest.raises(LipForgeError, match="artifact not found"):
        load_transcript(tmp_path / "transcript.json")
    loaded = load_transcript(tmp_path / "transcript.json", moved)
    assert serialize(loaded.final_fun) == data


def test_load_transcript_refuses_another_function_json(tmp_path, small_setup):
    """A function.json changed by one byte, or written by another seed's run,
    is refused with both hashes named."""
    domain, target, ops = small_setup
    for seed in (0, 1):
        (tmp_path / str(seed)).mkdir()
        run_game(domain, target, ops, "jitter", rounds=3, seed=seed).save(tmp_path / str(seed) / "transcript.json")
    path = tmp_path / "0" / "transcript.json"
    good = (tmp_path / "0" / "function.json").read_bytes()
    other = (tmp_path / "1" / "function.json").read_bytes()
    assert other != good
    i = good.index(b"0.")
    tampered = good[:i] + b"1" + good[i + 1:]
    for data in (tampered, other):
        (tmp_path / "0" / "function.json").write_bytes(data)
        expected = f"artifact mismatch: .* {hashlib.sha256(data).hexdigest()}, .* {hashlib.sha256(good).hexdigest()}"
        with pytest.raises(LipForgeError, match=expected):
            load_transcript(path)


def test_load_transcript_refuses_schema_v1(tmp_path, small_transcript):
    """The old layout, with the tree embedded as final_fun, is not read."""
    doc = small_transcript.to_dict()
    del doc["function_sha256"]
    doc.update(schema="lipforge-game/1", final_fun=fun_to_dict(small_transcript.final_fun))
    (tmp_path / "transcript.json").write_text(json.dumps(doc))
    (tmp_path / "function.json").write_bytes(serialize(small_transcript.final_fun))
    with pytest.raises(LipForgeError, match="unknown schema version 'lipforge-game/1'"):
        load_transcript(tmp_path / "transcript.json")


def _count_codec_calls(monkeypatch) -> list:
    """Record every fun_to_dict and fun_from_dict call from here on."""
    import lipforge.game as game_mod
    import lipforge.lipfun as lipfun_mod

    calls = []
    for name in ("fun_to_dict", "fun_from_dict"):
        original = getattr(lipfun_mod, name)

        def wrapper(obj, name=name, original=original):
            calls.append(name)
            return original(obj)

        for mod in (game_mod, lipfun_mod):
            monkeypatch.setattr(mod, name, wrapper)
    return calls


def test_replay_from_memory_encodes_no_tree(monkeypatch, tmp_path, small_setup, small_transcript):
    """Replaying a stay game from an in-memory transcript, or a jitter game
    from a loaded one, reads its MoveRecords and encodes or decodes no
    mapping."""
    domain, target, ops = small_setup
    run_game(domain, target, ops, "jitter", rounds=3, seed=3).save(tmp_path / "transcript.json")
    jitter = load_transcript(tmp_path / "transcript.json")
    calls = _count_codec_calls(monkeypatch)
    replayed = [
        run_game(domain, target, ops, "replay", rounds=tr.k_max, seed=0, replay_transcript=tr)
        for tr in (small_transcript, jitter)
    ]
    assert calls == []
    monkeypatch.undo()
    assert serialize(replayed[0].final_fun) == serialize(small_transcript.final_fun)
    assert serialize(replayed[1].final_fun) == (tmp_path / "function.json").read_bytes()
    assert [rec.move.kind for rec in replayed[1].rounds] == ["jitter"] * 3


def test_explicit_moves_replay_bit_identical(monkeypatch, tmp_path, small_setup):
    """Rounds played with player2_move on explicit move centers, saved and
    loaded, replay to the same function.json without encoding or decoding
    the recorded centers again."""
    domain, target, ops = small_setup
    tr = GameTranscript(domain, ops, nested_nets(target, domain, 3), "explicit")
    f = Scale(0.5, NormOf(2))
    for k in (1, 2, 3):
        if k > 1:
            g_prev, s_prev = tr.previous()
            f = add_const(g_prev, np.array([exact_mpf(s_prev) / 8], dtype=object))
            r = exact_mpf(s_prev) / 4
        else:
            r = exact_mpf(0.5)
        move = Move("explicit", fun=f)
        player2_move(tr, move, validate_move(tr, move, r), r_offered=r)
    tr.save(tmp_path / "transcript.json")
    loaded = load_transcript(tmp_path / "transcript.json")
    assert [(rec.move.kind, rec.move.shift) for rec in loaded.rounds] == [("explicit", None)] * 3
    assert all(serialize(a.move.fun) == serialize(b.move.fun) for a, b in zip(loaded.rounds, tr.rounds))
    calls = _count_codec_calls(monkeypatch)
    replayed = run_game(domain, target, ops, "replay", rounds=3, seed=0, replay_transcript=loaded)
    assert calls == []
    monkeypatch.undo()
    assert serialize(replayed.final_fun) == (tmp_path / "function.json").read_bytes()


def test_transcript_suite_marks_explicit_moves_sampled(small_setup):
    """An explicit move's distance was sampled in play, so the suite checks
    its nesting on the radii alone and says so."""
    domain, target, ops = small_setup
    tr = GameTranscript(domain, ops, nested_nets(target, domain, 2), "explicit")
    f, r = Scale(0.5, NormOf(2)), exact_mpf(0.5)
    for k in (1, 2):
        move = Move("explicit", fun=f)
        player2_move(tr, move, validate_move(tr, move, r), r_offered=r)
        g_prev, s_prev = tr.previous()
        f, r = add_const(g_prev, np.array([exact_mpf(s_prev) / 8], dtype=object)), exact_mpf(s_prev) / 4
    results = {c.name: c for c in verify.transcript_suite(tr)}
    assert all(c.ok for c in results.values())
    assert results["round 2 move nested in round 1"].detail == "distance sampled in play"


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("move", "stay", "round move is not a record"),
        ("move", None, "round move is not a record"),
        ("move", {"kind": "wobble"}, "unknown move kind 'wobble'"),
        ("move", {"shift": ["0.5"]}, "unknown move kind None"),
        ("move", {"kind": "jitter"}, "jitter move without shift"),
        ("move", {"kind": "jitter", "shift": ["nan"]}, "jitter shift is not finite"),
        ("move", {"kind": "jitter", "shift": ["inf"]}, "jitter shift is not finite"),
        ("move", {"kind": "explicit"}, "explicit move without fun"),
        ("round", 0, "round record 2 is numbered 0"),
        ("round", 3, "round record 2 is numbered 3"),
        ("op_index", 2, "round 2 names operator 2 of 2"),
        ("op_index", -1, "round 2 names operator -1 of 2"),
        ("round", 2.5, "bad transcript record"),
        ("round", "2", "bad transcript record"),
        ("op_index", True, "bad transcript record"),
        ("net_size", 9.0, "bad transcript record"),
    ],
)
def test_load_transcript_refuses_bad_rounds(tmp_path, small_transcript, field, value, message):
    """A stored round is refused when its move cannot be replayed, or when it
    is out of sequence or names no operator (probe and verify index nets and
    operators by them)."""
    small_transcript.save(tmp_path / "transcript.json")
    doc = json.loads((tmp_path / "transcript.json").read_text())
    doc["rounds"][1][field] = value
    (tmp_path / "transcript.json").write_text(json.dumps(doc))
    with pytest.raises(LipForgeError, match=message):
        load_transcript(tmp_path / "transcript.json")


@pytest.mark.parametrize("field, value", [("seed", True), ("seed", 0.0), ("dps", "60"), ("dps", 60.5)])
def test_load_transcript_refuses_a_header_integer_that_is_not_an_integer(tmp_path, small_transcript, field, value):
    small_transcript.save(tmp_path / "transcript.json")
    doc = json.loads((tmp_path / "transcript.json").read_text())
    doc[field] = value
    (tmp_path / "transcript.json").write_text(json.dumps(doc))
    with pytest.raises(LipForgeError, match="bad transcript record"):
        load_transcript(tmp_path / "transcript.json")


@pytest.mark.parametrize("dps", [0, -3])
def test_working_precision_below_one_is_refused(tmp_path, small_setup, small_transcript, dps):
    """run_game refuses dps < 1 before it plays a round, and load_transcript
    refuses a stored one."""
    domain, target, ops = small_setup
    with pytest.raises(LipForgeError, match=f"working precision must be at least 1 digit \\(got dps {dps}\\)"):
        run_game(domain, target, ops, "stay", rounds=2, dps=dps)
    small_transcript.save(tmp_path / "transcript.json")
    doc = json.loads((tmp_path / "transcript.json").read_text())
    doc["dps"] = dps
    (tmp_path / "transcript.json").write_text(json.dumps(doc))
    with pytest.raises(LipForgeError, match="^malformed artifact: working precision must be at least 1 digit"):
        load_transcript(tmp_path / "transcript.json")


def test_run_game_returns_the_record_it_played_into(monkeypatch, small_setup):
    domain, target, ops = small_setup
    played, inner = [], game.player2_move

    def spy(tr, *args, **kwargs):
        played.append(tr)
        return inner(tr, *args, **kwargs)

    monkeypatch.setattr(game, "player2_move", spy)
    tr = run_game(domain, target, ops, "stay", rounds=3, seed=0)
    assert len(played) == 3 and all(p is tr for p in played)
    assert tr.final_fun is tr.rounds[-1].reply_fun


def test_low_precision_failure_names_its_precision(small_setup):
    """On the 0.2 grid the affine layer's constants, rounded at 4 digits,
    miss the outer mapping on the patch spheres; the error says so."""
    domain, target, ops = small_setup
    with pytest.raises(LipForgeError, match=r"^round 2: patch boundary mismatch .* in the affine layer, "
                                            r"whose constants are rounded at dps 4$"):
        run_game(domain, target, ops, "stay", rounds=3, dps=4)


@pytest.mark.parametrize("out_norm", list(NormKind), ids=lambda k: k.value)
@pytest.mark.parametrize("in_norm", list(NormKind), ids=lambda k: k.value)
def test_every_norm_pair_plays_a_certified_game(in_norm, out_norm):
    """A 4-round stay game into R^2 on a box in the in-norm, for each of the
    nine (in, out) norm pairs: every witness meets 4/k and both suites pass."""
    domain = Domain.box([0.0, 0.0], [1.0, 1.0], in_norm)
    target = TargetSet.grid([0.0, 0.0], [1.0, 1.0], 0.25)
    m = np.array([[0.3, 0.1], [-0.1, 0.2]])
    ops = (LinearMap(m, in_norm, out_norm), LinearMap(-m, in_norm, out_norm))
    tr = run_game(domain, target, ops, "stay", rounds=4, seed=0)
    assert tr.out_dim == 2 and tr.out_norm is out_norm
    probes = witness_bound_report(tr)
    assert len(probes) == 28 and all(p.ok for p in probes)
    results = verify.transcript_suite(tr) + verify.artifact_suite(tr.final_fun)
    assert [r.name for r in results if not r.ok] == []


def test_run_game_at_one_digit(small_setup):
    """One digit is the floor: a stay game on the 0.25 grid still plays every round."""
    domain, _, ops = small_setup
    target = TargetSet.grid([0.0, 0.0], [1.0, 1.0], 0.25)
    assert run_game(domain, target, ops, "stay", rounds=3, dps=1).k_max == 3


@pytest.mark.parametrize("dps", [15, 20])
def test_run_game_below_the_construction_precision(dps):
    """Parameters rounded at a low working precision pass the checks made at
    that precision, and the run passes the transcript and artifact suites."""
    domain = Domain.box([0.0, 0.0], [1.0, 1.0])
    target = TargetSet.grid([0.0, 0.0], [1.0, 1.0], 0.25)
    ops = (LinearMap(np.array([[0.5, 0.0]])), LinearMap(np.array([[-0.5, 0.0]])))
    tr = run_game(domain, target, ops, "stay", rounds=4, seed=0, dps=dps)
    assert tr.k_max == 4 and tr.dps == dps
    results = verify.transcript_suite(tr) + verify.artifact_suite(tr.final_fun)
    assert [r.name for r in results if not r.ok] == []


def test_transcript_operators_and_levels_use_the_map_codec(small_transcript):
    """Operators are written as lipfun writes a LinearMap and net levels as
    encoded vectors; for float operators these are repr strings."""
    doc = small_transcript.to_dict()
    assert doc["operators"][0] == {"matrix": [["0.5", "0.0"]], "in_norm": "euclidean", "out_norm": "euclidean"}
    assert doc["net_levels"][1] == [[repr(float(x)) for x in p] for p in small_transcript.nets.level(2)]


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
    assert tr.rounds[1].move.kind == "jitter"
    assert tr.rounds[1].move.shift is not None


def test_eval_point_is_its_eval_batch_row_near_deep_patches():
    """A 4-round stay game on the 0.25 grid with the operators +-[[0.3, 0.1]]:
    each of 180 points within 1e-8 of a level-2 centre, 20 around each, has
    the bits alone that its row has in one eval_batch call of them all. A
    patch evaluates its rows as one group, and a BLAS matrix product took
    another kernel for a one-row group."""
    domain = Domain.box([0.0, 0.0], [1.0, 1.0])
    target = TargetSet.grid([0.0, 0.0], [1.0, 1.0], 0.25)
    ops = [LinearMap(np.array([[0.3, 0.1]])), LinearMap(np.array([[-0.3, -0.1]]))]
    tr = run_game(domain, target, ops, "stay", rounds=4, seed=0)
    rng = np.random.default_rng(0)
    pts = np.array([c + 1e-8 * rng.uniform(-1, 1, 2) for c in tr.nets.levels[1] for _ in range(20)])
    f = tr.final_fun
    assert len(pts) == 180
    batch = eval_batch(f, pts)
    for p, row in zip(pts, batch):
        assert eval_point(f, p).tobytes() == row.tobytes()


def test_run_game_makes_no_full_collection(acceptance_run):
    """run_game runs with the cyclic collector paused: no generation-2
    collection starts inside it on the standard run, and the collector is
    on again after it."""
    a = acceptance_run
    inside, full = [], []

    def on_collect(phase, info):
        if phase == "start" and info["generation"] == 2 and inside:
            full.append(info)

    gc.callbacks.append(on_collect)
    try:
        inside.append("run_game")
        tr = run_game(a.domain, a.target, a.operators, "stay", rounds=8, seed=0)
        inside.clear()
    finally:
        gc.callbacks.remove(on_collect)
    assert tr.k_max == 8
    assert full == []
    assert gc.isenabled()
