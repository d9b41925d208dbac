"""Seeded one-field mutations of both artifacts of a smoke-size jitter run.

Each case replaces one field (an object member or a list element, at any
depth) of function.json or transcript.json with a value from a fixed list
and must end in a LipForgeError or a usable result: for function.json a
mapping whose lip_cert and eval_batch work, for transcript.json a transcript
whose transcript_suite runs and that replays to a mapping with finite
values. The cases are drawn from a seeded generator, so every run tries the
same ones.
"""

import json
import random

import numpy as np
import pytest
from mpmath import mp
from mpmath.libmp import from_int, from_man_exp, mpf_add, mpf_mul, mpf_sub

from lipforge import (
    Domain, LinearMap, LipForgeError, TargetSet, deserialize, eval_batch, load_transcript, run_game, serialize, verify,
)
from lipforge.cli import main
from lipforge.lipfun import fun_from_dict
from lipforge.numerics import decode_scalar, encode_scalar, exact_raw

VALUES = [None, "nan", "inf", -1, 0, [], {}, "x", "1e400", True, {"m": "x"}]
LO, HI, STEP = [0.0, 0.0], [1.0, 1.0], 0.25
POINTS = np.array([[0.3, 0.6], [0.5, 0.5]])


def _paths(obj, prefix=()):
    """Paths to every member and element below obj, in document order."""
    if isinstance(obj, dict):
        items = obj.items()
    elif isinstance(obj, list):
        items = enumerate(obj)
    else:
        return
    for key, value in items:
        yield prefix + (key,)
        yield from _paths(value, prefix + (key,))


def _mutations(doc, count, seed):
    """`count` copies of doc, each with one field replaced by a value of VALUES."""
    paths = list(_paths(doc))
    rng = random.Random(seed)
    for _ in range(count):
        path, value = rng.choice(paths), rng.choice(VALUES)
        copy = json.loads(json.dumps(doc))
        node = copy
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
        yield path, value, copy


@pytest.fixture(scope="module")
def jitter_pair(tmp_path_factory):
    out = tmp_path_factory.mktemp("pair")
    ops = [LinearMap(np.array([[0.5, 0.0]])), LinearMap(np.array([[-0.5, 0.0]]))]
    run_game(Domain.box(LO, HI), TargetSet.grid(LO, HI, STEP), ops, "jitter", rounds=3, seed=0).save(
        out / "transcript.json"
    )
    return out


def _escapes(cases, attempt):
    escaped = []
    for path, value, doc in cases:
        try:
            attempt(doc)
        except LipForgeError:
            pass
        except Exception as e:  # any other exception is the failure under test
            escaped.append(f"{'/'.join(map(str, path))} = {value!r}: {type(e).__name__}: {e}")
    return escaped


def test_function_json_mutations_end_in_a_mapping_or_a_diagnostic(jitter_pair):
    """Each mutated function.json ends in a mapping or a diagnostic, and in
    the same one whether deserialize reads its bytes or fun_from_dict its
    parsed document."""
    doc = json.loads((jitter_pair / "function.json").read_bytes())

    def attempt(mutated):
        try:
            from_bytes = serialize(deserialize(json.dumps(mutated).encode()))
        except LipForgeError as e:
            from_bytes = str(e)
        try:
            f = fun_from_dict(mutated)
        except LipForgeError as e:
            assert from_bytes == str(e)
            raise
        assert from_bytes == serialize(f)
        f.lip_cert
        eval_batch(f, POINTS)

    escaped = _escapes(_mutations(doc, 400, seed=1), attempt)
    assert not escaped, f"{len(escaped)} of 400 escaped:\n" + "\n".join(escaped[:20])


def test_transcript_json_mutations_end_in_a_replay_or_a_diagnostic(jitter_pair, tmp_path):
    doc = json.loads((jitter_pair / "transcript.json").read_bytes())
    (tmp_path / "function.json").write_bytes((jitter_pair / "function.json").read_bytes())
    target = TargetSet.grid(LO, HI, STEP)

    def attempt(mutated):
        (tmp_path / "transcript.json").write_text(json.dumps(mutated))
        tr = load_transcript(tmp_path / "transcript.json")
        try:
            verify.transcript_suite(tr)
        except LipForgeError:
            pass
        replayed = run_game(
            tr.domain, target, tr.operators, "replay",
            rounds=tr.k_max, seed=tr.seed, dps=tr.dps, replay_transcript=tr,
        )
        values = eval_batch(replayed.final_fun, POINTS)
        if not np.all(np.isfinite(values)):
            raise AssertionError(f"replay evaluates to {values.tolist()}")

    escaped = _escapes(_mutations(doc, 300, seed=2), attempt)
    assert not escaped, f"{len(escaped)} of 300 escaped:\n" + "\n".join(escaped[:20])


def _set(path, value):
    def edit(doc):
        node = doc
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value

    return edit


def _drop_last_net_level(doc):
    doc["net_levels"].pop()


REFUSED = {
    "s-nan": (_set(("rounds", 0, "s"), "nan"), "non-finite numeral"),
    "alpha-1e400": (_set(("rounds", 0, "alpha"), "1e400"), "non-finite numeral"),
    "beta-inf": (_set(("rounds", 2, "beta"), "inf"), "non-finite numeral"),
    "net-point-nan": (_set(("net_levels", 1, 0, 0), "nan"), "non-finite numeral"),
    "net-point-beyond-float": (_set(("net_levels", 1, 0, 0), {"m": "1", "e": "2000"}), "non-finite numeral"),
    "tail_bound-nan": (_set(("tail_bound",), "nan"), "non-finite numeral"),
    "tail_bound-not-s": (_set(("tail_bound",), "0.125"), "tail_bound is not the last round's s"),
    "net_size-99": (_set(("rounds", 0, "net_size"), 99), "round 1 has net_size 99"),
    "net_size-past-the-levels": (_drop_last_net_level, "round 3 has net_size"),
    "r_accepted-false": (_set(("rounds", 1, "r_accepted"), False), "bad numeral False"),
    "mantissa-true": (_set(("rounds", 1, "r_offered", "m"), True), "bad scalar"),
    "exponent-not-a-string": (_set(("rounds", 1, "r_offered", "e"), -1), "bad scalar"),
    "domain-hi-inf": (_set(("domain", "hi", 1), "inf"), "non-finite numeral"),
    "no-rounds": (_set(("rounds",), []), "tail_bound is not the last round's s"),
    "jitter-shift-empty": (_set(("rounds", 2, "move", "shift"), []), "round 3 jitter shift has 0 entries"),
    "jitter-shift-too-long": (_set(("rounds", 0, "move", "shift"), ["0.0", "0.0"]), "round 1 jitter shift has 2 entries"),
    "net-point-on-boundary": (_set(("net_levels", 2, 0, 0), "0.0"), "level 3 violates the boundary margin"),
    "net-point-outside": (_set(("net_levels", 2, 0, 0), "-1.0"), "point outside domain"),
    "operators-empty": (_set(("operators",), []), "no target operators"),
    "op_index-not-round-robin": (_set(("rounds", 2, "op_index"), 1),
                                 "round 3 names operator 1 of 2, its round-robin operator is 0"),
}


@pytest.mark.parametrize("edit, message", REFUSED.values(), ids=REFUSED.keys())
def test_transcript_json_refuses_non_finite_and_inconsistent_fields(jitter_pair, tmp_path, edit, message):
    """A transcript whose numerals are not finite or not written as numerals,
    whose derived fields (tail_bound, net_size) disagree with the rounds and
    nets, whose jitter shift cannot be added to the mapping or whose net
    points leave the domain's margins, is refused when it is loaded, so
    verify and probe never see it."""
    doc = json.loads((jitter_pair / "transcript.json").read_bytes())
    (tmp_path / "function.json").write_bytes((jitter_pair / "function.json").read_bytes())
    edit(doc)
    (tmp_path / "transcript.json").write_text(json.dumps(doc))
    with pytest.raises(LipForgeError, match=message):
        load_transcript(tmp_path / "transcript.json")


def _scalar(obj) -> tuple:
    return exact_raw(decode_scalar(obj))


def _rho_bound_past_the_reply_ball(doc):
    """Round 2's rho_bound + s exceeds r_accepted by 2^-200."""
    rec = doc["rounds"][1]
    excess = mpf_add(mpf_sub(_scalar(rec["r_accepted"]), _scalar(rec["s"])), from_man_exp(1, -200))
    rec["rho_bound"] = encode_scalar(mp.make_mpf(excess))


def _jitter_shift_times_ten(doc):
    rec = doc["rounds"][1]
    rec["move"]["shift"] = [encode_scalar(mp.make_mpf(mpf_mul(_scalar(x), from_int(10)))) for x in rec["move"]["shift"]]


def _accepted_radius_one(doc):
    doc["rounds"][1]["r_accepted"] = encode_scalar(mp.mpf(1))


UNNESTED = {
    "rho_bound-over-by-2^-200": (_rho_bound_past_the_reply_ball, "round 2 reply ball nested"),
    "jitter-shift-times-10": (_jitter_shift_times_ten, "round 2 move nested in round 1"),
    "r_accepted-one": (_accepted_radius_one, "round 2 move nested in round 1"),
}


@pytest.mark.parametrize("edit, failing", UNNESTED.values(), ids=UNNESTED.keys())
def test_transcript_suite_decides_nesting_exactly(jitter_pair, tmp_path, edit, failing):
    """A reply ball that leaves the accepted ball by 2^-200, below the
    resolution of 53 bits, a stored jitter shift too long for its ball, or
    an accepted radius larger than the previous reply's, fails exactly the
    one nesting check."""
    doc = json.loads((jitter_pair / "transcript.json").read_bytes())
    (tmp_path / "function.json").write_bytes((jitter_pair / "function.json").read_bytes())
    edit(doc)
    (tmp_path / "transcript.json").write_text(json.dumps(doc))
    results = verify.transcript_suite(load_transcript(tmp_path / "transcript.json"))
    assert [r.name for r in results if not r.ok] == [failing]


@pytest.mark.parametrize("command", ["verify", "probe"])
def test_cli_reports_a_nan_round_scalar_as_an_error(jitter_pair, tmp_path, capsys, command):
    doc = json.loads((jitter_pair / "transcript.json").read_bytes())
    doc["rounds"][0]["s"] = "nan"
    (tmp_path / "function.json").write_bytes((jitter_pair / "function.json").read_bytes())
    (tmp_path / "transcript.json").write_text(json.dumps(doc))
    args = ["--artifact", str(tmp_path / "function.json"), "--transcript", str(tmp_path / "transcript.json")]
    assert main([command, *args] + (["--out", str(tmp_path / "out")] if command == "probe" else [])) == 1
    assert "error: malformed artifact: non-finite numeral" in capsys.readouterr().err


def _misplace_in_function(place):
    def edit(fun_doc, root):
        leaf = {"kind": "norm_of", "in_dim": 2, "sign": 1, "norm": "euclidean"}
        fun_doc["root"] = {
            "scale-c": {"kind": "scale", "c": root, "f": leaf},
            "vector-entry": {"kind": "const", "c": ["0.5", root], "in_dim": 2},
            "norm": dict(leaf, norm=root),
            "node-kind": {"kind": root},
            "long-vector": {"kind": "const", "c": ["nan"] + ["0.5"] * 5000, "in_dim": 2},
            "long-numeral": {"kind": "scale", "c": "x" * 5000, "f": leaf},
        }.get(place, leaf)
        if place == "schema":
            fun_doc["schema"] = root

    return edit


# The jitter pair's root record with its child record decoded, as the
# function.json decoder quotes it: the child by its kind, in full.
_ROOT_QUOTED = "{'kind': 'add_const', 'f': <scale record>, 'p': [{'m': '"

MISPLACED = {
    **{place: ("function.json", _misplace_in_function(place), prefix) for place, prefix in (
        ("scale-c", "malformed artifact: bad scalar " + _ROOT_QUOTED),
        ("vector-entry", "malformed artifact: bad scalar " + _ROOT_QUOTED),
        ("norm", "unknown norm " + _ROOT_QUOTED),
        ("node-kind", "malformed artifact: unknown node kind " + _ROOT_QUOTED),
        ("long-vector", "malformed artifact: non-finite numeral in ['nan', '0.5', "),
        ("long-numeral", "malformed artifact: bad numeral 'xxx"),
        ("schema", "unknown schema version " + _ROOT_QUOTED),
    )},
    "move-kind": ("transcript.json", lambda doc, root: doc["rounds"][1].update(move={"kind": "x" * 5000}),
                  "malformed artifact: unknown move kind 'xxx"),
    "game-schema": ("transcript.json", lambda doc, root: doc.update(schema=root), "unknown schema version {'kind': "),
}


@pytest.mark.parametrize("name, edit, prefix", MISPLACED.values(), ids=MISPLACED.keys())
def test_a_diagnostic_quotes_at_most_200_characters_of_a_value(jitter_pair, tmp_path, name, edit, prefix):
    """A malformed value is quoted in its first 200 characters and '...': a
    long vector or numeral, a long move kind, the whole tree's root record
    as the transcript's schema. The root record misplaced in function.json
    as a scalar, a norm, a node kind or a schema is quoted whole, as its
    child record shows by its kind."""
    root = json.loads((jitter_pair / "function.json").read_bytes())["root"]
    for part in ("function.json", "transcript.json"):
        (tmp_path / part).write_bytes((jitter_pair / part).read_bytes())
    doc = json.loads((tmp_path / name).read_bytes())
    edit(doc, root)
    (tmp_path / name).write_text(json.dumps(doc))
    with pytest.raises(LipForgeError) as info:
        if name == "function.json":
            deserialize((tmp_path / name).read_bytes())
        else:
            load_transcript(tmp_path / name)
    message = str(info.value)
    assert message.startswith(prefix) and len(message) <= 300, (len(message), message[:400])
    assert message.endswith("...") != prefix.endswith(_ROOT_QUOTED) and "\n" not in message, message


# A JSON integer of 5,001 digits, past the 4,300 that int() converts by default.
_LONG_INT = "1" + "0" * 5000

LONG_INTS = {
    "in-dim": ('{"schema":"lipforge-fun/1","root":{"kind":"const","c":["0.5"],"in_dim":%s}}',
               "malformed artifact: bad const node"),
    "vector-entry": ('{"schema":"lipforge-fun/1","root":{"kind":"const","c":["0.5",-%s],"in_dim":2}}',
                     "malformed artifact: bad numeral -1000"),
    "norm": ('{"schema":"lipforge-fun/1","root":{"kind":"norm_of","in_dim":2,"sign":1,"norm":%s}}',
             "unknown norm 1000"),
    "schema-first": ('{"schema":"lipforge-fun/0","root":{"kind":"const","c":["0.5"],"in_dim":%s}}',
                     "unknown schema version 'lipforge-fun/0'"),
}


@pytest.mark.parametrize("text, prefix", LONG_INTS.values(), ids=LONG_INTS.keys())
def test_an_integer_past_the_digit_limit_is_a_diagnostic(tmp_path, capsys, text, prefix):
    """An integer too long for int() is refused where it stands, after the
    schema, and quoted as written; the command line prints one error line."""
    path = tmp_path / "function.json"
    path.write_text(text % _LONG_INT)
    with pytest.raises(LipForgeError) as info:
        deserialize(path.read_bytes())
    message = str(info.value)
    assert message.startswith(prefix) and len(message) <= 300, message[:400]
    args = ["--artifact", str(path), "--out", str(tmp_path / "eval"), "--lo", "0 0", "--hi", "1 1", "--per-axis", "2"]
    assert main(["eval", *args]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: " + prefix), err[:400]
