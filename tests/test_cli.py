import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import lipforge
from lipforge import cli
from lipforge.cli import load_config, main
from lipforge.numerics import LipForgeError

SMALL_CONFIG = """\
[domain]
shape = box
lo = 0 0
hi = 1 1
norm = euclidean

[target]
kind = grid
step = 0.2

[operators]
rows = 1
op1 = 0.5 0
op2 = -0.5 0

[game]
rounds = 3
adversary = stay
seed = 0
dps = 60

[probe]
per_round = 1
min_round = 1
"""


@pytest.fixture
def config_path(tmp_path):
    p = tmp_path / "run.ini"
    p.write_text(SMALL_CONFIG)
    return p


def test_load_config(config_path):
    cfg = load_config(str(config_path))
    assert cfg.rounds == 3
    assert cfg.adversary == "stay"
    assert len(cfg.operators) == 2
    assert cfg.operators[0].op_norm == pytest.approx(0.5)
    assert len(cfg.target) == 16


def test_probe_section_is_not_read(tmp_path):
    """Probe settings are flags of `lipforge probe`; a config's [probe]
    section loads and configures nothing, even with values that are not
    numbers or a direction of the wrong dimension."""
    p = tmp_path / "probe.ini"
    p.write_text(SMALL_CONFIG + "dini_direction = 1 0 0\nladder_ratio = half\nbudget = many\n")
    cfg = load_config(str(p))
    assert cfg.rounds == 3 and len(cfg.operators) == 2
    assert not any(hasattr(cfg, key) for key in ("per_round", "min_round", "dini_direction", "probe_budget"))


def test_load_config_diagnostics(tmp_path):
    p = tmp_path / "bad.ini"
    p.write_text("[domain]\nshape = box\nlo = 0 0\n")
    with pytest.raises(LipForgeError, match=r"\[domain\] hi"):
        load_config(str(p))
    p2 = tmp_path / "bad2.ini"
    p2.write_text(SMALL_CONFIG.replace("rounds = 3", "rounds = three"))
    with pytest.raises(LipForgeError, match=r"\[game\] rounds"):
        load_config(str(p2))


@pytest.mark.parametrize(
    "section, line",
    [
        ("game", "round = 1"),
        ("game", "sup_budget = 5"),
        ("domain", "step = 0.1"),
        ("target", "steps = 0.1"),
        ("target", "count = 5"),
        ("operators", "op4 = 0.25 0"),
    ],
)
def test_load_config_refuses_unknown_keys(tmp_path, capsys, section, line):
    """A key that load_config does not read, such as a misspelt one, one the
    settings do not use (count with grid targets) or an operator after a
    gap, is refused by name instead of being ignored."""
    p = tmp_path / "typo.ini"
    p.write_text(SMALL_CONFIG.replace(f"[{section}]\n", f"[{section}]\n{line}\n"))
    key = line.split(" = ")[0]
    with pytest.raises(LipForgeError, match=rf"\[{section}\] {key}: unused key"):
        load_config(str(p))
    assert main(["construct", "--config", str(p), "--out", str(tmp_path / "out")]) == 1
    assert f"[{section}] {key}: unused key" in capsys.readouterr().err


GRID_TARGET = "[target]\nkind = grid\nstep = 0.2\n"


@pytest.mark.parametrize("old, new, points, message", [
    ("op1 = 0.5 0", "op1 = 0.5 x", None, r"\[operators\] op1: not a list of decimals: '0.5 x'"),
    (GRID_TARGET, "[target]\nkind = halton\ncount = 9\nseed = abc\n", None, r"\[target\] seed: invalid literal"),
    (GRID_TARGET, "[target]\nkind = points\nfile = pts.txt\n", "0.2 0.3\n0.2 z\n",
     r"\[target\] file: not a list of decimals: '0.2 z'"),
    (GRID_TARGET, "[target]\nkind = points\nfile = pts.txt\n", "0.2 0.3\n0.4\n",
     r"\[target\] file: .*pts.txt: points of different dimensions"),
    ("step = 0.2", "step = nan", None, r"\[target\] step: grid step must be positive and finite"),
    (GRID_TARGET, "[target]\nkind = halton\ncount = 0\n", None, r"\[target\] count: need at least one target point"),
    (GRID_TARGET, "[target]\nkind = halton\ncount = -5\n", None, r"\[target\] count: need at least one target point"),
    ("dps = 60", "dps = 0", None, r"\[game\] dps: working precision must be at least 1 digit"),
    ("dps = 60", "dps = -3", None, r"\[game\] dps: working precision must be at least 1 digit"),
], ids=["operator", "halton-seed", "points-entry", "points-ragged", "grid-step-nan", "halton-count-zero",
        "halton-count-negative", "dps-zero", "dps-negative"])
def test_load_config_reports_a_bad_value_by_key(tmp_path, capsys, old, new, points, message):
    """A value that does not parse ends construct with one error line naming
    its section and key, not a traceback or a run without targets."""
    p = tmp_path / "bad.ini"
    p.write_text(SMALL_CONFIG.replace(old, new))
    if points is not None:
        (tmp_path / "pts.txt").write_text(points)
    with pytest.raises(LipForgeError, match=message):
        load_config(str(p))
    assert main(["construct", "--config", str(p), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: config ") and err.count("\n") == 1
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("kind", ["replay", "confuse"])
def test_config_adversary_is_stay_or_jitter(tmp_path, capsys, kind):
    """A config names no transcript, so it cannot set the replay adversary;
    any kind other than stay or jitter is refused at load, naming both."""
    p = tmp_path / "adv.ini"
    p.write_text(SMALL_CONFIG.replace("adversary = stay", f"adversary = {kind}"))
    with pytest.raises(LipForgeError, match=rf"\[game\] adversary: unknown adversary '{kind}'; expected stay or jitter"):
        load_config(str(p))
    assert main(["construct", "--config", str(p), "--out", str(tmp_path / "out")]) == 1
    assert "[game] adversary" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
    p.write_text(SMALL_CONFIG.replace("adversary = stay", "adversary = Jitter"))
    assert load_config(str(p)).adversary == "jitter"


def test_construct_probe_verify_pipeline(config_path, tmp_path, capsys):
    out = tmp_path / "out"
    rc = main(["construct", "--config", str(config_path), "--out", str(out)])
    assert rc == 0
    captured = capsys.readouterr()
    assert "tail bound" in captured.out
    assert (out / "transcript.json").exists()
    assert (out / "function.json").exists()
    assert (out / "nets.csv").exists()

    rc = main(
        [
            "probe",
            "--artifact",
            str(out / "function.json"),
            "--transcript",
            str(out / "transcript.json"),
            "--out",
            str(out),
            "--plot",
        ]
    )
    assert rc == 0
    captured = capsys.readouterr()
    assert "meeting 4/k bound" in captured.out
    assert (out / "probe_report.csv").exists()
    assert (out / "probe_summary.txt").exists()
    assert (out / "dq_scales.svg").exists()
    header = (out / "probe_report.csv").read_text().splitlines()[0]
    assert header == "k,x1,x2,op,scale,dq,bound,ok"

    rc = main(
        [
            "verify",
            "--artifact",
            str(out / "function.json"),
            "--transcript",
            str(out / "transcript.json"),
        ]
    )
    assert rc == 0


def test_construct_deterministic_bytes(config_path, tmp_path):
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    assert main(["construct", "--config", str(config_path), "--out", str(out1)]) == 0
    assert main(["construct", "--config", str(config_path), "--out", str(out2)]) == 0
    for name in ("transcript.json", "function.json", "nets.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name


def test_construct_rejects_operator_norm_one(config_path, tmp_path, capsys):
    bad = tmp_path / "bad.ini"
    bad.write_text(SMALL_CONFIG.replace("op1 = 0.5 0", "op1 = 1.0 0"))
    rc = main(["construct", "--config", str(bad), "--out", str(tmp_path / "o")])
    assert rc != 0
    captured = capsys.readouterr()
    assert "operator norm must be < 1" in captured.err


def test_probe_missing_artifact(tmp_path, capsys):
    rc = main(
        [
            "probe",
            "--artifact",
            str(tmp_path / "missing.json"),
            "--transcript",
            str(tmp_path / "missing2.json"),
            "--out",
            str(tmp_path),
        ]
    )
    assert rc != 0
    assert "artifact not found" in capsys.readouterr().err


@pytest.mark.parametrize("case", ["verify-dir", "eval-dir", "config-dir", "config-latin1", "out-file"])
def test_file_errors_are_one_error_line(config_path, tmp_path, capsys, case):
    """A directory given as an artifact or a config, a config that is not
    UTF-8 and an --out that is a file each end in one error line, exit 1."""
    art, conf, out = str(tmp_path / "dir"), str(config_path), str(tmp_path / "out")
    (tmp_path / "dir").mkdir()
    if case == "config-dir":
        conf = art
    elif case == "config-latin1":
        config_path.write_bytes(SMALL_CONFIG.replace("[game]", "[game]\n# r\xe9glages").encode("latin-1"))
    elif case == "out-file":
        Path(out).write_text("")
    argv = {"verify-dir": ["verify", "--artifact", art],
            "eval-dir": ["eval", "--artifact", art, "--out", out, "--lo", "0 0", "--hi", "1 1"]}.get(
        case, ["construct", "--config", conf, "--out", out])
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    message = {"verify-dir": f"artifact {art}: Is a directory", "eval-dir": f"artifact {art}: Is a directory",
               "config-dir": f"config {art}: Is a directory", "config-latin1": "not UTF-8 text",
               "out-file": "File exists"}[case]
    assert message in err


def test_probe_and_verify_refuse_another_function_json(tmp_path, capsys):
    """A function.json changed by one byte, or written by another seed's
    run, ends probe and verify with an error line, not a traceback."""
    jitter = tmp_path / "jitter.ini"
    jitter.write_text(SMALL_CONFIG.replace("adversary = stay", "adversary = jitter"))
    for seed in ("0", "1"):
        assert main(["construct", "--config", str(jitter), "--out", str(tmp_path / seed), "--seed", seed]) == 0
    art, tr = tmp_path / "0" / "function.json", tmp_path / "0" / "transcript.json"
    good = art.read_bytes()
    other = (tmp_path / "1" / "function.json").read_bytes()
    assert other != good
    i = good.index(b"0.")
    for data in (good[:i] + b"1" + good[i + 1:], other):
        art.write_bytes(data)
        capsys.readouterr()
        assert main(["probe", "--artifact", str(art), "--transcript", str(tr), "--out", str(tmp_path / "p")]) == 1
        assert main(["verify", "--artifact", str(art), "--transcript", str(tr)]) == 1
        err = capsys.readouterr().err
        assert err.count("error: artifact mismatch") == 2
        assert "Traceback" not in err


def test_probe_and_verify_decode_the_tree_once(config_path, tmp_path, monkeypatch):
    """probe and verify read the artifact pair with one decode of the tree."""
    import lipforge.lipfun as lipfun_mod

    out = tmp_path / "out"
    assert main(["construct", "--config", str(config_path), "--out", str(out)]) == 0
    decoded = []
    original = lipfun_mod.fun_from_dict

    def counting(obj):
        decoded.append(obj)
        return original(obj)

    monkeypatch.setattr(lipfun_mod, "fun_from_dict", counting)
    pair = ["--artifact", str(out / "function.json"), "--transcript", str(out / "transcript.json")]
    assert main(["probe", *pair, "--out", str(out)]) == 0
    assert len(decoded) == 1
    assert main(["verify", *pair]) == 0
    # the pair once, plus the artifact suite's own serialize/deserialize check
    assert len(decoded) == 1 + 2


def test_verify_transcript_alone_checks_its_mapping(config_path, tmp_path, capsys):
    """verify --transcript without --artifact loads function.json beside it
    and runs the same checks as the pair form."""
    out = tmp_path / "out"
    assert main(["construct", "--config", str(config_path), "--out", str(out)]) == 0
    capsys.readouterr()
    assert main(["verify", "--artifact", str(out / "function.json"), "--transcript", str(out / "transcript.json")]) == 0
    pair = capsys.readouterr().out
    assert main(["verify", "--transcript", str(out / "transcript.json")]) == 0
    alone = capsys.readouterr().out
    assert "artifact patch continuity" in alone
    assert alone == pair


def test_verify_refuses_an_explicit_move(config_path, tmp_path, capsys):
    """A round whose move carries its own mapping, an explicit move, is no
    move kind: its distance to the previous reply could only be sampled."""
    out = tmp_path / "out"
    assert main(["construct", "--config", str(config_path), "--out", str(out)]) == 0
    doc = json.loads((out / "transcript.json").read_text())
    doc["rounds"][1]["move"] = {"kind": "explicit", "fun": json.loads((out / "function.json").read_text())}
    (out / "transcript.json").write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["verify", "--transcript", str(out / "transcript.json")]) == 1
    err = capsys.readouterr().err
    assert err.count("error: ") == 1
    assert "malformed artifact: unknown move kind 'explicit'" in err
    assert "Traceback" not in err


def test_verify_selftest(capsys):
    rc = main(["verify"])
    assert rc == 0
    out = capsys.readouterr().out
    # the blend, Lipschitz, net and perturbation suites of stock_selftest
    assert out.endswith("92/92 checks passed\n")


def test_verify_corrupted_artifact(config_path, tmp_path, capsys):
    out = tmp_path / "out"
    main(["construct", "--config", str(config_path), "--out", str(out)])
    art = out / "function.json"
    obj = json.loads(art.read_text())

    def corrupt(node):
        # nudge the first planted affine base: breaks patch-boundary continuity
        if node.get("kind") == "affine" and isinstance(node.get("base"), list) and node["base"]:
            entry = node["base"][0]
            if isinstance(entry, dict):
                node["base"][0] = {"m": str(int(entry["m"]) + 10**40), "e": entry["e"]}
            else:
                node["base"][0] = repr(float(entry) + 0.25)
            return True
        for v in node.values():
            if isinstance(v, dict) and corrupt(v):
                return True
            if isinstance(v, list):
                for item in v:
                    if isinstance(item, dict) and corrupt(item):
                        return True
        return False

    assert corrupt(obj["root"])
    art.write_text(json.dumps(obj))
    rc = main(["verify", "--artifact", str(art)])
    assert rc == 1
    out_text = capsys.readouterr().out
    assert "FAIL" in out_text


def test_verify_a_zero_dimensional_patched_artifact(tmp_path, capsys):
    """R^0 is one point, which the patch claims, and its patch sphere is
    empty: verify gives a verdict, with no unit vector of R^0 asked for."""
    import numpy as np

    from lipforge import serialize
    from lipforge.lipfun import Const, Patch, Patched

    tree = Patched(Const(np.array([1.0]), 0), (Patch(np.zeros(0), 0.5, Const(np.array([2.0]), 0)),))
    art = tmp_path / "function.json"
    art.write_bytes(serialize(tree))
    assert main(["verify", "--artifact", str(art)]) == 0
    assert capsys.readouterr().out.endswith("3/3 checks passed\n")


def test_eval_command(config_path, tmp_path, capsys):
    out = tmp_path / "out"
    main(["construct", "--config", str(config_path), "--out", str(out)])
    rc = main(
        [
            "eval",
            "--artifact",
            str(out / "function.json"),
            "--out",
            str(out),
            "--lo",
            "0 0",
            "--hi",
            "1 1",
            "--per-axis",
            "5",
        ]
    )
    assert rc == 0
    lines = (out / "eval.csv").read_text().splitlines()
    assert lines[0] == "x1,x2,f1"
    assert len(lines) == 1 + 25


def _run_cli(*args):
    """`python -m lipforge.cli` in a child process, importing this lipforge."""
    env = dict(os.environ)
    src = str(Path(lipforge.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-m", "lipforge.cli", *args], capture_output=True, text=True, env=env)


@pytest.mark.parametrize("per_axis", ["-1", "0"])
def test_eval_refuses_a_grid_without_points(config_path, tmp_path, per_axis):
    """--per-axis below 1 is an error line, not numpy's traceback."""
    out = tmp_path / "out"
    assert main(["construct", "--config", str(config_path), "--out", str(out)]) == 0
    done = _run_cli("eval", "--artifact", str(out / "function.json"), "--out", str(out / "eval"),
                    "--lo", "0 0", "--hi", "1 1", "--per-axis", per_axis)
    assert done.returncode == 1
    assert done.stderr.startswith("error: grid needs at least one point per axis")
    assert "Traceback" not in done.stderr
    assert not (out / "eval").exists()


@pytest.mark.parametrize("command", ["eval", "verify"])
def test_eval_and_verify_refuse_a_deeply_nested_artifact(tmp_path, command):
    """JSON nested past the parser's recursion limit is an error line, not a traceback."""
    bad = tmp_path / "function.json"
    bad.write_text("[" * 100_000)
    grid = ["--out", str(tmp_path / "eval"), "--lo", "0 0", "--hi", "1 1"] if command == "eval" else []
    done = _run_cli(command, "--artifact", str(bad), *grid)
    assert done.returncode == 1
    assert done.stderr == "error: malformed artifact\n"


@pytest.mark.parametrize("direction, message", [
    ("1", "direction has 1 entries, the mapping takes 2"),
    ("1 0 0", "direction has 3 entries, the mapping takes 2"),
    ("nan 0", "direction must be finite and nonzero"),
    ("0 0", "direction must be finite and nonzero"),
], ids=["short", "long", "nan", "zero"])
def test_probe_refuses_a_bad_dini_direction(config_path, tmp_path, capsys, direction, message):
    out = tmp_path / "out"
    assert main(["construct", "--config", str(config_path), "--out", str(out)]) == 0
    capsys.readouterr()
    rc = main(["probe", "--artifact", str(out / "function.json"), "--transcript", str(out / "transcript.json"),
               "--out", str(out / "probe"), "--dini-direction", direction])
    assert rc == 1
    assert f"error: {message}" in capsys.readouterr().err
    assert not (out / "probe").exists()


@pytest.mark.parametrize("out_dim", [1, 2])
def test_probe_refuses_a_bad_direction_before_any_probing(tmp_path, capsys, monkeypatch, out_dim):
    """The direction is checked before the witness report runs, with the
    Dini report's messages: a mapping into R^2 has no one-sided derivative
    probes, and a zero direction is refused."""
    rows = "rows = 2\nop1 = 0.5 0 0 0.5\nop2 = -0.5 0 0 -0.5\n" if out_dim == 2 else "rows = 1\nop1 = 0.5 0\nop2 = -0.5 0\n"
    config = tmp_path / "run.ini"
    config.write_text(SMALL_CONFIG.replace("rows = 1\nop1 = 0.5 0\nop2 = -0.5 0\n", rows))
    out = tmp_path / "out"
    assert main(["construct", "--config", str(config), "--out", str(out)]) == 0
    capsys.readouterr()
    monkeypatch.setattr(cli, "witness_bound_report", lambda *a, **k: pytest.fail("probed before the check"))
    args = ["probe", "--artifact", str(out / "function.json"), "--transcript", str(out / "transcript.json"),
            "--out", str(out / "probe")]
    message = "one-sided derivative probes need scalar codomain" if out_dim == 2 else "direction must be finite and nonzero"
    assert main(args + ([] if out_dim == 2 else ["--dini-direction", "0 0"])) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (out / "probe").exists()


def test_a_nan_dq_shows_as_its_round_worst(config_path, tmp_path, capsys, monkeypatch):
    """A NaN dq after finite ones in its round is that round's worst, in the
    summary row of probe_report.csv and in probe_summary.txt."""
    out = tmp_path / "out"
    assert main(["construct", "--config", str(config_path), "--out", str(out)]) == 0
    report = cli.witness_bound_report

    def with_a_nan(*a, **k):
        probes = report(*a, **k)
        last = max(p.witness.round_k for p in probes)
        assert sum(p.witness.round_k == last for p in probes) > 1
        return probes[:-1] + [replace(probes[-1], value=float("nan"))]

    monkeypatch.setattr(cli, "witness_bound_report", with_a_nan)
    assert main(["probe", "--artifact", str(out / "function.json"), "--transcript", str(out / "transcript.json"),
                 "--out", str(out / "probe")]) == 1
    rows = (out / "probe" / "probe_report.csv").read_text().splitlines()
    assert rows[-1].startswith("3,,,summary,,nan,")
    assert [r for r in rows[:-1] if ",summary," in r and ",nan," in r] == []
    summary = (out / "probe" / "probe_summary.txt").read_text()
    assert "round 3: witnesses=" in summary and "max_dq=nan " in summary


def test_probe_runs_the_witness_report_before_the_dini_report(config_path, tmp_path, capsys, monkeypatch):
    """The Dini report runs last, so along e1 its exact values are ones the
    witness report already shared."""
    out = tmp_path / "out"
    assert main(["construct", "--config", str(config_path), "--out", str(out)]) == 0
    order = []
    for name in ("witness_bound_report", "witness_dini_report"):
        report = getattr(cli, name)
        monkeypatch.setattr(cli, name, lambda *a, _r=report, _n=name, **k: order.append(_n) or _r(*a, **k))
    assert main(["probe", "--artifact", str(out / "function.json"), "--transcript", str(out / "transcript.json"),
                 "--out", str(out / "probe")]) == 0
    assert order == ["witness_bound_report", "witness_dini_report"]


@pytest.mark.parametrize("command", ["eval", "probe"])
def test_eval_and_probe_report_a_bad_vector_flag(config_path, tmp_path, capsys, command):
    """A --lo or --dini-direction that is not a list of decimals is one error
    line, not a traceback."""
    out = tmp_path / "out"
    assert main(["construct", "--config", str(config_path), "--out", str(out)]) == 0
    capsys.readouterr()
    art = ["--artifact", str(out / "function.json"), "--out", str(out / command)]
    if command == "eval":
        args = ["eval", *art, "--lo", "0 x", "--hi", "1 1"]
    else:
        args = ["probe", *art, "--transcript", str(out / "transcript.json"), "--dini-direction", "a b"]
    assert main(args) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: not a list of decimals: ") and err.count("\n") == 1
    assert not (out / command).exists()


def test_probe_has_no_ladder_flags(config_path, tmp_path, capsys):
    """The witness ladder's steps and ratio are probe constants."""
    out = tmp_path / "out"
    for flag, value in (("--ladder-steps", "0"), ("--ladder-ratio", "1.5")):
        with pytest.raises(SystemExit):
            main(["probe", "--artifact", str(out / "function.json"), "--transcript", str(out / "transcript.json"),
                  "--out", str(out), flag, value])
        assert "unrecognized arguments" in capsys.readouterr().err


def test_net_command(config_path, tmp_path, capsys):
    out = tmp_path / "nets"
    rc = main(["net", "--config", str(config_path), "--out", str(out)])
    assert rc == 0
    text = (out / "nets.csv").read_text()
    assert text.splitlines()[0] == "k,x1,x2"
    assert "level" in capsys.readouterr().out


@pytest.mark.parametrize("command", ["construct", "net"])
@pytest.mark.parametrize("rows", ["0.5 0.5 0.5\n0.25 0.25 0.25\n", "0.5\n0.25\n"], ids=["3d", "1d"])
def test_points_of_another_dimension_are_refused(tmp_path, capsys, command, rows):
    """A points file whose rows are not of the box's dimension ends construct
    and net with one error line naming both dimensions, not a traceback."""
    (tmp_path / "pts.txt").write_text(rows)
    p = tmp_path / "pts.ini"
    p.write_text(SMALL_CONFIG.replace(GRID_TARGET, f"[target]\nkind = points\nfile = {tmp_path / 'pts.txt'}\n"))
    assert main([command, "--config", str(p), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    d = len(rows.split("\n")[0].split())
    assert err.startswith("error: ") and err.count("\n") == 1
    assert f"points of dimension {d} in a domain of dimension 2" in err


def test_log_env_quiet(config_path, tmp_path, monkeypatch):
    monkeypatch.setenv("LIPFORGE_LOG", "quiet")
    out = tmp_path / "out"
    assert main(["construct", "--config", str(config_path), "--out", str(out)]) == 0


THIN_BOX_CONFIG = SMALL_CONFIG.replace("hi = 1 1", "hi = 0.3 1.2").replace("step = 0.2", "step = 0.05")

# Prints the thin box's diameter and constructs the config in argv[1] into argv[2].
THIN_BOX_CHILD = """
import sys
import lipforge
from lipforge.cli import main
print(lipforge.Domain.box([0, 0], [0.3, 1.2]).diam().hex())
sys.exit(main(["construct", "--config", sys.argv[1], "--out", sys.argv[2], "--seed", "0"]))
"""


def test_thin_box_artifacts_do_not_depend_on_the_blas_kernel(tmp_path):
    """In child processes under OpenBLAS's Prescott kernel, which does not
    fuse multiply-adds, and under the default kernel, the thin box has one
    diameter (the sum 0.3^2 + 1.2^2 rounded twice, then its root) and one
    function.json and transcript.json. The box's diameter once came from a
    BLAS dot product that fuses on SkylakeX. Where the default kernel does
    not fuse either, or numpy is not built on OpenBLAS, the comparison of
    the two children proves nothing; the pinned diameter still holds."""
    config = tmp_path / "thin.ini"
    config.write_text(THIN_BOX_CONFIG)
    src = str(Path(lipforge.__file__).resolve().parents[1])
    runs = []
    for kernel in ("Prescott", None):
        env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_CORETYPE"}
        env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
        if kernel:
            env["OPENBLAS_CORETYPE"] = kernel
        out = tmp_path / (kernel or "default")
        done = subprocess.run([sys.executable, "-c", THIN_BOX_CHILD, str(config), str(out)],
                              capture_output=True, text=True, env=env)
        assert done.returncode == 0, done.stderr
        runs.append((done.stdout.splitlines()[0], (out / "function.json").read_bytes(),
                     (out / "transcript.json").read_bytes()))
    assert runs[0] == runs[1]
    assert runs[0][0] == "0x1.3ca78e19fe93cp+0"
