"""Command-line front end.

Subcommands: construct (run the ball game, write artifacts), probe (witness
difference-quotient and sub-gradient reports for stored artifacts), verify
(invariant suites), eval (evaluate an artifact on a grid to CSV) and net
(emit the nested net family as CSV). Configuration is a flat INI file with
sections; every numeric field is parsed from its string form so locale
drift cannot change a run. All commands are deterministic given the config
and seeds; reruns produce byte-identical outputs.

The LIPFORGE_LOG environment variable (quiet, info, debug) controls logging.
"""

from __future__ import annotations

import argparse
import configparser
import logging
import os
import sys
from dataclasses import dataclass
from pathlib import Path

import mpmath
import numpy as np

from . import verify as verify_mod
from .game import check_dps, load_transcript, read_artifact, run_game
from .lipfun import deserialize, eval_batch
from .nets import TargetSet, nested_nets
from .numerics import CONSTRUCTION_DPS, LipForgeError, exact_mpf, to_float
from .probe import WitnessProbe, _direction, witness_bound_report, witness_dini_report
from .space import Domain, LinearMap, NormKind

log = logging.getLogger("lipforge")


def _setup_logging() -> None:
    level_name = os.environ.get("LIPFORGE_LOG", "info").strip().lower()
    levels = {"quiet": logging.ERROR, "info": logging.INFO, "debug": logging.DEBUG}
    if level_name not in levels:
        level_name = "info"
    logging.basicConfig(stream=sys.stderr, level=levels[level_name], format="%(levelname)s %(message)s")


# ---------------------------------------------------------------------------
# Configuration


@dataclass(frozen=True)
class RunConfig:
    domain: Domain
    target: TargetSet
    operators: tuple[LinearMap, ...]
    rounds: int
    adversary: str
    seed: int
    dps: int


def _cfg_error(path: str, section: str, key: str, message: str) -> LipForgeError:
    return LipForgeError(f"config {path}: [{section}] {key}: {message}")


def _parse_floats(text: str) -> list[float]:
    try:
        return [float(tok) for tok in text.replace(",", " ").split()]
    except ValueError:
        raise LipForgeError(f"not a list of decimals: {text!r}") from None


def _read_text(p: Path, what: str) -> str:
    """p's text; a file that is missing, cannot be read or is not UTF-8 is
    refused with a message that names it as what."""
    if not p.exists():
        raise LipForgeError(f"{what} not found: {p}")
    try:
        return p.read_text(encoding="utf-8")
    except OSError as e:
        raise LipForgeError(f"{what} {p}: {e.strerror}") from e
    except UnicodeDecodeError as e:
        raise LipForgeError(f"{what} {p}: not UTF-8 text ({e.reason} at byte {e.start})") from e


def load_config(path: str) -> RunConfig:
    p = Path(path)
    parser = configparser.ConfigParser()
    try:
        parser.read_string(_read_text(p, "config"))
    except configparser.Error as e:
        raise LipForgeError(f"config {path}: {e}") from e

    read = set()

    def get(section: str, key: str, parse=str, default=None):
        """The key's value read by parse, or default when the key is absent;
        a key without a default is required."""
        read.add((section, key))
        if not parser.has_option(section, key):
            if default is None:
                raise _cfg_error(path, section, key, "missing required field")
            return default
        try:
            return parse(parser.get(section, key))
        except (ValueError, LipForgeError) as e:
            raise _cfg_error(path, section, key, str(e)) from e

    def read_points(file: str) -> TargetSet:
        # relative to the config; an absolute file name replaces the directory
        fpath = p.parent / file
        rows = [
            _parse_floats(line)
            for line in _read_text(fpath, "file").splitlines()
            if line.strip() and not line.lstrip().startswith("#")
        ]
        if len({len(row) for row in rows}) > 1:
            raise LipForgeError(f"{fpath}: points of different dimensions")
        return TargetSet.from_points(rows)

    # domain
    shape = get("domain", "shape", default="box").strip().lower()
    kind = get("domain", "norm", NormKind.parse, NormKind.EUCLIDEAN)
    if shape == "box":
        domain = Domain.box(get("domain", "lo", _parse_floats), get("domain", "hi", _parse_floats), kind)
    elif shape == "ball":
        domain = Domain.ball(get("domain", "center", _parse_floats), get("domain", "radius", float), kind)
    else:
        raise _cfg_error(path, "domain", "shape", f"unknown shape {shape!r}")

    # target set
    tkind = get("target", "kind", default="grid").strip().lower()
    if tkind == "grid":
        if domain.shape != "box":
            raise _cfg_error(path, "target", "kind", "grid targets need a box domain")
        target = get("target", "step", lambda text: TargetSet.grid(domain.lo, domain.hi, float(text)))
    elif tkind == "points":
        target = get("target", "file", read_points)
    elif tkind == "halton":
        seed = get("target", "seed", int, 0)
        target = get("target", "count", lambda text: TargetSet.low_discrepancy(domain, int(text), seed=seed))
    else:
        raise _cfg_error(path, "target", "kind", f"unknown target kind {tkind!r}")

    # operators
    if not parser.has_section("operators"):
        raise _cfg_error(path, "operators", "op1", "missing section")
    rows = get("operators", "rows", int, 1)
    out_kind = get("operators", "out_norm", NormKind.parse, NormKind.EUCLIDEAN)
    ops = []
    idx = 1
    while parser.has_option("operators", f"op{idx}"):
        flat = get("operators", f"op{idx}", _parse_floats)
        if rows <= 0 or len(flat) % rows != 0:
            raise _cfg_error(path, "operators", f"op{idx}", f"cannot reshape {len(flat)} entries into {rows} rows")
        cols = len(flat) // rows
        matrix = np.asarray(flat, dtype=float).reshape(rows, cols)
        ops.append(LinearMap(matrix, domain.norm, out_kind))
        idx += 1
    if not ops:
        raise _cfg_error(path, "operators", "op1", "need at least one operator")

    # replay needs a transcript, which a config cannot name
    adversary = get("game", "adversary", default="stay").strip().lower()
    if adversary not in ("stay", "jitter"):
        raise _cfg_error(path, "game", "adversary", f"unknown adversary {adversary!r}; expected stay or jitter")

    cfg = RunConfig(
        domain=domain,
        target=target,
        operators=tuple(ops),
        rounds=get("game", "rounds", int, 8),
        adversary=adversary,
        seed=get("game", "seed", int, 0),
        dps=get("game", "dps", lambda text: check_dps(int(text)), CONSTRUCTION_DPS),
    )
    # a misspelt key, or one these settings do not use; [probe] is not read
    for section in ("domain", "target", "operators", "game"):
        for key in parser.options(section) if parser.has_section(section) else ():
            if (section, key) not in read:
                raise _cfg_error(path, section, key, "unused key")
    return cfg


# ---------------------------------------------------------------------------
# Output helpers


def _write_text(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8", newline="\n")


def _scale_str(x) -> str:
    return mpmath.nstr(exact_mpf(x), 12, strip_zeros=False)


def _svg_plot(points_by_round: dict[int, tuple[float, float]], path: Path) -> None:
    """Scatter of log10 dq against log10 scale, one mark per round.

    Takes (log10_scale, dq) pairs; scales are passed pre-logged because deep
    rounds sit far below the float64 exponent range.
    """
    if not points_by_round:
        return
    import math

    w, h, margin = 480, 320, 48
    lx = [p[0] for p in points_by_round.values()]
    ly = [math.log10(max(p[1], 1e-18)) for p in points_by_round.values()]
    x0, x1 = min(lx), max(lx) + 1e-9
    y0, y1 = min(ly), max(ly) + 1e-9

    def sx(v):
        return margin + (v - x0) / (x1 - x0) * (w - 2 * margin)

    def sy(v):
        return h - margin - (v - y0) / (y1 - y0) * (h - 2 * margin)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{h}">',
        f'<rect width="{w}" height="{h}" fill="white"/>',
        f'<line x1="{margin}" y1="{h - margin}" x2="{w - margin}" y2="{h - margin}" stroke="black"/>',
        f'<line x1="{margin}" y1="{margin}" x2="{margin}" y2="{h - margin}" stroke="black"/>',
        f'<text x="{w // 2}" y="{h - 8}" font-size="12" text-anchor="middle">log10 scale</text>',
        f'<text x="12" y="{h // 2}" font-size="12" transform="rotate(-90 12 {h // 2})" text-anchor="middle">log10 dq</text>',
    ]
    for k in sorted(points_by_round):
        px, py = sx(points_by_round[k][0]), sy(math.log10(max(points_by_round[k][1], 1e-18)))
        parts.append(f'<circle cx="{px:.1f}" cy="{py:.1f}" r="4" fill="steelblue"/>')
        parts.append(f'<text x="{px + 6:.1f}" y="{py - 6:.1f}" font-size="10">k={k}</text>')
    parts.append("</svg>")
    _write_text(path, "\n".join(parts) + "\n")


# ---------------------------------------------------------------------------
# Commands


def cmd_construct(args) -> int:
    cfg = load_config(args.config)
    seed = args.seed if args.seed is not None else cfg.seed
    out = Path(args.out)
    log.info("running %d rounds (adversary=%s, seed=%d, dps=%d)", cfg.rounds, cfg.adversary, seed, cfg.dps)
    transcript = run_game(
        cfg.domain,
        cfg.target,
        cfg.operators,
        adversary_kind=cfg.adversary,
        rounds=cfg.rounds,
        seed=seed,
        dps=cfg.dps,
    )
    out.mkdir(parents=True, exist_ok=True)
    transcript.save(out / "transcript.json")
    _write_text(out / "nets.csv", transcript.nets.to_csv())
    print(f"rounds: {transcript.k_max}")
    for rec in transcript.rounds:
        log.info(
            "round %d: net=%d alpha=%s s=%s", rec.round_k, rec.net_size, _scale_str(rec.alpha), _scale_str(rec.s)
        )
    print(f"tail bound s_K = {_scale_str(transcript.tail_bound)}")
    return 0


def _probe_rows(report, by_round: dict[int, list[WitnessProbe]], worst: dict[int, float], d: int) -> list[str]:
    """probe_report.csv: one row per witness, then one summary row per round."""
    lines = ["k," + ",".join(f"x{i + 1}" for i in range(d)) + ",op,scale,dq,bound,ok"]
    for pr in report:
        w = pr.witness
        x = [to_float(v) for v in w.point()]
        lines.append(
            f"{w.round_k},"
            + ",".join(repr(v) for v in x)
            + f",{w.op_index},{_scale_str(w.alpha)},{pr.value!r},{pr.bound!r},{int(pr.ok)}"
        )
    for k in sorted(by_round):
        probes = by_round[k]
        ok = sum(1 for p in probes if p.ok)
        fields = [str(k)] + [""] * d + ["summary", "", repr(worst[k]), repr(probes[0].bound), f"{ok}/{len(probes)}"]
        lines.append(",".join(fields))
    return lines


def cmd_probe(args) -> int:
    transcript = load_transcript(args.transcript, args.artifact)
    text = args.dini_direction
    direction = np.eye(transcript.domain.dim)[0] if text is None else _parse_floats(text)
    # a bad direction is refused before any probing
    direction = _direction(transcript.final_fun, direction)
    out = Path(args.out)
    seed = args.seed if args.seed is not None else transcript.seed
    # the witness report first: along an axis, the Dini report's exact values
    # are all among those it shares (probe._SHARED)
    report = witness_bound_report(transcript, per_round=args.per_round, budget=args.budget, seed=seed)
    by_round: dict[int, list[WitnessProbe]] = {}
    for r in report:
        by_round.setdefault(r.witness.round_k, []).append(r)
    # np.max, unlike max, keeps a NaN wherever it is
    worst = {k: float(np.max([p.value for p in probes])) for k, probes in by_round.items()}
    lines = _probe_rows(report, by_round, worst, transcript.domain.dim)
    ok_count = sum(1 for r in report if r.ok)
    summary = [
        "witness difference-quotient report",
        f"witnesses: {len(report)}",
        f"meeting 4/k bound: {ok_count} ({ok_count / max(len(report), 1):.1%})",
    ]
    plot_points = {}
    for k in sorted(by_round):
        probes = by_round[k]
        rec = transcript.rounds[k - 1]
        summary.append(f"round {k}: witnesses={len(probes)} max_dq={worst[k]!r} bound={probes[0].bound!r}")
        plot_points[k] = (float(mpmath.log10(exact_mpf(rec.alpha))), worst[k])

    dini = witness_dini_report(transcript, direction, min_round=args.min_round, per_round=args.per_round, seed=seed)
    fired = sum(1 for r in dini if r.report.fires)
    summary.append("")
    summary.append("sub-gradient emptiness certificates")
    summary.append(f"direction: {' '.join(repr(float(v)) for v in direction)}")
    summary.append(f"witnesses probed (rounds >= {args.min_round}): {len(dini)}")
    summary.append(f"certificates fired: {fired} ({fired / max(len(dini), 1):.1%})")
    fired_by_round: dict[int, list[int]] = {}
    for r in dini:
        fired_by_round.setdefault(r.witness.round_k, []).append(1 if r.report.fires else 0)
    for k in sorted(fired_by_round):
        hits = fired_by_round[k]
        summary.append(f"round {k}: fired {sum(hits)}/{len(hits)}")

    out.mkdir(parents=True, exist_ok=True)
    _write_text(out / "probe_report.csv", "\n".join(lines) + "\n")
    _write_text(out / "probe_summary.txt", "\n".join(summary) + "\n")
    if args.plot:
        _svg_plot(plot_points, out / "dq_scales.svg")
    for line in summary:
        print(line)
    return 0 if ok_count == len(report) else 1


def cmd_verify(args) -> int:
    results: list[verify_mod.CheckResult] = []
    if args.artifact is None and args.transcript is None:
        results += verify_mod.stock_selftest(args.seed)
    # a transcript is loaded with its mapping, which the artifact suite checks too
    transcript = None if args.transcript is None else load_transcript(args.transcript, args.artifact)
    if transcript is not None:
        results += verify_mod.artifact_suite(transcript.final_fun, seed=args.seed)
        results += verify_mod.transcript_suite(transcript, per_round=args.per_round, budget=args.budget)
    elif args.artifact is not None:
        results += verify_mod.artifact_suite(deserialize(read_artifact(args.artifact)), seed=args.seed)

    failures = [r for r in results if not r.ok]
    for r in results:
        status = "ok" if r.ok else "FAIL"
        print(f"{status:4s} {r.name}" + (f"  ({r.detail})" if r.detail else ""))
    print(f"{len(results) - len(failures)}/{len(results)} checks passed")
    if failures:
        print(f"first failing invariant: {failures[0].name}", file=sys.stderr)
        return 1
    return 0


def cmd_eval(args) -> int:
    fun = deserialize(read_artifact(args.artifact))
    lo = np.asarray(_parse_floats(args.lo), dtype=float)
    hi = np.asarray(_parse_floats(args.hi), dtype=float)
    if len(lo) != fun.in_dim or len(hi) != fun.in_dim:
        raise LipForgeError("grid bounds have wrong dimension")
    domain = Domain.box(lo, hi)
    pts = domain.grid(args.per_axis)
    vals = eval_batch(fun, pts)
    header = ",".join(f"x{i + 1}" for i in range(fun.in_dim)) + "," + ",".join(
        f"f{j + 1}" for j in range(fun.out_dim)
    )
    lines = [header]
    for p, v in zip(pts, vals):
        lines.append(",".join(repr(float(c)) for c in p) + "," + ",".join(repr(float(c)) for c in v))
    out = Path(args.out)
    _write_text(out / "eval.csv", "\n".join(lines) + "\n")
    print(f"evaluated {len(pts)} points")
    return 0


def cmd_net(args) -> int:
    cfg = load_config(args.config)
    family = nested_nets(cfg.target, cfg.domain, cfg.rounds)
    out = Path(args.out)
    _write_text(out / "nets.csv", family.to_csv())
    for k in range(1, family.k_max + 1):
        print(f"level {k}: {len(family.level(k))} points")
    return 0


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="lipforge", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    c = sub.add_parser("construct", help="run the ball game and write artifacts")
    c.add_argument("--config", required=True)
    c.add_argument("--out", required=True)
    c.add_argument("--seed", type=int, default=None)
    c.set_defaults(fn=cmd_construct)

    p = sub.add_parser("probe", help="witness probes for stored artifacts")
    p.add_argument("--artifact", required=True)
    p.add_argument("--transcript", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--budget", type=int, default=None)
    p.add_argument("--per-round", dest="per_round", type=int, default=1)
    p.add_argument("--min-round", dest="min_round", type=int, default=1)
    p.add_argument("--dini-direction", dest="dini_direction", default=None)
    p.add_argument("--plot", action="store_true")
    p.set_defaults(fn=cmd_probe)

    v = sub.add_parser("verify", help="run invariant suites")
    v.add_argument("--artifact", default=None)
    v.add_argument("--transcript", default=None)
    v.add_argument("--seed", type=int, default=0)
    v.add_argument("--budget", type=int, default=None)
    v.add_argument("--per-round", dest="per_round", type=int, default=1)
    v.set_defaults(fn=cmd_verify)

    e = sub.add_parser("eval", help="evaluate an artifact on a grid to CSV")
    e.add_argument("--artifact", required=True)
    e.add_argument("--out", required=True)
    e.add_argument("--lo", required=True, help="grid lower corner, e.g. '0 0'")
    e.add_argument("--hi", required=True, help="grid upper corner, e.g. '1 1'")
    e.add_argument("--per-axis", dest="per_axis", type=int, default=11)
    e.set_defaults(fn=cmd_eval)

    n = sub.add_parser("net", help="emit the nested net family as CSV")
    n.add_argument("--config", required=True)
    n.add_argument("--out", required=True)
    n.set_defaults(fn=cmd_net)
    return parser


def main(argv=None) -> int:
    _setup_logging()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (LipForgeError, OSError) as e:
        # an OSError is a file the command could not write
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
