"""Ball-game engine producing badly non-differentiable limit mappings.

Two players alternately nest balls in the space of certified 1-Lipschitz
mappings under the sup metric. Player I (scripted adversary or replay)
offers a ball; the engine shrinks its radius to 2^-k (1 - ||L_k||), then
responds by linearizing the offered center near the level-k net with the
round's target operator and choosing the reply radius

    s_k = min(alpha_k / (k + 1), (r_k - rho_k) / 2),

which keeps s_k < alpha_k / k and certifies that the closed reply ball sits
inside the offered one (rho_k is the analytic distance bound of the
linearization; the nesting rests on it alone). Operators are
scheduled round-robin. After K rounds the final mapping g_K is within
s_K of the infinite game's limit, and around each level-k net point the
difference quotient against the round's operator at scale alpha_k stays
below 4/k -- the checkable witness bound.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np
from mpmath import mp
from mpmath.libmp import mpf_sub

from .lipfun import (
    MAP,
    Const,
    LipFun,
    _collector_paused,
    add_const,
    deserialize,
    serialize,
)
from .nets import NetFamily, TargetSet, nested_nets
from .numerics import (
    CONSTRUCTION_DPS,
    FLOAT_VECTOR,
    INT,
    LIP_ONE_TOL,
    SCALAR,
    VECTOR,
    Codec,
    LipForgeError,
    Scalar,
    as_vector,
    decode_fields,
    decode_vector,
    encode_fields,
    exact_mpf,
    exact_raw,
    finite,
    is_finite,
    raw_vector,
    sequence,
    working_dps_for_scale,
)
from .perturb import linearize_near
from .space import Domain, LinearMap, NormKind, _norm_le_exact, unit_directions

GAME_SCHEMA = "lipforge-game/3"
FUNCTION_FILE = "function.json"

ADVERSARY_KINDS = ("stay", "jitter", "replay")


@dataclass(frozen=True)
class Move:
    """Player I's move: its center is the previous reply (stay) or the
    previous reply plus a constant shift (jitter), so its distance to the
    previous reply is ||shift|| and its nesting is decided exactly."""

    kind: str
    shift: np.ndarray | None = None

    def __post_init__(self):
        if self.kind not in _MOVES:
            raise LipForgeError(f"unknown move kind {self.kind!r}")
        for key, attr, _codec in _MOVES[self.kind]:
            if getattr(self, attr) is None:
                raise LipForgeError(f"{self.kind} move without {key}")

    def center(self, g_prev: LipFun) -> LipFun:
        """The move's center, given the previous reply's center."""
        return add_const(g_prev, self.shift) if self.kind == "jitter" else g_prev

    def nested(self, r: Scalar, s_prev: Scalar, out_norm: NormKind) -> bool:
        """Whether ||shift|| + r <= s_prev, the ball of radius r around the
        center inside the previous reply ball, decided exactly in binary
        rationals (a stay's shift is zero)."""
        shift = self.shift if self.kind == "jitter" else ()
        room = mpf_sub(exact_raw(s_prev), exact_raw(r))
        return all(is_finite(x) for x in shift) and _norm_le_exact(raw_vector(shift), out_norm, room)


@dataclass(frozen=True)
class MoveRecord:
    """One completed round: Player I's accepted move and Player II's reply.
    A loaded transcript keeps reply_fun only on its last round, where it is
    the final mapping; the earlier replies are None."""

    round_k: int
    op_index: int
    move: Move
    r_offered: Scalar
    r_accepted: Scalar
    reply_fun: LipFun | None
    s: Scalar
    alpha: Scalar
    beta: Scalar | None
    warp_radius: Scalar | None
    rho_bound: Scalar
    net_size: int


def validate_move(tr: GameTranscript, move: Move, r: Scalar) -> Scalar:
    """Accept Player I's move, shrinking the radius to 2^-k (1 - ||L_k||).

    For rounds past the first, requires dist(center, previous reply) + r <=
    previous reply radius, decided exactly by Move.nested.
    """
    k = tr.next_round
    if not r > 0:
        raise LipForgeError("move radius must be positive")
    g_prev, s_prev = tr.previous()
    f = move.center(g_prev)
    if f.in_dim != tr.domain.dim or f.out_dim != tr.out_dim:
        raise LipForgeError("move has wrong dimensions")
    if f.lip_cert > 1.0 + LIP_ONE_TOL:
        raise LipForgeError("move center is not certified 1-Lipschitz")
    with mp.workdps(tr.dps):
        if k >= 2 and not move.nested(r, s_prev, tr.out_norm):
            raise LipForgeError("move not nested in the previous ball")
        L = tr.operators[tr.op_index(k)]
        cap = exact_mpf(2) ** -k * (1 - exact_mpf(L.op_norm))
        return min(exact_mpf(r), cap)


def player2_move(tr: GameTranscript, move: Move, r_accepted: Scalar, r_offered: Scalar | None = None) -> MoveRecord:
    """Respond to an accepted move: linearize near the level-k net and pick
    the reply radius. Empty net levels skip the perturbation entirely."""
    k = tr.next_round
    f = move.center(tr.previous()[0])
    gamma = tr.nets.level(k) if k <= tr.nets.k_max else np.empty((0, tr.domain.dim))
    L = tr.operators[tr.op_index(k)]
    with mp.workdps(tr.dps):
        r_mp = exact_mpf(r_accepted)
        if len(gamma) == 0:
            g, alpha = f, r_mp / 2
            beta = warp_radius = None
            rho_bound = exact_mpf(0)
        else:
            res = linearize_near(f, gamma, L, r_mp, tr.domain, dps=tr.dps)
            g, alpha = res.fun, res.alpha
            beta, warp_radius = res.params.beta, res.params.s
            rho_bound = res.rho_bound
        s_k = min(alpha / (k + 1), (r_mp - rho_bound) / 2)
        if not (s_k > 0 and s_k < alpha / k):
            raise LipForgeError("reply radius failed its bounds")
        record = MoveRecord(
            round_k=k,
            op_index=tr.op_index(k),
            move=move,
            r_offered=r_accepted if r_offered is None else r_offered,
            r_accepted=r_mp,
            reply_fun=g,
            s=s_k,
            alpha=alpha,
            beta=beta,
            warp_radius=warp_radius,
            rho_bound=rho_bound,
            net_size=len(gamma),
        )
    tr.rounds.append(record)
    return record


def adversary(tr: GameTranscript, kind: str, replay_rounds: list[MoveRecord] | None = None):
    """Player I's scripted move and offered radius for the upcoming round.

    stay:   recenter on the previous reply with half its radius.
    jitter: previous reply shifted by a constant of norm s/8, radius s/4.
    replay: the move and offered radius of round k of `replay_rounds`, the
            MoveRecords of a transcript in memory or from load_transcript.
    """
    k = tr.next_round
    s_prev = tr.previous()[1]
    with mp.workdps(tr.dps):
        if kind == "stay":
            return Move("stay"), exact_mpf(s_prev) / 2
        if kind == "jitter":
            direction = unit_directions(1, tr.out_dim, tr.seed * 977 + k, tr.out_norm)[0]
            shift = as_vector([exact_mpf(s_prev) / 8 * exact_mpf(float(v)) for v in direction])
            return Move("jitter", shift), exact_mpf(s_prev) / 4
        if kind == "replay":
            if replay_rounds is None or k > len(replay_rounds):
                raise LipForgeError("replay exhausted")
            rec = replay_rounds[k - 1]
            return rec.move, rec.r_offered
    raise LipForgeError(f"unknown adversary kind {kind!r}")


@dataclass(frozen=True)
class GameTranscript:
    """The record of a run: the game's inputs and its rounds, which
    player2_move appends to as the game is played. On disk (schema
    lipforge-game/3) it names its function.json by sha256 instead of
    embedding final_fun; save and load_transcript write and read the pair."""

    domain: Domain
    operators: tuple[LinearMap, ...]
    nets: NetFamily
    adversary_kind: str
    seed: int = 0
    dps: int = CONSTRUCTION_DPS
    rounds: list[MoveRecord] = field(default_factory=list)

    @property
    def k_max(self) -> int:
        return len(self.rounds)

    @property
    def next_round(self) -> int:
        return len(self.rounds) + 1

    @property
    def out_dim(self) -> int:
        return self.operators[0].out_dim

    @property
    def out_norm(self) -> NormKind:
        return self.operators[0].out_norm

    def op_index(self, k: int) -> int:
        """Round k's operator: the operators are scheduled round-robin."""
        return (k - 1) % len(self.operators)

    def previous(self) -> tuple[LipFun, Scalar]:
        """Player II's last reply ball; a notional unit ball around the zero
        mapping before the first round."""
        if self.rounds:
            rec = self.rounds[-1]
            return rec.reply_fun, rec.s
        return Const(np.zeros(self.out_dim), self.domain.dim), exact_mpf(1)

    @property
    def final_fun(self) -> LipFun:
        """g_K, the last round's reply."""
        return self.rounds[-1].reply_fun

    @property
    def tail_bound(self) -> Scalar:
        """s_K: the final mapping is within it of the infinite game's limit."""
        return self.rounds[-1].s

    def to_dict(self) -> dict:
        return self._document(serialize(self.final_fun))

    def _document(self, function_bytes: bytes) -> dict:
        record = encode_fields(self, _HEADER_FIELDS, 0, {}, {"schema": GAME_SCHEMA})
        record["function_sha256"] = hashlib.sha256(function_bytes).hexdigest()
        return record

    def save(self, path) -> None:
        """Write the transcript to `path` and final_fun to function.json beside it."""
        p = Path(path)
        data = serialize(self.final_fun)
        p.with_name(FUNCTION_FILE).write_bytes(data)
        p.write_text(json.dumps(self._document(data), separators=(",", ":")), encoding="utf-8")


def _decode_move(obj, depth: int, memo: dict) -> Move:
    """A stored move; Move refuses an unknown kind or a missing field."""
    if not isinstance(obj, dict):
        raise LipForgeError("malformed artifact: round move is not a record")
    kind = obj.get("kind")
    fields = {attr: codec.decode(obj[key], depth, memo) for key, attr, codec in _MOVES.get(kind, ()) if key in obj}
    try:
        return Move(kind, **fields)
    except LipForgeError as e:
        raise LipForgeError(f"malformed artifact: {e}") from e


# A move's record: its kind, then the field that kind replays from.
_MOVES = {
    "stay": (),
    "jitter": (("shift", "shift", Codec(VECTOR.encode, finite(decode_vector, "jitter shift is not finite"))),),
}
_OPTIONAL_SCALAR = Codec(
    lambda x, depth, memo: None if x is None else SCALAR.encode(x, depth, memo),
    lambda obj, depth, memo: None if obj is None else SCALAR.decode(obj, depth, memo),
)
_POINTS = sequence(FLOAT_VECTOR)
# An empty net level decodes to shape (0, 0); _check_transcript holds the
# others to the domain's dimension.
_LEVELS = sequence(Codec(_POINTS.encode, lambda obj, depth, memo: np.asarray(_POINTS.decode(obj, depth, memo) or np.empty((0, 0)))))

# transcript.json is "schema", the header fields, then "function_sha256";
# save and load_transcript read these tables.
_ROUND_FIELDS = (
    ("round", "round_k", INT),
    ("op_index", "op_index", INT),
    ("move", "move", Codec(
        lambda move, depth, memo: encode_fields(move, _MOVES[move.kind], depth, memo, {"kind": move.kind}),
        _decode_move,
    )),
    ("r_offered", "r_offered", SCALAR),
    ("r_accepted", "r_accepted", SCALAR),
    ("s", "s", SCALAR),
    ("alpha", "alpha", SCALAR),
    ("beta", "beta", _OPTIONAL_SCALAR),
    ("warp_radius", "warp_radius", _OPTIONAL_SCALAR),
    ("rho_bound", "rho_bound", SCALAR),
    ("net_size", "net_size", INT),
)
_HEADER_FIELDS = (
    # informational: replay takes the moves from the rounds
    ("adversary", "adversary_kind", Codec(lambda kind, depth, memo: kind, lambda obj, depth, memo: obj)),
    ("seed", "seed", INT),
    ("dps", "dps", INT),
    ("domain", "domain", Codec(lambda domain, depth, memo: domain.encode(), lambda obj, depth, memo: Domain.decode(obj))),
    ("operators", "operators", sequence(MAP)),
    ("net_levels", "nets", Codec(
        lambda nets, depth, memo: _LEVELS.encode(nets.levels, depth, memo),
        lambda obj, depth, memo: NetFamily(_LEVELS.decode(obj, depth, memo)),
    )),
    ("rounds", "rounds", sequence(Codec(
        lambda rec, depth, memo: encode_fields(rec, _ROUND_FIELDS, depth, memo, {}),
        lambda obj, depth, memo: MoveRecord(reply_fun=None, **decode_fields(obj, _ROUND_FIELDS, depth, memo)),
    ))),
    # derived: the last round's s, written for readers of the file
    ("tail_bound", "tail_bound", SCALAR),
)


def check_dps(dps: int) -> int:
    """The working precision dps, in significant digits; refused below 1."""
    if dps < 1:
        raise LipForgeError(f"working precision must be at least 1 digit (got dps {dps})")
    return dps


def read_artifact(path) -> bytes:
    p = Path(path)
    if not p.exists():
        raise LipForgeError(f"artifact not found: {p}")
    try:
        return p.read_bytes()
    except OSError as e:
        raise LipForgeError(f"artifact {p}: {e.strerror}") from e


def _check_transcript(tr: GameTranscript, tail_bound: Scalar) -> None:
    """Refuse stored fields that disagree with each other: probe and verify
    index operators (at least one) and net levels by round, replay adds
    each jitter shift to the mapping, the nets must keep their invariants
    in the domain, and tail_bound, each op_index and each net_size are
    derived."""
    if not tr.operators:
        raise LipForgeError("malformed artifact: no target operators")
    for k, lvl in enumerate(tr.nets.levels, start=1):
        if len(lvl) and lvl.shape[1] != tr.domain.dim:
            raise LipForgeError(f"malformed artifact: net level {k} has points of dimension {lvl.shape[1]}")
    try:
        check_dps(tr.dps)
        tr.nets.validate(tr.domain)
    except LipForgeError as e:
        raise LipForgeError(f"malformed artifact: {e}") from e
    for k, rec in enumerate(tr.rounds, start=1):
        if rec.round_k != k:
            raise LipForgeError(f"malformed artifact: round record {k} is numbered {rec.round_k}")
        scheduled = tr.op_index(k)
        if rec.op_index != scheduled:
            raise LipForgeError(f"malformed artifact: round {k} names operator {rec.op_index} of "
                                f"{len(tr.operators)}, its round-robin operator is {scheduled}")
        if rec.move.kind == "jitter" and len(rec.move.shift) != tr.final_fun.out_dim:
            raise LipForgeError(f"malformed artifact: round {k} jitter shift has {len(rec.move.shift)} entries")
        size = len(tr.nets.level(k)) if k <= tr.nets.k_max else 0
        if rec.net_size != size:
            raise LipForgeError(f"malformed artifact: round {k} has net_size {rec.net_size}, its net level {size} points")
    if not tr.rounds or tail_bound != tr.tail_bound:
        raise LipForgeError("malformed artifact: tail_bound is not the last round's s")


def load_transcript(path, function_path=None) -> GameTranscript:
    """Read a transcript and the mapping it names from `function_path`, by
    default function.json beside it. The bytes must hash to the transcript's
    function_sha256; the tree is then decoded once."""
    try:
        obj = json.loads(read_artifact(path))
    except (ValueError, RecursionError) as e:
        raise LipForgeError("malformed artifact") from e
    schema = obj.get("schema") if isinstance(obj, dict) else None
    if schema != GAME_SCHEMA:
        raise LipForgeError(f"unknown schema version {schema!r}")
    fp = Path(path).with_name(FUNCTION_FILE) if function_path is None else function_path
    data = read_artifact(fp)
    digest, named = hashlib.sha256(data).hexdigest(), obj.get("function_sha256")
    if digest != named:
        raise LipForgeError(f"artifact mismatch: {fp} has sha256 {digest}, the transcript names {named}")
    final_fun = deserialize(data)
    try:
        fields = decode_fields(obj, _HEADER_FIELDS, 0, {})
    except (KeyError, TypeError, ValueError, IndexError) as e:
        raise LipForgeError("malformed artifact: bad transcript record") from e
    tail_bound = fields.pop("tail_bound")
    rounds = list(fields.pop("rounds"))
    if rounds:
        rounds[-1] = replace(rounds[-1], reply_fun=final_fun)
    transcript = GameTranscript(rounds=rounds, **fields)
    _check_transcript(transcript, tail_bound)
    return transcript


@_collector_paused()
def run_game(
    domain: Domain,
    target: TargetSet,
    operators,
    adversary_kind: str = "stay",
    rounds: int = 8,
    seed: int = 0,
    dps: int = CONSTRUCTION_DPS,
    replay_transcript: GameTranscript | None = None,
) -> GameTranscript:
    """Play a full K-round game and return the transcript.

    Every operator must have op_norm < 1; they are targeted round-robin.
    The run is deterministic for fixed (target, operators, seed, dps). The
    replay adversary replays the moves of `replay_transcript`, in memory or
    from load_transcript. It runs with the cyclic collector paused: the tree
    it builds holds no cycles.
    """
    ops = tuple(operators)
    if not ops:
        raise LipForgeError("need at least one target operator")
    if rounds < 1:
        raise LipForgeError("need at least one round")
    check_dps(dps)
    shape = (ops[0].out_dim, ops[0].in_dim)
    for op in ops:
        if (op.out_dim, op.in_dim) != shape:
            raise LipForgeError("operators must share their shape")
        if not op.op_norm < 1.0:
            raise LipForgeError(f"operator norm must be < 1 (got {op.op_norm})")
        if op.in_dim != domain.dim:
            raise LipForgeError("operator domain dimension must match the domain")

    replay_rounds = None
    if adversary_kind == "replay":
        if replay_transcript is None:
            raise LipForgeError("replay adversary needs a stored transcript")
        replay_rounds = replay_transcript.rounds
    elif adversary_kind not in ADVERSARY_KINDS:
        raise LipForgeError(f"unknown adversary kind {adversary_kind!r}")

    tr = GameTranscript(domain, ops, nested_nets(target, domain, rounds), adversary_kind, seed, dps)
    for k in range(1, rounds + 1):
        try:
            move, r = adversary(tr, adversary_kind, replay_rounds)
            player2_move(tr, move, validate_move(tr, move, r), r_offered=r)
        except LipForgeError as e:
            raise LipForgeError(f"round {k}: {e}") from e
    return tr


@dataclass(frozen=True)
class Witness:
    """A point of round k's reply ball where the construction pins the
    difference quotient to the round's operator at scale alpha_k."""

    center: np.ndarray
    offset: np.ndarray | None
    round_k: int
    alpha: Scalar
    s: Scalar
    op_index: int
    operator: LinearMap

    def point(self) -> np.ndarray:
        """The witness point center + offset, exact in the offset's arithmetic
        at the working precision of the reply radius s, whatever the
        caller's."""
        if self.offset is None:
            return self.center
        with mp.workdps(working_dps_for_scale(self.s)):
            return as_vector([exact_mpf(self.center[i]) + exact_mpf(self.offset[i]) for i in range(len(self.center))])


def witnesses(transcript: GameTranscript, per_round: int = 1, seed: int = 0) -> list[Witness]:
    """Net centers of every round, plus per_round - 1 sampled points strictly
    inside each round's reply ball around its center."""
    if per_round < 1:
        raise LipForgeError("per_round must be >= 1")
    out: list[Witness] = []
    for rec in transcript.rounds:
        k = rec.round_k
        if rec.net_size == 0 or k > transcript.nets.k_max:
            continue
        centers = transcript.nets.level(k)
        L = transcript.operators[rec.op_index]
        for ci, x in enumerate(centers):
            out.append(Witness(x, None, k, rec.alpha, rec.s, rec.op_index, L))
            for j in range(per_round - 1):
                direction = unit_directions(
                    1, len(x), seed * 8191 + k * 131 + ci * 17 + j, transcript.domain.norm
                )[0]
                offset = as_vector([exact_mpf(rec.s) / 2 * exact_mpf(float(v)) for v in direction])
                out.append(Witness(x, offset, k, rec.alpha, rec.s, rec.op_index, L))
    return out
