"""lipforge: construct and numerically probe badly non-differentiable
1-Lipschitz mappings at desk scale.

The package builds certified 1-Lipschitz expression trees, linearizes them
exactly on shrinking balls around nested separated nets through a two-player
ball game, and certifies the resulting non-differentiability with sampled
difference-quotient and one-sided derivative probes.
"""

from types import ModuleType as _ModuleType

from .numerics import CONSTRUCTION_DPS, LipForgeError
from .space import Domain, LinearMap, NormKind, norm, sample_ball
from .lipfun import (
    AddConst,
    Affine,
    Const,
    Linear,
    LipFun,
    NormOf,
    Patch,
    Patched,
    Precompose,
    RadialBlend,
    Scale,
    Sum,
    add_const,
    deserialize,
    eval_batch,
    eval_point,
    identity,
    patch,
    radial_blend,
    serialize,
    sup_dist,
    zero_map,
)
from .nets import NetFamily, TargetSet, greedy_net, nested_nets, restrict, separation
from .perturb import PerturbParams, PerturbResult, blend_params, choose_s, linearize_near
from .game import (
    GameTranscript,
    Move,
    MoveRecord,
    Witness,
    adversary,
    load_transcript,
    player2_move,
    run_game,
    validate_move,
    witnesses,
)
from .probe import (
    DiniReport,
    DqProfile,
    ScaleLadder,
    best_local_linear,
    dini_empty_certificate,
    dini_lower,
    dini_values,
    dq_error,
    dq_profile,
    witness_bound_report,
    witness_dini_report,
)

__version__ = "0.1.0"

# The names imported above; a submodule is not among them.
__all__ = [
    name for name, value in dict(globals()).items() if not name.startswith("_") and not isinstance(value, _ModuleType)
]
