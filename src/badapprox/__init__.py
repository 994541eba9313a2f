"""badapprox: exact-arithmetic nested-ball games that construct — and
independently certify — badly approximable affine shifts.

The public surface mirrors the pipeline:

    resonance   records of a rational matrix + lacunary thinning
    schedule    derived constants and the block schedule
    engine      the alternating nested-ball game, exact legality
    escape      cap selection and escape drives
    strategy    the constructing player and its certificate
    adversaries opponents: random, greedy, scripted
    certify     independent brute-force badness functionals
"""

from .exact import InvariantError, rat, rat_str
from .geometry import Ball, Halfspace, Hyperplane, nearest_int_dist, rational_unit_direction
from .engine import (
    GameParams,
    GameState,
    GameTrace,
    IllegalMove,
    MoveRecord,
    concentric,
    replay,
    run_game,
)
from .resonance import (
    EmptySequence,
    GOLDEN_CONVERGENT,
    ResonanceSequence,
    ThetaMatrix,
    best_approximations,
    best_approximations_cf,
    golden_theta,
    lacunary_normalize,
    psi_theta,
    verify_decay_bound,
)
from .schedule import (
    BlockSchedule,
    ScheduleInfeasible,
    StrategyParams,
    block_schedule,
    dangerous_hyperplanes,
    derive_params,
)
from .escape import (
    AvoidanceDrive,
    CapSelection,
    SelectionExhausted,
    select_cap,
)
from .strategy import (
    Certificate,
    CertificateFailed,
    WhiteStrategy,
    build_strategy,
    certificate,
    run_constructed_game,
)
from .adversaries import GreedyBlack, RandomBlack, Scripted
from .certify import (
    BadnessReport,
    DecayTable,
    PowerLaw,
    TableRangeExceeded,
    jarnik_constant,
    parse_power_spec,
    resonance_margin,
    theorem1_constant,
)

__version__ = "0.1.0"
