"""Linear temporal logic on teams of traces: checking, model checking, reductions."""

from .errors import (
    ArityMismatch,
    BoundExceeded,
    DuplicateName,
    MalformedStructure,
    NameCollision,
    NonPropositional,
    NotForallFragment,
    ParseError,
    TeamLTLError,
    UnknownAtom,
    UnsupportedFragment,
    UnsupportedOpenProblem,
    VectorSpaceExceeded,
)
from .formula import (
    And,
    ContradictoryNeg,
    DepAtom,
    Eventually,
    Formula,
    FragmentInfo,
    GenAtom,
    Globally,
    NegativeLiteral,
    Next,
    PositiveLiteral,
    Release,
    Split,
    Until,
    bar_transform,
    dualize,
    formula_length,
    fragment_info,
    parse_formula,
    props,
    render_formula,
)
from .traces import (
    DEFAULT_LCM_CAP,
    Team,
    UPTrace,
    canonicalize,
    lcm,
    parse_team,
    parse_trace_line,
    prfx,
    serialize_team,
    serialize_trace,
    suffix_encoding,
    team_suffix,
    value_at,
)
from .classical import (
    NBA,
    LassoWitness,
    check_trace,
    classical_mc,
    classical_sat,
    ltl_to_nba,
    nba_accepts,
    nba_nonempty,
    trace_values,
    tsat,
)
from .teamcheck import (
    DEFAULT_LIMITS,
    AtomRegistry,
    GenAtomDef,
    Limits,
    SplitMode,
    check_async,
    check_sync,
    constancy_atom_def,
    eval_dep_atom,
    register_gen_atom,
)
from .kripke import (
    KripkeStructure,
    parse_kripke,
    serialize_kripke,
    traces_team_finite,
    validate_kripke,
)
from .modelcheck import (
    subset_sequence,
    team_trace,
    tmc_async,
    tmc_sync_splitfree,
)
from .reductions import (
    QBFInstance,
    parse_qbf,
    pl_team_brute_force,
    qbf_brute_force,
    reduce_plneg_sat_to_tmc,
    reduce_pldep_val_to_tmc,
    reduce_qbf_async_dep,
    reduce_qbf_sync,
)
from .hyper import (
    HYPER_PREFIX_CAP,
    HyperSentence,
    check_hyper,
    forall_hyper_to_ltl,
    free_trace_variables,
    ltl_to_forall_hyper,
    parse_hyper,
    render_hyper,
)

__all__ = [name for name in dir() if not name.startswith("_")]
