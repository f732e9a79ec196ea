"""Team model checking over Kripke structures.

The team of all traces of a structure is usually infinite, but its
synchronous satisfaction of a splitjunction-free formula is decided by a
single derived trace: position i of that trace carries the propositions
common to all worlds reachable in exactly i steps, plus `p_bar` for the
propositions absent from all of them.  Replacing every negative literal
!p by p_bar then reduces team satisfaction to classical satisfaction of
the derived trace, which `check_trace` decides.

The successor sets S_0 = {init}, S_{i+1} = image(S_i) form one lasso.
Its length, not the number of worlds, is what the derived trace costs;
it grows with the lcm of the cycles the sets settle into.
`Limits.max_lcm` caps it: a walk that meets more than max_lcm distinct
sets raises BoundExceeded.

Asynchronous team model checking of pure LTL is classical model checking
(flatness).  Synchronous model checking with splitjunctions has no known
algorithm and is reported as an open problem rather than approximated.
"""

from __future__ import annotations

from dataclasses import dataclass

from .classical import LassoWitness, check_trace, classical_mc
from .errors import (
    BoundExceeded,
    NameCollision,
    UnknownAtom,
    UnsupportedFragment,
    UnsupportedOpenProblem,
)
from .formula import Formula, bar_transform, fragment_info, props
from .kripke import (
    KripkeStructure,
    parse_kripke,
    serialize_kripke,
    traces_team_finite,
    validate_kripke,
)
from .teamcheck import DEFAULT_LIMITS, Limits
from .traces import Characteristic, PropSet, UPTrace

__all__ = [
    "KripkeStructure",
    "SubsetSequence",
    "parse_kripke",
    "serialize_kripke",
    "subset_sequence",
    "team_trace",
    "tmc_sync_splitfree",
    "tmc_async",
    "traces_team_finite",
]


@dataclass
class SubsetSequence:
    """The lasso of successor-set images S_0 = {init}, S_{i+1} = image(S_i)."""

    sets: list[frozenset]
    characteristic: Characteristic


def _image(k: KripkeStructure, worlds: frozenset) -> frozenset:
    out: set[str] = set()
    for w in worlds:
        out.update(k.edges[w])
    return frozenset(out)


def subset_sequence(
    k: KripkeStructure, max_lcm: int | None = DEFAULT_LIMITS.max_lcm
) -> SubsetSequence:
    """Iterate successor sets from {init} until the first repetition.

    Raises BoundExceeded once the walk holds more than `max_lcm` distinct
    sets (None: no cap).
    """
    validate_kripke(k)
    current = frozenset({k.init})
    seen_at = {current: 0}
    sets = [current]
    while True:
        current = _image(k, current)
        if current in seen_at:
            stem = seen_at[current]
            period = len(sets) - stem
            return SubsetSequence(sets=sets, characteristic=Characteristic(stem, period))
        if max_lcm is not None and len(sets) >= max_lcm:
            raise BoundExceeded(
                f"subset sequence holds more than max_lcm = {max_lcm} successor sets"
            )
        seen_at[current] = len(sets)
        sets.append(current)


def _subset_letter(k: KripkeStructure, worlds: frozenset, universe: frozenset) -> PropSet:
    letter: set[str] = set()
    labels = [k.labels[w] for w in worlds]
    for p in universe:
        if all(p in label for label in labels):
            letter.add(p)
        if all(p not in label for label in labels):
            letter.add(p + "_bar")
    return frozenset(letter)


def team_trace(k: KripkeStructure, extra_props=(), limits: Limits | None = None) -> UPTrace:
    """The derived trace of common/commonly-absent propositions.

    `extra_props` widens the proposition universe beyond the labels of k
    (needed when the formula mentions propositions no world carries);
    `limits.max_lcm` caps the length of the subset sequence.
    """
    seq = subset_sequence(k, (limits or DEFAULT_LIMITS).max_lcm)
    return _derived_trace(k, seq, k.proposition_universe() | frozenset(extra_props))


def _derived_trace(k: KripkeStructure, seq: SubsetSequence, universe: frozenset) -> UPTrace:
    stem, period = seq.characteristic
    letters = [_subset_letter(k, worlds, universe) for worlds in seq.sets]
    return UPTrace(tuple(letters[:stem]), tuple(letters[stem : stem + period]))


def _fragment_without_registry(f: Formula):
    try:
        return fragment_info(f)
    except UnknownAtom:
        raise UnsupportedFragment(
            "team model checking does not support generalised atoms"
        ) from None


def tmc_sync_splitfree(k: KripkeStructure, f: Formula, limits: Limits | None = None) -> bool:
    """Synchronous team model checking for splitjunction-free formulas.

    ~ is permitted and evaluated classically on the derived trace.
    Raises NameCollision when the bar-transformed formula reads some
    q_bar while both q and q_bar occur in the formula or the labels of
    reachable worlds: the derived letter's q_bar could then mean either.
    """
    info = _fragment_without_registry(f)
    if not info.splitjunction_free:
        raise UnsupportedOpenProblem(
            "synchronous team model checking with splitjunctions is an open "
            "problem; only splitjunction-free formulas are supported"
        )
    if info.has_dep or info.has_gen:
        raise UnsupportedFragment(
            "synchronous team model checking does not support dependence or "
            "generalised atoms"
        )
    g = bar_transform(f)
    seq = subset_sequence(k, (limits or DEFAULT_LIMITS).max_lcm)
    names = props(f).union(*(k.labels[w] for w in frozenset().union(*seq.sets)))
    for bar in props(g):
        q = bar.removesuffix("_bar")
        if q != bar and {q, bar} <= names:
            raise NameCollision(
                f"proposition {bar!r} collides with the name for {q!r} being absent"
            )
    return check_trace(_derived_trace(k, seq, names), g)


# verdictbench calls tmc_sync_splitfree_onthefly and wraps ltl_to_nba and
# _emptiness_search here, so these names stay
tmc_sync_splitfree_onthefly = tmc_sync_splitfree
from .classical import _emptiness_search, ltl_to_nba  # noqa: E402, F401


def tmc_async(k: KripkeStructure, f: Formula) -> tuple[bool, LassoWitness | None]:
    """Asynchronous team model checking = classical model checking (flatness)."""
    info = _fragment_without_registry(f)
    if not info.pure_ltl:
        raise UnsupportedFragment(
            "asynchronous team model checking supports pure LTL only; the "
            "extensions have hardness reductions but no evaluation algorithm"
        )
    return classical_mc(k, f)
