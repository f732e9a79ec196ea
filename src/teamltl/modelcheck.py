"""Team model checking over Kripke structures.

The team of all traces of a structure is usually infinite, but its
synchronous satisfaction of a splitjunction-free formula is decided on
the lasso of successor sets S_0 = {init}, S_{i+1} = image(S_i): the
team's i-th suffix has exactly the worlds of S_i at its first position.
So at position i a literal p holds iff every world of S_i carries p, and
!p iff none does; `tmc_sync_splitfree` evaluates the formula with
`classical.node_values` on that lasso, position i stepping to i + 1.

The lasso's length, not the number of worlds, is what this costs; it
grows with the lcm of the cycles the sets settle into.
`Limits.max_lcm` caps it: a walk that meets more than max_lcm distinct
sets raises BoundExceeded.

Asynchronous team model checking of pure LTL is classical model checking
(flatness).  Synchronous model checking with splitjunctions has no known
algorithm and is reported as an open problem rather than approximated.
"""

from __future__ import annotations

from dataclasses import dataclass

from .classical import LassoWitness, _Nodes, classical_mc, node_values
from .errors import BoundExceeded, UnknownAtom, UnsupportedFragment, UnsupportedOpenProblem
from .formula import Formula, fragment_info
from .kripke import KripkeStructure, validate_kripke
from .teamcheck import DEFAULT_LIMITS, Limits
from .traces import Characteristic

__all__ = [
    "SubsetSequence",
    "subset_sequence",
    "tmc_sync_splitfree",
    "tmc_async",
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


def _fragment_without_registry(f: Formula):
    try:
        return fragment_info(f)
    except UnknownAtom:
        raise UnsupportedFragment(
            "team model checking does not support generalised atoms"
        ) from None


def tmc_sync_splitfree(k: KripkeStructure, f: Formula, limits: Limits | None = None) -> bool:
    """Synchronous team model checking for splitjunction-free formulas.

    A positive literal reads the labels all worlds of S_i share, a
    negative one the labels any world of S_i carries; ~ is classical
    negation of the value on the lasso.
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
    seq = subset_sequence(k, (limits or DEFAULT_LIMITS).max_lcm)
    labels = [[k.labels[w] for w in worlds] for worlds in seq.sets]
    shared = [frozenset.intersection(*ls) for ls in labels]
    carried = [frozenset.union(*ls) for ls in labels]
    succ = list(range(1, len(labels))) + [seq.characteristic.stem]
    nodes = _Nodes(f)
    return node_values(nodes, succ, shared, negated=carried)[nodes.root][0]


# verdictbench calls tmc_sync_splitfree_onthefly and wraps check_trace,
# ltl_to_nba and _emptiness_search here, so these names stay
tmc_sync_splitfree_onthefly = tmc_sync_splitfree
from .classical import _emptiness_search, check_trace, ltl_to_nba  # noqa: E402, F401


def tmc_async(k: KripkeStructure, f: Formula) -> tuple[bool, LassoWitness | None]:
    """Asynchronous team model checking = classical model checking (flatness)."""
    info = _fragment_without_registry(f)
    if not info.pure_ltl:
        raise UnsupportedFragment(
            "asynchronous team model checking supports pure LTL only; the "
            "extensions have hardness reductions but no evaluation algorithm"
        )
    return classical_mc(k, f)
