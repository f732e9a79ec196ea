"""Tests for team model checking over Kripke structures."""

import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from teamltl.errors import BoundExceeded, UnsupportedFragment, UnsupportedOpenProblem
from teamltl.formula import parse_formula as parse
from teamltl.kripke import (
    KripkeStructure,
    _worlds_on_cycles,
    parse_kripke,
    traces_team_finite,
)
from teamltl.modelcheck import subset_sequence, tmc_async, tmc_sync_splitfree
from teamltl.classical import check_trace
from teamltl.teamcheck import Limits, check_sync

from .util import random_kripke, random_splitfree_formula, sync_model_oracle

P_CYCLE = parse_kripke(
    """
    world w { p }
    edge w w
    init w
    """
)

BRANCH = parse_kripke(
    """
    world r { }
    world a { p }
    world b { }
    edge r a
    edge r b
    edge a a
    edge b b
    init r
    """
)

CHAIN = parse_kripke(
    """
    world w0 { p }
    world w1 { p q }
    world w2 { q }
    edge w0 w1
    edge w1 w2
    edge w2 w1
    init w0
    """
)


# ---------------------------------------------------------------------------
# subset sequence


def test_subset_sequence_pinned():
    seq = subset_sequence(BRANCH)
    assert seq.sets == [frozenset({"r"}), frozenset({"a", "b"})]
    assert seq.characteristic == (1, 1)

    seq = subset_sequence(CHAIN)
    assert seq.sets == [frozenset({"w0"}), frozenset({"w1"}), frozenset({"w2"})]
    assert seq.characteristic == (1, 2)

    seq = subset_sequence(P_CYCLE)
    assert seq.sets == [frozenset({"w"})]
    assert seq.characteristic == (0, 1)


def cycles(*lengths) -> KripkeStructure:
    """An initial world r entering disjoint cycles of the given lengths;
    the first world of each cycle carries p."""
    rings = [[f"c{c}_{i}" for i in range(n)] for c, n in enumerate(lengths)]
    labels = {"r": frozenset()}
    edges = {"r": tuple(ring[0] for ring in rings)}
    for ring in rings:
        for i, w in enumerate(ring):
            labels[w] = frozenset({"p"}) if i == 0 else frozenset()
            edges[w] = (ring[(i + 1) % len(ring)],)
    return KripkeStructure(tuple(labels), labels, edges, "r")


def test_subset_sequence_length_cap():
    n = 21
    worlds = tuple(f"w{i}" for i in range(n))
    k = KripkeStructure(
        worlds=worlds,
        labels={w: frozenset() for w in worlds},
        edges={worlds[i]: (worlds[(i + 1) % n],) for i in range(n)},
        init=worlds[0],
    )
    assert subset_sequence(k).characteristic == (0, 21)
    assert subset_sequence(k, max_lcm=21).characteristic == (0, 21)
    assert tmc_sync_splitfree(k, parse("G !p"))
    with pytest.raises(BoundExceeded, match="max_lcm = 20"):
        subset_sequence(k, max_lcm=20)
    with pytest.raises(BoundExceeded):
        tmc_sync_splitfree(k, parse("G !p"), limits=Limits(max_lcm=20))


def test_sync_model_checking_long_period():
    # the successor sets settle into a period of 2*3*5*7*11*13 = 30,030,
    # with p common to all of them only once per period
    k = cycles(2, 3, 5, 7, 11, 13)
    assert subset_sequence(k).characteristic == (1, 30030)
    assert tmc_sync_splitfree(k, parse("X G F p"))
    assert not tmc_sync_splitfree(k, parse("F G !p"))
    assert not tmc_sync_splitfree(k, parse("X X p"))


def test_tmc_sync_literals_read_successor_sets():
    assert tmc_sync_splitfree(P_CYCLE, parse("G p"))
    assert not tmc_sync_splitfree(P_CYCLE, parse("!p"))

    # position 0: only r, which has no p; position 1: {a, b} disagree on
    # p, so neither p nor !p holds there
    assert tmc_sync_splitfree(BRANCH, parse("!p"))
    for text, holds in (("X p", False), ("X !p", False), ("X ~p", True), ("X ~!p", True)):
        assert tmc_sync_splitfree(BRANCH, parse(text)) is holds, text

    # positions {w0} then the loop {w1} {w2}
    assert tmc_sync_splitfree(CHAIN, parse("p & !q"))
    assert tmc_sync_splitfree(CHAIN, parse("X (p & q) & X X (q & !p) & X X X (p & q)"))
    assert not tmc_sync_splitfree(CHAIN, parse("X X (p & q)"))


def test_tmc_sync_proposition_no_world_carries():
    # a proposition no world carries is commonly absent at every position
    assert tmc_sync_splitfree(P_CYCLE, parse("G !z"))
    assert not tmc_sync_splitfree(P_CYCLE, parse("F z"))
    assert tmc_sync_splitfree(P_CYCLE, parse("~z & p"))


def test_tmc_sync_ignores_unreachable_worlds():
    padded = parse_kripke(
        """
        world r { }
        world a { p }
        world b { }
        world ghost { p q }
        edge r a
        edge r b
        edge a a
        edge b b
        edge ghost r
        init r
        """
    )
    for text, holds in (("G !q", True), ("!p", True), ("X p", False), ("X !p", False), ("F q", False)):
        assert tmc_sync_splitfree(padded, parse(text)) is holds, text
        assert tmc_sync_splitfree(BRANCH, parse(text)) is holds, text


def test_traces_team_finite_long_chain():
    # w0 -> w1 -> ... -> w1999 -> w1999: one path step per world, deeper
    # than the interpreter's recursion limit
    worlds = tuple(f"w{i}" for i in range(2000))
    labels = {w: frozenset() for w in worlds}
    labels["w1999"] = frozenset({"p"})
    edges = {w: (succ,) for w, succ in zip(worlds, worlds[1:] + ("w1999",))}
    (t,) = traces_team_finite(KripkeStructure(worlds, labels, edges, "w0"))
    assert len(t.prefix) == 1999
    assert t.loop == (frozenset({"p"}),)


def test_worlds_on_cycles_matches_self_reachability():
    def reach(k, starts):
        seen, stack = set(starts), list(starts)
        while stack:
            for succ in k.edges[stack.pop()]:
                if succ not in seen:
                    seen.add(succ)
                    stack.append(succ)
        return seen

    rng = random.Random(11)
    for _ in range(300):
        k = random_kripke(rng, max_worlds=8, branch_prob=0.4)
        # w lies on a cycle iff it reaches itself in one step or more
        expected = {w for w in reach(k, [k.init]) if w in reach(k, k.edges[w])}
        assert _worlds_on_cycles(k) == expected, k


def _diamond_ladder(rungs: int) -> KripkeStructure:
    # r -> both worlds of rung 0 -> both of rung 1 -> ... -> sink: 2^rungs
    # acyclic paths, so as many traces
    rows = [(f"a{i}", f"b{i}") for i in range(rungs)] + [("z",)]
    worlds = ("r",) + tuple(w for row in rows for w in row)
    labels = {w: frozenset({"p"} if w.startswith("a") else ()) for w in worlds}
    edges = {"r": rows[0], "z": ("z",)}
    for row, succ in zip(rows, rows[1:]):
        edges.update({w: succ for w in row})
    return KripkeStructure(worlds, labels, edges, "r")


def test_traces_team_finite_trace_cap():
    assert len(traces_team_finite(_diamond_ladder(16))) == 2**16
    with pytest.raises(BoundExceeded, match="MAX_FINITE_TRACES = 65536"):
        traces_team_finite(_diamond_ladder(17))


# ---------------------------------------------------------------------------
# synchronous engine, materialized


def test_tmc_sync_pinned_verdicts():
    assert tmc_sync_splitfree(P_CYCLE, parse("G p"))
    assert not tmc_sync_splitfree(BRANCH, parse("X p"))
    assert tmc_sync_splitfree(CHAIN, parse("X G q"))
    assert not tmc_sync_splitfree(CHAIN, parse("G q"))
    assert tmc_sync_splitfree(CHAIN, parse("F !p"))
    assert not tmc_sync_splitfree(CHAIN, parse("G (p & q)"))


def test_tmc_sync_contradictory_negation():
    assert tmc_sync_splitfree(BRANCH, parse("~X p"))
    assert not tmc_sync_splitfree(P_CYCLE, parse("~G p"))


def test_tmc_sync_rejects_splitjunction():
    with pytest.raises(UnsupportedOpenProblem):
        tmc_sync_splitfree(P_CYCLE, parse("p | q"))


def test_tmc_sync_rejects_atoms():
    with pytest.raises(UnsupportedFragment):
        tmc_sync_splitfree(P_CYCLE, parse("dep(p; q)"))
    with pytest.raises(UnsupportedFragment):
        tmc_sync_splitfree(P_CYCLE, parse("@anything(p)"))


def test_tmc_sync_matches_enumerated_team():
    rng = random.Random(404)
    checked = 0
    attempts = 0
    while checked < 60 and attempts < 4000:
        attempts += 1
        k = random_kripke(rng, max_worlds=5)
        team = traces_team_finite(k)
        if team is None:
            continue
        f = random_splitfree_formula(rng, depth=3, pool=("p", "q"), allow_neg=True)
        assert tmc_sync_splitfree(k, f) == check_sync(team, f), (
            f"disagreement on {f!r} over\n{k}"
        )
        checked += 1
    assert checked == 60


def test_materialized_matches_oracle():
    # branching structures, many with infinite trace teams
    rng = random.Random(405)
    neg_rng = random.Random(407)
    for _ in range(120):
        k = random_kripke(rng, max_worlds=6, branch_prob=0.4)
        f = random_splitfree_formula(rng, depth=3, pool=("p", "q"))
        g = random_splitfree_formula(neg_rng, depth=3, pool=("p", "q"), allow_neg=True)
        for h in (f, g):
            assert tmc_sync_splitfree(k, h) == sync_model_oracle(k, h), (
                f"disagreement on {h!r} over\n{k}"
            )


BAR_POOL = ("p", "q", "p_bar")


def test_tmc_sync_rejects_bar_labels_next_to_their_names():
    # a name ending in _bar is a proposition like any other: !p reads the
    # absence of p, never a label p_bar, so these get the verdicts of
    # check_sync on their finite teams
    k = parse_kripke("world a { p p_bar }\nedge a a\ninit a\n")
    assert check_sync(traces_team_finite(k), parse("!p")) is False
    assert tmc_sync_splitfree(k, parse("!p")) is False
    k = parse_kripke("world r { p }\nworld a { }\nedge r a\nedge a a\ninit r\n")
    for text, holds in (("X p_bar", False), ("X !p_bar", True), ("X !p", True), ("X !q", True)):
        assert check_sync(traces_team_finite(k), parse(text)) is holds, text
        assert tmc_sync_splitfree(k, parse(text)) is holds, text


def test_tmc_sync_reads_only_reachable_labels():
    # p_bar labels only a world that init never reaches, so !p reads as
    # the common absence of p from the reachable worlds
    k = parse_kripke("world a { p }\nworld ghost { p_bar }\nedge a a\nedge ghost a\ninit a\n")
    assert check_sync(traces_team_finite(k), parse("!p")) is False
    assert tmc_sync_splitfree(k, parse("!p")) is False
    # q labels only an unreachable world: the formula's q_bar is a name
    # like any other
    for label, holds in (("", False), ("q_bar", True)):
        k = parse_kripke(
            f"world a {{ {label} }}\nworld ghost {{ q }}\nedge a a\nedge ghost a\ninit a\n"
        )
        assert check_sync(traces_team_finite(k), parse("q_bar")) is holds
        assert tmc_sync_splitfree(k, parse("q_bar")) is holds


@settings(max_examples=200, deadline=None)
@given(st.randoms(use_true_random=False))
def test_tmc_sync_with_bar_labels_matches_finite_team(rng):
    k = random_kripke(rng, max_worlds=4, pool=BAR_POOL)
    team = traces_team_finite(k)
    assume(team is not None)
    f = random_splitfree_formula(rng, depth=3, pool=BAR_POOL, allow_neg=True)
    assert tmc_sync_splitfree(k, f) == check_sync(team, f)


# ---------------------------------------------------------------------------
# asynchronous engine


def test_tmc_async_pinned():
    holds, cex = tmc_async(P_CYCLE, parse("G p"))
    assert holds and cex is None

    holds, cex = tmc_async(BRANCH, parse("X p"))
    assert not holds
    assert not check_trace(cex.as_trace(), parse("X p"))

    # splitjunction is plain disjunction here
    holds, _ = tmc_async(BRANCH, parse("X (p | !p)"))
    assert holds


def test_tmc_async_rejects_extensions():
    for text in ("~p", "dep(p; q)", "@anything(p)"):
        with pytest.raises(UnsupportedFragment):
            tmc_async(P_CYCLE, parse(text))


def test_tmc_async_is_flat_on_finite_teams():
    rng = random.Random(406)
    checked = 0
    attempts = 0
    while checked < 40 and attempts < 3000:
        attempts += 1
        k = random_kripke(rng, max_worlds=5)
        team = traces_team_finite(k)
        if team is None:
            continue
        f = random_splitfree_formula(rng, depth=3, pool=("p", "q"))
        holds, _ = tmc_async(k, f)
        assert holds == all(check_trace(t, f) for t in team)
        checked += 1
    assert checked == 40
