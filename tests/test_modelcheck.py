"""Tests for team model checking over Kripke structures."""

import random

import pytest

from teamltl.errors import (
    BoundExceeded,
    UnsupportedFragment,
    UnsupportedOpenProblem,
)
from teamltl.formula import parse_formula as parse, props
from teamltl.kripke import KripkeStructure, parse_kripke, traces_team_finite
from teamltl.modelcheck import (
    subset_sequence,
    team_trace,
    tmc_async,
    tmc_sync_splitfree,
    tmc_sync_splitfree_onthefly,
)
from teamltl.classical import check_trace
from teamltl.teamcheck import check_sync
from teamltl.traces import UPTrace

from .util import random_kripke, random_splitfree_formula

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
# subset sequence and derived trace


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


def test_subset_sequence_world_cap():
    n = 21
    worlds = tuple(f"w{i}" for i in range(n))
    k = KripkeStructure(
        worlds=worlds,
        labels={w: frozenset() for w in worlds},
        edges={worlds[i]: (worlds[(i + 1) % n],) for i in range(n)},
        init=worlds[0],
    )
    with pytest.raises(BoundExceeded):
        subset_sequence(k)
    assert subset_sequence(k, world_cap=21).characteristic == (0, 21)


def test_team_trace_pinned():
    assert team_trace(P_CYCLE) == UPTrace((), (frozenset({"p"}),))

    # position 0: only r, which has no p; position 1: {a, b} disagree on p.
    assert team_trace(BRANCH) == UPTrace(
        (frozenset({"p_bar"}),), (frozenset(),)
    )

    assert team_trace(CHAIN) == UPTrace(
        (frozenset({"p", "q_bar"}),),
        (frozenset({"p", "q"}), frozenset({"q", "p_bar"})),
    )


def test_team_trace_extra_props():
    # A proposition no world carries is commonly absent at every position.
    t = team_trace(P_CYCLE, extra_props=("z",))
    assert t == UPTrace((), (frozenset({"p", "z_bar"}),))


def test_team_trace_ignores_unreachable_worlds():
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
    assert team_trace(padded) == team_trace(BRANCH, extra_props=("q",))


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


# ---------------------------------------------------------------------------
# synchronous engine, on the fly


def test_onthefly_pinned_verdicts():
    assert tmc_sync_splitfree_onthefly(P_CYCLE, parse("G p"))
    assert not tmc_sync_splitfree_onthefly(BRANCH, parse("X p"))
    assert tmc_sync_splitfree_onthefly(CHAIN, parse("X G q"))
    assert not tmc_sync_splitfree_onthefly(CHAIN, parse("G q"))


def test_onthefly_rejects_contradictory_negation():
    with pytest.raises(UnsupportedFragment):
        tmc_sync_splitfree_onthefly(BRANCH, parse("~X p"))


def test_onthefly_rejects_splitjunction():
    with pytest.raises(UnsupportedOpenProblem):
        tmc_sync_splitfree_onthefly(P_CYCLE, parse("p | q"))


def test_onthefly_matches_materialized():
    rng = random.Random(405)
    for _ in range(120):
        k = random_kripke(rng, max_worlds=6, branch_prob=0.4)
        f = random_splitfree_formula(rng, depth=3, pool=("p", "q"))
        assert tmc_sync_splitfree_onthefly(k, f) == tmc_sync_splitfree(k, f), (
            f"disagreement on {f!r} over\n{k}"
        )


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
