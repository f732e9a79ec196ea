"""Team path checking: synchronous, asynchronous, atoms, splits, budgets."""

import random
from itertools import chain, combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from teamltl.classical import check_trace, trace_values
from teamltl.errors import BoundExceeded, DuplicateName, UnknownAtom, VectorSpaceExceeded
from teamltl.formula import Next, Release, Split, Until, parse_formula
from teamltl.teamcheck import (
    AtomRegistry,
    GenAtomDef,
    Limits,
    SplitMode,
    check_async,
    check_async_general,
    check_sync,
    constancy_atom_def,
    eval_dep_atom,
    register_gen_atom,
)
from teamltl.traces import (
    Team,
    UPTrace,
    lcm,
    parse_team,
    parse_trace_line,
    prfx,
    suffix_encoding,
    team_suffix,
)

from .util import (
    formulas,
    letters,
    nonempty_teams,
    oracle_trace,
    random_formula,
    random_team,
    teams,
    up_traces,
)

E = frozenset()


def T(line):
    return parse_trace_line(line)


def team_of(*lines):
    return Team(T(line) for line in lines)


EXAMPLE_TEAM = team_of("{p} ; {}", "{} {p} ; {}")


# ---------------------------------------------------------------------------
# dependence and generalised atoms


def test_eval_dep_atom_pinned():
    assert eval_dep_atom([frozenset({"p", "q"}), E], ("p",), ("q",))
    assert not eval_dep_atom([frozenset({"p"}), frozenset({"p", "q"})], ("p",), ("q",))
    letters = [
        frozenset({"i1", "o1"}),
        frozenset({"i1", "o1"}),
        frozenset({"o1"}),
    ]
    assert eval_dep_atom(letters, ("i1",), ("o1",))


def test_eval_dep_atom_constancy():
    assert eval_dep_atom([frozenset({"p"}), frozenset({"p", "q"})], (), ("p",))
    assert not eval_dep_atom([frozenset({"p"}), E], (), ("p",))
    assert eval_dep_atom([], (), ("p",))


def test_registry():
    reg = register_gen_atom(constancy_atom_def())
    assert "constant" in reg
    with pytest.raises(DuplicateName):
        reg.register(constancy_atom_def())
    with pytest.raises(UnknownAtom):
        check_sync(EXAMPLE_TEAM, parse_formula("@ghost(p)"))
    with pytest.raises(UnknownAtom):
        check_sync(EXAMPLE_TEAM, parse_formula("@ghost(p)"), atoms=reg)


def test_constancy_atom_matches_dep():
    reg = AtomRegistry([constancy_atom_def()])
    rng = random.Random(3)
    gen = parse_formula("@constant(p)")
    dep = parse_formula("dep(;p)")
    for _ in range(100):
        team = random_team(rng)
        assert check_sync(team, gen, atoms=reg) == check_sync(team, dep)
        assert check_async(team, gen, atoms=reg) == check_async(team, dep)


def test_dep_atom_on_team():
    assert not check_async(EXAMPLE_TEAM, parse_formula("dep(;p)"))
    assert not check_sync(EXAMPLE_TEAM, parse_formula("dep(;p)"))
    assert check_sync(team_of("{p} ; {}"), parse_formula("dep(;p)"))


# ---------------------------------------------------------------------------
# pinned synchronous / asynchronous behaviour


def test_example_team_pinned():
    assert not check_sync(EXAMPLE_TEAM, parse_formula("F p"))
    assert check_sync(EXAMPLE_TEAM, parse_formula("F p | F p"))
    assert check_async(EXAMPLE_TEAM, parse_formula("F p"))
    assert check_async_general(EXAMPLE_TEAM, parse_formula("F p"), flat_subformulas=False)


def test_union_breaks_sync_eventually():
    left = team_of("{p} ; {}")
    right = team_of("{} {p} ; {}")
    f = parse_formula("F p")
    assert check_sync(left, f)
    assert check_sync(right, f)
    assert not check_sync(left | right, f)


def test_empty_team():
    empty = Team([])
    for text in ["p", "!p", "F p", "G (p & !p)", "p U q", "dep(p;q)", "p | q"]:
        assert check_sync(empty, parse_formula(text)), text
        assert check_async(empty, parse_formula(text)), text
    assert not check_sync(empty, parse_formula("~(p & !p)"))
    assert not check_async_general(empty, parse_formula("~(p & !p)"))


def test_sync_next_and_globally():
    team = team_of("{p} {q} ; {r}", "{p} {q,p} ; {r}")
    assert check_sync(team, parse_formula("p & X q & X X G r"))
    assert not check_sync(team, parse_formula("X p"))


def test_sync_until_lockstep():
    # both traces reach q at the same position 2
    team = team_of("{p} {p} ; {q}", "{p} {p} {q} ; {q}")
    assert check_sync(team, parse_formula("p U q"))
    # misaligned q positions: lockstep until fails, asynchronous holds
    team = team_of("{p} {q} ; {}", "{p} {p} {q} ; {}")
    assert not check_sync(team, parse_formula("p U q"))
    assert check_async(team, parse_formula("p U q"))


# ---------------------------------------------------------------------------
# split modes


def test_split_mode_forced_disagreement():
    f = parse_formula("~(p & !p) | ~(p & !p)")
    single = team_of("{p} ; {}")
    assert check_sync(single, f, split_mode=SplitMode.ALL_COVERS)
    assert not check_sync(single, f, split_mode=SplitMode.DISJOINT_ONLY)


@settings(max_examples=150)
@given(teams(max_size=3), formulas(max_leaves=4, allow_dep=True))
def test_split_modes_agree_on_downward_closed(team, f):
    assert check_sync(team, f, split_mode=SplitMode.DISJOINT_ONLY) == check_sync(
        team, f, split_mode=SplitMode.ALL_COVERS
    )


def test_cover_split_team_cap():
    team = Team([UPTrace((), (frozenset({f"x{i}"}),)) for i in range(5)])
    f = parse_formula("F p | F q")  # non-flat parts force cover enumeration
    with pytest.raises(BoundExceeded):
        check_sync(team, f, limits=Limits(max_split_team=4), split_mode=SplitMode.ALL_COVERS)
    # disjoint mode has no such cap
    check_sync(team, f, limits=Limits(max_split_team=4), split_mode=SplitMode.DISJOINT_ONLY)


# ---------------------------------------------------------------------------
# reference evaluator (naive, enumerative) for the synchronous engine


def _subsets(items):
    items = list(items)
    return chain.from_iterable(combinations(items, r) for r in range(len(items) + 1))


def naive_sync(team, f, mode):
    from teamltl.formula import (
        And,
        ContradictoryNeg,
        DepAtom,
        Eventually,
        Globally,
        NegativeLiteral,
        Next,
        PositiveLiteral,
        Release,
        Until,
    )
    from teamltl.traces import suffix_encoding, value_at

    members = frozenset(team)

    def shift(ts, k):
        return frozenset(suffix_encoding(t, k) for t in ts)

    def bound(ts):
        return prfx(Team(ts)) + lcm(Team(ts))

    def ev(ts, g):
        match g:
            case PositiveLiteral(name):
                return all(name in value_at(t, 0) for t in ts)
            case NegativeLiteral(name):
                return all(name not in value_at(t, 0) for t in ts)
            case DepAtom(ds, qs):
                return eval_dep_atom([value_at(t, 0) for t in ts], ds, qs)
            case ContradictoryNeg(sub):
                return not ev(ts, sub)
            case And(lhs, rhs):
                return ev(ts, lhs) and ev(ts, rhs)
            case Split(lhs, rhs):
                for part in map(frozenset, _subsets(ts)):
                    rest = ts - part
                    if mode is SplitMode.DISJOINT_ONLY:
                        if ev(part, lhs) and ev(rest, rhs):
                            return True
                    else:
                        for extra in map(frozenset, _subsets(part)):
                            if ev(part, lhs) and ev(rest | extra, rhs):
                                return True
                return False
            case Next(sub):
                return ev(shift(ts, 1), sub)
            case Eventually(sub):
                return any(ev(shift(ts, k), sub) for k in range(bound(ts) + 1))
            case Globally(sub):
                return all(ev(shift(ts, k), sub) for k in range(bound(ts) + 1))
            case Until(lhs, rhs):
                return any(
                    ev(shift(ts, k), rhs)
                    and all(ev(shift(ts, j), lhs) for j in range(k))
                    for k in range(bound(ts) + 1)
                )
            case Release(lhs, rhs):
                return all(
                    ev(shift(ts, k), rhs)
                    or any(ev(shift(ts, j), lhs) for j in range(k))
                    for k in range(bound(ts) + 1)
                )
        raise AssertionError(f"naive evaluator cannot handle {g!r}")

    return ev(members, f)


@settings(max_examples=150, deadline=None)
@given(teams(max_size=3, max_prefix=2, max_loop=2), formulas(max_leaves=4, allow_dep=True))
def test_sync_engine_matches_naive_reference(team, f):
    assert check_sync(team, f) == naive_sync(team, f, SplitMode.DISJOINT_ONLY)


@settings(max_examples=75, deadline=None)
@given(teams(max_size=2, max_prefix=1, max_loop=2), formulas(max_leaves=3, allow_neg=True))
def test_sync_engine_matches_naive_reference_with_neg(team, f):
    assert check_sync(team, f) == naive_sync(team, f, SplitMode.ALL_COVERS)


# ---------------------------------------------------------------------------
# the integer kernel on teams whose members share suffix orbits


@st.composite
def orbit_sharing_teams(draw):
    """A trace, some of its own suffixes, and maybe a prefixed trace that
    enters a rotation of its loop: members whose orbits overlap."""
    t = draw(up_traces(max_prefix=2, max_loop=3))
    members = {t} | {suffix_encoding(t, k) for k in draw(st.lists(st.integers(1, 6), max_size=3))}
    if draw(st.booleans()):
        r = draw(st.integers(0, len(t.loop) - 1))
        members.add(UPTrace((draw(letters()),), t.loop[r:] + t.loop[:r]))
    return Team(members)


@st.composite
def coprime_loop_teams(draw):
    """Loops of pairwise coprime lengths 2, 3 and 5 (lcm 30)."""
    return Team(
        UPTrace(
            tuple(draw(st.lists(letters(), max_size=1))),
            tuple(draw(st.lists(letters(), min_size=n, max_size=n))),
        )
        for n in (2, 3, 5)
    )


@settings(max_examples=150, deadline=None)
@given(orbit_sharing_teams(), formulas(max_leaves=4, allow_dep=True))
def test_sync_kernel_on_shared_orbits(team, f):
    assert check_sync(team, f) == naive_sync(team, f, SplitMode.DISJOINT_ONLY)


@settings(max_examples=75, deadline=None)
@given(orbit_sharing_teams(), formulas(max_leaves=3, allow_neg=True))
def test_sync_kernel_on_shared_orbits_with_neg(team, f):
    assert check_sync(team, f) == naive_sync(team, f, SplitMode.ALL_COVERS)


@settings(max_examples=100, deadline=None)
@given(orbit_sharing_teams(), formulas(max_leaves=4, allow_dep=True))
def test_async_kernel_on_shared_orbits(team, f):
    assert check_async(team, f) == check_async_general(team, f, flat_subformulas=False)


@settings(max_examples=40, deadline=None)
@given(coprime_loop_teams(), formulas(max_leaves=3, allow_dep=True))
def test_kernels_on_coprime_loops(team, f):
    assert check_sync(team, f) == naive_sync(team, f, SplitMode.DISJOINT_ONLY)
    assert check_async(team, f) == check_async_general(team, f, flat_subformulas=False)


@settings(max_examples=200)
@given(up_traces(), formulas(max_leaves=6, allow_neg=True))
def test_trace_values_match_suffix_checks(t, f):
    values = trace_values(t, f)
    assert len(values) == len(t.prefix) + len(t.loop)
    assert values == [oracle_trace(suffix_encoding(t, i), f) for i in range(len(values))]


@settings(max_examples=60, deadline=None)
@given(
    st.one_of(coprime_loop_teams(), orbit_sharing_teams()),
    formulas(max_leaves=5),
)
def test_pure_masks_match_oracle(team, f):
    # the flat shortcut reads pure masks off a universe with several
    # cycles and the tails leading into them
    assert check_async_general(team, f) == all(oracle_trace(t, f) for t in team)


@settings(max_examples=150, deadline=None)
@given(up_traces(max_prefix=3, max_loop=12), st.data())
def test_check_trace_fixpoints_wrap_long_loops(t, data):
    # U/R nested under U/R, so a fixpoint's value at the loop start
    # depends on positions further round the loop
    leaf = formulas(max_leaves=1)
    inner = st.tuples(st.sampled_from([Until, Release]), leaf, leaf).map(lambda x: x[0](x[1], x[2]))
    operand = st.one_of(leaf, inner, inner.map(Next))
    outer = st.tuples(st.sampled_from([Until, Release]), operand, operand)
    f = data.draw(outer.map(lambda x: x[0](x[1], x[2])))
    assert check_trace(t, f) == oracle_trace(t, f)


# ---------------------------------------------------------------------------
# semantic properties


@settings(max_examples=200)
@given(nonempty_teams(max_size=1), formulas(max_leaves=6))
def test_singleton_equivalence(team, f):
    (t,) = tuple(team)
    expected = check_trace(t, f)
    assert check_sync(team, f) == expected
    assert check_async(team, f) == expected


@settings(max_examples=150)
@given(teams(max_size=3), formulas(max_leaves=5))
def test_sync_implies_async_pure_ltl(team, f):
    if check_sync(team, f):
        assert check_async(team, f)


@settings(max_examples=150)
@given(teams(max_size=3), formulas(max_leaves=5))
def test_async_flatness_pure_ltl(team, f):
    assert check_async(team, f) == all(check_trace(t, f) for t in team)


@settings(max_examples=100, deadline=None)
@given(teams(max_size=3, max_prefix=1, max_loop=2), formulas(max_leaves=4))
def test_async_general_matches_flat_path(team, f):
    assert check_async_general(team, f, flat_subformulas=False) == check_async(team, f)


@settings(max_examples=100, deadline=None)
@given(teams(max_size=4, max_prefix=2, max_loop=2), formulas(max_leaves=4, allow_dep=True))
def test_downward_closure(team, f):
    members = tuple(team)
    for semantics in (check_sync, check_async):
        if semantics(team, f):
            for sub in map(Team, _subsets(members)):
                assert semantics(sub, f), (semantics.__name__, sub)


@settings(max_examples=100, deadline=None)
@given(teams(max_size=3, max_prefix=2, max_loop=2), formulas(max_leaves=4), st.integers(0, 2))
def test_sync_suffix_period_invariance(team, f, extra):
    i = prfx(team) + extra
    step = lcm(team)
    assert check_sync(team_suffix(team, i), f) == check_sync(team_suffix(team, i + step), f)


@settings(max_examples=100, deadline=None)
@given(teams(max_size=2, max_prefix=1, max_loop=2), formulas(max_leaves=3, allow_dep=True))
def test_async_general_downward_closed_with_dep(team, f):
    if check_async_general(team, f, flat_subformulas=False):
        for sub in map(Team, _subsets(tuple(team))):
            assert check_async_general(sub, f, flat_subformulas=False)


# ---------------------------------------------------------------------------
# budgets


def test_lcm_budget():
    members = [UPTrace((), tuple([frozenset({"p"})] + [E] * (n - 1))) for n in (2, 3, 5, 7, 11)]
    team = Team(members)
    with pytest.raises(BoundExceeded):
        check_sync(team, parse_formula("F p"), limits=Limits(max_lcm=100))


def test_vector_budget():
    members = [
        UPTrace((), tuple(frozenset({f"t{i}"}) if j == 0 else E for j in range(4)))
        for i in range(6)
    ]
    team = Team(members)
    with pytest.raises(VectorSpaceExceeded):
        check_async_general(
            team,
            parse_formula("F (p & !p)"),
            limits=Limits(max_grid=100),
            flat_subformulas=False,
        )


def test_gen_atom_predicate_receives_args():
    seen = {}

    def predicate(first_letters, args):
        seen["letters"] = list(first_letters)
        seen["args"] = args
        return True

    reg = AtomRegistry([GenAtomDef("probe", 2, predicate, downward_closed=True)])
    team = team_of("{a} ; {}", "{b} ; {}")
    assert check_sync(team, parse_formula("@probe(a,b)"), atoms=reg)
    assert seen["args"] == ("a", "b")
    assert sorted(map(sorted, seen["letters"])) == [["a"], ["b"]]


# ---------------------------------------------------------------------------
# shift-orbit memoisation must respect multiplicity


def test_async_orbit_memo_distinguishes_rotation_multiplicity():
    """Two rotations of one loop are distinct team members; a team holding
    both must not share F/G memo entries with its singleton subteams."""
    b0 = UPTrace((), (frozenset({"p"}), frozenset()))
    b1 = UPTrace((), (frozenset(), frozenset({"p"})))
    pair = Team([b0, b1])
    g_dep = parse_formula("G dep(; p)")
    # each singleton satisfies constancy trivially, the pair does not:
    # the shift vector (0, 0) exposes letters {p} and {}
    assert check_async(Team([b0]), g_dep) is True
    assert check_async(Team([b1]), g_dep) is True
    assert check_async(pair, g_dep) is False
    # one evaluation that visits a singleton and the full pair: the split
    # succeeds on {b0} / {b1} while the negated conjunct re-checks the pair
    f = parse_formula("(G dep(; p) | G dep(; p)) & ~ G dep(; p)")
    assert check_async(pair, f) is True


def test_async_orbit_memo_keeps_prefixed_trace_apart_from_its_loop():
    """A trace with a prefix and its own loop suffix have different orbits;
    G on the singleton of one must not answer for the other."""
    t = T("{p} ; {}")
    loop = suffix_encoding(t, 1)
    g = parse_formula("G (!p & dep(; q))")
    assert check_async(Team([loop]), g) is True
    assert check_async(Team([t]), g) is False
    assert check_async(Team([t, loop]), parse_formula("G (!p & dep(; q)) | G (!p & dep(; q))")) is False
