"""Team path checking: synchronous, asynchronous, atoms, splits, budgets."""

import random
import time
from functools import reduce
from itertools import chain, combinations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from teamltl.classical import check_trace, trace_values
from teamltl.errors import BoundExceeded, DuplicateName, UnknownAtom, VectorSpaceExceeded
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
    Split,
    Until,
    parse_formula,
)
from teamltl.teamcheck import (
    AtomRegistry,
    GenAtomDef,
    Limits,
    SplitMode,
    _AsyncEngine,
    check_async,
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
    value_at,
)

from .util import (
    formulas,
    letters,
    nonempty_teams,
    oracle_trace,
    prop_names,
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
    assert naive_async(EXAMPLE_TEAM, parse_formula("F p"), SplitMode.DISJOINT_ONLY)


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
    assert not check_async(empty, parse_formula("~(p & !p)"))


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


def _naive_local(ts, g, mode, ev):
    """The connectives both naive evaluators read off the current letters;
    None when g is temporal.  `ev` evaluates subformulas."""
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
    return None


def naive_sync(team, f, mode):
    members = frozenset(team)

    def shift(ts, k):
        return frozenset(suffix_encoding(t, k) for t in ts)

    def bound(ts):
        return prfx(Team(ts)) + lcm(Team(ts))

    def ev(ts, g):
        got = _naive_local(ts, g, mode, ev)
        if got is not None:
            return got
        match g:
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


def naive_async(team, f, mode):
    """Asynchronous semantics over explicit shift vectors.

    A team is a frozenset of canonical suffixes, and trace t takes the
    shifts 0..|prefix|+|loop|-1, which reach each of its suffixes.  With
    the per-trace side conditions of the `teamcheck` docstring, `a U b`
    asks for a vector whose team satisfies b where every strictly earlier
    suffix of each trace satisfies a on its own, and `a R b` asks every
    vector where no strictly earlier suffix of any trace satisfies a on
    its own to give a team satisfying b.
    """

    def suffixes(t):
        return [suffix_encoding(t, k) for k in range(len(t.prefix) + len(t.loop))]

    def side(a, value):
        # trace t's shifts whose strictly earlier suffixes all have a == value
        def shifts(t):
            allowed = []
            for s in suffixes(t):
                allowed.append(s)
                if ev(frozenset([s]), a) != value:
                    break
            return allowed

        return shifts

    def vectors(ts, shifts):
        return (frozenset(v) for v in product(*map(shifts, ts)))

    def ev(ts, g):
        got = _naive_local(ts, g, mode, ev)
        if got is not None:
            return got
        match g:
            case Next(sub):
                return ev(frozenset(suffix_encoding(t, 1) for t in ts), sub)
            case Eventually(sub):
                return any(ev(v, sub) for v in vectors(ts, suffixes))
            case Globally(sub):
                return all(ev(v, sub) for v in vectors(ts, suffixes))
            case Until(lhs, rhs):
                return any(ev(v, rhs) for v in vectors(ts, side(lhs, True)))
            case Release(lhs, rhs):
                return all(ev(v, rhs) for v in vectors(ts, side(lhs, False)))
        raise AssertionError(f"naive evaluator cannot handle {g!r}")

    return ev(frozenset(team), f)


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
    assert check_async(team, f) == naive_async(team, f, SplitMode.DISJOINT_ONLY)


@settings(max_examples=40, deadline=None)
@given(coprime_loop_teams(), formulas(max_leaves=3, allow_dep=True))
def test_kernels_on_coprime_loops(team, f):
    assert check_sync(team, f) == naive_sync(team, f, SplitMode.DISJOINT_ONLY)
    assert check_async(team, f) == naive_async(team, f, SplitMode.DISJOINT_ONLY)


# ---------------------------------------------------------------------------
# lockstep signatures and flat-part absorption


def flat_formulas(max_leaves: int = 3):
    """Literals under `&` and `X`: shortcut nodes with no split."""
    literal = st.one_of(prop_names().map(PositiveLiteral), prop_names().map(NegativeLiteral))
    return st.recursive(
        literal,
        lambda sub: st.one_of(st.builds(And, sub, sub), st.builds(Next, sub)),
        max_leaves=max_leaves,
    )


def lockstep_formulas():
    """Split-free F/G/U/R over flat operands, nested under `&` and `|`."""
    flat = flat_formulas()
    temporal = st.one_of(
        st.builds(Eventually, flat),
        st.builds(Globally, flat),
        st.builds(Until, flat, flat),
        st.builds(Release, flat, flat),
    )
    return st.recursive(
        temporal,
        lambda sub: st.one_of(st.builds(And, sub, sub), st.builds(Split, sub, sub)),
        max_leaves=3,
    )


@st.composite
def prefixed_coprime_teams(draw):
    """Prefixes up to 2 and loops of pairwise coprime lengths among 2, 3,
    5, 7 (lcm up to 210, so signatures are wider than a machine word)."""
    loops = draw(st.lists(st.sampled_from((2, 3, 5, 7)), min_size=2, max_size=4, unique=True))
    return Team(
        UPTrace(
            tuple(draw(st.lists(letters(), max_size=2))),
            tuple(draw(st.lists(letters(), min_size=n, max_size=n))),
        )
        for n in loops
    )


@settings(max_examples=100, deadline=None)
@given(prefixed_coprime_teams(), lockstep_formulas())
def test_lockstep_signatures_match_naive(team, f):
    assert check_sync(team, f) == naive_sync(team, f, SplitMode.DISJOINT_ONLY)


def test_lockstep_until_release_at_the_first_failure():
    # p holds on both members at shifts 0 and 1 only, q on both at shift 2
    # only: `a U b` may take b exactly where a first fails, and `a R b`
    # is released by a holding at the shift before b fails
    team = team_of("{p} {p} {q} ; {} {}", "{p} {p,r} {q} ; {} {} {}")
    assert check_sync(team, parse_formula("p U q")) is True
    assert check_sync(team, parse_formula("p U X X X q")) is False
    assert check_sync(team, parse_formula("!q R !p")) is False
    assert check_sync(team, parse_formula("q R (p | q)")) is True
    assert check_sync(team, parse_formula("X X q R X !q")) is True


def test_lockstep_lcm_cap_still_raises():
    team = Team(UPTrace((), (frozenset({"p"}),) + (E,) * (n - 1)) for n in (2, 3, 5, 7))
    with pytest.raises(BoundExceeded, match=r"^loop lcm exceeds the cap of 209$"):
        check_sync(team, parse_formula("F (p & X p)"), limits=Limits(max_lcm=209))
    assert check_sync(team, parse_formula("F (p & X !p)"), limits=Limits(max_lcm=210))


def test_lockstep_failing_eventually_on_long_loops():
    # loops 9, 11, 13, 16 (lcm 20,592) with p off at every third position:
    # no member has p three times in a row, so every shift is looked at
    team = Team(
        UPTrace((), tuple(frozenset({"p"}) if j % 3 else E for j in range(n)))
        for n in (9, 11, 13, 16)
    )
    start = time.perf_counter()
    assert check_sync(team, parse_formula("F (p & X p & X X p)")) is False
    assert time.perf_counter() - start < 1.0
    # all members stand at their position 1 at one shift (Chinese remainders)
    assert check_sync(team, parse_formula("F (p & X p)")) is True


def mixed_splits():
    """Splits whose parts mix flat formulas with temporal or dependence ones."""
    flat = flat_formulas()
    other = [
        st.builds(
            DepAtom, st.lists(prop_names(), max_size=1).map(tuple), prop_names().map(lambda p: (p,))
        ),
        st.builds(Eventually, flat),
        st.builds(Globally, flat),
        st.builds(Until, flat, flat),
    ]
    part = st.one_of(flat, *other)
    return st.lists(part, min_size=2, max_size=4).map(lambda parts: reduce(Split, parts))


@settings(max_examples=100, deadline=None)
@given(teams(max_size=4, max_prefix=2, max_loop=2), mixed_splits())
def test_flat_part_absorption_sync_matches_naive(team, f):
    assert check_sync(team, f) == naive_sync(team, f, SplitMode.DISJOINT_ONLY)
    assert check_sync(team, f) == check_sync(team, f, split_mode=SplitMode.ALL_COVERS)


@settings(max_examples=100, deadline=None)
@given(teams(max_size=4, max_prefix=2, max_loop=2), mixed_splits(), st.booleans())
def test_flat_part_absorption_async_matches_vector_clauses(team, f, conjoin):
    if conjoin:
        f = And(f, DepAtom((), ("p",)))  # keeps the formula out of the pure fast path
    expected = naive_async(team, f, SplitMode.DISJOINT_ONLY)
    assert check_async(team, f) == expected
    assert check_async(team, f, split_mode=SplitMode.ALL_COVERS) == expected


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
    # cycles and the tails leading into them; the always-true dep(;)
    # keeps f out of check_async's per-trace path and in the engine
    g = And(f, DepAtom((), ()))
    assert check_async(team, g) == all(oracle_trace(t, f) for t in team)


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
    # flatness read off explicit shift vectors, not assumed
    assert naive_async(team, f, SplitMode.DISJOINT_ONLY) == all(check_trace(t, f) for t in team)


@settings(max_examples=100, deadline=None)
@given(teams(max_size=3, max_prefix=1, max_loop=2), formulas(max_leaves=4))
def test_async_general_matches_flat_path(team, f):
    assert naive_async(team, f, SplitMode.DISJOINT_ONLY) == check_async(team, f)


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
    if check_async(team, f):
        for sub in map(Team, _subsets(tuple(team))):
            assert check_async(sub, f)


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
        check_async(team, parse_formula("F (dep(; p) & !p)"), limits=Limits(max_grid=100))


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


# ---------------------------------------------------------------------------
# letter-set grids: async quantifiers over the shifted teams' first letters


@st.composite
def letter_sharing_cases(draw, allow_neg=False):
    """A team over one or two propositions, so first letters repeat, and
    F, G, U or R over bodies that may hold dependence atoms."""
    pool = draw(st.sampled_from([("p",), ("p", "q")]))
    team = draw(teams(pool, max_size=3, max_prefix=1, max_loop=3))
    body = formulas(pool, max_leaves=4, allow_neg=allow_neg, allow_dep=True)
    op = draw(st.sampled_from([Eventually, Globally, Until, Release]))
    f = op(draw(body)) if op in (Eventually, Globally) else op(draw(body), draw(body))
    return team, f


@settings(max_examples=150, deadline=None)
@given(letter_sharing_cases())
def test_async_engine_matches_naive_async(case):
    team, f = case
    expected = naive_async(team, f, SplitMode.DISJOINT_ONLY)
    assert check_async(team, f) == expected
    assert check_async(team, f, split_mode=SplitMode.ALL_COVERS) == expected


@settings(max_examples=150, deadline=None)
@given(letter_sharing_cases(allow_neg=True), st.sampled_from(SplitMode))
def test_async_engine_matches_naive_async_with_neg(case, mode):
    team, f = case
    assert check_async(team, f, split_mode=mode) == naive_async(team, f, mode)


LETTER_PAIR = team_of("; {p}", "; {p} {}")  # two members whose first letters agree


def test_letter_set_grid_keeps_forced_strict_splits():
    # a strict split of two nonempty parts needs two members, which the
    # shifted team (0, 0) has although it holds one letter
    f = parse_formula("G (~(p & !p) | ~(p & !p))")
    assert check_async(LETTER_PAIR, f, split_mode=SplitMode.DISJOINT_ONLY) is True
    assert naive_async(LETTER_PAIR, f, SplitMode.DISJOINT_ONLY) is True


def test_letter_set_grid_keeps_next_off_the_letters():
    # both members start with {} but differ one step on, so X dep(; p)
    # is not a function of the first letters
    team = team_of("; {}", "; {} {p}")
    f = parse_formula("F (!p & X dep(; p))")
    assert check_async(team, f) is False
    assert naive_async(team, f, SplitMode.DISJOINT_ONLY) is False


def test_letter_set_grid_keeps_gen_atoms_on_members():
    reg = AtomRegistry([GenAtomDef("many", 0, lambda letters, args: len(letters) >= 2)])
    assert check_async(LETTER_PAIR, parse_formula("G @many()"), atoms=reg) is True


def test_letter_set_grid_bounds_the_work():
    # loops 2, 3, 5, 7 over p and q: the release grid has 1 * 3 * 5 * 7
    # shift vectors and b holds on each, but a static b is evaluated on at
    # most one team per set of first letters
    team = team_of(
        "; {p} {}", "; {p,q} {q} {}", "; {p} {q} {} {p,q} {}", "; {} {p} {q} {p} {} {q} {p,q}"
    )
    f = parse_formula("(G !q) R (dep(p;q) | q)")
    engine = _AsyncEngine(team, f, None, Limits(), SplitMode.DISJOINT_ONLY, True)
    assert engine.eval(engine.team, engine.nodes.root) is True
    assert naive_async(team, f, SplitMode.DISJOINT_ONLY) is True
    b = engine.nodes.rhs[engine.nodes.root]
    assert len(engine.memo[b]) <= 2 ** len(set(engine.letter))


# ---------------------------------------------------------------------------
# forced strict splits outside the downward-closed fragment


def test_forced_strict_split_without_downward_closure():
    # (∅, both traces) is a partition: p holds on the empty team, and
    # ~!p on the pair since !p fails there; the pruned search would drop
    # `; {}` for failing both parts on its own
    team = team_of("; {p}", "; {}")
    for text in ["p | ~!p", "F (p | ~!p)"]:
        f = parse_formula(text)
        assert naive_sync(team, f, SplitMode.DISJOINT_ONLY) is True
        assert naive_async(team, f, SplitMode.DISJOINT_ONLY) is True
        assert check_sync(team, f, split_mode=SplitMode.DISJOINT_ONLY) is True, text
        assert check_async(team, f, split_mode=SplitMode.DISJOINT_ONLY) is True, text


def test_forced_strict_split_enumeration_cap():
    team = Team([UPTrace((), (frozenset({f"x{i}", "p"} if i else {"x0"}),)) for i in range(5)])
    f = parse_formula("p | ~!p")
    assert naive_sync(team, f, SplitMode.DISJOINT_ONLY) is True
    for check in (check_sync, check_async):
        with pytest.raises(BoundExceeded, match="^partition enumeration over 5 traces"):
            check(team, f, limits=Limits(max_split_team=4), split_mode=SplitMode.DISJOINT_ONLY)
        assert check(team, f, split_mode=SplitMode.DISJOINT_ONLY) is True


def test_long_conjunction_chains_get_a_verdict():
    # the engines evaluate a maximal & chain as one list of parts, so a
    # 1,000-term chain needs no recursion
    team = team_of("; {p0}", "; {p1}")
    for term, holds in (("F p{}", False), ("dep(;p{})", False), ("dep(;q{})", True)):
        f = parse_formula(" & ".join(term.format(i) for i in range(1000)))
        assert check_sync(team, f) is holds, term
        assert check_async(team, f) is holds, term


def test_disjoint_split_places_many_flexible_traces():
    # each of 1,100 traces satisfies both parts; the backtracking search
    # over them keeps its own stack
    team = Team(UPTrace((), (frozenset({"p", "q", f"x{i}"}),)) for i in range(1100))
    assert check_sync(team, parse_formula("F p | F q")) is True
