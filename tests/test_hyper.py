"""Trace-quantified sentences: parsing, evaluation, and the translations."""

from __future__ import annotations

import math
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import teamltl
from teamltl import hyper
from teamltl.errors import (
    BoundExceeded,
    MalformedStructure,
    NotForallFragment,
    ParseError,
    UnsupportedFragment,
)
from teamltl.formula import (
    And,
    ContradictoryNeg,
    DepAtom,
    Eventually,
    GenAtom,
    Globally,
    NegativeLiteral,
    Next,
    PositiveLiteral,
    Release,
    Split,
    Until,
    parse_formula,
)
from teamltl.hyper import (
    HYPER_PREFIX_CAP,
    HAtom,
    HyperSentence,
    check_hyper,
    forall_hyper_to_ltl,
    free_trace_variables,
    ltl_to_forall_hyper,
    parse_hyper,
    render_hyper,
)
from teamltl.teamcheck import check_async
from teamltl.traces import Team, UPTrace, value_at

from .util import random_formula, random_team

fs = frozenset


# ---------------------------------------------------------------------------
# syntax


def test_parse_pinned():
    assert parse_hyper("E pi. p@pi") == HyperSentence(
        (("E", "pi"),), HAtom("p", "pi")
    )
    s = parse_hyper("A pi. F p@pi")
    assert s.prefix == (("A", "pi"),)
    assert s.body == Eventually(HAtom("p", "pi"))


def test_parse_precedence_mirrors_formula_grammar():
    s = parse_hyper("E x. A y. p@x U q@y & r@x | !p@y")
    assert s.body == Split(
        And(Until(HAtom("p", "x"), HAtom("q", "y")), HAtom("r", "x")),
        ContradictoryNeg(HAtom("p", "y")),
    )


def test_parse_negation_scopes_over_subformulas():
    s = parse_hyper("A pi. !(p@pi U q@pi) & !X p@pi")
    assert s.body == And(
        ContradictoryNeg(Until(HAtom("p", "pi"), HAtom("q", "pi"))),
        ContradictoryNeg(Next(HAtom("p", "pi"))),
    )


PARSE_ERRORS = [
    ("E pi. p@", 9, "expected IDENT, found ''"),  # missing trace variable
    ("E pi. @pi", 7, "expected an atom p@var, found '@'"),  # missing proposition
    ("E pi. p pi", 9, "expected AT, found 'pi'"),  # missing @
    ("E pi. p@pi q@pi", 12, "unexpected 'q'"),  # trailing junk
    ("E pi. p@pi U q@pi R p@pi", 19, "cannot mix U and R at the same level, parenthesise"),
    ("E pi.", 6, "expected an atom p@var, found ''"),  # no body
    ("", 1, "expected an atom p@var, found ''"),  # empty input
    ("E pi. ~p@pi", 7, "expected an atom p@var, found '~'"),  # ~ is for teams only
    ("E pi. ! & p@pi", 9, "expected an atom p@var, found '&'"),  # ! needs an operand
    ("E pi. !(p@pi", 13, "expected RPAR, found ''"),  # unclosed parenthesis
    ("A pi. p@pi R q@pi U p@pi", 19, "cannot mix U and R at the same level, parenthesise"),
]


@pytest.mark.parametrize(
    "text, column, message", [pytest.param(*case, id=case[0]) for case in PARSE_ERRORS]
)
def test_parse_errors(text, column, message):
    with pytest.raises(ParseError) as info:
        parse_hyper(text)
    assert (info.value.line, info.value.column) == (1, column)
    assert str(info.value) == f"line 1, column {column}: {message}"


def test_unbound_variable_rejected():
    with pytest.raises(MalformedStructure):
        parse_hyper("E pi. p@rho")
    with pytest.raises(MalformedStructure):
        HyperSentence((), HAtom("p", "pi"))


def test_bad_quantifier_rejected():
    with pytest.raises(MalformedStructure):
        HyperSentence((("Q", "pi"),), HAtom("p", "pi"))


def test_free_trace_variables():
    s = parse_hyper("E x. A y. (p@x U q@y) & !r@x")
    assert free_trace_variables(s.body) == {"x", "y"}


def test_formula_only_leaves_are_not_body_nodes():
    for leaf in (
        PositiveLiteral("p"),
        NegativeLiteral("p"),
        DepAtom(("p",), ("q",)),
        GenAtom("constant", ("p",)),
    ):
        for body in (leaf, And(HAtom("p", "x"), Next(leaf))):
            with pytest.raises(TypeError, match="not a hyper body node"):
                free_trace_variables(body)
            with pytest.raises(TypeError, match="not a hyper body node"):
                HyperSentence((("A", "x"),), body)


px, qx, qy, rx = HAtom("p", "x"), HAtom("q", "x"), HAtom("q", "y"), HAtom("r", "x")
# `!` stacks and binds tighter than U, `|` under `&` keeps its parentheses,
# and a U chain nests to the right
RENDER_PINNED = [
    (ContradictoryNeg(ContradictoryNeg(px)), "!!p@x"),
    (ContradictoryNeg(Until(px, qy)), "!(p@x U q@y)"),
    (Next(ContradictoryNeg(px)), "X !p@x"),
    (And(Split(px, qy), rx), "(p@x | q@y) & r@x"),
    (Until(px, Until(qx, rx)), "p@x U q@x U r@x"),
]


@pytest.mark.parametrize(
    "body, text", [pytest.param(*case, id=case[1]) for case in RENDER_PINNED]
)
def test_render_pinned(body, text):
    s = HyperSentence((("A", "x"), ("E", "y")), body)
    assert render_hyper(s) == f"A x. E y. {text}"
    assert parse_hyper(render_hyper(s)) == s


NODES1 = [ContradictoryNeg, Next, Eventually, Globally]
NODES2 = [And, Split, Until, Release]


def bodies(variables=("pi", "rho")):
    atoms = st.tuples(
        st.sampled_from(("p", "q", "r")), st.sampled_from(variables)
    ).map(lambda t: HAtom(*t))

    def extend(children):
        return st.one_of(
            st.tuples(st.sampled_from(NODES1), children).map(lambda t: t[0](t[1])),
            st.tuples(st.sampled_from(NODES2), children, children).map(
                lambda t: t[0](t[1], t[2])
            ),
        )

    return st.recursive(atoms, extend, max_leaves=6)


@settings(max_examples=200)
@given(bodies())
def test_render_parse_roundtrip(body):
    s = HyperSentence((("E", "pi"), ("A", "rho")), body)
    assert parse_hyper(render_hyper(s)) == s


def test_exports_resolve_and_hyper_exports_no_connective_classes():
    for module in (teamltl, hyper):
        for name in module.__all__:
            assert hasattr(module, name), f"{module.__name__}.{name}"
    # a body connective is a formula class; HAtom is hyper's only node class
    classes = {name for name in hyper.__all__ if isinstance(getattr(hyper, name), type)}
    assert classes == {"HAtom", "HyperSentence"}


# ---------------------------------------------------------------------------
# evaluation


def test_existential_witness_not_downward_closed():
    empty = UPTrace((), (fs(),))
    p_then_empty = UPTrace((fs({"p"}),), (fs(),))
    team = Team([empty, p_then_empty])
    s = parse_hyper("E pi. p@pi")
    assert check_hyper(team, s) is True
    assert check_hyper(Team([empty]), s) is False  # subteam loses the property


def test_empty_team_quantifiers():
    assert check_hyper(Team([]), parse_hyper("E pi. p@pi")) is False
    assert check_hyper(Team([]), parse_hyper("A pi. p@pi")) is True


def test_rebinding_inner_quantifier_wins():
    team = Team([UPTrace((), (fs(),)), UPTrace((), (fs({"p"}),))])
    assert check_hyper(team, parse_hyper("A pi. E pi. p@pi")) is True
    assert check_hyper(team, parse_hyper("E pi. A pi. p@pi")) is False


def test_prefix_cap():
    team = Team([UPTrace((), (fs({"p"}),))])
    quants = tuple(("E", f"t{i}") for i in range(HYPER_PREFIX_CAP + 1))
    s = HyperSentence(quants, HAtom("p", "t0"))
    with pytest.raises(BoundExceeded):
        check_hyper(team, s)
    assert check_hyper(team, HyperSentence(quants[:-1], HAtom("p", "t0"))) is True


def test_two_trace_comparison():
    a = UPTrace((), (fs({"p"}), fs()))
    b = UPTrace((), (fs(), fs({"p"})))
    team = Team([a, b])
    # no two distinct members agree on p everywhere, but each matches itself
    agree = parse_hyper("E x. E y. G ((p@x & p@y) | (!p@x & !p@y))")
    assert check_hyper(team, agree) is True  # x and y may pick the same trace
    assert check_hyper(Team([a]), agree) is True
    disagree = parse_hyper("E x. E y. F (p@x & !p@y)")
    assert check_hyper(team, disagree) is True
    assert check_hyper(Team([a]), disagree) is False


# independent slow evaluation: plain integer positions, generous horizon
def oracle_body(body, assignment):
    stem = max(len(t.prefix) for t in assignment.values())
    period = math.lcm(*(len(t.loop) for t in assignment.values()))
    horizon = stem + 2 * period

    def val(b, i):
        match b:
            case HAtom(p, v):
                return p in value_at(assignment[v], i)
            case ContradictoryNeg(sub):
                return not val(sub, i)
            case And(l, r):
                return val(l, i) and val(r, i)
            case Split(l, r):
                return val(l, i) or val(r, i)
            case Next(sub):
                return val(sub, i + 1)
            case Eventually(sub):
                return any(val(sub, j) for j in range(i, i + horizon))
            case Globally(sub):
                return all(val(sub, j) for j in range(i, i + horizon))
            case Until(l, r):
                for j in range(i, i + horizon):
                    if val(r, j):
                        return all(val(l, w) for w in range(i, j))
                return False
            case Release(l, r):
                for j in range(i, i + horizon):
                    if not val(r, j):
                        return any(val(l, w) for w in range(i, j))
                return True

    return val(body, 0)


def oracle_hyper(team, s):
    members = sorted(team, key=repr)

    def run(i, assignment):
        if i == len(s.prefix):
            return oracle_body(s.body, assignment)
        quant, var = s.prefix[i]
        branch = any if quant == "E" else all
        return branch(run(i + 1, {**assignment, var: t}) for t in members)

    return run(0, {})


def random_body(rng, depth, variables):
    if depth == 0 or rng.random() < 0.25:
        return HAtom(rng.choice("pqr"), rng.choice(variables))
    if rng.random() < 0.45:
        return rng.choice(NODES1)(random_body(rng, depth - 1, variables))
    node = rng.choice(NODES2)
    return node(
        random_body(rng, depth - 1, variables), random_body(rng, depth - 1, variables)
    )


def test_joint_lasso_matches_direct_unrolling():
    rng = random.Random(41)
    for _ in range(150):
        variables = ("pi", "rho")[: rng.randint(1, 2)]
        prefix = tuple((rng.choice("EA"), v) for v in variables)
        s = HyperSentence(prefix, random_body(rng, 3, variables))
        team = random_team(rng, max_size=3, max_prefix=2, max_loop=3)
        assert check_hyper(team, s) == oracle_hyper(team, s), render_hyper(s)


FIXPOINT_BODIES = [
    "(p@x U q@y) U (r@x R p@y)",
    "(p@x R q@y) R (q@x U r@y)",
    "p@x U (q@y R (r@x U p@y))",
    "G (p@x U (r@y | q@x))",
    "F (p@x R !q@y) & G F r@y",
    "F G (q@x | !r@y) | G (p@y R F r@x)",
    "!(p@x U X q@y) R (F r@x U G !p@y)",
]


@pytest.mark.parametrize("body", FIXPOINT_BODIES)
def test_joint_lasso_fixpoints_on_coprime_loops(body):
    # joint lassos of prefix <= 2 and pairwise coprime loops (period up to
    # 35) make the U/R fixpoints iterate far past the traces' own lengths;
    # r holds on every prefix letter and rarely in the loops, so a fixpoint
    # that wraps into the stem instead of the loop start reads it wrongly
    rng = random.Random(body)

    def letter(r_prob):
        return fs(c for c in "pq" if rng.random() < 0.5) | (
            {"r"} if rng.random() < r_prob else set()
        )

    verdicts = []
    for loops in ((3, 4, 5), (4, 7), (5, 7, 3)):
        team = Team(
            UPTrace(
                tuple(letter(1) for _ in range(2 if k == 0 else rng.randint(0, 2))),
                tuple(letter(0.1) for _ in range(n)),
            )
            for k, n in enumerate(loops)
        )
        for quants in ("A x. E y.", "E x. A y.", "A x. A y.", "E x. E y."):
            s = parse_hyper(f"{quants} {body}")
            verdict = check_hyper(team, s)
            assert verdict == oracle_hyper(team, s), (render_hyper(s), team)
            verdicts.append(verdict)
    assert True in verdicts and False in verdicts


def test_long_coprime_loops_in_linear_time():
    # p only at position 0 of loops 89, 97 and 101: a pair's joint lasso
    # has up to 9,797 positions, and a verdict reads each of them
    team = Team(UPTrace((), (fs({"p"}),) + (fs(),) * (n - 1)) for n in (89, 97, 101))
    start = time.perf_counter()
    assert check_hyper(team, parse_hyper("A x. A y. F (p@x & p@y)")) is True
    assert check_hyper(team, parse_hyper("A x. A y. G F (p@x & p@y)")) is True
    assert check_hyper(team, parse_hyper("A x. A y. F (p@x & !p@y)")) is False
    assert check_hyper(team, parse_hyper("E x. E y. F (p@x & X p@y)")) is True
    assert time.perf_counter() - start < 10.0


# ---------------------------------------------------------------------------
# translations


def test_ltl_to_forall_hyper_pinned():
    assert render_hyper(ltl_to_forall_hyper(parse_formula("F p"))) == "A pi. F p@pi"
    assert (
        render_hyper(ltl_to_forall_hyper(parse_formula("p U q")))
        == "A pi. p@pi U q@pi"
    )
    assert (
        render_hyper(ltl_to_forall_hyper(parse_formula("!p & (q | r)")))
        == "A pi. !p@pi & (q@pi | r@pi)"
    )


def test_ltl_to_forall_hyper_rejects_team_connectives():
    for f in (
        ContradictoryNeg(PositiveLiteral("p")),
        DepAtom((), ("p",)),
        GenAtom("constant", ("p",)),
        Split(DepAtom((), ("p",)), PositiveLiteral("q")),
    ):
        with pytest.raises(UnsupportedFragment):
            ltl_to_forall_hyper(f)
    # the message renders the subformula, which the recursive dataclass
    # repr cannot do for a chain this long
    chain = parse_formula("~(" + " & ".join(f"p{i}" for i in range(1000)) + ")")
    with pytest.raises(UnsupportedFragment, match=r"sentence: ~\(p0 & p1 & "):
        ltl_to_forall_hyper(chain)


def test_forall_hyper_to_ltl_pinned():
    assert forall_hyper_to_ltl(parse_hyper("A pi. F p@pi")) == parse_formula("F p")
    assert forall_hyper_to_ltl(parse_hyper("A pi. !p@pi")) == NegativeLiteral("p")
    nnf = forall_hyper_to_ltl(parse_hyper("A pi. !(F (p@pi & !q@pi))"))
    assert nnf == Globally(Split(NegativeLiteral("p"), PositiveLiteral("q")))
    nnf2 = forall_hyper_to_ltl(parse_hyper("A pi. !(p@pi U !q@pi)"))
    assert nnf2 == parse_formula("!p R q")


def test_forall_hyper_to_ltl_rejects_other_prefixes():
    for text in ("E pi. p@pi", "A x. A y. p@x", "A x. E y. p@x | p@y"):
        with pytest.raises(NotForallFragment):
            forall_hyper_to_ltl(parse_hyper(text))
    # a quantifier-free sentence cannot even be built: atoms need a binder
    with pytest.raises(MalformedStructure):
        HyperSentence((), ContradictoryNeg(ContradictoryNeg(HAtom("p", "x"))))


def test_roundtrip_is_structural_identity_on_pure_ltl():
    rng = random.Random(43)
    for _ in range(200):
        f = random_formula(rng, rng.randint(0, 4))
        assert forall_hyper_to_ltl(ltl_to_forall_hyper(f)) == f


def test_forall_translation_matches_async_semantics():
    rng = random.Random(47)
    for _ in range(150):
        f = random_formula(rng, rng.randint(1, 4))
        team = random_team(rng, max_size=4, max_prefix=2, max_loop=3)
        assert check_hyper(team, ltl_to_forall_hyper(f)) == check_async(team, f)
