"""Parser, renderer and structural helpers for formulas."""

import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from teamltl.errors import (
    ArityMismatch,
    ParseError,
    UnknownAtom,
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
    dualize,
    formula_length,
    fragment_info,
    parse_formula,
    props,
    render_formula,
)

from teamltl.hyper import parse_hyper, render_hyper

from .util import formulas

P, Q, R_ = PositiveLiteral("p"), PositiveLiteral("q"), PositiveLiteral("r")


# ---------------------------------------------------------------------------
# parsing


def test_parse_atoms():
    assert parse_formula("p") == P
    assert parse_formula("!p") == NegativeLiteral("p")
    assert parse_formula("dep(p,q;r)") == DepAtom(("p", "q"), ("r",))
    assert parse_formula("dep(;r)") == DepAtom((), ("r",))
    assert parse_formula("dep(p; q, r)") == DepAtom(("p",), ("q", "r"))
    assert parse_formula("@anon(p,q)") == GenAtom("anon", ("p", "q"))
    assert parse_formula("@nullary()") == GenAtom("nullary", ())


def test_parse_precedence():
    assert parse_formula("p & q | r") == Split(And(P, Q), R_)
    assert parse_formula("p | q & r") == Split(P, And(Q, R_))
    assert parse_formula("p U q & r") == And(Until(P, Q), R_)
    assert parse_formula("F p | F p") == Split(Eventually(P), Eventually(P))
    assert parse_formula("X p U q") == Until(Next(P), Q)
    assert parse_formula("~p & q") == And(ContradictoryNeg(P), Q)


def test_parse_associativity():
    assert parse_formula("p | q | r") == Split(Split(P, Q), R_)
    assert parse_formula("p & q & r") == And(And(P, Q), R_)
    assert parse_formula("p U q U r") == Until(P, Until(Q, R_))
    assert parse_formula("p R q R r") == Release(P, Release(Q, R_))


def test_parse_mixing_until_release_needs_parens():
    with pytest.raises(ParseError, match="mix"):
        parse_formula("p U q R r")
    assert parse_formula("p U (q R r)") == Until(P, Release(Q, R_))
    assert parse_formula("(p U q) R r") == Release(Until(P, Q), R_)


def test_parse_unary_nesting():
    assert parse_formula("X F G p") == Next(Eventually(Globally(P)))
    assert parse_formula("~~p") == ContradictoryNeg(ContradictoryNeg(P))
    assert parse_formula("~(p | q)") == ContradictoryNeg(Split(P, Q))
    assert parse_formula("F !p") == Eventually(NegativeLiteral("p"))


def test_keyword_letters_inside_identifiers():
    assert parse_formula("Xp") == PositiveLiteral("Xp")
    assert parse_formula("GF") == PositiveLiteral("GF")
    assert parse_formula("X Xp") == Next(PositiveLiteral("Xp"))


def test_parse_errors_report_position():
    with pytest.raises(ParseError, match=r"line 1, column 3"):
        parse_formula("p %")
    with pytest.raises(ParseError):
        parse_formula("")
    with pytest.raises(ParseError):
        parse_formula("p |")
    with pytest.raises(ParseError):
        parse_formula("(p")
    with pytest.raises(ParseError):
        parse_formula("p)")
    with pytest.raises(ParseError):
        parse_formula("U p")
    with pytest.raises(ParseError):
        parse_formula("dep(p;)")
    with pytest.raises(ParseError, match="proposition"):
        parse_formula("!dep(p;q)")
    with pytest.raises(ParseError):
        parse_formula("!(p)")
    with pytest.raises(ParseError):
        parse_formula("! !p")


def test_parse_multiline_error_position():
    with pytest.raises(ParseError, match=r"line 2, column 1"):
        parse_formula("p &\n& q")


# every error path of the parser: (text, line, column, message)
PARSE_ERRORS = [
    ("p %", 1, 3, "unexpected character '%'"),
    ("", 1, 1, "expected a formula, found ''"),
    ("p |", 1, 4, "expected a formula, found ''"),
    ("U p", 1, 1, "expected a formula, found 'U'"),
    ("()", 1, 2, "expected a formula, found ')'"),
    ("X & p", 1, 3, "expected a formula, found '&'"),
    ("p &\n& q", 2, 1, "expected a formula, found '&'"),
    ("(p", 1, 3, "expected RPAR, found ''"),
    ("((p & q)", 1, 9, "expected RPAR, found ''"),
    ("(p q", 1, 4, "expected RPAR, found 'q'"),
    ("(p\n", 2, 1, "expected RPAR, found ''"),
    ("p)", 1, 2, "unexpected ')'"),
    ("p\n  )", 2, 3, "unexpected ')'"),
    ("p q", 1, 3, "unexpected 'q'"),
    ("p X q", 1, 3, "unexpected 'X'"),
    ("p U q R r", 1, 7, "cannot mix U and R at the same level, parenthesise"),
    ("p R (q) U r", 1, 9, "cannot mix U and R at the same level, parenthesise"),
    ("p U q & r R s U t", 1, 15, "cannot mix U and R at the same level, parenthesise"),
    ("X p U ~q R r", 1, 10, "cannot mix U and R at the same level, parenthesise"),
    ("!dep(p;q)", 1, 2, "'!' applies to a proposition, not a dep atom"),
    ("!(p)", 1, 2, "expected IDENT, found '('"),
    ("! !p", 1, 3, "expected IDENT, found '!'"),
    ("!", 1, 2, "expected IDENT, found ''"),
    ("dep(p;)", 1, 7, "expected a proposition name"),
    ("dep(p q)", 1, 7, "expected SEMI, found 'q'"),
    ("dep(p;q", 1, 8, "expected RPAR, found ''"),
    ("dep(p,;q)", 1, 7, "expected IDENT, found ';'"),
    ("@g(p", 1, 5, "expected RPAR, found ''"),
    ("@(p)", 1, 2, "expected IDENT, found '('"),
    ("@g p", 1, 4, "expected LPAR, found 'p'"),
]


@pytest.mark.parametrize(
    "text, line, column, message", [pytest.param(*case, id=repr(case[0])) for case in PARSE_ERRORS]
)
def test_parse_error_table(text, line, column, message):
    with pytest.raises(ParseError) as info:
        parse_formula(text)
    assert (info.value.line, info.value.column) == (line, column)
    assert str(info.value) == f"line {line}, column {column}: {message}"


# ---------------------------------------------------------------------------
# rendering


def test_render_minimal_parens():
    cases = [
        "p",
        "!p",
        "p & q | r",
        "(p | q) & r",
        "p U q U r",
        "p U (q R r)",
        "(p U q) U r",
        "X (p & q)",
        "F p | F p",
        "~(p | q)",
        "dep(p,q;r)",
        "dep(;r)",
        "@anon(p)",
        "G (p | F q)",
        "p & q & r",
        "p & (q & r)",
    ]
    for text in cases:
        f = parse_formula(text)
        assert parse_formula(render_formula(f)) == f, text


def test_render_pinned():
    assert render_formula(parse_formula("(p&q)|r")) == "p & q | r"
    assert render_formula(parse_formula("(p|q)&r")) == "(p | q) & r"
    assert render_formula(parse_formula("p U (q U r)")) == "p U q U r"
    assert render_formula(parse_formula("(p U q) U r")) == "(p U q) U r"
    assert render_formula(parse_formula("dep( p , q ; r )")) == "dep(p,q;r)"


@given(formulas(allow_neg=True, allow_dep=True))
def test_render_parse_round_trip(f):
    assert parse_formula(render_formula(f)) == f


_WRAPS = [Next, Eventually, Globally, ContradictoryNeg, And, Split, Until, Release]


@settings(max_examples=50)
@given(
    formulas(allow_neg=True, allow_dep=True),
    st.lists(st.tuples(st.sampled_from(_WRAPS), st.booleans()), max_size=100),
    st.integers(0, 100),
)
def test_render_parse_round_trip_at_depth(f, wraps, parens):
    # a random formula under up to 100 more connectives, each binary one
    # with a literal on one side, inside up to 100 redundant parentheses
    for cls, left in wraps:
        if cls in (And, Split, Until, Release):
            f = cls(f, Q) if left else cls(Q, f)
        else:
            f = cls(f)
    text = render_formula(f)
    assert parse_formula(text) == f
    assert parse_formula("(" * parens + text + ")" * parens) == f


# ---------------------------------------------------------------------------
# structural helpers


def test_formula_length():
    assert formula_length(parse_formula("p")) == 0
    assert formula_length(parse_formula("!p")) == 0
    assert formula_length(parse_formula("dep(p;q)")) == 0
    assert formula_length(parse_formula("F p | F p")) == 3
    assert formula_length(parse_formula("p U (q & X r)")) == 3
    assert formula_length(parse_formula("~p")) == 1


def test_props_includes_atom_arguments():
    f = parse_formula("dep(a;b) & @anon(c) | !d")
    assert props(f) == frozenset("abcd")


def test_dualize_pinned():
    assert dualize(parse_formula("F p")) == parse_formula("G !p")
    assert dualize(parse_formula("p U q")) == parse_formula("!p R !q")
    assert dualize(parse_formula("p & q")) == parse_formula("!p | !q")
    assert dualize(parse_formula("X !p")) == parse_formula("X p")


def test_dualize_rejects_extensions():
    with pytest.raises(UnsupportedFragment):
        dualize(parse_formula("~p"))
    with pytest.raises(UnsupportedFragment):
        dualize(parse_formula("dep(p;q)"))


@given(formulas())
def test_dualize_involution(f):
    assert dualize(dualize(f)) == f


def _chain(op, terms):
    return f" {op} ".join(terms)


def test_rewrites_on_long_chains():
    # every rewrite, and == itself, is an explicit-stack walk, so a chain
    # 1,000 terms long needs no recursion
    n = 1000
    negs = [f"!p{i}" for i in range(n)]
    poss = [f"p{i}" for i in range(n)]
    for op, dual in (("&", "|"), ("|", "&"), ("U", "R"), ("R", "U")):
        f = parse_formula(_chain(op, negs))
        assert dualize(f) == parse_formula(_chain(dual, poss))
        assert formula_length(f) == n - 1
    nested = parse_formula("X " * 600 + "F !q")
    assert dualize(nested) == parse_formula("X " * 600 + "G q")
    assert formula_length(nested) == 601


def test_eq_hash_and_repr_read_the_tree():
    f = parse_formula("p & X ~!q")
    assert repr(f) == (
        "And(lhs=PositiveLiteral(name='p'), "
        "rhs=Next(sub=ContradictoryNeg(sub=NegativeLiteral(name='q'))))"
    )
    assert f == And(PositiveLiteral("p"), Next(ContradictoryNeg(NegativeLiteral("q"))))
    assert hash(f) == hash(parse_formula("p & (X ~!q)"))
    # same preorder classes, different leaves or connectives
    assert f != parse_formula("p & X ~!r") and f != parse_formula("p | X ~!q")
    assert parse_formula("X p") != PositiveLiteral("p") != parse_formula("X p")
    assert (f == "p & X ~!q") is False
    body = parse_hyper("A pi. F !p@pi").body
    assert repr(body) == "Eventually(sub=ContradictoryNeg(sub=HAtom(prop='p', var='pi')))"


def test_parse_ten_thousand_deep():
    n = 10_000
    assert render_formula(parse_formula("(" * n + "p" + ")" * n)) == "p"
    assert render_formula(parse_formula("X " * n + "p")) == "X " * n + "p"
    sentence = "A pi. " + "!" * n + "p@pi"
    assert render_hyper(parse_hyper(sentence)) == sentence


# runs the rewrites, ==, hash and repr and the classical and
# model-checking pipelines on 1,000-term chains, and the parsers on
# 2,000-deep nesting, under a recursion limit of 200
_LOW_RECURSION_LIMIT = """
import sys
from teamltl.classical import tsat
from teamltl.formula import dualize, formula_length, parse_formula, render_formula
from teamltl.hyper import parse_hyper, render_hyper
from teamltl.kripke import parse_kripke
from teamltl.modelcheck import tmc_async, tmc_sync_splitfree

conj = parse_formula(" & ".join(f"p{i}" for i in range(1000)))
disj = parse_formula(" | ".join(f"p{i}" for i in range(1000)))
twin = parse_formula(" & ".join(f"p{i}" for i in range(1000)))
text = "PositiveLiteral(name='p0')"
for i in range(1, 1000):
    text = f"And(lhs={text}, rhs=PositiveLiteral(name='p{i}'))"
k = parse_kripke("world w { p0 }\\nedge w w\\ninit w\\n")
sys.setrecursionlimit(200)
assert tsat(conj, "sync") is not None
assert tsat(disj, "async") is not None
assert tmc_async(k, conj)[0] is False
assert tmc_sync_splitfree(k, conj) is False
assert type(dualize(conj)).__name__ == "Split"
assert conj == twin and conj != disj and hash(conj) == hash(twin)
assert repr(conj) == text
assert formula_length(disj) == 999
assert render_formula(parse_formula("(" * 2000 + "p" + ")" * 2000)) == "p"
assert render_formula(parse_formula("X F G ~" * 500 + "p")) == "X F G ~" * 500 + "p"
sentence = "A pi. " + "!" * 2000 + "p@pi"
assert render_hyper(parse_hyper(sentence)) == sentence
print("ok")
"""


def test_chain_pipelines_under_low_recursion_limit():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(Path(__file__).resolve().parents[1] / "src"), env.get("PYTHONPATH")])
    )
    done = subprocess.run(
        [sys.executable, "-c", _LOW_RECURSION_LIMIT],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert done.stdout == "ok\n", done.stderr


class _StubAtomDef:
    def __init__(self, arity, downward_closed):
        self.arity = arity
        self.downward_closed = downward_closed


class _StubRegistry(dict):
    pass


def test_fragment_info_pure():
    info = fragment_info(parse_formula("p U (q & X r)"))
    assert info.pure_ltl
    assert info.splitjunction_free
    assert info.downward_closed_syntactic
    assert not info.has_dep and not info.has_gen


def test_fragment_info_extensions():
    info = fragment_info(parse_formula("dep(p;q) | r"))
    assert info.has_dep and not info.pure_ltl
    assert not info.splitjunction_free
    assert info.downward_closed_syntactic

    info = fragment_info(parse_formula("~p"))
    assert not info.pure_ltl and not info.has_dep and not info.has_gen
    assert not info.downward_closed_syntactic


def test_fragment_info_gen_atoms():
    reg = _StubRegistry(good=_StubAtomDef(1, True), bad=_StubAtomDef(2, False))
    info = fragment_info(parse_formula("@good(p)"), reg)
    assert info.has_gen and info.downward_closed_syntactic
    info = fragment_info(parse_formula("@bad(p,q)"), reg)
    assert not info.downward_closed_syntactic
    with pytest.raises(UnknownAtom):
        fragment_info(parse_formula("@missing(p)"), reg)
    with pytest.raises(UnknownAtom):
        fragment_info(parse_formula("@good(p)"))
    with pytest.raises(ArityMismatch):
        fragment_info(parse_formula("@good(p,q)"), reg)
