"""Parser, renderer and structural helpers for formulas."""

import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given

from teamltl.errors import (
    ArityMismatch,
    NameCollision,
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
    bar_transform,
    dualize,
    formula_length,
    fragment_info,
    parse_formula,
    props,
    render_formula,
)

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


def test_bar_transform():
    assert bar_transform(parse_formula("!p & X !q")) == parse_formula("p_bar & X q_bar")
    assert bar_transform(parse_formula("G p")) == parse_formula("G p")
    assert bar_transform(parse_formula("~!p")) == parse_formula("~p_bar")
    with pytest.raises(NameCollision):
        bar_transform(parse_formula("!p & X p_bar"))
    with pytest.raises(UnsupportedFragment):
        bar_transform(parse_formula("p | q"))
    with pytest.raises(UnsupportedFragment):
        bar_transform(parse_formula("dep(p;q)"))


def _chain(op, terms):
    return f" {op} ".join(terms)


def test_rewrites_on_long_chains():
    # every rewrite is an explicit-stack walk, so a chain 1,000 terms
    # long needs no recursion; results are compared as text, since
    # dataclass == itself recurses
    n = 1000
    negs = [f"!p{i}" for i in range(n)]
    poss = [f"p{i}" for i in range(n)]
    bars = [f"p{i}_bar" for i in range(n)]
    for op, dual in (("&", "|"), ("|", "&"), ("U", "R"), ("R", "U")):
        f = parse_formula(_chain(op, negs))
        assert render_formula(dualize(f)) == _chain(dual, poss)
        assert formula_length(f) == n - 1
        if op != "|":
            assert render_formula(bar_transform(f)) == _chain(op, bars)
    nested = parse_formula("X " * 600 + "F !q")
    assert render_formula(dualize(nested)) == "X " * 600 + "G q"
    assert render_formula(bar_transform(nested)) == "X " * 600 + "F q_bar"
    assert formula_length(nested) == 601


# runs the rewrites and the classical and model-checking pipelines on
# 1,000-term chains under a recursion limit of 200
_LOW_RECURSION_LIMIT = """
import sys
from teamltl.classical import tsat
from teamltl.formula import bar_transform, dualize, formula_length, parse_formula
from teamltl.kripke import parse_kripke
from teamltl.modelcheck import tmc_async, tmc_sync_splitfree

conj = parse_formula(" & ".join(f"p{i}" for i in range(1000)))
disj = parse_formula(" | ".join(f"p{i}" for i in range(1000)))
k = parse_kripke("world w { p0 }\\nedge w w\\ninit w\\n")
sys.setrecursionlimit(200)
assert tsat(conj, "sync") is not None
assert tsat(disj, "async") is not None
assert tmc_async(k, conj)[0] is False
assert tmc_sync_splitfree(k, conj) is False
assert type(dualize(conj)).__name__ == "Split"
assert type(bar_transform(conj)).__name__ == "And"
assert formula_length(disj) == 999
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
