"""Trace-quantified LTL over finite teams, and the asynchronous translations.

Sentences are prenex: a quantifier prefix binding trace variables and a
quantifier-free body whose atoms `p@pi` read proposition p on the trace
bound to pi.  The body is a `Formula` over the formula connectives, with
`HAtom` as its only leaf.  It is read on one joint trace, where
`ContradictoryNeg` is classical negation and `Split` is disjunction;
sentences write them `!` (over any subformula) and `|`, and have no `~`.
The body grammar and renderer are the formula grammar's core
(`formula._Parser` and `formula._render`) over the operator table
`_HYPER_OPS`, with `p@var` as the only atom.

check_hyper enumerates the quantifiers over the members of a finite team.
It translates the body once into pure LTL in negation normal form over
joint propositions `p@pi`, and evaluates that with `classical.node_values`
on the joint lasso of each assignment: positions 0 .. stem + period - 1,
with stem the longest prefix and period the lcm of the loop lengths, and
the last position stepping back to stem.  All assigned traces advance
through this one shared index, which covers every joint suffix, since
each trace repeats with its loop length from its own prefix end on.  Each
member's letters, as joint propositions of each variable, are built once
over its own prefix and loop; an assignment's lasso repeats them and
unites them position by position.  Each node of the body costs time
linear in the lasso.

ltl_to_forall_hyper prefixes a pure-LTL formula with a single universal
trace quantifier; on any team the result agrees with the asynchronous
team semantics, because pure LTL is flat (the team satisfies it iff each
trace does).  forall_hyper_to_ltl inverts this on single-universal
sentences, pushing classical negation down to literals with the usual
temporal dualities.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .classical import _Nodes, node_values
from .errors import (
    BoundExceeded,
    MalformedStructure,
    NotForallFragment,
    ParseError,
    UnsupportedFragment,
)
from .formula import (
    ContradictoryNeg,
    DepAtom,
    Formula,
    GenAtom,
    NegativeLiteral,
    PositiveLiteral,
    _CONNECTIVES,
    _DUAL,
    _LEVEL_OR,
    _LEVEL_UNARY,
    _OPS,
    _operands,
    _preorder,
    _rebuild,
    _Parser,
    _render,
    render_formula,
)
from .traces import Team, UPTrace, serialize_trace

__all__ = [
    "HYPER_PREFIX_CAP",
    "HAtom",
    "HyperSentence",
    "free_trace_variables",
    "parse_hyper",
    "render_hyper",
    "check_hyper",
    "ltl_to_forall_hyper",
    "forall_hyper_to_ltl",
]

HYPER_PREFIX_CAP = 4


# ---------------------------------------------------------------------------
# syntax


@dataclass(frozen=True)
class HAtom(Formula):
    """The body atom `prop@var`: proposition prop on the trace bound to var."""

    prop: str
    var: str


def free_trace_variables(body: Formula) -> frozenset[str]:
    """Trace variables read by the body's atoms."""
    out: set[str] = set()
    for b in _preorder(body):
        if type(b) is HAtom:
            out.add(b.var)
        elif type(b) not in _CONNECTIVES:
            raise TypeError(f"not a hyper body node: {b!r}")
    return frozenset(out)


@dataclass(frozen=True)
class HyperSentence:
    """A prenex sentence: quantifier prefix plus quantifier-free body.

    The prefix lists ("E" | "A", trace variable) pairs outermost first.
    Every trace variable read in the body must be bound by the prefix;
    rebinding a variable is allowed and the innermost binding wins.
    """

    prefix: tuple[tuple[str, str], ...]
    body: Formula

    def __post_init__(self):
        for quant, var in self.prefix:
            if quant not in ("E", "A"):
                raise MalformedStructure(
                    f"trace quantifier must be E or A, got {quant!r} for {var!r}"
                )
        bound = {var for _, var in self.prefix}
        unbound = free_trace_variables(self.body) - bound
        if unbound:
            raise MalformedStructure(f"unbound trace variables: {sorted(unbound)}")


# ---------------------------------------------------------------------------
# parsing and rendering (the core of the plain formula grammar)


_HYPER_OPS = {**_OPS, ContradictoryNeg: ("!", _LEVEL_UNARY)}


class _HyperParser(_Parser):
    def sentence(self) -> HyperSentence:
        prefix = []
        while (
            self.peek()[0] == "IDENT"
            and self.peek()[1] in ("E", "A")
            and self.peek(1)[0] == "IDENT"
            and self.peek(2)[0] == "DOT"
        ):
            quant = self.advance()[1]
            var = self.advance()[1]
            self.advance()  # the dot
            prefix.append((quant, var))
        return HyperSentence(tuple(prefix), self.formula())

    def atom(self) -> HAtom:
        kind, value, line, col = self.advance()
        if kind == "IDENT":
            self.expect("AT")
            return HAtom(value, self.expect("IDENT")[1])
        raise ParseError(f"expected an atom p@var, found {value!r}", line, col)


def parse_hyper(text: str) -> HyperSentence:
    """Parse `E pi. A rho. body` concrete syntax into a sentence."""
    return _HyperParser(text, _HYPER_OPS).sentence()


def _render_atom(b: Formula) -> str:
    if type(b) is HAtom:
        return f"{b.prop}@{b.var}"
    raise TypeError(f"not a hyper body node: {b!r}")


def render_hyper(s: HyperSentence) -> str:
    """Render with minimal parentheses; parse_hyper inverts this."""
    head = "".join(f"{quant} {var}. " for quant, var in s.prefix)
    return head + _render(s.body, _LEVEL_OR, _HYPER_OPS, _render_atom)


# ---------------------------------------------------------------------------
# evaluation over a finite team


def _joint_atom(prop: str, var: str) -> str:
    return f"{prop}@{var}"


def check_hyper(team: Team, s: HyperSentence, prefix_cap: int = HYPER_PREFIX_CAP) -> bool:
    """Does the team satisfy the sentence, quantifiers ranging over its members?

    An existential quantifier over the empty team is false, a universal
    one true.  Raises BoundExceeded when the prefix is longer than the
    cap (the enumeration is |team| ** len(prefix)).
    """
    if len(s.prefix) > prefix_cap:
        raise BoundExceeded(
            f"quantifier prefix length {len(s.prefix)} exceeds the cap {prefix_cap}"
        )
    members = sorted(team, key=serialize_trace)
    nodes = _Nodes(_nnf(s.body, _joint_atom))
    read = sorted(free_trace_variables(s.body))
    # (variable, member) -> the member's letters over its own prefix and
    # loop, as joint propositions read through that variable
    own = {
        (var, id(t)): [frozenset(_joint_atom(p, var) for p in a) for a in t.prefix + t.loop]
        for var in read
        for t in members
    }

    def holds(assignment: dict[str, UPTrace]) -> bool:
        # the lasso spans only the traces the body reads
        traces = [(var, assignment[var]) for var in read]
        stem = max(len(t.prefix) for _, t in traces)
        period = math.lcm(*(len(t.loop) for _, t in traces))
        columns = []
        for var, t in traces:
            cut, word = len(t.prefix), own[var, id(t)]
            column = word[:cut] + word[cut:] * ((stem + period - cut) // len(t.loop) + 1)
            columns.append(column[: stem + period])
        letters = list(map(frozenset.union, *columns))
        succ = list(range(1, stem + period)) + [stem]
        return node_values(nodes, succ, letters)[nodes.root][0]

    def run(i: int, assignment: dict[str, UPTrace]) -> bool:
        if i == len(s.prefix):
            return holds(assignment)
        quant, var = s.prefix[i]
        branch = any if quant == "E" else all
        return branch(run(i + 1, {**assignment, var: t}) for t in members)

    return run(0, {})


# ---------------------------------------------------------------------------
# translations to and from the asynchronous team semantics


def ltl_to_forall_hyper(f: Formula, trace_var: str = "pi") -> HyperSentence:
    """Prefix a pure-LTL formula with one universal trace quantifier.

    Propositions become atoms on the quantified trace; the result agrees
    with the asynchronous team semantics of f on every team, since pure
    LTL holds on a team iff it holds on each trace separately.
    """

    def step(g: Formula, _):
        match g:
            case PositiveLiteral(name):
                return HAtom(name, trace_var), ()
            case NegativeLiteral(name):
                return ContradictoryNeg(HAtom(name, trace_var)), ()
            case ContradictoryNeg(_) | DepAtom(_, _) | GenAtom(_, _):
                raise UnsupportedFragment(
                    f"only pure LTL translates to a universal sentence: {render_formula(g)}"
                )
        if type(g) not in _DUAL:
            raise TypeError(f"not a formula node: {g!r}")
        return type(g), [(h, None) for h in _operands(g)]

    return HyperSentence((("A", trace_var),), _rebuild(f, step))


def forall_hyper_to_ltl(s: HyperSentence) -> Formula:
    """Strip the single universal quantifier, yielding pure LTL in
    negation normal form (see `_nnf`).

    Sentences with any other prefix are rejected: an existential
    quantifier has no team-equivalent formula (witness: a team satisfying
    `E pi. p@pi` with a subteam that does not, while team satisfaction of
    formulas is downward closed on the pure fragment).
    """
    if len(s.prefix) != 1 or s.prefix[0][0] != "A":
        raise NotForallFragment(
            "only sentences with exactly one universal quantifier translate; "
            f"got prefix {' '.join(q + ' ' + v for q, v in s.prefix) or '(empty)'}"
        )
    return _nnf(s.body, lambda prop, var: prop)


def _nnf(body: Formula, atom) -> Formula:
    """The body as LTL in negation normal form, with the proposition
    `atom(prop, var)` for each atom `prop@var`.

    Classical negation is pushed to the literals with the temporal
    dualities (X self-dual, F/G dual, U/R dual).
    """

    def step(b: Formula, negated: bool):
        cls = type(b)
        if cls is HAtom:
            name = atom(b.prop, b.var)
            return (NegativeLiteral if negated else PositiveLiteral)(name), ()
        if cls is ContradictoryNeg:
            return (lambda g: g), [(b.sub, not negated)]
        if cls not in _DUAL:
            raise TypeError(f"not a hyper body node: {b!r}")
        return _DUAL[cls] if negated else cls, [(h, negated) for h in _operands(b)]

    return _rebuild(body, step, False)
