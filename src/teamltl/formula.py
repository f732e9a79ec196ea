"""Formula AST, concrete syntax and structural helpers.

Grammar (whitespace-insensitive, `#`-free; see parse_formula):

    formula := formula ("|" | "&" | "U" | "R") formula
             | ("X" | "F" | "G" | "~") formula | "(" formula ")" | atom
    atom    := IDENT | "!" IDENT
             | "dep" "(" [identlist] ";" identlist ")"
             | "@" IDENT "(" [identlist] ")"

`_OPS` gives each operator its level: `|` (splitjunction) binds loosest,
then `&`, both left associative, then U and R, right associative with one
kind per chain, then the prefix operators.  `X F G U R` are reserved
operator names.  `!` applies to a single proposition only; `~` is the
contradictory negation and applies to any subformula.

Operand order for the binary temporal operators: in `a U b` the right operand
`b` must eventually hold and `a` holds at all strictly earlier suffixes; in
`a R b` the right operand `b` holds at every suffix unless some strictly
earlier suffix satisfied `a`.  Example: `{p}{q}...` satisfies `p U q` and
`(p & q) R p` fails on `{p}{}...` because nothing ever releases.

The parser core `_Parser` and the renderer `_render` both read the
grammar's operators and their levels from one table, `_OPS`, and are
shared with the trace-quantified sentences of `hyper`, whose bodies are
formulas over these connectives.  That grammar writes `ContradictoryNeg`
as `!` over any subformula, has no `~`, and has its own atom `p@var`.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ArityMismatch, NameCollision, ParseError, UnknownAtom, UnsupportedFragment

Proposition = str


class Formula:
    """Base class for AST nodes."""

    __slots__ = ()


@dataclass(frozen=True)
class PositiveLiteral(Formula):
    name: Proposition


@dataclass(frozen=True)
class NegativeLiteral(Formula):
    name: Proposition


@dataclass(frozen=True)
class And(Formula):
    lhs: Formula
    rhs: Formula


@dataclass(frozen=True)
class Split(Formula):
    """Splitjunction: the team splits into two covering subteams."""

    lhs: Formula
    rhs: Formula


@dataclass(frozen=True)
class Next(Formula):
    sub: Formula


@dataclass(frozen=True)
class Eventually(Formula):
    sub: Formula


@dataclass(frozen=True)
class Globally(Formula):
    sub: Formula


@dataclass(frozen=True)
class Until(Formula):
    lhs: Formula
    rhs: Formula


@dataclass(frozen=True)
class Release(Formula):
    lhs: Formula
    rhs: Formula


@dataclass(frozen=True)
class ContradictoryNeg(Formula):
    """Boolean negation over teams, written `~`; in hyper sentences,
    written `!`, it is classical negation on the one joint trace."""

    sub: Formula


@dataclass(frozen=True)
class DepAtom(Formula):
    """dep(determinants; determined): the determinants functionally fix the determined."""

    determinants: tuple[Proposition, ...]
    determined: tuple[Proposition, ...]


@dataclass(frozen=True)
class GenAtom(Formula):
    """Occurrence of a registered generalised atom, written `@name(args)`."""

    name: str
    args: tuple[Proposition, ...]


_CONNECTIVES = (And, Split, Next, Eventually, Globally, Until, Release, ContradictoryNeg)


# connective -> its dual under classical negation; X is self-dual
_DUAL = {
    And: Split,
    Split: And,
    Next: Next,
    Eventually: Globally,
    Globally: Eventually,
    Until: Release,
    Release: Until,
}


# ---------------------------------------------------------------------------
# lexer / parser

_KEYWORDS = frozenset("XFGUR")
_PUNCT = {
    "&": "AMP",
    "|": "PIPE",
    "!": "BANG",
    "~": "TILDE",
    "(": "LPAR",
    ")": "RPAR",
    ";": "SEMI",
    ",": "COMMA",
    "@": "AT",
    ".": "DOT",
}


def _tokenize(text: str):
    tokens = []
    line, col = 1, 1
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        if c == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if c.isspace():
            i += 1
            col += 1
            continue
        if c.isalpha() or c == "_":
            start = i
            startcol = col
            while i < n and (text[i].isalnum() or text[i] == "_"):
                i += 1
                col += 1
            word = text[start:i]
            if word in _KEYWORDS:
                tokens.append((word, word, line, startcol))
            else:
                tokens.append(("IDENT", word, line, startcol))
            continue
        kind = _PUNCT.get(c)
        if kind is None:
            raise ParseError(f"unexpected character {c!r}", line, col)
        tokens.append((kind, c, line, col))
        i += 1
        col += 1
    tokens.append(("EOF", "", line, col))
    return tokens


_LEVEL_OR, _LEVEL_AND, _LEVEL_UNTILREL, _LEVEL_UNARY = range(4)

# the operators of the grammar, parsed and rendered: symbol and level
_OPS = {
    Split: (" | ", _LEVEL_OR),
    And: (" & ", _LEVEL_AND),
    Until: (" U ", _LEVEL_UNTILREL),
    Release: (" R ", _LEVEL_UNTILREL),
    Next: ("X ", _LEVEL_UNARY),
    Eventually: ("F ", _LEVEL_UNARY),
    Globally: ("G ", _LEVEL_UNARY),
    ContradictoryNeg: ("~", _LEVEL_UNARY),
}
# an open "(" on the parser's stack keeps its operators apart: it sits
# below every level, and below the level -1 of the tokens that close it
_OPEN = (None, -2)


class _Parser:
    """Operator-precedence core shared by the formula and sentence grammars.

    The grammar's operators come from a renderer's table (`_OPS` for
    formulas): a unary entry is a prefix token, a binary entry an infix
    token at its level, with `|` and `&` folding to the left and U and R
    to the right, one kind per chain.  `formula` reads operands and
    operators left to right onto explicit stacks, so no input depth
    recurses; `atom` reads every other operand, and another grammar
    overrides it.  `peek(ahead)` looks `ahead` tokens past the current
    one; a caller looks past a token only when that token is not EOF.
    """

    def __init__(self, text: str, ops: dict = _OPS):
        self.tokens = _tokenize(text)
        self.pos = 0
        # token kind -> (node class, level), from each operator's symbol
        self.grammar = {
            _PUNCT.get(symbol.strip(), symbol.strip()): (cls, level)
            for cls, (symbol, level) in ops.items()
        }

    def peek(self, ahead: int = 0):
        return self.tokens[self.pos + ahead]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str):
        tok = self.advance()
        if tok[0] != kind:
            raise ParseError(f"expected {kind}, found {tok[1]!r}", tok[2], tok[3])
        return tok

    def formula(self) -> Formula:
        grammar = self.grammar
        operands: list = []
        pending: list = []  # (node class, level) per operator, _OPEN per "("
        while True:
            # an operand: prefix operators and open parentheses, then an atom
            kind = self.peek()[0]
            op = grammar.get(kind)
            if kind == "LPAR" or op is not None and op[1] == _LEVEL_UNARY:
                self.advance()
                pending.append(op or _OPEN)
                continue
            operands.append(self.atom())
            # then closing parentheses, up to an infix operator or the end
            while True:
                kind, value, line, col = self.peek()
                op = grammar.get(kind)
                level = -1 if op is None or op[1] == _LEVEL_UNARY else op[1]
                # fold what binds at least as tightly, but leave U/R chains open
                while pending and (
                    pending[-1][1] > level or pending[-1][1] == level != _LEVEL_UNTILREL
                ):
                    cls, top = pending.pop()
                    rhs = operands.pop()
                    operands.append(cls(rhs) if top == _LEVEL_UNARY else cls(operands.pop(), rhs))
                if level >= 0:
                    break
                if not pending:
                    if kind != "EOF":
                        raise ParseError(f"unexpected {value!r}", line, col)
                    return operands[0]
                if kind != "RPAR":
                    raise ParseError(f"expected RPAR, found {value!r}", line, col)
                self.advance()
                pending.pop()
            if pending and pending[-1][1] == level and pending[-1] != op:
                raise ParseError("cannot mix U and R at the same level, parenthesise", line, col)
            self.advance()
            pending.append(op)

    def atom(self) -> Formula:
        kind, value, line, col = self.advance()
        if kind == "BANG":
            tok = self.expect("IDENT")
            if tok[1] == "dep" and self.peek()[0] == "LPAR":
                raise ParseError("'!' applies to a proposition, not a dep atom", tok[2], tok[3])
            return NegativeLiteral(tok[1])
        if kind == "AT":
            name = self.expect("IDENT")[1]
            self.expect("LPAR")
            args = self.identlist(allow_empty=True)
            self.expect("RPAR")
            return GenAtom(name, tuple(args))
        if kind == "IDENT":
            if value == "dep" and self.peek()[0] == "LPAR":
                self.advance()
                determinants = self.identlist(allow_empty=True)
                self.expect("SEMI")
                determined = self.identlist(allow_empty=False)
                self.expect("RPAR")
                return DepAtom(tuple(determinants), tuple(determined))
            return PositiveLiteral(value)
        raise ParseError(f"expected a formula, found {value!r}", line, col)

    def identlist(self, allow_empty: bool):
        kind, _, line, col = self.peek()
        if kind != "IDENT":
            if allow_empty:
                return []
            raise ParseError("expected a proposition name", line, col)
        names = [self.advance()[1]]
        while self.peek()[0] == "COMMA":
            self.advance()
            names.append(self.expect("IDENT")[1])
        return names


def parse_formula(text: str) -> Formula:
    """Parse concrete syntax into a Formula, reporting line/column on errors."""
    return _Parser(text).formula()


# ---------------------------------------------------------------------------
# rendering

def _render(f, required: int, ops: dict, leaf) -> str:
    """Render f with the parentheses that its context `required` needs.

    `ops` maps each operator node class to its symbol and level: a unary
    node is a prefix, `|` and `&` chain to the left, U and R to the
    right with one kind per chain.  `leaf` renders every other node,
    which never needs parentheses.  The walk keeps an explicit stack of
    pending nodes and text, so long chains need no recursion.
    """
    out = []
    stack: list = [(f, required)]
    while stack:
        item = stack.pop()
        if type(item) is str:
            out.append(item)
            continue
        g, required = item
        cls = type(g)
        op = ops.get(cls)
        if op is None:
            out.append(leaf(g))
            continue
        symbol, level = op
        if level < required:
            out.append("(")
            stack.append(")")
        if level == _LEVEL_UNARY:
            out.append(symbol)
            stack.append((g.sub, level))
            continue
        if level == _LEVEL_UNTILREL:
            left, right = level + 1, level if type(g.rhs) is cls else level + 1
        else:
            left, right = level, level + 1
        stack += [(g.rhs, right), symbol, (g.lhs, left)]
    return "".join(out)


def _render_atom(f: Formula) -> str:
    match f:
        case PositiveLiteral(name):
            return name
        case NegativeLiteral(name):
            return f"!{name}"
        case DepAtom(determinants, determined):
            return f"dep({','.join(determinants)};{','.join(determined)})"
        case GenAtom(name, args):
            return f"@{name}({','.join(args)})"
    raise TypeError(f"not a formula node: {f!r}")


def render_formula(f: Formula) -> str:
    """Render with minimal parentheses; parse_formula(render_formula(f)) == f."""
    return _render(f, _LEVEL_OR, _OPS, _render_atom)


# ---------------------------------------------------------------------------
# structural helpers

def _operands(g) -> tuple:
    """The operands of a formula node, left to right."""
    if hasattr(g, "sub"):
        return (g.sub,)
    if hasattr(g, "rhs"):
        return (g.lhs, g.rhs)
    return ()


def _preorder(f):
    """The nodes of a formula, each parent before its operands and left
    before right, by an explicit-stack walk."""
    stack = [f]
    while stack:
        g = stack.pop()
        yield g
        stack += reversed(_operands(g))


def _rebuild(f, step, ctx=None):
    """A tree built bottom-up from f with an explicit stack.

    step(node, ctx) is called on each node in preorder.  For a leaf it
    returns (value, ()); otherwise (make, children), where children are
    (operand, ctx) pairs and make(*values) combines their results.
    """
    values: list = []
    stack: list = [(False, f, ctx)]  # (False, node, ctx) or (True, make, arity)
    while stack:
        built, x, y = stack.pop()
        if built:
            args = values[len(values) - y :]
            del values[len(values) - y :]
            values.append(x(*args))
            continue
        make, children = step(x, y)
        if not children:
            values.append(make)
            continue
        stack.append((True, make, len(children)))
        stack += [(False, g, k) for g, k in reversed(children)]
    return values[0]


def formula_length(f: Formula) -> int:
    """Number of connective nodes; literals and atoms count zero."""
    return sum(type(g) in _CONNECTIVES for g in _preorder(f))


def props(f: Formula) -> frozenset[Proposition]:
    """All proposition names occurring in f, including atom arguments."""
    out: set[Proposition] = set()
    for g in _preorder(f):
        match g:
            case PositiveLiteral(name) | NegativeLiteral(name):
                out.add(name)
            case DepAtom(determinants, determined):
                out.update(determinants)
                out.update(determined)
            case GenAtom(_, args):
                out.update(args)
    return frozenset(out)


def dualize(f: Formula) -> Formula:
    """Syntactic dual of a pure-LTL formula; satisfies t |= dual(f) iff t |/= f."""

    def step(g: Formula, _):
        cls = type(g)
        if cls is PositiveLiteral:
            return NegativeLiteral(g.name), ()
        if cls is NegativeLiteral:
            return PositiveLiteral(g.name), ()
        if cls not in _DUAL:
            raise UnsupportedFragment("dualize is defined for pure LTL only")
        return _DUAL[cls], [(h, None) for h in _operands(g)]

    return _rebuild(f, step)


def bar_transform(f: Formula) -> Formula:
    """Replace every negative literal !p by a fresh positive proposition p_bar.

    Splitjunctions and atoms are rejected; `~` passes through unchanged.
    Raises NameCollision when some p_bar already occurs in f.
    """
    present = props(f)

    def step(g: Formula, _):
        cls = type(g)
        if cls is PositiveLiteral:
            return g, ()
        if cls is NegativeLiteral:
            bar = g.name + "_bar"
            if bar in present:
                raise NameCollision(f"proposition {bar!r} already occurs in the formula")
            return PositiveLiteral(bar), ()
        if cls is Split:
            raise UnsupportedFragment("bar transform requires a splitjunction-free formula")
        if cls not in _CONNECTIVES:
            raise UnsupportedFragment("bar transform does not accept dependence or generalised atoms")
        return cls, [(h, None) for h in _operands(g)]

    return _rebuild(f, step)


@dataclass(frozen=True)
class FragmentInfo:
    pure_ltl: bool
    splitjunction_free: bool
    has_dep: bool
    has_gen: bool
    downward_closed_syntactic: bool


def fragment_info(f: Formula, atoms=None) -> FragmentInfo:
    """Classify which fragment f belongs to.

    `atoms` maps generalised atom names to their registered definitions and is
    consulted for downward closure flags and arity checks.
    """
    has_dep = has_gen = has_neg = has_split = False
    gen_downward = True
    for g in _preorder(f):
        match g:
            case PositiveLiteral(_) | NegativeLiteral(_):
                pass
            case DepAtom(_, _):
                has_dep = True
            case GenAtom(name, args):
                has_gen = True
                defn = atoms.get(name) if atoms is not None else None
                if defn is None:
                    raise UnknownAtom(f"generalised atom {name!r} is not registered")
                if defn.arity is not None and defn.arity != len(args):
                    raise ArityMismatch(
                        f"atom {name!r} expects {defn.arity} arguments, got {len(args)}"
                    )
                if not defn.downward_closed:
                    gen_downward = False
            case Split(_, _):
                has_split = True
            case ContradictoryNeg(_):
                has_neg = True
            case And() | Until() | Release() | Next() | Eventually() | Globally():
                pass
            case _:
                raise TypeError(f"not a formula node: {g!r}")
    return FragmentInfo(
        pure_ltl=not (has_dep or has_gen or has_neg),
        splitjunction_free=not has_split,
        has_dep=has_dep,
        has_gen=has_gen,
        downward_closed_syntactic=not has_neg and gen_downward,
    )
