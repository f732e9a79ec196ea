"""Classical (single-trace) LTL: trace checking, automata, sat, model checking.

The automaton route goes through a tableau construction: states are
obligation sets (sets of subformulas that must hold from the current
position); each way to discharge the non-temporal part is one edge,
labelled by the propositions it requires true and false (not by letters),
that carries the rest one step forward.  Acceptance uses one counter per
eventuality (Until / Eventually subformula), advanced whenever the
pending eventuality is fulfilled or dropped, in the usual chained
degeneralisation.  The tableau works on the formula's hash-consed node
ids: an obligation set is an int bitmask over the nodes ranked in
preorder, and the automaton numbers its states 0, 1, ... in the order
they are built, with 0 the initial state.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import UnsupportedFragment
from .formula import (
    And,
    ContradictoryNeg,
    DepAtom,
    Eventually,
    Formula,
    GenAtom,
    Globally,
    NegativeLiteral,
    Next,
    PositiveLiteral,
    Release,
    Split,
    Until,
    _operands,
    _rebuild,
    dualize,
    props,
    render_formula,
)
from .kripke import KripkeStructure, validate_kripke
from .traces import PropSet, UPTrace


# ---------------------------------------------------------------------------
# Formula nodes and evaluation over successor graphs
# ---------------------------------------------------------------------------

# node kinds; a unary node keeps its operand in `rhs` and has no `lhs`,
# which lets temporal evaluation read F b as (true U b) and G b as
# (false R b)
_POS, _NEG, _DEP, _GEN, _NOT, _AND, _SPLIT, _NEXT, _F, _G, _U, _R = range(12)

_LEAF = {PositiveLiteral: _POS, NegativeLiteral: _NEG, DepAtom: _DEP, GenAtom: _GEN}
_UNARY = {ContradictoryNeg: _NOT, Next: _NEXT, Eventually: _F, Globally: _G}
_BINARY = {And: _AND, Split: _SPLIT, Until: _U, Release: _R}


class _Nodes:
    """A formula as a hash-consed DAG of numbered nodes.

    Nodes are numbered bottom-up by an explicit-stack walk; a leaf is
    keyed by its (flat, cheaply hashed) dataclass and an inner node by its
    kind and operand numbers, so equal subformulas get one number.
    """

    def __init__(self, f: Formula):
        self.formula: list[Formula] = []  # a representative per node
        self.kind: list[int] = []
        self.lhs: list[int | None] = []
        self.rhs: list[int | None] = []
        self.pure: list[bool] = []  # no dependence atom, generalised atom or ~
        self.flat: list[bool] = []  # literals, And, Split and Next only
        self._parts: dict[int, list[int]] = {}
        table: dict = {}
        number: dict[int, int] = {}  # id(subformula) -> node
        stack = [(f, False)]
        while stack:
            g, ready = stack.pop()
            if id(g) in number:
                continue
            cls = type(g)
            if not ready:
                stack.append((g, True))
                if cls in _BINARY:
                    stack.append((g.rhs, False))
                    stack.append((g.lhs, False))
                elif cls in _UNARY:
                    stack.append((g.sub, False))
                continue
            if cls in _BINARY:
                kind = _BINARY[cls]
                a, b = number[id(g.lhs)], number[id(g.rhs)]
                key = (kind, a, b)
                pure = self.pure[a] and self.pure[b]
                flat = kind in (_AND, _SPLIT) and self.flat[a] and self.flat[b]
            elif cls in _UNARY:
                kind = _UNARY[cls]
                a, b = None, number[id(g.sub)]
                key = (kind, b)
                pure = kind != _NOT and self.pure[b]
                flat = kind == _NEXT and self.flat[b]
            elif cls in _LEAF:
                kind = _LEAF[cls]
                a = b = None
                key = g
                pure = flat = kind in (_POS, _NEG)
            else:
                raise UnsupportedFragment(f"cannot check {g!r} on a trace")
            n = table.get(key)
            if n is None:
                n = table[key] = len(self.kind)
                self.formula.append(g)
                self.kind.append(kind)
                self.lhs.append(a)
                self.rhs.append(b)
                self.pure.append(pure)
                self.flat.append(flat)
            number[id(g)] = n
        self.root = number[id(f)]

    def __len__(self) -> int:
        return len(self.kind)

    def parts(self, n: int) -> list[int]:
        """Operands of the maximal Split chain at n, left to right."""
        got = self._parts.get(n)
        if got is None:
            got = []
            stack = [n]
            while stack:
                m = stack.pop()
                if self.kind[m] == _SPLIT:
                    stack.append(self.rhs[m])
                    stack.append(self.lhs[m])
                else:
                    got.append(m)
            self._parts[n] = got
        return got


def _cycles_and_tails(succ: list[int]) -> tuple[list[list[int]], list[int]]:
    """Split a functional graph into its cycles and the ids off them.

    Each cycle lists its ids in successor order.  The tail ids come
    successor-first: every tail id follows the id it steps to.
    """
    state = [0] * len(succ)  # 0 unseen, 1 on the current walk, 2 done
    cycles: list[list[int]] = []
    tails: list[int] = []
    for u in range(len(succ)):
        if state[u]:
            continue
        path = []
        while not state[u]:
            state[u] = 1
            path.append(u)
            u = succ[u]
        closed = state[u] == 1  # the walk ran into itself: a new cycle
        for v in path:
            state[v] = 2
        if closed:
            at = path.index(u)
            cycles.append(path[at:])
            del path[at:]
        tails.extend(reversed(path))
    return cycles, tails


def _until(a, b, cycles, tails, succ) -> list[bool]:
    """Least fixpoint of v = b or (a and v∘succ); a None reads as true.

    On a cycle without b, v is false throughout.  Otherwise v is true
    where b is, and a walk backwards round the cycle from there settles
    every other id; the tails then follow, each after its successor.
    """
    if a is None:
        a = [True] * len(succ)
    v = [False] * len(succ)
    for cycle in cycles:
        j = next((i for i, u in enumerate(cycle) if b[u]), None)
        if j is None:
            continue
        later = v[cycle[j]] = True
        for i in range(j - 1, j - len(cycle), -1):
            u = cycle[i]
            later = v[u] = b[u] or (a[u] and later)
    for u in tails:
        v[u] = b[u] or (a[u] and v[succ[u]])
    return v


def _negate(v):
    return None if v is None else [not x for x in v]


def node_values(nodes: _Nodes, succ: list[int], letters, wanted=None) -> list:
    """Truth value of every wanted node on every id of a functional graph.

    Id u stands for the trace whose first letter is letters[u] and whose
    one-step suffix is id succ[u].  Entry n of the result is node n's
    list of values by id, or None when n is not wanted (`wanted` holds a
    flag per node; None wants every node).  The operands of a wanted node
    must be wanted too.  One pass over the nodes, which are numbered
    bottom-up, computes each value from its operands': literals read
    `letters`, And is and, Split is or (the pure reading), X reads
    `succ`, and ContradictoryNeg is classical negation, since on a single
    trace both negations coincide.  U and F are least fixpoints, taken
    with one pass per cycle of the graph and one over its tails; R and G
    are their duals, a R b = ~(~a U ~b).
    """
    cycles, tails = _cycles_and_tails(succ)
    values: list = [None] * len(nodes)
    for n in range(len(nodes)):
        if wanted is not None and not wanted[n]:
            continue
        kind = nodes.kind[n]
        a = None if nodes.lhs[n] is None else values[nodes.lhs[n]]
        b = None if nodes.rhs[n] is None else values[nodes.rhs[n]]
        if kind in (_POS, _NEG):
            name, positive = nodes.formula[n].name, kind == _POS
            v = [(name in letter) == positive for letter in letters]
        elif kind == _NOT:
            v = _negate(b)
        elif kind == _AND:
            v = [x and y for x, y in zip(a, b)]
        elif kind == _SPLIT:
            v = [x or y for x, y in zip(a, b)]
        elif kind == _NEXT:
            v = [b[s] for s in succ]
        elif kind in (_F, _U):
            v = _until(a, b, cycles, tails, succ)
        elif kind in (_G, _R):
            v = _negate(_until(_negate(a), _negate(b), cycles, tails, succ))
        else:
            raise UnsupportedFragment(
                "dependence and generalised atoms have no classical "
                "single-trace meaning"
            )
        values[n] = v
    return values


def trace_values(trace: UPTrace, f: Formula) -> list[bool]:
    """Truth value of f at each of the |prefix| + |loop| distinct positions.

    Entry i is the value of f on the suffix starting at position i.  This
    is `node_values` on the trace's own positions, where position i steps
    to i + 1 and the last position back to the loop start.
    """
    letters = trace.prefix + trace.loop
    succ = list(range(1, len(letters))) + [len(trace.prefix)]
    nodes = _Nodes(f)
    return node_values(nodes, succ, letters)[nodes.root]


def check_trace(trace: UPTrace, f: Formula) -> bool:
    """Decide trace |= f for a single ultimately periodic trace."""
    return trace_values(trace, f)[0]


# ---------------------------------------------------------------------------
# LTL -> nondeterministic Buechi automaton
# ---------------------------------------------------------------------------


@dataclass
class NBA:
    """Buechi automaton whose edges carry literal constraints.

    States are ints numbered in construction order, with 0 the initial
    state; `transitions` maps a state to its ordered ((pos, neg),
    successor) edges, pos and neg being frozensets of propositions: a
    letter matches when it contains pos and avoids neg.
    """

    states: tuple
    initial: tuple
    accepting: frozenset
    transitions: dict


@dataclass
class LassoWitness:
    """An ultimately periodic word: `stem` then `cycle` repeated forever."""

    stem: tuple[PropSet, ...]
    cycle: tuple[PropSet, ...]

    def as_trace(self) -> UPTrace:
        return UPTrace(self.stem, self.cycle)


def _covers(nodes, at_rank, bit, lit, obligations):
    """All ways to satisfy all obligations at the current position.

    `obligations` is a mask over node ranks: node n has bit bit[n], and
    at_rank[r] is the node of rank r.  Each cover is (pos, neg,
    next_obligations, fulfilled): masks of the propositions required true
    / false now (literal n names proposition bit lit[n]), of the
    obligations deferred to the next position, and of the eventualities
    fulfilled right here.  Obligations are expanded lowest rank first,
    each expansion ahead of the rest, and each at most once per branch
    (the "Old" set of Gerth, Peled, Vardi and Wolper): a second expansion
    could only add constraints, giving a dominated cover.  Locally
    contradictory branches are pruned.
    """
    kind, lhs, rhs = nodes.kind, nodes.lhs, nodes.rhs
    results: dict = {}  # an ordered set of covers
    pending = None  # a linked list (node, rest)
    for r in reversed(range(obligations.bit_length())):
        if obligations >> r & 1:
            pending = (at_rank[r], pending)
    # open branches; a branch point pushes its second branch and goes on
    # with its first, so covers come out in depth-first order
    stack = [(pending, 0, 0, 0, 0, 0)]
    while stack:
        pending, pos, neg, nxt, fulfilled, done = stack.pop()
        while pending is not None:
            g, pending = pending
            if done & bit[g]:
                continue
            done |= bit[g]
            k = kind[g]
            if k == _POS:
                if lit[g] & neg:
                    break
                pos |= lit[g]
            elif k == _NEG:
                if lit[g] & pos:
                    break
                neg |= lit[g]
            elif k == _AND:
                pending = (lhs[g], (rhs[g], pending))
            elif k == _SPLIT:
                stack.append(((rhs[g], pending), pos, neg, nxt, fulfilled, done))
                pending = (lhs[g], pending)
            elif k == _NEXT:
                nxt |= bit[rhs[g]]
            elif k in (_F, _U):  # F b reads as true U b
                later = (lhs[g], pending) if k == _U else pending
                stack.append((later, pos, neg, nxt | bit[g], fulfilled, done))
                pending = (rhs[g], pending)
                fulfilled |= bit[g]
            elif k == _G:
                pending = (rhs[g], pending)
                nxt |= bit[g]
            elif k == _R:
                stack.append(((rhs[g], pending), pos, neg, nxt | bit[g], fulfilled, done))
                pending = (rhs[g], (lhs[g], pending))
            else:
                raise UnsupportedFragment(
                    "automaton construction needs plain temporal syntax, "
                    f"got {render_formula(nodes.formula[g])}"
                )
        else:  # no contradiction on this branch
            results[pos, neg, nxt, fulfilled] = None
    return list(results)


def ltl_to_nba(f: Formula) -> NBA:
    """Build an NBA whose language is exactly the set of traces of f.

    f must be plain temporal syntax (no ~, dep or generalised atoms).
    Each tableau cover of a state gives one edge, labelled (pos, neg).
    The cover's eventualities fulfilled or no longer pending are read off
    its full next obligations; then G h absorbs h there, since expanding
    G h pushes h again and `_covers` expands each node once per branch,
    so the states with and without h have the same covers.
    The tableau runs on f's hash-consed nodes, ranked in preorder, over
    pairs (obligation mask, counter), each numbered when first reached.
    """
    nodes = _Nodes(f)
    at_rank: list[int] = []
    bit = [0] * len(nodes)
    stack = [nodes.root]
    while stack:
        n = stack.pop()
        if not bit[n]:
            bit[n] = 1 << len(at_rank)
            at_rank.append(n)
            stack += [m for m in (nodes.rhs[n], nodes.lhs[n]) if m is not None]
    prop: dict[str, int] = {}
    lit = [
        1 << prop.setdefault(g.name, len(prop)) if kind in (_POS, _NEG) else 0
        for g, kind in zip(nodes.formula, nodes.kind)
    ]
    names = list(prop)
    ev_bits = [bit[n] for n in at_rank if nodes.kind[n] in (_F, _U)]
    ev_mask, k = sum(ev_bits), len(ev_bits)
    absorbs = [(bit[n], bit[nodes.rhs[n]]) for n in at_rank if nodes.kind[n] == _G]

    cover_cache: dict = {}
    labels: dict = {}  # (pos, neg) masks -> edge label
    states = [(bit[nodes.root], 0)]
    index = {states[0]: 0}
    edges_of = []
    for obligations, counter in states:  # visits the states appended below too
        covers = cover_cache.get(obligations)
        if covers is None:
            covers = cover_cache[obligations] = []
            for pos, neg, nxt, fulfilled in _covers(nodes, at_rank, bit, lit, obligations):
                if (pos, neg) not in labels:
                    labels[pos, neg] = tuple(
                        frozenset(p for i, p in enumerate(names) if mask >> i & 1)
                        for mask in (pos, neg)
                    )
                # eventualities fulfilled here or no longer pending
                good = (fulfilled | ~nxt) & ev_mask
                # G h re-creates h when expanded, so h need not be kept
                absorbed = sum(h for g, h in absorbs if nxt & g)
                covers.append((labels[pos, neg], nxt & ~absorbed, good))
        start = 0 if counter == k else counter
        edges = []
        for label, nxt, good in covers:
            advanced = start
            while advanced < k and good & ev_bits[advanced]:
                advanced += 1
            j = index.setdefault((nxt, advanced), len(states))
            if j == len(states):
                states.append((nxt, advanced))
            edges.append((label, j))
        edges_of.append(tuple(edges))

    return NBA(
        states=tuple(range(len(states))),
        initial=(0,),
        accepting=frozenset(i for i, (_, counter) in enumerate(states) if counter == k),
        transitions=dict(enumerate(edges_of)),
    )


def nba_accepts(nba: NBA, trace: UPTrace) -> bool:
    """Membership test: does the automaton accept the given trace?

    Searches the product of the automaton with the trace's positions,
    where position i steps to i + 1 and the last position back to the
    loop start, for an accepting lasso.
    """
    letters = trace.prefix + trace.loop
    succ = [(i,) for i in range(1, len(letters))] + [(len(trace.prefix),)]
    product = _product(nba, 0, letters.__getitem__, succ.__getitem__)
    return _emptiness_search(*product) is not None


# ---------------------------------------------------------------------------
# Emptiness via nested depth-first search
# ---------------------------------------------------------------------------


def _emptiness_search(initial, adjacency, accepting):
    """Nested DFS for an accepting lasso; returns (stem, cycle) letters."""
    blue: set = set()
    red: set = set()
    parent: dict = {}

    def red_search(seed):
        local_parent: dict = {}
        red.add(seed)
        stack = [(seed, 0)]
        while stack:
            state, idx = stack[-1]
            edges = adjacency.get(state, ())
            if idx < len(edges):
                stack[-1] = (state, idx + 1)
                letter, succ = edges[idx]
                if succ == seed:
                    cycle = [letter]
                    walk = state
                    while walk != seed:
                        prev, lab = local_parent[walk]
                        cycle.append(lab)
                        walk = prev
                    cycle.reverse()
                    return tuple(cycle)
                if succ not in red:
                    red.add(succ)
                    local_parent[succ] = (state, letter)
                    stack.append((succ, 0))
            else:
                stack.pop()
        return None

    for root in initial:
        if root in blue:
            continue
        blue.add(root)
        stack = [(root, 0)]
        while stack:
            state, idx = stack[-1]
            edges = adjacency.get(state, ())
            if idx < len(edges):
                stack[-1] = (state, idx + 1)
                letter, succ = edges[idx]
                if succ not in blue:
                    blue.add(succ)
                    parent[succ] = (state, letter)
                    stack.append((succ, 0))
            else:
                stack.pop()
                if state in accepting:
                    cycle = red_search(state)
                    if cycle is not None:
                        stem = []
                        walk = state
                        while walk in parent:
                            prev, lab = parent[walk]
                            stem.append(lab)
                            walk = prev
                        stem.reverse()
                        return tuple(stem), cycle
    return None


def _product(nba: NBA, start, label, successors):
    """The product of the automaton with a graph of labelled nodes.

    Returns (initial, adjacency, accepting) for `_emptiness_search`:
    product nodes are pairs (graph node, automaton state) reachable from
    `start` paired with an initial state, and node (x, q) steps, reading
    x's letter `label(x)`, to (y, q') for every automaton edge q -> q'
    that matches the letter (in edge order) and every y in
    `successors(x)` (in that order).
    """
    initial = tuple((start, q) for q in nba.initial)
    adjacency: dict = {}
    order = list(initial)
    seen = set(initial)
    for node in order:  # visits the nodes appended below too
        x, q = node
        letter = label(x)
        succs = successors(x)
        edges = []
        for ((pos, neg), succ_q) in nba.transitions.get(q, ()):
            if pos <= letter and neg.isdisjoint(letter):
                for y in succs:
                    target = (y, succ_q)
                    edges.append((letter, target))
                    if target not in seen:
                        seen.add(target)
                        order.append(target)
        adjacency[node] = tuple(edges)
    accepting = {node for node in seen if node[1] in nba.accepting}
    return initial, adjacency, accepting


def nba_nonempty(nba: NBA) -> LassoWitness | None:
    """Search the automaton for an accepted word; None when empty."""
    found = _emptiness_search(nba.initial, nba.transitions, nba.accepting)
    if found is None:
        return None
    # letter pos matches label (pos, neg): no cover puts a name in both
    stem, cycle = (tuple(pos for pos, _ in labels) for labels in found)
    return LassoWitness(stem=stem, cycle=cycle)


# ---------------------------------------------------------------------------
# Satisfiability and model checking
# ---------------------------------------------------------------------------


def classical_sat(f: Formula) -> UPTrace | None:
    """A model trace of f under classical semantics, or None if unsatisfiable."""
    witness = nba_nonempty(ltl_to_nba(f))
    if witness is None:
        return None
    return witness.as_trace()


def _fresh_prop(taken, stem: str) -> str:
    if stem not in taken:
        return stem
    i = 0
    while f"{stem}{i}" in taken:
        i += 1
    return f"{stem}{i}"


def tsat(f: Formula, semantics: str, atoms=None) -> UPTrace | None:
    """Team satisfiability for formulas without contradictory negation.

    For this fragment a formula is team-satisfiable iff it is satisfiable
    by a singleton team, so dependence atoms (always true on singletons)
    and generalised atoms that are trivially true on singleton teams can
    be replaced by a tautology and the rest handed to classical_sat.  The
    returned trace, as a singleton team, satisfies f under both
    semantics.
    """
    if semantics not in ("sync", "async"):
        raise ValueError(f"unknown semantics {semantics!r}")

    taken = props(f)
    tautology_prop = _fresh_prop(taken, "taut")
    tautology = Split(PositiveLiteral(tautology_prop), NegativeLiteral(tautology_prop))

    def step(g: Formula, _):
        match g:
            case PositiveLiteral() | NegativeLiteral():
                return g, ()
            case DepAtom():
                return tautology, ()
            case GenAtom(name=name):
                if atoms is None:
                    raise UnsupportedFragment(
                        f"generalised atom {name!r} needs a registry"
                    )
                defn = atoms.get(name)
                if not (defn.downward_closed and defn.singleton_trivial):
                    raise UnsupportedFragment(
                        f"satisfiability via singleton teams needs atom {name!r} "
                        "to be downward closed and true on all singletons"
                    )
                return tautology, ()
            case ContradictoryNeg():
                raise UnsupportedFragment(
                    "satisfiability with contradictory negation is not supported"
                )
            case And() | Split() | Until() | Release() | Next() | Eventually() | Globally():
                return type(g), [(h, None) for h in _operands(g)]
        raise UnsupportedFragment(f"cannot rewrite {render_formula(g)}")

    witness = classical_sat(_rebuild(f, step))
    if witness is None:
        return None
    return UPTrace(
        tuple(frozenset(letter) & taken for letter in witness.prefix),
        tuple(frozenset(letter) & taken for letter in witness.loop),
    )


def classical_mc(k: KripkeStructure, f: Formula) -> tuple[bool, LassoWitness | None]:
    """Check every trace of k against f.

    Returns (True, None) when every trace satisfies f, else (False, w)
    with w a lasso trace of k violating f.  Works on the product of k
    with an automaton for the dual of f (the dual accepts exactly the
    traces violating f).
    """
    validate_kripke(k)
    nba = ltl_to_nba(dualize(f))
    initial, adjacency, accepting = _product(
        nba, k.init, k.labels.__getitem__, k.edges.__getitem__
    )
    found = _emptiness_search(initial, adjacency, accepting)
    if found is None:
        return True, None
    stem, cycle = found
    return False, LassoWitness(stem=stem, cycle=cycle)
