"""Classical (single-trace) LTL: trace checking, automata, sat, model checking.

The automaton route goes through a tableau construction: states are
obligation sets (sets of subformulas that must hold from the current
position), edges discharge the non-temporal part against a letter and
carry the rest one step forward.  Acceptance uses one counter per
eventuality (Until / Eventually subformula), advanced whenever the
pending eventuality is fulfilled or dropped, in the usual chained
degeneralisation.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .errors import MalformedStructure, UnsupportedFragment
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
    """Explicit-letter Buechi automaton over subsets of `props`.

    `states` and `initial` are kept in deterministic construction order;
    `transitions` maps a state to its ordered (letter, successor) edges.
    """

    props: tuple[str, ...]
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


def _subformula_order(f: Formula) -> dict[Formula, int]:
    """Deterministic index for every subformula (used to fix set orders)."""
    order: dict[Formula, int] = {}

    def walk(g: Formula):
        if g in order:
            return
        order[g] = len(order)
        match g:
            case And(lhs=a, rhs=b) | Split(lhs=a, rhs=b) | Until(lhs=a, rhs=b) | Release(lhs=a, rhs=b):
                walk(a)
                walk(b)
            case Next(sub=s) | Eventually(sub=s) | Globally(sub=s) | ContradictoryNeg(sub=s):
                walk(s)

    walk(f)
    return order


def _covers(obligations, order):
    """All ways to satisfy all obligations at the current position.

    Each cover is (pos, neg, next_obligations, fulfilled): propositions
    required true / false now, obligations deferred to the next position,
    and the eventualities fulfilled right here.  Locally contradictory
    branches are pruned.
    """
    results = []
    seen = set()

    def go(pending, pos, neg, nxt, fulfilled):
        if not pending:
            key = (frozenset(pos), frozenset(neg), frozenset(nxt), frozenset(fulfilled))
            if key not in seen:
                seen.add(key)
                results.append(key)
            return
        g = pending[0]
        rest = pending[1:]
        match g:
            case PositiveLiteral(name=name):
                if name not in neg:
                    go(rest, pos | {name}, neg, nxt, fulfilled)
            case NegativeLiteral(name=name):
                if name not in pos:
                    go(rest, pos, neg | {name}, nxt, fulfilled)
            case And(lhs=a, rhs=b):
                go([a, b] + rest, pos, neg, nxt, fulfilled)
            case Split(lhs=a, rhs=b):
                go([a] + rest, pos, neg, nxt, fulfilled)
                go([b] + rest, pos, neg, nxt, fulfilled)
            case Next(sub=s):
                go(rest, pos, neg, nxt | {s}, fulfilled)
            case Eventually(sub=s):
                go([s] + rest, pos, neg, nxt, fulfilled | {g})
                go(rest, pos, neg, nxt | {g}, fulfilled)
            case Globally(sub=s):
                go([s] + rest, pos, neg, nxt | {g}, fulfilled)
            case Until(lhs=a, rhs=b):
                go([b] + rest, pos, neg, nxt, fulfilled | {g})
                go([a] + rest, pos, neg, nxt | {g}, fulfilled)
            case Release(lhs=a, rhs=b):
                go([b, a] + rest, pos, neg, nxt, fulfilled)
                go([b] + rest, pos, neg, nxt | {g}, fulfilled)
            case _:
                raise UnsupportedFragment(
                    f"automaton construction needs plain temporal syntax, got {g!r}"
                )

    go(sorted(obligations, key=order.get), set(), set(), set(), set())
    return results


def _letters_matching(universe, pos, neg):
    """All letters over `universe` that contain pos and avoid neg, in order."""
    free = [p for p in universe if p not in pos and p not in neg]
    base = frozenset(pos)
    out = []
    for r in range(len(free) + 1):
        for extra in combinations(free, r):
            out.append(base | frozenset(extra))
    return out


def ltl_to_nba(f: Formula) -> NBA:
    """Build an NBA whose language is exactly the set of traces of f.

    f must be plain temporal syntax (no ~, dep or generalised atoms).
    The alphabet is the powerset of the propositions of f.
    """
    info_props = tuple(sorted(props(f)))
    order = _subformula_order(f)
    eventualities = tuple(
        g for g in sorted(order, key=order.get) if isinstance(g, (Until, Eventually))
    )
    k = len(eventualities)

    cover_cache: dict = {}

    def covers_of(obligations):
        got = cover_cache.get(obligations)
        if got is None:
            got = _covers(obligations, order)
            cover_cache[obligations] = got
        return got

    start = (frozenset({f}), 0)
    states = [start]
    state_set = {start}
    transitions: dict = {}
    queue = [start]
    while queue:
        state = queue.pop(0)
        obligations, counter = state
        edges = []
        for pos, neg, nxt, fulfilled in covers_of(obligations):
            good = {
                e for e in eventualities if e in fulfilled or e not in nxt
            }
            advanced = 0 if counter == k else counter
            while advanced < k and eventualities[advanced] in good:
                advanced += 1
            target = (nxt, advanced)
            for letter in _letters_matching(info_props, pos, neg):
                edges.append((letter, target))
            if target not in state_set:
                state_set.add(target)
                states.append(target)
                queue.append(target)
        transitions[state] = tuple(edges)

    accepting = frozenset(s for s in states if s[1] == k)
    return NBA(
        props=info_props,
        states=tuple(states),
        initial=(start,),
        accepting=accepting,
        transitions=transitions,
    )


def nba_accepts(nba: NBA, trace: UPTrace) -> bool:
    """Membership test: does the automaton accept the given trace?

    Runs the stem, then collapses each full loop unwinding into one edge
    of a "boundary graph" over automaton states, flagged when the
    unwinding passes through an accepting state.  The word is accepted
    iff some reachable cycle of that graph uses a flagged edge.
    """
    relevant = frozenset(nba.props)

    def matching(state, letter):
        restricted = frozenset(letter) & relevant
        return [
            succ
            for (edge_letter, succ) in nba.transitions.get(state, ())
            if edge_letter == restricted
        ]

    current = set(nba.initial)
    for letter in trace.prefix:
        current = {succ for s in current for succ in matching(s, letter)}

    # boundary graph: s --flag--> q when one loop unwinding leads s to q,
    # flag recording an accepting visit strictly inside or at the end
    edges: dict = {}
    pending = sorted(current, key=repr)
    explored = set(current)
    while pending:
        s = pending.pop()
        frontier = {(s, False)}
        for letter in trace.loop:
            frontier = {
                (succ, flag or succ in nba.accepting)
                for (q, flag) in frontier
                for succ in matching(q, letter)
            }
        best: dict = {}
        for (q, flag) in frontier:
            best[q] = best.get(q, False) or flag
        edges[s] = sorted(best.items(), key=repr)
        for q in best:
            if q not in explored:
                explored.add(q)
                pending.append(q)

    def reaches(a, b):
        seen = {a}
        stack = [a]
        while stack:
            x = stack.pop()
            if x == b:
                return True
            for (y, _) in edges.get(x, ()):
                if y not in seen:
                    seen.add(y)
                    stack.append(y)
        return False

    for s in explored:
        for (q, flag) in edges.get(s, ()):
            if flag and reaches(q, s):
                return True
    return False


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


def nba_nonempty(nba: NBA) -> LassoWitness | None:
    """Search the automaton for an accepted word; None when empty."""
    found = _emptiness_search(nba.initial, nba.transitions, nba.accepting)
    if found is None:
        return None
    stem, cycle = found
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

    def rewrite(g: Formula) -> Formula:
        match g:
            case PositiveLiteral() | NegativeLiteral():
                return g
            case DepAtom():
                return tautology
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
                return tautology
            case ContradictoryNeg():
                raise UnsupportedFragment(
                    "satisfiability with contradictory negation is not supported"
                )
            case And(lhs=a, rhs=b):
                return And(rewrite(a), rewrite(b))
            case Split(lhs=a, rhs=b):
                return Split(rewrite(a), rewrite(b))
            case Next(sub=s):
                return Next(rewrite(s))
            case Eventually(sub=s):
                return Eventually(rewrite(s))
            case Globally(sub=s):
                return Globally(rewrite(s))
            case Until(lhs=a, rhs=b):
                return Until(rewrite(a), rewrite(b))
            case Release(lhs=a, rhs=b):
                return Release(rewrite(a), rewrite(b))
        raise UnsupportedFragment(f"cannot rewrite {render_formula(g)}")

    witness = classical_sat(rewrite(f))
    if witness is None:
        return None
    keep = props(f)
    return UPTrace(
        tuple(frozenset(letter) & keep for letter in witness.prefix),
        tuple(frozenset(letter) & keep for letter in witness.loop),
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
    relevant = frozenset(nba.props)

    adjacency: dict = {}
    initial = tuple((k.init, q) for q in nba.initial)
    queue = list(initial)
    seen = set(initial)
    while queue:
        node = queue.pop(0)
        world, q = node
        letter = k.labels[world]
        restricted = letter & relevant
        edges = []
        for (edge_letter, succ_q) in nba.transitions.get(q, ()):
            if edge_letter == restricted:
                for succ_w in k.edges[world]:
                    target = (succ_w, succ_q)
                    edges.append((letter, target))
                    if target not in seen:
                        seen.add(target)
                        queue.append(target)
        adjacency[node] = tuple(edges)

    accepting = {(w, q) for (w, q) in seen if q in nba.accepting}
    found = _emptiness_search(initial, adjacency, accepting)
    if found is None:
        return True, None
    stem, cycle = found
    return False, LassoWitness(stem=stem, cycle=cycle)
