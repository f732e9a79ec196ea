"""Shared strategies and independent oracles for the test suite."""

from __future__ import annotations

import random

from hypothesis import strategies as st

from teamltl.formula import (
    And,
    ContradictoryNeg,
    DepAtom,
    Eventually,
    Formula,
    Globally,
    NegativeLiteral,
    Next,
    PositiveLiteral,
    Release,
    Split,
    Until,
)
from teamltl.kripke import KripkeStructure
from teamltl.reductions import QBFInstance
from teamltl.traces import Team, UPTrace, suffix_encoding

PROP_POOL = ("p", "q", "r")


# ---------------------------------------------------------------------------
# hypothesis strategies


def prop_names(pool=PROP_POOL):
    return st.sampled_from(pool)


def formulas(
    pool=PROP_POOL,
    max_leaves: int = 6,
    allow_neg: bool = False,
    allow_dep: bool = False,
) -> st.SearchStrategy[Formula]:
    """Recursive strategy over formulas; pure LTL unless flags are set."""
    leaves = [
        prop_names(pool).map(PositiveLiteral),
        prop_names(pool).map(NegativeLiteral),
    ]
    if allow_dep:
        leaves.append(
            st.tuples(
                st.lists(prop_names(pool), max_size=2),
                st.lists(prop_names(pool), min_size=1, max_size=1),
            ).map(lambda t: DepAtom(tuple(t[0]), tuple(t[1])))
        )
    base = st.one_of(*leaves)

    def extend(children):
        unary = [Next, Eventually, Globally]
        if allow_neg:
            unary.append(ContradictoryNeg)
        return st.one_of(
            st.tuples(st.sampled_from(unary), children).map(lambda t: t[0](t[1])),
            st.tuples(
                st.sampled_from([And, Split, Until, Release]), children, children
            ).map(lambda t: t[0](t[1], t[2])),
        )

    return st.recursive(base, extend, max_leaves=max_leaves)


def letters(pool=PROP_POOL):
    return st.sets(prop_names(pool), max_size=len(pool)).map(frozenset)


def up_traces(pool=PROP_POOL, max_prefix: int = 3, max_loop: int = 4):
    return st.tuples(
        st.lists(letters(pool), max_size=max_prefix),
        st.lists(letters(pool), min_size=1, max_size=max_loop),
    ).map(lambda t: UPTrace(tuple(t[0]), tuple(t[1])))


def teams(pool=PROP_POOL, max_size: int = 4, max_prefix: int = 2, max_loop: int = 3):
    return st.lists(
        up_traces(pool, max_prefix, max_loop), min_size=0, max_size=max_size
    ).map(Team)


def nonempty_teams(pool=PROP_POOL, max_size: int = 4, max_prefix: int = 2, max_loop: int = 3):
    return st.lists(
        up_traces(pool, max_prefix, max_loop), min_size=1, max_size=max_size
    ).map(Team)


# ---------------------------------------------------------------------------
# random generators with explicit seeds (for bulk differential suites)


def random_letter(rng: random.Random, pool=PROP_POOL) -> frozenset:
    return frozenset(p for p in pool if rng.random() < 0.5)


def random_trace(rng: random.Random, pool=PROP_POOL, max_prefix=3, max_loop=4) -> UPTrace:
    prefix = tuple(random_letter(rng, pool) for _ in range(rng.randint(0, max_prefix)))
    loop = tuple(random_letter(rng, pool) for _ in range(rng.randint(1, max_loop)))
    return UPTrace(prefix, loop)


def random_team(rng: random.Random, pool=PROP_POOL, max_size=4, **kw) -> Team:
    return Team(random_trace(rng, pool, **kw) for _ in range(rng.randint(1, max_size)))


def random_formula(rng: random.Random, depth: int, pool=PROP_POOL, allow_neg=False) -> Formula:
    if depth <= 0 or rng.random() < 0.2:
        name = rng.choice(pool)
        return PositiveLiteral(name) if rng.random() < 0.6 else NegativeLiteral(name)
    ops = ["X", "F", "G", "U", "R", "&", "|"]
    if allow_neg:
        ops.append("~")
    op = rng.choice(ops)
    if op in ("X", "F", "G", "~"):
        sub = random_formula(rng, depth - 1, pool, allow_neg)
        return {"X": Next, "F": Eventually, "G": Globally, "~": ContradictoryNeg}[op](sub)
    lhs = random_formula(rng, depth - 1, pool, allow_neg)
    rhs = random_formula(rng, depth - 1, pool, allow_neg)
    return {"U": Until, "R": Release, "&": And, "|": Split}[op](lhs, rhs)


def random_splitfree_formula(
    rng: random.Random, depth: int, pool=PROP_POOL, allow_neg=False
) -> Formula:
    """Like random_formula but never produces a splitjunction."""
    if depth <= 0 or rng.random() < 0.2:
        name = rng.choice(pool)
        return PositiveLiteral(name) if rng.random() < 0.6 else NegativeLiteral(name)
    ops = ["X", "F", "G", "U", "R", "&"]
    if allow_neg:
        ops.append("~")
    op = rng.choice(ops)
    if op in ("X", "F", "G", "~"):
        sub = random_splitfree_formula(rng, depth - 1, pool, allow_neg)
        return {"X": Next, "F": Eventually, "G": Globally, "~": ContradictoryNeg}[op](sub)
    lhs = random_splitfree_formula(rng, depth - 1, pool, allow_neg)
    rhs = random_splitfree_formula(rng, depth - 1, pool, allow_neg)
    return {"U": Until, "R": Release, "&": And}[op](lhs, rhs)


def random_kripke(
    rng: random.Random, max_worlds=6, pool=("p", "q"), branch_prob=0.25
) -> KripkeStructure:
    """A random left-total structure; branching kept rare so that rejection
    sampling for finite trace teams succeeds quickly."""
    n = rng.randint(1, max_worlds)
    names = tuple(f"w{i}" for i in range(n))
    labels = {w: frozenset(p for p in pool if rng.random() < 0.5) for w in names}
    edges = {}
    for w in names:
        count = 2 if rng.random() < branch_prob else 1
        edges[w] = tuple(sorted({rng.choice(names) for _ in range(count)}))
    return KripkeStructure(worlds=names, labels=labels, edges=edges, init=names[0])


# ---------------------------------------------------------------------------
# QBF instance generators


def random_qbf(rng: random.Random, n_max: int = 4, m_max: int = 4) -> QBFInstance:
    """A random well-formed instance.

    Coverage is established by construction - each variable is planted in
    a distinct clause slot before the remaining slots are filled - because
    rejection sampling for coverage diverges once n exceeds 3m.
    """
    n = rng.randint(1, n_max)
    m = rng.randint(max(1, (n + 2) // 3), max(m_max, (n + 2) // 3))
    variables = [f"v{i}" for i in range(1, n + 1)]
    order = variables[:]
    rng.shuffle(order)
    prefix = tuple((rng.choice("EA"), v) for v in order)
    slots = [(j, k) for j in range(m) for k in range(3)]
    rng.shuffle(slots)
    grid: list[list[str | None]] = [[None] * 3 for _ in range(m)]
    for var, (j, k) in zip(variables, slots):
        grid[j][k] = var
    clauses = tuple(
        tuple(
            (cell if cell is not None else rng.choice(variables), rng.random() < 0.5)
            for cell in row
        )
        for row in grid
    )
    return QBFInstance(prefix=prefix, clauses=clauses)


def exhaustive_qbf(n_max: int, m_max: int):
    """Every well-formed instance up to the given sizes, one per canonical
    form: clauses are sorted literal triples and clause lists are sorted
    multisets, so instances differing only in literal or clause order
    appear once."""
    import itertools

    for n in range(1, n_max + 1):
        variables = tuple(f"v{i}" for i in range(1, n + 1))
        literals = [(v, pos) for v in variables for pos in (True, False)]
        clause_pool = sorted(
            {tuple(sorted(c)) for c in itertools.product(literals, repeat=3)}
        )
        for m in range(1, m_max + 1):
            for clauses in itertools.combinations_with_replacement(clause_pool, m):
                if {v for c in clauses for v, _ in c} != set(variables):
                    continue
                for quants in itertools.product("EA", repeat=n):
                    yield QBFInstance(
                        prefix=tuple(zip(quants, variables)), clauses=clauses
                    )


# ---------------------------------------------------------------------------
# independent single-trace oracle (recursive unrolling, no DP)


def oracle_trace(trace: UPTrace, f: Formula) -> bool:
    """Reference semantics for a single trace, by direct unrolling.

    Quantifies temporal operators over the first |prefix| + |loop| suffixes,
    which covers every distinct suffix of an ultimately periodic trace.
    Deliberately structured differently from the production evaluator.
    """
    horizon = len(trace.prefix) + len(trace.loop)
    here = trace.loop[0] if not trace.prefix else trace.prefix[0]

    def at(i: int) -> UPTrace:
        return suffix_encoding(trace, i)

    match f:
        case PositiveLiteral(name):
            return name in here
        case NegativeLiteral(name):
            return name not in here
        case ContradictoryNeg(sub):
            return not oracle_trace(trace, sub)
        case And(lhs, rhs):
            return oracle_trace(trace, lhs) and oracle_trace(trace, rhs)
        case Split(lhs, rhs):
            return oracle_trace(trace, lhs) or oracle_trace(trace, rhs)
        case Next(sub):
            return oracle_trace(at(1), sub)
        case Eventually(sub):
            return any(oracle_trace(at(i), sub) for i in range(horizon))
        case Globally(sub):
            return all(oracle_trace(at(i), sub) for i in range(horizon))
        case Until(lhs, rhs):
            for i in range(horizon):
                if oracle_trace(at(i), rhs):
                    return all(oracle_trace(at(j), lhs) for j in range(i))
            return False
        case Release(lhs, rhs):
            for i in range(horizon):
                if not oracle_trace(at(i), rhs):
                    return any(oracle_trace(at(j), lhs) for j in range(i))
            return True
    raise AssertionError(f"oracle cannot evaluate {f!r}")


def sync_model_oracle(k: KripkeStructure, f: Formula) -> bool:
    """Synchronous team satisfaction of a splitjunction-free f by all traces
    of k, by direct unrolling over the lasso of successor sets
    S_0 = {init}, S_{i+1} = image(S_i): at position i, p holds when every
    world of S_i carries p and !p when none does.  Temporal operators
    quantify over the next len(sets) positions, which reach every
    distinct one; ~ negates the value at a position."""
    sets: list[frozenset] = []
    seen_at: dict[frozenset, int] = {}
    current = frozenset({k.init})
    while current not in seen_at:
        seen_at[current] = len(sets)
        sets.append(current)
        current = frozenset(v for w in current for v in k.edges[w])
    stem, horizon = seen_at[current], len(sets)

    def later(i: int, j: int) -> int:
        i += j
        return i if i < horizon else stem + (i - stem) % (horizon - stem)

    def holds(g: Formula, i: int) -> bool:
        match g:
            case PositiveLiteral(name):
                return all(name in k.labels[w] for w in sets[i])
            case NegativeLiteral(name):
                return not any(name in k.labels[w] for w in sets[i])
            case ContradictoryNeg(sub):
                return not holds(sub, i)
            case And(lhs, rhs):
                return holds(lhs, i) and holds(rhs, i)
            case Next(sub):
                return holds(sub, later(i, 1))
            case Eventually(sub):
                return any(holds(sub, later(i, j)) for j in range(horizon))
            case Globally(sub):
                return all(holds(sub, later(i, j)) for j in range(horizon))
            case Until(lhs, rhs):
                for j in range(horizon):
                    if holds(rhs, later(i, j)):
                        return all(holds(lhs, later(i, m)) for m in range(j))
                return False
            case Release(lhs, rhs):
                for j in range(horizon):
                    if not holds(rhs, later(i, j)):
                        return any(holds(lhs, later(i, m)) for m in range(j))
                return True
        raise AssertionError(f"oracle cannot evaluate {g!r}")

    return holds(f, 0)
