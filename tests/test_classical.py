"""Single-trace LTL: trace checking, automata, satisfiability, model checking."""

import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import teamltl
from teamltl.classical import (
    check_trace,
    classical_mc,
    classical_sat,
    ltl_to_nba,
    nba_accepts,
    nba_nonempty,
    tsat,
)
from teamltl.errors import UnsupportedFragment
from teamltl.formula import dualize, parse_formula
from teamltl.kripke import parse_kripke
from teamltl.teamcheck import AtomRegistry, GenAtomDef, Team, check_sync, constancy_atom_def
from teamltl.traces import UPTrace, parse_trace_line, value_at

from .util import (
    formulas,
    oracle_trace,
    random_formula,
    random_kripke,
    random_trace,
    up_traces,
)

E = frozenset()
Sp = frozenset({"p"})


def T(line):
    return parse_trace_line(line)


# ---------------------------------------------------------------------------
# check_trace


def test_check_trace_pinned():
    assert check_trace(T("{p} ; {}"), parse_formula("F p"))
    assert not check_trace(T("{} {p} ; {}"), parse_formula("p"))
    assert check_trace(T("{} {p} ; {}"), parse_formula("X p"))
    assert check_trace(T("; {p}"), parse_formula("G p"))
    assert not check_trace(T("{p} ; {}"), parse_formula("G p"))
    assert check_trace(T("{p} {p} ; {q}"), parse_formula("p U q"))
    assert not check_trace(T("{p} {} ; {q}"), parse_formula("p U q"))
    assert check_trace(T("; {q}"), parse_formula("p R q"))
    assert check_trace(T("{q} {q,p} ; {}"), parse_formula("p R q"))
    assert not check_trace(T("{q} {} ; {}"), parse_formula("p R q"))
    assert check_trace(T("{p} ; {}"), parse_formula("~G p"))


def test_check_trace_rejects_team_atoms():
    with pytest.raises(UnsupportedFragment):
        check_trace(T("; {p}"), parse_formula("dep(p;q)"))
    with pytest.raises(UnsupportedFragment):
        check_trace(T("; {p}"), parse_formula("@anything(p)"))


@settings(max_examples=300)
@given(up_traces(), formulas(allow_neg=True))
def test_check_trace_matches_unrolling_oracle(t, f):
    assert check_trace(t, f) == oracle_trace(t, f)


@given(up_traces(), formulas())
def test_check_trace_dual_complement(t, f):
    assert check_trace(t, f) != check_trace(t, dualize(f))


@given(up_traces(), formulas(), st.integers(1, 3))
def test_check_trace_invariant_under_pumping(t, f, reps):
    pumped = UPTrace(t.prefix + t.loop * reps, t.loop)
    assert check_trace(pumped, f) == check_trace(t, f)


# ---------------------------------------------------------------------------
# automata


def test_nba_language_pinned():
    nba = ltl_to_nba(parse_formula("F p"))
    assert nba_accepts(nba, T("{p} ; {}"))
    assert nba_accepts(nba, T("{} {} {p} ; {}"))
    assert not nba_accepts(nba, T("; {}"))

    nba = ltl_to_nba(parse_formula("G (p | q)"))
    assert nba_accepts(nba, T("; {p} {q}"))
    assert not nba_accepts(nba, T("; {p} {}"))


def test_nba_unsat_is_empty():
    assert nba_nonempty(ltl_to_nba(parse_formula("p & !p"))) is None
    assert nba_nonempty(ltl_to_nba(parse_formula("F p & G !p"))) is None
    assert nba_nonempty(ltl_to_nba(parse_formula("X p & X !p"))) is None


def test_nba_witness_validates():
    for text in ["G p", "F p & G !q", "p U q", "(F p) & F q", "G F p & G F q"]:
        f = parse_formula(text)
        witness = nba_nonempty(ltl_to_nba(f))
        assert witness is not None, text
        assert check_trace(witness.as_trace(), f), text


def test_nba_rejects_extensions():
    with pytest.raises(UnsupportedFragment):
        ltl_to_nba(parse_formula("~p"))
    with pytest.raises(UnsupportedFragment):
        ltl_to_nba(parse_formula("dep(p;q)"))
    # nested below temporal operators, where the tableau meets them only
    # when it expands a cover
    for text in ["G (p | ~q)", "F dep(p; q)", "p U @c(p)"]:
        with pytest.raises(UnsupportedFragment):
            ltl_to_nba(parse_formula(text))


def _nba_size(text):
    nba = ltl_to_nba(parse_formula(text))
    edges = sum(len(e) for e in nba.transitions.values())
    return len(nba.states), edges, len(nba.accepting)


def test_nba_sizes_pinned():
    # each obligation is expanded once per branch and G h absorbs h in
    # successor states, so no dominated cover survives: G F p0 & ... has
    # one state per counter value plus the initial one, and one edge per
    # state and subset of the propositions required now
    sizes = [(2, 4, 1), (4, 16, 1), (5, 40, 1), (6, 96, 1), (7, 224, 1)]
    for n, size in enumerate(sizes, start=1):
        assert _nba_size(" & ".join(f"G F p{i}" for i in range(n))) == size, n
    for n in range(3, 9):
        text = " & ".join(f"G F p{i}" for i in range(n))
        assert _nba_size(text) == (n + 2, (n + 2) * 2**n, 1), n
    assert _nba_size("p U (q & G r)") == (2, 3, 1)
    assert _nba_size("(p U q) U r") == (4, 10, 1)
    assert _nba_size("F G p & G F q & G (!q | X !r)") == (6, 27, 1)


def test_nba_edges_are_literal_constraints():
    nba = ltl_to_nba(parse_formula("p & q & r"))
    edges = [e for state in nba.states for e in nba.transitions[state]]
    # one edge per cover, not one per letter over the free propositions
    # states are ints in construction order: 0 is the initial state and
    # 1 the one with nothing left to do
    assert nba.states == (0, 1) and nba.initial == (0,)
    assert edges == [
        ((frozenset("pqr"), E), 1),
        ((E, E), 1),
    ]


def test_nba_agrees_with_check_trace_bulk():
    rng = random.Random(7)
    for _ in range(60):
        f = random_formula(rng, depth=3, pool=("p", "q"))
        nba = ltl_to_nba(f)
        for _ in range(5):
            # r is never named by f: edges leave it free
            t = random_trace(rng, pool=("p", "q", "r"), max_prefix=2, max_loop=3)
            assert nba_accepts(nba, t) == check_trace(t, f), (f, t)


def test_nba_agrees_with_oracle_trace_bulk():
    # check_trace shares node_values with the engines; the recursive
    # unrolling oracle shares nothing with the tableau
    rng = random.Random(20261019)
    sat_count = 0
    for _ in range(300):
        f = random_formula(rng, depth=4)
        nba = ltl_to_nba(f)
        for _ in range(5):
            t = random_trace(rng, max_prefix=3, max_loop=4)
            assert nba_accepts(nba, t) == oracle_trace(t, f), (f, t)
        w = classical_sat(f)
        if w is not None:
            sat_count += 1
            assert oracle_trace(w, f), (f, w)
    assert sat_count > 100


# prints each formula's whole automaton (its int states, accepting
# states and edges in order) and its tsat witness
_CANONICAL_NBA = """
import sys
from teamltl.classical import ltl_to_nba, tsat
from teamltl.formula import parse_formula
from teamltl.traces import serialize_trace

for text in sys.argv[1:]:
    f = parse_formula(text)
    nba = ltl_to_nba(f)
    print(nba.states, nba.initial, sorted(nba.accepting))
    for s in nba.states:
        print([(sorted(pos), sorted(neg), t) for (pos, neg), t in nba.transitions[s]])
    print(serialize_trace(tsat(f, "sync")))
"""


def test_nba_and_tsat_independent_of_hash_seed():
    # formulas in the style of Etessami and Holzmann's benchmark set
    texts = [
        "p U (q & G r)",
        "G (!p | F q)",
        "(G F p) | (F G q)",
        "G (!p | X (q R r))",
        "F G p & G F q & G (!q | X !r)",
        "(p U q) U r",
        "G F p & G F q & G F r & F s",
        " & ".join(f"G F p{i}" for i in range(6)),
        "G (p U q) & G F r",
    ]
    outs = []
    for seed in ("0", "1"):
        env = {
            **os.environ,
            "PYTHONHASHSEED": seed,
            "PYTHONPATH": str(Path(teamltl.__file__).parents[1]),
        }
        done = subprocess.run(
            [sys.executable, "-c", _CANONICAL_NBA, *texts],
            env=env, capture_output=True, text=True, check=True, timeout=120,
        )
        outs.append(done.stdout)
    assert outs[0] and outs[0] == outs[1]


# ---------------------------------------------------------------------------
# satisfiability


def test_classical_sat_pinned():
    assert classical_sat(parse_formula("p & !p")) is None
    w = classical_sat(parse_formula("F p & G !q"))
    assert w is not None and check_trace(w, parse_formula("F p & G !q"))
    w = classical_sat(parse_formula("X X p"))
    assert w is not None and "p" in value_at(w, 2)


def test_classical_sat_witnesses_validate_bulk():
    rng = random.Random(11)
    sat_count = 0
    for _ in range(120):
        f = random_formula(rng, depth=3)
        w = classical_sat(f)
        if w is not None:
            sat_count += 1
            assert check_trace(w, f)
        else:
            # unsatisfiable: the dual must hold on arbitrary traces
            t = random_trace(rng)
            assert check_trace(t, dualize(f))
    assert sat_count > 20


def test_tsat_substitutes_team_atoms():
    f = parse_formula("dep(i;o) & F p")
    w = tsat(f, "sync")
    assert w is not None
    assert check_sync(Team([w]), f)
    assert tsat(parse_formula("p & !p"), "sync") is None
    assert tsat(parse_formula("F p"), "sync") == tsat(parse_formula("F p"), "async")


def test_tsat_gen_atoms_and_errors():
    reg = AtomRegistry([constancy_atom_def()])
    w = tsat(parse_formula("@constant(p) & F q"), "sync", atoms=reg)
    assert w is not None

    picky = GenAtomDef(
        name="nonempty", arity=0, predicate=lambda letters, args: bool(letters),
        downward_closed=False, singleton_trivial=False,
    )
    reg2 = AtomRegistry([picky])
    with pytest.raises(UnsupportedFragment):
        tsat(parse_formula("@nonempty()"), "sync", atoms=reg2)
    with pytest.raises(UnsupportedFragment):
        tsat(parse_formula("~p"), "sync")
    with pytest.raises(ValueError):
        tsat(parse_formula("p"), "both")


# ---------------------------------------------------------------------------
# model checking


ALL_P_CYCLE = """
world a { p }
world b { p }
edge a b
edge b a
init a
"""

BRANCHING = """
world r { }
world a { p }
world b { }
edge r a
edge r b
edge a a
edge b b
init r
"""


def test_classical_mc_pinned():
    holds, cex = classical_mc(parse_kripke(ALL_P_CYCLE), parse_formula("G p"))
    assert holds and cex is None

    holds, cex = classical_mc(parse_kripke(BRANCHING), parse_formula("X p"))
    assert not holds
    assert cex is not None
    trace = cex.as_trace()
    assert not check_trace(trace, parse_formula("X p"))
    assert value_at(trace, 1) == frozenset()


def test_classical_mc_counterexample_is_a_trace_of_k():
    k = parse_kripke(BRANCHING)
    holds, cex = classical_mc(k, parse_formula("F p"))
    assert not holds
    # the violating lasso must follow k's labels from the initial world
    trace = cex.as_trace()
    assert value_at(trace, 0) == k.labels["r"]


def test_classical_mc_agrees_with_trace_enumeration():
    from teamltl.kripke import traces_team_finite

    rng = random.Random(23)
    checked = 0
    for _ in range(80):
        k = _random_kripke(rng)
        team = traces_team_finite(k)
        if team is None:
            continue
        f = random_formula(rng, depth=2, pool=("p", "q"))
        holds, cex = classical_mc(k, f)
        expected = all(check_trace(t, f) for t in team)
        assert holds == expected, (k, f)
        if not holds:
            assert not check_trace(cex.as_trace(), f)
        checked += 1
    assert checked > 15


def _is_run_of(k, w):
    """Whether some path of k from its initial world reads the lasso w.

    Nodes pair a world with a position of w's stem and cycle whose letter
    is the world's label; w is read iff the initial node survives the
    repeated removal of nodes without a successor.
    """
    word = w.stem + w.cycle
    succ = list(range(1, len(word))) + [len(w.stem)]
    nodes = {
        (v, j) for v in k.worlds for j in range(len(word)) if k.labels[v] == word[j]
    }
    while True:
        alive = {
            (v, j) for (v, j) in nodes
            if any((u, succ[j]) in nodes for u in k.edges[v])
        }
        if alive == nodes:
            return (k.init, 0) in nodes
        nodes = alive


def test_classical_mc_counterexamples_are_violating_runs():
    # branching is common here, so many of these structures have
    # infinitely many traces and no finite team to enumerate
    rng = random.Random(31)
    found = 0
    for _ in range(150):
        k = random_kripke(rng, max_worlds=5, branch_prob=0.5)
        f = random_formula(rng, depth=3, pool=("p", "q"))
        holds, cex = classical_mc(k, f)
        if holds:
            assert cex is None
            continue
        found += 1
        assert _is_run_of(k, cex), (k, f, cex)
        assert not oracle_trace(cex.as_trace(), f), (k, f, cex)
    assert found > 50


def _random_kripke(rng, max_worlds=5, pool=("p", "q")):
    from teamltl.kripke import KripkeStructure, validate_kripke

    n = rng.randint(1, max_worlds)
    names = [f"w{i}" for i in range(n)]
    labels = {
        w: frozenset(p for p in pool if rng.random() < 0.5) for w in names
    }
    edges = {}
    for w in names:
        count = rng.randint(1, 2)
        edges[w] = tuple(rng.choice(names) for _ in range(count))
    k = KripkeStructure(tuple(names), labels, edges, names[0])
    validate_kripke(k)
    return k
