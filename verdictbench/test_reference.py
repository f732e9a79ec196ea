"""Hand-computed cases for the reference evaluators, and a check that the
QBF corpora are drawn as the acceptance gate draws its instances.

    python3 -m pytest verdictbench -q
"""

import random
from pathlib import Path

import reference as ref
import workloads

E = frozenset()
P = frozenset({"p"})
Q = frozenset({"q"})
PQ = frozenset({"p", "q"})

p, q = ("ap", "p"), ("ap", "q")
not_p, not_q = ("nap", "p"), ("nap", "q")

# the README's team: {p} then {} forever, and {} {p} then {} forever
README_TEAM = [((P,), (E,)), ((E, P), (E,))]


def test_readme_team_separates_the_semantics():
    fp = ("F", p)
    assert ref.async_holds(fp, README_TEAM)
    assert not ref.sync_holds(fp, README_TEAM)
    assert ref.sync_holds(("or", fp, fp), README_TEAM)
    assert ref.sync_holds(fp, README_TEAM[:1]) and ref.sync_holds(fp, README_TEAM[1:])


def test_trace_operators_by_unrolling():
    assert ref.trace_holds(("U", p, q), ((P,), (Q,)))
    # p fails at position 1 before anything releases it
    assert not ref.trace_holds(("R", ("and", p, q), p), ((P,), (E,)))
    assert ref.trace_holds(("R", ("and", p, q), p), ((P, PQ), (E,)))
    alternating = ((), (P, E))
    assert ref.trace_holds(("G", ("F", p)), alternating)
    assert not ref.trace_holds(("F", ("G", p)), alternating)
    assert ref.trace_holds(("G", ("or", p, ("X", p))), alternating)
    assert ref.trace_values(("X", p), alternating) == [False, True]
    assert ref.trace_holds(("X", ("X", p)), ((E, E), (P,)))
    assert not ref.trace_holds(("X", p), ((E, E), (P,)))
    # an until whose witness lies a whole loop ahead
    assert ref.trace_holds(("U", not_q, q), ((), (E, E, E, Q)))
    assert not ref.trace_holds(("U", not_q, q), ((), (E, E, P, E)))


def test_sync_team_literals_need_every_member():
    team = [((), (P, Q)), ((), (PQ,))]
    assert ref.sync_holds(p, team)
    assert ref.sync_holds(("X", q), team)
    assert not ref.sync_holds(("X", p), team)
    assert ref.sync_holds(("G", ("F", p)), team)
    # at position 0 one member has q and the other lacks it
    assert not ref.sync_holds(q, team) and not ref.sync_holds(not_q, team)
    # loops of length 2 and 3 only realign after lcm 6
    team = [((), (P, E)), ((), (P, E, E))]
    assert ref.sync_holds(("X", ("X", ("X", ("X", ("X", ("X", p)))))), team)
    assert not ref.sync_holds(("X", ("X", p)), team)


def test_async_dependence_under_until_and_release():
    # first letters at shift vector (0, 0): {p q} and {p}, so q is not a
    # function of p; at (0, 1) both members read {p q}
    team = [((), (PQ,)), ((), (P, PQ))]
    dep = ("dep", ("p",), ("q",))
    assert not ref.async_holds(("G", dep), team)
    assert ref.async_holds(("F", dep), team)
    assert ref.async_holds(("U", ("F", q), dep), team)
    # !q fails at once on the first member, so its shift stays 0, but the
    # second member may still move: (0, 1) is allowed
    assert ref.async_holds(("U", not_q, dep), team)
    # p holds at once on both, so only (0, 0) is constrained
    assert not ref.async_holds(("R", p, dep), team)
    assert ref.async_holds(("R", p, ("or", dep, not_q)), team)
    assert ref.async_holds(("and", ("F", dep), ("R", p, ("or", dep, not_q))), team)


def test_qbf_truth():
    clauses = ((("x", True), ("y", True), ("y", True)),
               (("x", False), ("y", False), ("y", False)))
    assert ref.qbf_true((("A", "x"), ("E", "y")), clauses)  # y = not x
    assert not ref.qbf_true((("E", "x"), ("A", "y")), clauses)
    assert not ref.qbf_true((("A", "x"), ("A", "y")), clauses)


# init {} branching into a 1-cycle {p} and a 2-cycle {p q} -> {q}
KRIPKE = (
    {"i": E, "a": P, "b0": PQ, "b1": Q},
    {"i": ("a", "b0"), "a": ("a",), "b0": ("b1",), "b1": ("b0",)},
    "i",
)


def test_common_letter_trace_of_the_successor_sets():
    sets, stem = ref.subset_lasso(KRIPKE)
    assert sets == [{"i"}, {"a", "b0"}, {"a", "b1"}] and stem == 1
    assert ref.sync_model_holds(("X", p), KRIPKE)
    assert not ref.sync_model_holds(("G", p), KRIPKE)
    assert ref.sync_model_holds(("X", ("G", ("F", p))), KRIPKE)
    assert not ref.sync_model_holds(("F", ("G", p)), KRIPKE)
    # position 1 holds one world with q and one without: neither literal holds
    assert not ref.sync_model_holds(("X", q), KRIPKE)
    assert not ref.sync_model_holds(("X", not_q), KRIPKE)
    assert ref.sync_model_holds(not_p, KRIPKE)


def test_finite_traces_and_runs():
    assert sorted(ref.finite_traces(KRIPKE), key=repr) == sorted(
        [((E,), (P,)), ((E,), (PQ, Q))], key=repr)
    assert ref.is_run(KRIPKE, ((E,), (P,)))
    assert ref.is_run(KRIPKE, ((E, PQ, Q), (PQ, Q)))
    assert ref.is_run(KRIPKE, ((E,), (PQ, Q, PQ, Q)))
    assert not ref.is_run(KRIPKE, ((E,), (Q,)))
    assert not ref.is_run(KRIPKE, ((), (E,)))
    assert not ref.is_run(KRIPKE, ((E,), (PQ, PQ)))


def test_negation_is_the_dual():
    f = ("U", ("and", p, ("X", q)), ("G", ("or", not_p, ("F", q))))
    for lasso in (((P,), (Q,)), ((), (P, PQ, E)), ((PQ, E), (P,))):
        assert ref.trace_holds(f, lasso) != ref.trace_holds(ref.negate(f), lasso)


def test_gate_qbf_draws_the_gate_instances(monkeypatch):
    root = Path(__file__).resolve().parent.parent
    monkeypatch.syspath_prepend(str(root / "src"))
    monkeypatch.syspath_prepend(str(root))
    from tests.util import random_qbf

    gate, ours = random.Random(workloads.CORPUS_SEED), random.Random(workloads.CORPUS_SEED)
    for _ in range(200):
        q = random_qbf(gate, n_max=6, m_max=8)
        assert workloads.gate_qbf(ours) == (q.prefix, q.clauses)
