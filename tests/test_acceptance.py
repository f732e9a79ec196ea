"""End-to-end acceptance suite.

Each test exercises one acceptance criterion and prints a single verdict
line (PASS/FAIL with elapsed time against the stated budget) so the
whole gate can be read off a plain pytest run.  The checks are
deliberately redundant with the unit suite: they re-derive every verdict
through independent oracles (brute-force QBF evaluation, per-trace
classical checking, subset enumeration) rather than trusting any single
engine.
"""

from __future__ import annotations

import itertools
import random
import time

import pytest

from teamltl.classical import check_trace, classical_sat, tsat
from teamltl.cli import main as cli_main
from teamltl.formula import (
    And,
    ContradictoryNeg,
    DepAtom,
    Eventually,
    NegativeLiteral,
    Next,
    PositiveLiteral,
    Split,
    formula_length,
    parse_formula,
    render_formula,
)
from teamltl.hyper import (
    check_hyper,
    forall_hyper_to_ltl,
    ltl_to_forall_hyper,
    parse_hyper,
)
from teamltl.kripke import traces_team_finite
from teamltl.modelcheck import tmc_sync_splitfree
from teamltl.reductions import (
    pl_team_brute_force,
    qbf_brute_force,
    reduce_pldep_val_to_tmc,
    reduce_plneg_sat_to_tmc,
    reduce_qbf_async_dep,
    reduce_qbf_sync,
)
from teamltl.teamcheck import SplitMode, check_async, check_sync
from teamltl.traces import Team, UPTrace, lcm, parse_team, prfx, serialize_trace, team_suffix

from .util import (
    exhaustive_qbf,
    oracle_trace,
    random_formula,
    random_kripke,
    random_qbf,
    random_splitfree_formula,
    random_team,
    random_trace,
    sync_model_oracle,
)


def _conclude(capsys, label: str, budget: float, start: float, ok: bool, detail: str = "") -> None:
    """Print the criterion verdict line, then enforce it."""
    elapsed = time.perf_counter() - start
    status = "PASS" if (ok and elapsed < budget) else "FAIL"
    line = f"criterion {label}: {status} ({elapsed:.1f}s / budget {budget:.0f}s)"
    if detail:
        line += f" [{detail}]"
    with capsys.disabled():
        print("\n" + line)
    assert ok, detail or label
    assert elapsed < budget, f"{label}: {elapsed:.1f}s exceeded budget {budget:.0f}s"


# ---------------------------------------------------------------------------
# criterion 1: the fixed two-trace team that separates the two semantics

EXAMPLE_TEAM_TEXT = "{p} ; {}\n{} {p} ; {}\n"


def test_criterion_01_fixed_team_verdicts(capsys):
    start = time.perf_counter()
    team = parse_team(EXAMPLE_TEAM_TEXT)
    fp = parse_formula("F p")
    fpfp = parse_formula("F p | F p")
    ok = (
        check_async(team, fp) is True
        and check_sync(team, fp) is False
        and check_sync(team, fpfp) is True
        and check_async(team, fpfp) is True
    )
    _conclude(capsys, "1 fixed two-trace team verdicts", 1.0, start, ok)


# ---------------------------------------------------------------------------
# criteria 2 and 3 share one randomized corpus

_CORPUS_SEED = 20240 + 99


def _structural_corpus(count: int = 500):
    """(team, pure-LTL formula) pairs: teams of at most 4 traces with short
    prefixes and loops, formulas with at most 6 connectives."""
    rng = random.Random(_CORPUS_SEED)
    out = []
    for _ in range(count):
        while True:
            f = random_formula(rng, rng.randint(1, 4))
            if formula_length(f) <= 6:
                break
        team = random_team(rng, max_size=4, max_prefix=2, max_loop=3)
        out.append((team, f))
    return out


def _subset_verdicts(team: Team, f, checker) -> dict[frozenset, bool]:
    members = sorted(team, key=repr)
    verdicts = {}
    for r in range(len(members) + 1):
        for sub in itertools.combinations(members, r):
            verdicts[frozenset(sub)] = checker(Team(sub), f)
    return verdicts


def test_criterion_02_structural_properties(capsys):
    start = time.perf_counter()
    budget = 120.0
    violations = []
    corpus = _structural_corpus()
    for team, f in corpus:
        v_sync = _subset_verdicts(team, f, check_sync)
        v_async = _subset_verdicts(team, f, check_async)
        for verdicts, name in ((v_sync, "sync"), (v_async, "async")):
            # empty team satisfies every splitjunction-negation-free formula
            if not verdicts[frozenset()]:
                violations.append(f"{name} empty team: {render_formula(f)}")
            # downward closure over the full subset lattice
            for s1, val1 in verdicts.items():
                if not val1:
                    continue
                for s2 in verdicts:
                    if s2 <= s1 and not verdicts[s2]:
                        violations.append(f"{name} downward closure: {render_formula(f)}")
        # flatness of the asynchronous semantics
        for sub, val in v_async.items():
            if val != all(check_trace(t, f) for t in sub):
                violations.append(f"async flatness: {render_formula(f)}")
        # union closure of the asynchronous semantics
        subsets = list(v_async)
        for s1 in subsets:
            for s2 in subsets:
                if v_async[s1 | s2] != (v_async[s1] and v_async[s2]):
                    violations.append(f"async union closure: {render_formula(f)}")
        # singleton equivalence with classical trace checking
        for t in team:
            single = frozenset((t,))
            classical = check_trace(t, f)
            if v_sync[single] != classical or v_async[single] != classical:
                violations.append(f"singleton equivalence: {render_formula(f)}")
    # the synchronous semantics is *not* union closed: fixed counterexample
    t1 = parse_team("{p} ; {}")
    t2 = parse_team("{} {p} ; {}")
    union = parse_team(EXAMPLE_TEAM_TEXT)
    fp = parse_formula("F p")
    if not (check_sync(t1, fp) and check_sync(t2, fp) and not check_sync(union, fp)):
        violations.append("sync union-closure counterexample not reproduced")
    ok = not violations
    detail = f"{len(corpus)} instances" if ok else violations[0]
    _conclude(capsys, "2 structural properties on random corpora", budget, start, ok, detail)


def test_criterion_03_sync_implies_async(capsys):
    start = time.perf_counter()
    violations = 0
    corpus = _structural_corpus()
    for team, f in corpus:
        v_sync = _subset_verdicts(team, f, check_sync)
        v_async = _subset_verdicts(team, f, check_async)
        for sub, val in v_sync.items():
            if val and not v_async[sub]:
                violations += 1
    _conclude(
        capsys,
        "3 sync implies async on pure LTL",
        60.0,
        start,
        violations == 0,
        f"{len(corpus)} instances, all subsets",
    )


# ---------------------------------------------------------------------------
# criteria 4 and 5: QBF reduction differentials against brute force

_QBF_EXHAUSTIVE_COUNT = 8868  # all covered prenex-3CNF instances, n <= 3, m <= 2


def _qbf_families():
    exhaustive = list(exhaustive_qbf(3, 2))
    assert len(exhaustive) == _QBF_EXHAUSTIVE_COUNT
    rng = random.Random(424242)
    randoms = [random_qbf(rng, n_max=6, m_max=8) for _ in range(200)]
    return exhaustive, randoms


def test_criterion_04_sync_qbf_reduction_differential(capsys):
    start = time.perf_counter()
    exhaustive, randoms = _qbf_families()
    mismatches = 0
    for q in exhaustive + randoms:
        team, g = reduce_qbf_sync(q)
        if check_sync(team, g) != qbf_brute_force(q):
            mismatches += 1
    _conclude(
        capsys,
        "4 sync QBF reduction differential",
        300.0,
        start,
        mismatches == 0,
        f"{len(exhaustive)} exhaustive + {len(randoms)} random instances",
    )


def test_criterion_05_async_qbf_reduction_differential(capsys):
    start = time.perf_counter()
    exhaustive, randoms = _qbf_families()
    mismatches = 0
    for q in exhaustive + randoms:
        team, g = reduce_qbf_async_dep(q)
        if check_async(team, g) != qbf_brute_force(q):
            mismatches += 1
    _conclude(
        capsys,
        "5 async QBF reduction differential",
        300.0,
        start,
        mismatches == 0,
        f"{len(exhaustive)} exhaustive + {len(randoms)} random instances",
    )


# ---------------------------------------------------------------------------
# criterion 6: model-checking engines on finite-team structures


def test_criterion_06_finite_team_model_checking(capsys):
    start = time.perf_counter()
    rng = random.Random(606060)
    violations = []
    accepted = 0
    while accepted < 200:
        k = random_kripke(rng, max_worlds=8)
        team = traces_team_finite(k)
        if team is None:
            continue
        accepted += 1
        # materialized engine against direct team checking (with ~ allowed)
        f = random_splitfree_formula(rng, rng.randint(1, 3), pool=("p", "q"), allow_neg=True)
        if tmc_sync_splitfree(k, f) != check_sync(team, f):
            violations.append(f"materialized vs direct: {render_formula(f)}")
        # materialized engine against the successor-set oracle (~-free)
        g = random_splitfree_formula(rng, rng.randint(1, 3), pool=("p", "q"), allow_neg=False)
        if tmc_sync_splitfree(k, g) != sync_model_oracle(k, g):
            violations.append(f"materialized vs oracle: {render_formula(g)}")
    ok = not violations
    detail = f"{accepted} structures" if ok else violations[0]
    _conclude(capsys, "6 finite-team model checking engines", 180.0, start, ok, detail)


# ---------------------------------------------------------------------------
# criterion 7: suffix shifts are periodic beyond the longest prefix


def test_criterion_07_suffix_shift_periodicity(capsys):
    start = time.perf_counter()
    rng = random.Random(707070)
    violations = 0
    for _ in range(300):
        team = random_team(rng, max_size=4)
        f = random_formula(rng, rng.randint(1, 3))
        p, period = prfx(team), lcm(team)
        for i in (p, p + 1, p + rng.randint(0, 2 * period)):
            left = team_suffix(team, i)
            right = team_suffix(team, i + period)
            if left != right:
                violations += 1
            if check_sync(left, f) != check_sync(right, f):
                violations += 1
    _conclude(
        capsys,
        "7 suffix-shift periodicity",
        60.0,
        start,
        violations == 0,
        "300 teams, three shifts each",
    )


# ---------------------------------------------------------------------------
# criterion 8: hyper translation agrees with the asynchronous semantics


def test_criterion_08_hyper_translation_equivalence(capsys):
    start = time.perf_counter()
    rng = random.Random(808080)
    violations = []
    for _ in range(500):
        team = random_team(rng, max_size=4)
        f = random_formula(rng, rng.randint(1, 3))
        sentence = ltl_to_forall_hyper(f)
        verdict = check_hyper(team, sentence)
        if verdict != check_async(team, f):
            violations.append(f"translation: {render_formula(f)}")
        # check_hyper and check_async share classical.node_values, so the
        # per-trace unrolling oracle is the independent reference
        if verdict != all(oracle_trace(t, f) for t in team):
            violations.append(f"translation vs per-trace oracle: {render_formula(f)}")
        back = forall_hyper_to_ltl(sentence)
        if back != f or check_async(team, back) != check_async(team, f):
            violations.append(f"round trip: {render_formula(f)}")
    # an existential sentence separates hyper sentences from team formulas:
    # satisfied by a team, violated by its subteam (no downward closure)
    empty_trace = UPTrace((), (frozenset(),))
    p_trace = UPTrace((frozenset({"p"}),), (frozenset(),))
    exists = parse_hyper("E pi. p@pi")
    if not check_hyper(Team((empty_trace, p_trace)), exists):
        violations.append("existential witness team")
    if check_hyper(Team((empty_trace,)), exists):
        violations.append("existential witness subteam")
    ok = not violations
    detail = "500 instances" if ok else violations[0]
    _conclude(capsys, "8 hyper translation equivalence", 120.0, start, ok, detail)


# ---------------------------------------------------------------------------
# criterion 9: every satisfiability witness re-checks through the CLI


def _cli_holds(formula_text: str, team_path, semantics: str, capsys) -> bool:
    code = cli_main(
        ["check-path", "--semantics", semantics, "--formula", formula_text, "--team", str(team_path)]
    )
    out = capsys.readouterr().out
    return code == 0 and out.startswith("HOLDS")


def test_criterion_09_witness_self_validation(capsys, tmp_path):
    start = time.perf_counter()
    rng = random.Random(909090)
    violations = []
    team_path = tmp_path / "witness_team.txt"
    witnesses = 0

    def recheck(formula, witness):
        nonlocal witnesses
        witnesses += 1
        team_path.write_text(serialize_trace(witness) + "\n")
        text = render_formula(formula)
        for semantics in ("sync", "async"):
            if not _cli_holds(text, team_path, semantics, capsys):
                violations.append(f"{semantics}: {text}")

    for i in range(200):
        f = random_formula(rng, rng.randint(1, 3))
        if i % 5 < 3:
            # pure LTL: engine-level and tableau-level witnesses
            w = classical_sat(f)
            if w is not None:
                recheck(f, w)
            for semantics in ("sync", "async"):
                w = tsat(f, semantics)
                if w is not None:
                    recheck(f, w)
        else:
            # formulas with a dependence atom mixed in
            dets = tuple(rng.sample(("p", "q", "r"), rng.randint(0, 2)))
            dep = DepAtom(dets, (rng.choice(("p", "q", "r")),))
            g = rng.choice((And(f, dep), And(dep, f), Split(f, dep), And(Next(dep), f)))
            for semantics in ("sync", "async"):
                w = tsat(g, semantics)
                if w is not None:
                    recheck(g, w)
    ok = not violations and witnesses >= 100
    detail = f"200 formulas, {witnesses} witnesses re-checked" if ok else (violations or ["too few witnesses"])[0]
    _conclude(capsys, "9 witness self-validation via CLI", 120.0, start, ok, detail)


# ---------------------------------------------------------------------------
# criterion 10: split-mode agreement on downward-closed inputs, divergence with ~


def test_criterion_10_split_mode_semantics(capsys):
    start = time.perf_counter()
    rng = random.Random(101010)
    violations = []
    # downward-closed formulas: pure LTL plus dependence-atom conjuncts
    for i in range(300):
        f = random_formula(rng, rng.randint(1, 3))
        if i % 3 == 0:
            dets = tuple(rng.sample(("p", "q"), rng.randint(0, 1)))
            f = And(f, DepAtom(dets, (rng.choice(("p", "q")),)))
        team = random_team(rng, max_size=3)
        members = sorted(team, key=repr)
        for r in range(len(members) + 1):
            for sub in itertools.combinations(members, r):
                st = Team(sub)
                disjoint = check_sync(st, f, split_mode=SplitMode.DISJOINT_ONLY)
                covers = check_sync(st, f, split_mode=SplitMode.ALL_COVERS)
                if disjoint != covers:
                    violations.append(f"split-mode divergence: {render_formula(f)}")
    # forced disagreement outside the downward-closed fragment
    singleton = Team((random_trace(random.Random(7)),))
    diverging = parse_formula("~(p & !p) | ~(p & !p)")
    if check_sync(singleton, diverging, split_mode=SplitMode.ALL_COVERS) is not True:
        violations.append("covers mode on the diverging formula")
    if check_sync(singleton, diverging, split_mode=SplitMode.DISJOINT_ONLY) is not False:
        violations.append("disjoint mode on the diverging formula")
    ok = not violations
    detail = "300 instances, all subsets" if ok else violations[0]
    _conclude(capsys, "10 split-mode agreement and divergence", 60.0, start, ok, detail)


# ---------------------------------------------------------------------------
# criterion 11: temporal-free pipelines, exhaustive by connective count
#
# The stated space - every temporal-free formula over two variables with
# up to five connectives - contains about 8.2e6 formulas in the
# ~-fragment and about 4.2e9 in the dependence fragment (binary
# connectives square the tier sizes), far beyond what the budget can
# enumerate, let alone check.  The test is faithful to the stated bound:
# it enumerates the space in order of connective count under the stated
# budget and reports exactly how far the differential got.  It passes
# only if the whole space is exhausted; shallow tiers (which are
# structurally complete slices) must finish, or something has regressed.

_SAT_LEAVES = (
    PositiveLiteral("x"),
    NegativeLiteral("x"),
    PositiveLiteral("y"),
    NegativeLiteral("y"),
)
_DEP_LEAVES = tuple(
    DepAtom(dets, det)
    for dets in ((), ("x",), ("y",), ("x", "y"))
    for det in (("x",), ("y",), ("x", "y"))
)


def _tier_enumerator(leaves, with_tilde: bool, materialize_max: int):
    """formulas(k) yields every formula with exactly k connectives.

    Tiers up to `materialize_max` are materialized once and reused;
    deeper tiers are regenerated lazily (the deadline stops the walk long
    before regeneration cost matters).
    """
    memo = [list(leaves)]

    def materialized(k: int):
        while len(memo) <= k:
            kk = len(memo)
            tier = []
            if with_tilde:
                tier.extend(ContradictoryNeg(f) for f in memo[kk - 1])
            for i in range(kk):
                for a in memo[i]:
                    for b in memo[kk - 1 - i]:
                        tier.append(And(a, b))
                        tier.append(Split(a, b))
            memo.append(tier)
        return memo[k]

    def formulas(k: int):
        if k <= materialize_max:
            yield from materialized(k)
            return
        if with_tilde:
            for f in formulas(k - 1):
                yield ContradictoryNeg(f)
        for i in range(k):
            for a in formulas(i):
                for b in formulas(k - 1 - i):
                    yield And(a, b)
                    yield Split(a, b)

    return formulas


def _sat_pipeline_agrees(phi) -> bool:
    k, g = reduce_plneg_sat_to_tmc(phi)
    return check_sync(traces_team_finite(k), g) == pl_team_brute_force(phi, "sat")


def _val_pipeline_agrees(phi) -> bool:
    k, g = reduce_pldep_val_to_tmc(phi)
    return check_sync(traces_team_finite(k), g) == pl_team_brute_force(phi, "val")


def test_criterion_11_temporal_free_pipelines_exhaustive(capsys):
    start = time.perf_counter()
    budget = 300.0
    deadline = start + budget - 10.0
    sat_tiers = _tier_enumerator(_SAT_LEAVES, with_tilde=True, materialize_max=3)
    val_tiers = _tier_enumerator(_SAT_LEAVES + _DEP_LEAVES, with_tilde=False, materialize_max=2)
    # shallow complete tiers first, then deeper tiers interleaved
    schedule = (
        [("sat", sat_tiers, _sat_pipeline_agrees, k) for k in range(4)]
        + [("val", val_tiers, _val_pipeline_agrees, k) for k in range(3)]
        + [
            ("sat", sat_tiers, _sat_pipeline_agrees, 4),
            ("val", val_tiers, _val_pipeline_agrees, 3),
            ("sat", sat_tiers, _sat_pipeline_agrees, 5),
            ("val", val_tiers, _val_pipeline_agrees, 4),
            ("val", val_tiers, _val_pipeline_agrees, 5),
        ]
    )
    mismatches: list[str] = []
    checked = 0
    complete = {"sat": -1, "val": -1}
    partial = ""
    exhausted = True
    for name, tiers, agrees, k in schedule:
        in_tier = 0
        timed_out = False
        for phi in tiers(k):
            if checked % 512 == 0 and time.perf_counter() > deadline:
                timed_out = True
                break
            if not agrees(phi):
                mismatches.append(render_formula(phi))
            checked += 1
            in_tier += 1
            if len(mismatches) >= 5:
                break
        if mismatches:
            break
        if timed_out:
            exhausted = False
            partial = f", {name} tier {k} stopped after {in_tier} formulas"
            break
        complete[name] = k
    assert not mismatches, f"pipeline disagrees with brute force on: {mismatches}"
    # the structurally complete shallow slices must always finish
    assert complete["sat"] >= 3 and complete["val"] >= 2, complete
    detail = (
        f"{checked} differential checks, zero mismatches; "
        f"~-fragment exhaustive through {complete['sat']} connectives, "
        f"dependence fragment through {complete['val']}{partial}; "
        f"the full 5-connective space (~4.2e9 formulas) is not enumerable in budget"
    )
    _conclude(capsys, "11 temporal-free pipelines exhaustive to 5 connectives", budget, start, exhausted, detail)
