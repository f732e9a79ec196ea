"""Reductions: QBF encodings, propositional pipelines, and their oracles."""

from __future__ import annotations

import random
from functools import reduce

import pytest

from teamltl.errors import (
    BoundExceeded,
    MalformedStructure,
    NameCollision,
    NonPropositional,
    ParseError,
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
    PositiveLiteral,
    Split,
    parse_formula,
)
from teamltl.kripke import traces_team_finite, validate_kripke
from teamltl.reductions import (
    QBF_VAR_CAP,
    QBFInstance,
    parse_qbf,
    pl_team_brute_force,
    qbf_brute_force,
    reduce_plneg_sat_to_tmc,
    reduce_pldep_val_to_tmc,
    reduce_qbf_async_dep,
    reduce_qbf_sync,
)
from teamltl.teamcheck import check_async, check_sync
from teamltl.traces import Team, UPTrace

from .util import exhaustive_qbf, random_qbf

P, N = PositiveLiteral, NegativeLiteral


def fs(*names: str) -> frozenset:
    return frozenset(names)


def qbf_text(q: QBFInstance) -> str:
    lines = ["prefix: " + " ".join(f"{quant} {var}" for quant, var in q.prefix)]
    for clause in q.clauses:
        lines.append(
            "clause: " + " ".join(("" if pos else "-") + var for var, pos in clause)
        )
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# parsing


def test_parse_qbf_pinned():
    q = parse_qbf(
        """
        # a comment
        prefix: E x A y
        clause: x -y y

        clause: -x -x y
        """
    )
    assert q.prefix == (("E", "x"), ("A", "y"))
    assert q.clauses == (
        (("x", True), ("y", False), ("y", True)),
        (("x", False), ("x", False), ("y", True)),
    )
    assert q.variables == ("x", "y")


@pytest.mark.parametrize(
    "text",
    [
        "prefix: Q x\nclause: x x x",  # bad quantifier
        "prefix: E x E\nclause: x x x",  # dangling quantifier
        "prefix: E x\nclause: x x",  # two literals
        "prefix: E x\nclause: x x x x",  # four literals
        "prefix: E x\nclause: x - x",  # empty literal
        "prefix: E x\nprefix: E y\nclause: x x x",  # duplicate prefix line
        "clause: x x x",  # missing prefix
        "prefix: E x\nwhatever",  # stray line
        "prefix:\nclause: x x x",  # empty prefix
    ],
)
def test_parse_qbf_syntax_errors(text):
    with pytest.raises(ParseError):
        parse_qbf(text)


@pytest.mark.parametrize(
    "text",
    [
        "prefix: E x A x\nclause: x x x",  # duplicate prefix variable
        "prefix: E x\nclause: x x y",  # clause variable not declared
        "prefix: E x A y\nclause: x x x",  # declared variable unused
    ],
)
def test_parse_qbf_structure_errors(text):
    with pytest.raises(MalformedStructure):
        parse_qbf(text)


def test_parse_qbf_roundtrip_seeded():
    rng = random.Random(11)
    for _ in range(25):
        q = random_qbf(rng, n_max=5, m_max=5)
        assert parse_qbf(qbf_text(q)) == q


# ---------------------------------------------------------------------------
# brute-force oracle


@pytest.mark.parametrize(
    "text, want",
    [
        ("prefix: E x\nclause: x x x", True),
        ("prefix: A x\nclause: x x x", False),
        ("prefix: A x\nclause: x -x x", True),
        ("prefix: A x E y\nclause: x y y\nclause: -x -y -y", True),
        ("prefix: E y A x\nclause: x y y\nclause: -x -y -y", False),
        ("prefix: A x A y\nclause: x y y", False),
        ("prefix: E x E y E z\nclause: x y z\nclause: -x -y -z", True),
    ],
)
def test_qbf_brute_force_pinned(text, want):
    assert qbf_brute_force(parse_qbf(text)) is want


def test_qbf_brute_force_cap():
    n = QBF_VAR_CAP + 1
    q = QBFInstance(
        prefix=tuple(("E", f"v{i}") for i in range(n)),
        clauses=tuple(
            ((f"v{i}", True), (f"v{i}", True), (f"v{i}", True)) for i in range(n)
        ),
    )
    with pytest.raises(BoundExceeded):
        qbf_brute_force(q)


# ---------------------------------------------------------------------------
# synchronous encoding


def test_reduce_qbf_sync_gadget_shape():
    q = parse_qbf("prefix: E x\nclause: x x x")
    team, _ = reduce_qbf_sync(q)
    assert len(team) == 5  # 3 clause + 2 variable traces, no universal trace
    assert UPTrace((), (fs(), fs("x", "q1", "sep"), fs("sep", "end"))) in team
    assert UPTrace((), (fs(), fs("sep"), fs("x", "q1", "sep", "end"))) in team
    # the literal-1 clause trace carries c1 exactly off its own offset
    assert UPTrace((), (fs(), fs("x", "sep", "c1"), fs("sep", "end", "c1"))) in team


def test_reduce_qbf_sync_team_count():
    rng = random.Random(5)
    for _ in range(15):
        q = random_qbf(rng, n_max=5, m_max=5)
        team, _ = reduce_qbf_sync(q)
        universals = sum(1 for quant, _ in q.prefix if quant == "A")
        assert len(team) == 3 * len(q.clauses) + 2 * len(q.prefix) + universals


def test_reduce_qbf_sync_name_collision():
    q = QBFInstance(
        prefix=(("E", "sep"),),
        clauses=((("sep", True), ("sep", True), ("sep", True)),),
    )
    with pytest.raises(NameCollision):
        reduce_qbf_sync(q)


def test_reduce_qbf_sync_exhaustive_tiny():
    for q in exhaustive_qbf(2, 1):
        team, g = reduce_qbf_sync(q)
        assert check_sync(team, g) == qbf_brute_force(q), qbf_text(q)


def test_reduce_qbf_sync_random_differential():
    rng = random.Random(17)
    for _ in range(40):
        q = random_qbf(rng, n_max=4, m_max=4)
        team, g = reduce_qbf_sync(q)
        assert check_sync(team, g) == qbf_brute_force(q), qbf_text(q)


# ---------------------------------------------------------------------------
# asynchronous encoding


def test_reduce_qbf_async_gadget_shape():
    q = parse_qbf("prefix: E x A y\nclause: x -y y")
    team, _ = reduce_qbf_async_dep(q)
    assert len(team) == 5  # 2n + 1

    # assignment traces: constant for "true", 2-periodic for "false";
    # m-markers sit on the trace whose survival falsifies the literal.
    assert UPTrace((), (fs("p1", "q1", "r1", "s1", "sel1", "s2"),)) in team
    assert (
        UPTrace(
            (),
            (
                fs("q1", "r1", "p1_bar", "sel1", "s2", "m1k1"),
                fs("q1", "s1", "p1_bar", "sel1", "s2", "m1k1"),
            ),
        )
        in team
    )
    assert UPTrace((), (fs("p2", "q2", "r2", "s2", "sel1", "s1", "m1k2"),)) in team
    assert (
        UPTrace(
            (),
            (
                fs("q2", "r2", "p2_bar", "sel1", "s1", "m1k3"),
                fs("q2", "s2", "p2_bar", "sel1", "s1", "m1k3"),
            ),
        )
        in team
    )
    # probe trace: one letter per (clause, literal) position
    assert (
        UPTrace(
            (),
            (
                fs("sel1", "m1k1", "z1k1", "s1", "s2"),
                fs("sel1", "m1k2", "z1k2", "s1", "s2"),
                fs("sel1", "m1k3", "z1k3", "s1", "s2"),
            ),
        )
        in team
    )


def test_reduce_qbf_async_team_count():
    rng = random.Random(6)
    for _ in range(15):
        q = random_qbf(rng, n_max=5, m_max=5)
        team, _ = reduce_qbf_async_dep(q)
        assert len(team) == 2 * len(q.prefix) + 1


def test_reduce_qbf_async_exhaustive_tiny():
    for q in exhaustive_qbf(2, 1):
        team, g = reduce_qbf_async_dep(q)
        assert check_async(team, g) == qbf_brute_force(q), qbf_text(q)


def test_reduce_qbf_async_random_differential():
    rng = random.Random(23)
    for _ in range(30):
        q = random_qbf(rng, n_max=4, m_max=4)
        team, g = reduce_qbf_async_dep(q)
        assert check_async(team, g) == qbf_brute_force(q), qbf_text(q)


@pytest.mark.parametrize(
    "text",
    [
        # repeated literals and repeated variables inside one clause
        "prefix: E x A y\nclause: x x y\nclause: -y -y -y",
        "prefix: A x\nclause: x -x x",
        "prefix: A x A y A z\nclause: x y z\nclause: -x -y -z\nclause: z z x",
        "prefix: E x E y\nclause: -x -x -x\nclause: y y x",
    ],
)
def test_reduce_qbf_async_edge_instances(text):
    q = parse_qbf(text)
    team, g = reduce_qbf_async_dep(q)
    assert check_async(team, g) == qbf_brute_force(q)


def _qbf_async_literal_split(
    q: QBFInstance, annotate_choice_props: bool = True
) -> tuple[Team, Formula]:
    """Variant asynchronous encoding whose matrix splits on literal props.

    Every trace for variable i carries, at every position, both assignment
    propositions of every other variable, so each clause's splitjunction of
    literal propositions can absorb every surviving trace somewhere.  That
    absorption is exactly what breaks the variant: a clause mentioning two
    distinct variables can never be falsified, because each misfit trace
    parks in a part owned by the other variable (pinned by a regression
    test on `prefix: A x A y / clause: x y y`).  With
    `annotate_choice_props` unset the traces also drop the foreign s_j
    markers, and then the universal split cannot place foreign traces at
    all, failing in the opposite direction.  Kept as the documented
    failure mode motivating the exclusion-atom matrix of
    reduce_qbf_async_dep.
    """
    n = len(q.prefix)
    traces = []
    for i in range(1, n + 1):
        ann: set[str] = set()
        for j in range(1, n + 1):
            if j != i:
                ann.add(f"p{j}")
                ann.add(f"p{j}_bar")
                if annotate_choice_props:
                    ann.add(f"s{j}")
        pi, qi, ri, si = f"p{i}", f"q{i}", f"r{i}", f"s{i}"
        traces.append(UPTrace((), (frozenset({pi, qi, ri, si} | ann),)))
        traces.append(
            UPTrace(
                (),
                (
                    frozenset({qi, ri, f"p{i}_bar"} | ann),
                    frozenset({qi, si, f"p{i}_bar"} | ann),
                ),
            )
        )

    position = {var: i for i, var in enumerate(q.variables, start=1)}
    clause_parts = []
    for clause in q.clauses:
        literals = [
            PositiveLiteral(f"p{position[var]}" if positive else f"p{position[var]}_bar")
            for var, positive in clause
        ]
        clause_parts.append(reduce(Split, literals))
    g = reduce(And, clause_parts)
    for quant, var in reversed(q.prefix):
        i = position[var]
        dep = DepAtom((), (f"p{i}",))
        if quant == "E":
            g = Split(And(PositiveLiteral(f"q{i}"), dep), g)
        else:
            keep = And(And(dep, PositiveLiteral(f"q{i}")), PositiveLiteral(f"r{i}"))
            g = Globally(Split(keep, And(PositiveLiteral(f"s{i}"), g)))
    return Team(traces), g


def test_literal_split_variant_is_unsound():
    """The documented failure mode of splitting the matrix on literal props.

    Annotating every trace with the other variables' assignment props lets
    each misfit trace park in a clause part owned by another variable, so
    a clause over two distinct variables is never falsified: the variant
    answers True where the oracle answers False.
    """
    q = parse_qbf("prefix: A x A y\nclause: x y y")
    assert qbf_brute_force(q) is False
    team, g = _qbf_async_literal_split(q)
    assert check_async(team, g) is True


def test_literal_split_variant_without_annotations_fails_conversely():
    """Dropping the foreign annotations over-constrains the universal split:
    traces of other variables can no longer be placed anywhere, so a true
    instance evaluates False."""
    q = parse_qbf("prefix: A x E y\nclause: x y y")
    assert qbf_brute_force(q) is True
    team, g = _qbf_async_literal_split(q, annotate_choice_props=False)
    assert check_async(team, g) is False


# ---------------------------------------------------------------------------
# propositional pipelines


def enum_pl_formulas(variables, depth, with_neg):
    """Nested ~/&/| formulas over literals (one-sided nesting per level)."""
    leaves = [P(v) for v in variables] + [N(v) for v in variables]
    if depth == 0:
        return leaves
    smaller = enum_pl_formulas(variables, depth - 1, with_neg)
    out = list(smaller)
    if with_neg:
        out += [ContradictoryNeg(f) for f in smaller]
    out += [c(l, r) for c in (And, Split) for l in leaves for r in smaller]
    return out


def enum_pl_dep_formulas(variables):
    leaves = [P(v) for v in variables] + [N(v) for v in variables]
    deps = [DepAtom((), (v,)) for v in variables]
    if len(variables) == 2:
        a, b = variables
        deps += [DepAtom((a,), (b,)), DepAtom((b,), (a,)), DepAtom((a, b), (a,))]
    pool = leaves + deps
    return pool + [c(l, r) for c in (And, Split) for l in pool for r in pool]


def test_pl_sat_pipeline_matches_brute_force():
    for variables in (("x",), ("x", "y")):
        for phi in enum_pl_formulas(variables, 2, with_neg=True):
            k, g = reduce_plneg_sat_to_tmc(phi)
            team = traces_team_finite(k)
            assert team is not None
            assert check_sync(team, g) == pl_team_brute_force(phi, "sat"), phi


def test_pl_val_pipeline_matches_brute_force():
    for variables in (("x",), ("x", "y")):
        for phi in enum_pl_dep_formulas(variables):
            k, g = reduce_pldep_val_to_tmc(phi)
            team = traces_team_finite(k)
            assert team is not None
            assert check_sync(team, g) == pl_team_brute_force(phi, "val"), phi


def test_pl_assignment_structure_shape():
    phi = And(P("x"), Split(N("y"), DepAtom((), ("x",))))
    k, _ = reduce_pldep_val_to_tmc(phi)
    validate_kripke(k)
    assert k.init == "root"
    assert set(k.worlds) == {"root", "a1", "b1", "a2", "b2"}
    assert k.labels["a1"] == fs("x") and k.labels["b1"] == fs("x_bar")
    assert k.labels["a2"] == fs("y") and k.labels["b2"] == fs("y_bar")
    team = traces_team_finite(k)
    assert team is not None and len(team) == 4  # one trace per assignment


def test_pl_pipelines_reject_temporal_input():
    with pytest.raises(NonPropositional):
        reduce_plneg_sat_to_tmc(Eventually(P("x")))
    with pytest.raises(NonPropositional):
        reduce_pldep_val_to_tmc(Eventually(P("x")))
    # the message names the operator in concrete syntax, also on a chain
    # too long for the recursive dataclass repr
    chain = parse_formula("X (" + " & ".join(f"p{i}" for i in range(1000)) + ")")
    with pytest.raises(NonPropositional, match=r"input: X \(p0 & p1 & "):
        reduce_plneg_sat_to_tmc(chain)


def test_pl_pipelines_reject_foreign_fragments():
    with pytest.raises(UnsupportedFragment):  # dep in the ~ pipeline
        reduce_plneg_sat_to_tmc(DepAtom((), ("x",)))
    with pytest.raises(UnsupportedFragment):  # ~ in the dep pipeline
        reduce_pldep_val_to_tmc(ContradictoryNeg(P("x")))
    with pytest.raises(UnsupportedFragment):  # generalised atoms in either
        reduce_plneg_sat_to_tmc(GenAtom("constant", ("x",)))
    with pytest.raises(UnsupportedFragment):
        reduce_pldep_val_to_tmc(GenAtom("constant", ("x",)))


def test_pl_pipelines_reject_bar_collision():
    phi = And(P("x"), P("x_bar"))
    with pytest.raises(NameCollision):
        reduce_plneg_sat_to_tmc(phi)


def test_pl_brute_force_guards():
    with pytest.raises(ValueError):
        pl_team_brute_force(P("x"), "verdict")
    wide = And(And(P("a"), P("b")), And(P("c"), P("d")))
    with pytest.raises(BoundExceeded):
        pl_team_brute_force(wide, "sat")
