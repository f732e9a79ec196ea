"""Hardness reductions and the brute-force oracles used to validate them.

Four constructions:

* reduce_qbf_sync: prenex 3CNF QBF -> (team, formula) such that the team
  satisfies the formula under synchronous semantics iff the QBF is true.
  Pure LTL output (no atoms, no ~).

* reduce_qbf_async_dep: prenex 3CNF QBF -> (team, formula) for the
  asynchronous semantics, using dependence atoms and F/G but no U/X/~.

* reduce_plneg_sat_to_tmc: propositional formula with ~ -> (Kripke
  structure, formula) such that the structure's trace team satisfies the
  formula (synchronously) iff some non-empty team of assignments
  satisfies the propositional formula.

* reduce_pldep_val_to_tmc: propositional formula with dependence atoms
  -> (structure, formula) such that the trace team satisfies the output
  iff the team of all assignments satisfies the input.

The two propositional pipelines share one assignment-layer structure: a
root with empty label, then one layer per variable v (sorted order) with
two worlds labelled {v} and {v_bar}, consecutive layers fully connected,
and self-loops on the last layer.  Every trace picks one world per layer,
so the traces are exactly the assignments, readable at layer positions.

The brute-force oracles (qbf_brute_force, pl_team_brute_force) are
deliberately direct enumerations, independent of the team engines.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import reduce

from .errors import (
    BoundExceeded,
    MalformedStructure,
    NameCollision,
    NonPropositional,
    ParseError,
    UnsupportedFragment,
)
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
    _preorder,
    _rebuild,
    props,
    render_formula,
)
from .kripke import KripkeStructure
from .teamcheck import eval_dep_atom
from .traces import Team, UPTrace

__all__ = [
    "QBFInstance",
    "parse_qbf",
    "qbf_brute_force",
    "reduce_qbf_sync",
    "reduce_qbf_async_dep",
    "reduce_plneg_sat_to_tmc",
    "reduce_pldep_val_to_tmc",
    "pl_team_brute_force",
]

QBF_VAR_CAP = 16
PL_VAR_CAP = 3


# ---------------------------------------------------------------------------
# QBF instances


@dataclass(frozen=True)
class QBFInstance:
    """A prenex 3CNF quantified boolean formula.

    `prefix` lists (quantifier, variable) pairs outermost first, with
    quantifier "E" or "A".  Each clause is exactly three (variable,
    positive) literals.  The prefix variables are pairwise distinct and
    are exactly the variables appearing in the clauses.
    """

    prefix: tuple[tuple[str, str], ...]
    clauses: tuple[tuple[tuple[str, bool], ...], ...]

    @property
    def variables(self) -> tuple[str, ...]:
        return tuple(v for _, v in self.prefix)


def parse_qbf(text: str) -> QBFInstance:
    """Parse the line-based QBF syntax.

    One `prefix:` line (E/A quantifier-variable pairs, outermost first)
    followed by one `clause:` line per clause with exactly three literals
    (`x` or `-x`).  `#` starts a comment line.
    """
    prefix: list[tuple[str, str]] | None = None
    clauses: list[tuple[tuple[str, bool], ...]] = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("prefix:"):
            if prefix is not None:
                raise ParseError("duplicate prefix line", line_no, 1)
            tokens = line[len("prefix:") :].split()
            if not tokens or len(tokens) % 2 != 0:
                raise ParseError(
                    "prefix must alternate quantifiers and variables", line_no, 1
                )
            prefix = []
            for quant, var in zip(tokens[0::2], tokens[1::2]):
                if quant not in ("E", "A"):
                    raise ParseError(
                        f"quantifier must be E or A, got {quant!r}", line_no, 1
                    )
                prefix.append((quant, var))
        elif line.startswith("clause:"):
            tokens = line[len("clause:") :].split()
            if len(tokens) != 3:
                raise ParseError(
                    f"a clause has exactly 3 literals, got {len(tokens)}", line_no, 1
                )
            literals = []
            for tok in tokens:
                if tok.startswith("-"):
                    literals.append((tok[1:], False))
                else:
                    literals.append((tok, True))
                if not literals[-1][0]:
                    raise ParseError("empty literal", line_no, 1)
            clauses.append(tuple(literals))
        else:
            raise ParseError(f"expected prefix: or clause:, got {line!r}", line_no, 1)
    if prefix is None:
        raise ParseError("missing prefix line", 1, 1)

    declared = [v for _, v in prefix]
    if len(set(declared)) != len(declared):
        raise MalformedStructure("prefix variables must be pairwise distinct")
    used = {v for clause in clauses for v, _ in clause}
    if used != set(declared):
        raise MalformedStructure(
            "prefix variables must exactly cover the clause variables; "
            f"prefix has {sorted(set(declared))}, clauses use {sorted(used)}"
        )
    return QBFInstance(prefix=tuple(prefix), clauses=tuple(clauses))


def qbf_brute_force(q: QBFInstance) -> bool:
    """Truth of a QBF instance by direct recursion over the prefix."""
    if len(q.prefix) > QBF_VAR_CAP:
        raise BoundExceeded(
            f"brute force handles at most {QBF_VAR_CAP} variables, got {len(q.prefix)}"
        )

    def matrix(assignment: dict) -> bool:
        return all(
            any(assignment[var] == positive for var, positive in clause)
            for clause in q.clauses
        )

    def go(i: int, assignment: dict) -> bool:
        if i == len(q.prefix):
            return matrix(assignment)
        quant, var = q.prefix[i]
        branch = any if quant == "E" else all
        return branch(
            go(i + 1, {**assignment, var: value}) for value in (True, False)
        )

    return go(0, {})


# ---------------------------------------------------------------------------
# QBF -> synchronous team satisfiability (pure LTL)


def reduce_qbf_sync(q: QBFInstance) -> tuple[Team, Formula]:
    """Encode QBF truth as synchronous satisfaction of a pure LTL formula.

    Per variable there are two 3-periodic traces carrying the variable's
    proposition in the "true" or "false" phase; universally quantified
    variables get one extra 6-periodic trace whose double-length loop lets
    the evaluation revisit both phases.  Per clause there are three
    3-periodic traces, one per literal, marked with the clause proposition
    at the two loop offsets not owned by that literal.  A separator
    proposition paces the loops and an end marker flags loop completion.

    The team has 3m + 2n + (number of universal quantifiers) traces.
    """
    n = len(q.prefix)
    m = len(q.clauses)
    variables = q.variables
    q_prop = {var: f"q{i}" for i, var in enumerate(variables, start=1)}
    c_prop = [f"c{j}" for j in range(1, m + 1)]
    generated = set(q_prop.values()) | set(c_prop) | {"sep", "end"}
    clash = generated & set(variables)
    if clash:
        raise NameCollision(
            f"variable names collide with generated propositions: {sorted(clash)}"
        )

    traces: list[UPTrace] = []

    def fs(*names: str) -> frozenset:
        return frozenset(names)

    for var in variables:
        qi = q_prop[var]
        traces.append(UPTrace((), (fs(), fs(var, qi, "sep"), fs("sep", "end"))))
        traces.append(UPTrace((), (fs(), fs("sep"), fs(var, qi, "sep", "end"))))
    for quant, var in q.prefix:
        if quant == "A":
            qi = q_prop[var]
            traces.append(
                UPTrace(
                    (),
                    (
                        fs(),
                        fs(qi, "sep"),
                        fs("sep"),
                        fs(),
                        fs("sep"),
                        fs(qi, "sep", "end"),
                    ),
                )
            )
    for j, clause in enumerate(q.clauses):
        cj = c_prop[j]
        for k, (var, positive) in enumerate(clause, start=1):
            if positive:
                letters = [fs(), fs(var, "sep"), fs("sep", "end")]
            else:
                letters = [fs(), fs("sep"), fs(var, "sep", "end")]
            for offset in range(3):
                if offset != k - 1:
                    letters[offset] = letters[offset] | {cj}
            traces.append(UPTrace((), tuple(letters)))

    sep = PositiveLiteral("sep")
    end = PositiveLiteral("end")
    matrix = reduce(
        Split,
        [Eventually(PositiveLiteral(var)) for var in variables]
        + [Eventually(PositiveLiteral(c)) for c in c_prop],
    )
    g = matrix
    for quant, var in reversed(q.prefix):
        qi = PositiveLiteral(q_prop[var])
        if quant == "E":
            g = Split(Eventually(qi), g)
        else:
            waiting = Until(NegativeLiteral(q_prop[var]), qi)
            restart = Eventually(And(end, Next(g)))
            g = Until(Split(Split(sep, waiting), restart), end)

    team = Team(traces)
    expected = 3 * m + 2 * n + sum(1 for quant, _ in q.prefix if quant == "A")
    assert len(team) == expected, "gadget traces must be pairwise distinct"
    return team, g


# ---------------------------------------------------------------------------
# QBF -> asynchronous team satisfiability (dependence atoms, F/G only)


def reduce_qbf_async_dep(q: QBFInstance) -> tuple[Team, Formula]:
    """Encode QBF truth as asynchronous satisfaction with dependence atoms.

    Variable i contributes a constant trace carrying p{i} and a 2-periodic
    trace carrying p{i}_bar.  Existential choice discards one of the two
    into a dependence-guarded split branch; universal choice wraps the
    remainder in G, whose shift vectors drive the 2-periodic trace through
    one phase that forces discarding the constant trace and one that
    forces discarding the periodic one.  Either way, the traces surviving
    all quantifier levels encode an assignment: variable i is true iff the
    p{i}_bar trace is gone.

    Clauses are read off by one extra probe trace with a loop of length
    3m.  Probe position (j, k) carries a marker m{j}k{k} that is otherwise
    found exactly on the trace whose survival falsifies literal k of
    clause j, plus a private witness z{j}k{k}; hence the exclusion atom
    dep(m{j}k{k}; z{j}k{k}) fails precisely when the probe sits at (j, k)
    while that falsifying trace is still in the team.  Window markers
    sel{j} - carried everywhere except on the probe's foreign windows -
    pin the probe inside clause j's window, so clause j's check reads
    "some shift puts the probe at a position (j, k) whose falsifier was
    discarded", i.e. some literal of clause j holds under the encoded
    assignment.  Extra surviving traces only shrink the set of usable
    probe positions, so keeping both traces of a variable never helps.

    The team has 2n + 1 traces; the formula uses literals, dependence
    atoms, conjunction, splitjunction, F and G only.
    """
    n = len(q.prefix)
    m = len(q.clauses)
    position = {var: i for i, var in enumerate(q.variables, start=1)}
    all_s = frozenset(f"s{i}" for i in range(1, n + 1))
    all_sel = frozenset(f"sel{j}" for j in range(1, m + 1))

    # m{j}k{k} lives on every letter of the trace falsifying literal k of
    # clause j: the constant p-trace for a negative literal, the periodic
    # p_bar-trace for a positive one.
    a_marks: dict[int, set[str]] = {i: set() for i in range(1, n + 1)}
    b_marks: dict[int, set[str]] = {i: set() for i in range(1, n + 1)}
    for j, clause in enumerate(q.clauses, start=1):
        for k, (var, positive) in enumerate(clause, start=1):
            target = b_marks if positive else a_marks
            target[position[var]].add(f"m{j}k{k}")

    traces = []
    for i in range(1, n + 1):
        pi, qi, ri, si = f"p{i}", f"q{i}", f"r{i}", f"s{i}"
        shared = all_sel | (all_s - {si})
        traces.append(
            UPTrace((), (frozenset({pi, qi, ri, si} | shared | a_marks[i]),))
        )
        traces.append(
            UPTrace(
                (),
                (
                    frozenset({qi, ri, f"p{i}_bar"} | shared | b_marks[i]),
                    frozenset({qi, si, f"p{i}_bar"} | shared | b_marks[i]),
                ),
            )
        )
    probe_letters = tuple(
        frozenset({f"sel{j}", f"m{j}k{k}", f"z{j}k{k}"} | all_s)
        for j in range(1, m + 1)
        for k in (1, 2, 3)
    )
    traces.append(UPTrace((), probe_letters))
    team = Team(traces)
    assert len(team) == 2 * n + 1, "gadget traces must be pairwise distinct"

    windows = []
    for j in range(1, m + 1):
        exclusions = [DepAtom((f"m{j}k{k}",), (f"z{j}k{k}",)) for k in (1, 2, 3)]
        windows.append(
            Eventually(reduce(And, [PositiveLiteral(f"sel{j}")] + exclusions))
        )
    g = reduce(And, windows)
    for quant, var in reversed(q.prefix):
        i = position[var]
        dep = DepAtom((), (f"p{i}",))
        if quant == "E":
            g = Split(And(PositiveLiteral(f"q{i}"), dep), g)
        else:
            keep = And(And(dep, PositiveLiteral(f"q{i}")), PositiveLiteral(f"r{i}"))
            g = Globally(Split(keep, And(PositiveLiteral(f"s{i}"), g)))
    return team, g


# ---------------------------------------------------------------------------
# shared assignment-layer structure for the propositional pipelines


def _require_propositional(f: Formula, allow_neg: bool, allow_dep: bool) -> None:
    for g in _preorder(f):
        match g:
            case PositiveLiteral(_) | NegativeLiteral(_) | And(_, _) | Split(_, _):
                pass
            case DepAtom(_, _):
                if not allow_dep:
                    raise UnsupportedFragment(
                        "dependence atoms are not supported by this pipeline"
                    )
            case GenAtom(_, _):
                raise UnsupportedFragment(
                    "generalised atoms are not supported by this pipeline"
                )
            case ContradictoryNeg(_):
                if not allow_neg:
                    raise UnsupportedFragment(
                        "contradictory negation is not supported by this pipeline"
                    )
            case Next(_) | Eventually(_) | Globally(_) | Until(_, _) | Release(_, _):
                raise NonPropositional(
                    f"temporal operator in propositional input: {render_formula(g)}"
                )
            case _:
                raise TypeError(f"not a formula node: {g!r}")


def _star(phi: Formula, dep=None) -> Formula:
    """phi over the assignment layers: v / !v read as "eventually v" /
    "eventually v_bar", and each dependence atom rewritten by `dep`."""

    def step(g: Formula, _):
        match g:
            case PositiveLiteral(v):
                return Eventually(PositiveLiteral(v)), ()
            case NegativeLiteral(v):
                return Eventually(PositiveLiteral(v + "_bar")), ()
            case DepAtom(_, _):
                return dep(g), ()
            case ContradictoryNeg(_) | And(_, _) | Split(_, _):
                return type(g), [(h, None) for h in _operands(g)]
        raise AssertionError(f"unreachable: {g!r}")

    return _rebuild(phi, step)


def _assignment_layer_structure(variables: tuple[str, ...]) -> KripkeStructure:
    for v in variables:
        if v + "_bar" in variables:
            raise NameCollision(
                f"variable {v + '_bar'!r} collides with the negative label for {v!r}"
            )
    n = len(variables)
    worlds = ["root"]
    labels: dict[str, frozenset] = {"root": frozenset()}
    edges: dict[str, tuple[str, ...]] = {}
    for i, var in enumerate(variables, start=1):
        for side, label in (("a", frozenset({var})), ("b", frozenset({var + "_bar"}))):
            name = f"{side}{i}"
            worlds.append(name)
            labels[name] = label
    layer = lambda i: (f"a{i}", f"b{i}")  # noqa: E731
    edges["root"] = layer(1)
    for i in range(1, n):
        for w in layer(i):
            edges[w] = layer(i + 1)
    for w in layer(n):
        edges[w] = (w,)
    return KripkeStructure(
        worlds=tuple(worlds), labels=labels, edges=edges, init="root"
    )


def reduce_plneg_sat_to_tmc(phi: Formula) -> tuple[KripkeStructure, Formula]:
    """Propositional team satisfiability (with ~) as team model checking.

    The trace team of the returned structure is the set of assignments;
    the returned formula splits off a non-empty subteam and evaluates the
    input on it, with each literal v / !v read as "eventually v" /
    "eventually v_bar" at v's layer.
    """
    _require_propositional(phi, allow_neg=True, allow_dep=False)
    variables = tuple(sorted(props(phi)))
    k = _assignment_layer_structure(variables)

    v1 = variables[0]
    always = Split(PositiveLiteral(v1), NegativeLiteral(v1))
    never = And(PositiveLiteral(v1), NegativeLiteral(v1))
    wrapped = Split(always, And(ContradictoryNeg(never), _star(phi)))
    return k, wrapped


def reduce_pldep_val_to_tmc(phi: Formula) -> tuple[KripkeStructure, Formula]:
    """Propositional team validity (with dep atoms) as team model checking.

    Literals translate as in the satisfiability pipeline.  A dependence
    atom dep(A; b) becomes a splitjunction over the 2^|A| value patterns
    of A: each part pins its pattern with "eventually"-literals - forcing
    the split to group traces by their A-assignment - and then requires
    constancy of b at b's layer.
    """
    _require_propositional(phi, allow_neg=False, allow_dep=True)
    variables = tuple(sorted(props(phi)))
    k = _assignment_layer_structure(variables)
    layer = {var: i for i, var in enumerate(variables, start=1)}

    def at_layer(var: str, inner: Formula) -> Formula:
        out = inner
        for _ in range(layer[var]):
            out = Next(out)
        return out

    def dep_piece(determinants: tuple[str, ...], b: str) -> Formula:
        constancy = at_layer(b, DepAtom((), (b,)))
        if not determinants:
            return constancy
        parts = []
        for pattern in itertools.product((True, False), repeat=len(determinants)):
            pins = [
                Eventually(PositiveLiteral(a if value else a + "_bar"))
                for a, value in zip(determinants, pattern)
            ]
            parts.append(And(reduce(And, pins), constancy))
        return reduce(Split, parts)

    def dep(g: DepAtom) -> Formula:
        return reduce(And, [dep_piece(g.determinants, b) for b in g.determined])

    return k, _star(phi, dep)


# ---------------------------------------------------------------------------
# propositional team semantics, brute force


def pl_team_brute_force(phi: Formula, mode: str) -> bool:
    """Reference verdicts for the propositional pipelines.

    mode="sat": some non-empty team of assignments satisfies phi.
    mode="val": the team of all assignments satisfies phi.

    Propositional team semantics is evaluated directly on assignments
    (independent of the trace engines); splitjunction ranges over all
    covers, which subsumes the partition semantics of the downward-closed
    fragment.
    """
    if mode not in ("sat", "val"):
        raise ValueError(f"mode must be 'sat' or 'val', got {mode!r}")
    _require_propositional(phi, allow_neg=True, allow_dep=True)
    variables = tuple(sorted(props(phi)))
    if len(variables) > PL_VAR_CAP:
        raise BoundExceeded(
            f"brute force handles at most {PL_VAR_CAP} variables, got {len(variables)}"
        )
    assignments = [
        frozenset(subset)
        for r in range(len(variables) + 1)
        for subset in itertools.combinations(variables, r)
    ]
    memo: dict = {}

    def eval_team(team: frozenset, f: Formula) -> bool:
        key = (team, id(f))
        hit = memo.get(key)
        if hit is not None:
            return hit
        match f:
            case PositiveLiteral(v):
                value = all(v in a for a in team)
            case NegativeLiteral(v):
                value = all(v not in a for a in team)
            case DepAtom(determinants, determined):
                value = eval_dep_atom(sorted(team, key=sorted), determinants, determined)
            case ContradictoryNeg(sub):
                value = not eval_team(team, sub)
            case And(lhs, rhs):
                value = eval_team(team, lhs) and eval_team(team, rhs)
            case Split(lhs, rhs):
                members = sorted(team, key=sorted)
                value = False
                for sides in itertools.product((0, 1, 2), repeat=len(members)):
                    left = frozenset(m for m, s in zip(members, sides) if s != 1)
                    right = frozenset(m for m, s in zip(members, sides) if s != 0)
                    if eval_team(left, lhs) and eval_team(right, rhs):
                        value = True
                        break
            case _:
                raise AssertionError(f"unreachable: {f!r}")
        memo[key] = value
        return value

    if mode == "val":
        return eval_team(frozenset(assignments), phi)
    full = frozenset(assignments)
    return any(
        eval_team(frozenset(sub), phi)
        for r in range(1, len(assignments) + 1)
        for sub in itertools.combinations(sorted(full, key=sorted), r)
    )
