"""Bounded fuzz of the CLI contract: every argv and input file gets one of
the documented exit codes, no exception escapes `main`, and exit 1 means
FAILS or UNSAT."""

from __future__ import annotations

import contextlib
import io
import random
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from teamltl.cli import main
from teamltl.formula import render_formula
from teamltl.hyper import ltl_to_forall_hyper, render_hyper
from teamltl.kripke import serialize_kripke
from teamltl.traces import serialize_team

from .util import formulas, random_kripke, random_qbf, teams

POOL = ("p", "q")


def qbf_text(seed: int) -> str:
    q = random_qbf(random.Random(seed), n_max=3, m_max=3)
    lines = ["prefix: " + " ".join(f"{quant} {var}" for quant, var in q.prefix)]
    for clause in q.clauses:
        lines.append("clause: " + " ".join(v if pos else f"-{v}" for v, pos in clause))
    return "\n".join(lines) + "\n"


def kripke_text(seed: int) -> str:
    return serialize_kripke(random_kripke(random.Random(seed), max_worlds=4, branch_prob=0.4))


# well-formed inputs are listed twice so that about half of all calls get
# past parsing
junk = st.text(alphabet="pq!~&|()XFGUR;,.@{} ", max_size=10)
pure_or_not = formulas(POOL, max_leaves=4, allow_neg=True, allow_dep=True).map(render_formula)
formula_texts = st.one_of(
    pure_or_not,
    pure_or_not,
    junk,
    st.sampled_from(["@c(p)", "p_bar & !p", "dep(p", "X X X X p"]),
)
team_texts = st.one_of(
    teams(POOL, max_size=3).map(serialize_team),
    teams(POOL, max_size=3).map(serialize_team),
    junk,
    st.sampled_from(["; {p}\n; {} {p}\n", "{p} ;\n"]),
)
kripke_texts = st.one_of(
    st.integers(0, 10**6).map(kripke_text),
    st.integers(0, 10**6).map(kripke_text),
    junk,
    st.sampled_from(["world a { p }\ninit a\n", "world a { }\nedge a b\ninit a\n"]),
)
qbf_texts = st.one_of(st.integers(0, 10**6).map(qbf_text), junk)
forall_sentences = formulas(POOL, max_leaves=3).map(lambda f: render_hyper(ltl_to_forall_hyper(f)))
sentence_texts = st.one_of(
    forall_sentences,
    forall_sentences,
    junk,
    st.sampled_from(["E pi. A rho. p@pi U q@rho", "E pi. p@rho", "A pi. ~p@pi"]),
)
budgets = st.sampled_from(["1", "2", "3", "7", "50", "-1", "0", "x"])
semantics = st.sampled_from(["sync", "async"])


def flags(names):
    """At most one of the given flags, with a drawn value."""
    return st.lists(st.tuples(st.sampled_from(names), budgets), max_size=1).map(
        lambda pairs: [token for pair in pairs for token in pair]
    )


# each call: (argv, files), where "<name>" in argv is the path of files[name]
calls = st.one_of(
    st.builds(
        lambda sem, f, team, extra: (
            ["check-path", "--semantics", sem, "--formula", f, "--team", "<team>", *extra],
            {"team": team},
        ),
        semantics, formula_texts, team_texts, flags(["--max-lcm", "--max-team", "--max-grid"]),
    ),
    st.builds(
        lambda sem, f, k, extra: (
            ["check-model", "--semantics", sem, "--formula", f, "--kripke", "<k>", *extra],
            {"k": k},
        ),
        semantics, formula_texts, kripke_texts, flags(["--max-lcm", "--engine"]),
    ),
    st.builds(
        lambda sem, f: (["sat", "--semantics", sem, "--formula", f], {}),
        semantics, formula_texts,
    ),
    st.builds(
        lambda kind, qbf, f, out: (
            ["reduce", kind, "--input", "<in>", "--out", out],
            {"in": qbf if kind.startswith("qbf") else f},
        ),
        st.sampled_from(["qbf-sync", "qbf-async-dep", "plsat-mc", "plval-mc-dep"]),
        qbf_texts, formula_texts, st.sampled_from(["<dir>", "<missing>"]),
    ),
    st.builds(
        lambda s, team, extra: (
            ["hyper", "check", "--team", "<team>", "--sentence", s, *extra],
            {"team": team},
        ),
        sentence_texts, team_texts, flags(["--max-prefix"]),
    ),
    st.builds(lambda f: (["hyper", "to-hyper", "--formula", f], {}), formula_texts),
    st.builds(lambda s: (["hyper", "from-hyper", "--sentence", s], {}), sentence_texts),
)


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(calls)
def test_cli_main_keeps_its_contract(call):
    argv, files = call
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        paths = {"dir": root, "missing": root / "missing"}
        for name, text in files.items():
            paths[name] = root / f"{name}.txt"
            paths[name].write_text(text)
        argv = [str(paths[a[1:-1]]) if a.startswith("<") and a[1:-1] in paths else a for a in argv]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    assert code in (0, 1, 2, 3, 4), (argv, code)
    assert "Traceback" not in err.getvalue()
    if code == 1:
        assert out.getvalue().split()[:1] in (["FAILS"], ["UNSAT"]), (argv, out.getvalue())
