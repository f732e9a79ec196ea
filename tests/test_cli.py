"""End-to-end CLI behaviour: verdict lines, exit codes, file round-trips."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from teamltl.cli import main
from teamltl.formula import parse_formula
from teamltl.kripke import parse_kripke, traces_team_finite
from teamltl.reductions import pl_team_brute_force
from teamltl.teamcheck import check_sync
from teamltl.traces import parse_team, parse_trace_line

from .util import oracle_trace

EXAMPLE_TEAM = "{p} ; {}\n{} {p} ; {}\n"


@pytest.fixture()
def run(capsys):
    def go(*argv):
        code = main(list(argv))
        out = capsys.readouterr().out
        return code, out

    return go


def _cli(*argv, env=None, **popen):
    """The CLI as a separate process, run from this checkout's sources."""
    root = Path(__file__).resolve().parents[1]
    env = {**os.environ, **(env or {})}
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(root / "src"), env.get("PYTHONPATH")])
    )
    return subprocess.Popen([sys.executable, "-m", "teamltl.cli", *argv], env=env, **popen)


def _cli_run(*argv):
    with _cli(*argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True) as proc:
        out, err = proc.communicate(timeout=60)
    return proc.returncode, out, err


@pytest.fixture()
def team_file(tmp_path):
    path = tmp_path / "team.txt"
    path.write_text(EXAMPLE_TEAM)
    return str(path)


# ---------------------------------------------------------------------------
# check-path


def test_check_path_two_semantics(run, team_file):
    assert run("check-path", "--semantics", "sync", "--formula", "F p", "--team", team_file) == (1, "FAILS\n")
    assert run("check-path", "--semantics", "async", "--formula", "F p", "--team", team_file) == (0, "HOLDS\n")
    assert run("check-path", "--semantics", "sync", "--formula", "F p | F p", "--team", team_file) == (0, "HOLDS\n")
    assert run("check-path", "--semantics", "async", "--formula", "F p | F p", "--team", team_file) == (0, "HOLDS\n")


def test_check_path_rejects_async_engine(run, team_file):
    # check_async is the one asynchronous entry point: no engine to choose
    for engine in ("flat", "general"):
        assert run(
            "check-path", "--semantics", "async", "--formula", "F p",
            "--team", team_file, "--async-engine", engine,
        ) == (2, "")


@pytest.mark.parametrize(
    "semantics, extra, out",
    [
        ("sync", ("--async-engine", "general"), ""),
        ("async", ("--max-lcm", "1"), "ERROR --max-lcm caps only synchronous checking\n"),
        ("sync", ("--max-grid", "1"), "ERROR --max-grid caps only asynchronous checking\n"),
    ],
    ids=["sync-async-engine", "async-max-lcm", "sync-max-grid"],
)
def test_check_path_rejects_flags_its_semantics_ignores(run, team_file, semantics, extra, out):
    assert run(
        "check-path", "--semantics", semantics, "--formula", "F p | F p",
        "--team", team_file, *extra,
    ) == (2, out)


def test_check_path_formula_from_file(run, team_file, tmp_path):
    f = tmp_path / "formula.txt"
    f.write_text("F p | F p\n")
    assert run("check-path", "--semantics", "sync", "--formula", str(f), "--team", team_file) == (0, "HOLDS\n")


def test_check_path_input_errors(run, tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("not a team file\n")
    code, out = run("check-path", "--semantics", "sync", "--formula", "F p", "--team", str(bad))
    assert code == 2 and out.startswith("ERROR")
    code, out = run("check-path", "--semantics", "sync", "--formula", "F p", "--team", str(tmp_path / "missing.txt"))
    assert code == 2 and out.startswith("ERROR")


def test_check_path_usage_error(run, team_file):
    code, _ = run("check-path", "--semantics", "nonsense", "--formula", "F p", "--team", team_file)
    assert code == 2


def test_check_path_budget_exit(run, tmp_path):
    team = tmp_path / "team.txt"
    team.write_text("; {p} {}\n; {} {} {p}\n")  # loops of 2 and 3: lcm 6
    argv = ("check-path", "--semantics", "sync", "--formula", "F p", "--team", str(team))
    code, out = run(*argv, "--max-lcm", "5")
    assert code == 4 and out.startswith("ERROR")
    assert run(*argv, "--max-lcm", "6") == (0, "HOLDS\n")


@pytest.mark.parametrize(
    "flag, value",
    [("--max-lcm", "0"), ("--max-team", "-1"), ("--max-team", "0"), ("--max-grid", "0"), ("--max-lcm", "x")],
)
def test_check_path_budget_flags_take_positive_ints(run, team_file, flag, value):
    code, _ = run(
        "check-path", "--semantics", "async", "--formula", "F p",
        "--team", team_file, flag, value,
    )
    assert code == 2


# ---------------------------------------------------------------------------
# check-model


@pytest.fixture()
def kripke_file(tmp_path):
    path = tmp_path / "k.txt"
    path.write_text("world w0 { p }\nedge w0 w0\ninit w0\n")
    return str(path)


def test_check_model_sync(run, kripke_file):
    assert run("check-model", "--semantics", "sync", "--formula", "G p", "--kripke", kripke_file) == (0, "HOLDS\n")
    assert run("check-model", "--semantics", "sync", "--formula", "G !p", "--kripke", kripke_file) == (1, "FAILS\n")


def test_check_model_length_cap(run, tmp_path):
    # 25 worlds in one cycle, p on w0 only: a subset sequence of 25 sets
    ring = tmp_path / "ring.txt"
    ring.write_text(
        "".join(f"world w{i} {{ {'p' if i == 0 else ''} }}\nedge w{i} w{(i + 1) % 25}\n" for i in range(25))
        + "init w0\n"
    )
    argv = ("check-model", "--semantics", "sync", "--formula", "G F p", "--kripke", str(ring))
    assert run(*argv) == (0, "HOLDS\n")
    assert run(*argv, "--max-lcm", "25") == (0, "HOLDS\n")
    code, out = run(*argv, "--max-lcm", "20")
    assert code == 4 and out.startswith("ERROR budget exhausted") and "max_lcm = 20" in out


@pytest.mark.parametrize(
    "extra",
    [
        ("--engine", "onthefly"),
        ("--engine", "materialized"),
        ("--max-team", "5"),
        ("--max-grid", "5"),
        ("--max-lcm", "0"),
        ("--max-lcm", "-3"),
    ],
    ids=" ".join,
)
def test_check_model_rejects_removed_and_bad_flags(run, kripke_file, extra):
    code, _ = run(
        "check-model", "--semantics", "sync", "--formula", "G p",
        "--kripke", kripke_file, *extra,
    )
    assert code == 2


def test_check_model_async_rejects_max_lcm(run, kripke_file):
    # tmc_async takes no limits, so the flag would be ignored
    assert run(
        "check-model", "--semantics", "async", "--formula", "F p",
        "--kripke", kripke_file, "--max-lcm", "1",
    ) == (2, "ERROR --max-lcm caps only synchronous checking\n")


def test_check_model_open_problem(run, kripke_file):
    code, out = run("check-model", "--semantics", "sync", "--formula", "F p | F p", "--kripke", kripke_file)
    assert code == 3 and out.startswith("UNSUPPORTED")


def test_check_model_async_rejects_atoms(run, kripke_file):
    code, out = run("check-model", "--semantics", "async", "--formula", "dep(; p)", "--kripke", kripke_file)
    assert code == 3 and out.startswith("UNSUPPORTED")


def test_check_model_sync_rejects_bar_label_next_to_its_name(run, tmp_path):
    # the derived trace's p_bar would stand both for the label p_bar and
    # for p being absent
    k = tmp_path / "bar.txt"
    k.write_text("world a { p p_bar }\nedge a a\ninit a\n")
    code, out = run("check-model", "--semantics", "sync", "--formula", "!p", "--kripke", str(k))
    assert code == 2 and out.startswith("ERROR") and "'p_bar'" in out


def test_check_model_async(run, kripke_file):
    assert run("check-model", "--semantics", "async", "--formula", "F p", "--kripke", kripke_file) == (0, "HOLDS\n")


# ---------------------------------------------------------------------------
# sat


def test_sat_witness_recheckable(run, tmp_path):
    code, out = run("sat", "--semantics", "sync", "--formula", "F p & F q")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "SAT"
    witness = tmp_path / "witness.txt"
    witness.write_text(lines[1] + "\n")
    assert run("check-path", "--semantics", "sync", "--formula", "F p & F q", "--team", str(witness)) == (0, "HOLDS\n")


def test_sat_unsat(run):
    assert run("sat", "--semantics", "sync", "--formula", "p & !p") == (1, "UNSAT\n")


def test_sat_takes_no_budget_flags(run):
    # tsat has no caps, so sat offers no flag it would ignore
    code, _ = run("sat", "--semantics", "sync", "--formula", "F p", "--max-lcm", "5")
    assert code == 2


def test_sat_long_inline_formula(run):
    # longer than a file name may be: still read as formula text; its 60
    # distinct propositions must not blow up the automaton
    names = [f"p{i}" for i in range(60)]
    formula = " & ".join(names)
    assert len(formula) > 255
    assert run("sat", "--semantics", "sync", "--formula", formula) == (
        0,
        "SAT\n{" + ",".join(sorted(names)) + "} ; {}\n",
    )


def test_sat_many_fairness_constraints_in_seconds():
    # G F p0 & ... & G F p9: the tableau has n + 2 states, not about 3^n
    formula = " & ".join(f"G F p{i}" for i in range(10))
    code, out, err = _cli_run("sat", "--semantics", "sync", "--formula", formula)
    assert code == 0, out + err
    verdict, witness = out.splitlines()
    assert verdict == "SAT"
    assert oracle_trace(parse_trace_line(witness), parse_formula(formula))


def test_sat_deeply_nested_formula_is_input_error(run, tmp_path):
    # 3,000 nested X are more than the recursive-descent parser can take
    deep = tmp_path / "deep.ltl"
    deep.write_text("X " * 3000 + "!q\n")
    code, out = run("sat", "--semantics", "sync", "--formula", str(deep))
    assert (code, out) == (2, "ERROR formula nested too deep\n")


def test_thousand_term_conjunction_gets_a_verdict(tmp_path):
    # chains 1,000 terms long and X nested 600 deep: every pass over a
    # formula after parsing is iterative
    files = {
        "and.ltl": " & ".join(f"p{i}" for i in range(1000)),
        "or.ltl": " | ".join(f"p{i}" for i in range(1000)),
        "deep.ltl": "X " * 600 + "!q",
        "team.txt": EXAMPLE_TEAM,
        "k.txt": "world w0 { p0 }\nedge w0 w0\ninit w0\n",
    }
    for name, text in files.items():
        (tmp_path / name).write_text(text + "\n")
    chain, team, kripke = (str(tmp_path / name) for name in ("and.ltl", "team.txt", "k.txt"))
    commands = [
        ["sat", "--semantics", "sync", "--formula", chain],
        ["check-path", "--semantics", "sync", "--formula", chain, "--team", team],
        ["check-path", "--semantics", "async", "--formula", chain, "--team", team],
        ["check-model", "--semantics", "sync", "--formula", chain, "--kripke", kripke],
        ["check-model", "--semantics", "async", "--formula", chain, "--kripke", kripke],
        ["sat", "--semantics", "sync", "--formula", str(tmp_path / "or.ltl")],
        ["sat", "--semantics", "sync", "--formula", str(tmp_path / "deep.ltl")],
    ]
    for argv in commands:
        code, out, err = _cli_run(*argv)
        assert code in (0, 1), (argv, out + err)
        assert out.split()[0] in ("SAT", "HOLDS", "FAILS"), out


@pytest.mark.parametrize("buffered", [True, False])
def test_closed_stdout_is_exit_2_without_traceback(buffered):
    # the reader of standard output is gone before the verdict prints
    env = {"PYTHONUNBUFFERED": "" if buffered else "1"}
    argv = ("sat", "--semantics", "sync", "--formula", "p & !p")
    with _cli(*argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env) as proc:
        proc.stdout.close()
        err = proc.stderr.read()
    assert (proc.returncode, err) == (2, "")


def test_sat_rejects_contradictory_negation(run):
    code, out = run("sat", "--semantics", "sync", "--formula", "~p")
    assert code == 3 and out.startswith("UNSUPPORTED")


# ---------------------------------------------------------------------------
# reduce


def test_reduce_qbf_sync_roundtrip(run, tmp_path):
    src = tmp_path / "q.qbf"
    src.write_text("prefix: E x\nclause: x x x\n")
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    code, out = run("reduce", "qbf-sync", "--input", str(src), "--out", str(out_dir))
    assert code == 0
    assert (out_dir / "team.txt").is_file() and (out_dir / "formula.txt").is_file()
    assert run(
        "check-path", "--semantics", "sync",
        "--formula", str(out_dir / "formula.txt"), "--team", str(out_dir / "team.txt"),
    ) == (0, "HOLDS\n")


def test_reduce_qbf_async_false_instance(run, tmp_path):
    src = tmp_path / "q.qbf"
    src.write_text("prefix: A x\nclause: x x x\n")
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    assert run("reduce", "qbf-async-dep", "--input", str(src), "--out", str(out_dir))[0] == 0
    assert run(
        "check-path", "--semantics", "async",
        "--formula", str(out_dir / "formula.txt"), "--team", str(out_dir / "team.txt"),
    ) == (1, "FAILS\n")


@pytest.mark.parametrize(
    "kind, mode, formula",
    [
        ("plsat-mc", "sat", "(p | ~q) & (q | ~p)"),
        ("plval-mc-dep", "val", "dep(p; q) | !q"),
    ],
)
def test_reduce_pl_pipelines_emit_checkable_files(run, tmp_path, kind, mode, formula):
    src = tmp_path / "phi.txt"
    src.write_text(formula + "\n")
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    code, _ = run("reduce", kind, "--input", str(src), "--out", str(out_dir))
    assert code == 0
    k = parse_kripke((out_dir / "kripke.txt").read_text())
    g = parse_formula((out_dir / "formula.txt").read_text())
    team = traces_team_finite(k)
    assert team is not None
    assert check_sync(team, g) == pl_team_brute_force(parse_formula(formula), mode)


def test_reduce_missing_out_dir(run, tmp_path):
    src = tmp_path / "q.qbf"
    src.write_text("prefix: E x\nclause: x x x\n")
    code, out = run("reduce", "qbf-sync", "--input", str(src), "--out", str(tmp_path / "nowhere"))
    assert code == 2 and out.startswith("ERROR")


def test_reduce_emitted_team_file_reparses(run, tmp_path):
    src = tmp_path / "q.qbf"
    src.write_text("prefix: E x A y\nclause: x -y y\n")
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    run("reduce", "qbf-async-dep", "--input", str(src), "--out", str(out_dir))
    team = parse_team((out_dir / "team.txt").read_text())
    assert len(team) == 5
    parse_formula((out_dir / "formula.txt").read_text())  # must not raise


def test_reduce_bad_input(run, tmp_path):
    src = tmp_path / "q.qbf"
    src.write_text("prefix: E x\nclause: x x\n")  # two-literal clause
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    code, out = run("reduce", "qbf-sync", "--input", str(src), "--out", str(out_dir))
    assert code == 2 and out.startswith("ERROR")


# ---------------------------------------------------------------------------
# hyper


def test_hyper_check_witness(run, team_file):
    assert run("hyper", "check", "--team", team_file, "--sentence", "E pi. p@pi") == (0, "HOLDS\n")
    assert run("hyper", "check", "--team", team_file, "--sentence", "A pi. p@pi") == (1, "FAILS\n")


def test_hyper_to_hyper_pinned(run):
    assert run("hyper", "to-hyper", "--formula", "F p") == (0, "A pi. F p@pi\n")


def test_hyper_from_hyper_pinned(run):
    assert run("hyper", "from-hyper", "--sentence", "A pi. F p@pi") == (0, "F p\n")


def test_hyper_from_hyper_existential_unsupported(run):
    code, out = run("hyper", "from-hyper", "--sentence", "E pi. p@pi")
    assert code == 3 and out.startswith("UNSUPPORTED")


def test_hyper_check_prefix_cap(run, team_file):
    sentence = "E a. E b. E c. E d. E e. p@a"
    code, out = run("hyper", "check", "--team", team_file, "--sentence", sentence)
    assert code == 4 and out.startswith("ERROR")
    code, _ = run(
        "hyper", "check", "--team", team_file, "--sentence", sentence, "--max-prefix", "5"
    )
    assert code == 0
    code, _ = run("hyper", "check", "--team", team_file, "--sentence", "E pi. p@pi", "--max-prefix", "0")
    assert code == 2


def test_hyper_unbound_variable(run, team_file):
    code, out = run("hyper", "check", "--team", team_file, "--sentence", "E pi. p@rho")
    assert code == 2 and out.startswith("ERROR")


# ---------------------------------------------------------------------------
# top level


def test_help_exits_zero(run):
    code, _ = run("--help")
    assert code == 0


def test_missing_subcommand_is_usage_error(run):
    code, _ = run()
    assert code == 2
