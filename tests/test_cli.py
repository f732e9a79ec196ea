"""End-to-end CLI behaviour: verdict lines, exit codes, file round-trips."""

from __future__ import annotations

import pytest

from teamltl.cli import main
from teamltl.formula import parse_formula
from teamltl.kripke import parse_kripke, traces_team_finite
from teamltl.reductions import pl_team_brute_force
from teamltl.teamcheck import check_sync
from teamltl.traces import parse_team

EXAMPLE_TEAM = "{p} ; {}\n{} {p} ; {}\n"


@pytest.fixture()
def run(capsys):
    def go(*argv):
        code = main(list(argv))
        out = capsys.readouterr().out
        return code, out

    return go


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


def test_check_path_engines_agree(run, team_file):
    for formula in ("F p", "F p | F p", "G (p | !p)"):
        flat = run("check-path", "--semantics", "async", "--formula", formula, "--team", team_file)
        general = run(
            "check-path", "--semantics", "async", "--formula", formula,
            "--team", team_file, "--async-engine", "general",
        )
        assert flat == general


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


def test_check_path_budget_exit(run, team_file):
    code, out = run(
        "check-path", "--semantics", "sync", "--formula", "F p",
        "--team", team_file, "--max-lcm", "0",
    )
    assert code == 4 and out.startswith("ERROR")


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


def test_check_model_engines(run, kripke_file):
    materialized = run("check-model", "--semantics", "sync", "--formula", "F p", "--kripke", kripke_file)
    onthefly = run(
        "check-model", "--semantics", "sync", "--formula", "F p",
        "--kripke", kripke_file, "--engine", "onthefly",
    )
    assert materialized == onthefly == (0, "HOLDS\n")


def test_check_model_open_problem(run, kripke_file):
    code, out = run("check-model", "--semantics", "sync", "--formula", "F p | F p", "--kripke", kripke_file)
    assert code == 3 and out.startswith("UNSUPPORTED")


def test_check_model_async_rejects_atoms(run, kripke_file):
    code, out = run("check-model", "--semantics", "async", "--formula", "dep(; p)", "--kripke", kripke_file)
    assert code == 3 and out.startswith("UNSUPPORTED")


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
    # longer than a file name may be: still read as formula text
    formula = " & ".join(["alpha", "beta", "gamma"] * 20)
    assert len(formula) > 255
    assert run("sat", "--semantics", "sync", "--formula", formula) == (
        0,
        "SAT\n{alpha,beta,gamma} ; {}\n",
    )


def test_sat_deeply_nested_formula_is_input_error(run, tmp_path):
    deep = tmp_path / "deep.ltl"
    deep.write_text("X " * 600 + "!q\n")
    code, out = run("sat", "--semantics", "sync", "--formula", str(deep))
    assert (code, out) == (2, "ERROR formula nested too deep\n")


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
