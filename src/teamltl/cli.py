"""Command-line interface over all verification and reduction pipelines.

Exit codes: 0 the property holds / the formula is satisfiable; 1 it
fails / is unsatisfiable; 2 usage or input error; 3 unsupported fragment
or open problem; 4 an evaluation budget ran out.  Verdict lines go to
standard output and start with one of HOLDS, FAILS, SAT, UNSAT,
UNSUPPORTED, ERROR; conversion commands (reduce, hyper to-hyper /
from-hyper) print their artifact instead.

Arguments documented as `<file|inline>` are read from the named file
when one exists and otherwise parsed as literal text; team, Kripke and
QBF inputs are always files.  Every file the CLI writes can be read back
by the CLI.
"""

from __future__ import annotations

import argparse
from pathlib import Path

from .classical import tsat
from .errors import (
    BoundExceeded,
    NotForallFragment,
    TeamLTLError,
    UnsupportedFragment,
)
from .hyper import (
    check_hyper,
    forall_hyper_to_ltl,
    ltl_to_forall_hyper,
    parse_hyper,
    render_hyper,
)
from .formula import parse_formula, render_formula
from .kripke import parse_kripke, serialize_kripke
from .modelcheck import tmc_async, tmc_sync_splitfree, tmc_sync_splitfree_onthefly
from .reductions import (
    parse_qbf,
    reduce_plneg_sat_to_tmc,
    reduce_pldep_val_to_tmc,
    reduce_qbf_async_dep,
    reduce_qbf_sync,
)
from .teamcheck import (
    DEFAULT_LIMITS,
    Limits,
    check_async,
    check_async_general,
    check_sync,
)
from .traces import parse_team, serialize_team, serialize_trace

__all__ = [
    "build_parser",
    "cmd_check_path",
    "cmd_check_model",
    "cmd_sat",
    "cmd_reduce",
    "cmd_hyper",
    "main",
]


def _read_inline_or_file(value: str) -> str:
    path = Path(value)
    try:
        is_file = path.is_file()
    except OSError:  # e.g. formula text longer than a file name may be
        is_file = False
    return path.read_text() if is_file else value


def _read_file(value: str) -> str:
    return Path(value).read_text()


def _limits(args: argparse.Namespace) -> Limits:
    return Limits(
        max_lcm=args.max_lcm, max_split_team=args.max_team, max_grid=args.max_grid
    )


def _verdict(ok: bool) -> int:
    print("HOLDS" if ok else "FAILS")
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# subcommands


def cmd_check_path(args: argparse.Namespace) -> int:
    f = parse_formula(_read_inline_or_file(args.formula))
    team = parse_team(_read_file(args.team))
    limits = _limits(args)
    if args.semantics == "sync":
        ok = check_sync(team, f, limits=limits)
    elif args.async_engine == "general":
        ok = check_async_general(team, f, limits=limits)
    else:
        ok = check_async(team, f, limits=limits)
    return _verdict(ok)


def cmd_check_model(args: argparse.Namespace) -> int:
    f = parse_formula(_read_inline_or_file(args.formula))
    k = parse_kripke(_read_file(args.kripke))
    if args.semantics == "sync":
        if args.engine == "onthefly":
            ok = tmc_sync_splitfree_onthefly(k, f)
        else:
            ok = tmc_sync_splitfree(k, f)
    else:
        ok, _ = tmc_async(k, f)
    return _verdict(ok)


def cmd_sat(args: argparse.Namespace) -> int:
    f = parse_formula(_read_inline_or_file(args.formula))
    witness = tsat(f, args.semantics)
    if witness is None:
        print("UNSAT")
        return 1
    print("SAT")
    print(serialize_trace(witness))
    return 0


def cmd_reduce(args: argparse.Namespace) -> int:
    out = Path(args.out)
    if not out.is_dir():
        print(f"ERROR output directory {args.out!r} does not exist")
        return 2
    text = _read_file(args.input)
    if args.kind == "qbf-sync":
        team, g = reduce_qbf_sync(parse_qbf(text))
        files = {"team.txt": serialize_team(team)}
    elif args.kind == "qbf-async-dep":
        team, g = reduce_qbf_async_dep(parse_qbf(text))
        files = {"team.txt": serialize_team(team)}
    elif args.kind == "plsat-mc":
        k, g = reduce_plneg_sat_to_tmc(parse_formula(text))
        files = {"kripke.txt": serialize_kripke(k)}
    else:  # plval-mc-dep
        k, g = reduce_pldep_val_to_tmc(parse_formula(text))
        files = {"kripke.txt": serialize_kripke(k)}
    files["formula.txt"] = render_formula(g) + "\n"
    for name, content in sorted(files.items()):
        target = out / name
        target.write_text(content)
        print(target)
    return 0


def cmd_hyper(args: argparse.Namespace) -> int:
    if args.hyper_cmd == "check":
        sentence = parse_hyper(_read_inline_or_file(args.sentence))
        team = parse_team(_read_file(args.team))
        return _verdict(check_hyper(team, sentence, prefix_cap=args.max_prefix))
    if args.hyper_cmd == "to-hyper":
        f = parse_formula(_read_inline_or_file(args.formula))
        print(render_hyper(ltl_to_forall_hyper(f)))
        return 0
    # from-hyper
    sentence = parse_hyper(_read_inline_or_file(args.sentence))
    print(render_formula(forall_hyper_to_ltl(sentence)))
    return 0


# ---------------------------------------------------------------------------
# argument parsing


def _add_budget_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--max-lcm",
        type=int,
        default=DEFAULT_LIMITS.max_lcm,
        help="cap on the lcm of loop lengths (exit 4 beyond)",
    )
    p.add_argument(
        "--max-team",
        type=int,
        default=DEFAULT_LIMITS.max_split_team,
        help="cap on the team size enumerable by covering splits",
    )
    p.add_argument(
        "--max-grid",
        type=int,
        default=DEFAULT_LIMITS.max_grid,
        help="cap on the asynchronous shift-vector space",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="teamltl",
        description="Check LTL formulas on teams of ultimately periodic traces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check-path", help="check a team file against a formula")
    p.add_argument("--semantics", choices=("sync", "async"), required=True)
    p.add_argument("--formula", required=True, metavar="FORMULA", help="file or inline")
    p.add_argument("--team", required=True, metavar="FILE")
    p.add_argument(
        "--async-engine",
        choices=("flat", "general"),
        default="flat",
        help="flat uses the per-trace shortcut for pure LTL, general always "
        "enumerates shift vectors",
    )
    _add_budget_flags(p)
    p.set_defaults(func=cmd_check_path)

    p = sub.add_parser(
        "check-model", help="check the trace team of a Kripke structure"
    )
    p.add_argument("--semantics", choices=("sync", "async"), required=True)
    p.add_argument("--formula", required=True, metavar="FORMULA", help="file or inline")
    p.add_argument("--kripke", required=True, metavar="FILE")
    p.add_argument(
        "--engine",
        choices=("materialized", "onthefly"),
        default="materialized",
        help="synchronous checking only: build the subset sequence, or run "
        "the product construction without materializing it",
    )
    _add_budget_flags(p)
    p.set_defaults(func=cmd_check_model)

    p = sub.add_parser("sat", help="team satisfiability; prints a witness trace")
    p.add_argument("--semantics", choices=("sync", "async"), required=True)
    p.add_argument("--formula", required=True, metavar="FORMULA", help="file or inline")
    p.set_defaults(func=cmd_sat)

    p = sub.add_parser("reduce", help="emit a hardness-reduction instance")
    p.add_argument(
        "kind", choices=("qbf-sync", "qbf-async-dep", "plsat-mc", "plval-mc-dep")
    )
    p.add_argument("--input", required=True, metavar="FILE")
    p.add_argument("--out", required=True, metavar="DIR")
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("hyper", help="trace-quantified sentences")
    hyper_sub = p.add_subparsers(dest="hyper_cmd", required=True)

    pc = hyper_sub.add_parser("check", help="check a team against a sentence")
    pc.add_argument("--team", required=True, metavar="FILE")
    pc.add_argument(
        "--sentence", required=True, metavar="SENTENCE", help="file or inline"
    )
    pc.add_argument(
        "--max-prefix",
        type=int,
        default=4,
        help="cap on the quantifier prefix length (exit 4 beyond)",
    )
    pc.set_defaults(func=cmd_hyper)

    pt = hyper_sub.add_parser(
        "to-hyper", help="universal-quantifier sentence for a pure LTL formula"
    )
    pt.add_argument("--formula", required=True, metavar="FORMULA", help="file or inline")
    pt.set_defaults(func=cmd_hyper)

    pf = hyper_sub.add_parser(
        "from-hyper", help="pure LTL formula for a single-universal sentence"
    )
    pf.add_argument(
        "--sentence", required=True, metavar="SENTENCE", help="file or inline"
    )
    pf.set_defaults(func=cmd_hyper)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 0 if e.code in (0, None) else 2
    try:
        return args.func(args)
    except BoundExceeded as e:
        print(f"ERROR budget exhausted: {e}")
        return 4
    except (UnsupportedFragment, NotForallFragment) as e:
        print(f"UNSUPPORTED {e}")
        return 3
    except (TeamLTLError, OSError) as e:
        print(f"ERROR {e}")
        return 2
    except RecursionError:
        print("ERROR formula nested too deep")
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
