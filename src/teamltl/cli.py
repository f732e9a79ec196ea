"""Command-line interface over all verification and reduction pipelines.

Exit codes: 0 the property holds / the formula is satisfiable; 1 it
fails / is unsatisfiable; 2 usage or input error, or a standard output
whose reader went away; 3 unsupported fragment or open problem; 4 an
evaluation budget ran out.  Verdict lines go to
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
import os
import sys
from pathlib import Path

from .classical import tsat
from .errors import (
    BoundExceeded,
    NotForallFragment,
    TeamLTLError,
    UnsupportedFragment,
)
from .hyper import (
    HYPER_PREFIX_CAP,
    check_hyper,
    forall_hyper_to_ltl,
    ltl_to_forall_hyper,
    parse_hyper,
    render_hyper,
)
from .formula import parse_formula, render_formula
from .kripke import parse_kripke, serialize_kripke
from .modelcheck import tmc_async, tmc_sync_splitfree
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


def _verdict(ok: bool) -> int:
    print("HOLDS" if ok else "FAILS")
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# subcommands


def cmd_check_path(args: argparse.Namespace) -> int:
    if args.semantics == "async" and args.max_lcm is not None:
        print("ERROR --max-lcm caps only synchronous checking")
        return 2
    if args.semantics == "sync" and args.max_grid is not None:
        print("ERROR --max-grid caps only asynchronous checking")
        return 2
    f = parse_formula(_read_inline_or_file(args.formula))
    team = parse_team(_read_file(args.team))
    if args.semantics == "sync":
        max_lcm = DEFAULT_LIMITS.max_lcm if args.max_lcm is None else args.max_lcm
        ok = check_sync(team, f, limits=Limits(max_lcm=max_lcm, max_split_team=args.max_team))
    else:
        max_grid = DEFAULT_LIMITS.max_grid if args.max_grid is None else args.max_grid
        ok = check_async(team, f, limits=Limits(max_split_team=args.max_team, max_grid=max_grid))
    return _verdict(ok)


def cmd_check_model(args: argparse.Namespace) -> int:
    if args.semantics == "async" and args.max_lcm is not None:
        print("ERROR --max-lcm caps only synchronous checking")
        return 2
    f = parse_formula(_read_inline_or_file(args.formula))
    k = parse_kripke(_read_file(args.kripke))
    if args.semantics == "sync":
        max_lcm = DEFAULT_LIMITS.max_lcm if args.max_lcm is None else args.max_lcm
        ok = tmc_sync_splitfree(k, f, limits=Limits(max_lcm=max_lcm))
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


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"{text!r} is not a positive integer")
    return value


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
        "--max-lcm",
        type=_positive_int,
        help="synchronous checking only: cap on the lcm of loop lengths (exit 4 beyond)",
    )
    p.add_argument(
        "--max-team",
        type=_positive_int,
        default=DEFAULT_LIMITS.max_split_team,
        help="cap on the team size enumerable by covering splits",
    )
    p.add_argument(
        "--max-grid",
        type=_positive_int,
        help="asynchronous checking only: cap on the shift-vector space",
    )
    p.set_defaults(func=cmd_check_path)

    p = sub.add_parser(
        "check-model", help="check the trace team of a Kripke structure"
    )
    p.add_argument("--semantics", choices=("sync", "async"), required=True)
    p.add_argument("--formula", required=True, metavar="FORMULA", help="file or inline")
    p.add_argument("--kripke", required=True, metavar="FILE")
    p.add_argument(
        "--max-lcm",
        type=_positive_int,
        help="synchronous checking only: cap on the length of the successor-set "
        "sequence (exit 4 beyond)",
    )
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
        type=_positive_int,
        default=HYPER_PREFIX_CAP,
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
        try:
            code = args.func(args)
        except BrokenPipeError:
            raise  # not an input error: handled below
        except BoundExceeded as e:
            print(f"ERROR budget exhausted: {e}")
            code = 4
        except (UnsupportedFragment, NotForallFragment) as e:
            print(f"UNSUPPORTED {e}")
            code = 3
        except (TeamLTLError, OSError) as e:
            print(f"ERROR {e}")
            code = 2
        except RecursionError:
            print("ERROR formula nested too deep")
            code = 2
        sys.stdout.flush()  # a reader that went away shows here, not at exit
    except BrokenPipeError:
        # nothing more can be reported; the interpreter's last flush of
        # standard output goes to the null device instead of failing again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 2
    return code


if __name__ == "__main__":
    raise SystemExit(main())
