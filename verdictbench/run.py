"""Closed-loop verdict benchmark for teamltl.

    python3 verdictbench/run.py --workload qbf-sync --seed 1 --seconds 25 --trace 0

One process, one thread: operations are decided one at a time, each
handed to the program only after the previous verdict is back and has
been checked against the reference evaluators.  The run repeats whole
rounds of operations until --seconds have passed.  The last line of
stdout is one JSON object: the end-to-end metrics with --trace 0, the
per-layer metrics with --trace 1.  A wrong verdict ends the run with
exit code 1.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

import reference as ref
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RESULTS = Path(__file__).resolve().parent / "results"
NO_BYTECODE = RESULTS / "no-bytecode"  # never created
SETUP_REPEATS = 11
MODULES = ("formula", "traces", "kripke", "classical", "teamcheck", "modelcheck", "reductions")


def import_teamltl():
    """Import teamltl afresh from this checkout's src/ and return its modules.

    Every module is compiled from its source: bytecode is looked up under a
    directory that is never created, and none is written, so a __pycache__
    left by an earlier run or by the tests does not change the set-up time.
    """
    for name in [n for n in sys.modules if n == "teamltl" or n.startswith("teamltl.")]:
        del sys.modules[name]
    saved = sys.pycache_prefix, sys.dont_write_bytecode
    sys.pycache_prefix, sys.dont_write_bytecode = str(NO_BYTECODE), True
    try:
        pkg = importlib.import_module("teamltl")
    finally:
        sys.pycache_prefix, sys.dont_write_bytecode = saved
    if Path(pkg.__file__).resolve().parent != SRC / "teamltl":
        raise ImportError(f"teamltl was imported from {pkg.__file__}, not from {SRC}")
    return SimpleNamespace(**{name: sys.modules[f"teamltl.{name}"] for name in MODULES})


def parse_case(m, case):
    parsers = {
        "qbf": m.reductions.parse_qbf,
        "team": m.traces.parse_team,
        "formula": m.formula.parse_formula,
        "kripke": m.kripke.parse_kripke,
    }
    return {what: parsers[what](text) for what, text in case.texts.items()}


def decide(m, kind, x):
    """The timed operation: hand one instance to the program, get its verdict."""
    if kind == "qbf_sync":
        return m.teamcheck.check_sync(*m.reductions.reduce_qbf_sync(x["qbf"]))
    if kind == "qbf_async":
        return m.teamcheck.check_async(*m.reductions.reduce_qbf_async_dep(x["qbf"]))
    if kind == "sync":
        return m.teamcheck.check_sync(x["team"], x["formula"])
    if kind == "async":
        return m.teamcheck.check_async(x["team"], x["formula"])
    if kind == "tsat":
        return m.classical.tsat(x["formula"], "sync")
    if kind == "tmc_async":
        return m.modelcheck.tmc_async(x["kripke"], x["formula"])
    if kind == "tmc_onthefly":
        return m.modelcheck.tmc_sync_splitfree_onthefly(x["kripke"], x["formula"])
    if kind == "tmc_materialized":
        return m.modelcheck.tmc_sync_splitfree(x["kripke"], x["formula"])
    raise ValueError(kind)


def verdict_ok(case, verdict) -> bool:
    d = case.data
    if case.kind in ("qbf_sync", "qbf_async"):
        return verdict is d["truth"]
    if case.kind in ("sync", "async", "tmc_onthefly", "tmc_materialized"):
        return verdict is d["holds"]
    if case.kind == "tsat":
        if d["unsat"]:
            return verdict is None
        # a witness must satisfy the formula; UNSAT is only expected where
        # the benchmark built the formula unsatisfiable
        return verdict is not None and ref.trace_holds(d["f"], (verdict.prefix, verdict.loop))
    if case.kind == "tmc_async":
        holds, witness = verdict
        if holds:
            return not d["finite"] or all(
                ref.trace_holds(d["f"], t) for t in ref.finite_traces(d["kripke"]))
        lasso = (witness.stem, witness.cycle)
        return ref.is_run(d["kripke"], lasso) and not ref.trace_holds(d["f"], lasso)
    raise ValueError(case.kind)


def nearest_rank(sorted_values, percentile: int) -> float:
    return sorted_values[math.ceil(percentile / 100 * len(sorted_values)) - 1]


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    cases = workloads.make_round(workload, seed, 0)
    if trace:
        m = import_teamltl()
        tracer = tracing.Tracer()
        tracing.install(tracer, m)
        parsed = [parse_case(m, c) for c in cases]
        parse_seconds = {name: tracer.seconds(name) for name in tracer.spans}
        setup_s = None
    else:
        setups = []
        for _ in range(SETUP_REPEATS):
            start = perf_counter()
            m = import_teamltl()
            parsed = [parse_case(m, c) for c in cases]
            setups.append(perf_counter() - start)
        setup_s = statistics.median(setups)

    suffix0 = m.traces.suffix_encoding.cache_info()
    serialize0 = m.traces.serialize_trace.cache_info()
    durations = []
    round_seconds = []
    attempted = failed = rounds = 0
    need = workloads.min_decided(workload)
    gc.collect()
    begin = perf_counter()
    while True:
        for case, inputs in zip(cases, parsed):
            attempted += 1
            start = perf_counter()
            try:
                verdict = decide(m, case.kind, inputs)
            except Exception as exc:
                # only an operation marked with the error it is known to raise
                # may fail; it is counted, and the run goes on
                if type(exc).__name__ != case.data.get("raises"):
                    print(f"UNEXPECTED {type(exc).__name__}: {exc} from {case.kind} on {case.texts}",
                          file=sys.stderr)
                    return {"correct": False, "attempted": attempted, "failed": failed, "metrics": {}}
                failed += 1
                continue
            durations.append(perf_counter() - start)
            if not verdict_ok(case, verdict):
                print(f"WRONG verdict {verdict!r} for {case.kind} on {case.texts}", file=sys.stderr)
                return {"correct": False, "attempted": attempted, "failed": failed, "metrics": {}}
        rounds += 1
        round_seconds.append(sum(durations) - sum(round_seconds))
        if perf_counter() - begin >= seconds and len(durations) >= need:
            break
        cases = workloads.make_round(workload, seed, rounds)
        parsed = [parse_case(m, c) for c in cases]
        gc.collect()

    timed = sum(durations)
    ordered = sorted(durations)
    tail_pct = workloads.WORKLOADS[workload].tail_percentile
    end_to_end = {
        "verdicts_per_s": {"value": len(durations) / timed, "unit": "1/s"},
        "verdict_ms_p50": {"value": statistics.median(ordered) * 1000, "unit": "ms"},
        "verdict_ms_tail": {"value": nearest_rank(ordered, tail_pct) * 1000, "unit": "ms"},
        "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "unit": "MB"},
    }
    result = {"correct": True, "attempted": attempted, "failed": failed}
    info = {"workload": workload, "seed": seed, "rounds": rounds, "decided": len(durations),
            "timed_s": timed, "round_seconds": round_seconds, "tail_percentile": tail_pct}
    if trace:
        suffix = m.traces.suffix_encoding.cache_info()
        serialize = m.traces.serialize_trace.cache_info()
        layers = per_layer(tracer, parse_seconds, attempted, suffix0, suffix, serialize0, serialize)
        result["metrics"] = layers
        info["traced_end_to_end"] = end_to_end
        info["spans"] = {name: {"calls": c, "ms": s * 1000, "self_ms": own * 1000}
                         for name, (c, s, own) in sorted(tracer.spans.items())}
    else:
        end_to_end["setup_s"] = {"value": setup_s, "unit": "s"}
        result["metrics"] = end_to_end
    RESULTS.mkdir(exist_ok=True)
    out = RESULTS / f"{workload}-seed{seed}-trace{int(trace)}.json"
    out.write_text(json.dumps({**result, **info}, indent=1) + "\n")
    return result


def per_layer(t, parse_seconds, ops, suffix0, suffix, serialize0, serialize) -> dict:
    def per_op_ms(name):
        return t.seconds(name) * 1000 / ops

    suffix_hits = suffix.hits - suffix0.hits
    suffix_calls = suffix_hits + suffix.misses - suffix0.misses
    serialize_calls = serialize.hits + serialize.misses - serialize0.hits - serialize0.misses
    values = {
        "formula.parse_ms": (parse_seconds.get("formula.parse", 0.0) * 1000, "ms"),
        "traces.parse_ms": (parse_seconds.get("traces.parse", 0.0) * 1000, "ms"),
        "kripke.parse_ms": (parse_seconds.get("kripke.parse", 0.0) * 1000, "ms"),
        "reductions.parse_ms": (parse_seconds.get("reductions.parse", 0.0) * 1000, "ms"),
        "traces.suffix_calls": (suffix_calls / ops, "1/op"),
        "traces.suffix_hit_ratio": (suffix_hits / suffix_calls if suffix_calls else 0.0, "ratio"),
        "traces.serialize_calls": (serialize_calls / ops, "1/op"),
        "classical.check_trace_calls": (t.calls("classical.check_trace") / ops, "1/op"),
        "classical.check_trace_ms": (per_op_ms("classical.check_trace"), "ms/op"),
        "classical.nba_ms": (per_op_ms("classical.nba"), "ms/op"),
        "classical.nba_states": (t.mean("nba_states"), "count"),
        "classical.nba_edges": (t.mean("nba_edges"), "count"),
        "classical.emptiness_ms": (per_op_ms("classical.emptiness"), "ms/op"),
        "classical.product_states": (t.mean("product_states"), "count"),
        "teamcheck.sync_self_ms": (t.self_seconds("teamcheck.sync") * 1000 / ops, "ms/op"),
        "teamcheck.async_self_ms": (t.self_seconds("teamcheck.async") * 1000 / ops, "ms/op"),
        "reductions.reduce_ms": (per_op_ms("reductions.reduce"), "ms/op"),
        "reductions.team_size": (t.mean("team_size"), "count"),
        "reductions.formula_length": (t.mean("formula_length"), "count"),
        "modelcheck.onthefly_ms": (per_op_ms("modelcheck.onthefly"), "ms/op"),
        "modelcheck.materialized_ms": (per_op_ms("modelcheck.materialized"), "ms/op"),
        "modelcheck.async_ms": (per_op_ms("modelcheck.async"), "ms/op"),
    }
    return {name: {"value": v, "unit": unit} for name, (v, unit) in values.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(SRC))
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except ImportError as exc:
        print(f"cannot import teamltl from {SRC}: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
