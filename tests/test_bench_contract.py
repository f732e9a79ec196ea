"""The names the benchmark reaches the program through.

`verdictbench/tracing.py` wraps module attributes by name for a traced
run, and `verdictbench/run.py` calls them as `m.<module>.<name>`.  A
refactor that renames or drops one of them breaks the benchmark only
when it runs; these tests catch it in the unit suite.
"""

from __future__ import annotations

import importlib.util
import re
import types
from pathlib import Path

from teamltl import classical, formula, kripke, modelcheck, reductions, teamcheck, traces

BENCH = Path(__file__).resolve().parent.parent / "verdictbench"
MODULES = {
    m.__name__.rsplit(".", 1)[1]: m
    for m in (formula, traces, kripke, classical, teamcheck, modelcheck, reductions)
}


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", BENCH / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracing_wraps_names_that_exist():
    tracing = _load_tracing()
    # copies, so that the real modules are never patched
    copies = {name: types.SimpleNamespace(**vars(m)) for name, m in MODULES.items()}
    tracing.install(tracing.Tracer(), types.SimpleNamespace(**copies))  # getattr on each name
    wrapped = {
        (name, attr)
        for name, copy in copies.items()
        for attr, value in vars(copy).items()
        if value is not getattr(MODULES[name], attr)
    }
    assert ("modelcheck", "tmc_sync_splitfree_onthefly") in wrapped
    assert ("modelcheck", "_emptiness_search") in wrapped
    assert ("teamcheck", "check_trace") in wrapped
    for name, attr in wrapped:
        assert callable(getattr(MODULES[name], attr))
        assert getattr(MODULES[name], attr).__module__.startswith("teamltl.")


def test_run_calls_names_that_exist():
    source = (BENCH / "run.py").read_text()
    calls = set(re.findall(r"\bm\.(\w+)\.(\w+)", source))
    assert ("modelcheck", "tmc_sync_splitfree_onthefly") in calls
    for name, attr in calls:
        assert callable(getattr(MODULES[name], attr)), f"m.{name}.{attr}"
