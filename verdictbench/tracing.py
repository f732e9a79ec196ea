"""Per-layer spans, recorded from outside the program.

Each layer is measured by replacing the module attribute through which
the program calls it with a wrapper that records a span: its name, its
duration, and the part of that duration its child spans cover.  Nothing
in the program changes; the wrappers are only installed for a traced run.
"""

from __future__ import annotations

from time import perf_counter


class Tracer:
    def __init__(self):
        self.stack: list[list] = []  # open spans: [name, seconds covered by children]
        self.spans: dict[str, list] = {}  # name -> [calls, seconds, self seconds]
        self.sizes: dict[str, list] = {}  # name -> [samples, total]

    def wrap(self, module, attr: str, name: str, measure=None) -> None:
        original = getattr(module, attr)

        def traced(*args, **kwargs):
            frame = [name, 0.0]
            self.stack.append(frame)
            start = perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                self.stack.pop()
                rec = self.spans.setdefault(name, [0, 0.0, 0.0])
                rec[0] += 1
                rec[1] += elapsed
                rec[2] += elapsed - frame[1]
                if self.stack:
                    self.stack[-1][1] += elapsed
            if measure is not None:
                measure(self, args, result)
            return result

        setattr(module, attr, traced)

    def parent(self) -> str | None:
        return self.stack[-1][0] if self.stack else None

    def add(self, name: str, value: float) -> None:
        rec = self.sizes.setdefault(name, [0, 0])
        rec[0] += 1
        rec[1] += value

    def calls(self, name: str) -> int:
        return self.spans.get(name, [0])[0]

    def seconds(self, name: str) -> float:
        return self.spans.get(name, [0, 0.0])[1]

    def self_seconds(self, name: str) -> float:
        return self.spans.get(name, [0, 0.0, 0.0])[2]

    def mean(self, name: str) -> float:
        samples, total = self.sizes.get(name, [0, 0])
        return total / samples if samples else 0.0


def install(tracer: Tracer, m) -> None:
    """Wrap every layer boundary the workloads cross; `m` holds the modules."""
    fl = m.formula.formula_length

    def nba_size(t, _args, nba):
        t.add("nba_states", len(nba.states))
        t.add("nba_edges", sum(len(e) for e in nba.transitions.values()))

    def product_size(t, args, _found):
        # the searched graph is a product when a model checker called in
        if t.parent() in ("modelcheck.async", "modelcheck.onthefly"):
            t.add("product_states", len(args[1]))

    def reduction_size(t, _args, result):
        team, g = result
        t.add("team_size", len(team))
        t.add("formula_length", fl(g))

    wrap = tracer.wrap
    wrap(m.formula, "parse_formula", "formula.parse")
    wrap(m.traces, "parse_team", "traces.parse")
    wrap(m.kripke, "parse_kripke", "kripke.parse")
    wrap(m.reductions, "parse_qbf", "reductions.parse")
    wrap(m.reductions, "reduce_qbf_sync", "reductions.reduce", reduction_size)
    wrap(m.reductions, "reduce_qbf_async_dep", "reductions.reduce", reduction_size)
    wrap(m.teamcheck, "check_sync", "teamcheck.sync")
    wrap(m.teamcheck, "check_async", "teamcheck.async")
    wrap(m.modelcheck, "tmc_async", "modelcheck.async")
    wrap(m.modelcheck, "tmc_sync_splitfree_onthefly", "modelcheck.onthefly")
    wrap(m.modelcheck, "tmc_sync_splitfree", "modelcheck.materialized")
    for module in (m.teamcheck, m.modelcheck):
        wrap(module, "check_trace", "classical.check_trace")
    for module in (m.classical, m.modelcheck):
        wrap(module, "ltl_to_nba", "classical.nba", nba_size)
        wrap(module, "_emptiness_search", "classical.emptiness", product_size)
