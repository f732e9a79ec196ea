"""Kripke structures and their concrete syntax.

File syntax, one declaration per line:

    world r { }
    world a { p q }
    edge r a
    edge a a
    init r

`#` starts a comment line.  Every world needs at least one outgoing edge
(the transition relation must be left-total) and exactly one `init` line
naming a declared world.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import MalformedStructure, ParseError
from .traces import PropSet, Team, UPTrace


@dataclass
class KripkeStructure:
    worlds: tuple[str, ...]
    labels: dict[str, PropSet]
    edges: dict[str, tuple[str, ...]]
    init: str

    def successors(self, world: str) -> tuple[str, ...]:
        return self.edges[world]

    def proposition_universe(self) -> frozenset[str]:
        out: set[str] = set()
        for label in self.labels.values():
            out |= label
        return frozenset(out)


def validate_kripke(k: KripkeStructure) -> None:
    """Raise MalformedStructure unless k is well formed and left-total."""
    if k.init not in k.labels:
        raise MalformedStructure(f"initial world {k.init!r} is not declared")
    for world in k.worlds:
        succs = k.edges.get(world, ())
        if not succs:
            raise MalformedStructure(f"world {world!r} has no outgoing edge")
        for succ in succs:
            if succ not in k.labels:
                raise MalformedStructure(f"edge target {succ!r} is not declared")


def parse_kripke(text: str) -> KripkeStructure:
    """Parse the line-based Kripke syntax, validating well-formedness."""
    worlds: list[str] = []
    labels: dict[str, PropSet] = {}
    edges: dict[str, list[str]] = {}
    init: str | None = None
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.replace("{", " { ").replace("}", " } ").split()
        keyword = parts[0]
        if keyword == "world":
            if len(parts) < 4 or parts[2] != "{" or parts[-1] != "}":
                raise ParseError("expected: world NAME { props }", line_no, 1)
            name = parts[1]
            if name in labels:
                raise ParseError(f"world {name!r} declared twice", line_no, 1)
            worlds.append(name)
            labels[name] = frozenset(parts[3:-1])
            edges.setdefault(name, [])
        elif keyword == "edge":
            if len(parts) != 3:
                raise ParseError("expected: edge FROM TO", line_no, 1)
            edges.setdefault(parts[1], []).append(parts[2])
        elif keyword == "init":
            if len(parts) != 2:
                raise ParseError("expected: init NAME", line_no, 1)
            if init is not None:
                raise ParseError("duplicate init line", line_no, 1)
            init = parts[1]
        else:
            raise ParseError(f"unknown declaration {keyword!r}", line_no, 1)
    if init is None:
        raise MalformedStructure("missing init line")
    for source in edges:
        if source not in labels:
            raise MalformedStructure(f"edge source {source!r} is not declared")
    k = KripkeStructure(
        worlds=tuple(worlds),
        labels=labels,
        edges={w: tuple(edges.get(w, ())) for w in worlds},
        init=init,
    )
    validate_kripke(k)
    return k


def serialize_kripke(k: KripkeStructure) -> str:
    lines = []
    for world in k.worlds:
        lines.append(f"world {world} {{ {' '.join(sorted(k.labels[world]))} }}".replace("  ", " "))
    for world in k.worlds:
        for succ in k.edges[world]:
            lines.append(f"edge {world} {succ}")
    lines.append(f"init {k.init}")
    return "\n".join(lines) + "\n"


def _reachable(k: KripkeStructure) -> list[str]:
    seen = {k.init}
    order = [k.init]
    queue = [k.init]
    while queue:
        world = queue.pop(0)
        for succ in k.edges[world]:
            if succ not in seen:
                seen.add(succ)
                order.append(succ)
                queue.append(succ)
    return order


def _worlds_on_cycles(k: KripkeStructure, reachable: set[str]) -> set[str]:
    on_cycle = set()
    for start in sorted(reachable):
        # start lies on a cycle iff it can reach itself in >= 1 step
        frontier = set(k.edges[start]) & reachable
        seen = set(frontier)
        while frontier:
            if start in frontier:
                on_cycle.add(start)
                break
            nxt = set()
            for world in frontier:
                for succ in k.edges[world]:
                    if succ in reachable and succ not in seen:
                        seen.add(succ)
                        nxt.add(succ)
            frontier = nxt
    return on_cycle


def traces_team_finite(k: KripkeStructure) -> Team | None:
    """The team of traces of k when that team is finite, else None.

    The team is finite when no reachable world that lies on a cycle has two
    or more successors: every run then branches only inside an acyclic
    region and closes deterministically into a lasso.
    """
    validate_kripke(k)
    reachable = set(_reachable(k))
    on_cycle = _worlds_on_cycles(k, reachable)
    for world in reachable:
        if world in on_cycle and len(k.edges[world]) >= 2:
            return None

    # depth-first over simple paths from init, each successor list in
    # order; an edge back into the path closes one lasso
    traces: list[UPTrace] = []
    path = [k.init]
    seen_at = {k.init: 0}
    pending = [iter(k.edges[k.init])]
    while pending:
        succ = next(pending[-1], None)
        if succ is None:
            pending.pop()
            del seen_at[path.pop()]
        elif succ in seen_at:
            at = seen_at[succ]
            stem = [k.labels[w] for w in path[:at]]
            cycle = [k.labels[w] for w in path[at:]]
            traces.append(UPTrace(tuple(stem), tuple(cycle)))
        else:
            seen_at[succ] = len(path)
            path.append(succ)
            pending.append(iter(k.edges[succ]))
    return Team(traces)
