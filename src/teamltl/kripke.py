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

from .errors import BoundExceeded, MalformedStructure, ParseError
from .traces import PropSet, Team, UPTrace

MAX_FINITE_TRACES = 2**16


@dataclass
class KripkeStructure:
    worlds: tuple[str, ...]
    labels: dict[str, PropSet]
    edges: dict[str, tuple[str, ...]]
    init: str


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


def _worlds_on_cycles(k: KripkeStructure) -> set[str]:
    """The worlds reachable from k.init that lie on a cycle.

    One iterative pass of Tarjan's strongly connected components: a world
    lies on a cycle iff its component has two or more worlds or the world
    has an edge to itself.
    """
    index: dict[str, int] = {k.init: 0}
    low = dict(index)
    stack, on_stack = [k.init], {k.init}
    on_cycle: set[str] = set()
    walk = [(k.init, iter(k.edges[k.init]))]
    while walk:
        world, succs = walk[-1]
        succ = next(succs, None)
        if succ is None:
            walk.pop()
            if walk:
                parent = walk[-1][0]
                low[parent] = min(low[parent], low[world])
            if low[world] == index[world]:
                component = [stack.pop()]
                while component[-1] != world:
                    component.append(stack.pop())
                on_stack.difference_update(component)
                if len(component) > 1 or world in k.edges[world]:
                    on_cycle.update(component)
        elif succ not in index:
            index[succ] = low[succ] = len(index)
            stack.append(succ)
            on_stack.add(succ)
            walk.append((succ, iter(k.edges[succ])))
        elif succ in on_stack:
            low[world] = min(low[world], index[succ])
    return on_cycle


def traces_team_finite(k: KripkeStructure) -> Team | None:
    """The team of traces of k when that team is finite, else None.

    The team is finite when no reachable world that lies on a cycle has two
    or more successors: every run then branches only inside an acyclic
    region and closes deterministically into a lasso.  Raises
    BoundExceeded once the team holds more than MAX_FINITE_TRACES traces.
    """
    validate_kripke(k)
    if any(len(k.edges[world]) >= 2 for world in _worlds_on_cycles(k)):
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
            if len(traces) > MAX_FINITE_TRACES:
                raise BoundExceeded(
                    f"trace team holds more than MAX_FINITE_TRACES = "
                    f"{MAX_FINITE_TRACES} traces"
                )
        else:
            seen_at[succ] = len(path)
            path.append(succ)
            pending.append(iter(k.edges[succ]))
    return Team(traces)
