"""Ultimately periodic traces and finite teams of them.

A trace is encoded as (prefix, loop): the infinite word prefix . loop^omega
over letters that are sets of propositions.  Teams are finite sets of such
encodings, kept in canonical form so that set equality coincides with
equality of the denoted trace sets.

Team file syntax, one trace per line:

    {p} {p q} ; {r} {}
    ; {q}            # empty prefix, loop of one letter
    # comment lines and blank lines are skipped

Letters are `{...}` with proposition names separated by spaces or commas;
the `;` separates prefix letters from loop letters and the loop must be
non-empty.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator, NamedTuple

from .errors import BoundExceeded, ParseError

PropSet = frozenset[str]

DEFAULT_LCM_CAP = 10**6


class Characteristic(NamedTuple):
    """Stem length and period of an eventually periodic object."""

    stem: int
    period: int


def _primitive_loop(loop: tuple[PropSet, ...]) -> tuple[PropSet, ...]:
    n = len(loop)
    for d in range(1, n + 1):
        if n % d == 0 and loop == loop[:d] * (n // d):
            return loop[:d]
    return loop


def canonicalize(prefix: Iterable[PropSet], loop: Iterable[PropSet]) -> "UPTrace":
    """Shortest encoding of the same trace: primitive loop, minimal prefix."""
    prefix = tuple(frozenset(s) for s in prefix)
    loop = tuple(frozenset(s) for s in loop)
    if not loop:
        raise ValueError("loop must be non-empty")
    loop = _primitive_loop(loop)
    while prefix and prefix[-1] == loop[-1]:
        prefix = prefix[:-1]
        loop = loop[-1:] + loop[:-1]
    return UPTrace(prefix, loop, _checked=True)


@dataclass(frozen=True)
class UPTrace:
    """Canonical encoding of an ultimately periodic trace."""

    prefix: tuple[PropSet, ...]
    loop: tuple[PropSet, ...]

    def __init__(self, prefix=(), loop=(), _checked=False):
        if _checked:
            object.__setattr__(self, "prefix", prefix)
            object.__setattr__(self, "loop", loop)
        else:
            canon = canonicalize(prefix, loop)
            object.__setattr__(self, "prefix", canon.prefix)
            object.__setattr__(self, "loop", canon.loop)
        object.__setattr__(self, "_hash", hash((self.prefix, self.loop)))

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"UPTrace({serialize_trace(self)!r})"


def value_at(trace: UPTrace, i: int) -> PropSet:
    """Letter of the denoted trace at position i."""
    if i < len(trace.prefix):
        return trace.prefix[i]
    return trace.loop[(i - len(trace.prefix)) % len(trace.loop)]


def suffix_encoding(trace: UPTrace, i: int) -> UPTrace:
    """Canonical encoding of the suffix trace starting at position i.

    Positions past the prefix are reduced to their class modulo the loop
    before the cache lookup, so i and i + |loop| share one cache entry;
    `cache_info()` and `cache_clear()` report on and reset that cache.
    """
    p = len(trace.prefix)
    if i > p:
        i = p + (i - p) % len(trace.loop)
    return _suffix_class(trace, i)


@lru_cache(maxsize=1 << 16)
def _suffix_class(trace: UPTrace, i: int) -> UPTrace:
    if i < 0:
        raise ValueError("suffix position must be nonnegative")
    if i == 0:
        return trace
    p = len(trace.prefix)
    if i <= p:
        return UPTrace(trace.prefix[i:], trace.loop)
    r = i - p
    return UPTrace((), trace.loop[r:] + trace.loop[:r])


suffix_encoding.cache_info = _suffix_class.cache_info
suffix_encoding.cache_clear = _suffix_class.cache_clear


class Team:
    """A finite set of canonical trace encodings."""

    __slots__ = ("traces", "_hash")

    def __init__(self, traces: Iterable[UPTrace] = ()):
        self.traces = frozenset(traces)
        self._hash = hash(self.traces)

    def __iter__(self) -> Iterator[UPTrace]:
        return iter(self.traces)

    def __len__(self) -> int:
        return len(self.traces)

    def __contains__(self, t) -> bool:
        return t in self.traces

    def __eq__(self, other) -> bool:
        return isinstance(other, Team) and self.traces == other.traces

    def __hash__(self):
        return self._hash

    def __or__(self, other: "Team") -> "Team":
        return Team(self.traces | other.traces)

    def __repr__(self):
        return f"Team({sorted(map(serialize_trace, self.traces))!r})"


def prfx(team: Team | frozenset) -> int:
    """Largest prefix length in the team; 0 for the empty team."""
    return max((len(t.prefix) for t in team), default=0)


def lcm(team: Team | frozenset, cap: int | None = DEFAULT_LCM_CAP) -> int:
    """Least common multiple of the loop lengths; 1 for the empty team."""
    value = 1
    for t in team:
        value = math.lcm(value, len(t.loop))
        if cap is not None and value > cap:
            raise BoundExceeded(f"team lcm exceeds the cap of {cap}")
    return value


def team_suffix(team: Team, i: int) -> Team:
    """The team of suffixes T[i,oo), as a set of canonical encodings."""
    return Team(suffix_encoding(t, i) for t in team)


# ---------------------------------------------------------------------------
# concrete syntax

def _parse_sets(text: str, line_no: int, what: str) -> list[PropSet]:
    sets: list[PropSet] = []
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c != "{":
            raise ParseError(f"expected '{{' in {what}", line_no, i + 1)
        close = text.find("}", i)
        if close < 0:
            raise ParseError("unterminated '{'", line_no, i + 1)
        body = text[i + 1 : close].replace(",", " ")
        names = body.split()
        for name in names:
            if not (name[0].isalpha() or name[0] == "_") or not all(
                ch.isalnum() or ch == "_" for ch in name
            ):
                raise ParseError(f"bad proposition name {name!r}", line_no, i + 1)
        sets.append(frozenset(names))
        i = close + 1
    return sets


def parse_trace_line(line: str, line_no: int = 1) -> UPTrace:
    if line.count(";") != 1:
        raise ParseError("a trace line needs exactly one ';'", line_no, 1)
    prefix_text, loop_text = line.split(";")
    prefix = _parse_sets(prefix_text, line_no, "the prefix")
    loop = _parse_sets(loop_text, line_no, "the loop")
    if not loop:
        raise ParseError("the loop must contain at least one letter", line_no, len(line))
    return UPTrace(tuple(prefix), tuple(loop))


def parse_team(text: str) -> Team:
    """Parse a team file; canonicalizes and deduplicates member traces."""
    traces = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        traces.append(parse_trace_line(line, line_no))
    return Team(traces)


def _serialize_set(s: PropSet) -> str:
    return "{" + ",".join(sorted(s)) + "}"


@lru_cache(maxsize=1 << 16)
def serialize_trace(trace: UPTrace) -> str:
    prefix = " ".join(_serialize_set(s) for s in trace.prefix)
    loop = " ".join(_serialize_set(s) for s in trace.loop)
    return f"{prefix} ; {loop}".strip()


def serialize_team(team: Team) -> str:
    """Deterministic team file contents; parse_team round-trips it."""
    lines = sorted(serialize_trace(t) for t in team)
    return "\n".join(lines) + ("\n" if lines else "")
