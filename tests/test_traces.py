"""Ultimately periodic traces, canonical encodings and team files."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from teamltl.errors import BoundExceeded, ParseError
from teamltl.traces import (
    Team,
    UPTrace,
    canonicalize,
    lcm,
    parse_team,
    parse_trace_line,
    prfx,
    serialize_team,
    serialize_trace,
    suffix_encoding,
    team_suffix,
    value_at,
)

from .util import teams, up_traces

E = frozenset()
Sp = frozenset({"p"})
Sq = frozenset({"q"})
Spq = frozenset({"p", "q"})


# ---------------------------------------------------------------------------
# canonical form


def test_canonicalize_primitive_loop():
    assert UPTrace((), (Sp, Sp)) == UPTrace((), (Sp,))
    assert UPTrace((), (Sp, Sq, Sp, Sq)) == UPTrace((), (Sp, Sq))
    t = UPTrace((), (Sp, Sq, Sp))
    assert t.loop == (Sp, Sq, Sp)


def test_canonicalize_absorbs_prefix_tail():
    # {q}{p}{p}{p}... == {q} ; {p}
    assert UPTrace((Sq, Sp), (Sp,)) == UPTrace((Sq,), (Sp,))
    # {}{p}{}{p}... == ({} {p}) repeating
    t = UPTrace((E,), (Sp, E))
    assert t.prefix == () and t.loop == (E, Sp)
    # already canonical stays put
    t = UPTrace((Sq,), (Sp,))
    assert t.prefix == (Sq,) and t.loop == (Sp,)


def test_canonicalize_function_matches_constructor():
    assert canonicalize([Sp, Sp], [Sp]) == UPTrace((), (Sp,))


def test_canonicalize_requires_a_loop():
    with pytest.raises(ValueError):
        UPTrace((Sp,), ())


@given(up_traces(), st.integers(0, 3), st.integers(1, 3))
def test_canonical_form_invariant_under_pumping(t, unroll, repeat):
    # unroll some letters off the loop into the prefix and repeat the loop
    rotated = t.loop[unroll % len(t.loop):] + t.loop[: unroll % len(t.loop)]
    prefix = t.prefix + t.loop * (unroll // len(t.loop)) + t.loop[: unroll % len(t.loop)]
    assert UPTrace(prefix, rotated * repeat) == t


@given(up_traces(), st.integers(0, 12))
def test_pumped_encoding_denotes_same_trace(t, i):
    pumped = UPTrace(t.prefix + t.loop, t.loop)
    assert value_at(pumped, i) == value_at(t, i)


# ---------------------------------------------------------------------------
# positions and suffixes


def test_value_at_pinned():
    t = UPTrace((Sp,), (E,))
    assert value_at(t, 0) == Sp
    assert value_at(t, 1) == E
    assert value_at(t, 17) == E
    u = UPTrace((), (Sp, Sq))
    assert [value_at(u, i) for i in range(5)] == [Sp, Sq, Sp, Sq, Sp]


def test_suffix_encoding_pinned():
    t = UPTrace((Sp, Sq), (E, Spq))
    assert suffix_encoding(t, 0) == t
    assert suffix_encoding(t, 1) == UPTrace((Sq,), (E, Spq))
    assert suffix_encoding(t, 2) == UPTrace((), (E, Spq))
    assert suffix_encoding(t, 3) == UPTrace((), (Spq, E))
    assert suffix_encoding(t, 4) == UPTrace((), (E, Spq))


def test_suffix_encoding_caches_position_classes():
    # positions past the prefix that differ by the loop length denote the
    # same suffix and share one cache entry
    t = UPTrace((Sp,), (Sq, E, Spq))
    suffix_encoding.cache_clear()
    first = suffix_encoding(t, 2)
    again = suffix_encoding(t, 2 + 3)
    later = suffix_encoding(t, 2 + 3 * 40)
    assert first == again == later == UPTrace((), (E, Spq, Sq))
    info = suffix_encoding.cache_info()
    assert (info.misses, info.hits, info.currsize) == (1, 2, 1)


def test_suffix_encoding_rejects_negative():
    with pytest.raises(ValueError):
        suffix_encoding(UPTrace((), (E,)), -1)


@given(up_traces(), st.integers(0, 8), st.integers(0, 8))
def test_suffix_encoding_composes(t, i, j):
    assert suffix_encoding(suffix_encoding(t, i), j) == suffix_encoding(t, i + j)


@given(up_traces(), st.integers(0, 8), st.integers(0, 8))
def test_suffix_encoding_agrees_with_value_at(t, i, j):
    assert value_at(suffix_encoding(t, i), j) == value_at(t, i + j)


@given(up_traces(), st.integers(0, 4))
def test_periodicity_beyond_prefix(t, k):
    i = len(t.prefix) + k
    assert suffix_encoding(t, i) == suffix_encoding(t, i + len(t.loop))


# ---------------------------------------------------------------------------
# teams


def test_team_basics():
    a = UPTrace((), (Sp,))
    b = UPTrace((Sq,), (Sp,))
    team = Team([a, b, a])
    assert len(team) == 2
    assert a in team
    assert team == Team([b, a])
    assert Team([a]) | Team([b]) == team


def test_team_dedups_canonically_equal_traces():
    assert len(Team([UPTrace((), (Sp, Sp)), UPTrace((), (Sp,))])) == 1


def test_prfx_and_lcm_conventions():
    assert prfx(Team([])) == 0
    assert lcm(Team([])) == 1
    team = Team([UPTrace((Sp, Sq), (E, Sp)), UPTrace((Sq,), (E, Sp, Sq))])
    assert prfx(team) == 2
    assert lcm(team) == 6


def test_lcm_cap():
    primes = [2, 3, 5, 7, 11, 13]
    members = []
    for n in primes:
        # loop of prime length n: one {p} then n-1 empties (primitive)
        members.append(UPTrace((), tuple([Sp] + [E] * (n - 1))))
    team = Team(members)
    assert lcm(team, cap=None) == 30030
    with pytest.raises(BoundExceeded):
        lcm(team, cap=10_000)


def test_team_suffix_collapses_traces():
    team = Team([UPTrace((Sp,), (E,)), UPTrace((E, Sp), (E,))])
    assert len(team) == 2
    assert team_suffix(team, 2) == Team([UPTrace((), (E,))])


@given(teams(), st.integers(0, 6), st.integers(0, 6))
def test_team_suffix_composes(team, i, j):
    assert team_suffix(team_suffix(team, i), j) == team_suffix(team, i + j)


@given(teams(max_size=3))
def test_team_suffix_periodicity(team):
    i = prfx(team)
    step = lcm(team)
    assert team_suffix(team, i) == team_suffix(team, i + step)
    assert team_suffix(team, i + 3) == team_suffix(team, i + 3 + step)


# ---------------------------------------------------------------------------
# concrete syntax


def test_parse_trace_line():
    assert parse_trace_line("{p} ; {}") == UPTrace((Sp,), (E,))
    assert parse_trace_line("; {p} {q}") == UPTrace((), (Sp, Sq))
    assert parse_trace_line("{p,q} {} ; {q}") == UPTrace((Spq, E), (Sq,))
    assert parse_trace_line("  {p}  ;  {p}  ") == UPTrace((), (Sp,))


def test_parse_trace_line_errors():
    with pytest.raises(ParseError):
        parse_trace_line("{p} {q}")  # no separator
    with pytest.raises(ParseError):
        parse_trace_line("{p} ; ")  # empty loop
    with pytest.raises(ParseError):
        parse_trace_line("{p} ; {q} ; {r}")  # two separators
    with pytest.raises(ParseError):
        parse_trace_line("{p ; {q}")  # unbalanced brace
    with pytest.raises(ParseError):
        parse_trace_line("{1p} ; {q}")  # bad identifier
    with pytest.raises(ParseError):
        parse_trace_line("p ; {q}")  # letters must be brace sets


def test_parse_team_file():
    text = """
    # two traces, one repeated
    {p} ; {}
    ; {q}
    {p} ; {}
    """
    team = parse_team(text)
    assert team == Team([UPTrace((Sp,), (E,)), UPTrace((), (Sq,))])


def test_serialize_trace_pinned():
    assert serialize_trace(UPTrace((Sp,), (E,))) == "{p} ; {}"
    assert serialize_trace(UPTrace((), (Sq, Sp))) == "; {q} {p}"
    assert serialize_trace(UPTrace((Spq,), (Sq,))) == "{p,q} ; {q}"


@given(teams(max_size=4))
def test_team_file_round_trip(team):
    assert parse_team(serialize_team(team)) == team


@given(up_traces())
def test_trace_line_round_trip(t):
    assert parse_trace_line(serialize_trace(t)) == t
