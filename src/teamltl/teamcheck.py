"""Path checking for teams of traces, synchronous and asynchronous.

Synchronous semantics moves all traces in lockstep: temporal operators
quantify one global shift k, bounded by prfx(T) + lcm(T) because the team
of suffixes repeats beyond that.  Asynchronous semantics gives each trace
its own shift; temporal operators quantify vectors of per-trace shifts,
each bounded by that trace's own |prefix| + |loop| suffix classes.

For Until and Release the asynchronous side conditions are evaluated per
trace on singleton teams: `a U b` needs one shift vector whose shifted
team satisfies b while every strictly earlier suffix of each trace
satisfies a on its own.  This is the unique reading compatible with
flatness of pure LTL (per-vector side conditions, whether strictly or
partially smaller, both yield wrong answers on teams mixing shift 0 with
positive shifts).

Splitjunction enumerates subteam pairs.  For downward-closed formulas it
is enough to consider partitions (DisjointOnly); a trace can go to a part
only if the part's formula holds on the singleton, and a partially built
part that already fails its formula can never recover — both prunings are
licensed by downward closure.  So is absorption: a part that is pure and
flat holds on any set of traces that each satisfy it, so in a
downward-closed formula every trace such a part admits is placed there
and only the others are searched.  This pruned search runs on
downward-closed formulas only.  With contradictory negation in scope the
semantics-faithful mode enumerates all covers (AllCovers), including
overlapping ones, and a forced DisjointOnly there enumerates every
partition; both enumerations are capped by `Limits.max_split_team`.

Both engines compute on integers.  Each call first interns every
member's |prefix| + |loop| canonical suffixes into one table, the trace
universe, which is closed under shift.  Universe ids are numbered in
`serialize_trace` order, and per-id tables hold the successor id (the
suffix one step on), the first letter, and the prefix and loop lengths.
A team is an int bitmask over the universe, so a shift maps bits through
the successor table, subteams are submasks, and iterating a mask's bits
from low to high visits members in serialised order, the order atoms and
split search see.  Formula nodes are hash-consed once by an iterative
walk (structurally equal subformulas share one number), with their pure
and flat flags in arrays, and the memo is keyed by (mask, node).  Every
pure node's value on every universe trace comes from one
`classical.node_values` pass over the successor graph at construction,
kept as the mask of ids that satisfy it; per-trace checks are then one
mask test.

The sync engine decides F, G, U and R over pure flat operands without
walking the shifts (the shift-and idea of Baeza-Yates and Gonnet, CACM
1992, applied to the lockstep team).  A member's signature for a node is
the int whose bit k says whether its k-th suffix satisfies the node,
built from its orbit: the prefix bits, then the loop bits repeated up to
prfx + lcm.  The team satisfies a flat node at shift k iff every member
does, so the AND of the members' signatures marks the shifts where it
holds, and the operator reads its verdict off the lowest bits.

The async engine quantifies a static body, built from literals, dep
atoms, `&`, `~` and lax splits, over sets of first letters instead of
shifted teams: such a body reads only its team's letter set, since lax
splits are local (Galliani, APAL 2012).  A split is lax under AllCovers,
or when f is downward closed and strict splits agree with lax ones
(Väänänen 2007); a forced strict split counts members, and so may a
generalised atom's predicate, so neither is static.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import reduce
from itertools import product
from operator import and_
from typing import Callable

from .classical import (
    _AND,
    _DEP,
    _F,
    _GEN,
    _NEG,
    _NEXT,
    _NOT,
    _POS,
    _SPLIT,
    _U,
    _Nodes,
    check_trace,
    node_values,
)
from .errors import BoundExceeded, DuplicateName, UnknownAtom, VectorSpaceExceeded
from .formula import Formula, fragment_info
from .traces import PropSet, Team, serialize_trace, suffix_encoding


# ---------------------------------------------------------------------------
# generalised atoms


@dataclass(frozen=True)
class GenAtomDef:
    """A registered team atom.

    `predicate` receives the first-position letters of the team's traces
    (deterministically ordered; it must not depend on the order) and the
    proposition arguments from the formula occurrence.  `downward_closed`
    and `singleton_trivial` are declared by the registrant and gate the
    optimisations that rely on them.
    """

    name: str
    arity: int | None
    predicate: Callable[[list[PropSet], tuple[str, ...]], bool]
    downward_closed: bool = False
    singleton_trivial: bool = False


class AtomRegistry:
    """Immutable-after-setup mapping from atom names to definitions."""

    def __init__(self, defs=()):
        self._defs: dict[str, GenAtomDef] = {}
        for defn in defs:
            self.register(defn)

    def register(self, defn: GenAtomDef) -> "AtomRegistry":
        if defn.name in self._defs:
            raise DuplicateName(f"atom {defn.name!r} is already registered")
        self._defs[defn.name] = defn
        return self

    def get(self, name: str) -> GenAtomDef | None:
        return self._defs.get(name)

    def __contains__(self, name: str) -> bool:
        return name in self._defs

    def names(self) -> tuple[str, ...]:
        return tuple(sorted(self._defs))


def register_gen_atom(defn: GenAtomDef, registry: AtomRegistry | None = None) -> AtomRegistry:
    """Add a definition to a registry (a fresh one when none is given)."""
    if registry is None:
        registry = AtomRegistry()
    return registry.register(defn)


def eval_dep_atom(first_letters, determinants, determined) -> bool:
    """dep(determinants; determined) on a list of first-position letters.

    True iff any two entries that agree on membership of every determinant
    also agree on every determined proposition.
    """
    groups: dict[tuple[bool, ...], tuple[bool, ...]] = {}
    for letter in first_letters:
        key = tuple(p in letter for p in determinants)
        val = tuple(p in letter for p in determined)
        seen = groups.get(key)
        if seen is None:
            groups[key] = val
        elif seen != val:
            return False
    return True


def constancy_atom_def(name: str = "constant") -> GenAtomDef:
    """A ready-made generalised atom equivalent to dep(; args)."""

    def predicate(first_letters, args):
        return eval_dep_atom(first_letters, (), args)

    return GenAtomDef(
        name=name,
        arity=None,
        predicate=predicate,
        downward_closed=True,
        singleton_trivial=True,
    )


# ---------------------------------------------------------------------------
# evaluation configuration


class SplitMode(Enum):
    DISJOINT_ONLY = "disjoint"
    ALL_COVERS = "covers"


@dataclass(frozen=True)
class Limits:
    """Resource caps; exceeding one raises, never silently degrades."""

    max_lcm: int = 10**6
    max_split_team: int = 12
    max_grid: int = 10**7


DEFAULT_LIMITS = Limits()


# ---------------------------------------------------------------------------
# engines


def _mask(values: list[bool]) -> int:
    """The int whose bit u is values[u], built in linear time."""
    return int("0" + "".join(["1" if x else "0" for x in reversed(values)]), 2)


class _Engine:
    """Shared machinery: trace universe, memoisation, splits, atoms."""

    def __init__(self, team, f: Formula, atoms, limits: Limits, mode: SplitMode, closed: bool):
        self.atoms = atoms
        self.limits = limits
        self.mode = mode
        self.closed = closed  # f is syntactically downward closed
        # the pruned partition search is sound on downward-closed f only
        self.pruned = mode is SplitMode.DISJOINT_ONLY and closed
        self.nodes = _Nodes(f)
        # shortcut[n]: node n holds on a team iff it holds on every member
        self.shortcut = [p and fl for p, fl in zip(self.nodes.pure, self.nodes.flat)]
        self.memo: list[dict[int, bool]] = [{} for _ in range(len(self.nodes))]
        self._members: dict[int, list[int]] = {}
        self._next: dict[int, int] = {}
        self._orbits: dict[int, list[int]] = {}
        self._intern(team)
        # holds[n]: the mask of the universe ids whose trace satisfies
        # pure node n (None for the other nodes)
        self.holds = [
            None if v is None else _mask(v)
            for v in node_values(self.nodes, self.succ, self.letter, self.nodes.pure)
        ]

    def _intern(self, team) -> None:
        """Build the trace universe and the mask of the team itself."""
        index: dict = {}  # canonical suffix -> provisional id
        orbits = []  # (member's prefix length, provisional ids of its suffixes)
        for t in team:
            ids = [
                index.setdefault(suffix_encoding(t, k), len(index))
                for k in range(len(t.prefix) + len(t.loop))
            ]
            orbits.append((len(t.prefix), ids))
        suffixes = list(index)
        order = sorted(range(len(suffixes)), key=lambda i: serialize_trace(suffixes[i]))
        rank = [0] * len(order)
        for r, i in enumerate(order):
            rank[i] = r
        ordered = [suffixes[i] for i in order]
        self.letter = [(s.prefix or s.loop)[0] for s in ordered]
        self.prefix_len = [len(s.prefix) for s in ordered]
        self.loop_len = [len(s.loop) for s in ordered]
        succ = [0] * len(order)
        self.team = 0
        for start, ids in orbits:
            ids = [rank[i] for i in ids]
            for k, u in enumerate(ids):
                succ[u] = ids[k + 1] if k + 1 < len(ids) else ids[start]
            self.team |= 1 << ids[0]
        self.succ = succ
        self._succ_bit = [1 << v for v in succ]

    # masks ------------------------------------------------------------------

    def members(self, mask: int) -> list[int]:
        """Universe ids in the mask, ascending, i.e. in serialised order."""
        got = self._members.get(mask)
        if got is None:
            got = []
            rest = mask
            while rest:
                low = rest & -rest
                got.append(low.bit_length() - 1)
                rest ^= low
            self._members[mask] = got
        return got

    def shift(self, mask: int) -> int:
        """The team of one-step suffixes."""
        got = self._next.get(mask)
        if got is None:
            got = 0
            succ_bit = self._succ_bit
            rest = mask
            while rest:
                low = rest & -rest
                got |= succ_bit[low.bit_length() - 1]
                rest ^= low
            self._next[mask] = got
        return got

    def orbit(self, u: int) -> list[int]:
        """Ids of trace u's |prefix| + |loop| suffixes, by shift."""
        got = self._orbits.get(u)
        if got is None:
            got = [u]
            for _ in range(self.prefix_len[u] + self.loop_len[u] - 1):
                got.append(self.succ[got[-1]])
            self._orbits[u] = got
        return got

    # evaluation ---------------------------------------------------------------

    def eval(self, mask: int, n: int) -> bool:
        nodes = self.nodes
        if self.shortcut[n] or (nodes.pure[n] and not mask & (mask - 1)):
            return mask & self.holds[n] == mask
        memo = self.memo[n]
        got = memo.get(mask)
        if got is not None:
            return got
        kind = nodes.kind[n]
        if kind == _AND:
            result = self.eval(mask, nodes.lhs[n]) and self.eval(mask, nodes.rhs[n])
        elif kind == _SPLIT:
            result = self.split_value(mask, n)
        elif kind == _NEXT:
            result = self.eval(self.shift(mask), nodes.rhs[n])
        elif kind == _NOT:
            result = not self.eval(mask, nodes.rhs[n])
        elif kind in (_DEP, _GEN):
            result = self.atom_value(mask, n)
        else:  # literals always take the per-trace shortcut
            result = self.temporal(mask, n)
        memo[mask] = result
        return result

    def temporal(self, mask: int, n: int) -> bool:  # overridden
        raise NotImplementedError

    def atom_value(self, mask: int, n: int) -> bool:
        g = self.nodes.formula[n]
        letters = [self.letter[u] for u in self.members(mask)]
        if self.nodes.kind[n] == _DEP:
            return eval_dep_atom(letters, g.determinants, g.determined)
        defn = self.atoms.get(g.name) if self.atoms is not None else None
        if defn is None:
            raise UnknownAtom(f"generalised atom {g.name!r} is not registered")
        return bool(defn.predicate(letters, g.args))

    # splits -------------------------------------------------------------------

    def split_value(self, mask: int, n: int) -> bool:
        if self.pruned:
            return self._split_disjoint(mask, self.nodes.parts(n))
        return self._split_enumerate(mask, self.nodes.lhs[n], self.nodes.rhs[n])

    def _split_disjoint(self, mask: int, parts: list[int]) -> bool:
        # Assign every trace to exactly one part; f is downward closed, so
        # this search is sound and complete: singleton failure rules a part
        # out for a trace, and a partial part that fails can never be
        # repaired by adding more traces.  A shortcut part holds on any set
        # of members that each satisfy it, and a downward-closed part stays
        # true when a member leaves it, so every member a shortcut part
        # admits goes to the first such part; only the others are searched.
        acc = [0] * len(parts)
        rest = mask
        for i, p in enumerate(parts):
            if self.shortcut[p]:
                acc[i] = rest & self.holds[p]
                rest ^= acc[i]
        members = self.members(rest)
        pure, holds = self.nodes.pure, self.holds
        candidates = []
        for u in members:
            bit = 1 << u
            cand = [
                i
                for i, p in enumerate(parts)
                if (holds[p] & bit if pure[p] else self.eval(bit, p))
            ]
            if not cand:
                return False
            candidates.append(cand)
        # traces with a single admissible part are placed up front, and each
        # such core is checked once; traces with a real choice are assigned
        # by backtracking with incremental checks on the growing parts
        for u, cand in zip(members, candidates):
            if len(cand) == 1:
                acc[cand[0]] |= 1 << u
        for i, core in enumerate(acc):
            if core and not self.eval(core, parts[i]):
                return False
        # fewest choices first, ties in serialised order
        flexible = sorted(
            ((len(cand), u, cand) for u, cand in zip(members, candidates) if len(cand) > 1)
        )

        def assign(idx: int) -> bool:
            if idx == len(flexible):
                # parts left empty must hold on the empty team
                return all(self.eval(0, parts[i]) for i in range(len(parts)) if not acc[i])
            _, u, cand = flexible[idx]
            for i in cand:
                previous = acc[i]
                grown = previous | (1 << u)
                if self.eval(grown, parts[i]):
                    acc[i] = grown
                    if assign(idx + 1):
                        return True
                    acc[i] = previous
            return False

        return assign(0)

    def _split_enumerate(self, mask: int, lhs: int, rhs: int) -> bool:
        """Try every partition (DisjointOnly) or every cover (AllCovers)."""
        members = self.members(mask)
        n = len(members)
        covers = self.mode is SplitMode.ALL_COVERS
        if n > self.limits.max_split_team:
            raise BoundExceeded(
                f"{'cover' if covers else 'partition'} enumeration over {n} traces "
                f"exceeds the cap of {self.limits.max_split_team}"
            )
        # members are distinct, so every side vector gives a distinct split
        bits = [1 << u for u in members]
        choices = (0, 1, 2) if covers else (0, 1)  # left, right, both
        for sides in product(choices, repeat=n):
            left = right = 0
            for bit, side in zip(bits, sides):
                if side != 1:
                    left |= bit
                if side != 0:
                    right |= bit
            if self.eval(left, lhs) and self.eval(right, rhs):
                return True
        return False


class _SyncEngine(_Engine):
    def __init__(self, *args):
        super().__init__(*args)
        # length -> mask of the universe ids with that loop / prefix length
        self._loops = self._by_length(self.loop_len)
        self._prefixes = self._by_length(self.prefix_len)
        self._sigs: dict[tuple[int, int, int], int] = {}

    @staticmethod
    def _by_length(lengths: list[int]) -> dict[int, int]:
        masks: dict[int, int] = {}
        for u, length in enumerate(lengths):
            masks[length] = masks.get(length, 0) | 1 << u
        return masks

    def bound(self, mask: int) -> int:
        loops = math.lcm(*(n for n, m in self._loops.items() if mask & m))
        if self.limits.max_lcm is not None and loops > self.limits.max_lcm:
            raise BoundExceeded(f"loop lcm exceeds the cap of {self.limits.max_lcm}")
        return max((n for n, m in self._prefixes.items() if mask & m), default=0) + loops

    def sig(self, n: int, u: int, width: int) -> int:
        """Bit k says whether the k-th suffix of trace u satisfies node n."""
        key = (n, u, width)
        got = self._sigs.get(key)
        if got is None:
            holds, start = self.holds[n], self.prefix_len[u]
            text = "".join(["1" if holds >> v & 1 else "0" for v in self.orbit(u)])
            text = text[:start] + text[start:] * ((width - start) // self.loop_len[u] + 1)
            got = self._sigs[key] = int(text[width - 1 :: -1], 2)
        return got

    def temporal(self, mask: int, n: int) -> bool:
        """F, G, U and R over the lockstep shifts 0..prfx+lcm.

        `a U b` holds iff b holds at some shift k and a holds at every
        shift before k; `a R b` fails iff b fails at some shift k and a
        fails at every shift before k.  Both look for a shift where b
        equals `target` with a equal to `target` before it; F and G have
        no a.  When the operands are shortcut nodes, a team satisfies
        them at shift k iff every member's k-th suffix does, so the
        search is a bitwise AND of the members' signatures.  Otherwise a
        is evaluated only once b has settled at a later shift, and at
        each shift once, so the (team, node) pairs evaluated are those
        of the direct reading of the definitions.
        """
        nodes = self.nodes
        a, b = nodes.lhs[n], nodes.rhs[n]
        target = nodes.kind[n] in (_F, _U)
        bound = self.bound(mask)
        if self.shortcut[b] and (a is None or self.shortcut[a]):
            width = bound + 1
            window = (1 << width) - 1
            flip = 0 if target else window
            members = self.members(mask)

            def at_target(m: int) -> int:  # the shifts where m equals target
                return flip ^ reduce(and_, [self.sig(m, u, width) for u in members], window)

            hit = at_target(b)
            if a is not None:
                ok = at_target(a)  # shifts 0..z qualify, z its lowest zero bit
                hit &= (((ok + 1) & ~ok) << 1) - 1
            return (hit != 0) == target
        shifted = earlier = mask
        checked = 0  # a == target at shifts 0..checked-1
        blocked = False  # a != target at shift `checked`
        for k in range(bound + 1):
            if self.eval(shifted, b) == target and not blocked:
                while a is not None and checked < k:
                    if self.eval(earlier, a) != target:
                        blocked = True
                        break
                    checked += 1
                    earlier = self.shift(earlier)
                if not blocked:
                    return target
            shifted = self.shift(shifted)
        return not target


class _AsyncEngine(_Engine):
    def __init__(self, *args):
        super().__init__(*args)
        # flatness: pure LTL holds on a team iff on every trace
        self.shortcut = list(self.nodes.pure)
        self._orbit_memo: list[dict[int, bool]] = [{} for _ in range(len(self.nodes))]
        # Phase-blind team keys.  F and G quantify over all shift vectors,
        # so their value on a team is unchanged when members are replaced
        # by other suffixes of themselves; memoising on the multiset of
        # member orbits collapses all those phase variants into one
        # computation.  A trace with a prefix is alone in its orbit, and
        # the rotations of one loop share theirs.  Each orbit gets a bit
        # field wide enough to count its members, and a team's key is the
        # sum of its members' field units.
        self._orbit_unit = [0] * len(self.succ)
        offset = 0
        for u in range(len(self.succ)):
            if self._orbit_unit[u]:
                continue
            cycle = [u] if self.prefix_len[u] else self.orbit(u)
            for v in cycle:
                self._orbit_unit[v] = 1 << offset
            offset += len(cycle).bit_length()
        # letter-set grids: the bit of the lowest id with u's first letter,
        # and the static nodes (None when no two ids share a letter)
        first: dict = {}
        self._rep_bit = [1 << first.setdefault(x, u) for u, x in enumerate(self.letter)]
        self._static = None
        if len(first) < len(self.letter):
            lax = self.mode is SplitMode.ALL_COVERS or self.closed
            static = self._static = []
            for kind, a, b in zip(self.nodes.kind, self.nodes.lhs, self.nodes.rhs):
                inner = kind in (_AND, _NOT) or kind == _SPLIT and lax
                static.append(
                    kind in (_POS, _NEG, _DEP) or inner and static[b] and (a is None or static[a])
                )

    def orbit_key(self, members: list[int]) -> int:
        return sum(map(self._orbit_unit.__getitem__, members))

    def temporal(self, mask: int, n: int) -> bool:
        """F, G, U and R over vectors of per-trace shifts.

        F and U ask for one shifted team satisfying b, G and R for all of
        them.  Under U and R trace u's shift range stops at its first
        suffix where a settles the side condition on its own: where a
        fails (U), since later shifts would need it, or where a holds (R),
        since beyond that release point u no longer constrains the team.
        """
        nodes = self.nodes
        a, b = nodes.lhs[n], nodes.rhs[n]
        exists = nodes.kind[n] in (_F, _U)
        members = self.members(mask)
        if a is None:
            memo = self._orbit_memo[n]
            key = self.orbit_key(members)
            got = memo.get(key)
            if got is None:
                counts = [len(self.orbit(u)) for u in members]
                got = memo[key] = self.quantify(members, counts, b, exists)
            return got
        counts = []
        for u in members:
            orbit = self.orbit(u)
            count = len(orbit)
            for j, v in enumerate(orbit):
                if self.eval(1 << v, a) != exists:
                    count = j + 1
                    break
            counts.append(count)
        return self.quantify(members, counts, b, exists)

    def quantify(self, members: list[int], counts: list[int], b: int, exists: bool) -> bool:
        """Does some (exists) or every shifted team satisfy b?

        Member u takes shifts 0..count-1.  Each distinct shifted team is
        evaluated once, in the order of the vectors' first occurrence; for
        a static b, each distinct letter set, on the lowest ids with them.
        """
        space = 1
        for count in counts:
            space *= count
            if space > self.limits.max_grid:
                raise VectorSpaceExceeded(
                    f"shift vector grid exceeds the cap of {self.limits.max_grid}"
                )
        rep = self._rep_bit if self._static is not None and self._static[b] else None
        teams = [0]
        for u, count in zip(members, counts):
            orbit = self.orbit(u)[:count]
            if rep is None:
                bits = [1 << v for v in orbit]
            else:
                bits = dict.fromkeys(map(rep.__getitem__, orbit))
            teams = list(dict.fromkeys(t | bit for t in teams for bit in bits))
        for t in teams:
            if self.eval(t, b) == exists:
                return exists
        return not exists


# ---------------------------------------------------------------------------
# public entry points


def _prepare(f, atoms, limits, split_mode):
    info = fragment_info(f, atoms)  # validates atom registration and arities
    if split_mode is None:
        split_mode = (
            SplitMode.DISJOINT_ONLY if info.downward_closed_syntactic else SplitMode.ALL_COVERS
        )
    return info, split_mode, limits if limits is not None else DEFAULT_LIMITS


def check_sync(
    team: Team,
    f: Formula,
    atoms: AtomRegistry | None = None,
    limits: Limits | None = None,
    split_mode: SplitMode | None = None,
) -> bool:
    """Does the team satisfy f under synchronous semantics?"""
    info, mode, limits = _prepare(f, atoms, limits, split_mode)
    engine = _SyncEngine(team, f, atoms, limits, mode, info.downward_closed_syntactic)
    return engine.eval(engine.team, engine.nodes.root)


def check_async(
    team: Team,
    f: Formula,
    atoms: AtomRegistry | None = None,
    limits: Limits | None = None,
    split_mode: SplitMode | None = None,
) -> bool:
    """Does the team satisfy f under asynchronous semantics?

    Pure LTL goes through the flatness fast path (satisfied iff every
    trace satisfies it on its own); everything else through the shift
    vector engine.
    """
    info, mode, limits = _prepare(f, atoms, limits, split_mode)
    if info.pure_ltl:
        return all(check_trace(t, f) for t in team)
    engine = _AsyncEngine(team, f, atoms, limits, mode, info.downward_closed_syntactic)
    return engine.eval(engine.team, engine.nodes.root)
