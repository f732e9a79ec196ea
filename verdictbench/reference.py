"""Reference evaluators the benchmark checks verdicts against.

Nothing here imports teamltl.  Formulas are nested tuples built by the
benchmark itself:

    ("ap", p)  ("nap", p)            literal p, negative literal !p
    ("and", a, b)  ("or", a, b)      conjunction, splitjunction
    ("X", a)  ("F", a)  ("G", a)     next, eventually, globally
    ("U", a, b)  ("R", a, b)         until, release
    ("dep", (p, ...), (q, ...))      dependence atom dep(p, ...; q, ...)

A lasso is a pair (prefix, loop) of tuples of frozensets of proposition
names, denoting prefix . loop^omega.  On a single trace a splitjunction
is a disjunction.

Every temporal operator is evaluated by unrolling: the loop is written
out twice after the prefix and each position looks ahead along that
unrolled word, which always covers a whole period.
"""

from __future__ import annotations

import math
from itertools import product

# ---------------------------------------------------------------------------
# formulas


def render(f) -> str:
    """Concrete syntax of the teamltl formula parser, fully parenthesised."""
    op = f[0]
    if op == "ap":
        return f[1]
    if op == "nap":
        return "!" + f[1]
    if op == "dep":
        return f"dep({','.join(f[1])};{','.join(f[2])})"
    if op in ("X", "F", "G"):
        return f"{op} ({render(f[1])})"
    infix = {"and": "&", "or": "|", "U": "U", "R": "R"}[op]
    return f"({render(f[1])}) {infix} ({render(f[2])})"


def negate(f):
    """Negation normal form of the negation of a dependence-free formula."""
    op = f[0]
    if op == "ap":
        return ("nap", f[1])
    if op == "nap":
        return ("ap", f[1])
    dual = {"and": "or", "or": "and", "X": "X", "F": "G", "G": "F", "U": "R", "R": "U"}
    if op in ("X", "F", "G"):
        return (dual[op], negate(f[1]))
    if op in dual:
        return (dual[op], negate(f[1]), negate(f[2]))
    raise ValueError(f"cannot negate {f!r}")


def conjoin(parts):
    f = parts[0]
    for g in parts[1:]:
        f = ("and", f, g)
    return f


def has_dep(f) -> bool:
    if f[0] in ("ap", "nap"):
        return False
    return f[0] == "dep" or any(has_dep(g) for g in f[1:])


# ---------------------------------------------------------------------------
# LTL on a lasso of positions


def _lasso_values(f, n_prefix: int, n_loop: int, literal, memo: dict) -> list:
    """Truth value of f at each of the n_prefix + n_loop distinct positions.

    `literal(kind, p, i)` decides the literal ("ap" or "nap") at position i.
    """
    key = id(f)
    got = memo.get(key)
    if got is not None:
        return got[1]
    n = n_prefix + n_loop

    def canon(k):
        return k if k < n else n_prefix + (k - n_prefix) % n_loop

    op = f[0]
    if op in ("ap", "nap"):
        vals = [literal(op, f[1], i) for i in range(n)]
    elif op in ("and", "or"):
        a = _lasso_values(f[1], n_prefix, n_loop, literal, memo)
        b = _lasso_values(f[2], n_prefix, n_loop, literal, memo)
        vals = [(x and y) if op == "and" else (x or y) for x, y in zip(a, b)]
    elif op == "X":
        a = _lasso_values(f[1], n_prefix, n_loop, literal, memo)
        vals = [a[canon(i + 1)] for i in range(n)]
    elif op in ("F", "G", "U", "R"):
        if op in ("U", "R"):
            a = _lasso_values(f[1], n_prefix, n_loop, literal, memo)
            b = _lasso_values(f[2], n_prefix, n_loop, literal, memo)
        else:
            a = None
            b = _lasso_values(f[1], n_prefix, n_loop, literal, memo)
        unrolled = n + n_loop
        vals = [False] * n
        # a U b: b now, or a now and a U b next; nothing beyond the unrolled
        # word can help.  a R b: b now, and a now or a R b next; b holding to
        # the end of the unrolled word holds forever.
        acc = op in ("G", "R")
        for k in range(unrolled - 1, -1, -1):
            c = canon(k)
            if op == "F":
                acc = b[c] or acc
            elif op == "G":
                acc = b[c] and acc
            elif op == "U":
                acc = b[c] or (a[c] and acc)
            else:
                acc = b[c] and (a[c] or acc)
            if k < n:
                vals[k] = acc
    else:
        raise ValueError(f"no lasso reading for {f!r}")
    memo[key] = (f, vals)
    return vals


def trace_values(f, lasso) -> list:
    """Truth value of dependence-free f at each distinct position of a trace."""
    prefix, loop = lasso
    letters = tuple(prefix) + tuple(loop)

    def literal(kind, p, i):
        return (p in letters[i]) == (kind == "ap")

    return _lasso_values(f, len(prefix), len(loop), literal, {})


def trace_holds(f, lasso) -> bool:
    return trace_values(f, lasso)[0]


def letter_at(lasso, i: int) -> frozenset:
    prefix, loop = lasso
    if i < len(prefix):
        return prefix[i]
    return loop[(i - len(prefix)) % len(loop)]


# ---------------------------------------------------------------------------
# team semantics


def sync_holds(f, team) -> bool:
    """Synchronous team semantics for dependence-free f.

    All members move by one global shift, and a literal holds on a shifted
    team when it holds on every member.  The shifted teams repeat after the
    longest prefix with the lcm of the loop lengths as period.  A
    splitjunction is read at the top only: some partition of the team
    satisfies its two sides (enough, since the formulas are downward
    closed).  The empty team satisfies every formula.
    """
    if not team:
        return True
    if f[0] == "or":
        return any(sync_holds(f[1], left) and sync_holds(f[2], right)
                   for left, right in _partitions(team))
    n_prefix = max(len(p) for p, _ in team)
    n_loop = math.lcm(*(len(l) for _, l in team))

    def literal(kind, p, i):
        want = kind == "ap"
        return all((p in letter_at(t, i)) == want for t in team)

    return _lasso_values(f, n_prefix, n_loop, literal, {})[0]


def _partitions(members):
    members = list(members)
    for sides in product((0, 1), repeat=len(members)):
        yield ([m for m, s in zip(members, sides) if s == 0],
               [m for m, s in zip(members, sides) if s == 1])


def _first_letter_holds(f, letters: frozenset) -> bool:
    """A temporal-free formula on a team given by its set of first letters."""
    op = f[0]
    if op == "ap":
        return all(f[1] in s for s in letters)
    if op == "nap":
        return all(f[1] not in s for s in letters)
    if op == "dep":
        seen = {}
        for s in letters:
            key = tuple(p in s for p in f[1])
            val = tuple(q in s for q in f[2])
            if seen.setdefault(key, val) != val:
                return False
        return True
    if op == "and":
        return _first_letter_holds(f[1], letters) and _first_letter_holds(f[2], letters)
    if op == "or":
        return any(_first_letter_holds(f[1], frozenset(left))
                   and _first_letter_holds(f[2], frozenset(right))
                   for left, right in _partitions(letters))
    raise ValueError(f"{f!r} is not temporal-free")


def async_holds(f, team) -> bool:
    """Asynchronous team semantics for the shapes the lasso workload builds.

    f is a conjunction of `a U b`, `a R b`, `F b` and `G b` where `a` is
    dependence-free and `b` is temporal-free.  Each member t takes its own
    shift k_t:

    * `a U b` holds iff some shift vector puts the team where b holds while
      every member satisfies a, on its own, at each position before k_t;
    * `a R b` holds iff b holds at every shift vector in which no member
      satisfied a, on its own, at a position before k_t;
    * `F b` and `G b` ask for b at some, or every, shift vector.

    Shifts beyond |prefix| + |loop| repeat a suffix with a longer history,
    so each member only needs shifts below that.  The side formulas are
    downward closed and temporal-free, so b depends only on the set of first
    letters of the shifted team.
    """
    op = f[0]
    if op == "and":
        return async_holds(f[1], team) and async_holds(f[2], team)
    if op in ("F", "G"):
        a, b = None, f[1]
    elif op in ("U", "R") and not has_dep(f[1]):
        a, b = f[1], f[2]
    else:
        raise ValueError(f"no asynchronous reading for {f!r}")
    existential = op in ("U", "F")
    choices = []
    for t in team:
        positions = len(t[0]) + len(t[1])
        a_vals = trace_values(a, t) if a is not None else [op == "F"] * positions
        letters = set()
        for k in range(positions):
            letters.add(letter_at(t, k))
            if a_vals[k] != existential:
                break  # U: a fails here, so k is the last usable shift;
                # R: a releases here, so later shifts are unconstrained
        choices.append(sorted(letters, key=sorted))
    outcomes = (_first_letter_holds(b, frozenset(c)) for c in product(*choices))
    return any(outcomes) if existential else all(outcomes)


# ---------------------------------------------------------------------------
# QBF


def qbf_true(prefix, clauses) -> bool:
    """Truth by recursion over the quantifier prefix.

    prefix: ((quantifier, variable), ...) outermost first, quantifier E or A;
    clauses: (((variable, positive), ...), ...).
    """

    def go(i, assignment):
        if i == len(prefix):
            return all(any(assignment[v] == pos for v, pos in c) for c in clauses)
        quant, var = prefix[i]
        branches = (go(i + 1, {**assignment, var: value}) for value in (False, True))
        return any(branches) if quant == "E" else all(branches)

    return go(0, {})


# ---------------------------------------------------------------------------
# Kripke structures: (labels, edges, init) with labels[w] a frozenset and
# edges[w] a tuple of successors


def subset_lasso(kripke):
    """Successor-set sequence S_0 = {init}, S_i+1 = successors of S_i.

    Returns (sets, stem): the sets up to the first repetition, and the
    index the sequence loops back to.
    """
    labels, edges, init = kripke
    current = frozenset((init,))
    index = {current: 0}
    sets = [current]
    while True:
        current = frozenset(s for w in current for s in edges[w])
        if current in index:
            return sets, index[current]
        index[current] = len(sets)
        sets.append(current)


def sync_model_holds(f, kripke) -> bool:
    """Synchronous team model checking of splitjunction-free, dependence-free f.

    The team of all traces, shifted by i, has exactly the worlds of S_i at
    its first position, so a literal holds there iff every world of S_i has
    it: the common-letter trace of the successor-set sequence.
    """
    labels = kripke[0]
    sets, stem = subset_lasso(kripke)

    def literal(kind, p, i):
        want = kind == "ap"
        return all((p in labels[w]) == want for w in sets[i])

    return _lasso_values(f, stem, len(sets) - stem, literal, {})[0]


def finite_traces(kripke):
    """All traces of a structure whose cycles never branch, as lassos."""
    labels, edges, init = kripke
    out = []

    def walk(path):
        for succ in edges[path[-1]]:
            if succ in path:
                at = path.index(succ)
                out.append((tuple(labels[w] for w in path[:at]),
                            tuple(labels[w] for w in path[at:])))
            else:
                walk(path + [succ])

    walk([init])
    return out


def is_run(kripke, lasso) -> bool:
    """Is prefix . loop^omega the label sequence of some path from init?"""
    labels, edges, init = kripke
    prefix, loop = lasso
    worlds = tuple(labels)

    def step(frm, letter):
        """Worlds labelled `letter` that follow some world of frm."""
        return {s for w in frm for s in edges[w] if labels[s] == letter}

    word = tuple(prefix) + tuple(loop)
    current = {init} if labels[init] == word[0] else set()
    for letter in word[1 : len(prefix) + 1]:
        current = step(current, letter)
    # greatest set of worlds labelled loop[0] from which reading the loop
    # once leads back into the set
    good = {w for w in worlds if labels[w] == loop[0]}
    while True:
        keep = set()
        for w in good:
            frontier = {w}
            for letter in loop[1:]:
                frontier = step(frontier, letter)
            if any(s in good for v in frontier for s in edges[v]):
                keep.add(w)
        if keep == good:
            break
        good = keep
    return bool(current & good)
