"""Clause-sets over integer variables, partial assignments, and DIMACS I/O.

Literals are nonzero ints (v / -v), a clause is a complement-free frozenset of
literals, a clause-set is a frozenset of clauses.  The same data doubles as a
DNF when a function explicitly says so; nothing in here depends on the reading
except `canonical_dnf`, which produces DNF clauses from a CNF.

Partial assignments are dicts variable -> 0/1.

`_Trail` is the package's one unit-propagation engine, with two watched
literals per clause (Moskewicz et al., "Chaff", DAC 2001).  `solve` runs
DPLL (Davis, Logemann and Loveland, CACM 1962) on it without recursion,
pushing decisions and undoing them by trail mark; r_k and r_inf in
`reductions` run on it too.  From k = 3 on, while no open clause has fewer
than k free literals, r_k probes only the free literals of the open clauses
with exactly k, since no other probe can fail (see `_Trail._close`).
`assume` pushes phi_C, forming phi_C * F on F's trail until undone (solving
under assumptions: Een and Sorensson, SAT 2003).

`parse_dimacs` reads the problem line, then the body in one pass or, when
that pass refuses it, in a line loop that locates the error.  `_dimacs_text`
writes a flat literal stream in one join, and `_stream_clauses` reads
frozensets off one.  The bulk builders of whole instances (`parse_dimacs`,
`bench.generate`, `bench._layout` and the certificate check of
`bench.verify`) pause the cyclic garbage collector (`_nogc`): each
collection would walk every clause held, and they make no reference cycle
(a test pins that `gc.collect()` finds nothing after them).  The pause
bought `emit_dimacs` nothing, so it runs without one.
"""

from __future__ import annotations

import functools
import gc
import itertools
from operator import neg
from typing import Callable, Iterable, Iterator

Literal = int
Clause = frozenset[int]
ClauseSet = frozenset[Clause]
Assignment = dict[int, int]

#: The empty clause ("bottom").
BOT: Clause = frozenset()
#: The empty clause-set ("top").
TOP: ClauseSet = frozenset()
#: The clause-set {bottom}.
BOT_SET: ClauseSet = frozenset({BOT})

#: The most DPLL nodes `_Trail.model` opens (and so `solve`, `is_satisfiable`).
_MAX_DPLL_NODES = 1 << 22
#: The most variables `canonical_dnf` enumerates the models over.
_MAX_DNF_VARS = 20


def _nogc(fn: Callable) -> Callable:
    """Run fn with the cyclic garbage collector disabled, and enable it again
    afterwards only if it was enabled on entry (as Mercurial's `util.nogc`).

    Safe for builders that make no reference cycles: their objects are freed
    by reference counting, so the pause holds back no garbage of theirs.  The
    pause is process-wide, so other threads' cyclic garbage waits until the
    call returns.
    """
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        enabled = gc.isenabled()
        gc.disable()
        try:
            return fn(*args, **kwargs)
        finally:
            if enabled:
                gc.enable()
    return wrapper


class SizeLimitExceeded(Exception):
    """An enumeration or search exceeded its size limit.

    `budget` names the budget that ran out, `limit` is its size and
    `progress` the count that went past it.
    """

    def __init__(self, message: str, *, budget: str, limit: int, progress: int):
        super().__init__(message)
        self.budget, self.limit, self.progress = budget, limit, progress


class DimacsError(ValueError):
    """Malformed DIMACS input; message carries the 1-based line number."""


def clause(*lits: int) -> Clause:
    """Build a clause, rejecting 0 and complementary literal pairs."""
    c = frozenset(lits)
    if 0 in c:
        raise ValueError("0 is not a literal")
    if not c.isdisjoint(map(neg, c)):
        raise ValueError(f"complementary pair in clause {sorted(c)}")
    return c


def clause_set(clauses: Iterable[Iterable[int]]) -> ClauseSet:
    return frozenset(clause(*c) for c in clauses)


def clause_key(c: Clause) -> tuple:
    return (len(c), sorted(abs(x) for x in c), sorted(c))


def _clause_order(cs: Iterable) -> list:
    """The clause order rule: a set is sorted by clause_key, a sequence keeps its order."""
    return sorted(cs, key=clause_key) if isinstance(cs, (set, frozenset)) else list(cs)


def complement(c: Iterable[int]) -> Clause:
    return frozenset(map(neg, c))


def variables(f: ClauseSet | Clause) -> frozenset[int]:
    if f and isinstance(next(iter(f)), int):
        return frozenset(abs(x) for x in f)  # a single clause
    return frozenset(abs(x) for c in f for x in c)


def literals(f: ClauseSet) -> frozenset[int]:
    return frozenset(x for c in f for x in c)


def counts(f: ClauseSet) -> tuple[int, int, int]:
    """(number of variables, number of clauses, number of literal occurrences)."""
    return len(variables(f)), len(f), sum(len(c) for c in f)


def sat_lit(phi: Assignment, lit: int) -> int | None:
    """Value of a literal under a partial assignment, or None if unassigned."""
    v = phi.get(abs(lit))
    if v is None:
        return None
    return v if lit > 0 else 1 - v


def apply_assignment(phi: Assignment, f: ClauseSet) -> ClauseSet:
    """The image phi * F: drop satisfied clauses, shrink falsified literals.

    Contraction happens automatically (the result is a set).
    """
    return frozenset(apply_clauses(phi, f))


def apply_clauses(phi: Assignment, clauses: Iterable[Clause]) -> list[Clause]:
    """Image of a clause *list* (multi-clause-set mode: duplicates survive)."""
    true = {v if b else -v for v, b in phi.items()}
    false = {-x for x in true}
    return [frozenset(c).difference(false) for c in clauses if true.isdisjoint(c)]


def falsifying_assignment(c: Iterable[int]) -> Assignment:
    """phi_C, the minimal assignment setting every literal of C to false."""
    return {abs(x): (0 if x > 0 else 1) for x in c}


class _Trail:
    """Mutable propagation state of one clause-set: two watched literals per
    clause, a value per literal and an assignment trail with undo.

    Literal codes are 2*i (variable number i true) and 2*i + 1 (false), with
    variables numbered 1.. in ascending order; code ^ 1 is the complement.
    Every public method leaves the trail unit-propagated (or refuted).
    """

    def __init__(self, f: ClauseSet) -> None:
        self.vars = sorted({abs(x) for c in f for x in c})
        self.code = code = {}            # literal of F -> its code
        for i, v in enumerate(self.vars, start=1):
            code[v], code[-v] = 2 * i, 2 * i + 1
        size = 2 * len(self.vars) + 2
        self.value = [0] * size          # +1 true, -1 false, 0 unassigned
        self.watches: list[list[int]] = [[] for _ in range(size)]
        self.trail: list[int] = []
        self.head = 0                    # trail[:head] is propagated
        self.refuted = BOT in f
        self.clauses = [[code[x] for x in c] for c in f if len(c) > 1]
        for ci, c in enumerate(self.clauses):
            self.watches[c[0]].append(ci)
            self.watches[c[1]].append(ci)
        for c in f:
            if len(c) == 1 and not self.refuted:
                self.refuted = not self.push(code[next(iter(c))])

    def push(self, lit: int) -> bool:
        """Assign lit and propagate; False on a conflict."""
        v = self.value[lit]
        if v:
            return v > 0
        self.value[lit] = 1
        self.value[lit ^ 1] = -1
        self.trail.append(lit)
        return self._propagate()

    def assume(self, c: Iterable[int]) -> bool:
        """Push phi_C, the complement of each literal of C over var(F), and
        propagate; False on a conflict.  The caller undoes to its own mark."""
        code, push = self.code, self.push
        return all(push(code[x] ^ 1) for x in c if x in code)

    def _propagate(self) -> bool:
        """Unit propagation from trail[head:]; False on a conflict."""
        value, watches, clauses, trail = self.value, self.watches, self.clauses, self.trail
        head = self.head
        while head < len(trail):
            false = trail[head] ^ 1
            head += 1
            ws = watches[false]
            i = j = 0
            n = len(ws)
            while i < n:
                ci = ws[i]
                i += 1
                c = clauses[ci]
                if c[0] == false:
                    c[0], c[1] = c[1], false
                other = c[0]
                if value[other] > 0:
                    ws[j] = ci
                    j += 1
                    continue
                for p in range(2, len(c)):
                    lit = c[p]
                    if value[lit] >= 0:
                        c[1], c[p] = lit, false
                        watches[lit].append(ci)
                        break
                else:
                    ws[j] = ci
                    j += 1
                    if value[other] < 0:
                        del ws[j:i]  # keep the watchers not yet visited
                        self.head = len(trail)
                        return False
                    value[other] = 1
                    value[other ^ 1] = -1
                    trail.append(other)
            del ws[j:]
        self.head = head
        return True

    def undo(self, mark: int) -> None:
        value, trail = self.value, self.trail
        for lit in trail[mark:]:
            value[lit] = value[lit ^ 1] = 0
        del trail[mark:]
        self.head = mark

    def _close(self, k: int) -> bool:
        """Bring the propagated trail to an r_k fixpoint; False if refuted.

        Failed-literal probing: <x -> 0> is pushed, brought to an r_{k-1}
        fixpoint on this same trail, and popped again; when that refutes it,
        x -> 1 is kept.  The scan is circular and stops
        after a full round without a failed literal.  A literal that a
        surviving probe of this round put on the trail cannot fail: its own
        probe would reach a sub-assignment of that probe's r_{k-1} fixpoint.

        If every open clause (one without a true literal) has more than k
        free literals, r_k derives nothing: a probe falsifies at most one
        literal per clause, so more than k - 1 stay free, and so on down to
        r_1, which finds no unit clause.  Hence, while no open clause has
        fewer than k free literals, only the free literals of the open
        clauses with exactly k can fail.  The other probes are skipped: they
        would survive and leave nothing on the trail but their own literal,
        so the same probes fail in the same order.  `_can_fail` rescans the
        clauses at the start and after each failed literal.  This is done
        from k = 3 on only: r_2 fails many literals, and the rescan after
        each costs more than the probes it saves.
        """
        value, trail = self.value, self.trail
        lits = range(2, len(value))      # variable 1 true, 1 false, 2 true, ...
        implied = [0] * len(value)       # round in which a probe reached it
        can_fail = self._can_fail(k) if k > 2 else None
        rnd = 1
        quiet = i = 0
        while quiet < len(lits):
            x = lits[i]
            i = i + 1 if i + 1 < len(lits) else 0
            quiet += 1
            if value[x] or implied[x ^ 1] == rnd or can_fail is not None and x not in can_fail:
                continue
            mark = len(trail)
            if self.push(x ^ 1) and (k == 2 or self._close(k - 1)):
                for y in trail[mark:]:
                    implied[y] = rnd
                self.undo(mark)
                continue
            self.undo(mark)
            if not self.push(x):
                return False
            if k > 2:
                can_fail = self._can_fail(k)
            rnd += 1
            quiet = 0
        return True

    def _can_fail(self, k: int) -> set[int] | None:
        """The free literals of the open clauses with exactly k free
        literals, or None (any literal may fail) if an open clause has
        fewer.  A clause longer than k plus the trail keeps more than k."""
        value = self.value
        longer = k + len(self.trail)
        out: set[int] = set()
        for c in self.clauses:
            if len(c) > longer:
                continue
            vals = [value[lit] for lit in c]
            free = vals.count(0)
            if free > k or 1 in vals:
                continue
            if free < k:
                return None
            out.update(lit for lit in c if not value[lit])
        return out

    def raise_to(self, k: int, start: int = 2) -> int | None:
        """Close the trail under r_start, ..., r_k in turn; the first level
        that refutes F (1 when r_1 already does), or None.  A start above 2
        needs the trail at its r_{start-1} fixpoint."""
        if self.refuted:
            return 1
        for j in range(start, k + 1):
            if not self._close(j):
                return j
        return None

    def assignment(self) -> Assignment:
        return {self.vars[(lit >> 1) - 1]: 1 - (lit & 1) for lit in self.trail}

    def image(self, f: ClauseSet) -> ClauseSet:
        """F under the trail's assignment."""
        return apply_assignment(self.assignment(), f)

    def model(self) -> Assignment | None:
        """DPLL from the trail: its assignment extended to satisfy every
        clause, or None; the trail is left as it was.  Each decision opens a
        node (the root is one too).  Branching is on the smallest variable of
        a clause not yet satisfied, true first; the variables below a
        decision stay irrelevant beneath it, so the scan resumes after it.
        Raises SizeLimitExceeded past _MAX_DPLL_NODES nodes.
        """
        value, trail, max_nodes = self.value, self.trail, _MAX_DPLL_NODES
        occ: list[list[int]] = [[] for _ in value]   # literal code -> its clauses
        for ci, c in enumerate(self.clauses):
            for lit in c:
                occ[lit].append(ci)
        sat = [0] * len(self.clauses)                # true literals per clause

        def count(mark: int, delta: int) -> None:
            for lit in trail[mark:]:
                for ci in occ[lit]:
                    sat[ci] += delta

        count(0, 1)
        base, last, nodes, start = len(trail), len(self.vars), 0, 1
        stack: list[tuple[int, int]] = []            # (trail mark, decision)
        ok = not self.refuted
        try:
            while True:
                nodes += 1
                if nodes > max_nodes:
                    raise SizeLimitExceeded("DPLL node budget exhausted", budget="DPLL node",
                                            limit=max_nodes, progress=nodes)
                if stack:
                    mark, decision = stack[-1]
                    ok = self.push(decision)
                    count(mark, 1)
                if ok:
                    v = start                         # the next variable to scan
                    while v <= last and (value[2 * v] or all(sat[ci] for ci in occ[2 * v])
                                         and all(sat[ci] for ci in occ[2 * v + 1])):
                        v += 1
                    if v > last:
                        return self.assignment()
                    stack.append((len(trail), 2 * v))
                    start = v + 1
                    continue
                while stack:                          # backtrack
                    mark, decision = stack.pop()
                    count(mark, -1)
                    self.undo(mark)
                    if not decision & 1:
                        stack.append((mark, decision | 1))
                        start = (decision >> 1) + 1
                        break
                else:
                    return None
        finally:
            self.undo(base)


def is_satisfiable(f: ClauseSet) -> bool:
    """DPLL on the trail; raises SizeLimitExceeded past _MAX_DPLL_NODES nodes."""
    return solve(f) is not None


def solve(f: ClauseSet) -> Assignment | None:
    """A satisfying partial assignment (total on the propagated part) or None."""
    return _Trail(f).model()


def total_assignments(vs: Iterable[int]) -> Iterator[Assignment]:
    """All total 0/1 assignments over vs, in lexicographic order."""
    vs = sorted(vs)
    for bits in itertools.product((0, 1), repeat=len(vs)):
        yield dict(zip(vs, bits))


def models(f: ClauseSet, vs: Iterable[int] | None = None) -> Iterator[Assignment]:
    """All total models over vs (default var(F)), by exhaustive enumeration."""
    if vs is None:
        vs = variables(f)
    for phi in total_assignments(vs):
        if not apply_assignment(phi, f):
            yield phi


def count_models(f: ClauseSet, vs: Iterable[int] | None = None) -> int:
    return sum(1 for _ in models(f, vs))


def canonical_dnf(f: ClauseSet) -> ClauseSet:
    """The canonical DNF of a CNF: one DNF clause per total model.

    Exponential in n(F) by design; guarded by _MAX_DNF_VARS.
    """
    vs = variables(f)
    if len(vs) > _MAX_DNF_VARS:
        raise SizeLimitExceeded(f"canonical_dnf over {len(vs)} > {_MAX_DNF_VARS} variables",
                                budget="variables", limit=_MAX_DNF_VARS, progress=len(vs))
    out = set()
    for phi in models(f, vs):
        out.add(frozenset(v if b else -v for v, b in phi.items()))
    return frozenset(out)


def entails(f: ClauseSet, c: Iterable[int]) -> bool:
    """F |= C: phi_C pushed onto F's trail meets a conflict or leaves no model.
    Every F entails a tautological C."""
    c, t = frozenset(c), _Trail(f)
    return any(-x in c for x in c) or not t.assume(c) or t.model() is None


def equivalent(f: ClauseSet, g: ClauseSet) -> bool:
    return all(entails(f, c) for c in g) and all(entails(g, c) for c in f)


# ---------------------------------------------------------------------------
# DIMACS
# ---------------------------------------------------------------------------

class _Ints(dict):
    """DIMACS token -> int, one int object per distinct token."""

    def __missing__(self, token: str) -> int:
        self[token] = x = int(token)
        return x


@_nogc
def parse_dimacs(text: str) -> tuple[list[Clause], str]:
    """Parse DIMACS CNF/DNF; returns (clause list in file order, format name).

    After the problem line, `_parse_body` reads the body; a body it refuses goes to
    the line loop, which locates the error.  The header's counts are checked."""
    lines = text.rstrip().splitlines()  # trailing blank lines would hold back _parse_body
    for lineno, line in enumerate(lines, start=1):
        tokens = line.split()
        if not tokens or tokens[0][0] == "c":
            continue
        if tokens[0][0] != "p":
            raise DimacsError(f"line {lineno}: clause before problem line")
        if len(tokens) != 4 or tokens[1] not in ("cnf", "dnf"):
            raise DimacsError(f"line {lineno}: bad problem line {line.strip()!r}")
        try:
            fmt, nvars, nclauses = tokens[1], int(tokens[2]), int(tokens[3])
        except ValueError:
            raise DimacsError(f"line {lineno}: bad counts in {line.strip()!r}") from None
        break
    else:
        raise DimacsError("missing problem line")
    ints = _Ints()
    clauses = _parse_body(lines[lineno:], ints)
    if clauses is None:
        clauses, pending = [], []
        for lineno, line in enumerate(lines[lineno:], start=lineno + 1):
            tokens = line.split()
            if not tokens or tokens[0][0] == "c":
                continue
            try:
                lits = list(map(ints.__getitem__, tokens))
            except ValueError:
                if tokens[0][0] == "p":  # no int starts with "p"
                    raise DimacsError(f"line {lineno}: duplicate problem line") from None
                raise DimacsError(f"line {lineno}: bad token in {line.strip()!r}") from None
            start = 0  # lits[start:] is not yet part of a clause
            for _ in range(lits.count(0)):
                end = lits.index(0, start)
                try:
                    clauses.append(clause(*pending, *lits[start:end]))
                except ValueError as e:
                    raise DimacsError(f"line {lineno}: {e}") from None
                pending = []
                start = end + 1
            pending += lits[start:]
        if pending:
            raise DimacsError("trailing literals without closing 0")
    if len(clauses) != nclauses:
        raise DimacsError(f"header says {nclauses} clauses, found {len(clauses)}")
    maxv = max(map(abs, ints.values()), default=0)
    if maxv > nvars:
        raise DimacsError(f"header says {nvars} variables, found variable {maxv}")
    return clauses, fmt


def _parse_body(lines: list[str], ints: _Ints) -> list[Clause] | None:
    """The clauses after the problem line, split at each " 0 ", or None.  A
    "0" left inside a clause ("-0", "00") is refused as its own complement."""
    if not all(s.endswith(" 0") for s in lines):
        return None
    try:
        clauses = [frozenset(map(ints.__getitem__, c.split()))
                   for s in lines for c in s[:-2].split(" 0 ")]
    except ValueError:
        return None
    return clauses if all(c.isdisjoint(map(neg, c)) for c in clauses) else None


def emit_dimacs(clauses: Iterable[Clause], fmt: str = "cnf",
                comments: Iterable[str] = (), num_vars: int | None = None) -> str:
    """Serialize deterministically: given clause order, literals by variable within.

    Pass a sequence for a fixed clause order; frozensets are sorted canonically.
    Every clause must be complement-free, as `clause` and `parse_dimacs` make
    it, so each variable occurs once in it.
    """
    clauses = _clause_order(clauses)
    stream: list = []
    for c in clauses:
        stream += sorted(c, key=abs) or (None,)  # None: the space before an empty clause's 0
        stream.append(0)
    return _dimacs_text(stream, len(clauses), fmt, comments, num_vars)


def _dimacs_text(stream: list, nclauses: int, fmt: str, comments: Iterable[str],
                 num_vars: int | None) -> str:
    """The DIMACS text of a literal stream: each clause's literals in the order
    given, then 0.  Each literal is written through a table of one "x " token
    per distinct literal, 0 as "0\n" and None as " ", so the body is one join.
    The variable count defaults to the largest variable in the stream."""
    lits = set(stream).difference((0, None))
    if num_vars is None:
        num_vars = max(map(abs, lits), default=0)
    token = dict(zip(lits, map("{} ".format, lits)))
    token.update({0: "0\n", None: " "})
    head = [f"c {s}\n" for s in comments]
    head.append(f"p {fmt} {num_vars} {nclauses}\n")
    return "".join(itertools.chain(head, map(token.__getitem__, stream)))


def _stream_clauses(stream: list[int], lengths: Iterable[int]) -> list[Clause]:
    """The clauses of a literal stream (each clause's literals, then 0) with
    these lengths, each at least 1, as frozensets read off slices of it.  A
    run of binary clauses is read as pairs, by index: an islice would skip
    from the start of the stream for every run.  Any other clause is all but
    its last literal as a frozenset, which `union` copies into a table sized
    once and extends by the last: a frozenset of a list grows its table 4x
    at a time, twice as large from 6 literals on."""
    out: list[Clause] = []
    p = 0                              # where the run starts
    for binary, run in itertools.groupby(lengths, (2).__eq__):
        if binary:
            q = p + 3 * len(list(run))
            out += map(frozenset, zip(map(stream.__getitem__, range(p, q, 3)),
                                      map(stream.__getitem__, range(p + 1, q, 3))))
        else:
            starts = list(itertools.accumulate(map((1).__add__, run), initial=p))
            q = starts.pop()
            lasts = list(map((-2).__add__, starts[1:] + [q]))  # where each last literal is
            bodies = map(frozenset, map(stream.__getitem__, map(slice, starts, lasts)))
            out += map(frozenset.union, bodies, zip(map(stream.__getitem__, lasts)))
        p = q
    return out
