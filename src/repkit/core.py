"""Clause-sets over integer variables, partial assignments, and DIMACS I/O.

Literals are nonzero ints (v / -v), a clause is a complement-free frozenset of
literals, a clause-set is a frozenset of clauses.  The same data doubles as a
DNF when a function explicitly says so; nothing in here depends on the reading
except `canonical_dnf`, which produces DNF clauses from a CNF.

Partial assignments are dicts variable -> 0/1.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Iterator

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


class SizeLimitExceeded(Exception):
    """An enumeration or search exceeded its configured size budget."""


class DimacsError(ValueError):
    """Malformed DIMACS input; message carries the 1-based line number."""


def clause(*lits: int) -> Clause:
    """Build a clause, rejecting 0 and complementary literal pairs."""
    c = frozenset(lits)
    if 0 in c:
        raise ValueError("0 is not a literal")
    if any(-x in c for x in c):
        raise ValueError(f"complementary pair in clause {sorted(c)}")
    return c


def clause_set(clauses: Iterable[Iterable[int]]) -> ClauseSet:
    return frozenset(clause(*c) for c in clauses)


def var(lit: int) -> int:
    return abs(lit)


def complement(c: Iterable[int]) -> Clause:
    return frozenset(-x for x in c)


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
    out = set()
    for c in f:
        img = _apply_clause(phi, c)
        if img is not None:
            out.add(img)
    return frozenset(out)


def _apply_clause(phi: Assignment, c: Clause) -> Clause | None:
    """Image of one clause, or None if satisfied."""
    kept = []
    for x in c:
        s = sat_lit(phi, x)
        if s == 1:
            return None
        if s is None:
            kept.append(x)
    return frozenset(kept)


def apply_clauses(phi: Assignment, clauses: Iterable[Clause]) -> list[Clause]:
    """Image of a clause *list* (multi-clause-set mode: duplicates survive)."""
    out = []
    for c in clauses:
        img = _apply_clause(phi, c)
        if img is not None:
            out.append(img)
    return out


def falsifying_assignment(c: Iterable[int]) -> Assignment:
    """phi_C, the minimal assignment setting every literal of C to false."""
    return {abs(x): (0 if x > 0 else 1) for x in c}


def assign(phi: Assignment, lit: int, value: int) -> Assignment:
    """phi extended by <lit -> value> (literal semantics: <x -> 1> makes x true)."""
    out = dict(phi)
    out[abs(lit)] = value if lit > 0 else 1 - value
    return out


def single(lit: int, value: int = 1) -> Assignment:
    return assign({}, lit, value)


def is_satisfiable(f: ClauseSet, max_nodes: int = 1 << 22) -> bool:
    """Plain DPLL with unit propagation; raises SizeLimitExceeded past budget."""
    return solve(f, max_nodes) is not None


def solve(f: ClauseSet, max_nodes: int = 1 << 22) -> Assignment | None:
    """A satisfying partial assignment (total on the propagated part) or None."""
    budget = [max_nodes]

    def go(g: ClauseSet, phi: Assignment) -> Assignment | None:
        budget[0] -= 1
        if budget[0] < 0:
            raise SizeLimitExceeded("DPLL node budget exhausted")
        # unit propagation
        while True:
            if BOT in g:
                return None
            units = [next(iter(c)) for c in g if len(c) == 1]
            if not units:
                break
            phi = dict(phi)
            for x in units:
                if sat_lit(phi, x) == 0:
                    return None
                phi[abs(x)] = 1 if x > 0 else 0
            g = apply_assignment(phi, g)
        if not g:
            return phi
        # branch on the smallest variable, trying 1 first
        v = min(variables(g))
        for val in (1, 0):
            res = go(apply_assignment({v: val}, g), {**phi, v: val})
            if res is not None:
                return res
        return None

    return go(f, {})


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


def canonical_dnf(f: ClauseSet, max_vars: int = 20) -> ClauseSet:
    """The canonical DNF of a CNF: one DNF clause per total model.

    Exponential in n(F) by design; guarded by max_vars.
    """
    vs = variables(f)
    if len(vs) > max_vars:
        raise SizeLimitExceeded(f"canonical_dnf over {len(vs)} > {max_vars} variables")
    out = set()
    for phi in models(f, vs):
        out.add(frozenset(v if b else -v for v, b in phi.items()))
    return frozenset(out)


def entails(f: ClauseSet, c: Iterable[int]) -> bool:
    """F |= C, decided as unsatisfiability of <phi_C> * F."""
    return not is_satisfiable(apply_assignment(falsifying_assignment(c), f))


def equivalent(f: ClauseSet, g: ClauseSet) -> bool:
    return all(entails(f, c) for c in g) and all(entails(g, c) for c in f)


# ---------------------------------------------------------------------------
# DIMACS
# ---------------------------------------------------------------------------

def parse_dimacs(text: str) -> tuple[list[Clause], str]:
    """Parse DIMACS CNF/DNF; returns (clause list in file order, format name).

    The header is checked against the actual variable and clause counts.
    """
    clauses: list[Clause] = []
    fmt = None
    nvars = nclauses = 0
    pending: list[int] = []
    ints: dict[str, int] = {}  # one int object per distinct token
    for lineno, raw in enumerate(text.splitlines(), start=1):
        s = raw.strip()
        if not s or s.startswith("c"):
            continue
        if s.startswith("p"):
            if fmt is not None:
                raise DimacsError(f"line {lineno}: duplicate problem line")
            parts = s.split()
            if len(parts) != 4 or parts[1] not in ("cnf", "dnf"):
                raise DimacsError(f"line {lineno}: bad problem line {s!r}")
            fmt = parts[1]
            try:
                nvars, nclauses = int(parts[2]), int(parts[3])
            except ValueError:
                raise DimacsError(f"line {lineno}: bad counts in {s!r}") from None
            continue
        if fmt is None:
            raise DimacsError(f"line {lineno}: clause before problem line")
        try:
            lits = [ints[x] if x in ints else ints.setdefault(x, int(x)) for x in s.split()]
        except ValueError:
            raise DimacsError(f"line {lineno}: bad token in {s!r}") from None
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
    if fmt is None:
        raise DimacsError("missing problem line")
    if pending:
        raise DimacsError("trailing literals without closing 0")
    if len(clauses) != nclauses:
        raise DimacsError(f"header says {nclauses} clauses, found {len(clauses)}")
    maxv = max((abs(x) for c in clauses for x in c), default=0)
    if maxv > nvars:
        raise DimacsError(f"header says {nvars} variables, found variable {maxv}")
    return clauses, fmt


def emit_dimacs(clauses: Iterable[Clause], fmt: str = "cnf",
                comments: Iterable[str] = (), num_vars: int | None = None) -> str:
    """Serialize deterministically: given clause order, sorted literals within.

    Pass a sequence for a fixed clause order; frozensets are sorted canonically.
    """
    if isinstance(clauses, (set, frozenset)):
        clauses = sorted(clauses, key=lambda c: (len(c), sorted(abs(x) for x in c),
                                                 sorted(c)))
    clauses = list(clauses)
    if num_vars is None:
        num_vars = max((abs(x) for c in clauses for x in c), default=0)
    lines = [f"c {s}" for s in comments]
    lines.append(f"p {fmt} {num_vars} {len(clauses)}")
    for c in clauses:
        lines.append(" ".join(str(x) for x in sorted(c, key=lambda l: (abs(l), l))) + " 0")
    return "\n".join(lines) + "\n"
