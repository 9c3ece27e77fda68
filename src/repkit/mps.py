"""Minimal premise sets and pure clauses.

F' is a minimal premise set (mps) for a clause C if F' entails C but no
strict subset does; the unique minimal conclusion of an mps is its pure
clause (the literals without complementary occurrence).  Doping
(`translate.dope`) adds one fresh positive variable to every clause; the
mps's of F then reappear as the prime implicates of the doped set, which
makes them computable by one resolution closure.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .core import (
    Clause, ClauseSet, SizeLimitExceeded, clause_key, entails, is_satisfiable,
    literals, variables,
)
from .reductions import prime_implicates
from .translate import dope
from .trees import NotSmu1Error, tsmuo

#: The most clauses `mps_subsets_direct` tests the 2^c subsets of.
_MAX_DIRECT_CLAUSES = 16


def pure_clause(f: ClauseSet) -> Clause:
    """puc(F): the literals of F occurring in one sign only."""
    lits = literals(f)
    return frozenset(x for x in lits if -x not in lits)


@dataclass(frozen=True)
class MpsWitness:
    subset: ClauseSet       # the minimal premise set F'
    conclusion: Clause      # its unique minimal conclusion puc(F')


def _puc_image(f: ClauseSet) -> ClauseSet | None:
    """phi_{puc(F)} * F; None if F is empty or two premises collapse.  The
    complement of a pure literal never occurs in F, so phi_{puc(F)} satisfies
    no clause and only takes puc(F) out of each."""
    p = pure_clause(f)
    img = {c - p for c in f}
    return frozenset(img) if f and len(img) == len(f) else None


def is_mps(f: ClauseSet) -> MpsWitness | None:
    """Check whether F is a minimal premise set (for its pure clause).

    F is an mps iff the images of its clauses under phi_{puc(F)} are pairwise
    distinct and form a minimally unsatisfiable clause-set.
    """
    g = _puc_image(f)
    if g is None or is_satisfiable(g) or not all(is_satisfiable(g - {c}) for c in g):
        return None
    return MpsWitness(f, pure_clause(f))


def mps_subsets(f: ClauseSet) -> frozenset[MpsWitness]:
    """All minimal premise subsets of F, via the prime implicates of D(F).

    Each prime implicate C of the doped set selects the base clauses whose
    doping variable occurs in C; the conclusion is C minus the doping part.
    """
    d = dope(f)
    inv = d.new_vars
    out = set()
    for c in prime_implicates(d.clauses):
        subset = frozenset(inv[abs(x)] for x in c if abs(x) in inv)
        conclusion = frozenset(x for x in c if abs(x) not in inv)
        out.add(MpsWitness(subset, conclusion))
    return frozenset(out)


def mps_subsets_direct(f: ClauseSet) -> frozenset[MpsWitness]:
    """Independent oracle: test every non-empty subset with is_mps."""
    if len(f) > _MAX_DIRECT_CLAUSES:
        raise SizeLimitExceeded(f"direct mps enumeration over {len(f)} clauses",
                                budget="clauses", limit=_MAX_DIRECT_CLAUSES, progress=len(f))
    cs = sorted(f, key=clause_key)
    out = set()
    for r in range(1, len(cs) + 1):
        for sub in itertools.combinations(cs, r):
            w = is_mps(frozenset(sub))
            if w is not None:
                out.add(w)
    return frozenset(out)


def is_total_mps(f: ClauseSet) -> bool:
    """Every non-empty subset of F an mps: phi_{puc(F)} must be contraction-
    free and send F into the saturated deficiency-1 class."""
    g = _puc_image(f)
    if g is None:
        return False
    try:
        tsmuo(g)
    except NotSmu1Error:
        return False
    return True


def has_max_prime_implicates(f: ClauseSet) -> bool:
    """|primec_0(F)| = 2^c(F) - 1: F is a total mps and every clause owns a
    variable occurring in no other clause."""
    return bool(f) and is_total_mps(f) and all(variables(c) - variables(f - {c}) for c in f)


def prime_implicates_bounded(f: ClauseSet, k: int) -> ClauseSet:
    """Implicates obtainable as pure clauses of entailing subsets of size
    <= k, minimized under subsumption.  For k = c(F) this is primec_0(F)."""
    cs = sorted(f, key=clause_key)
    collected: set[Clause] = set()
    for r in range(1, min(k, len(cs)) + 1):
        for sub in itertools.combinations(cs, r):
            g = frozenset(sub)
            c = pure_clause(g)
            if entails(g, c):
                collected.add(c)
    return frozenset(c for c in collected if not any(d < c for d in collected))
