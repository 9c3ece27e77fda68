"""Reduction hierarchy r_k, hardness measures, and prime implicates.

r_0 detects the empty clause, r_1 is unit-clause propagation, r_2 adds
failed-literal elimination, and generally r_k applies <x -> 1> whenever
r_{k-1} refutes <x -> 0> * F.  Refutation levels of the three hierarchies:

  hd  : minimal k with r_k(F) = {bot}           (unsatisfiable F),
        maximal refutation level over all unsatisfiable instances otherwise;
  phd : minimal k such that r_k computes the full forced-assignment fixpoint
        r_inf on every instance phi * F;
  whd : asymmetric width -- resolution where one parent has length <= k.

Literal scans run in a fixed order (ascending variable, positive literal
first), so results are reproducible; verdicts are order-independent anyway.

Every r_k with k >= 1 runs on the propagation engine `core._Trail`, one per
call, also of `hardness`, `p_hardness`, `relative_hardness` and
`w_hardness`, which push each phi_C onto F's trail and undo it.  Images
phi * F are built only by `split_hardness_bound` here, by `w_hardness` for
an instance that r_1 leaves open (its k-resolution kernel works on
clause-sets), and by `_Trail.image` and `models` in `core`.  r_1
(`propagate_units`) is the trail's unit propagation.  From k = 2 on,
failed literals are probed by push, propagate and pop on the trail (Lynce
and Marques-Silva, ICTAI 2003), recursing on it for the r_{k-1} test, so no
probe rebuilds the clause-set.  From k = 3 on, while no open clause has
fewer than k free literals, only the free literals of the open clauses with
exactly k are probed: any other probe would survive without deriving
anything, so the same literals fail in the same order.  r_k is confluent,
so the trail's final assignment applied to F is exactly r_k(F).  r_inf
probes each literal once on one trail, with the trail's DPLL as the test.
`unsat_level` decides satisfiability and hd together: an r_2 refutation
proves F unsatisfiable, and DPLL runs on the same trail only if r_2 leaves
it open.

hd and whd are maxima over the falsifying assignments of the prime
implicates, and hd^V over those of the prime implicates on V; phd is decided
from the same prime implicates, with one r_hd run per (implicate, literal)
pair instead of a walk over all instantiation images.  The module keeps no
memo between calls.

Prime implicates and whd run two resolution drivers over one clause
database, `_Clauses`, which holds each clause as an int literal bitmask and
keeps it subsumption-free with per-literal occurrence sets (Een and Biere,
"Effective preprocessing in SAT through variable and clause elimination",
SAT 2005).  `prime_implicates` resolves on each variable once (Tison,
1967); `_saturate`, for whd at width k = 1, 2, ... in turn, takes the
shortest pending clause next, as the given-clause loop does (McCune,
OTTER 3.0, 1994), and resolves it with the database, one parent of
length <= k.
"""

from __future__ import annotations

from collections import Counter, deque
from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass
from itertools import compress, product
from operator import itemgetter, neg

from .core import (
    Assignment, BOT, BOT_SET, Clause, ClauseSet, SizeLimitExceeded, _Trail,
    apply_assignment, clause_key, entails, falsifying_assignment,
    total_assignments, variables,
)


#: The most distinct new resolvents one `prime_implicates` call, or one
#: width of `_saturate`, generates.
_MAX_RESOLVENTS = 10 ** 6
#: The most variables `prime_implicates_bruteforce` scans 3^n clauses over.
_MAX_BRUTEFORCE_VARS = 8


def clear_caches() -> None:
    """Kept for callers that reset state between runs; nothing is cached."""


def propagate_units(f: ClauseSet) -> ClauseSet:
    """r_1: iterated unit-clause propagation."""
    return reduce_r(f, 1)


def reduce_r(f: ClauseSet, k: int) -> ClauseSet:
    """The reduction r_k(F)."""
    if k < 0:
        raise ValueError("k must be >= 0")
    if k == 0:
        return BOT_SET if BOT in f else f
    t = _Trail(f)
    return BOT_SET if t.raise_to(k) is not None else t.image(f)


def reduce_r_inf(f: ClauseSet) -> ClauseSet:
    """r_inf(F) = r_{n(F)}(F): the fixpoint of applying all forced assignments.

    Computed directly: x is forced iff <x -> 0> * F is unsatisfiable.  A
    literal forced after others are applied is forced in F already, so one
    pass over the literals, keeping each forced one on the trail, is enough.
    A literal that the last model found does not make true is not forced.
    """
    t = _Trail(f)
    model = t.model()
    if model is None:
        return BOT_SET
    for x in range(2, len(t.value)):
        if t.value[x] or model.get(t.vars[(x >> 1) - 1]) != 1 - (x & 1):
            continue
        mark = len(t.trail)
        found = t.model() if t.push(x ^ 1) else None
        t.undo(mark)
        if found is None:
            t.push(x)
        else:
            model = found
    return t.image(f)


def refutation_level(f: ClauseSet) -> int:
    """hd(F) for unsatisfiable F: minimal k with r_k(F) = {bot}.

    One trail is raised level by level, each fixpoint starting the next; if
    r_2 leaves it open, one DPLL run there first rules out a satisfiable F.
    """
    level = unsat_level(f)
    if level is None:
        raise ValueError("refutation_level requires an unsatisfiable clause-set")
    return level


def unsat_level(f: ClauseSet) -> int | None:
    """hd(F) for unsatisfiable F, None for satisfiable F.

    One trail of F is closed under r_2.  A refutation there is the proof
    that F is unsatisfiable, and its level is hd(F).  Only if the trail is
    still open does DPLL (`_Trail.model`) run on it, at that fixpoint: a
    model means satisfiable, and otherwise the climb goes on from r_3.
    """
    if BOT in f:
        return 0
    t = _Trail(f)
    level = t.raise_to(2)
    if level is None and t.model() is None:
        level = t.raise_to(len(t.vars), start=3)
    return level


@dataclass(frozen=True)
class HardnessReport:
    kind: str                     # "hd" | "phd" | "whd"
    value: int
    witness: tuple[tuple[int, int], ...] | None  # sorted (var, value) pairs

    def witness_assignment(self) -> Assignment | None:
        return None if self.witness is None else dict(self.witness)


def _as_witness(phi: Assignment) -> tuple[tuple[int, int], ...]:
    return tuple(sorted(phi.items()))


def _level_under(t: _Trail, c: Clause, k: int) -> int | None:
    """On F's trail t, the first j in 1..k with r_j refuting phi_C * F, or None."""
    mark = len(t.trail)
    level = t.raise_to(k) if t.assume(c) else 1
    t.undo(mark)
    return level


def _hd_level(f: ClauseSet, t: _Trail) -> Callable[[Clause], int | None]:
    """C -> hd(phi_C * F) on F's trail t, for C bot or a prime implicate: then
    phi_C * F holds bot iff C is in F, since an implicate inside C is C."""
    return lambda c: 0 if c in f else _level_under(t, c, len(t.vars))


def _max_over_prime_implicates(f: ClauseSet, t: _Trail, kind: str, level: Callable[[Clause], int]
                               ) -> tuple[HardnessReport, ClauseSet]:
    """max over instantiations phi with phi * F unsatisfiable of level(C), the
    level of phi_C * F, and the prime implicates of F ({bot} if F, on trail t,
    is unsatisfiable).  For satisfiable F the maximum is attained on the
    falsifying assignments phi_C of the prime implicates C, which is what gets
    enumerated; the witness is the phi_C of a maximizing C."""
    if t.model() is None:
        return HardnessReport(kind, level(BOT), _as_witness({})), BOT_SET
    prime = prime_implicates(f)
    best, best_c = max(((level(c), c) for c in sorted(prime, key=clause_key)),
                       key=itemgetter(0), default=(0, None))  # the first maximum
    witness = None if best_c is None else _as_witness(falsifying_assignment(best_c))
    return HardnessReport(kind, best, witness), prime  # witness None: tautology


def hardness(f: ClauseSet) -> HardnessReport:
    """hd(F): max over instantiations phi with phi * F unsatisfiable of the
    refutation level of phi * F."""
    t = _Trail(f)
    return _max_over_prime_implicates(f, t, "hd", _hd_level(f, t))[0]


def w_refutation_level(f: ClauseSet) -> int:
    """whd(F) for unsatisfiable F: minimal k admitting a k-resolution
    refutation (each step uses a parent of length <= k)."""
    if BOT in f:
        return 0
    for k in range(1, len(variables(f)) + 1):
        if _saturate(f, k) is BOT_SET:
            return k
    raise ValueError("w_refutation_level requires an unsatisfiable clause-set")


def w_hardness(f: ClauseSet) -> HardnessReport:
    """whd(F): like hardness, with k-resolution refutation levels.

    The level of phi_C * F is 0 if C is in F (as for hd) and 1 if r_1
    refutes it on F's trail, since 1-resolution refutes exactly what unit
    propagation refutes (WC_1 = UC_1).  Only the other instances are built
    as images and saturated."""
    t = _Trail(f)

    def level(c: Clause) -> int:
        if c in f:
            return 0
        if _level_under(t, c, 1):
            return 1
        return w_refutation_level(apply_assignment(falsifying_assignment(c), f))

    return _max_over_prime_implicates(f, t, "whd", level)[0]


def p_hardness(f: ClauseSet) -> HardnessReport:
    """phd(F): minimal k with r_k(phi * F) = r_inf(phi * F) for all phi.

    With hd = hd(F), phd(F) is hd or hd + 1 (r_{hd+1} applies every forced x,
    as r_hd refutes <x -> 0> * phi * F), and it is hd exactly when for
    every prime implicate C of F and every x in C, r_hd(phi_{C - x} * F)
    no longer contains var(x) (phi_{C - x} falsifies the other literals of
    C).  Unsatisfiable instances are refuted at level hd by definition of
    hd; a literal x forced in a satisfiable phi * F has a prime implicate C
    with x in C and phi_{C - x} contained in phi; and r_k's derivations
    survive extending the assignment (Kullmann, "Investigating a general
    hierarchy of polynomially decidable classes of CNF's based on short
    tree-like resolution proofs", ECCC 1999).  This reduction of the PC_k
    property to prime implicates follows Gwynne and Kullmann, "Generalising
    unit-refutation completeness and SLUR via nested input resolution",
    JAR 2014.

    C runs in clause_key order and x in scan order; the first phi_{C - x}
    that fails is the witness of value hd + 1, an instance on which r_hd
    and r_inf differ.  The witness of value hd is the empty assignment.
    Its only size bound is the _MAX_RESOLVENTS budget of `hardness`.
    """
    t = _Trail(f)
    rep, prime = _max_over_prime_implicates(f, t, "hd", _hd_level(f, t))
    hd = rep.value
    for c in sorted(prime, key=clause_key):
        for x in sorted(c, key=abs):
            # var(x) leaves r_hd(phi_{C - x} * F) iff r_hd refutes it or sets var(x):
            # it forces x, so an open clause holds var(x) while unset.  hd = 0 keeps {x}.
            mark = len(t.trail)
            kept = not hd or t.assume(c - {x}) and t.raise_to(hd) is None and not t.value[t.code[x]]
            t.undo(mark)
            if kept:
                return HardnessReport("phd", hd + 1, _as_witness(falsifying_assignment(c - {x})))
    return HardnessReport("phd", hd, _as_witness({}))


def relative_hardness(f: ClauseSet, vs: frozenset[int] | set[int]) -> int:
    """hd^V(F): hardness quantified only over assignments with variables in V.

    The maximum over phi with var(phi) <= V is reached at a minimal
    unsatisfiable instance phi * F, since hd never grows under instantiation,
    and each of those is phi_C for a prime implicate C with var(C) <= V.  So
    this is `hardness` with every other prime implicate counting 0.  Like
    `hardness`, it is bounded where a walk over the images phi * F is not:
    it raises SizeLimitExceeded once the prime implicates take more than
    _MAX_RESOLVENTS resolvents.
    """
    vs = frozenset(vs)
    t = _Trail(f)
    hd = _hd_level(f, t)
    return _max_over_prime_implicates(
        f, t, "hd", lambda c: hd(c) if variables(c) <= vs else 0)[0].value


def split_hardness_bound(f: ClauseSet, vs: frozenset[int] | set[int]) -> int:
    """Upper bound hd(F) <= |V| + max over total psi on V of hd(psi * F)."""
    vs = set(vs)
    return len(vs) + max(hardness(apply_assignment(psi, f)).value for psi in total_assignments(vs))


# ---------------------------------------------------------------------------
# resolution: prime implicates and k-resolution
# ---------------------------------------------------------------------------

def prime_implicates(f: ClauseSet) -> ClauseSet:
    """primec_0(F): {bot} for unsatisfiable F, the empty set for tautologies.

    Tison's method (IEEE Trans. Electronic Computers EC-16, 1967): with F's
    non-tautological clauses in a `_Clauses` database, each variable v is
    resolved on once, every clause holding v with every one holding -v.  A
    resolvent on v holds neither v nor -v, so one pass in any order leaves
    exactly the prime implicates; the order is ascending |pos(v)| * |neg(v)|
    in F, ties to the larger variable (Een and Biere's elimination order).
    Raises SizeLimitExceeded at the first distinct new resolvent past
    _MAX_RESOLVENTS.
    """
    f = [c for c in f if c.isdisjoint(map(neg, c))]
    if BOT in f:
        return BOT_SET
    db = _Clauses(f)
    seen = set(map(db.encode, f))
    for c in seen:
        db.insert(c)
    occ = Counter(x for c in f for x in c)
    cost = {v: occ[v] * occ[-v] for v in db.lits[::2]}
    generated, clauses = 0, db.by_slot.values()
    for v in sorted(filter(cost.get, cost), key=lambda v: (cost[v], -v)):
        p, n = db.bit[v], db.bit[-v]
        ps = [c ^ p for c in compress(clauses, map(p.__and__, clauses))]   # C - {v}
        ns = [d ^ n for d in compress(clauses, map(n.__and__, clauses))]   # D - {-v}
        for c, d in product(ps, ns):
            r = c | d
            if r in seen or r & (r >> 1) & db.even:      # seen, or a second clash
                continue
            if not r:
                return BOT_SET
            seen.add(r)
            generated += 1
            if generated > _MAX_RESOLVENTS:
                raise _exhausted("resolution", generated)
            db.insert(r)
    return db.decode()


def _exhausted(budget: str, progress: int) -> SizeLimitExceeded:
    return SizeLimitExceeded(f"{budget} budget of {_MAX_RESOLVENTS} resolvents exhausted",
                             budget=budget, limit=_MAX_RESOLVENTS, progress=progress)


class _Clauses:
    """A subsumption-free clause database.  A clause is an int bitmask over
    sorted(var(F)), bit 2i the i-th variable and bit 2i + 1 its negation; it
    holds a slot, and each literal the int set of the slots holding it.  The
    clauses inside c hold no literal outside c, and those containing c hold
    all of c's, so either subsumption test is one big-int operation per
    literal (occurrence lists after Een and Biere, SAT 2005)."""

    def __init__(self, f: Iterable[Clause]):
        self.lits = [x for v in sorted(variables(f)) for x in (v, -v)]
        self.bit = {x: 1 << i for i, x in enumerate(self.lits)}
        self.full = (1 << len(self.lits)) - 1
        self.even = self.full // 3                    # 0b0101...01: the positive literals
        self.by_slot: dict[int, int] = {}             # slot -> clause, in insertion order
        self.occ = [0] * len(self.lits)               # literal bit -> slots holding it
        self.live = 0                                 # the slots in use

    def encode(self, c: Clause) -> int:
        return sum(map(self.bit.__getitem__, c))

    def insert(self, c: int) -> bool:
        """Adds c, dropping the clauses that contain it, unless a clause of
        the database lies in c; returns whether c went in."""
        occ, reach, over = self.occ, 0, self.live
        for i in _bits(self.full ^ c):
            reach |= occ[i]                           # the clauses with a literal outside c
        if self.live & ~reach:
            return False
        for i in _bits(c):
            over &= occ[i]                            # the clauses containing c
        while over:
            self._flip(self.by_slot[over & -over], over & -over)
            over &= over - 1
        self._flip(c, ~self.live & (self.live + 1))   # into the lowest free slot
        return True

    def _flip(self, c: int, slot: int) -> None:
        """Puts c into its free slot, or takes it out of its slot."""
        if self.live & slot:
            del self.by_slot[slot]
        else:
            self.by_slot[slot] = c
        self.live ^= slot
        for i in _bits(c):
            self.occ[i] ^= slot

    def decode(self) -> ClauseSet:
        lit = self.lits.__getitem__
        return frozenset(frozenset(map(lit, _bits(d))) for d in self.by_slot.values())


def _bits(c: int) -> Iterator[int]:
    """The positions of c's set bits, lowest first."""
    while c:
        low = c & -c
        yield low.bit_length() - 1
        c ^= low


def _saturate(f: ClauseSet, k: int) -> ClauseSet:
    """Width-k resolution closure of F with subsumption, each step with a
    parent of length <= k: {bot} once the empty clause is derived, else the
    minimal clauses, which any fair order reaches.  The given clause is the
    shortest pending one, first in, first out among equal lengths, with F
    queued in clause_key order (lightest-first selection in the given-clause
    loop, McCune, OTTER 3.0 Reference Manual and Guide, ANL-94/6, 1994), and
    it is resolved with the database in insertion order.  Short clauses
    subsume most later ones and resolve towards bot, so a refutation comes
    long before the closure.  SizeLimitExceeded comes after the first
    clause whose resolvents take the count past _MAX_RESOLVENTS.
    """
    db = _Clauses(f)
    pending = [deque() for _ in range(len(db.lits) + 1)]    # by clause length
    for c in map(db.encode, sorted(f, key=clause_key)):
        pending[c.bit_count()].append(c)
    queued = set(map(db.encode, f))
    generated = 0
    while (shortest := next(filter(None, pending), None)) is not None:
        c = shortest.popleft()
        if not c:
            return BOT_SET
        if not db.insert(c):
            continue
        clauses = db.by_slot.values()
        partners = clauses if c.bit_count() <= k else [d for d in clauses if d.bit_count() <= k]
        even = db.even
        sc = ((c >> 1) & even) | ((c & even) << 1)    # c with every literal complemented
        for d in partners:      # c itself is last, and clashes with itself in 0 or 2+ bits
            clash = sc & d
            if clash and not clash & (clash - 1):     # exactly one clashing literal
                # drop it from d and its complement from c
                r = (c ^ (clash << 1 if clash & even else clash >> 1)) | (d ^ clash)
                if r not in queued:
                    queued.add(r)
                    pending[r.bit_count()].append(r)
                    generated += 1
        if generated > _MAX_RESOLVENTS:
            raise _exhausted(f"k-resolution (width k = {k})", generated)
    return db.decode()


def prime_implicates_bruteforce(f: ClauseSet) -> ClauseSet:
    """Independent oracle: all entailed clauses over var(F), minimized.

    Exponential scan of all 3^n candidate clauses; for cross-checking only.
    """
    vs = sorted(variables(f))
    if len(vs) > _MAX_BRUTEFORCE_VARS:
        raise SizeLimitExceeded(f"bruteforce prime implicates over {len(vs)} variables",
                                budget="variables", limit=_MAX_BRUTEFORCE_VARS, progress=len(vs))
    t = _Trail(f)
    mark, implicates = len(t.trail), []
    stack: list[tuple[int, tuple[int, ...]]] = [(0, ())]
    while stack:
        i, lits = stack.pop()
        if i == len(vs):   # F |= C: a refuted trail, or phi_C leaves no model
            if t.refuted or not t.assume(lits) or t.model() is None:
                implicates.append(frozenset(lits))
            t.undo(mark)
            continue
        v = vs[i]
        stack.append((i + 1, lits))
        stack.append((i + 1, lits + (v,)))
        stack.append((i + 1, lits + (-v,)))
    return frozenset(c for c in implicates
                     if not any(d < c for d in implicates))


def essential_prime_implicates(f: ClauseSet) -> ClauseSet:
    """Prime implicates whose removal from primec_0(F) loses equivalence.

    Every equivalent clause-set using subclauses of prime implicates needs at
    least this many clauses.
    """
    prime = prime_implicates(f)
    return prime if prime == BOT_SET else _essential(prime)


def _essential(prime: ClauseSet) -> ClauseSet:
    """The clauses C of the prime implicates P with P - {C} not entailing C."""
    return frozenset(c for c in prime if not entails(prime - {c}, c))


def substitute(f: ClauseSet, x: int, y: int) -> ClauseSet:
    """F with literal x replaced by literal y (and bar x by bar y);
    clauses becoming tautological are dropped."""
    out = set()
    for c in f:
        c2 = frozenset(y if t == x else (-y if t == -x else t) for t in c)
        if any(-t in c2 for t in c2):
            continue
        out.add(c2)
    return frozenset(out)
