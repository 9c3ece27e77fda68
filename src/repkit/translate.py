"""Translations between DNF/XOR specifications and CNF representations.

The canonical translation `cant` introduces one selector variable per DNF
clause: selector implies each literal of its clause, the clause implies its
selector, and the long clause demands some selector.  `cantm` drops the
clause-to-selector direction, trading uniqueness of extensions for hardness
always <= 1.  Both are written by `_selector_translation` as a flat literal
stream, which `bench` appends to its own, and their `ordered` clauses are
read off it.  Doping, `dope`, adds one fresh variable to every clause.  XOR
constraints are translated along a chain of fresh parity variables, each link
represented by its prime implicates.  cant, cantm, dope and xor_chain return
a TranslationResult whose new_vars maps each fresh variable to its source.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from operator import neg

from .core import (
    Assignment, BOT, Clause, ClauseSet, SizeLimitExceeded, _Trail, _clause_order,
    _stream_clauses, clause, clause_key, complement, is_satisfiable, total_assignments,
    variables,
)
from .reductions import _essential, _level_under

#: The most variables, original and new, `extension_property` enumerates.
_MAX_EXTENSION_VARS = 18


@dataclass
class TranslationResult:
    ordered: tuple[Clause, ...]               # deterministic emission order
    new_vars: dict[int, Clause]               # fresh variable -> source clause
    kind: str                                 # "cant", "cantm", "dope" or "xor"

    @property
    def clauses(self) -> ClauseSet:
        return frozenset(self.ordered)


def cant(dnf, first_new_var: int | None = None) -> TranslationResult:
    """Canonical CNF translation of a DNF (sequence input fixes the clause
    order; fresh selector variables are numbered in that order, from
    first_new_var if given, which must lie above every input variable)."""
    return _selector_result(dnf, first_new_var, "cant")


def cantm(dnf, first_new_var: int | None = None) -> TranslationResult:
    """Reduced canonical translation: only selector-implies-literal clauses
    plus the long clause."""
    return _selector_result(dnf, first_new_var, "cantm")


def _selector_result(dnf, first_new_var: int | None, kind: str) -> TranslationResult:
    order = [clause(*c) for c in _clause_order(dnf)]  # validation
    if not order:                      # empty disjunction: constant false
        return TranslationResult((BOT,), {}, kind)
    v0 = _fresh(max(map(abs, set().union(*order)), default=0), first_new_var, "first_new_var")
    stream: list[int] = []
    lengths: list[int] = []
    _selector_translation([sorted(c, key=abs) for c in order], v0, kind, stream, lengths)
    return TranslationResult(tuple(_selector_clauses(stream, lengths)),
                             {v0 + i: c for i, c in enumerate(order)}, kind)


def _selector_translation(terms: list, v0: int, kind: str, stream: list[int], lengths: list[int]) -> None:
    """cant of the terms, each complement-free and ascending by variable, with
    selectors s_i = v0 + i above all their variables; for kind "cantm"
    without the clause-implies-selector clauses.  It is appended to a literal
    stream, each clause's literals ascending by variable and then 0, and its
    clause lengths to lengths: the binary clauses (x, -s_i) of every term,
    then (kind "cant") each term's complement with s_i, then the long clause
    of all selectors."""
    selectors = range(v0, v0 + len(terms))
    binary = len(stream)
    stream += itertools.chain.from_iterable(zip(
        itertools.chain.from_iterable(terms),
        itertools.chain.from_iterable(map(itertools.repeat, map(neg, selectors), map(len, terms))),
        itertools.repeat(0)))
    lengths += itertools.repeat(2, (len(stream) - binary) // 3)
    if kind == "cant":
        for s, t in zip(selectors, terms):
            stream += map(neg, t)
            stream += (s, 0)
        lengths += [len(t) + 1 for t in terms]
    if kind == "cantm" or terms != [[]]:  # cant of the one empty term already has {v0}
        stream += selectors
        stream.append(0)
        lengths.append(len(terms))


def _selector_clauses(stream: list[int], lengths: list[int]) -> list[Clause]:
    """The clauses of a stream that ends in `_selector_translation`'s.  Its
    last clause, the long one, is a frozenset of its slice, grown 4x at a
    time as a frozenset of a range is."""
    return _stream_clauses(stream, lengths[:-1]) + [frozenset(stream[-1 - lengths[-1]:-1])]


def dope(f) -> TranslationResult:
    """D(F): extend every clause by a fresh positive variable.

    The doping variables are numbered from max var(F) + 1 in the clause
    order rule (a set sorted by clause_key, a sequence as given), and
    new_vars maps each to its base clause."""
    order = _clause_order(f)
    new_vars = dict(enumerate(order, max((abs(x) for c in order for x in c), default=0) + 1))
    return TranslationResult(tuple(c | {u} for u, c in new_vars.items()), new_vars, "dope")


def _fresh(top: int, first: int | None, name: str) -> int:
    """first, or top + 1 when it is None; first must lie above top."""
    if first is not None and first <= top:
        raise ValueError(f"{name} {first} is not above the largest input variable {top}")
    return top + 1 if first is None else first


def complement_clauses(clauses) -> list[Clause]:
    """Clause-wise complement: as a DNF this is the negation of the CNF
    (and vice versa)."""
    return [complement(c) for c in _clause_order(clauses)]


def negate_doped(d: TranslationResult) -> list[Clause]:
    """For the doping D(F) of an unsatisfiable hitting F, the hitting DNF
    equivalent to D(F): complement the base literals of each clause, keep
    the doping literal; sorted by the clause_key of the base clause.  Raises
    if the base is not unsatisfiable hitting."""
    base = sorted(d.new_vars.items(), key=lambda uc: clause_key(uc[1]))
    for (_, c1), (_, c2) in itertools.combinations(base, 2):
        if not any(-x in c2 for x in c1):
            raise ValueError("base clause-set is not hitting")
    if is_satisfiable(frozenset(d.new_vars.values())):
        raise ValueError("base clause-set is satisfiable")
    return [complement(c) | {u} for u, c in base]


# ---------------------------------------------------------------------------
# XOR
# ---------------------------------------------------------------------------

def _parity_link(a: int, b: int, c: int) -> list[Clause]:
    """primec_0(a xor b = c), four ternary clauses (a, b, c literals)."""
    return [frozenset({-a, b, c}), frozenset({a, -b, c}),
            frozenset({a, b, -c}), frozenset({-a, -b, -c})]


def xor_chain(lits: list[int], first_aux: int | None = None) -> TranslationResult:
    """CNF for x_1 xor ... xor x_n = 0 along a chain of parity variables.

    Each link is given by its prime implicates; the last link is the
    two-clause equality of the final parity variable with the last literal.
    Raises ValueError on the literal 0, on a variable given twice and on a
    first_aux not above every input variable.
    """
    seen: set[int] = set()
    for x in lits:
        if x == 0:
            raise ValueError("bad XOR literal 0: 0 is not a literal")
        if abs(x) in seen:
            raise ValueError(f"bad XOR literal {x}: variable {abs(x)} occurs twice")
        seen.add(abs(x))
    n = len(lits)
    if n == 0:
        return TranslationResult((), {}, "xor")
    if n == 1:
        return TranslationResult((frozenset({-lits[0]}),), {}, "xor")
    if n == 2:
        out = (frozenset({lits[0], -lits[1]}), frozenset({-lits[0], lits[1]}))
        return TranslationResult(out, {}, "xor")
    y0 = _fresh(max(abs(x) for x in lits), first_aux, "first_aux")
    ys = list(range(y0, y0 + n - 2))           # y_2 .. y_{n-1}
    out: list[Clause] = []
    out += _parity_link(lits[0], lits[1], ys[0])
    for i in range(2, n - 1):
        out += _parity_link(ys[i - 2], lits[i], ys[i - 1])
    out += [frozenset({ys[-1], -lits[n - 1]}), frozenset({-ys[-1], lits[n - 1]})]
    new_vars = {y: frozenset(lits[:i + 2]) for i, y in enumerate(ys)}
    return TranslationResult(tuple(out), new_vars, "xor")


def two_xor_system(n: int) -> ClauseSet:
    """The union of the chain translations of x_1 xor ... xor x_n = 0 and
    x_1 xor ... xor x_n = 1 with disjoint auxiliary variables: an
    unsatisfiable clause-set with 3n - 4 variables.  Its hardness is n only
    for n = 3, 4; for n = 3..8 it is 3, 4, 4, 5, 5, 5."""
    if n < 3:
        raise ValueError("needs n >= 3")
    a = xor_chain(list(range(1, n + 1)), first_aux=n + 1)
    b = xor_chain(list(range(1, n)) + [-n], first_aux=2 * n - 1)
    return a.clauses | b.clauses


# ---------------------------------------------------------------------------
# k-bases
# ---------------------------------------------------------------------------

def k_base(prime: ClauseSet, k: int) -> ClauseSet:
    """A small equivalent subset F of the prime implicates with hd(F) <= k.

    Greedy two-phase search: start from the necessary (essential) prime
    implicates and add the rest in ascending size while equivalence or the
    hardness bound still fails; then drop clauses in descending size where
    possible.
    """
    order = sorted(prime, key=clause_key)
    necessary = _essential(prime)
    f = set(necessary)

    def ok(g: set[Clause]) -> bool:
        """r_k (sound) refutes phi_C * g on g's trail for every prime implicate
        C, so g is also equivalent to prime.  g lies within prime, so bot is in
        phi_C * g iff C is in g: a clause of g inside C would be C itself."""
        t = _Trail(frozenset(g))
        return all(c in g or k and _level_under(t, c, k) is not None for c in order)

    for c in order:
        if c in f:
            continue
        if ok(f):
            break
        f.add(c)
    for c in sorted(f, key=clause_key, reverse=True):
        if c in necessary:
            continue
        if ok(f - {c}):
            f.discard(c)
    return frozenset(f)


# ---------------------------------------------------------------------------
# uniqueness of extensions
# ---------------------------------------------------------------------------

def extension_property(fp: ClauseSet, original_vars, dnf=None) -> str:
    """Classify how satisfying assignments of the represented function extend
    to the translation fp: "strong_uep", "uep", or "none".

    uep: every total satisfying assignment over the original variables has
    exactly one extension to the new variables satisfying fp.  strong uep
    (only checkable when the source DNF is supplied): already every partial
    assignment making some DNF clause true extends uniquely on the new
    variables alone.
    """
    orig = sorted(set(original_vars))
    aux = sorted(variables(fp) - set(orig))
    n = len(orig) + len(aux)
    if n > _MAX_EXTENSION_VARS:
        raise SizeLimitExceeded("extension_property enumeration too large",
                                budget="variables", limit=_MAX_EXTENSION_VARS, progress=n)

    def extensions(phi: Assignment) -> int:
        """The number of total psi on the new variables with phi + psi making
        a literal of every clause of fp true."""
        n_ext = 0
        for psi in total_assignments(aux):
            true = {v if b else -v for v, b in {**phi, **psi}.items()}
            n_ext += all(not true.isdisjoint(c) for c in fp)
        return n_ext

    uep = all(extensions(phi) <= 1 for phi in total_assignments(orig))
    if uep and dnf is not None:
        order = _clause_order(dnf)
        partial = ({v: b for v, b in zip(orig, alloc) if b is not None}
                   for alloc in itertools.product((None, 0, 1), repeat=len(orig)))
        if all(extensions(phi) == 1 for phi in partial
               if any(all(phi.get(abs(x)) == (x > 0) for x in c) for c in order)):
            return "strong_uep"
    return "uep" if uep else "none"
