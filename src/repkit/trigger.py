"""Trigger hypergraphs over prime implicates, and lower-bound certificates.

For a set P of prime implicates and a bound k, the hyperedge of C collects
the implicates compatible with C (no clash with the complement of C) that
reach C by forgetting at most k literals.  Every equivalent clause-set of
asymmetric width <= k must hit every such edge, so the transversal number
tau (and hence the matching number nu) lower-bounds its clause count.
The edges are found on literal masks (`_hyperedges`): two int tests per
pair of clauses.

Both numbers are exact, by branch and bound on int vertex masks (bit i is
the i-th vertex in clause_key order), depth first on one explicit stack
(`_search`; a node yields its child searches, so nothing here recurses).
The matching search takes the edges by size, carrying the later edges
disjoint from all picked ones, and stops at a node once the picked edges
plus the distinct lowest vertices of the candidates left cannot beat the
best: edges sharing their lowest vertex meet, so no matching holds two of
them.  Only a strictly larger matching replaces the best, so the first
maximum matching in that order comes back, as from the plain search
without the bound.  The hitting-set search branches on the vertices of
the first edge not yet hit, lowest bit first, starting from a greedy
hitting set.

For doped extremal trees the certificates of Sperner type are produced
directly from leaf sets; the full hypergraph is never materialized.  The
members of each certificate edge come from one fold over the tree that
keeps, per subtree, only the parts of leaf sets still within k literals of
the edge's clause; a budget on the pairs of parts it combines
(_MAX_FOLD_PAIRS) bounds its work.
"""

from __future__ import annotations

import itertools
import json
from collections import Counter
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from math import comb

from .core import Clause, ClauseSet, SizeLimitExceeded, clause_key, variables
from .trees import Tree, _depth_k_leaf_blocks, _fold, _implicate_builder, _labels

# depth_k_incomparable_family refuses to combine more member pairs than this.
_MAX_FOLD_PAIRS = 2_000_000


@dataclass
class TriggerHypergraph:
    k: int
    vertices: tuple[Clause, ...]
    edges: dict[Clause, frozenset[Clause]]    # vertex C -> its hyperedge E^k_C


def _hyperedges(p: Iterable[Clause], cs: Iterable[Clause], k: int) -> list[frozenset[Clause]]:
    """E^k_C over p for each clause C of cs, on literal masks: variable i
    is bit 2i, its negation bit 2i + 1.  cp is in E^k_C when its mask meets
    none of C's complement and has at most k bits outside C's mask."""
    p, cs = list(p), list(cs)
    bit: dict[int, int] = {}
    for i, v in enumerate(variables(p + cs)):
        bit[v], bit[-v] = 1 << 2 * i, 2 << 2 * i
    encoded = [(sum(map(bit.__getitem__, cp)), cp) for cp in p]
    edges = []
    for c in cs:
        outside, comp = ~sum(map(bit.__getitem__, c)), sum(bit[-x] for x in c)
        edges.append(frozenset(cp for m, cp in encoded
                               if not m & comp and (m & outside).bit_count() <= k))
    return edges


def in_hyperedge(cp: Clause, c: Clause, k: int) -> bool:
    """cp in E^k_C."""
    return bool(_hyperedges((cp,), (c,), k)[0])


def hyperedge(p: ClauseSet, c: Clause, k: int) -> frozenset[Clause]:
    return _hyperedges(p, (c,), k)[0]


def trigger_hypergraph(p: ClauseSet, k: int) -> TriggerHypergraph:
    if k < 0:
        raise ValueError("k must be >= 0")
    vertices = tuple(sorted(p, key=clause_key))
    return TriggerHypergraph(k, vertices, dict(zip(vertices, _hyperedges(vertices, vertices, k))))


# Both searches run on int vertex masks: bit i stands for the i-th vertex in
# clause_key order over the union of the edges, and an edge is the sum of its
# bits.  Disjointness is `not e & f`, inclusion of f in e `f & e == f`.

def _edge_masks(h: TriggerHypergraph) -> tuple[list[Clause], list[frozenset[Clause]], list[int]]:
    """The vertices in bit order, and the distinct edges with their masks,
    sorted by (size, sorted clause_key of the members)."""
    vertices = sorted(set().union(*h.edges.values()), key=clause_key)
    bit = {c: i for i, c in enumerate(vertices)}
    keyed = sorted((len(e), sorted(bit[c] for c in e), e) for e in set(h.edges.values()))
    return (vertices, [e for _, _, e in keyed],
            [sum(1 << i for i in bits) for _, bits, _ in keyed])


def _edge_list(edges: list[int]) -> list[int]:
    """The inclusion-minimal edges, in order (a transversal of the minimal
    edges hits all of them)."""
    out: list[int] = []
    for e in edges:
        if not any(f & e == f for f in out):
            out.append(e)
    return out


def _bits(m: int):
    """The single-bit masks of m, lowest first."""
    while m:
        low = m & -m
        yield low
        m ^= low


def _search(root: Iterator) -> None:
    """Depth first on an explicit stack; a node yields its child searches."""
    stack = [root]
    while stack:
        child = next(stack[-1], None)
        if child is None:
            stack.pop()
        else:
            stack.append(child)


def transversal_number(h: TriggerHypergraph) -> tuple[int, frozenset[Clause]]:
    """Exact minimum hitting set over the hyperedges, by branch and bound."""
    vertices, _, masks = _edge_masks(h)
    edges = _edge_list(masks)
    if not all(edges):
        raise ValueError("empty hyperedge cannot be hit")
    greedy = _greedy_transversal(edges)
    best = [greedy.bit_count(), greedy]
    _search(_hit(edges, 0, 0, best))
    return best[0], frozenset(vertices[v.bit_length() - 1] for v in _bits(best[1]))


def _hit(rem: list[int], chosen: int, size: int, best: list) -> Iterator:
    """Extend the hitting set `chosen` (size vertices) until it hits rem;
    best holds the first smallest hitting set found.  Yields the search of
    each vertex of the first edge not hit, lowest bit first."""
    rem = [e for e in rem if not e & chosen]
    if not rem:
        if size < best[0]:
            best[0], best[1] = size, chosen
        return
    lb, used = 0, 0  # pairwise disjoint edges left: each needs its own vertex
    for e in rem:
        if not e & used:
            lb += 1
            used |= e
    if size + lb >= best[0]:
        return
    for v in _bits(rem[0]):
        yield _hit(rem, chosen | v, size + 1, best)


def _greedy_transversal(edges: list[int]) -> int:
    """Take the vertex in most edges not yet hit, the lowest bit on a tie.
    count keeps, per vertex, the number of edges not yet hit through it."""
    count = Counter(v for e in edges for v in _bits(e))
    chosen, rem = 0, edges
    while rem:
        v = max(count, key=lambda u: (count[u], -u))
        chosen |= v
        count -= Counter(u for e in rem if e & v for u in _bits(e))
        rem = [e for e in rem if not e & v]
    return chosen


def matching_number(h: TriggerHypergraph) -> tuple[int, tuple[frozenset[Clause], ...]]:
    """Exact maximum number of pairwise disjoint hyperedges, by branch and bound."""
    _, edges, masks = _edge_masks(h)
    best: list = [0, ()]
    _search(_pack(masks, (), best))
    edge_of = dict(zip(masks, edges))
    return best[0], tuple(edge_of[e] for e in best[1])


def _pack(cands: list[int], picked: tuple[int, ...], best: list) -> Iterator:
    """Extend the matching `picked` by the candidates, the later edges
    disjoint from all of it, depth first in edge order; best holds the first
    largest matching found, replaced only by a strictly larger one.  Yields
    the search of each child, bounded once the one before is done.

    Edges with the same lowest vertex meet there, so cands[i:] holds at most
    lows[i] disjoint edges, its number of distinct lowest vertices; the
    search stops once picked plus that cannot beat the best."""
    if len(picked) > best[0]:
        best[0], best[1] = len(picked), picked
    lows, seen = [], set()
    for e in reversed(cands):
        seen.add(e & -e)
        lows.append(len(seen))
    lows.reverse()
    for i, e in enumerate(cands):
        if len(picked) + lows[i] <= best[0]:
            return
        yield _pack([f for f in cands[i + 1:] if not f & e], picked + (e,), best)


# ---------------------------------------------------------------------------
# closed-form prime implicates of doped trees, and Sperner certificates
# ---------------------------------------------------------------------------

def doped_tree_implicates(t: Tree):
    """Yield (leaf mask, C_V) for every non-empty leaf set V: exactly the
    prime implicates of dope(smuo(T)), 2^leaves - 1 in total."""
    nl, implicate = _implicate_builder(t)
    for mv in range(1, 1 << nl):
        yield mv, implicate(mv)


@dataclass
class DisjointEdgeCertificate:
    """Pairwise disjoint trigger hyperedges of dope(smuo(T)).

    Edge i belongs to the implicate of leaf_sets[i] (clauses[i]); members are
    given as leaf masks indexing the implicate family.  Any width-k equivalent
    representation needs at least len(leaf_sets) clauses.
    """
    k: int
    leaf_sets: tuple[frozenset[int], ...]
    clauses: tuple[Clause, ...]
    members: tuple[tuple[int, ...], ...]

    @property
    def size(self) -> int:
        return len(self.leaf_sets)

    def to_json(self) -> str:
        return json.dumps({
            "k": self.k,
            "size": self.size,
            "edges": [{
                "leaf_set": sorted(v),
                "clause": sorted(c, key=abs),
                "member_leaf_masks": list(ms),
            } for v, c, ms in zip(self.leaf_sets, self.clauses, self.members)],
        }, indent=2)


def depth_k_incomparable_family(t: Tree, k: int) -> DisjointEdgeCertificate:
    """A maximal family of leaf sets incomparable on every depth-k subtree,
    with the pairwise disjointness of their hyperedges checked explicitly.

    Sperner construction: take all floor(m/2)-subsets (1-subsets when m = 1)
    of the leaves of a minimal depth-k subtree (m leaves) and transport them
    injectively into every other depth-k subtree.  The members of each edge
    come from one fold over the tree (`_fold_members`), so the 2^leaves - 1
    implicates are never listed; the only ones built are the edges' own
    clauses.  The fold's (left, right) pairs are counted across all leaf
    sets, and more than _MAX_FOLD_PAIRS are refused: up front when the
    comb(m, r) leaf sets times the leaves - 1 inner nodes, at least one
    pair each, already pass it.
    """
    blocks = _depth_k_leaf_blocks(t, k)
    m = min(len(b) for b in blocks)
    r = max(m // 2, 1)  # a one-leaf block still needs a non-empty leaf set
    count = comb(m, r)
    least = count * (sum(map(len, blocks)) - 1)
    if least > _MAX_FOLD_PAIRS:
        raise _too_many_pairs(least)
    subsets = [list(itertools.islice(itertools.combinations(b, r), count)) for b in blocks]
    leaf_sets = [frozenset(i for s in subsets for i in s[pos]) for pos in range(count)]

    labels = _labels(t)
    _, implicate = _implicate_builder(t)
    pairs = [0]
    edge_clauses, members = [], []
    for v in leaf_sets:
        mask = sum(1 << (i - 1) for i in v)
        edge_clauses.append(implicate(mask))
        members.append(_fold_members(labels, mask, k, pairs))
    # explicit pairwise disjointness check: each member belongs to one edge
    owner: dict[int, int] = {}
    for i, ms in enumerate(members):
        for mv in ms:
            j = owner.setdefault(mv, i)
            if j != i:
                raise AssertionError(f"hyperedges {j} and {i} share member {mv}")
    return DisjointEdgeCertificate(k, tuple(leaf_sets), tuple(edge_clauses), tuple(members))


def _too_many_pairs(progress: int) -> SizeLimitExceeded:
    return SizeLimitExceeded(
        f"depth_k_incomparable_family needs more than {_MAX_FOLD_PAIRS} fold pairs",
        budget="fold pairs", limit=_MAX_FOLD_PAIRS, progress=progress)


def _fold_members(labels: list[int | None], mv: int, k: int, pairs: list[int]) -> tuple[int, ...]:
    """The leaf masks V' of the members C_V' of E^k_{C_V}, V the leaf set of
    mask mv, sorted, by one fold over the tree of these pre-order labels.

    At an inner node, V and V' each meet both subtrees, one or none.  Where
    V meets one side only and V' the other side only, C_V and C_V' clash.
    Where V meets both sides or none and V' one side only, C_V' has an edge
    literal outside C_V; with the doping literals of V' outside V these are
    all of C_V' - C_V.  So a subtree's value is its leaf mask and, per cost
    c = 0..k, the non-empty parts of V' inside it that cost c so far; the
    empty part, of cost 0, is left implicit.  pairs[0] counts the (left,
    right) pairs the fold forms, those whose costs add to at most k, the
    empty parts included, and one past _MAX_FOLD_PAIRS raises."""
    def leaf(i: int):
        b = 1 << i
        cost = 0 if mv & b else 1  # its doping literal
        return b, [[b] if c == cost else [] for c in range(k + 1)]

    def inner(_, left, right):
        (lm, lp), (rm, rp) = left, right
        below = list(itertools.accumulate(map(len, rp), initial=1))  # right parts costing < c + 1
        pairs[0] += sum((len(lp[ca]) + (not ca)) * below[k + 1 - ca] for ca in range(k + 1))
        if pairs[0] > _MAX_FOLD_PAIRS:
            raise _too_many_pairs(_MAX_FOLD_PAIRS + 1)
        parts: list[list[int]] = [[] for _ in range(k + 1)]
        for ca in range(k + 1):  # V' meets both sides
            for cb in range(k + 1 - ca):
                parts[ca + cb] += [a | b for a in lp[ca] for b in rp[cb]]
        in_l, in_r = bool(mv & lm), bool(mv & rm)
        for own, other, side in ((in_l, in_r, lp), (in_r, in_l, rp)):  # V' meets one side
            if other and not own:
                continue  # a clash
            extra = 0 if own and not other else 1
            for c in range(k + 1 - extra):
                parts[c + extra] += side[c]
        return lm | rm, parts

    return tuple(sorted(itertools.chain.from_iterable(_fold(labels, leaf, inner)[1])))
