"""Trigger hypergraphs over prime implicates, and lower-bound certificates.

For a set P of prime implicates and a bound k, the hyperedge of C collects
the implicates compatible with C (no clash with the complement of C) that
reach C by forgetting at most k literals.  Every equivalent clause-set of
asymmetric width <= k must hit every such edge, so the transversal number
tau (and hence the matching number nu) lower-bounds its clause count.

For doped extremal trees the certificates of Sperner type are produced
directly from leaf sets; the full hypergraph is never materialized.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from math import comb

from .core import Clause, ClauseSet, SizeLimitExceeded, complement
from .reductions import clause_key
from .trees import (
    Tree, _depth_k_leaf_blocks, _first_doping_var, _leaf_set_implicate, _node_masks, leaf_count,
)

# depth_k_incomparable_family refuses a tree with more than this many
# implicates (2^leaves - 1) before doing any work.
_MAX_IMPLICATES = 1 << 20


@dataclass
class TriggerHypergraph:
    k: int
    vertices: tuple[Clause, ...]
    edges: dict[Clause, frozenset[Clause]]    # vertex C -> its hyperedge E^k_C


def in_hyperedge(cp: Clause, c: Clause, k: int) -> bool:
    """cp in E^k_c: compatible with c and at most k literals outside c."""
    return not (cp & complement(c)) and len(cp - c) <= k


def hyperedge(p: ClauseSet, c: Clause, k: int) -> frozenset[Clause]:
    return frozenset(cp for cp in p if in_hyperedge(cp, c, k))


def trigger_hypergraph(p: ClauseSet, k: int) -> TriggerHypergraph:
    vertices = tuple(sorted(p, key=clause_key))
    return TriggerHypergraph(k, vertices, {c: hyperedge(p, c, k) for c in vertices})


def _edge_list(h: TriggerHypergraph) -> list[frozenset[Clause]]:
    """Distinct edges, inclusion-minimized (a transversal of the minimal
    edges hits all of them; a matching prefers small edges anyway)."""
    edges = sorted(set(h.edges.values()), key=lambda e: (len(e), sorted(map(clause_key, e))))
    out: list[frozenset[Clause]] = []
    for e in edges:
        if not any(f <= e for f in out):
            out.append(e)
    return out


def transversal_number(h: TriggerHypergraph) -> tuple[int, frozenset[Clause]]:
    """Exact minimum hitting set over the hyperedges, by branch and bound."""
    edges = _edge_list(h)
    if any(not e for e in edges):
        raise ValueError("empty hyperedge cannot be hit")
    best_set = _greedy_transversal(edges)
    best = [len(best_set), best_set]

    def lower_bound(rem: list[frozenset[Clause]]) -> int:
        lb, used = 0, set()
        for e in rem:
            if not (e & used):
                lb += 1
                used |= e
        return lb

    def go(rem: list[frozenset[Clause]], chosen: set[Clause]) -> None:
        rem = [e for e in rem if not (e & chosen)]
        if not rem:
            if len(chosen) < best[0]:
                best[0], best[1] = len(chosen), frozenset(chosen)
            return
        if len(chosen) + lower_bound(rem) >= best[0]:
            return
        e = min(rem, key=lambda e: (len(e), sorted(map(clause_key, e))))
        for v in sorted(e, key=clause_key):
            go(rem, chosen | {v})

    go(edges, set())
    return best[0], best[1]


def _greedy_transversal(edges: list[frozenset[Clause]]) -> frozenset[Clause]:
    chosen: set[Clause] = set()
    rem = list(edges)
    while rem:
        counts: dict[Clause, int] = {}
        for e in rem:
            for v in e:
                counts[v] = counts.get(v, 0) + 1
        v = max(sorted(counts, key=clause_key), key=lambda v: counts[v])
        chosen.add(v)
        rem = [e for e in rem if v not in e]
    return frozenset(chosen)


def matching_number(h: TriggerHypergraph) -> tuple[int, tuple[frozenset[Clause], ...]]:
    """Exact maximum number of pairwise disjoint hyperedges."""
    edges = sorted(set(h.edges.values()), key=lambda e: (len(e), sorted(map(clause_key, e))))
    best: list = [0, ()]

    def go(i: int, used: frozenset[Clause], picked: tuple) -> None:
        if len(picked) > best[0]:
            best[0], best[1] = len(picked), picked
        if len(picked) + (len(edges) - i) <= best[0]:
            return
        for j in range(i, len(edges)):
            e = edges[j]
            if not (e & used):
                go(j + 1, used | e, picked + (e,))

    go(0, frozenset(), ())
    return best[0], best[1]


# ---------------------------------------------------------------------------
# closed-form prime implicates of doped trees, and Sperner certificates
# ---------------------------------------------------------------------------

def doped_tree_implicates(t: Tree, first_doping_var: int | None = None):
    """Yield (leaf mask, C_V) for every non-empty leaf set V: exactly the
    prime implicates of dope(smuo(T)), 2^leaves - 1 in total."""
    masks, nl = _node_masks(t)
    u0 = _first_doping_var(t, first_doping_var)
    for mv in range(1, 1 << nl):
        yield mv, _leaf_set_implicate(masks, u0, nl, mv)


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
                "clause": sorted(c, key=lambda l: (abs(l), l)),
                "member_leaf_masks": list(ms),
            } for v, c, ms in zip(self.leaf_sets, self.clauses, self.members)],
        }, indent=2)


def depth_k_incomparable_family(t: Tree, k: int) -> DisjointEdgeCertificate:
    """A maximal family of leaf sets incomparable on every depth-k subtree,
    with the pairwise disjointness of their hyperedges checked explicitly.

    Sperner construction: take all floor(m/2)-subsets (1-subsets when m = 1)
    of the leaves of a minimal depth-k subtree (m leaves) and transport them
    injectively into every other depth-k subtree.  Edge members are found
    from leaf masks alone: only the leaf sets V' = s | e with s inside V and
    at most k leaves e outside V are candidates, so the 2^leaves - 1
    implicates are never listed.  Trees with more than _MAX_IMPLICATES
    implicates are still refused up front.
    """
    n_implicates = (1 << leaf_count(t)) - 1
    if n_implicates > _MAX_IMPLICATES:
        raise SizeLimitExceeded(
            f"depth_k_incomparable_family over {n_implicates} > {_MAX_IMPLICATES} implicates",
            budget="implicates", limit=_MAX_IMPLICATES, progress=n_implicates)
    blocks = _depth_k_leaf_blocks(t, k)
    m = min(len(b) for b in blocks)
    r = max(m // 2, 1)  # a one-leaf block still needs a non-empty leaf set
    count = comb(m, r)
    subsets = [list(itertools.islice(itertools.combinations(b, r), count)) for b in blocks]
    leaf_sets = [frozenset(i for s in subsets for i in s[pos]) for pos in range(count)]

    masks, nl = _node_masks(t)
    u0 = _first_doping_var(t)
    edge_clauses = []
    members = []
    for v in leaf_sets:
        mask = sum(1 << (i - 1) for i in v)
        c = _leaf_set_implicate(masks, u0, nl, mask)
        comp_c = complement(c)
        # C_V' has a doping literal for every leaf of V' outside V, so the only
        # candidates are V' = s | e with s inside V and at most k leaves e outside.
        subs = [0]
        for i in range(nl):
            if mask >> i & 1:
                subs += [s | 1 << i for s in subs]
        outside = [1 << i for i in range(nl) if not mask >> i & 1]
        found = []
        for j in range(k + 1):
            for e in itertools.combinations(outside, j):
                e_mask = sum(e)
                for s in subs:
                    mv = s | e_mask
                    if mv:
                        cp = _leaf_set_implicate(masks, u0, nl, mv)
                        if not (cp & comp_c) and len(cp - c) <= k:
                            found.append(mv)
        members.append(tuple(sorted(found)))
        edge_clauses.append(c)
    # explicit pairwise disjointness check
    for (i, a), (j, b) in itertools.combinations(enumerate(members), 2):
        inter = set(a) & set(b)
        if inter:
            raise AssertionError(f"hyperedges {i} and {j} share members {sorted(inter)}")
    return DisjointEdgeCertificate(k, tuple(leaf_sets), tuple(edge_clauses), tuple(members))
