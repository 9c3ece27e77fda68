import itertools
import random
import tracemalloc
from math import comb

import pytest

import repkit as rk
from helpers import (
    all_shapes, outcome, random_clause_set, ref_certificate, ref_certificate_members, ref_edge_list,
    ref_greedy_transversal, ref_hyperedge, ref_matching_number, ref_transversal_number,
)
from repkit import trees, trigger
from repkit.reductions import clause_key


def example_f():
    return [rk.clause(1, -3, -4), rk.clause(2, 3, -4), rk.clause(2, -3, 4),
            rk.clause(-2, 3, 4), rk.clause(1, 3, 4), rk.clause(1, 2)]


def tau_bruteforce(h: rk.TriggerHypergraph) -> int:
    vs = sorted(h.vertices, key=clause_key)
    for r in range(0, len(vs) + 1):
        for sub in itertools.combinations(vs, r):
            s = set(sub)
            if all(s & e for e in h.edges.values()):
                return r
    raise AssertionError("no transversal found")


def nu_bruteforce(h: rk.TriggerHypergraph) -> int:
    es = list(set(h.edges.values()))
    best = 0
    for r in range(1, len(es) + 1):
        for sub in itertools.combinations(es, r):
            if all(not (a & b) for a, b in itertools.combinations(sub, 2)):
                best = max(best, r)
    return best


def test_hyperedge_membership():
    cs = example_f()
    f = frozenset(cs)
    p = rk.prime_implicates(f)
    assert p == f
    c6 = rk.clause(1, 2)
    assert rk.hyperedge(p, c6, 1) == frozenset({c6})
    e2 = rk.hyperedge(p, c6, 2)
    assert e2 == frozenset({cs[0], cs[1], cs[2], cs[4], c6})
    # self-membership always holds
    for c in p:
        assert rk.in_hyperedge(c, c, 0)


def test_trigger_hypergraph_structure():
    p = rk.prime_implicates(frozenset(example_f()))
    h = rk.trigger_hypergraph(p, 1)
    assert h.k == 1 and frozenset(h.vertices) == p
    assert h.edges[rk.clause(1, 2)] == frozenset({rk.clause(1, 2)})


def test_hyperedges_match_the_frozen_reference():
    """trigger_hypergraph, hyperedge and in_hyperedge against the frozenset
    scan, on random clause-sets at k = 0..3, with clauses C outside P and
    an empty P."""
    rng = random.Random(54)
    for _ in range(150):
        nv = rng.randint(1, 6)
        p = random_clause_set(rng, nv, rng.randint(0, 10), rng.randint(1, 4))
        others = random_clause_set(rng, nv + 1, 4, 3) | {rk.clause(), frozenset({1, -1})}
        for k in range(4):
            h = rk.trigger_hypergraph(p, k)
            assert h.edges == {c: ref_hyperedge(c, k, p) for c in p}
            for c in p | others:
                assert rk.hyperedge(p, c, k) == ref_hyperedge(c, k, p)
                assert rk.hyperedge(frozenset(), c, k) == frozenset()
                for cp in p | others:
                    assert rk.in_hyperedge(cp, c, k) == bool(ref_hyperedge(c, k, (cp,)))
    assert rk.trigger_hypergraph(frozenset(), 2).edges == {}


def test_tau_nu_exact_small():
    rng = random.Random(51)
    for _ in range(25):
        f = random_clause_set(rng, 3, 4)
        p = rk.prime_implicates(f)
        if p == rk.BOT_SET or not p or len(p) > 8:
            continue
        for k in (1, 2):
            h = rk.trigger_hypergraph(p, k)
            assert rk.transversal_number(h)[0] == tau_bruteforce(h)
            assert rk.matching_number(h)[0] == nu_bruteforce(h)


def test_tau_at_least_nu():
    rng = random.Random(52)
    for _ in range(25):
        f = random_clause_set(rng, 4, 5)
        p = rk.prime_implicates(f)
        if p == rk.BOT_SET or not p:
            continue
        h = rk.trigger_hypergraph(p, 1)
        assert rk.transversal_number(h)[0] >= rk.matching_number(h)[0]


def test_example_tau_nu():
    p = rk.prime_implicates(frozenset(example_f()))
    h = rk.trigger_hypergraph(p, 1)
    assert rk.transversal_number(h)[0] == rk.matching_number(h)[0] == 2


def test_doped_tree_implicates_complete():
    t = rk.extremal_tree(2, 2)
    pairs = list(rk.doped_tree_implicates(t))
    assert len(pairs) == 2 ** rk.leaf_count(t) - 1
    assert frozenset(c for _, c in pairs) == rk.prime_implicates(
        rk.doped_tree(t).clauses)


def test_certificate_small():
    t = rk.extremal_tree(2, 3)
    cert = rk.depth_k_incomparable_family(t, 1)
    assert cert.size == 3
    for c in cert.clauses:
        assert c in rk.prime_implicates(rk.doped_tree(t).clauses)
    # on the smallest tree, compare against the full trigger hypergraph
    t = rk.extremal_tree(2, 2)
    cert = rk.depth_k_incomparable_family(t, 1)
    assert cert.size == 2
    p = rk.prime_implicates(rk.doped_tree(t).clauses)
    h = rk.trigger_hypergraph(p, 1)
    assert rk.matching_number(h)[0] >= cert.size


def test_certificate_json():
    t = rk.extremal_tree(2, 3)
    cert = rk.depth_k_incomparable_family(t, 1)
    data = cert.to_json()
    assert '"k": 1' in data


def test_certificate_refuses_large_trees_before_allocating(monkeypatch):
    t = rk.extremal_tree(2, 300)                 # 45,151 leaves: a count of 20,386 digits
    with pytest.raises(rk.SizeLimitExceeded, match="^depth_k_incomparable_family needs more"):
        rk.depth_k_incomparable_family(t, 0)
    sizes = [rk.depth_k_incomparable_family(rk.extremal_tree(2, h), 1).size for h in (6, 7)]
    assert sizes == [comb(6, 3), comb(7, 3)] == [20, 35]    # 22 and 29 leaves
    t = rk.extremal_tree(2, 4)                   # 6 leaf sets, 10 inner nodes, 477 pairs
    assert rk.depth_k_incomparable_family(t, 1).size == 6
    monkeypatch.setattr(trigger, "_MAX_FOLD_PAIRS", 59)
    with pytest.raises(rk.SizeLimitExceeded) as info:
        rk.depth_k_incomparable_family(t, 1)
    assert (info.value.budget, info.value.limit, info.value.progress) == ("fold pairs", 59, 60)


def test_certificate_refuses_at_the_first_fold_pair_past_the_limit(monkeypatch):
    """Admitted up front (60 pairs at least), refused inside the fold: the
    six folds combine 68, 85, 83, 95, 93 and 53 pairs, so the fourth one
    passes 300."""
    folds = _count_calls(monkeypatch, "_fold_members")
    monkeypatch.setattr(trigger, "_MAX_FOLD_PAIRS", 300)
    with pytest.raises(rk.SizeLimitExceeded) as info:
        rk.depth_k_incomparable_family(rk.extremal_tree(2, 4), 1)
    assert (info.value.budget, info.value.limit, info.value.progress) == ("fold pairs", 300, 301)
    assert str(info.value) == "depth_k_incomparable_family needs more than 300 fold pairs"
    assert folds[0] == 4


@pytest.mark.parametrize("k_tree, h, size", [
    *((1, h, s) for h, s in zip(range(2, 9), (3, 6, 10, 20, 35, 70, 126))),
    *((2, h, s) for h, s in zip(range(3, 8), (3, 6, 10, 20, 35))),
    (3, 4, 3),
])
def test_certificate_size_is_not_b_hk_nor_b_m(k_tree, h, size):
    """At width k - 1 the certificate of extremal_tree(k, h) has
    C(h - k + 2, floor((h - k + 2)/2)) edges: two heights past the stats
    column b_hk = C(h - k, .) and one past b_m = C(h - k + 1, .)."""
    d = h - k_tree
    assert rk.depth_k_incomparable_family(rk.extremal_tree(k_tree, h), k_tree - 1).size == size
    assert size == comb(d + 2, (d + 2) // 2)
    if k_tree >= 2:
        rec = rk.stats(rk.InstanceSpec(k_tree, h, 1))
        assert (rec.b_hk, rec.b_m) == (comb(d, d // 2), comb(d + 1, (d + 1) // 2))
        assert size not in (rec.b_hk, rec.b_m)


@pytest.mark.parametrize("k_tree, h, depth, pairs", [
    (1, 19, 0, 3_510_364), (3, 5, 0, 260_015_000),
])
def test_certificate_guard_counts_the_fold_pairs(monkeypatch, k_tree, h, depth, pairs):
    """Refused from the leaf blocks alone, comb(m, r) leaf sets times the
    leaves - 1 inner nodes: no leaf set is formed."""
    def refuse(*args):
        raise AssertionError("leaf sets formed")

    t = rk.extremal_tree(k_tree, h)
    monkeypatch.setattr(itertools, "combinations", refuse)
    with pytest.raises(rk.SizeLimitExceeded) as info:
        rk.depth_k_incomparable_family(t, depth)
    assert (info.value.budget, info.value.limit, info.value.progress) == \
        ("fold pairs", 2_000_000, pairs)


@pytest.mark.parametrize("k_tree, h, depth, size", [
    (2, 10, 1, comb(10, 5)), (2, 11, 1, comb(11, 5)), (2, 12, 1, comb(12, 6)), (1, 15, 0, 12_870),
])
def test_certificate_members_are_in_their_hyperedge_and_disjoint(k_tree, h, depth, size):
    """Trees the candidate loop refused: every member's implicate is in its
    edge, and no member is in two edges."""
    t = rk.extremal_tree(k_tree, h)
    cert = rk.depth_k_incomparable_family(t, depth)
    assert cert.size == size
    _, implicate = trees._implicate_builder(t)
    for c, ms in zip(cert.clauses, cert.members):
        assert all(rk.in_hyperedge(implicate(mv), c, depth) for mv in ms)
    flat = [mv for ms in cert.members for mv in ms]
    assert len(flat) == len(set(flat))


@pytest.mark.parametrize("k_tree, h, depth", [
    *((2, h, 1) for h in range(4, 8)), (3, 4, 1), (2, 5, 2), (3, 5, 2), (2, 4, 2),
])
def test_certificate_matches_the_frozen_candidate_loop(k_tree, h, depth):
    """(2, 4, 2) has a one-leaf block."""
    t = rk.extremal_tree(k_tree, h)
    cert = rk.depth_k_incomparable_family(t, depth)
    assert (cert.leaf_sets, cert.clauses, cert.members) == ref_certificate_members(t, depth)


def test_certificate_matches_the_frozen_candidate_loop_on_every_6_leaf_shape():
    """Unbalanced trees too, at every depth above their shallowest leaf."""
    for shape in all_shapes(6):
        t = trees.label_bfs(shape)
        for depth in range(min(d for s, d, _ in trees._walk(t) if s.is_leaf) + 1):
            cert = rk.depth_k_incomparable_family(t, depth)
            assert (cert.leaf_sets, cert.clauses, cert.members) == ref_certificate_members(t, depth)


@pytest.mark.parametrize("k_tree, h, depth", [
    (2, 2, 1), (2, 3, 1), (2, 4, 1), (2, 5, 1), (3, 3, 2), (3, 4, 2),
])
def test_certificate_matches_full_enumeration(k_tree, h, depth):
    t = rk.extremal_tree(k_tree, h)
    cert = rk.depth_k_incomparable_family(t, depth)
    assert (cert.leaf_sets, cert.clauses, cert.members) == ref_certificate(t, depth)


def test_certificate_lists_no_implicates(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("implicates listed")

    monkeypatch.setattr(trigger, "doped_tree_implicates", refuse)
    t = rk.extremal_tree(2, 5)
    tracemalloc.start()
    try:
        cert = rk.depth_k_incomparable_family(t, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert cert.size == 10
    assert peak < 2_000_000   # all 2^16 - 1 implicates take tens of MB


def test_certificate_one_leaf_block():
    t = rk.extremal_tree(2, 4)           # a leaf at depth 2: one-leaf block
    blocks = trees._depth_k_leaf_blocks(t, 2)
    assert min(map(len, blocks)) == 1
    cert = rk.depth_k_incomparable_family(t, 2)
    assert cert.size == 1
    (v,), (c,) = cert.leaf_sets, cert.clauses
    assert v and c == rk.clause_for_leaves(t, v)
    mask = sum(1 << (i - 1) for i in v)
    assert mask in cert.members[0]


def test_certificate_names_two_edges_that_share_a_member(monkeypatch):
    """Two equal leaf sets give one edge twice: the disjointness check names
    both edges and a member they share."""
    monkeypatch.setattr(trigger, "_depth_k_leaf_blocks", lambda t, k: [[1, 2], [2, 1]])
    with pytest.raises(AssertionError, match=r"hyperedges 0 and 1 share member 1$"):
        rk.depth_k_incomparable_family(rk.extremal_tree(2, 3), 1)


def _decode(vertices, m: int) -> frozenset:
    return frozenset(c for i, c in enumerate(vertices) if m >> i & 1)


def _equivalence_corpus():
    """Trigger hypergraphs of small random clause-sets, of doped 5-, 6- and
    7-leaf trees and of example_f(), and two built by hand: one with an
    empty edge, one with none."""
    rng = random.Random(53)
    out = []
    for _ in range(60):
        p = rk.prime_implicates(random_clause_set(rng, rng.randint(2, 5), rng.randint(2, 8)))
        out += [rk.trigger_hypergraph(p, k) for k in (0, 1, 2)]
    shapes = [rk.extremal_tree(1, 4), rk.extremal_tree(1, 5)]
    shapes += [trees.label_bfs(rng.choice(all_shapes(n))) for n in (5, 5, 6, 6)]
    for t in shapes:
        p = rk.prime_implicates(rk.doped_tree(t).clauses)
        out += [rk.trigger_hypergraph(p, k) for k in (1, 2)]
    # at k = 2 these beat the greedy hitting set, and the branch order
    # decides which minimum one comes back
    for i in (2, 58):
        p = rk.prime_implicates(rk.doped_tree(trees.label_bfs(all_shapes(7)[i])).clauses)
        out.append(rk.trigger_hypergraph(p, 2))
    p = rk.prime_implicates(frozenset(example_f()))
    out += [rk.trigger_hypergraph(p, k) for k in (0, 1, 2)]
    a, b = rk.clause(1), rk.clause(-1, 2)
    out.append(rk.TriggerHypergraph(1, (a, b), {a: frozenset(), b: frozenset({a, b})}))
    out.append(rk.TriggerHypergraph(1, (), {}))
    return out


def test_searches_match_frozen_references():
    for h in _equivalence_corpus():
        assert trigger.matching_number(h) == ref_matching_number(h)
        assert outcome(trigger.transversal_number, h) == outcome(ref_transversal_number, h)
        vertices, _, masks = trigger._edge_masks(h)
        edges = trigger._edge_list(masks)
        assert [_decode(vertices, e) for e in edges] == ref_edge_list(h)
        if all(edges):
            greedy = trigger._greedy_transversal(edges)
            assert _decode(vertices, greedy) == ref_greedy_transversal(ref_edge_list(h))


def _count_calls(monkeypatch, name):
    calls = [0]
    search = getattr(trigger, name)

    def counted(*args):
        calls[0] += 1
        return search(*args)

    monkeypatch.setattr(trigger, name, counted)
    return calls


# (_pack calls, _hit calls) on the doped trees of the test below
SEARCH_SIZES = {
    1: [(91, 1), (235, 109), (4932, 194)],
    2: [(131, 51), (163, 11), (72, 11)],
}


@pytest.mark.parametrize("k", [1, 2])
def test_searches_prune_where_the_best_cannot_be_beaten(monkeypatch, k):
    """Search sizes pinned on the doped 6-leaf trees: the matching search
    stops at a node once the picked edges plus the distinct lowest vertices
    of the candidates left cannot beat the best matching, the hitting-set
    search once the chosen vertices plus disjoint edges left cannot beat the
    best hitting set.  A weaker bound returns the same outputs and is caught
    only here."""
    packs, hits = _count_calls(monkeypatch, "_pack"), _count_calls(monkeypatch, "_hit")
    sizes = []
    shapes = [rk.extremal_tree(1, 5)] + [trees.label_bfs(all_shapes(6)[i]) for i in (16, 19)]
    for t in shapes:
        h = rk.trigger_hypergraph(rk.prime_implicates(rk.doped_tree(t).clauses), k)
        packs[0] = hits[0] = 0
        trigger.matching_number(h)
        trigger.transversal_number(h)
        sizes.append((packs[0], hits[0]))
    assert sizes == SEARCH_SIZES[k]


def _singletons_and_triangle() -> rk.TriggerHypergraph:
    """1,000 singleton edges plus a triangle's three edges."""
    vs = [rk.clause(i) for i in range(1, 1004)]
    edges = {c: frozenset({c}) for c in vs[:1000]}
    triangle = vs[1000:]
    edges.update((c, frozenset({c, triangle[(i + 1) % 3]})) for i, c in enumerate(triangle))
    return rk.TriggerHypergraph(0, tuple(vs), edges)


def test_transversal_number_needs_no_recursion():
    """1,000 singleton edges plus a triangle: tau = 1,000 + 2, with one
    search node per vertex picked, deeper than the interpreter's recursion
    limit."""
    h = _singletons_and_triangle()
    tau, hitting_set = rk.transversal_number(h)
    assert tau == len(hitting_set) == 1002
    assert all(hitting_set & e for e in h.edges.values())


def test_matching_number_bounds_by_lowest_vertices(monkeypatch):
    """1,000 singleton edges plus a triangle: nu = 1,000 + 1.  The first
    path picks the singletons and one triangle edge; after it, every node's
    candidates left have fewer distinct lowest vertices than the best needs,
    so the search stops after 1,003 nodes.  Counting the candidates left
    instead also searches, at every depth, the matchings that skip one more
    singleton, about half a million nodes."""
    packs = _count_calls(monkeypatch, "_pack")
    h = _singletons_and_triangle()
    nu, matching = rk.matching_number(h)
    assert nu == len(matching) == 1001
    assert all(not e & f for e, f in itertools.combinations(matching, 2))
    assert packs[0] == 1003
