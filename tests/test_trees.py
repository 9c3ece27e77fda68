import inspect
import math
import random
import sys

import pytest

import repkit as rk
from repkit import trees
from helpers import (
    all_shapes, outcome, ref_apply_literal, ref_build, ref_depth_k_leaf_blocks, ref_extremal_shape,
    ref_height, ref_hts, ref_inner_count, ref_label_bfs, ref_leaf_count, ref_node_masks,
    ref_dataclass_tree, ref_to_dot, ref_tree_clauses, ref_tree_labels, ref_tsmuo,
)


def relabel(shape: rk.Tree, labels) -> rk.Tree:
    """Assign the given inner-node labels to a shape in pre-order."""
    it = iter(labels)

    def go(t):
        if t is rk.LEAF:
            return t
        v = next(it)
        return rk.Tree(v, go(t.left), go(t.right))

    return go(shape)


def random_tree(rng, n_leaves: int) -> rk.Tree:
    shape = rng.choice(all_shapes(n_leaves))
    labels = rng.sample(range(1, 3 * n_leaves), n_leaves - 1)
    return relabel(shape, labels)


def test_tree_basics():
    t = rk.node(1, rk.node(2, rk.LEAF, rk.LEAF), rk.LEAF)
    assert rk.leaf_count(t) == 3 and rk.inner_count(t) == 2
    assert rk.height(t) == 2 and rk.hts(t) == 1
    assert rk.tree_labels(t) == {1, 2}


def test_tree_validation():
    with pytest.raises(ValueError):
        rk.Tree(1, rk.LEAF, None)
    with pytest.raises(ValueError):
        rk.Tree(None, rk.LEAF, rk.LEAF)


def test_smuo_clauses():
    t = rk.node(1, rk.node(2, rk.LEAF, rk.LEAF), rk.LEAF)
    f = rk.smuo(t)
    assert f == rk.clause_set([[1, 2], [1, -2], [-1]])
    assert not rk.is_satisfiable(f)


def test_smuo_rejects_duplicate_labels():
    t = rk.node(1, rk.node(1, rk.LEAF, rk.LEAF), rk.LEAF)
    with pytest.raises(ValueError):
        rk.smuo(t)


def test_smuo_minimally_unsatisfiable():
    rng = random.Random(21)
    for _ in range(15):
        f = rk.smuo(random_tree(rng, rng.randint(2, 5)))
        assert not rk.is_satisfiable(f)
        for c in f:
            assert rk.is_satisfiable(f - {c})


def test_tsmuo_roundtrip():
    rng = random.Random(22)
    for _ in range(40):
        t = random_tree(rng, rng.randint(1, 6))
        assert rk.tsmuo(rk.smuo(t)) == t


def test_tsmuo_rejects_other_clause_sets():
    with pytest.raises(rk.NotSmu1Error):
        rk.tsmuo(rk.clause_set([[1, 2], [-1, -2]]))
    with pytest.raises(rk.NotSmu1Error):
        rk.tsmuo(rk.clause_set([[1], [-1], [2, 3]]))
    # the label rule picks 2 in both branches; smuo's distinct-label
    # ValueError used to escape (the frozen ref_tsmuo still lets it through)
    full = rk.clause_set([[1, 2], [1, -2], [-1, 2], [-1, -2]])
    assert outcome(ref_tsmuo, full) == ("ValueError", "inner labels must be distinct")
    assert outcome(rk.tsmuo, full) == ("NotSmu1Error", "clause-set is not of the smuo form")


def test_hardness_equals_horton_strahler():
    rng = random.Random(23)
    for _ in range(20):
        t = random_tree(rng, rng.randint(1, 6))
        assert rk.refutation_level(rk.smuo(t)) == rk.hts(t)


def test_apply_literal_matches_instantiation():
    rng = random.Random(24)
    for _ in range(30):
        t = random_tree(rng, rng.randint(2, 6))
        v = rng.choice(sorted(rk.tree_labels(t)))
        lit = v if rng.random() < .5 else -v
        sub = rk.apply_literal(t, lit)
        img = rk.apply_assignment({v: 1 if lit > 0 else 0}, rk.smuo(t))
        assert rk.smuo(sub) == img


def test_alpha():
    assert rk.alpha(1, 4) == 5
    assert rk.alpha(2, 3) == 7
    assert rk.alpha(3, 3) == 8
    for k in range(1, 6):
        for h in range(k, 8):
            assert rk.alpha(k, h) == sum(math.comb(h, i) for i in range(k + 1))


def test_extremal_tree_shape():
    for k, h in [(1, 3), (1, 5), (2, 3), (2, 4), (3, 4), (3, 5)]:
        t = rk.extremal_tree(k, h)
        assert rk.hts(t) == k and rk.height(t) == h
        assert rk.leaf_count(t) == rk.alpha(k, h)
        # labels are breadth-first positions 1..inner_count
        assert rk.tree_labels(t) == set(range(1, rk.inner_count(t) + 1))


def test_extremal_tree_is_refused_above_the_literal_limit(monkeypatch):
    # the limit counts the literals of smuo(T), the tree's leaf depths
    for k, h in [(1, 5), (2, 6), (3, 7)]:
        l = trees._leaf_depth_sum(k, h)
        monkeypatch.setattr(trees, "_MAX_LITERALS", l)
        t = rk.extremal_tree(k, h)
        assert t == ref_label_bfs(ref_extremal_shape(k, h))
        assert sum(map(len, rk.tree_clauses(t))) == l
        monkeypatch.setattr(trees, "_MAX_LITERALS", l - 1)
        for build in (rk.extremal_shape, rk.extremal_tree):
            with pytest.raises(rk.SizeLimitExceeded, match=f"^the extremal tree k={k} h={h} has {l} ") as e:
                build(k, h)
            assert (e.value.budget, e.value.limit, e.value.progress) == ("literals", l - 1, l)


def test_extremal_tree_bfs_labels():
    t = rk.extremal_tree(2, 3)
    assert t.var == 1
    assert t.left.var == 2 and t.right.var == 3
    assert t.left.left.var == 4 and t.left.right.var == 5
    assert t.right.left.var == 6 and t.right.right is rk.LEAF


def test_extremal_maximises_leaves():
    # no SMU tree of height h and hardness k has more leaves than alpha(k, h)
    for shape in all_shapes(4) + all_shapes(5):
        t = relabel(shape, range(1, rk.leaf_count(shape)))
        k, h = rk.hts(t), rk.height(t)
        assert rk.leaf_count(t) <= rk.alpha(k, h)


def test_doped_tree():
    t = rk.node(1, rk.node(2, rk.LEAF, rk.LEAF), rk.LEAF)
    d = rk.doped_tree(t)
    assert d.ordered == (rk.clause(1, 2, 3), rk.clause(1, -2, 4),
                         rk.clause(-1, 5))
    assert set(d.new_vars) == {3, 4, 5}
    assert rk.is_satisfiable(d.clauses)


def test_clause_for_leaves_singletons():
    rng = random.Random(25)
    for _ in range(15):
        t = random_tree(rng, rng.randint(2, 5))
        d = rk.doped_tree(t)
        first = max(rk.tree_labels(t)) + 1  # doping starts after the largest label
        assert set(d.new_vars) == set(range(first, first + rk.leaf_count(t)))
        for i in range(1, rk.leaf_count(t) + 1):
            assert rk.clause_for_leaves(t, {i}) == d.ordered[i - 1]


def test_doping_variables_never_reuse_a_label():
    # inner_count + 1 = 3 would make leaf 3's clause {-7, -5, 5}
    t = rk.node(5, rk.LEAF, rk.node(7, rk.LEAF, rk.LEAF))
    d = rk.doped_tree(t)
    assert d.ordered == (rk.clause(5, 8), rk.clause(-5, 7, 9), rk.clause(-5, -7, 10))
    assert not set(d.new_vars) & rk.tree_labels(t)
    pairs = list(rk.doped_tree_implicates(t))
    assert frozenset(c for _, c in pairs) == rk.prime_implicates(d.clauses)
    for mask, c in pairs:
        assert not any(-x in c for x in c)
        assert rk.clause_for_leaves(t, {i for i in (1, 2, 3) if mask >> (i - 1) & 1}) == c
    cert = rk.depth_k_incomparable_family(t, 1)
    assert cert.clauses == (rk.clause(7, 8, 9),)


def test_clause_for_leaves_example():
    t = rk.extremal_tree(2, 2)
    assert rk.clause_for_leaves(t, {1, 3}) == rk.clause(2, 3, 4, 6)


def test_clause_for_leaves_are_prime_implicates():
    rng = random.Random(26)
    for _ in range(8):
        t = random_tree(rng, rng.randint(2, 4))
        d = rk.doped_tree(t)
        primes = rk.prime_implicates(d.clauses)
        for mask, c in rk.doped_tree_implicates(t):
            assert c in primes


def test_label_bfs_preserves_shape():
    rng = random.Random(27)
    for _ in range(10):
        t = random_tree(rng, rng.randint(1, 6))
        b = rk.label_bfs(t)
        assert rk.leaf_count(b) == rk.leaf_count(t)
        assert rk.hts(b) == rk.hts(t)
        assert rk.tree_labels(b) == set(range(1, rk.inner_count(t) + 1))


def test_to_dot():
    dot = rk.to_dot(rk.extremal_tree(1, 2))
    assert dot.startswith("digraph") and "->" in dot


def test_walks_match_frozen_recursive_walks():
    rng = random.Random(28)
    n = 0
    for n_leaves in range(1, 9):
        for shape in all_shapes(n_leaves):
            labels = rng.sample(range(1, 3 * n_leaves + 3), n_leaves - 1)
            t = relabel(shape, labels)
            for s in (t, shape):  # the shape has every label 0
                assert trees.hts(s) == ref_hts(s)
                assert trees.height(s) == ref_height(s)
                assert trees.leaf_count(s) == ref_leaf_count(s)
                assert trees.inner_count(s) == ref_inner_count(s)
                assert trees.tree_labels(s) == ref_tree_labels(s)
                assert trees.tree_clauses(s) == ref_tree_clauses(s)
                assert trees.to_dot(s) == ref_to_dot(s)
                masks, nl = trees._node_masks(s)
                want_masks, want_nl = ref_node_masks(s)
                assert nl == want_nl and sorted(masks) == sorted(want_masks)
                for first in (1, 7):
                    assert trees.label_bfs(s, first) == ref_label_bfs(s, first)
                for k in range(4):
                    assert outcome(trees._depth_k_leaf_blocks, s, k) == \
                        outcome(ref_depth_k_leaf_blocks, s, k)
            for v in labels + [max(labels, default=0) + 1]:
                for x in (v, -v):
                    assert outcome(rk.apply_literal, t, x) == outcome(ref_apply_literal, t, x)
            f = rk.smuo(t)
            assert rk.tsmuo(f) == ref_build(f, len(rk.variables(f))) == t
            n += 1
    assert n == 626


def mutated(rng, f: rk.ClauseSet) -> rk.ClauseSet:
    """F with one or two random edits: a clause dropped or added, or a
    literal dropped, added (maybe making a tautology), flipped or replaced."""
    cs = [set(c) for c in f]
    vs = sorted(rk.variables(f)) or [1]
    for _ in range(rng.randint(1, 2)):
        i = rng.randrange(len(cs))
        c, op = cs[i], rng.randrange(6)
        if op == 0 and len(cs) > 1:
            cs.pop(i)
        elif op == 1:
            cs.append({rng.choice((1, -1)) * v for v in rng.sample(vs, rng.randint(0, len(vs)))})
        elif op == 2:
            c.add(rng.choice((1, -1)) * rng.choice(vs + [vs[-1] + 1]))
        elif c:
            x = rng.choice(sorted(c))
            c.discard(x)
            if op == 3:
                c.add(-x)
            elif op == 4:
                c.add(rng.choice((1, -1)) * rng.choice(vs))
    return frozenset(map(frozenset, cs))


def test_tsmuo_matches_the_image_split():
    shapes = [s for n in range(1, 8) for s in all_shapes(n)]
    for s in shapes:
        f = rk.smuo(rk.label_bfs(s))
        assert rk.tsmuo(f) == ref_tsmuo(f)
    rng = random.Random(182)
    seen = set()
    for _ in range(20000):
        s = rng.choice(shapes)
        k = rk.inner_count(s)
        f = rk.smuo(relabel(s, rng.sample(range(1, 2 * k + 2), k)))
        if rng.random() < 0.9:
            f = mutated(rng, f)
        got = outcome(rk.tsmuo, f)
        assert got == outcome(ref_tsmuo, f), sorted(map(sorted, f))
        seen.add(got if isinstance(got, tuple) else "tree")
    for f in (rk.TOP, rk.BOT_SET):
        assert outcome(rk.tsmuo, f) == outcome(ref_tsmuo, f)
    assert len(seen) == 3  # a tree and both NotSmu1Error texts


def test_extremal_shape_matches_frozen_recursion():
    for k in range(6):
        for h in range(k, 12):
            if k or not h:
                assert rk.extremal_shape(k, h) == ref_extremal_shape(k, h)
    for k, h in [(-1, 3), (3, 2), (0, 1)]:
        assert outcome(rk.extremal_shape, k, h) == outcome(ref_extremal_shape, k, h)


def test_extremal_paths_are_the_leaf_paths_of_the_extremal_tree():
    """The walk over shape pairs gives the BFS-labelled tree's leaf paths,
    in leaf order, for every valid pair up to k = 5, h = k + 11, the lone
    leaf and a comb of height 200; it refuses the pairs extremal_shape does."""
    pairs = [(k, h) for k in range(1, 6) for h in range(k, k + 12)] + [(0, 0), (1, 200)]
    for k, h in pairs:
        assert trees._extremal_paths(k, h) == list(trees._leaf_paths(rk.extremal_tree(k, h))), (k, h)
    for k, h in [(-1, 3), (3, 2), (0, 1)]:
        assert outcome(trees._extremal_paths, k, h) == outcome(rk.extremal_shape, k, h)


def comb_tree(depth: int, left: bool) -> rk.Tree:
    """A comb of the given height, growing down the left or right edge."""
    t = rk.LEAF
    for v in range(depth, 0, -1):
        t = rk.node(v, t, rk.LEAF) if left else rk.node(v, rk.LEAF, t)
    return t


def test_tree_functions_do_not_recurse():
    deep = [rk.extremal_tree(1, 200), comb_tree(200, left=False)]
    results = []
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 50)
    try:
        for t in deep:
            f = rk.smuo(t)
            results.append((
                rk.hts(t), rk.height(t), rk.leaf_count(t), rk.inner_count(t),
                rk.tree_labels(t), rk.tree_clauses(t), f, rk.tsmuo(f),
                rk.apply_literal(t, 1), rk.apply_literal(t, -200),
                rk.label_bfs(t, 5), rk.doped_tree(t).ordered,
                rk.clause_for_leaves(t, {1, 201}), rk.to_dot(t),
                trees._depth_k_leaf_blocks(t, 1), trees._node_masks(t)[1],
            ))
        shape, n_leaves = rk.extremal_shape(1, 200), rk.alpha(1, 200)
    finally:
        sys.setrecursionlimit(limit)
    assert rk.leaf_count(shape) == n_leaves == 201
    for t, (hs, ht, nl, ni, labels, clauses, f, back, *_) in zip(deep, results):
        assert (hs, ht, nl, ni) == (1, 200, 201, 200)
        assert labels == set(range(1, 201)) and len(clauses) == 201 == len(f)
        assert back == t


def rebuilt(t: rk.Tree) -> rk.Tree:
    """An equal tree made of new inner nodes."""
    return t if t.is_leaf else rk.Tree(t.var, rebuilt(t.left), rebuilt(t.right))


def test_eq_hash_repr_match_the_dataclass():
    rng = random.Random(17)
    shapes = [s for n in range(1, 9) for s in all_shapes(n)]
    ts = []
    for s in shapes:
        n = rk.leaf_count(s)
        ts += [s, relabel(s, rng.sample(range(1, 3 * n), n - 1))]
    pairs = [(a, b) for a in ts[:130] for b in ts[:130]]  # up to 6 leaves
    pairs += [(t, rebuilt(t)) for t in ts]
    pairs += list(zip(ts, ts[1:]))
    for t in ts:
        assert repr(t) == repr(ref_dataclass_tree(t))
    for a, b in pairs:
        assert (a == b) is (ref_dataclass_tree(a) == ref_dataclass_tree(b))
        assert (a != b) is (ref_dataclass_tree(a) != ref_dataclass_tree(b))
        assert a != b or hash(a) == hash(b)
    assert rk.LEAF != 0 and not rk.LEAF == (None, None, None)


def test_eq_hash_repr_on_deep_trees():
    leaf = "Tree(var=None, left=None, right=None)"
    for left in (True, False):
        t, same = comb_tree(1200, left), comb_tree(1200, left)
        other = rk.apply_literal(t, 1200)  # the last inner node gives way to a leaf
        assert t == same and t != other and not t == other and hash(t) == hash(same)
        inner = "".join(f"Tree(var={v}, left=" + ("" if left else leaf + ", right=")
                        for v in range(1, 1201))
        tail = (", right=" + leaf + ")") * 1200 if left else ")" * 1200
        assert repr(t) == inner + leaf + tail
