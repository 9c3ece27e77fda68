"""Shared test utilities: random corpora and independent oracles.

The oracles deliberately take different routes than the library:
hardness by exhaustive recursion over partial assignments, p-hardness by
its plain definition, width-bounded refutation by a subsumption-free
closure.  Library results are checked against these on small inputs.
The ref_* functions are frozen copies of implementations the library has
replaced; they rebuild the clause-set where the library uses its trail,
hold clauses (and trigger hyperedges) as frozensets where the library uses
bitmasks, and read and write DIMACS text with a Python frame per literal
where the library maps builtins over whole lines and clauses.
`ref_verify` decides satisfiability by DPLL before it climbs r_2, r_3, ...
where the library lets an r_k refutation prove unsatisfiability.
"""

from __future__ import annotations

import heapq
import itertools
import math
from collections import deque
from dataclasses import make_dataclass
from functools import lru_cache

from repkit import (
    BOT, BOT_SET, Clause, ClauseSet, DimacsError, HardnessReport, LEAF, NotSmu1Error, SizeLimitExceeded,
    Tree, TriggerHypergraph, alpha, apply_assignment, apply_clauses, falsifying_assignment,
    hardness, inner_count, is_satisfiable, leaf_count, literals, node, prime_implicates,
    pure_clause, reduce_r, refutation_level, smuo, unsat_level, variables,
    w_refutation_level,
)
from repkit import bench, trees
from repkit.core import _Trail, total_assignments
from repkit.reductions import clause_key


def random_clause_set(rng, nv: int, nc: int, maxlen: int = 3,
                      minlen: int = 1) -> ClauseSet:
    out = set()
    for _ in range(nc):
        ln = rng.randint(minlen, maxlen)
        vs = rng.sample(range(1, nv + 1), min(ln, nv))
        out.add(frozenset(v if rng.random() < .5 else -v for v in vs))
    return frozenset(out)


def random_dnf(rng, nv: int, nc: int, maxlen: int = 3) -> list[Clause]:
    return sorted(random_clause_set(rng, nv, nc, maxlen),
                  key=lambda c: (len(c), sorted(map(abs, c)), sorted(c)))


def all_shapes(n_leaves: int) -> list[Tree]:
    """All full binary tree shapes with the given number of leaves."""
    if n_leaves == 1:
        return [LEAF]
    return [Tree(0, l, r)
            for i in range(1, n_leaves)
            for l in all_shapes(i)
            for r in all_shapes(n_leaves - i)]


def outcome(fn, *args):
    """fn(*args), or the type and text of the error it raises."""
    try:
        return fn(*args)
    except (ValueError, SizeLimitExceeded) as e:
        return type(e).__name__, str(e)


def hd_by_assignment_enumeration(f: ClauseSet) -> int:
    """hd(F) as the maximum refutation level over all instantiation images,
    explored one variable at a time (memoized on the image)."""
    memo: dict[ClauseSet, int] = {}

    def go(g: ClauseSet) -> int:
        hit = memo.get(g)
        if hit is not None:
            return hit
        if ref_solve(g) is None:
            v = refutation_level(g)
        else:
            v = 0
            for var in variables(g):
                for val in (0, 1):
                    v = max(v, go(apply_assignment({var: val}, g)))
        memo[g] = v
        return v

    return go(f)


def all_partial_assignments(vs):
    vs = sorted(vs)
    for alloc in itertools.product((None, 0, 1), repeat=len(vs)):
        yield {v: b for v, b in zip(vs, alloc) if b is not None}


def phd_by_definition(f: ClauseSet) -> int:
    """Least k with r_k(phi * F) = r_inf(phi * F) for every phi, literally."""
    images = {frozenset(apply_assignment(phi, f))
              for phi in all_partial_assignments(variables(f))}
    targets = {g: ref_reduce_r_inf(g) for g in images}
    for k in itertools.count():
        if all(reduce_r(g, k) == t for g, t in targets.items()):
            return k


# Frozen reference r_k: the whole-clause-set implementation that the trail
# engine in repkit.reductions replaced.  Every probe rebuilds the clause-set
# with apply_assignment; results are memoized on (k, F).
_REF_R_MEMO: dict[tuple[int, ClauseSet], ClauseSet] = {}


def ref_propagate_units(f: ClauseSet) -> ClauseSet:
    while True:
        if BOT in f:
            return BOT_SET
        phi = {}
        for c in f:
            if len(c) == 1:
                x = next(iter(c))
                if phi.get(abs(x)) == (0 if x > 0 else 1):
                    return BOT_SET
                phi[abs(x)] = 1 if x > 0 else 0
        if not phi:
            return f
        f = apply_assignment(phi, f)


def ref_reduce_r(f: ClauseSet, k: int) -> ClauseSet:
    if k == 0:
        return BOT_SET if BOT in f else f
    if k == 1:
        return ref_propagate_units(f)
    key = (k, f)
    hit = _REF_R_MEMO.get(key)
    if hit is not None:
        return hit
    g = ref_propagate_units(f)
    while g != BOT_SET:
        for x in sorted(literals(g), key=lambda x: (abs(x), 0 if x > 0 else 1)):
            if ref_reduce_r(apply_assignment({abs(x): 0 if x > 0 else 1}, g), k - 1) == BOT_SET:
                g = ref_propagate_units(apply_assignment({abs(x): 1 if x > 0 else 0}, g))
                break
        else:
            break
    _REF_R_MEMO[key] = g
    return g


def ref_refutation_level(f: ClauseSet) -> int:
    for k in range(len(variables(f)) + 1):
        if ref_reduce_r(f, k) == BOT_SET:
            return k
    raise ValueError("refutation_level requires an unsatisfiable clause-set")


# Frozen reference DPLL and r_inf: the recursive solver and the rebuild loop
# that the trail engine in repkit.core replaced.  Every node and every probe
# works on a rebuilt image of the clause-set.
def ref_solve(f: ClauseSet, max_nodes: int = 1 << 22):
    budget = [max_nodes]

    def go(g: ClauseSet, phi):
        budget[0] -= 1
        if budget[0] < 0:
            raise SizeLimitExceeded("DPLL node budget exhausted", budget="DPLL node",
                                    limit=max_nodes, progress=max_nodes - budget[0])
        while True:
            if BOT in g:
                return None
            units = [next(iter(c)) for c in g if len(c) == 1]
            if not units:
                break
            phi = dict(phi)
            for x in units:
                if phi.get(abs(x)) == (0 if x > 0 else 1):
                    return None
                phi[abs(x)] = 1 if x > 0 else 0
            g = apply_assignment(phi, g)
        if not g:
            return phi
        v = min(variables(g))
        for val in (1, 0):
            res = go(apply_assignment({v: val}, g), {**phi, v: val})
            if res is not None:
                return res
        return None

    return go(f, {})


def ref_reduce_r_inf(f: ClauseSet) -> ClauseSet:
    g = ref_propagate_units(f)
    if g != BOT_SET and ref_solve(g) is None:
        g = BOT_SET
    while g != BOT_SET:
        for x in sorted(literals(g), key=lambda x: (abs(x), 0 if x > 0 else 1)):
            if ref_solve(apply_assignment({abs(x): 0 if x > 0 else 1}, g)) is None:
                g = ref_propagate_units(apply_assignment({abs(x): 1 if x > 0 else 0}, g))
                break
        else:
            break
    return g


# Frozen reference resolution kernel: the saturation loop on frozenset
# clauses that the bitmask kernel repkit.reductions._saturate replaced.  Each
# new clause is checked for subsumption against the whole database and
# resolved against every (width-eligible) database clause.  Pending clauses
# sit in one heap keyed by arrival, first in, first out as the replaced
# kernel took them, or with shortest_first by (length, arrival), the
# library's given-clause order.
def _ref_resolve(c: Clause, d: Clause) -> Clause | None:
    clash = [x for x in c if -x in d]
    if len(clash) != 1:
        return None
    x = clash[0]
    return (c - {x}) | (d - {-x})


def ref_saturate(f: ClauseSet, k: int | None, max_clauses: int,
                 shortest_first: bool = False) -> ClauseSet:
    db: list[Clause] = []
    pending: list[tuple[int, int, Clause]] = []
    arrival = itertools.count()

    def push(c: Clause) -> None:
        heapq.heappush(pending, (len(c) if shortest_first else 0, next(arrival), c))

    for c in sorted(f, key=clause_key):
        push(c)
    queued: set[Clause] = set(f)
    generated = 0
    while pending:
        c = heapq.heappop(pending)[2]
        if not c:
            return BOT_SET
        if any(d <= c for d in db):
            continue
        db = [d for d in db if not c <= d]
        partners = db if k is None or len(c) <= k else [d for d in db if len(d) <= k]
        for d in partners:
            r = _ref_resolve(c, d)
            if r is not None and r not in queued:
                queued.add(r)
                push(r)
                generated += 1
        db.append(c)
        if generated > max_clauses:
            budget = "resolution" if k is None else f"k-resolution (width k = {k})"
            raise SizeLimitExceeded(f"{budget} budget of {max_clauses} resolvents exhausted",
                                    budget=budget, limit=max_clauses, progress=generated)
    return frozenset(db)


def kres_refutes_nosubsumption(f: ClauseSet, k: int, cap: int = 10 ** 5) -> bool:
    """Subsumption-free closure under resolution steps with a parent of
    length <= k; True iff the empty clause appears."""
    db = set(f)
    while True:
        new = set()
        for c, d in itertools.combinations(db, 2):
            if len(c) > k and len(d) > k:
                continue
            clash = [x for x in c if -x in d]
            if len(clash) != 1:
                continue
            r = (c - {clash[0]}) | (d - {-clash[0]})
            if r not in db:
                new.add(r)
        if BOT in new:
            return True
        if not new:
            return BOT in db
        db |= new
        if len(db) > cap:
            raise RuntimeError("closure oracle exploded")


def whd_by_closure(f: ClauseSet, cap: int = 10 ** 5) -> int:
    for k in itertools.count():
        if kres_refutes_nosubsumption(f, k, cap):
            return k


# Reference instance-statistics table: (k, h, variant) -> (n, c, l); the
# leaf counts per (k, h) follow separately.
REFERENCE_TABLE = {
    (2, 22, 1): (507, 508, 8604), (2, 22, 2): (761, 4811, 17716), (2, 22, 3): (761, 4557, 13160),
    (2, 32, 1): (1057, 1058, 24994), (2, 32, 2): (1586, 13556, 51046), (2, 32, 3): (1586, 13027, 38020),
    (2, 42, 1): (1807, 1808, 54784), (2, 42, 2): (2711, 29201, 111376), (2, 42, 3): (2711, 28297, 83080),
    (2, 52, 1): (2757, 2758, 101974), (2, 52, 2): (4136, 53746, 206706), (2, 52, 3): (4136, 52367, 154340),
    (2, 62, 1): (3907, 3908, 170564), (2, 62, 2): (5861, 89191, 345036), (2, 62, 3): (5861, 87237, 257800),
    (2, 72, 1): (5257, 5258, 264554), (2, 72, 2): (7886, 137536, 534366), (2, 72, 3): (7886, 134907, 399460),
    (3, 23, 1): (4095, 4096, 80594), (3, 23, 2): (6143, 44394, 165284), (3, 23, 3): (6143, 42346, 122939),
    (3, 33, 1): (12035, 12036, 327384), (3, 33, 2): (18053, 175729, 666804), (3, 33, 3): (18053, 169711, 497094),
    (3, 43, 1): (26575, 26576, 922524), (3, 43, 2): (39863, 487839, 1871624), (3, 43, 3): (39863, 474551, 1397074),
    (4, 24, 1): (25901, 25902, 562542), (4, 24, 2): (38852, 307174, 1150986), (4, 24, 3): (38852, 294223, 856764),
    (4, 34, 1): (105911, 105912, 3150408), (4, 34, 2): (158867, 1681117, 6406728), (4, 34, 3): (158867, 1628161, 4778568),
    (4, 44, 1): (299971, 299972, 11326724), (4, 44, 2): (449957, 5963335, 22953420), (4, 44, 3): (449957, 5813349, 17140072),
    (5, 25, 1): (136811, 136812, 3202912), (5, 25, 2): (205217, 1738269, 6542636), (5, 25, 3): (205217, 1669863, 4872774),
    (5, 35, 1): (768335, 768336, 24413776), (5, 35, 2): (1152503, 12975225, 49595888), (5, 35, 3): (1152503, 12591057, 37004832),
}

REFERENCE_ALPHA = {
    (2, 22): 254, (2, 32): 529, (2, 42): 904, (2, 52): 1379, (2, 62): 1954,
    (2, 72): 2629, (3, 23): 2048, (3, 33): 6018, (3, 43): 13288,
    (4, 24): 12951, (4, 34): 52956, (4, 44): 149986, (5, 25): 68406, (5, 35): 384168,
}


# Frozen reference phd: the image-walking p_hardness that the prime-implicate
# test in repkit.reductions replaced.  Every instantiation image is visited
# through single-variable extensions and r_hd is compared with r_inf on it.
def ref_p_hardness(f: ClauseSet) -> int:
    hd = hardness(f).value
    seen: set[ClauseSet] = set()
    stack = [f]
    while stack:
        g = stack.pop()
        if g in seen:
            continue
        seen.add(g)
        if reduce_r(g, hd) != ref_reduce_r_inf(g):
            return hd + 1
        for v in variables(g):
            for val in (0, 1):
                stack.append(apply_assignment({v: val}, g))
    return hd


# Frozen references on clause-set images: the hd/whd maximum, p_hardness,
# k_base, entails and prime_implicates_bounded as they were before the
# library pushed phi_C onto F's one trail.  Each instance phi_C * F is
# rebuilt with apply_assignment and solved or reduced afresh.
def ref_image_entails(f: ClauseSet, c) -> bool:
    return not is_satisfiable(apply_assignment(falsifying_assignment(c), f))


def _ref_image_max(f: ClauseSet, kind: str, level) -> tuple[HardnessReport, ClauseSet]:
    if not is_satisfiable(f):
        return HardnessReport(kind, level(f), ()), BOT_SET
    prime = prime_implicates(f)
    best, best_phi = 0, None
    for c in sorted(prime, key=clause_key):
        phi = falsifying_assignment(c)
        lv = level(apply_assignment(phi, f))
        if lv > best or best_phi is None:
            best, best_phi = lv, phi
    witness = None if best_phi is None else tuple(sorted(best_phi.items()))
    return HardnessReport(kind, best, witness), prime


def ref_image_hardness(f: ClauseSet) -> HardnessReport:
    return _ref_image_max(f, "hd", refutation_level)[0]


def ref_image_w_hardness(f: ClauseSet) -> HardnessReport:
    return _ref_image_max(f, "whd", w_refutation_level)[0]


def ref_image_p_hardness(f: ClauseSet, max_vars: int = 14) -> HardnessReport:
    n = len(variables(f))
    if n > max_vars:
        raise SizeLimitExceeded(f"p_hardness over {n} > {max_vars} variables",
                                budget="variables", limit=max_vars, progress=n)
    rep, prime = _ref_image_max(f, "hd", refutation_level)
    hd = rep.value
    for c in sorted(prime, key=clause_key):
        for x in sorted(c, key=abs):
            phi = falsifying_assignment(c - {x})
            if abs(x) in variables(reduce_r(apply_assignment(phi, f), hd)):
                return HardnessReport("phd", hd + 1, tuple(sorted(phi.items())))
    return HardnessReport("phd", hd, ())


def ref_image_k_base(prime: ClauseSet, k: int) -> ClauseSet:
    order = sorted(prime, key=clause_key)
    necessary = {c for c in order if not ref_image_entails(prime - {c}, c)}
    f = set(necessary)

    def ok(g: set[Clause]) -> bool:
        gs = frozenset(g)
        return (all(ref_image_entails(gs, c) for c in order)
                and all(reduce_r(apply_assignment(falsifying_assignment(c), gs), k) == BOT_SET
                        for c in order))

    for c in order:
        if c in f:
            continue
        if ok(f):
            break
        f.add(c)
    if not ok(f):
        raise ValueError(f"the function has no {k}-base: hardness of the "
                         "full prime-implicate set already exceeds the bound")
    for c in sorted(f, key=clause_key, reverse=True):
        if c in necessary:
            continue
        if ok(f - {c}):
            f.discard(c)
    return frozenset(f)


def ref_image_prime_implicates_bounded(f: ClauseSet, k: int) -> ClauseSet:
    cs = sorted(f, key=clause_key)
    collected: set[Clause] = set()
    for r in range(1, min(k, len(cs)) + 1):
        for sub in itertools.combinations(cs, r):
            g = frozenset(sub)
            c = pure_clause(g)
            if not is_satisfiable(apply_assignment(falsifying_assignment(c), g)):
                collected.add(c)
    return frozenset(c for c in collected if not any(d < c for d in collected))


# Frozen reference certificate: depth_k_incomparable_family as first
# written, listing all 2^leaves - 1 implicates of the doped tree and scanning
# the whole list for the members of each edge.  Meant for trees whose
# depth-k subtrees all have at least two leaves.
def ref_certificate(t: Tree, k: int):
    """(leaf_sets, clauses, members) of the Sperner certificate."""
    masks: list[tuple[int, int, int]] = []
    counter = [0]

    def walk(s: Tree) -> int:
        if s.is_leaf:
            counter[0] += 1
            return 1 << (counter[0] - 1)
        lm, rm = walk(s.left), walk(s.right)
        masks.append((s.var, lm, rm))
        return lm | rm

    walk(t)
    nl = counter[0]
    u0 = inner_count(t) + 1
    implicates = []
    for mv in range(1, 1 << nl):
        lits = [u0 + i for i in range(nl) if mv >> i & 1]
        for v, lm, rm in masks:
            if mv & lm and not mv & rm:
                lits.append(v)
            elif mv & rm and not mv & lm:
                lits.append(-v)
        implicates.append((mv, frozenset(lits)))

    blocks: list[list[int]] = []
    counter[0] = 0

    def block_walk(s: Tree, d: int) -> None:
        if d == k:
            lo = counter[0] + 1
            counter[0] += leaf_count(s)
            blocks.append(list(range(lo, counter[0] + 1)))
            return
        block_walk(s.left, d + 1)
        block_walk(s.right, d + 1)

    block_walk(t, 0)
    m = min(len(b) for b in blocks)
    count = math.comb(m, m // 2)
    subsets = [list(itertools.combinations(b, m // 2))[:count] for b in blocks]
    leaf_sets = tuple(frozenset(i for s in subsets for i in s[pos]) for pos in range(count))
    clauses, members = [], []
    for v in leaf_sets:
        c = implicates[sum(1 << (i - 1) for i in v) - 1][1]
        comp_c = frozenset(-x for x in c)
        members.append(tuple(mv for mv, cp in implicates
                             if not (cp & comp_c) and len(cp - c) <= k))
        clauses.append(c)
    return leaf_sets, tuple(clauses), tuple(members)


# Frozen reference hyperedge: the members of E^k_C in cands, on frozensets,
# as trigger_hypergraph, hyperedge and in_hyperedge found them before
# repkit.trigger moved them onto literal masks.
def ref_hyperedge(c: Clause, k: int, cands) -> frozenset[Clause]:
    comp_c = frozenset(-x for x in c)
    return frozenset(cp for cp in cands if not (cp & comp_c) and len(cp - c) <= k)


# Frozen reference certificate members: depth_k_incomparable_family as it
# was before the members came from one fold over the tree.  Each edge tries
# every candidate V' = s | e with s inside V and at most k leaves e outside
# V, building 2^|V| * sum_{j <= k} C(leaves - |V|, j) implicates.
def ref_certificate_members(t: Tree, k: int):
    """(leaf_sets, clauses, members) of the Sperner certificate."""
    blocks = trees._depth_k_leaf_blocks(t, k)
    m = min(len(b) for b in blocks)
    r = max(m // 2, 1)
    count = math.comb(m, r)
    subsets = [list(itertools.islice(itertools.combinations(b, r), count)) for b in blocks]
    leaf_sets = [frozenset(i for s in subsets for i in s[pos]) for pos in range(count)]

    nl, implicate = trees._implicate_builder(t)
    edge_clauses = []
    members = []
    for v in leaf_sets:
        mask = sum(1 << (i - 1) for i in v)
        c = implicate(mask)
        subs = [0]
        for i in range(nl):
            if mask >> i & 1:
                subs += [s | 1 << i for s in subs]
        outside = [1 << i for i in range(nl) if not mask >> i & 1]
        cands = {}  # C_V' -> the mask of V'
        for j in range(k + 1):
            for e in itertools.combinations(outside, j):
                e_mask = sum(e)
                for s in subs:
                    mv = s | e_mask
                    if mv:
                        cands[implicate(mv)] = mv
        members.append(tuple(sorted(map(cands.__getitem__, ref_hyperedge(c, k, cands)))))
        edge_clauses.append(c)
    return tuple(leaf_sets), tuple(edge_clauses), tuple(members)


# Frozen reference tree walks: the recursive walks that repkit.trees,
# repkit.trigger and repkit.bench replaced with one pre-order traversal.
# Each recurses once per node (or per level), so they only run on small trees.
def ref_hts(t: Tree) -> int:
    if t.is_leaf:
        return 0
    a, b = ref_hts(t.left), ref_hts(t.right)
    return a + 1 if a == b else max(a, b)


def ref_height(t: Tree) -> int:
    if t.is_leaf:
        return 0
    return 1 + max(ref_height(t.left), ref_height(t.right))


def ref_leaf_count(t: Tree) -> int:
    return 1 if t.is_leaf else ref_leaf_count(t.left) + ref_leaf_count(t.right)


def ref_inner_count(t: Tree) -> int:
    return 0 if t.is_leaf else 1 + ref_inner_count(t.left) + ref_inner_count(t.right)


def ref_tree_labels(t: Tree) -> set[int]:
    return set() if t.is_leaf else {t.var} | ref_tree_labels(t.left) | ref_tree_labels(t.right)


def ref_tree_clauses(t: Tree) -> list[Clause]:
    out: list[Clause] = []

    def walk(s: Tree, path: list[int]) -> None:
        if s.is_leaf:
            out.append(frozenset(path))
            return
        path.append(s.var)
        walk(s.left, path)
        path[-1] = -s.var
        walk(s.right, path)
        path.pop()

    walk(t, [])
    return out


def ref_build(f: ClauseSet, fuel: int) -> Tree:
    if f == BOT_SET:
        return LEAF
    if not f or BOT in f or fuel < 0:
        raise NotSmu1Error("clause-set is not of the smuo form")
    common = set.intersection(*(set(abs(x) for x in c) for c in f))
    if not common:
        raise NotSmu1Error("no variable occurs in every clause")
    v = min(common)
    return Tree(v,
                ref_build(apply_assignment({v: 0}, f), fuel - 1),
                ref_build(apply_assignment({v: 1}, f), fuel - 1))


def ref_apply_literal(t: Tree, x: int) -> Tree:
    v = abs(x)

    def go(s: Tree) -> Tree | None:
        if s.is_leaf:
            return None
        if s.var == v:
            return s.right if x > 0 else s.left
        l = go(s.left)
        if l is not None:
            return Tree(s.var, l, s.right)
        r = go(s.right)
        if r is not None:
            return Tree(s.var, s.left, r)
        return None

    out = go(t)
    if out is None:
        raise ValueError(f"variable {v} does not label any node")
    return out


def ref_extremal_shape(k: int, h: int) -> Tree:
    if k < 0 or h < k or (k == 0 and h != 0):
        raise ValueError(f"no tree of Horton-Strahler {k} and height {h}")
    if k == 0:
        return LEAF
    if k == 1:
        t = Tree(0, LEAF, LEAF)
        for _ in range(h - 1):
            t = Tree(0, t, LEAF)
        return t
    return Tree(0, ref_extremal_shape(min(k, h - 1), h - 1), ref_extremal_shape(k - 1, h - 1))


def ref_label_bfs(shape: Tree, first: int = 1) -> Tree:
    labels: dict[tuple[int, ...], int] = {}
    q: deque[tuple[Tree, tuple[int, ...]]] = deque([(shape, ())])
    n = first - 1
    while q:
        s, path = q.popleft()
        if s.is_leaf:
            continue
        n += 1
        labels[path] = n
        q.append((s.left, path + (0,)))
        q.append((s.right, path + (1,)))

    def rebuild(s: Tree, path: tuple[int, ...]) -> Tree:
        if s.is_leaf:
            return LEAF
        return Tree(labels[path], rebuild(s.left, path + (0,)), rebuild(s.right, path + (1,)))

    return rebuild(shape, ())


def ref_node_masks(t: Tree) -> tuple[list[tuple[int, int, int]], int]:
    masks: list[tuple[int, int, int]] = []
    counter = [0]

    def walk(s: Tree) -> int:
        if s.is_leaf:
            m = 1 << counter[0]
            counter[0] += 1
            return m
        lm = walk(s.left)
        rm = walk(s.right)
        masks.append((s.var, lm, rm))
        return lm | rm

    walk(t)
    return masks, counter[0]


def ref_to_dot(t: Tree) -> str:
    lines = ["digraph tree {", "  node [shape=circle];"]
    counter = [0]
    leafno = [0]

    def walk(s: Tree) -> str:
        me = f"n{counter[0]}"
        counter[0] += 1
        if s.is_leaf:
            leafno[0] += 1
            lines.append(f'  {me} [shape=box, label="{leafno[0]}"];')
            return me
        lines.append(f'  {me} [label="v{s.var}"];')
        l = walk(s.left)
        lines.append(f'  {me} -> {l} [label="v{s.var}"];')
        r = walk(s.right)
        lines.append(f'  {me} -> {r} [label="-v{s.var}"];')
        return me

    walk(t)
    lines.append("}")
    return "\n".join(lines) + "\n"


def ref_depth_k_leaf_blocks(t: Tree, k: int) -> list[list[int]]:
    blocks: list[list[int]] = []
    counter = [0]

    def walk(s: Tree, d: int) -> None:
        if d == k:
            lo = counter[0] + 1
            counter[0] += ref_leaf_count(s)
            blocks.append(list(range(lo, counter[0] + 1)))
            return
        if s.is_leaf:
            raise ValueError(f"tree has a leaf above depth {k}")
        walk(s.left, d + 1)
        walk(s.right, d + 1)

    walk(t, 0)
    return blocks


# Frozen reference for Tree's ==, hash and repr: a frozen dataclass of the
# same name and fields, whose generated methods recurse once per level.
RefTree = make_dataclass("Tree", [("var", object, None), ("left", object, None),
                                  ("right", object, None)], frozen=True)


def ref_dataclass_tree(t: Tree):
    if t.is_leaf:
        return RefTree()
    return RefTree(t.var, ref_dataclass_tree(t.left), ref_dataclass_tree(t.right))


@lru_cache(maxsize=None)
def ref_leaf_depth_sum(k: int, h: int) -> int:
    if k == 0:
        return 0
    if k == 1:
        if h == 1:
            return 2
        return ref_leaf_depth_sum(1, h - 1) + alpha(1, h - 1) + 1
    kl = min(k, h - 1)
    return (ref_leaf_depth_sum(kl, h - 1) + alpha(kl, h - 1)
            + ref_leaf_depth_sum(k - 1, h - 1) + alpha(k - 1, h - 1))


# Frozen reference trigger searches: matching_number, transversal_number,
# _edge_list and _greedy_transversal as they were on frozensets of clauses,
# before repkit.trigger moved them onto int vertex masks.
def ref_edge_list(h: TriggerHypergraph) -> list[frozenset[Clause]]:
    edges = sorted(set(h.edges.values()), key=lambda e: (len(e), sorted(map(clause_key, e))))
    out: list[frozenset[Clause]] = []
    for e in edges:
        if not any(f <= e for f in out):
            out.append(e)
    return out


def ref_transversal_number(h: TriggerHypergraph) -> tuple[int, frozenset[Clause]]:
    edges = ref_edge_list(h)
    if any(not e for e in edges):
        raise ValueError("empty hyperedge cannot be hit")
    best_set = ref_greedy_transversal(edges)
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


def ref_greedy_transversal(edges: list[frozenset[Clause]]) -> frozenset[Clause]:
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


def ref_matching_number(h: TriggerHypergraph) -> tuple[int, tuple[frozenset[Clause], ...]]:
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
# DIMACS text, as parsed and emitted with a Python frame per literal
# ---------------------------------------------------------------------------

def _ref_clause(*lits: int) -> Clause:
    c = frozenset(lits)
    if 0 in c:
        raise ValueError("0 is not a literal")
    if any(-x in c for x in c):
        raise ValueError(f"complementary pair in clause {sorted(c)}")
    return c


def ref_parse_dimacs(text: str) -> tuple[list[Clause], str]:
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
                clauses.append(_ref_clause(*pending, *lits[start:end]))
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


def ref_emit_dimacs(clauses, fmt: str = "cnf", comments=(), num_vars: int | None = None) -> str:
    set_like = isinstance(clauses, (set, frozenset))
    clauses = sorted(clauses, key=clause_key) if set_like else list(clauses)
    if num_vars is None:
        num_vars = max((abs(x) for c in clauses for x in c), default=0)
    lines = [f"c {s}" for s in comments]
    lines.append(f"p {fmt} {num_vars} {len(clauses)}")
    for c in clauses:
        lines.append(" ".join(str(x) for x in sorted(c, key=lambda x: (abs(x), x))) + " 0")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Instances as frozensets built one by one, before the literal stream
# ---------------------------------------------------------------------------

def ref_selector_translation(dnf, first_new_var: int | None, kind: str) -> tuple[tuple, dict]:
    """cant ("cant") or cantm ("cantm") as (ordered, new_vars), each clause a
    frozenset built on its own: the binary clauses (-s_i, x) term by term,
    the cant term clauses, then the long clause."""
    order = [_ref_clause(*c) for c in (sorted(dnf, key=clause_key)
                                       if isinstance(dnf, (set, frozenset)) else dnf)]
    if not order:
        return (BOT,), {}
    top = max((abs(x) for c in order for x in c), default=0)
    if first_new_var is not None and first_new_var <= top:
        raise ValueError(f"first_new_var {first_new_var} is not above the largest input variable {top}")
    v0 = top + 1 if first_new_var is None else first_new_var
    out: list[Clause] = []
    for i, c in enumerate(order):
        out += map(frozenset, zip(itertools.repeat(-(v0 + i)), sorted(c, key=abs)))
    if kind == "cant":
        out += [frozenset(-x for x in c).union((v0 + i,)) for i, c in enumerate(order)]
    if kind == "cantm" or order != [BOT]:
        out.append(frozenset(range(v0, v0 + len(order))))
    return tuple(out), {v0 + i: c for i, c in enumerate(order)}


def ref_generate(spec) -> tuple[list[Clause], int]:
    """bench.generate as it built each clause from a tuple, with `union`
    sizing the table of each path clause once."""
    paths = [tuple(sorted(c, key=abs)) for c in ref_tree_clauses(trees.extremal_tree(spec.k, spec.h))]
    a = len(paths)
    out = [frozenset(p).union((-(a + i),)) for i, p in enumerate(paths)]
    if spec.variant == 1:
        out += [frozenset(p).union((a + i,)) for i, p in enumerate(paths)]
    else:
        dnf = [(*(-x for x in p), a + i) for i, p in enumerate(paths)]
        out += ref_selector_translation(dnf, 2 * a, "cant" if spec.variant == 2 else "cantm")[0]
    return out, max(abs(x) for c in out for x in c)


# Frozen reference verify: DPLL (is_satisfiable) first, then, for an
# unsatisfiable F, one trail of F climbed from r_2 up to r_n.  Reads
# bench.stats and bench.generate at call time, so monkeypatching them
# changes both this and bench.verify.
def ref_verify(spec, level: str = "formulas") -> dict:
    rec = bench.stats(spec)
    clauses, n = bench.generate(spec)
    report = {
        "instance": spec.name,
        "n": (n, rec.n),
        "c": (len(clauses), rec.c),
        "l": (sum(len(c) for c in clauses), rec.l),
        "distinct": len(set(clauses)) == len(clauses),
    }
    report["ok"] = (report["distinct"]
                    and all(got == want for got, want in
                            (report["n"], report["c"], report["l"])))
    if level == "hardness":
        f = frozenset(clauses)
        unsat = not is_satisfiable(f)
        report["unsatisfiable"] = unsat
        lvl = None
        if unsat:
            lvl = 0 if BOT in f else _Trail(f).raise_to(len(variables(f)))
        report["hardness"] = (lvl, rec.hardness)
        report["ok"] = report["ok"] and unsat and lvl == rec.hardness
    return report


# Literal reference checker of bench's tree-resolution proofs: each
# resolvent is built whole from the set of clashing literals, and every
# input clause used is tested for a complementary pair on its own.
def ref_check_refutation(clauses, proof, level: int) -> int:
    m = len(clauses)
    available: dict[int, tuple[Clause, int]] = {}

    def take(i: int) -> tuple[Clause, int]:
        if 0 <= i < m:
            if any(-x in clauses[i] for x in clauses[i]):
                raise ValueError("tautological input clause")
            return frozenset(clauses[i]), 0
        if i not in available:
            raise ValueError("no such clause")
        return available.pop(i)

    last = None
    for j, (start, antecedents) in enumerate(proof):
        run, hs = take(start)
        for i in antecedents:
            c, h = take(i)
            clashes = [x for x in c if -x in run]
            if len(clashes) != 1:
                raise ValueError("not exactly one clash")
            run = (run - {-clashes[0]}) | (c - {clashes[0]})
            if any(-x in run for x in run):
                raise ValueError("tautological resolvent")
            hs = hs + 1 if hs == h else max(hs, h)
        available[m + j] = last = (run, hs)
    if last is None or last[0]:
        raise ValueError("not a refutation")
    if last[1] > level:
        raise ValueError("above the claimed level")
    return last[1]


# Frozen references of the searches that rebuilt clause-set images before
# relative_hardness ran over the prime implicates, tsmuo split the input's
# own clauses by sign, extension_property counted models literal by literal
# and _puc_image dropped the pure literals directly.
def ref_relative_hardness(f: ClauseSet, vs) -> int:
    order = sorted(set(vs))
    best = [0]
    seen: set[tuple[int, ClauseSet]] = set()

    def go(g: ClauseSet, i: int) -> None:
        if (i, g) in seen:
            return
        seen.add((i, g))
        level = unsat_level(g)
        if level is not None:
            best[0] = max(best[0], level)
            return
        for j in range(i, len(order)):
            v = order[j]
            for val in (0, 1):
                go(apply_assignment({v: val}, g), j + 1)

    go(f, 0)
    return best[0]


def ref_tsmuo(f: ClauseSet) -> Tree:
    labels: list[int | None] = []
    stack = [(f, len(variables(f)))]
    while stack:
        g, fuel = stack.pop()
        if g == BOT_SET:
            labels.append(None)
            continue
        if not g or BOT in g or fuel < 0:
            raise NotSmu1Error("clause-set is not of the smuo form")
        common = set.intersection(*(set(abs(x) for x in c) for c in g))
        if not common:
            raise NotSmu1Error("no variable occurs in every clause")
        v = min(common)
        labels.append(v)
        stack += ((apply_assignment({v: 1}, g), fuel - 1), (apply_assignment({v: 0}, g), fuel - 1))
    t = trees._fold(labels, lambda i: LEAF, node)
    if smuo(t) != f:
        raise NotSmu1Error("clause-set is not of the smuo form")
    return t


def ref_extension_property(fp: ClauseSet, original_vars, dnf=None,
                           max_vars: int = 18) -> str:
    orig = sorted(set(original_vars))
    aux = sorted(variables(fp) - set(orig))
    n = len(orig) + len(aux)
    if n > max_vars:
        raise SizeLimitExceeded("extension_property enumeration too large",
                                budget="variables", limit=max_vars, progress=n)
    uep = True
    for phi in total_assignments(orig):
        g = apply_assignment(phi, fp)
        if BOT in g:
            continue
        n_ext = sum(1 for psi in total_assignments(aux)
                    if not apply_assignment(psi, g))
        if n_ext > 1:
            uep = False
            break
    strong = uep and dnf is not None
    if strong:
        if isinstance(dnf, (set, frozenset)):
            order = sorted((frozenset(c) for c in dnf), key=clause_key)
        else:
            order = [frozenset(c) for c in dnf]
        for alloc in itertools.product((None, 0, 1), repeat=len(orig)):
            phi = {v: b for v, b in zip(orig, alloc) if b is not None}
            if not any(all((x > 0) == bool(phi.get(abs(x))) and abs(x) in phi
                           for x in c) for c in order):
                continue
            n_ext = 0
            for psi in total_assignments(aux):
                img = apply_assignment({**phi, **psi}, fp)
                if not img:
                    n_ext += 1
            if n_ext != 1:
                strong = False
                break
    if strong:
        return "strong_uep"
    if uep:
        return "uep"
    return "none"


def ref_puc_image(f: ClauseSet) -> ClauseSet | None:
    imgs = apply_clauses(falsifying_assignment(pure_clause(f)), f)
    return frozenset(imgs) if f and len(set(imgs)) == len(imgs) else None


def ref_is_mps(f: ClauseSet) -> bool:
    """is_mps(F) is not None, on ref_puc_image."""
    g = ref_puc_image(f)
    return not (g is None or is_satisfiable(g) or not all(is_satisfiable(g - {c}) for c in g))


def ref_is_total_mps(f: ClauseSet) -> bool:
    """is_total_mps on ref_puc_image and ref_tsmuo."""
    g = ref_puc_image(f)
    if g is None:
        return False
    try:
        ref_tsmuo(g)
    except NotSmu1Error:
        return False
    return True
