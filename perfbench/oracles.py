"""Independent computations the benchmark checks the program against.

Nothing here imports repkit.  Clause-sets are frozensets of frozensets of
nonzero ints, as in the program, so results compare directly.  Trees are
nested tuples: ``None`` is a leaf, ``(left, right)`` an inner node.
"""

from __future__ import annotations

import itertools
from collections import deque
from math import comb

BOT = frozenset()
BOT_SET = frozenset({BOT})


# ---------------------------------------------------------------------------
# trees, doping and the paper's closed forms
# ---------------------------------------------------------------------------

def random_shape(rng, leaves):
    """A random full binary tree with the given number of leaves."""
    if leaves == 1:
        return None
    left = rng.randint(1, leaves - 1)
    return (random_shape(rng, left), random_shape(rng, leaves - left))


def extremal_shape(k, h):
    """Maximal-leaf tree of Horton-Strahler number k and height h: the
    subtree keeping the larger number goes left."""
    if k == 0:
        return None
    return (extremal_shape(min(k, h - 1), h - 1), extremal_shape(k - 1, h - 1))


def horton_strahler(t):
    if t is None:
        return 0
    a, b = horton_strahler(t[0]), horton_strahler(t[1])
    return a + 1 if a == b else max(a, b)


def leaf_count(t):
    return 1 if t is None else leaf_count(t[0]) + leaf_count(t[1])


def bfs_labels(t):
    """Inner nodes in breadth-first order (left child first), labelled 1, 2, ...
    Returns {id(node): label}."""
    labels, q = {}, deque([t])
    while q:
        s = q.popleft()
        if s is None:
            continue
        labels[id(s)] = len(labels) + 1
        q.extend(s)
    return labels


def node_masks(t, labels):
    """(label, left leaf mask, right leaf mask) per inner node; leaf i
    (0-based, left to right) is bit i."""
    out, counter = [], [0]

    def walk(s):
        if s is None:
            counter[0] += 1
            return 1 << (counter[0] - 1)
        lm, rm = walk(s[0]), walk(s[1])
        out.append((labels[id(s)], lm, rm))
        return lm | rm

    walk(t)
    return out


def path_clauses(t, labels):
    """smuo(T) in leaf order: a left edge carries its parent's label
    positively, a right edge negatively."""
    out = []

    def walk(s, path):
        if s is None:
            out.append(frozenset(path))
            return
        v = labels[id(s)]
        walk(s[0], path + [v])
        walk(s[1], path + [-v])

    walk(t, [])
    return out


def doped_clauses(t, labels):
    """dope(smuo(T)) in leaf order, doping variable of leaf i = a + i
    (0-based i, a = leaf count = first variable after the labels)."""
    base = path_clauses(t, labels)
    a = len(base)
    return [c | {a + i} for i, c in enumerate(base)]


def leaf_set_implicate(masks, a, mv):
    """C_V for the leaf set with bit mask mv: the doping literals of V and
    each edge literal whose side holds a leaf of V while the other holds none."""
    lits = {a + i for i in range(a) if mv >> i & 1}
    for v, lm, rm in masks:
        if mv & lm and not mv & rm:
            lits.add(v)
        elif mv & rm and not mv & lm:
            lits.add(-v)
    return frozenset(lits)


def doped_tree_prime_implicates(t, labels):
    """{mask: C_V} over all non-empty leaf sets V: 2^a - 1 prime implicates."""
    masks = node_masks(t, labels)
    a = leaf_count(t)
    return {mv: leaf_set_implicate(masks, a, mv) for mv in range(1, 1 << a)}


def alpha(k, h):
    return sum(comb(h, i) for i in range(k + 1))


def leaf_depth_sum(k, h):
    """Sum of leaf depths of the extremal tree, by walking its leaves."""
    total, stack = 0, [(k, h, 0)]
    while stack:
        k1, h1, d = stack.pop()
        if k1 == 0:
            total += d
        else:
            stack.append((min(k1, h1 - 1), h1 - 1, d + 1))
            stack.append((k1 - 1, h1 - 1, d + 1))
    return total


def family_counts(k, h, variant):
    """(n, c, l) of G_variant(k, h).  The base is F' = the doped tree
    clauses with flipped doping literals: a clauses of lf = D + a literals
    (D the leaf depth sum).  G1 adds F; G2 adds cant of the negation of F'
    (per DNF term of m literals: m binary clauses, one clause of m + 1
    literals; plus one clause of all a selectors); G3 drops the (m + 1)-clauses."""
    a = alpha(k, h)
    lf = leaf_depth_sum(k, h) + a
    if variant == 1:
        return 2 * a - 1, 2 * a, 2 * lf
    if variant == 2:
        return 3 * a - 1, a + (lf + a) + 1, lf + (2 * lf + lf + a) + a
    return 3 * a - 1, a + lf + 1, lf + 2 * lf + a


def family_hardness(k, variant):
    """The paper's theorem values: hd(G1) = k + 1, hd(G2) = hd(G3) = 2."""
    return k + 1 if variant == 1 else 2


# ---------------------------------------------------------------------------
# satisfiability and the reduction hierarchy, from the definitions
# ---------------------------------------------------------------------------

def variables_of(f):
    return sorted({abs(x) for c in f for x in c})


def image(f, phi):
    """phi * F for a partial assignment {var: 0/1}."""
    out = set()
    for c in f:
        kept = []
        for x in c:
            b = phi.get(abs(x))
            if b is None:
                kept.append(x)
            elif (b == 1) == (x > 0):
                break
        else:
            out.add(frozenset(kept))
    return frozenset(out)


def set_true(f, x):
    return image(f, {abs(x): 1 if x > 0 else 0})


def models(f):
    """All total models over var(F), by truth table."""
    vs = variables_of(f)
    out = []
    for bits in itertools.product((0, 1), repeat=len(vs)):
        phi = dict(zip(vs, bits))
        if all(any((phi[abs(x)] == 1) == (x > 0) for x in c) for c in f):
            out.append(phi)
    return out


def is_satisfiable(f):
    return bool(models(f))


def r_k(f, k, memo):
    """r_k by its definition: apply <x -> 1> while r_{k-1}(<x -> 0> * F)
    is {bot}.  Confluent, so the scan order does not matter."""
    if BOT in f:
        return BOT_SET
    if k == 0:
        return f
    key = (k, f)
    if key in memo:
        return memo[key]
    g = f
    while BOT not in g:
        for x in sorted({x for c in g for x in c}):
            if r_k(set_true(g, -x), k - 1, memo) == BOT_SET:
                g = set_true(g, x)
                break
        else:
            break
    g = BOT_SET if BOT in g else g
    memo[key] = g
    return g


def r_inf(f):
    """The forced-assignment fixpoint: apply every literal true in all models."""
    ms = models(f)
    if not ms:
        return BOT_SET
    forced = {v: b for v, b in ms[0].items() if all(m[v] == b for m in ms)}
    return image(f, forced)


def refutation_level(f):
    memo, k = {}, 0
    while r_k(f, k, memo) != BOT_SET:
        k += 1
    return k


def hd_phd(f):
    """(hd, phd) over all partial assignments phi of var(F): hd is the
    largest refutation level of an unsatisfiable phi * F, phd the least k
    with r_k(phi * F) = r_inf(phi * F) for every phi."""
    vs = variables_of(f)
    memo, seen = {}, set()
    hd = phd = 0
    for vals in itertools.product((None, 0, 1), repeat=len(vs)):
        g = image(f, {v: b for v, b in zip(vs, vals) if b is not None})
        if g in seen:
            continue
        seen.add(g)
        target = r_inf(g)
        k = 0
        while r_k(g, k, memo) != target:
            k += 1
        if target == BOT_SET:
            hd = max(hd, k)
        phd = max(phd, k)
    return hd, phd


# ---------------------------------------------------------------------------
# asymmetric-width resolution, hypergraphs
# ---------------------------------------------------------------------------

def _resolvent(c, d):
    clash = [x for x in c if -x in d]
    if len(clash) != 1:
        return None
    x = clash[0]
    return (c - {x}) | (d - {-x})


def k_resolution_refutes(f, k):
    """Saturate resolution where one parent has length <= k, dropping
    resolvents subsumed by a clause already derived."""
    derived = []
    for c in sorted(f, key=len):
        if not any(d <= c for d in derived):
            derived.append(c)
    frontier = list(derived)
    while frontier:
        fresh = []
        for c in frontier:
            for d in list(derived):
                if len(c) <= k or len(d) <= k:
                    r = _resolvent(c, d)
                    if r is not None and not any(e <= r for e in derived):
                        if not r:
                            return True
                        derived.append(r)
                        fresh.append(r)
        frontier = fresh
    return BOT in f


def w_refutation_level(f):
    k = 0
    while not k_resolution_refutes(f, k):
        k += 1
    return k


def in_hyperedge(cp, c, k):
    """cp in E^k_c: no literal of cp clashes with c, at most k outside c."""
    return not any(-x in c for x in cp) and len(cp - c) <= k


def hyperedges(p, k):
    return {c: frozenset(cp for cp in p if in_hyperedge(cp, c, k)) for c in p}
