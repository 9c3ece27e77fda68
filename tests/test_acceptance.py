"""End-to-end checks, one per advertised guarantee of the package.

Each test prints a single PASS line on success; a pytest failure marks the
criterion as failed.  Run with `pytest tests/test_acceptance.py -v -s`.
"""

import itertools
import math
import random

import repkit as rk
from repkit import bench
from helpers import (
    REFERENCE_ALPHA,
    REFERENCE_TABLE,
    all_shapes,
    hd_by_assignment_enumeration,
    random_clause_set,
    random_dnf,
)
from repkit.reductions import clause_key


def gn(n: int) -> rk.ClauseSet:
    return frozenset({frozenset({i}) for i in range(1, n + 1)} |
                     {frozenset(range(-n, 0))})


def label_shapes(shapes):
    out = []
    for shape in shapes:
        it = iter(range(1, rk.leaf_count(shape)))

        def go(t):
            return t if t.is_leaf else rk.Tree(next(it), go(t.left), go(t.right))

        out.append(go(shape))
    return out


def test_criterion_1_instance_table():
    for (k, h, variant), (n, c, l) in REFERENCE_TABLE.items():
        rec = bench.stats(bench.InstanceSpec(k, h, variant))
        assert (rec.n, rec.c, rec.l) == (n, c, l), (k, h, variant)
        assert rec.alpha == REFERENCE_ALPHA[(k, h)], (k, h)
    generated = 0
    for (k, h, variant), (n, c, l) in REFERENCE_TABLE.items():
        if l > 10 ** 6:
            continue
        clauses, nv = bench.generate(bench.InstanceSpec(k, h, variant))
        assert nv == n and len(clauses) == c
        assert sum(len(cl) for cl in clauses) == l
        generated += 1
    print(f"\ncriterion 1 PASS: all 42 stats rows exact, "
          f"{generated} formulas regenerated and matching")


def test_criterion_2_family_hardness():
    checked = []
    for k, h in [(2, 3), (2, 4), (3, 4)]:
        for variant in (1, 2, 3):
            spec = bench.InstanceSpec(k, h, variant)
            rep = bench.verify(spec, "hardness")
            assert rep["ok"], (spec.name, rep)
            want = k + 1 if variant == 1 else 2
            assert rep["hardness"] == (want, want), (spec.name, rep)
            checked.append(spec.name)
    print(f"\ncriterion 2 PASS: refutation hardness exact on {checked}")


def test_criterion_3_doped_tree_hardness_bruteforce():
    trees = label_shapes(s for n in range(1, 6) for s in all_shapes(n))
    for t in trees:
        d = rk.doped_tree(t)
        assert hd_by_assignment_enumeration(d.clauses) == rk.hts(t)
    t = rk.extremal_tree(2, 3)
    assert hd_by_assignment_enumeration(rk.doped_tree(t).clauses) == 2
    print(f"\ncriterion 3 PASS: brute-force hardness equals tree balance on "
          f"{len(trees)} small trees and the 7-leaf extremal tree")


def test_criterion_4_prime_implicate_counts():
    shapes = [s for n in range(1, 9) for s in all_shapes(n)]
    for t in label_shapes(shapes):
        d = rk.doped_tree(t)
        c = rk.leaf_count(t)
        assert len(rk.prime_implicates(d.clauses)) == 2 ** c - 1, t
    for h in range(1, 8):
        t = rk.extremal_tree(1, h)
        d = rk.doped_tree(t)
        assert len(rk.prime_implicates(d.clauses)) == 2 ** (h + 1) - 1, h
    for n in range(1, 9):
        d = rk.dope(gn(n))
        assert len(rk.prime_implicates(d.clauses)) == 2 ** n + n, n
    print(f"\ncriterion 4 PASS: doped prime-implicate counts exact on "
          f"{len(shapes)} tree shapes, 7 caterpillars, 8 unit-chain families")


def test_criterion_5_mps_bijection():
    rng = random.Random(105)
    corpus = []
    while len(corpus) < 100:
        f = random_clause_set(rng, rng.randint(2, 5), rng.randint(1, 8))
        if len(f) <= 8:
            corpus.append(f)
    for f in corpus:
        assert rk.mps_subsets(f) == rk.mps_subsets_direct(f)
    for n in range(1, 7):
        assert len(rk.mps_subsets(gn(n))) == 2 ** n + n
    print("\ncriterion 5 PASS: doping route equals direct enumeration on "
          "100 random clause-sets; unit-chain counts exact")


def test_criterion_6_translation_laws():
    rng = random.Random(106)
    dnfs = []
    while len(dnfs) < 200:
        nv = rng.randint(2, 6)
        nc = rng.randint(1, 12 - nv)
        g = random_dnf(rng, nv, nc)
        if g:
            dnfs.append(g)
    for g in dnfs:
        assert rk.hardness(rk.cantm(g).clauses).value <= 1
        vs = {abs(x) for c in g for x in c}
        assert rk.relative_hardness(rk.cant(g).clauses, vs) <= 1
    # hitting DNFs: complements of tree clause-sets
    hit = 0
    for t in label_shapes(s for n in range(2, 6) for s in all_shapes(n)):
        g = sorted(rk.complement_clauses(rk.smuo(t)), key=clause_key)
        assert rk.hardness(rk.cant(g).clauses).value <= 1
        hit += 1
    # the pinned instantiation: unsatisfiable yet invisible to unit clauses
    f = [rk.clause(1, 2, 3), rk.clause(1, 2, 4), rk.clause(1, 2, 5)]
    res = rk.cant(f)
    assert sorted(res.new_vars) == [6, 7, 8]
    img = rk.apply_assignment({3: 1, 4: 1, 5: 1, 8: 0}, res.clauses)
    assert not rk.is_satisfiable(img)
    assert all(len(c) >= 2 for c in img)
    assert rk.refutation_level(img) >= 2
    print(f"\ncriterion 6 PASS: 200 random DNFs within the one-step classes, "
          f"{hit} hitting DNFs likewise, pinned instantiation reproduced")


def test_criterion_7_xor():
    for n in range(0, 7):
        res = rk.xor_chain(list(range(1, n + 1)))
        assert rk.hardness(res.clauses).value <= 1, n
    for n in (3, 4):
        assert rk.refutation_level(rk.two_xor_system(n)) == n
    print("\ncriterion 7 PASS: parity chains stay easy (n <= 6), "
          "contradictory parity pairs have hardness n for n in {3,4}")


def test_criterion_8_trigger_machinery():
    # pinned hypergraph edges
    cs = [rk.clause(1, -3, -4), rk.clause(2, 3, -4), rk.clause(2, -3, 4),
          rk.clause(-2, 3, 4), rk.clause(1, 3, 4), rk.clause(1, 2)]
    p = rk.prime_implicates(frozenset(cs))
    assert p == frozenset(cs)
    c6 = rk.clause(1, 2)
    assert rk.hyperedge(p, c6, 1) == frozenset({c6})
    assert rk.hyperedge(p, c6, 2) == frozenset(
        {cs[0], cs[1], cs[2], cs[4], c6})
    # tau >= nu on every constructed hypergraph
    rng = random.Random(108)
    built = 0
    subset_checks = 0
    seen = 0
    while seen < 50:
        f = random_clause_set(rng, rng.randint(2, 4), rng.randint(2, 5))
        prime = rk.prime_implicates(f)
        if prime == rk.BOT_SET or not prime or len(prime) > 7:
            continue
        seen += 1
        for k in (1, 2):
            h = rk.trigger_hypergraph(prime, k)
            assert rk.transversal_number(h)[0] >= rk.matching_number(h)[0]
            built += 1
            # every equivalent subset within the width class hits every edge
            vs = sorted(prime, key=clause_key)
            for r in range(1, len(vs) + 1):
                for sub in itertools.combinations(vs, r):
                    s = frozenset(sub)
                    if all(rk.entails(s, c) for c in prime) and \
                            rk.w_hardness(s).value <= k:
                        subset_checks += 1
                        assert all(s & e for e in h.edges.values()), (f, k, s)
    print(f"\ncriterion 8 PASS: pinned edges verbatim, tau >= nu on {built} "
          f"hypergraphs, {subset_checks} equivalent width-bounded subsets "
          f"are transversals")


def test_criterion_9_separation_certificates():
    for h in range(3, 13):
        t = rk.extremal_tree(2, h)
        cert = rk.depth_k_incomparable_family(t, 1)
        assert cert.size == math.comb(h, h // 2), h
        # explicit pairwise disjointness of the certificate edges: no
        # member is listed twice
        flat = [mv for ms in cert.members for mv in ms]
        assert len(flat) == len(set(flat)), h
        # the doped tree realises the function with alpha(2,h) clauses
        d = rk.doped_tree(t)
        assert len(d.ordered) == rk.alpha(2, h)
    print("\ncriterion 9 PASS: certificate sizes C(h, h//2) for h = 3..12 "
          "with disjoint edges; doped representation size alpha(2,h)")


def test_criterion_10_measure_ordering():
    rng = random.Random(110)
    for _ in range(500):
        f = random_clause_set(rng, rng.randint(2, 8), rng.randint(1, 10))
        hd = rk.hardness(f).value
        assert rk.w_hardness(f).value <= hd
        assert hd <= rk.p_hardness(f).value <= hd + 1
    # hardness never grows under instantiation
    rng = random.Random(111)
    for _ in range(60):
        f = random_clause_set(rng, 5, 7)
        hd = rk.hardness(f).value
        vs = sorted(rk.variables(f))
        phi = {v: rng.randint(0, 1) for v in rng.sample(vs, rng.randint(1, len(vs)))}
        assert rk.hardness(rk.apply_assignment(phi, f)).value <= hd
    # nor under variable substitution, for unsatisfiable inputs
    rng = random.Random(112)
    done = 0
    while done < 40:
        f = random_clause_set(rng, 4, 9)
        if rk.is_satisfiable(f):
            continue
        vs = sorted(rk.variables(f))
        if len(vs) < 2:
            continue
        x, y = rng.sample(vs, 2)
        assert rk.hardness(rk.substitute(f, x, y)).value <= rk.hardness(f).value
        done += 1
    print("\ncriterion 10 PASS: width <= hardness <= propagation-hardness "
          "<= hardness+1 on 500 random clause-sets; monotone under "
          "instantiation and substitution")
