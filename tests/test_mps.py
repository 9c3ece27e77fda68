import itertools
import random

import pytest

import repkit as rk
from repkit import mps
from helpers import outcome, random_clause_set, ref_is_mps, ref_is_total_mps, ref_puc_image


def gn(n: int) -> rk.ClauseSet:
    """n positive units plus the all-negative clause."""
    return frozenset({frozenset({i}) for i in range(1, n + 1)} |
                     {frozenset(range(-n, 0))})


def test_pure_clause():
    f = rk.clause_set([[1, 2], [-2, 3], [1, 3]])
    assert rk.pure_clause(f) == rk.clause(1, 3)
    assert rk.pure_clause(rk.clause_set([[1], [-1]])) == rk.BOT


def test_dope_shape():
    f = rk.clause_set([[1, 2], [-1, -2]])
    d = rk.dope(f)
    assert len(d.clauses) == len(f)
    assert set(d.new_vars) == {3, 4}
    assert set(d.new_vars.values()) == f
    assert rk.is_satisfiable(d.clauses)
    # every clause got exactly one private new variable
    for u, c in d.new_vars.items():
        assert u in {3, 4} and c | {u} in d.clauses
    # the emission order lists exactly the doped clauses, and must be given
    assert frozenset(d.ordered) == d.clauses and len(d.ordered) == len(f)
    with pytest.raises(TypeError):
        rk.TranslationResult(d.ordered, d.new_vars)


def test_dope_inverse():
    f = rk.clause_set([[1, 2], [-1, -2], [1, -2]])
    d = rk.dope(f)
    assert set(d.new_vars) == {3, 4, 5}
    assert set(d.new_vars.values()) == f
    for i, (u, c) in enumerate(d.new_vars.items()):
        assert d.ordered[i] == c | {u}


def test_is_mps():
    # minimally unsatisfiable, no pure literals: conclusion bot
    assert rk.is_mps(gn(2)) is not None
    assert rk.is_mps(rk.clause_set([[1], [-1]])) is not None
    # satisfiable and no duplicate instantiation images, single clause
    assert rk.is_mps(rk.clause_set([[1, 2]])) is not None
    # not mps: the two clauses collapse to the same image under the pure part
    assert rk.is_mps(rk.clause_set([[1, 2], [1, 3]])) is None
    assert rk.is_mps(rk.TOP) is None


def test_mps_subsets_match_direct():
    rng = random.Random(31)
    for _ in range(25):
        f = random_clause_set(rng, 4, 5)
        got = {w.subset for w in rk.mps_subsets(f)}
        want = {w.subset for w in rk.mps_subsets_direct(f)}
        assert got == want


def test_mps_count_gn():
    for n in range(1, 6):
        assert len(rk.mps_subsets(gn(n))) == 2 ** n + n


def test_conclusions_are_prime_implicates():
    rng = random.Random(32)
    for _ in range(15):
        f = random_clause_set(rng, 4, 5)
        primes = rk.prime_implicates(f)
        if primes == rk.BOT_SET:
            continue
        conclusions = {w.conclusion for w in rk.mps_subsets(f)}
        for c in conclusions:
            assert rk.entails(f, c)
        # every prime implicate is the conclusion of some minimal premise set
        assert primes <= conclusions


def test_is_total_mps():
    t = rk.node(1, rk.node(2, rk.LEAF, rk.LEAF), rk.LEAF)
    assert rk.is_total_mps(rk.smuo(t))
    assert not rk.is_total_mps(gn(3))
    assert not rk.is_total_mps(rk.clause_set([[-1, 2], [-2, 3], [-3, 1]]))


def test_has_max_prime_implicates():
    t = rk.extremal_tree(2, 2)
    d = rk.doped_tree(t)
    assert rk.has_max_prime_implicates(d.clauses)
    assert len(rk.prime_implicates(d.clauses)) == \
        2 ** len(d.clauses) - 1
    assert not rk.has_max_prime_implicates(rk.dope(gn(3)).clauses)


def test_max_prime_implicates_matches_count():
    rng = random.Random(33)
    for _ in range(20):
        f = random_clause_set(rng, 3, 3)
        if not rk.is_satisfiable(f) or not f:
            continue
        flag = rk.has_max_prime_implicates(f)
        count = len(rk.prime_implicates(f))
        assert flag == (count == 2 ** len(f) - 1)


def test_prime_implicates_bounded():
    rng = random.Random(34)
    for _ in range(15):
        f = random_clause_set(rng, 4, 4)
        full = rk.prime_implicates(f)
        if full == rk.BOT_SET:
            continue
        assert rk.prime_implicates_bounded(f, len(f)) == full
        for c in rk.prime_implicates_bounded(f, 1):
            assert rk.entails(f, c)


def criterion5_corpus() -> list[rk.ClauseSet]:
    """The 100 random clause-sets of acceptance criterion 5."""
    rng = random.Random(105)
    corpus = []
    while len(corpus) < 100:
        f = random_clause_set(rng, rng.randint(2, 5), rng.randint(1, 8))
        if len(f) <= 8:
            corpus.append(f)
    return corpus


def test_is_mps_and_is_total_mps_match_the_image_route():
    totals = repeated = 0
    for f in criterion5_corpus():  # every subset that mps_subsets_direct tests
        for r in range(len(f) + 1):
            for sub in map(frozenset, itertools.combinations(f, r)):
                assert mps._puc_image(sub) == ref_puc_image(sub)
                assert (rk.is_mps(sub) is not None) == ref_is_mps(sub)
                total = outcome(rk.is_total_mps, sub)
                want = outcome(ref_is_total_mps, sub)
                if want == ("ValueError", "inner labels must be distinct"):
                    want = False  # tsmuo's label rule repeated a label; ref_tsmuo let it escape
                    repeated += 1
                assert total == want
                totals += total is True
    assert totals and repeated


def test_is_total_mps_matches_the_mps_count():
    """F is a total mps iff all 2^c(F) - 1 non-empty subsets are mps's."""
    two_vars = [c for n in range(3) for vs in itertools.combinations((1, 2), n)
                for c in itertools.product(*((v, -v) for v in vs))]
    every_two_var_set = [frozenset(map(frozenset, cs)) for r in range(1, len(two_vars) + 1)
                         for cs in itertools.combinations(two_vars, r)]
    for f in criterion5_corpus() + every_two_var_set:
        assert rk.is_total_mps(f) == (len(rk.mps_subsets(f)) == 2 ** len(f) - 1), f
    full = rk.clause_set([[1, 2], [1, -2], [-1, 2], [-1, -2]])
    assert full in every_two_var_set and not rk.is_total_mps(full)
