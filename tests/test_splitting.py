"""An oracle for hd that shares no code with the r_k engine of repkit.core.

hd(F) of an unsatisfiable F is the least Horton-Strahler number of a
splitting tree of F (Kullmann, ECCC TR99-041, 1999): a leaf is a partial
assignment phi with bot in phi * F, and an inner node splits on one more
variable.  `splitting_level` computes it by a DP over the images phi * F,
memoised on the image.
"""

import functools
import random

from repkit.reductions import refutation_level
from repkit.translate import two_xor_system


def splitting_level(f) -> int | None:
    """The least Horton-Strahler number of a splitting tree of f, or None
    if f is satisfiable."""

    def restrict(g, x):
        return frozenset(c - {-x} for c in g if x not in c)

    @functools.cache
    def level(g):
        if frozenset() in g:
            return 0
        best = None
        for v in sorted({abs(x) for c in g for x in c}):
            a, b = level(restrict(g, v)), level(restrict(g, -v))
            if a is None or b is None:      # a satisfiable branch: g is satisfiable
                return None
            s = a + 1 if a == b else max(a, b)
            best = s if best is None else min(best, s)
        return best

    return level(frozenset(map(frozenset, f)))


def random_unsatisfiable_sets(count, seed):
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        n = rng.randint(1, 6)
        f = frozenset(frozenset(v if rng.random() < 0.5 else -v
                                for v in rng.sample(range(1, n + 1), min(n, rng.choice((2, 2, 3, 3, 3)))))
                      for _ in range(rng.randint(1, 18)))
        if splitting_level(f) is not None:
            out.append(f)
    return out


def test_splitting_level_on_hand_made_sets():
    x = frozenset
    assert splitting_level([x()]) == 0
    assert splitting_level([x({1}), x({-1})]) == 1
    assert splitting_level([x({1, 2}), x({1, -2}), x({-1, 2}), x({-1, -2})]) == 2
    assert splitting_level([x({1, 2})]) is None
    assert splitting_level([]) is None


def test_splitting_level_equals_refutation_level_on_random_sets():
    sets = random_unsatisfiable_sets(300, seed=16)
    assert {splitting_level(f) for f in sets} == {1, 2}
    for f in sets:
        assert splitting_level(f) == refutation_level(f), sorted(map(sorted, f))


def test_splitting_level_is_at_least_the_shortest_clause_length():
    """Setting one literal shortens each clause by at most one, so no
    splitting tree of F has a Horton-Strahler number below the length of
    F's shortest clause: the lower bound `bench.verify` certifies with."""
    tight = set()
    for f in random_unsatisfiable_sets(300, seed=16):
        level, shortest = splitting_level(f), min(map(len, f))
        assert level >= shortest, sorted(map(sorted, f))
        if level == shortest:
            tight.add(level)
    assert tight == {1, 2}


def test_splitting_level_of_the_two_xor_systems():
    assert [splitting_level(two_xor_system(n)) for n in (3, 4, 5)] == [3, 4, 4]
