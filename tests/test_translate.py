import itertools
import random

import pytest

import repkit as rk
from repkit import translate
from helpers import (outcome, random_clause_set, random_dnf, ref_extension_property,
                     ref_refutation_level, ref_selector_translation)


def dnf_models(dnf, vs):
    """Total assignments over vs satisfying at least one conjunct."""
    out = []
    for bits in itertools.product((0, 1), repeat=len(vs)):
        phi = dict(zip(sorted(vs), bits))
        if any(all(rk.sat_lit(phi, x) for x in c) for c in dnf):
            out.append(phi)
    return out


def same_function(dnf, cnf, vs):
    """The CNF, projected to vs, represents the DNF's boolean function."""
    want = {tuple(sorted(m.items())) for m in dnf_models(dnf, vs)}
    got = set()
    for bits in itertools.product((0, 1), repeat=len(vs)):
        phi = dict(zip(sorted(vs), bits))
        if rk.is_satisfiable(rk.apply_assignment(phi, cnf)):
            got.add(tuple(sorted(phi.items())))
    return want == got


def test_cant_structure():
    dnf = [rk.clause(1, 2), rk.clause(-1, 3)]
    res = rk.cant(dnf)
    assert res.kind == "cant"
    assert set(res.new_vars) == {4, 5}
    assert rk.clause(4, 5) in res.clauses          # some conjunct holds
    assert rk.clause(-4, 1) in res.clauses         # selector implies literal
    assert rk.clause(4, -1, -2) in res.clauses     # conjunct implies selector
    assert len(res.ordered) == 1 + 2 + 4


def test_cant_sizes():
    rng = random.Random(41)
    for _ in range(20):
        dnf = random_dnf(rng, 4, 4)
        if not dnf or rk.BOT in dnf:
            continue
        c = len(dnf)
        l = sum(len(x) for x in dnf)
        res = rk.cant(dnf)
        assert len(res.ordered) <= 1 + c + l
        assert len(rk.cantm(dnf).ordered) <= 1 + l


def test_cant_degenerate():
    assert rk.cant([]).clauses == rk.BOT_SET
    res = rk.cant([rk.BOT])
    assert len(res.clauses) == 1 and rk.is_satisfiable(res.clauses)
    # the one empty term's clause {s} is the long clause too: listed once
    assert res.ordered == rk.cantm([rk.BOT]).ordered == (rk.clause(1),)


def random_selector_input(rng):
    """A DNF as a list of tuples (literals shuffled, one repeated, an empty
    term now and then) or as a frozenset of clauses, with or without a first
    selector variable."""
    terms = list(random_clause_set(rng, rng.randint(1, 9), rng.randint(0, 6), maxlen=5))
    if rng.random() < 0.2:
        terms.append(rk.BOT)
    if rng.random() < 0.3:
        return frozenset(terms), None
    dnf = [tuple(rng.sample(sorted(c), len(c))) + tuple(rng.sample(sorted(c), min(1, len(c))))
           for c in terms]
    rng.shuffle(dnf)
    top = max((abs(x) for c in dnf for x in c), default=0)
    return dnf, rng.choice([None, top + 1, top + rng.randint(2, 9)])


@pytest.mark.parametrize("build, kind", [(rk.cant, "cant"), (rk.cantm, "cantm")])
def test_selector_translations_match_the_frozen_builder(build, kind):
    """ordered and new_vars, read off the literal stream, are what building
    each clause on its own gave, on 400 random DNFs."""
    rng = random.Random(2503)
    for _ in range(400):
        dnf, first = random_selector_input(rng)
        res = build(dnf, first)
        assert (res.ordered, res.new_vars) == ref_selector_translation(dnf, first, kind), (dnf, first)
        assert res.kind == kind


@pytest.mark.parametrize("build, kind", [(rk.cant, "cant"), (rk.cantm, "cantm")])
def test_selector_translations_of_many_runs(build, kind):
    """Alternating 1- and 2-literal terms: cant's term clauses alternate
    between binary runs and longer clauses 4,000 times, each binary run read
    at its own offset of the stream."""
    dnf, v = [], 1
    for i in range(8000):
        dnf.append(tuple(range(v, v + 1 + i % 2)))
        v += 1 + i % 2
    res = build(dnf)
    assert (res.ordered, res.new_vars) == ref_selector_translation(dnf, None, kind)


def test_cant_represents_the_function():
    rng = random.Random(42)
    for _ in range(20):
        dnf = random_dnf(rng, 4, 3)
        if not dnf:
            continue
        vs = {abs(x) for c in dnf for x in c}
        assert same_function(dnf, rk.cant(dnf).clauses, vs)
        assert same_function(dnf, rk.cantm(dnf).clauses, vs)


def test_cantm_always_low_hardness():
    rng = random.Random(43)
    for _ in range(15):
        dnf = random_dnf(rng, 4, 3)
        assert rk.hardness(rk.cantm(dnf).clauses).value <= 1


def test_complement_clauses():
    f = rk.clause_set([[1, 2], [-1, 3]])
    dnf = rk.complement_clauses(f)
    assert set(dnf) == {rk.clause(-1, -2), rk.clause(1, -3)}
    # the complement conjuncts cover exactly the non-models
    vs = rk.variables(f)
    models = {tuple(sorted(m.items())) for m in dnf_models(dnf, vs)}
    for bits in itertools.product((0, 1), repeat=len(vs)):
        phi = dict(zip(sorted(vs), bits))
        sat = rk.apply_assignment(phi, f) == rk.TOP
        assert (tuple(sorted(phi.items())) in models) == (not sat)


def test_negate_doped():
    t = rk.extremal_tree(1, 2)
    d = rk.doped_tree(t)
    dnf = rk.negate_doped(d)
    # each conjunct complements its base clause and keeps the doping literal
    assert len(dnf) == len(d.ordered)
    inv = d.new_vars
    for neg in dnf:
        u = next(x for x in neg if x in inv)
        assert neg == rk.complement(inv[u]) | {u}
    # the DNF represents the same function as the doped clause-set
    vs = rk.variables(d.clauses)
    neg_models = {tuple(sorted(m.items())) for m in dnf_models(dnf, vs)}
    count = 0
    for bits in itertools.product((0, 1), repeat=len(vs)):
        phi = dict(zip(sorted(vs), bits))
        sat = rk.apply_assignment(phi, d.clauses) == rk.TOP
        assert (tuple(sorted(phi.items())) in neg_models) == sat
        count += sat
    assert count == 2 ** (len(vs) - 1)


def test_negate_doped_rejects_bad_input():
    for base, message in (([[1, 2], [1, 3]], "not hitting"),     # no clash between the two
                          ([[1], [-1, 2]], "is satisfiable")):  # hitting, but {1, 2} satisfies it
        with pytest.raises(ValueError, match=message):
            rk.negate_doped(rk.dope(rk.clause_set(base)))


def test_xor_chain_small():
    for n in range(0, 7):
        res = rk.xor_chain(list(range(1, n + 1)))
        f = res.clauses
        # models over the original variables have even parity
        for bits in itertools.product((0, 1), repeat=n):
            phi = dict(zip(range(1, n + 1), bits))
            sat = rk.is_satisfiable(rk.apply_assignment(phi, f))
            assert sat == (sum(bits) % 2 == 0)
        assert rk.hardness(f).value <= 1


def test_xor_chain_negative_literals():
    res = rk.xor_chain([1, -2, 3])
    for bits in itertools.product((0, 1), repeat=3):
        phi = dict(zip(range(1, 4), bits))
        sat = rk.is_satisfiable(rk.apply_assignment(phi, res.clauses))
        assert sat == ((bits[0] + (1 - bits[1]) + bits[2]) % 2 == 0)


@pytest.mark.parametrize("lits, bad", [([0], "0"), ([1, 0, 2], "0"),
                                       ([1, 1, 2], "1"), ([1, 2, -1], "-1")],
                         ids=["zero", "zero-inside", "same-sign", "opposite-signs"])
def test_xor_chain_rejects_zero_and_a_repeated_variable(lits, bad):
    with pytest.raises(ValueError, match=f"bad XOR literal {bad}:"):
        rk.xor_chain(lits)


@pytest.mark.parametrize("build, name, first, top", [
    (lambda v: rk.cant([[1]], first_new_var=v), "first_new_var", 1, 1),
    (lambda v: rk.cant([[2], [1]], first_new_var=v), "first_new_var", 1, 2),
    (lambda v: rk.cantm([[-3, 1]], first_new_var=v), "first_new_var", 2, 3),
    (lambda v: rk.cant([rk.BOT], first_new_var=v), "first_new_var", 0, 0),
    (lambda v: rk.xor_chain([1, 2, 3], first_aux=v), "first_aux", 2, 3),
], ids=["cant-tautology", "cant-lost-clause", "cantm", "cant-empty-clause", "xor_chain"])
def test_fresh_variables_must_lie_above_the_input(build, name, first, top):
    """A fresh variable at or below an input variable would give a
    tautology ({1, -1} from cant([[1]]) at 1), merge two selector clauses
    or repeat a parity clause; it is refused instead."""
    with pytest.raises(ValueError, match=f"{name} {first} is not above the largest input variable {top}"):
        build(first)
    res = build(top + 1)
    assert min(v for c in res.ordered for v in map(abs, c) if v > top) == top + 1
    assert all(c.isdisjoint(map(lambda x: -x, c)) for c in res.ordered)
    assert len(set(res.ordered)) == len(res.ordered)


def test_two_xor_system():
    for n in (3, 4, 5):
        f = rk.two_xor_system(n)
        assert len(rk.variables(f)) == 3 * n - 4
        assert not rk.is_satisfiable(f)
    assert rk.hardness(rk.two_xor_system(3)).value == 3
    assert rk.hardness(rk.two_xor_system(4)).value == 4
    # from n = 5 on the hardness falls below n; the frozen r_k agrees
    for n, level in ((5, 4), (6, 5)):
        f = rk.two_xor_system(n)
        assert rk.refutation_level(f) == ref_refutation_level(f) == level
    # the docstring's "for n = 3..8 it is 3, 4, 4, 5, 5, 5"
    assert [rk.refutation_level(rk.two_xor_system(n)) for n in range(3, 9)] == [3, 4, 4, 5, 5, 5]


def test_k_base_simple():
    p = rk.prime_implicates(rk.clause_set([[1, 2]]))
    assert rk.k_base(p, 0) == rk.clause_set([[1, 2]])


def test_k_base_requires_enough_width():
    f = rk.clause_set([[1, 2], [-1, 3], [-2, 3], [-3, 1]])
    p = rk.prime_implicates(f)
    b = rk.k_base(p, 2)
    assert rk.equivalent(b, p)
    assert rk.hardness(b).value <= 2
    # every essential prime implicate must be kept
    assert rk.essential_prime_implicates(p) <= b


def test_extension_property():
    dnf = [rk.clause(1), rk.clause(2)]
    res = rk.cantm(dnf)
    assert rk.extension_property(res.clauses, {1, 2}) == "none"
    res = rk.cant(dnf)
    assert rk.extension_property(res.clauses, {1, 2}) in ("uep", "strong_uep")
    # hitting DNF: unique extension on every total assignment
    t = rk.extremal_tree(1, 2)
    d = rk.doped_tree(t)
    dnf = rk.negate_doped(d)
    res = rk.cant(dnf)
    assert rk.extension_property(res.clauses, rk.variables(d.clauses),
                                 dnf=dnf) == "strong_uep"


def test_extension_property_matches_the_image_count():
    rng = random.Random(183)
    seen = set()
    for _ in range(400):
        nv = rng.randint(1, 5)
        g = random_dnf(rng, nv, rng.randint(0, 8 - nv))
        # sometimes one original variable that no DNF clause uses
        vs = {abs(x) for c in g for x in c} | set(rng.sample(range(1, 7), rng.randint(0, 1)))
        for translation in (rk.cant, rk.cantm):
            fp = translation(g).clauses
            for dnf, limit in ((None, 18), (g, 18), (g, 6)):  # 6: a lowered variable limit
                with pytest.MonkeyPatch.context() as mp:
                    mp.setattr(translate, "_MAX_EXTENSION_VARS", limit)
                    got = outcome(rk.extension_property, fp, vs, dnf)
                assert got == outcome(ref_extension_property, fp, vs, dnf, limit), (g, vs, dnf, limit)
                seen.add(got if isinstance(got, str) else got[0])
    assert seen == {"none", "uep", "strong_uep", "SizeLimitExceeded"}
