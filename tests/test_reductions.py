import random
from operator import neg

import pytest
from hypothesis import given, settings, strategies as st

import repkit as rk
from repkit import bench, core, mps, reductions, translate
from helpers import (
    all_shapes,
    outcome,
    random_clause_set,
    hd_by_assignment_enumeration,
    phd_by_definition,
    random_dnf,
    ref_p_hardness,
    ref_relative_hardness,
    ref_image_w_hardness,
    ref_saturate,
    whd_by_closure,
)


def test_reduce_r0():
    assert rk.reduce_r(rk.clause_set([[1], [-1]]), 0) == \
        rk.clause_set([[1], [-1]])
    assert rk.reduce_r(rk.BOT_SET, 0) == rk.BOT_SET


def test_reduce_r1_unit_chain():
    f = rk.clause_set([[1], [-1, 2], [-2, 3], [-3, -1]])
    assert rk.reduce_r(f, 1) == rk.BOT_SET
    g = rk.clause_set([[1], [-1, 2], [3, 4]])
    assert rk.reduce_r(g, 1) == rk.clause_set([[3, 4]])


def test_reduce_r2_failed_literal():
    # x1 <- 0 leads to a unit-propagation contradiction, x1 <- 1 does not
    f = rk.clause_set([[1, 2], [1, -2], [-1, 3, 4]])
    r = rk.reduce_r(f, 2)
    assert r == rk.clause_set([[3, 4]])


def test_reduce_r_monotone_and_idempotent():
    rng = random.Random(11)
    for _ in range(60):
        f = random_clause_set(rng, 5, 7)
        prev = f
        for k in range(0, 5):
            cur = rk.reduce_r(f, k)
            # larger k never keeps more clauses unresolved than smaller k
            if prev == rk.BOT_SET:
                assert cur == rk.BOT_SET
            assert rk.reduce_r(cur, k) == cur
            prev = cur


def test_reduce_r_inf_is_limit():
    rng = random.Random(12)
    for _ in range(60):
        f = random_clause_set(rng, 5, 7)
        n = len(rk.variables(f))
        assert rk.reduce_r_inf(f) == rk.reduce_r(f, n + 1)


def test_refutation_level_examples():
    assert rk.refutation_level(rk.BOT_SET) == 0
    assert rk.refutation_level(rk.clause_set([[1], [-1]])) == 1
    with pytest.raises(ValueError):
        rk.refutation_level(rk.clause_set([[1, 2]]))


def test_hardness_sat_and_unsat():
    rep = rk.hardness(rk.clause_set([[1], [-2]]))
    assert rep.value == 0
    rep = rk.hardness(rk.clause_set([[1, 2], [-1, 2], [1, -2], [-1, -2]]))
    assert rep.value == 2
    assert rk.hardness(rk.TOP).value == 0


def test_hardness_matches_assignment_enumeration():
    rng = random.Random(13)
    for _ in range(40):
        f = random_clause_set(rng, 4, 6)
        assert rk.hardness(f).value == hd_by_assignment_enumeration(f)


def test_p_hardness_bounds_and_oracle():
    rng = random.Random(14)
    for _ in range(25):
        f = random_clause_set(rng, 4, 6)
        hd = rk.hardness(f).value
        phd = rk.p_hardness(f).value
        assert hd <= phd <= hd + 1
        assert phd == phd_by_definition(f)


def random_cnf_2_to_8_vars(rng):
    n = rng.randint(2, 8)
    return random_clause_set(rng, n, rng.randint(n // 2 + 1, 2 * n))


def test_p_hardness_matches_image_walk():
    rng = random.Random(16)
    seen = set()
    for _ in range(1000):
        f = random_cnf_2_to_8_vars(rng)
        rep = rk.p_hardness(f)
        assert rep.value == ref_p_hardness(f), f
        seen.add((rk.hardness(f).value, rep.value))
    assert {(0, 1), (1, 1), (1, 2), (2, 2)} <= seen


def test_p_hardness_witness_separates():
    rng = random.Random(17)
    separated = 0
    for _ in range(400):
        f = random_cnf_2_to_8_vars(rng)
        hd = rk.hardness(f).value
        rep = rk.p_hardness(f)
        phi = rep.witness_assignment()
        assert phi is not None
        if rep.value == hd:
            assert phi == {}
            continue
        g = rk.apply_assignment(phi, f)
        assert rk.reduce_r(g, hd) != rk.reduce_r_inf(g), (f, phi)
        separated += 1
    assert separated > 100


def test_p_hardness_degenerate_inputs():
    assert rk.p_hardness(frozenset()).value == 0
    assert rk.p_hardness(rk.BOT_SET).value == 0
    # a unit clause is forced at once, which r_0 does not see
    rep = rk.p_hardness(rk.clause_set([[1]]))
    assert rep.value == 1 and rep.witness_assignment() == {}
    # unsatisfiable: every instance is refuted at level hd
    f = rk.clause_set([[1, 2], [1, -2], [-1, 2], [-1, -2]])
    assert rk.p_hardness(f).value == rk.hardness(f).value == 2


def test_p_hardness_over_15_variables_is_the_largest_of_disjoint_parts():
    # r_k and r_inf act on variable-disjoint satisfiable parts one by one, so
    # phd of their union is the largest phd of a part
    rng = random.Random(30)
    seen = set()
    for _ in range(40):
        parts = []
        while len(parts) < 3:
            f = random_clause_set(rng, 5, rng.randint(3, 10))
            if len(rk.variables(f)) == 5 and rk.is_satisfiable(f):
                parts.append(f)
        union = frozenset(frozenset(x + 5 * i if x > 0 else x - 5 * i for x in c)
                          for i, f in enumerate(parts) for c in f)
        assert len(rk.variables(union)) == 15
        want = max(map(phd_by_definition, parts))
        assert rk.p_hardness(union).value == want, sorted(map(sorted, union))
        seen.add(want)
    assert len(seen) > 1


def test_w_hardness_oracle():
    rng = random.Random(15)
    for _ in range(40):
        f = random_clause_set(rng, 4, 6)
        if rk.is_satisfiable(f):
            continue
        assert rk.w_refutation_level(f) == whd_by_closure(f)
    # 2-6 variables; dense sets of long clauses reach whd 3
    rng = random.Random(18)
    levels = set()
    for _ in range(200):
        nv = rng.randint(2, 6)
        f = random_clause_set(rng, nv, rng.randint(2 * nv, 8 * nv), 3, rng.randint(1, 3))
        if rk.is_satisfiable(f):
            continue
        reductions.clear_caches()
        whd = rk.w_refutation_level(f)
        assert whd == whd_by_closure(f)
        levels.add(whd)
    assert levels == {1, 2, 3}


def test_w_hardness_unit_refutation():
    f = rk.clause_set([[1], [-1, 2], [-2]])
    assert rk.w_refutation_level(f) == 1


def test_width_1_refutations_are_unit_refutations():
    """WC_1 = UC_1, which `w_hardness` reads its level 1 off: an unsatisfiable
    F without bot has a 1-resolution refutation exactly when r_1 refutes it."""
    rng = random.Random(23)
    seen = set()
    for _ in range(300):
        f = random_clause_set(rng, rng.randint(1, 6), rng.randint(1, 14), 3)
        if rng.random() < .1:
            f |= {rk.BOT}
        if rk.is_satisfiable(f):
            continue
        unit = rk.propagate_units(f) == rk.BOT_SET and rk.BOT not in f
        assert (rk.w_refutation_level(f) == 1) == unit, sorted(map(sorted, f))
        seen.add(unit)
    assert seen == {False, True}


def test_w_hardness_saturates_from_width_2(monkeypatch):
    """Only the instances r_1 leaves open are saturated, and width 1 cannot
    refute those (WC_1 = UC_1), so no width-1 pass runs; the values and
    witnesses are those of the image-by-image reference."""
    rng = random.Random(31)
    sets = [random_clause_set(rng, nv, rng.randint(nv, 4 * nv), 3)
            for nv in (rng.randint(2, 6) for _ in range(120))]
    sets += [rk.two_xor_system(3), rk.two_xor_system(4),
             rk.doped_tree(rk.extremal_tree(2, 3)).clauses]
    widths = []
    kernel = reductions._saturate

    def spy(f, k):
        widths.append(k)
        return kernel(f, k)

    for f in sets:
        want = ref_image_w_hardness(f)
        with monkeypatch.context() as mp:
            mp.setattr(reductions, "_saturate", spy)
            assert rk.w_hardness(f) == want, sorted(map(sorted, f))
    assert widths and min(widths) == 2
    assert max(rk.w_hardness(f).value for f in sets) == 3


def test_w_refutation_level_skips_the_width_0_pass(monkeypatch):
    # width 0 never resolves: it refutes exactly the sets that contain bot
    widths = []
    kernel = reductions._saturate

    def spy(f, k):
        widths.append(k)
        return kernel(f, k)

    monkeypatch.setattr(reductions, "_saturate", spy)
    assert rk.w_refutation_level(rk.clause_set([[1], [-1, 2], [-2]])) == 1
    assert rk.w_refutation_level(rk.clause_set([[], [1, 2]])) == 0
    assert rk.w_refutation_level(rk.BOT_SET) == 0
    for sat in (rk.TOP, rk.clause_set([[1, 2]])):
        with pytest.raises(ValueError, match="requires an unsatisfiable"):
            rk.w_refutation_level(sat)
    assert widths == [1, 1, 2]  # one pass per width from 1, none at width 0

    def parent_loop(f, m, shortest_first):
        for k in range(len(rk.variables(f)) + 1):
            if ref_saturate(f, k, m, shortest_first) == rk.BOT_SET:
                return k
        raise ValueError("w_refutation_level requires an unsatisfiable clause-set")

    rng = random.Random(19)
    for _ in range(150):
        f = random_clause_set(rng, rng.randint(1, 5), rng.randint(1, 12), 3)
        if rng.random() < .1:
            f |= {rk.BOT}
        for m in (0, 1, 4, 10 ** 6):
            monkeypatch.setattr(reductions, "_MAX_RESOLVENTS", m)
            assert outcome(rk.w_refutation_level, f) == outcome(parent_loop, f, m, True)
        assert outcome(rk.w_refutation_level, f) == outcome(parent_loop, f, 10 ** 6, False)


def test_w_refutation_level_on_rows_the_fifo_kernel_could_not_finish():
    """Rows on which a first-in, first-out kernel took 0.4 to 4 s or ran out
    of budget after 3 to 25 s.  Each whd is at most hd, at least 2 where r_1
    leaves F open (WC_1 = UC_1), and above whd - 1, where the frozen FIFO
    kernel's whole closure holds no bot; it equals the subsumption-free
    closure oracle wherever that stays within 2,000 clauses, as on the
    control two_xor_system(3)."""
    rows = [(rk.two_xor_system(n), 3) for n in (3, 5, 6, 7, 8)]
    rows += [(frozenset(bench.generate(bench.InstanceSpec(k, h, v))[0]), whd)
             for v, k, h, whd in ((1, 2, 5, 3), (1, 3, 5, 4), (2, 2, 6, 2), (3, 2, 7, 2))]
    closed = 0
    for f, want in rows:
        whd = rk.w_refutation_level(f)
        assert whd == want
        assert whd <= rk.refutation_level(f)
        assert whd >= 2 or rk.propagate_units(f) == rk.BOT_SET
        assert ref_saturate(f, whd - 1, 10 ** 6) != rk.BOT_SET
        try:
            assert whd_by_closure(f, 2000) == whd
            closed += 1
        except RuntimeError:                  # the closure oracle outgrew its cap
            pass
    assert closed


F3 = rk.clause_set([[1, 2], [-2, 3], [-1, -3]])


@pytest.mark.parametrize("limit, call, message, fields", [
    ((core, "_MAX_DNF_VARS", 2), lambda: rk.canonical_dnf(F3),
     "canonical_dnf over 3 > 2 variables", ("variables", 2, 3)),
    ((mps, "_MAX_DIRECT_CLAUSES", 2), lambda: rk.mps_subsets_direct(F3),
     "direct mps enumeration over 3 clauses", ("clauses", 2, 3)),
    ((reductions, "_MAX_BRUTEFORCE_VARS", 2), lambda: rk.prime_implicates_bruteforce(F3),
     "bruteforce prime implicates over 3 variables", ("variables", 2, 3)),
    ((translate, "_MAX_EXTENSION_VARS", 2), lambda: rk.extension_property(F3, {1}),
     "extension_property enumeration too large", ("variables", 2, 3)),
    (None, lambda: rk.depth_k_incomparable_family(rk.extremal_tree(1, 19), 0),
     "depth_k_incomparable_family needs more than 2000000 fold pairs",
     ("fold pairs", 2_000_000, 3_510_364)),
    (None, lambda: rk.extremal_tree(2, 20000),
     "the extremal tree k=2 h=20000 has 2667066680000 literals, above the limit of 50000000",
     ("literals", 50_000_000, 2667066680000)),
], ids=["canonical_dnf", "mps_subsets_direct", "prime_implicates_bruteforce",
        "extension_property", "depth_k_incomparable_family", "extremal_tree"])
def test_size_guards_name_the_budget_and_limit(monkeypatch, limit, call, message, fields):
    if limit is not None:                      # (module, constant, lowered value)
        module, name, value = limit
        monkeypatch.setattr(module, name, value)
    with pytest.raises(rk.SizeLimitExceeded) as info:
        call()
    assert str(info.value) == message
    assert (info.value.budget, info.value.limit, info.value.progress) == fields


def test_prime_implicates_vs_bruteforce():
    rng = random.Random(16)
    for _ in range(40):
        f = random_clause_set(rng, 4, 6)
        assert rk.prime_implicates(f) == rk.prime_implicates_bruteforce(f)
    rng = random.Random(17)
    for _ in range(300):
        f = random_clause_set(rng, rng.randint(2, 6), rng.randint(1, 10), 4)
        assert rk.prime_implicates(f) == rk.prime_implicates_bruteforce(f)


def test_prime_implicates_drop_tautological_clauses():
    # a clause holding x and -x is entailed by anything: it is no implicate
    f = frozenset({frozenset({-6, -5, 6}), frozenset({-4, -1, 5}), frozenset({2, 5})})
    assert rk.prime_implicates(f) == rk.clause_set([[-4, -1, 5], [2, 5]])
    assert rk.prime_implicates(frozenset({frozenset({1, -1})})) == rk.TOP
    rng = random.Random(18)
    for i in range(1200):                    # the sets of test_saturate_equals_frozen_kernel
        nv = rng.randint(1, 8)
        f = random_clause_set(rng, nv, rng.randint(0, 3 * nv), rng.randint(1, 4))
        if i % 10 == 0:
            v = rng.randint(1, nv)
            f |= {frozenset({v, -v, rng.choice((1, -1)) * rng.randint(1, nv)})}
            assert rk.prime_implicates(f) == rk.prime_implicates_bruteforce(f), \
                sorted(map(sorted, f))


def test_prime_implicates_of_the_15_leaf_doped_tree():
    # one implicate per non-empty leaf set, 2^15 - 1 in all
    t = rk.extremal_tree(3, 4)
    want = frozenset(c for _, c in rk.doped_tree_implicates(t))
    assert len(want) == 32767
    assert rk.prime_implicates(rk.doped_tree(t).clauses) == want


def test_resolution_budgets_name_the_budget_and_limit(monkeypatch):
    f = rk.two_xor_system(4)
    monkeypatch.setattr(reductions, "_MAX_RESOLVENTS", 30)
    with pytest.raises(rk.SizeLimitExceeded,
                       match=r"^resolution budget of 30 resolvents exhausted$") as info:
        rk.prime_implicates(f)
    assert (info.value.budget, info.value.limit, info.value.progress) == ("resolution", 30, 31)
    # width 2 needs at most 30 resolvents, width 3 more
    reductions.clear_caches()
    with pytest.raises(rk.SizeLimitExceeded,
                       match=r"^k-resolution \(width k = 3\) budget of 30 resolvents exhausted$") as info:
        rk.w_refutation_level(f)
    assert (info.value.budget, info.value.limit, info.value.progress) == \
        ("k-resolution (width k = 3)", 30, 32)
    monkeypatch.setattr(reductions, "_MAX_RESOLVENTS", 3)
    with pytest.raises(rk.SizeLimitExceeded, match=r"width k = 2\) budget of 3 ") as info:
        rk.w_refutation_level(f)
    assert (info.value.budget, info.value.limit, info.value.progress) == \
        ("k-resolution (width k = 2)", 3, 4)
    monkeypatch.undo()
    assert rk.w_refutation_level(f) == 3  # as whd_by_closure finds, in about 12 s


def assert_kernel_matches_frozen(f, budgets=(10 ** 6,)):
    """At widths 0..3, the frozen FIFO kernel's clause-set at the 10^6
    budget, and at every budget the frozen shortest-first kernel's
    clause-set, or its budget message and progress.  prime_implicates gives
    the frozen kernel's closure of F's non-tautological clauses, also with
    the variables renamed, or runs out at the first resolvent past the
    budget."""
    def run(saturate, m):
        try:
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(reductions, "_MAX_RESOLVENTS", m)
                return saturate()
        except rk.SizeLimitExceeded as e:
            assert str(e) == f"{e.budget} budget of {m} resolvents exhausted"
            assert e.limit == m and e.progress > m
            return str(e), e.progress

    for k in (0, 1, 2, 3):
        assert reductions._saturate(f, k) == ref_saturate(f, k, 10 ** 6), (sorted(map(sorted, f)), k)
        for m in budgets:
            want = run(lambda: ref_saturate(f, k, m, shortest_first=True), m)
            assert run(lambda: reductions._saturate(f, k), m) == want, (sorted(map(sorted, f)), k, m)
    want = ref_saturate(frozenset(c for c in f if c.isdisjoint(map(neg, c))), None, 10 ** 6)
    assert rk.prime_implicates(f) == want, sorted(map(sorted, f))

    def rename(g, to):
        return frozenset(frozenset(to[x] if x > 0 else -to[-x] for x in c) for c in g)

    vs = sorted(rk.variables(f))
    perm = dict(zip(vs, random.Random(len(f)).sample(vs, len(vs))))
    back = {w: v for v, w in perm.items()}
    assert rename(rk.prime_implicates(rename(f, perm)), back) == want  # the order rule is free
    for m in budgets:
        try:
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(reductions, "_MAX_RESOLVENTS", m)
                got = rk.prime_implicates(f)
        except rk.SizeLimitExceeded as e:
            assert str(e) == f"resolution budget of {m} resolvents exhausted"
            assert (e.budget, e.limit, e.progress) == ("resolution", m, m + 1)
        else:
            assert got == want, (sorted(map(sorted, f)), m)


def test_saturate_equals_frozen_kernel():
    rng = random.Random(18)
    kinds = set()
    for i in range(1200):
        nv = rng.randint(1, 8)
        f = random_clause_set(rng, nv, rng.randint(0, 3 * nv), rng.randint(1, 4))
        if i % 10 == 0:                          # a clause holding x and -x
            v = rng.randint(1, nv)
            f |= {frozenset({v, -v, rng.choice((1, -1)) * rng.randint(1, nv)})}
        elif i % 10 == 1:
            f |= {rk.BOT}
        assert_kernel_matches_frozen(f, (10 ** 6, 4))
        kinds |= {kind for kind, hit in (("top", not f), ("bot", rk.BOT in f),
                                          ("unit", any(len(c) == 1 for c in f))) if hit}
    assert kinds == {"top", "bot", "unit"}
    for f in (rk.TOP, rk.BOT_SET, rk.clause_set([[1]]), rk.clause_set([[1], [-1]])):
        assert_kernel_matches_frozen(f)
    for n in (7, 8, 9):
        for shape in rng.sample(all_shapes(n), 2):
            assert_kernel_matches_frozen(rk.doped_tree(rk.label_bfs(shape)).clauses)
    for n in (3, 4):
        assert_kernel_matches_frozen(rk.two_xor_system(n))
    ladder = (0, 1, 2, 3, 5, 8, 13, 30, 100)
    assert_kernel_matches_frozen(rk.two_xor_system(4), ladder)
    assert_kernel_matches_frozen(rk.doped_tree(rk.label_bfs(all_shapes(8)[100])).clauses, ladder)


def test_clauses_database_matches_a_frozenset_oracle():
    """_Clauses against a subsumption-free set of frozensets, over random
    insert sequences with repeats, the empty clause and an empty database:
    after every insert, its return value, decode(), the slots and every
    occurrence set.  The forward test stops once the literals outside c
    reach every clause; a clause that went in takes the lowest slot left
    free once the clauses containing it are out."""
    rng = random.Random(30)
    refilled = 0
    for i in range(400):
        nv = rng.randint(1, 7)
        pool = list(random_clause_set(rng, nv, rng.randint(1, 4 * nv), rng.randint(1, 5)))
        if i % 5 == 0:
            pool.append(rk.BOT)
        db = reductions._Clauses(frozenset(pool))
        assert db.decode() == frozenset() and not db.live
        want: set = set()
        for c in rng.choices(pool, k=rng.randint(1, 3 * len(pool))):
            went = not any(d <= c for d in want)
            over = [slot for slot, d in db.by_slot.items() if db.encode(c) & d == db.encode(c)]
            kept = db.live & ~sum(over) if went else db.live
            assert db.insert(db.encode(c)) == went, (sorted(map(sorted, pool)), sorted(c))
            if went:
                want = {d for d in want if not c <= d} | {c}
                slot = ~kept & (kept + 1)
                assert db.by_slot[slot] == db.encode(c)
                refilled += slot < kept
            assert db.decode() == frozenset(want)
            assert db.live == sum(db.by_slot) == kept | (slot if went else 0)
            for j in range(len(db.lits)):
                assert db.occ[j] == sum(s for s, d in db.by_slot.items() if d >> j & 1)
    assert refilled > 100
    db = reductions._Clauses(frozenset())
    assert (db.lits, db.decode()) == ([], frozenset())
    assert db.insert(0) and db.decode() == rk.BOT_SET
    assert not db.insert(0) and db.decode() == rk.BOT_SET


def test_essential_prime_implicates():
    f = rk.clause_set([[1, 2], [-1, 2]])
    assert rk.prime_implicates(f) == rk.clause_set([[2]])
    assert rk.essential_prime_implicates(f) == rk.clause_set([[2]])
    # a resolvent that is covered by the other two primes is inessential
    g = rk.clause_set([[1, 2], [-1, 3]])
    primes = rk.prime_implicates(g)
    assert rk.clause(2, 3) in primes
    assert rk.clause(2, 3) not in rk.essential_prime_implicates(g)


def test_substitute_can_raise_hardness():
    f = rk.clause_set([[1], [-2]])
    assert rk.hardness(f).value == 0
    g = rk.substitute(f, 1, 2)
    assert g == rk.clause_set([[2], [-2]])
    assert rk.hardness(g).value == 1


def test_substitute_never_raises_hardness_when_unsat():
    rng = random.Random(17)
    checked = 0
    while checked < 25:
        f = random_clause_set(rng, 4, 8)
        if rk.is_satisfiable(f):
            continue
        vs = sorted(rk.variables(f))
        if len(vs) < 2:
            continue
        x, y = rng.sample(vs, 2)
        assert rk.hardness(rk.substitute(f, x, y)).value <= \
            rk.hardness(f).value
        checked += 1


def test_relative_hardness_bounds():
    rng = random.Random(18)
    for _ in range(30):
        f = random_clause_set(rng, 4, 6)
        vs = rk.variables(f)
        assert rk.relative_hardness(f, vs) <= rk.hardness(f).value
        if rk.is_satisfiable(f):
            assert rk.relative_hardness(f, set()) == 0


def test_relative_hardness_matches_the_image_walk():
    rng = random.Random(181)
    for _ in range(600):
        nv = rng.randint(1, 6)
        f = random_clause_set(rng, nv, rng.randint(0, 9), rng.randint(1, 4))
        # V may be empty, and may reach past var(F)
        vs = set(rng.sample(range(1, nv + 3), rng.randint(0, nv + 2)))
        assert outcome(rk.relative_hardness, f, vs) == outcome(ref_relative_hardness, f, vs), \
            (sorted(map(sorted, f)), vs)
    rng = random.Random(106)  # the cant instances of acceptance criterion 6
    checked = 0
    while checked < 200:
        nv = rng.randint(2, 6)
        g = random_dnf(rng, nv, rng.randint(1, 12 - nv))
        if g:
            f, vs = rk.cant(g).clauses, {abs(x) for c in g for x in c}
            assert rk.relative_hardness(f, vs) == ref_relative_hardness(f, vs), g
            checked += 1


def test_split_hardness_bound():
    rng = random.Random(19)
    for _ in range(30):
        f = random_clause_set(rng, 4, 6)
        assert rk.hardness(f).value <= rk.split_hardness_bound(f, rk.variables(f))


def test_hardness_witness_checks_out():
    f = rk.clause_set([[1, 2], [-1, 2], [1, -2], [-1, -2]])
    rep = rk.hardness(f)
    assert rep.kind == "hd" and rep.value == 2
    assert rk.refutation_level(rk.apply_assignment(rep.witness_assignment(), f)) == 2


@st.composite
def small_clause_sets(draw):
    """Clause-sets over at most 6 variables; the empty clause may occur."""
    n = draw(st.integers(1, 6))
    cls = draw(st.lists(
        st.sets(st.integers(1, n), max_size=n).flatmap(
            lambda vs: st.tuples(*(st.sampled_from([v, -v]) for v in sorted(vs)))),
        max_size=10))
    return rk.clause_set(cls)


@given(small_clause_sets())
@settings(max_examples=150, deadline=None)
def test_measures_are_ordered(f):
    hd = rk.hardness(f).value
    assert rk.w_hardness(f).value <= hd <= rk.p_hardness(f).value <= hd + 1
