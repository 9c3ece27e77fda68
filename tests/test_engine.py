"""The trail engine against the frozen whole-clause-set references.

r_k is confluent, so the engine must return the very clause-set of the
reference, not only the same verdict.  DPLL keeps the reference's branching
rule, so it must return the same model and run out of nodes at the same
point.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

import repkit as rk
from repkit import bench
from repkit import core, mps, reductions, translate, trees
from helpers import (
    all_shapes, outcome as outcome_or_error, random_clause_set, ref_image_entails,
    ref_image_hardness, ref_image_k_base, ref_image_p_hardness,
    ref_image_prime_implicates_bounded, ref_image_w_hardness, ref_propagate_units,
    ref_reduce_r, ref_reduce_r_inf, ref_refutation_level, ref_solve,
)

BUDGETS = (1, 2, 3, 5, 8)


def outcome(fn, *args):
    """The result, or the message of the budget error raised instead."""
    try:
        return fn(*args)
    except rk.SizeLimitExceeded as e:
        return ("SizeLimitExceeded", str(e))


def assert_engine_matches_reference(f):
    phi = rk.solve(f)
    assert phi == ref_solve(f), sorted(map(sorted, f))
    assert rk.is_satisfiable(f) == (phi is not None)
    for m in BUDGETS:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(core, "_MAX_DPLL_NODES", m)
            got = outcome(rk.solve, f)
        assert got == outcome(ref_solve, f, m), (sorted(map(sorted, f)), m)
    assert rk.propagate_units(f) == ref_propagate_units(f)
    assert rk.reduce_r_inf(f) == ref_reduce_r_inf(f), sorted(map(sorted, f))


def test_reduce_r_equals_reference_on_random_corpus():
    rng = random.Random(21)
    for _ in range(600):
        f = random_clause_set(rng, rng.randint(2, 7), rng.randint(1, 14),
                              rng.randint(1, 4))
        for k in range(4):
            assert rk.reduce_r(f, k) == ref_reduce_r(f, k), (sorted(map(sorted, f)), k)
        if not rk.is_satisfiable(f):
            assert rk.refutation_level(f) == ref_refutation_level(f)


def test_dpll_and_r_inf_equal_reference_on_random_corpus():
    rng = random.Random(22)
    sat = unsat = 0
    for _ in range(2000):
        nv = rng.randint(1, 9)
        f = random_clause_set(rng, nv, rng.randint(0, 4 * nv), rng.randint(1, 4))
        assert_engine_matches_reference(f)
        sat += rk.is_satisfiable(f)
        unsat += not rk.is_satisfiable(f)
    assert sat > 300 and unsat > 300
    for f in (rk.TOP, rk.BOT_SET, rk.BOT_SET | {rk.clause(1)}, rk.clause_set([[1], [-1, 2]])):
        assert_engine_matches_reference(f)


def test_failed_literal_found_late_enables_an_earlier_one():
    # x1 -> 0 is refuted by r_1 only once x5 is set, and x5 is scanned after x1
    f = rk.clause_set([[5, 6], [5, -6], [-5, 1, 2], [-5, 1, -2], [3, 4]])
    assert rk.reduce_r(f, 2) == ref_reduce_r(f, 2) == rk.clause_set([[3, 4]])


def test_r_3_derives_a_literal_of_long_clauses_only():
    # x1 occurs only in clauses of 4 free literals, yet r_2 refutes <x1 -> 0>
    # over the binary clauses: any open clause of 2 free literals turns the
    # probe filter off
    f = rk.clause_set([[1, 3, 4, 5], [1, 6, 7, 8], [2, -3], [2, -4], [2, -5],
                       [-2, -6], [-2, -7], [-2, -8]])
    assert rk.reduce_r(f, 2) == f
    assert rk.reduce_r(f, 3) == ref_reduce_r(f, 3) == rk.apply_assignment({1: 1}, f)


G_INSTANCES = [(2, h, v) for h in range(3, 7) for v in (1, 2, 3)] + [(3, 5, 1)]


@pytest.mark.parametrize("k,h,variant", G_INSTANCES)
def test_g_instances_equal_reference(k, h, variant):
    clauses, _ = bench.generate(bench.InstanceSpec(k, h, variant))
    f = frozenset(clauses)
    assert rk.refutation_level(f) == ref_refutation_level(f)
    assert rk.reduce_r(f, 2) == ref_reduce_r(f, 2)
    # a satisfiable image: one clause dropped leaves a non-trivial r_2 result
    g = f - {min(f, key=rk.reductions.clause_key)}
    assert rk.reduce_r(g, 2) == ref_reduce_r(g, 2)


G_INSTANCES_DPLL = [(2, h, v) for h in range(3, 8) for v in (1, 2, 3)]


@pytest.mark.parametrize("k,h,variant", G_INSTANCES_DPLL)
def test_g_instances_dpll_and_r_inf_equal_reference(k, h, variant):
    clauses, _ = bench.generate(bench.InstanceSpec(k, h, variant))
    f = frozenset(clauses)
    assert_engine_matches_reference(f)
    assert_engine_matches_reference(f - {min(f, key=rk.reductions.clause_key)})


# ---------------------------------------------------------------------------
# r_k from k = 3 on probes only the literals of the shortest open clauses
# ---------------------------------------------------------------------------

def test_filtered_reduce_r_equals_reference_on_long_clauses(monkeypatch):
    scans = []
    can_fail = core._Trail._can_fail

    def spy(t, j):
        scans.append(can_fail(t, j))
        return scans[-1]

    monkeypatch.setattr(core._Trail, "_can_fail", spy)
    rng = random.Random(26)
    for _ in range(150):
        nv = rng.randint(4, 9)
        f = random_clause_set(rng, nv, rng.randint(3 * nv, 10 * nv), maxlen=6, minlen=3)
        for k in (3, 4):
            assert rk.reduce_r(f, k) == ref_reduce_r(f, k), (sorted(map(sorted, f)), k)
    assert sum(c is not None for c in scans) > 500      # scans that left the filter on


G1_FILTERED = [(2, 5), (2, 6), (2, 7), (3, 5)]


@pytest.mark.parametrize("k,h", G1_FILTERED)
def test_filtered_reduce_r_equals_reference_on_g1(monkeypatch, k, h):
    f = frozenset(bench.generate(bench.InstanceSpec(k, h, 1))[0])
    g = f - {min(f, key=rk.reductions.clause_key)}
    for x in (f, g):
        for j in (3, 4):
            if (k, x, j) == (3, g, 4):
                # the reference takes 20 s here; compare with probing every literal
                with monkeypatch.context() as m:
                    m.setattr(core._Trail, "_can_fail", lambda t, j: None)
                    want = rk.reduce_r(x, j)
            else:
                want = ref_reduce_r(x, j)
            assert rk.reduce_r(x, j) == want, (x == f, j)


@pytest.mark.parametrize("k,h", [(2, 12), (2, 22), (3, 6)])
def test_g1_refutation_level_is_the_closed_form(k, h):
    spec = bench.InstanceSpec(k, h, 1)
    f = frozenset(bench.generate(spec)[0])
    assert rk.refutation_level(f) == bench.stats(spec).hardness == k + 1


@pytest.mark.parametrize("k,h,variant,closures", [
    (2, 22, 1, {2: 43, 3: 1}),     # 443 r_2 closures when every literal is probed
    (3, 5, 1, {2: 113, 3: 17, 4: 1}),
    (2, 7, 2, {2: 1}),
])
def test_refutation_level_closures_per_level(monkeypatch, k, h, variant, closures):
    counted: dict[int, int] = {}
    close = core._Trail._close

    def spy(t, j):
        counted[j] = counted.get(j, 0) + 1
        return close(t, j)

    monkeypatch.setattr(core._Trail, "_close", spy)
    f = frozenset(bench.generate(bench.InstanceSpec(k, h, variant))[0])
    rk.refutation_level(f)
    assert counted == closures


@st.composite
def long_clause_sets(draw):
    """(F, k) with every clause of F longer than k."""
    k = draw(st.integers(1, 4))
    n = draw(st.integers(k + 1, 7))
    cls = draw(st.lists(
        st.sets(st.integers(1, n), min_size=k + 1, max_size=n).flatmap(
            lambda vs: st.tuples(*(st.sampled_from([v, -v]) for v in sorted(vs)))),
        max_size=14))
    return rk.clause_set(cls), k


@given(long_clause_sets())
@settings(max_examples=200, deadline=None)
def test_r_k_derives_nothing_when_every_clause_is_longer_than_k(fk):
    f, k = fk
    assert rk.reduce_r(f, k) == ref_reduce_r(f, k) == f


@st.composite
def clause_sets(draw):
    n = draw(st.integers(1, 6))
    cls = draw(st.lists(
        st.sets(st.integers(1, n), min_size=1, max_size=n).flatmap(
            lambda vs: st.tuples(*(st.sampled_from([v, -v]) for v in sorted(vs)))),
        max_size=12))
    return rk.clause_set(cls)


@given(clause_sets(), st.integers(0, 3))
@settings(max_examples=200, deadline=None)
def test_reduce_r_monotone_in_k_and_idempotent(f, k):
    g = rk.reduce_r(f, k)
    assert rk.reduce_r(g, k) == g
    # r_k steps are r_{k+1} steps: r_{k+1} continues from r_k(F)
    assert rk.reduce_r(g, k + 1) == rk.reduce_r(f, k + 1)
    if g == rk.BOT_SET:
        assert rk.reduce_r(f, k + 1) == rk.BOT_SET
    else:
        assert rk.variables(rk.reduce_r(f, k + 1)) <= rk.variables(g)


# ---------------------------------------------------------------------------
# instances phi_C * F as assumptions on F's trail, against clause-set images
# ---------------------------------------------------------------------------

def instance_corpus():
    """Random clause-sets over <= 8 variables, bot, top and units among them;
    doped trees with 5-8 leaves; two_xor_system(3) and (4)."""
    rng = random.Random(24)
    fs = [rk.TOP, rk.BOT_SET, rk.clause_set([[1]]), rk.clause_set([[1], [-1]]),
          rk.clause_set([[1], [-1, 2], [2, 3]]), rk.BOT_SET | rk.clause_set([[1, 2]])]
    for _ in range(150):
        nv = rng.randint(1, 8)
        f = random_clause_set(rng, nv, rng.randint(1, 3 * nv), rng.randint(1, 4))
        fs.append(f | {rk.BOT} if rng.random() < .05 else f)
    for n in range(5, 9):
        for shape in rng.sample(all_shapes(n), 2):
            fs.append(rk.doped_tree(rk.label_bfs(shape)).clauses)
    return fs + [rk.two_xor_system(3), rk.two_xor_system(4)]


def test_hardness_reports_equal_the_image_references():
    capped = separated = 0
    for f in instance_corpus():
        key = sorted(map(sorted, f))
        hd = rk.hardness(f)
        assert hd == ref_image_hardness(f), key
        assert rk.w_hardness(f) == ref_image_w_hardness(f), key
        phd = rk.p_hardness(f)
        n = len(rk.variables(f))
        want = outcome_or_error(ref_image_p_hardness, f)
        if want != ("SizeLimitExceeded", f"p_hardness over {n} > 14 variables"):
            assert phd == want, key
            continue
        # past the reference's variable guard: the doped 8-leaf trees
        capped += 1
        assert hd.value <= phd.value <= hd.value + 1, key
        if phd.value == hd.value + 1:
            g = rk.apply_assignment(phd.witness_assignment(), f)
            assert rk.reduce_r(g, hd.value) != rk.reduce_r_inf(g), key
            separated += 1
    assert capped == 2 and separated


def test_k_base_and_bounded_implicates_equal_the_image_references():
    for f in instance_corpus():
        prime = rk.prime_implicates(f)
        assert rk.k_base(prime, 0) == prime          # r_0 refutes phi_C * g only for C in g
        # the reference's k = 0 pass takes 12 s on the 127 implicates of 7 leaves
        for k in range(0 if len(prime) < 100 else 1, 4):
            assert outcome_or_error(rk.k_base, prime, k) == \
                outcome_or_error(ref_image_k_base, prime, k), (sorted(map(sorted, f)), k)
        for k in (1, 2, 3):
            assert rk.prime_implicates_bounded(f, k) == ref_image_prime_implicates_bounded(f, k)


def test_entails_equals_the_image_reference():
    rng = random.Random(25)
    for f in instance_corpus():
        vs = sorted(rk.variables(f))
        vs.append(max(vs, default=0) + 1)            # a variable outside var(F)
        for _ in range(10):
            picked = rng.sample(vs, rng.randint(0, min(3, len(vs))))
            c = {v if rng.random() < .5 else -v for v in picked}
            assert rk.entails(f, c) == ref_image_entails(f, c), (sorted(map(sorted, f)), c)


@pytest.mark.parametrize("measure", [rk.hardness, rk.p_hardness])
def test_one_trail_per_hardness_call(monkeypatch, measure):
    built = []

    class CountedTrail(core._Trail):
        def __init__(self, f):
            built.append(f)
            super().__init__(f)

    monkeypatch.setattr(core, "_Trail", CountedTrail)
    monkeypatch.setattr(reductions, "_Trail", CountedTrail)
    for f in (rk.doped_tree(rk.extremal_tree(2, 3)).clauses, rk.two_xor_system(3),
              rk.clause_set([[1, 2], [-2, 3], [-1, -3]]), rk.TOP):
        built.clear()
        measure(f)
        assert built == [f]


def test_instances_build_no_clause_set_images(monkeypatch):
    def refuse(phi, f):
        raise AssertionError("an instance was rebuilt with apply_assignment")

    # raising=False: trees, translate and mps no longer import the name at all
    for module in (core, reductions, translate, trees, mps):
        monkeypatch.setattr(module, "apply_assignment", refuse, raising=False)
    f = rk.doped_tree(rk.extremal_tree(2, 3)).clauses
    assert (rk.hardness(f).value, rk.p_hardness(f).value) == (2, 3)
    assert rk.k_base(rk.prime_implicates(f), 2) <= rk.prime_implicates(f)
    assert rk.entails(f, max(f, key=core.clause_key))
    assert rk.prime_implicates_bounded(f, 2)
    assert rk.relative_hardness(f, rk.variables(f)) == 2
    assert rk.essential_prime_implicates(f) == f  # each clause owns its doping variable
    assert rk.is_total_mps(f)
    t = rk.extremal_tree(2, 3)
    assert rk.tsmuo(rk.smuo(t)) == t
    dnf = [rk.clause(1, 2), rk.clause(-1, 3)]
    assert rk.extension_property(rk.cant(dnf).clauses, {1, 2, 3}, dnf=dnf) == "strong_uep"
