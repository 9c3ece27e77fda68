import ast
import dataclasses
import gc
import hashlib
import inspect
import io
import json
import random
import re
import sys

import pytest

import repkit as rk
from repkit import bench, cli, core, trees
from helpers import (REFERENCE_TABLE, REFERENCE_ALPHA, ref_check_refutation, ref_generate,
                     ref_leaf_depth_sum, ref_verify)


def test_stats_against_frozen_table():
    for (k, h, variant), (n, c, l) in REFERENCE_TABLE.items():
        rec = bench.stats(bench.InstanceSpec(k, h, variant))
        assert (rec.n, rec.c, rec.l) == (n, c, l), (k, h, variant)
        assert rec.alpha == REFERENCE_ALPHA[(k, h)]


def test_leaf_depth_sum_matches_frozen_recursion():
    for k in range(2, 6):
        for h in range(k, 60):
            assert bench._leaf_depth_sum(k, h) == ref_leaf_depth_sum(k, h), (k, h)


def test_stats_match_generated_formulas():
    for k, h in [(2, 3), (2, 4), (3, 4), (2, 5)]:
        for variant in (1, 2, 3):
            spec = bench.InstanceSpec(k, h, variant)
            rec = bench.stats(spec)
            clauses, n = bench.generate(spec)
            assert n == rec.n
            assert len(clauses) == rec.c
            assert sum(len(c) for c in clauses) == rec.l
            assert len({abs(x) for c in clauses for x in c}) == rec.n


def test_generated_instances_unsatisfiable():
    for k, h in [(2, 3), (3, 4)]:
        for variant in (1, 2, 3):
            clauses, _ = bench.generate(bench.InstanceSpec(k, h, variant))
            assert not rk.is_satisfiable(frozenset(clauses))


def test_variant1_hardness():
    for k, h in [(2, 3), (2, 4), (3, 4)]:
        clauses, _ = bench.generate(bench.InstanceSpec(k, h, 1))
        assert rk.refutation_level(frozenset(clauses)) == k + 1


def test_variant23_hardness():
    for variant in (2, 3):
        clauses, _ = bench.generate(bench.InstanceSpec(2, 3, variant))
        assert rk.refutation_level(frozenset(clauses)) == 2


def test_instance_dimacs_deterministic_and_parsable():
    spec = bench.InstanceSpec(2, 3, 1)
    text = bench.instance_dimacs(spec)
    assert text == bench.instance_dimacs(spec)
    parsed, fmt = rk.parse_dimacs(text)
    assert fmt == "cnf"
    clauses, _ = bench.generate(spec)
    assert parsed == list(clauses)
    assert spec.name in text


# sha256 of instance_dimacs for these rows, frozen before the doping builder,
# the C_V closed form and cant/cantm were merged: the tree labels, doping
# numbering, selector numbering and clause order stay byte for byte the same.
# The last three are the paper-table rows of the dimacs-io benchmark, frozen
# while literals were still sorted by a Python key function per literal.
PINNED_DIMACS_SHA256 = {
    (2, 7, 1): "766fe396622064f7e4db50f44c7b6b6ae227c0d98649f9920f7fac9fb28e36be",
    (2, 7, 2): "dc8e02848da041be3839018cae76a735d5a1370bee3a7200c44cf875e3f2b792",
    (2, 7, 3): "725a73aca6e98ab79fd66b657c07a6ce03fa081015d1e32ad4931af23ae88f43",
    (3, 5, 2): "c9c2502f712228dac930efe28734335fc4e867d5b7879d8a15a723020f1eae1e",
    (2, 52, 3): "b3d1698741caeb9abc998462d8c49d0f92c3ca56dc7ad7f522ec195697d860dc",
    (3, 23, 2): "47906f7da440735f2d174a34a5905aea8018b0e2f5addfbc47879765cec040e0",
    (3, 23, 1): "534e829044c4bed7f8891f86b0dbb723f4d61425a1d3a7de5c2bddc31f8ee3d8",
}


@pytest.mark.parametrize("row", sorted(PINNED_DIMACS_SHA256))
def test_instance_dimacs_pinned_bytes(row):
    text = bench.instance_dimacs(bench.InstanceSpec(*row))
    assert hashlib.sha256(text.encode()).hexdigest() == PINNED_DIMACS_SHA256[row]


ROW = bench.InstanceSpec(2, 22, 2)  # thousands of clauses: enough for collections to start
BULK_BUILDERS = [(bench.generate, ROW),
                 (bench._layout, ROW),
                 (core.parse_dimacs, bench.instance_dimacs(ROW))]


@pytest.mark.parametrize("enabled", [True, False])
@pytest.mark.parametrize("fn, arg", BULK_BUILDERS, ids=lambda x: getattr(x, "__name__", ""))
def test_bulk_builders_pause_the_collector_and_restore_it(fn, arg, enabled):
    """No collection starts inside the call, and the collector is left as the
    caller had it, also when the call raises."""
    was = gc.isenabled()
    inside, starts = [False], []

    def record(phase, info):
        starts.append(inside[0] and phase == "start")

    gc.callbacks.append(record)
    try:
        (gc.enable if enabled else gc.disable)()
        inside[0] = True
        fn(arg)
        inside[0] = False
        assert gc.isenabled() is enabled and not any(starts)
        with pytest.raises(core.DimacsError):
            core.parse_dimacs("p cnf 2 1\n1 -1 0\n")
        assert gc.isenabled() is enabled
    finally:
        gc.callbacks.remove(record)
        (gc.enable if was else gc.disable)()


def test_bulk_builders_make_no_reference_cycles():
    """What the paused builders allocate is freed by reference counting, so
    the pause defers no garbage: a collection right after finds nothing."""
    spec = bench.InstanceSpec(3, 23, 2)
    gc.collect()
    clauses, _ = bench.generate(spec)
    assert gc.collect() == 0
    text = bench.instance_dimacs(spec)
    assert gc.collect() == 0
    assert core.parse_dimacs(text)[0] == clauses
    assert gc.collect() == 0
    assert bench._certified_level(spec, clauses) == 2
    assert gc.collect() == 0


def test_spec_validation():
    with pytest.raises(ValueError):
        bench.InstanceSpec(1, 5, 1)
    with pytest.raises(ValueError):
        bench.InstanceSpec(3, 3, 1)
    with pytest.raises(ValueError):
        bench.InstanceSpec(2, 5, 4)


def test_default_grid():
    grid = bench.default_grid()
    assert len(grid) == 14
    for k, h in grid:
        for variant in (1, 2, 3):
            assert bench.stats(bench.InstanceSpec(k, h, variant)).l <= 50_000_000


HUGE = bench.InstanceSpec(2, 20000, 1)   # 200,010,001 leaves


@pytest.mark.parametrize("fn", [bench.generate, bench.verify, bench.instance_dimacs],
                         ids=lambda f: f.__name__)
def test_a_row_above_the_literal_limit_is_refused_before_it_is_built(fn):
    with pytest.raises(core.SizeLimitExceeded) as e:
        fn(HUGE)
    l = bench.stats(HUGE).l
    assert l > 5 * 10 ** 12
    assert (e.value.budget, e.value.limit, e.value.progress) == ("literals", 50_000_000, l)


def test_verify_levels():
    rep = bench.verify(bench.InstanceSpec(2, 3, 1), "formulas")
    assert rep["ok"]
    rep = bench.verify(bench.InstanceSpec(2, 3, 2), "hardness")
    assert rep["ok"] and rep["hardness"] == (2, 2)


@pytest.mark.parametrize("level", ["hardnes", "Hardness", "", None])
def test_verify_refuses_an_unknown_level(level):
    with pytest.raises(ValueError, match="unknown verify level"):
        bench.verify(bench.InstanceSpec(2, 5, 1), level)


#: The family-hardness rungs of perfbench, G1_k2_h12 and G1_k3_h6.
VERIFIED_SPECS = ([(k, h, v) for v in (1, 2, 3) for k, h in ((2, 5), (2, 6), (2, 7), (3, 5))]
                  + [(2, 12, 1), (3, 6, 1)])


def assert_verify_matches_reference(spec):
    rep = bench.verify(spec, "hardness")
    assert json.dumps(rep, indent=2) == json.dumps(ref_verify(spec, "hardness"), indent=2)
    return rep


@pytest.mark.parametrize("k,h,variant", VERIFIED_SPECS)
def test_verify_equals_the_dpll_first_reference(k, h, variant):
    rep = assert_verify_matches_reference(bench.InstanceSpec(k, h, variant))
    assert rep["ok"] is True


#: The family-hardness rungs and the rows of the paper's table no larger than G2_k3_h23.
STREAM_SPECS = VERIFIED_SPECS[:12] + [
    (k, h, v) for k, h in bench.default_grid() for v in (1, 2, 3)
    if bench.stats(bench.InstanceSpec(k, h, v)).c <= bench.stats(bench.InstanceSpec(3, 23, 2)).c]


@pytest.mark.parametrize("row", STREAM_SPECS, ids=lambda r: bench.InstanceSpec(*r).name)
def test_the_text_and_the_clause_list_are_one_layout(row):
    """instance_dimacs writes the stream that generate reads its clauses off:
    the text parses to generate's list, and emitting that list gives the text."""
    spec = bench.InstanceSpec(*row)
    clauses, n = bench.generate(spec)
    text = bench.instance_dimacs(spec)
    assert core.parse_dimacs(text)[0] == clauses
    assert text == core.emit_dimacs(clauses, "cnf", bench.instance_comments(spec), num_vars=n)


@pytest.mark.parametrize("row", [(3, 23, 1), (3, 23, 2)], ids=lambda r: bench.InstanceSpec(*r).name)
def test_generated_clauses_keep_their_table_sizes(row):
    """Each clause read off the stream holds as much memory as the clause
    built on its own from a tuple, `union` sizing its table once; a
    frozenset of each slice would grow the long ones 4x at a time."""
    spec = bench.InstanceSpec(*row)
    clauses, n = bench.generate(spec)
    want, want_n = ref_generate(spec)
    assert (clauses, n) == (want, want_n)
    assert sum(map(sys.getsizeof, clauses)) == sum(map(sys.getsizeof, want))


def test_verify_runs_no_dpll_when_the_claim_holds(monkeypatch):
    """Each rung is certified: DPLL does not run."""
    calls = []
    model = core._Trail.model

    def spy(t, *args):
        calls.append(len(t.trail))
        return model(t, *args)

    monkeypatch.setattr(core._Trail, "model", spy)
    for k, h, variant in VERIFIED_SPECS:
        assert bench.verify(bench.InstanceSpec(k, h, variant), "hardness")["ok"] is True
    assert calls == []


def test_bench_imports_nothing_from_the_search():
    """verify has one route, the certificate: bench does not import the
    propagation engine's reductions module."""
    imports = [n for n in ast.walk(ast.parse(inspect.getsource(bench)))
               if isinstance(n, (ast.Import, ast.ImportFrom))]
    modules = {getattr(n, "module", None) or "" for n in imports} | {a.name for n in imports for a in n.names}
    assert "core" in modules and not any("reductions" in m for m in modules)
    assert not any(getattr(v, "__module__", None) == "repkit.reductions" for v in vars(bench).values())


#: Every spec with k = 2..5 and h <= k + 8 (all of them at most 300,000 literals).
SMALL_SPECS = [bench.InstanceSpec(k, h, v)
               for k in range(2, 6) for h in range(k + 1, k + 9) for v in (1, 2, 3)]


def test_every_small_spec_certifies_at_its_closed_form_hardness():
    """The certificate is built by construction for every spec, so verify
    needs no other route on the instances generate builds."""
    assert len(SMALL_SPECS) == 96 and max(bench.stats(s).l for s in SMALL_SPECS) <= 300_000
    for spec in SMALL_SPECS:
        clauses, _ = bench.generate(spec)
        assert bench._certified_level(spec, clauses) == bench.stats(spec).hardness, spec.name


@pytest.mark.parametrize("k,h,variant", VERIFIED_SPECS)
def test_the_certificate_route_builds_no_trail(monkeypatch, k, h, variant):
    """Neither bound of the certificate uses the propagation engine."""
    built = []
    init = core._Trail.__init__

    def spy(t, *args, **kwargs):
        built.append(t)
        init(t, *args, **kwargs)

    monkeypatch.setattr(core._Trail, "__init__", spy)
    assert bench.verify(bench.InstanceSpec(k, h, variant), "hardness")["ok"] is True
    assert built == []


def claim(monkeypatch, delta):
    """Make bench.stats claim the hardness plus delta."""
    stats = bench.stats

    def claimed(spec):
        rec = stats(spec)
        return dataclasses.replace(rec, hardness=rec.hardness + delta)

    monkeypatch.setattr(bench, "stats", claimed)


def test_verify_climbs_past_a_claim_that_is_too_low(monkeypatch):
    claim(monkeypatch, -1)
    for k, h in [(2, 5), (3, 5), (2, 12)]:
        rep = assert_verify_matches_reference(bench.InstanceSpec(k, h, 1))
        assert rep["unsatisfiable"] is True and rep["hardness"] == (k + 1, k)
        assert rep["ok"] is False


def test_verify_reports_a_level_below_a_claim_that_is_too_high(monkeypatch):
    claim(monkeypatch, 1)
    for k, h, variant, hd in [(2, 5, 1, 3), (2, 7, 2, 2), (3, 5, 3, 2)]:
        rep = assert_verify_matches_reference(bench.InstanceSpec(k, h, variant))
        assert rep["unsatisfiable"] is True and rep["hardness"] == (hd, hd + 1)
        assert rep["ok"] is False


def assert_rejected(spec, reason):
    """verify proves nothing and says why: the formulas part of the report
    is the reference's, and "rejected" matches reason."""
    rep = bench.verify(spec, "hardness")
    want = ref_verify(spec, "formulas")
    assert rep == {**want, "ok": False, "unsatisfiable": None,
                   "hardness": (None, bench.stats(spec).hardness), "rejected": rep["rejected"]}
    assert list(rep) == [*want, "unsatisfiable", "hardness", "rejected"]
    assert re.search(reason, rep["rejected"]) and "\n" not in rep["rejected"], rep["rejected"]
    return rep


def test_verify_on_a_satisfiable_instance(monkeypatch):
    generate = bench.generate

    def less_one_clause(spec):
        clauses, n = generate(spec)
        return clauses[:-1], n

    monkeypatch.setattr(bench, "generate", less_one_clause)
    for k, h in [(2, 5), (3, 5)]:
        spec = bench.InstanceSpec(k, h, 1)
        assert rk.is_satisfiable(frozenset(bench.generate(spec)[0]))
        assert_rejected(spec, "^ValueError: clause index [0-9]+ names no available clause$")


# ---------------------------------------------------------------------------
# the certificate route of verify
# ---------------------------------------------------------------------------

def certificate(spec):
    clauses, _ = bench.generate(spec)
    level, proof = bench._certificate(spec, clauses)
    return clauses, level, proof


def test_the_checker_returns_the_horton_strahler_number():
    x = frozenset
    assert bench._check_refutation([x({1}), x({-1})], [(0, [1])], 1) == 1
    full2 = [x({1, 2}), x({1, -2}), x({-1, 2}), x({-1, -2})]
    proof = [(0, [1]), (2, [3]), (4, [5])]
    assert bench._check_refutation(full2, proof, 2) == 2
    for spec in [bench.InstanceSpec(2, 5, 1), bench.InstanceSpec(3, 6, 1), bench.InstanceSpec(2, 5, 3)]:
        clauses, level, proof = certificate(spec)
        assert bench._check_refutation(clauses, proof, level) == level


@pytest.mark.parametrize("clauses, proof", [
    ([{1}, {-1}], [(0, [1]), (2, []), (2, [])]),       # a derived clause used twice
    ([{2}, {-1}, {-2}], [(0, [1, 2])]),                 # an antecedent with no clash
    ([{1}, {2}, {-2}], [(0, [1, 2])]),                  # the running clause has no complement in it
    ([{1, 2}, {-1, -2}, {-2}, {2}], [(0, [1, 2, 3])]),  # two clashes: a tautological resolvent
    ([{1, -1}, {-1}, {1}], [(0, [1, 2])]),              # a tautological input clause
    ([{1}, {-1, 1}, {-1}], [(0, [1]), (3, [2])]),       # and as the antecedent
    ([{1}, {-1}], [(0, [1]), (1, [])]),                 # a last clause that is not bot
    ([], []),
], ids=["reuse", "no-clash", "complement-not-in-antecedent", "tautological-resolvent",
        "tautological-input", "tautological-antecedent", "last-not-empty", "empty-proof"])
def test_the_checker_rejects(clauses, proof):
    with pytest.raises(ValueError):
        bench._check_refutation([frozenset(c) for c in clauses], proof, 5)


def random_refutation(rng, nv=4):
    """A tree refutation of the path clauses of a random decision tree over
    1..nv, each leaf clause missing a literal now and then, with a random
    claimed level.  A chain goes on while the next clause is an input
    clause, else a new chain starts; either side may come first."""
    clauses, chains = [], []

    def derive(path):  # ("input", i) or ("chain", j), holding the path's literals
        free = [v for v in range(1, nv + 1) if v not in map(abs, path)]
        if not free or rng.random() < .3:
            clauses.append(frozenset(x for x in path if rng.random() < .95))
            return "input", len(clauses) - 1
        v = rng.choice(free)
        l, r = rng.sample([derive(path + [v]), derive(path + [-v])], 2)
        if l == ("chain", len(chains) - 1) and r[0] == "input":
            chains[-1][1].append(r)
            return l
        chains.append((l, [r]))
        return "chain", len(chains) - 1

    derive([])
    m = len(clauses)
    index = lambda t: t[1] + (m if t[0] == "chain" else 0)
    return clauses, [(index(s), [index(a) for a in ante]) for s, ante in chains], rng.randint(0, 4)


def mutate_at_random(rng, clauses, proof, level):
    """Unchanged 40% of the time; else one chain gets a random index or a
    shuffled order, or one clause an extra literal."""
    if not proof or rng.random() < .4:
        return clauses, proof, level
    j, top = rng.randrange(len(proof)), len(clauses) + len(proof)
    start, ante = proof[j]
    pick = rng.randrange(4)
    if pick == 0:
        start = rng.randint(-1, top)
    elif pick == 1 and ante:
        ante = [rng.randint(-1, top) if i == 0 else a for i, a in enumerate(rng.sample(ante, len(ante)))]
    elif pick == 2:
        ante = rng.sample(ante, len(ante))
    else:
        i = rng.randrange(len(clauses))
        clauses = [*clauses[:i], clauses[i] | {rng.choice([1, -1]) * rng.randint(1, 4)}, *clauses[i + 1:]]
    return clauses, [*proof[:j], (start, ante), *proof[j + 1:]], level


def verdict(check, *args):
    try:
        return check(*args)
    except ValueError:
        return None


def test_the_checker_agrees_with_the_literal_reference():
    """Random small proofs, most of them near misses: both checkers accept
    the same ones, with the same number."""
    rng = random.Random(19)
    seen = set()
    for _ in range(4000):
        case = mutate_at_random(rng, *random_refutation(rng))
        got = verdict(bench._check_refutation, *case)
        assert got == verdict(ref_check_refutation, *case), case
        seen.add(got)
    assert seen >= {None, 1, 2, 3}


def test_the_certificate_builds_no_tree(monkeypatch):
    """The proof comes from the clause list: no extremal tree is built again."""
    calls = []
    for name in ("extremal_shape", "label_bfs"):
        build = getattr(trees, name)
        monkeypatch.setattr(trees, name, lambda *args, build=build: calls.append(build) or build(*args))
    trees.extremal_tree(2, 5)
    assert len(calls) == 2                 # the spies see the build inside extremal_tree
    for k, h, variant in VERIFIED_SPECS:
        spec = bench.InstanceSpec(k, h, variant)
        clauses, _ = bench.generate(spec)
        calls.clear()
        level, proof = bench._certificate(spec, clauses)
        assert calls == [] and bench._check_refutation(clauses, proof, level) == level


def test_the_layout_builds_no_tree(monkeypatch):
    """generate, instance_dimacs and verify read the leaf paths off the
    shape recurrence: with every tree builder made to raise, they give what
    they gave before."""
    specs = [bench.InstanceSpec(*row) for row in VERIFIED_SPECS]
    want = [(ref_generate(spec), bench.instance_dimacs(spec)) for spec in specs]

    def refuse(*args):
        raise AssertionError("a tree was built")

    for name in ("extremal_shape", "label_bfs", "extremal_tree"):
        monkeypatch.setattr(trees, name, refuse)
    for spec, (clauses, text) in zip(specs, want):
        assert bench.generate(spec) == clauses and bench.instance_dimacs(spec) == text
        assert bench.verify(spec, "hardness")["ok"] is True


def test_the_literal_limit_is_checked_before_the_paths_are_read(monkeypatch):
    spec = bench.InstanceSpec(2, 5, 2)
    calls = []
    paths = bench._extremal_paths
    monkeypatch.setattr(bench, "_extremal_paths", lambda *args: calls.append(args) or paths(*args))
    monkeypatch.setattr(bench, "_MAX_LITERALS", bench.stats(spec).l - 1)
    with pytest.raises(core.SizeLimitExceeded):
        bench.generate(spec)
    assert calls == []
    monkeypatch.setattr(bench, "_MAX_LITERALS", bench.stats(spec).l)
    bench.generate(spec)
    assert calls == [(2, 5)]


def no_clash(level, proof, m):
    (start, [_, *rest]), *chains = proof
    return level, [(start, [start, *rest]), *chains]


def two_clashes(level, proof, m):
    """Swap the first antecedents of leaves 0 and 1, siblings on every row:
    each chain still resolves, but G1's pair chains derive
    P u {-u_0, u_1} and P u {u_0, -u_1}, and G2/G3's both derive
    {-s_0, -s_1}, which clash twice where they meet."""
    (s0, [a0, *r0]), (s1, [a1, *r1]), *chains = proof
    return level, [(s0, [a1, *r0]), (s1, [a0, *r1]), *chains]


def past_the_end(level, proof, m):
    (start, [_, *rest]), *chains = proof
    return level, [(start, [m + len(proof), *rest]), *chains]


def negative_index(level, proof, m):
    (start, [_, *rest]), *chains = proof
    return level, [(start, [-1, *rest]), *chains]


def last_not_empty(level, proof, m):
    *chains, (start, antecedents) = proof
    return level, [*chains, (start, antecedents[:-1])]


def one_too_low(level, proof, m):
    return level - 1, proof


#: Each mutation and the error it must meet.
MUTATIONS = {no_clash: "no clash", two_clashes: "second clash",
             past_the_end: "names no available clause", negative_index: "names no available clause",
             last_not_empty: "does not end in the empty clause", one_too_low: "above the claimed"}


@pytest.mark.parametrize("mutate", MUTATIONS, ids=lambda f: f.__name__)
@pytest.mark.parametrize("k,h,variant", [(2, 5, 1), (3, 5, 1), (2, 5, 2), (2, 6, 3)])
def test_a_mutated_certificate_is_rejected_and_verify_falls_back(monkeypatch, mutate, k, h, variant):
    """The checker rejects each mutation with its own error, and verify
    reports that error instead of a hardness."""
    spec = bench.InstanceSpec(k, h, variant)
    clauses, level, proof = certificate(spec)
    bad_level, bad_proof = mutate(level, proof, len(clauses))
    with pytest.raises(ValueError, match=MUTATIONS[mutate]):
        bench._check_refutation(clauses, bad_proof, bad_level)

    build = bench._certificate

    def mutated(spec, clauses):
        return mutate(*build(spec, clauses), len(clauses))

    monkeypatch.setattr(bench, "_certificate", mutated)
    assert_rejected(spec, MUTATIONS[mutate])


def test_a_clause_shorter_than_the_proof_level_is_rejected(monkeypatch):
    """The lower bound is checked: with the last leaf's path clause, of k
    literals, appended to G1, the proof still checks at k + 1, but the
    shortest clause no longer bounds hd from below and verify says so."""
    generate = bench.generate

    def with_a_short_clause(spec):
        clauses, n = generate(spec)
        return clauses + [clauses[-1] - {n}], n   # n: the last leaf's doping variable

    monkeypatch.setattr(bench, "generate", with_a_short_clause)
    for k, h in [(2, 5), (3, 5)]:
        spec = bench.InstanceSpec(k, h, 1)
        clauses, level, proof = certificate(spec)
        assert min(map(len, clauses)) == k and bench._check_refutation(clauses, proof, level) == k + 1
        reason = f"clause {len(clauses) - 1} has {k} literals, fewer than the proof's {k + 1}"
        with pytest.raises(ValueError, match=f"^{reason}$"):
            bench._certified_level(spec, clauses)
        assert_rejected(spec, f"^ValueError: {reason}$")


@pytest.mark.parametrize("k,h,variant", [(2, 52, 1), (3, 23, 2), (2, 52, 3)])
def test_the_certificate_and_the_search_agree(k, h, variant):
    spec = bench.InstanceSpec(k, h, variant)
    rep = bench.verify(spec, "hardness")
    assert rep["ok"] is True and "rejected" not in rep
    clauses, _ = bench.generate(spec)
    assert rk.unsat_level(frozenset(clauses)) == rep["hardness"][0]


# ---------------------------------------------------------------------------
# command-line interface
# ---------------------------------------------------------------------------

def run_cli(capsys, *args):
    rc = cli.main(list(args))
    out = capsys.readouterr().out
    return rc, out


def test_cli_stats_table(capsys):
    rc, out = run_cli(capsys, "stats", "--table")
    assert rc == 0
    assert len([ln for ln in out.splitlines() if ln.strip()[:1].isdigit()]) == 42


def test_cli_stats_json(capsys):
    rc, out = run_cli(capsys, "stats", "--k", "2", "--h", "22", "--json")
    assert rc == 0
    rows = json.loads(out)
    row = next(r for r in rows if r["variant"] == 1)
    assert (row["n"], row["c"], row["l"]) == (507, 508, 8604)


def test_cli_stats_on_a_deep_tree(capsys):
    rc, out = run_cli(capsys, "stats", "--k", "2", "--h", "1500", "--json")
    assert rc == 0
    # leaf depth sums by the closed form k = 1 and the k = 2 recurrence
    alpha1, alpha2 = (lambda j: j + 1), (lambda j: 1 + j + j * (j - 1) // 2)
    s2 = 8                                       # the complete tree of height 2
    for j in range(2, 1500):
        s2 += alpha2(j) + j * (j + 3) // 2 + alpha1(j)
    a = alpha2(1500)
    row = next(r for r in json.loads(out) if r["variant"] == 1)
    assert (row["alpha"], row["n"], row["c"], row["l"]) == (a, 2 * a - 1, 2 * a, 2 * (s2 + a))


def test_cli_tree_on_a_deep_tree(capsys):
    rc, out = run_cli(capsys, "tree", "--k", "1", "--h", "1200")
    lines = out.splitlines()
    assert rc == 0 and "p cnf 1200 1201" in lines and lines[-1] == "-1 0"
    assert lines[-2] == "1 -2 0" and len(lines[-1201].split()) == 1201
    rc, out = run_cli(capsys, "tree", "--k", "1", "--h", "1200", "--emit", "doped")
    lines = out.splitlines()
    assert rc == 0 and "p cnf 2401 1201" in lines and lines[-1] == "-1 2401 0"
    rc, out = run_cli(capsys, "tree", "--k", "1", "--h", "1200", "--emit", "dot")
    assert rc == 0 and out.startswith("digraph") and out.endswith("}\n")
    assert out.count(" -> ") == 2400 and 'n0 -> n2400 [label="-v1"];' in out


def test_cli_generate_and_analyze(tmp_path, capsys):
    path = tmp_path / "g1.cnf"
    rc, _ = run_cli(capsys, "generate", "--k", "2", "--h", "3",
                    "--variant", "1", "-o", str(path))
    assert rc == 0
    rc, out = run_cli(capsys, "analyze", str(path), "--measure", "hd-unsat")
    assert rc == 0 and "3" in out


def test_cli_analyze_sat_on_a_long_chain(tmp_path, capsys):
    # 1000 binary clauses over disjoint variables: DPLL branches 1000 deep
    path = tmp_path / "chain.cnf"
    path.write_text(rk.emit_dimacs([rk.clause(2 * i - 1, 2 * i) for i in range(1, 1001)]))
    rc, out = run_cli(capsys, "analyze", "--measure", "sat", str(path))
    assert rc == 0 and '"satisfiable": true' in out


def test_cli_tree_and_translate(tmp_path, capsys):
    rc, out = run_cli(capsys, "tree", "--k", "2", "--h", "2", "--emit", "dot")
    assert rc == 0 and out.startswith("digraph")
    rc, out = run_cli(capsys, "translate", "--mode", "xor", "--xor", "1 -2 3")
    assert rc == 0 and "p cnf" in out


def test_cli_mps_and_dope(tmp_path, capsys):
    path = tmp_path / "f.cnf"
    path.write_text("p cnf 2 2\n1 0\n-1 -2 0\n")
    rc, out = run_cli(capsys, "mps", str(path))
    assert rc == 0
    rc, out = run_cli(capsys, "dope", str(path))
    assert rc == 0 and "p cnf 4 2" in out



def _analyze_json(measure, f, **fields):
    """What `repkit analyze` prints for f, from the library's answer."""
    return {"measure": measure, "n": len(rk.variables(f)), "c": len(f), **fields}


def _listed(g):
    return [sorted(c, key=abs) for c in sorted(g, key=core.clause_key)]


_UNSAT = rk.emit_dimacs(rk.two_xor_system(3))                 # hd 3
_SAT = rk.emit_dimacs(rk.clause_set([[1, 2], [-1, 3], [-2, 3], [-3, 4, 5]]))
_DNF = rk.emit_dimacs(rk.clause_set([[1, 2], [-1, 3]]), "dnf")


@pytest.mark.parametrize("text, args, read, library", [
    (_UNSAT, ["analyze", "--measure", "whd-unsat", "-"], json.loads,
     lambda f, fmt: _analyze_json("whd-unsat", f, value=rk.w_refutation_level(f))),
    (_UNSAT, ["analyze", "--measure", "rk", "--k", "2", "FILE"], json.loads,
     lambda f, fmt: _analyze_json("rk", f, k=2, refuted=False, result=_listed(rk.reduce_r(f, 2)))),
    (_UNSAT, ["analyze", "--measure", "rk", "--k", "3", "FILE"], json.loads,
     lambda f, fmt: _analyze_json("rk", f, k=3, refuted=True, result=_listed(rk.reduce_r(f, 3)))),
    (_SAT, ["analyze", "--measure", "rinf", "FILE"], json.loads,
     lambda f, fmt: _analyze_json("rinf", f, refuted=False, result=_listed(rk.reduce_r_inf(f)))),
    (_SAT, ["analyze", "--measure", "prime", "FILE"], json.loads,
     lambda f, fmt: _analyze_json("prime", f, value=len(rk.prime_implicates(f)),
                                  clauses=_listed(rk.prime_implicates(f)))),
    (_SAT, ["analyze", "--measure", "essential", "FILE"], json.loads,
     lambda f, fmt: _analyze_json("essential", f, value=len(rk.essential_prime_implicates(f)),
                                  clauses=_listed(rk.essential_prime_implicates(f)))),
    (_SAT, ["translate", "--mode", "cant", "FILE"], rk.parse_dimacs,
     lambda f, fmt: (list(rk.cant(f).ordered), "cnf")),
    (_DNF, ["translate", "--mode", "cantm", "-"], rk.parse_dimacs,
     lambda f, fmt: (list(rk.cantm(f).ordered), "cnf")),
    ("", ["stats", "--k", "2", "--h", "3", "--csv"], lambda out: [r.split(",") for r in out.splitlines()],
     lambda f, fmt: [[fl.name for fl in dataclasses.fields(rk.StatsRecord)]] + [
         list(map(str, dataclasses.astuple(rk.stats(rk.InstanceSpec(2, 3, v))))) for v in (1, 2, 3)]),
], ids=["whd-unsat-stdin", "rk2", "rk3", "rinf", "prime", "essential", "cant-warns", "cantm-stdin",
        "stats-csv"])
def test_cli_output_equals_the_library_call(tmp_path, capsys, monkeypatch, text, args, read, library):
    """Each output of the CLI, read back, equals the library's answer on the
    same clauses; "-" reads the input from stdin, "FILE" from a file."""
    path = tmp_path / "in.txt"
    path.write_text(text)
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    rc = cli.main([str(path) if a == "FILE" else a for a in args])
    captured = capsys.readouterr()
    clauses, fmt = rk.parse_dimacs(text) if text else ([], None)
    assert rc == 0
    assert read(captured.out) == library(clauses if args[0] == "translate" else frozenset(clauses), fmt)
    warned = "warning: input not marked 'p dnf', reading clauses as DNF\n"
    assert captured.err == (warned if args[0] == "translate" and fmt != "dnf" else "")


# `repkit trigger` on the doped 6-leaf extremal tree (k = 1, h = 5), as the
# frozenset branch and bound printed it before the searches moved onto
# vertex masks.
TRIGGER_6_LEAVES = {
    1: {
        "k": 1,
        "vertices": 63,
        "transversal_number": 5,
        "transversal": [
            [-1, 11],
            [1, -2, 10],
            [1, 2, -3, 9],
            [1, 2, 3, -4, 8],
            [1, 2, 3, 4, 6, 7],
        ],
        "matching_number": 5,
        "matching": [
            [
                [-1, 11],
            ],
            [
                [1, -2, 10],
                [-2, 10, 11],
            ],
            [
                [1, 2, -3, 9],
                [1, -3, 9, 10],
                [2, -3, 9, 11],
            ],
            [
                [1, 2, 3, -4, 8],
                [1, 2, -4, 8, 9],
                [1, 3, -4, 8, 10],
                [2, 3, -4, 8, 11],
            ],
            [
                [1, 2, 3, 4, 5, 6],
                [1, 2, 3, 4, 6, 7],
                [1, 2, 3, 5, 6, 8],
                [1, 2, 4, 5, 6, 9],
                [1, 3, 4, 5, 6, 10],
                [2, 3, 4, 5, 6, 11],
            ],
        ],
    },
    2: {
        "k": 2,
        "vertices": 63,
        "transversal_number": 4,
        "transversal": [
            [-1, 11],
            [1, -2, 10],
            [1, -3, 9, 10],
            [1, 2, 3, 6, 7, 8],
        ],
        "matching_number": 3,
        "matching": [
            [
                [-1, 11],
                [-2, 10, 11],
            ],
            [
                [1, 2, -3, 9],
                [1, -3, 9, 10],
                [2, -3, 9, 11],
                [-3, 9, 10, 11],
                [1, 2, -4, 8, 9],
            ],
            [
                [1, 2, 3, 4, 5, 6],
                [1, 2, 3, 4, 6, 7],
                [1, 2, 3, 5, 6, 8],
                [1, 2, 3, 6, 7, 8],
                [1, 2, 4, 5, 6, 9],
                [1, 2, 4, 6, 7, 9],
                [1, 2, 5, 6, 8, 9],
                [1, 3, 4, 5, 6, 10],
                [1, 3, 4, 6, 7, 10],
                [1, 3, 5, 6, 8, 10],
                [1, 4, 5, 6, 9, 10],
                [2, 3, 4, 5, 6, 11],
                [2, 3, 4, 6, 7, 11],
                [2, 3, 5, 6, 8, 11],
                [2, 4, 5, 6, 9, 11],
                [3, 4, 5, 6, 10, 11],
            ],
        ],
    },
}


def test_cli_trigger(tmp_path, capsys):
    rc, doped = run_cli(capsys, "tree", "--k", "1", "--h", "5", "--emit", "doped")
    assert rc == 0
    path = tmp_path / "t6.cnf"
    path.write_text(doped)
    for k, want in TRIGGER_6_LEAVES.items():
        rc, out = run_cli(capsys, "trigger", str(path), "--k", str(k))
        assert rc == 0
        assert out == json.dumps(want, indent=2) + "\n", k


def test_cli_trigger_on_1200_disjoint_hyperedges(tmp_path, capsys):
    """1,200 units give 1,200 disjoint one-clause hyperedges at k = 0: the
    matching search goes 1,200 levels deep without recursing."""
    path = tmp_path / "units.cnf"
    path.write_text("p cnf 1200 1200\n" + "".join(f"{v} 0\n" for v in range(1, 1201)))
    rc, out = run_cli(capsys, "trigger", str(path), "--k", "0")
    rep = json.loads(out)
    assert rc == 0 and rep["matching_number"] == rep["transversal_number"] == 1200


def test_cli_trigger_refuses_a_negative_k(tmp_path, capsys):
    path = tmp_path / "t3.cnf"
    path.write_text("p cnf 2 3\n1 0\n-1 2 0\n-1 -2 0\n")
    rc, err = run_cli_err(capsys, "trigger", str(path), "--k", "-1")
    assert rc == 5 and err == "repkit: k must be >= 0\n"


@pytest.mark.parametrize("args, k_tree, h, width, size", [
    (("--tree", "2", "5", "--width", "1"), 2, 5, 1, 10),
    (("--tree", "3", "5"), 3, 5, 2, 6),
])
def test_cli_trigger_tree_prints_the_certificate(capsys, args, k_tree, h, width, size):
    """--width defaults to K - 1."""
    rc, out = run_cli(capsys, "trigger", *args)
    cert = rk.depth_k_incomparable_family(rk.extremal_tree(k_tree, h), width)
    assert rc == 0 and out == cert.to_json() + "\n"
    assert (json.loads(out)["k"], json.loads(out)["size"]) == (width, size)


def test_cli_trigger_tree_refuses_past_the_fold_budget(capsys):
    rc, err = run_cli_err(capsys, "trigger", "--tree", "1", "19", "--width", "0")
    assert rc == 4 and err == "repkit: depth_k_incomparable_family needs more than 2000000 fold pairs\n"


def test_cli_verify(capsys):
    rc, _ = run_cli(capsys, "verify", "--k", "2", "--h", "3", "--variant",
                    "1", "--level", "formulas")
    assert rc == 0


@pytest.mark.parametrize("variant", [1, 2, 3])
def test_cli_verify_hardness_h12(capsys, variant):
    rc, out = run_cli(capsys, "verify", "--k", "2", "--h", "12", "--variant",
                      str(variant), "--level", "hardness")
    rep = json.loads(out)
    assert rc == 0 and rep["ok"] is True
    assert rep["hardness"] == ([3, 3] if variant == 1 else [2, 2])


def run_cli_err(capsys, *args):
    rc = cli.main(list(args))
    captured = capsys.readouterr()
    assert captured.out == ""
    return rc, captured.err


def test_cli_hd_unsat_on_a_satisfiable_doped_tree_stops_at_r_2(tmp_path, capsys, monkeypatch):
    path = tmp_path / "t7.cnf"
    rc, _ = run_cli(capsys, "tree", "--k", "2", "--h", "3", "--emit", "doped", "-o", str(path))
    assert rc == 0
    closures = []
    close = core._Trail._close

    def spy(t, j):
        closures.append(j)
        assert j == 2, "climbed past r_2 on a satisfiable clause-set"
        return close(t, j)

    monkeypatch.setattr(core._Trail, "_close", spy)
    rc, err = run_cli_err(capsys, "analyze", str(path), "--measure", "hd-unsat")
    assert rc == 5 and err == "repkit: refutation_level requires an unsatisfiable clause-set\n"
    assert closures == [2]           # r_2, then one DPLL run finds a model: no climb to r_13


def test_cli_calls_in_one_process_are_independent(tmp_path, capsys):
    path = tmp_path / "g.cnf"
    path.write_text(rk.instance_dimacs(bench.InstanceSpec(2, 3, 1)))
    calls = [("tree", "--k", "2", "--h", "2", "--emit", "dot"),
             ("tree", "--k", "2", "--h", "2"),
             ("analyze", str(path), "--measure", "hd-unsat"),
             ("verify", "--k", "2", "--h", "3", "--variant", "2"),
             ("stats", "--k", "2", "--h", "5", "--json")]
    alone = []
    for args in calls:
        cli._parser.cache_clear()
        alone.append(run_cli(capsys, *args))
    assert [rc for rc, _ in alone] == [0] * len(calls)
    assert cli._parser() is cli._parser()
    for args, want in list(zip(calls, alone)) * 2:
        assert run_cli(capsys, *args) == want, args


@pytest.mark.parametrize("args", [
    ("stats", "--k", "2"),
    ("translate", "--mode", "xor"),
    ("analyze", "f.cnf", "--measure", "nope"),
    ("verify", "--k", "2", "--h", "3"),
    ("trigger",),
    ("trigger", "f.cnf", "--tree", "2", "3"),
    ("trigger", "f.cnf", "--width", "1"),
])
def test_cli_argument_errors_exit_2_after_a_successful_call(capsys, args):
    assert run_cli(capsys, "stats", "--k", "2", "--h", "5")[0] == 0
    with pytest.raises(SystemExit) as e:
        cli.main(list(args))
    assert e.value.code == 2 and capsys.readouterr().err.startswith("usage: repkit")
    assert run_cli(capsys, "stats", "--k", "2", "--h", "5")[0] == 0


def test_cli_errors_are_one_line_with_distinct_codes(tmp_path, capsys):
    bad = tmp_path / "bad.cnf"
    bad.write_text("p cnf 2 1\n1 x 0\n")
    rc, err = run_cli_err(capsys, "analyze", str(bad))
    assert rc == 3 and err == "repkit: line 2: bad token in '1 x 0'\n"

    many = tmp_path / "many.cnf"
    many.write_text("p cnf 17 17\n" + "".join(f"{v} 0\n" for v in range(1, 18)))
    rc, err = run_cli_err(capsys, "mps", str(many), "--direct")
    assert rc == 4 and err.startswith("repkit: direct mps enumeration over 17 clauses")
    rc, err = run_cli_err(capsys, "generate", "--k", "2", "--h", "20000", "--variant", "1")
    assert rc == 4 and err.startswith("repkit: G1_k2_h20000 has ") and err.count("\n") == 1
    rc, err = run_cli_err(capsys, "tree", "--k", "2", "--h", "20000")
    assert rc == 4 and err == ("repkit: the extremal tree k=2 h=20000 has 2667066680000 literals,"
                               " above the limit of 50000000\n")

    wide = tmp_path / "wide.cnf"  # p_hardness has no variable cap
    wide.write_text("p cnf 15 1\n" + " ".join(map(str, range(1, 16))) + " 0\n")
    rc, out = run_cli(capsys, "analyze", str(wide), "--measure", "phd")
    assert rc == 0 and json.loads(out)["value"] == 1 and "exact" not in json.loads(out)

    sat = tmp_path / "sat.cnf"
    sat.write_text("p cnf 2 1\n1 2 0\n")
    rc, err = run_cli_err(capsys, "analyze", str(sat), "--measure", "hd-unsat")
    assert rc == 5 and err == "repkit: refutation_level requires an unsatisfiable clause-set\n"
    for lits in ["0", "1 1 2", "1 2 -1"]:
        rc, err = run_cli_err(capsys, "translate", "--mode", "xor", "--xor", lits)
        assert rc == 5 and err.startswith("repkit: bad XOR literal ") and err.count("\n") == 1

    missing = tmp_path / "missing.cnf"
    rc, err = run_cli_err(capsys, "analyze", str(missing))
    assert rc == 6 and err.startswith("repkit: ") and str(missing) in err
    assert err.count("\n") == 1

    rc, err = run_cli_err(capsys, "tree", "--k", "2", "--h", "3",
                          "-o", str(tmp_path / "no-such-dir" / "t.cnf"))
    assert rc == 6 and err.startswith("repkit: ") and err.count("\n") == 1
