import random

import pytest
from hypothesis import example, given, settings, strategies as st

import repkit as rk
from repkit import core
from helpers import outcome, ref_emit_dimacs, ref_parse_dimacs


def test_clause_validation():
    assert rk.clause(1, -2) == frozenset({1, -2})
    with pytest.raises(ValueError):
        rk.clause(1, -1)
    with pytest.raises(ValueError):
        rk.clause(0)


def test_counts_and_variables():
    f = rk.clause_set([[1, 2], [-1, 3], [2]])
    assert rk.variables(f) == {1, 2, 3}
    assert rk.counts(f) == (3, 3, 5)


def test_apply_assignment():
    f = rk.clause_set([[1, 2], [-1, 3], [-2, -3]])
    assert rk.apply_assignment({1: 1}, f) == rk.clause_set([[3], [-2, -3]])
    assert rk.apply_assignment({1: 0}, f) == rk.clause_set([[2], [-2, -3]])
    # applying everything satisfying gives top
    assert rk.apply_assignment({1: 1, 2: 0, 3: 1}, f) == rk.TOP
    # falsifying yields the empty clause
    assert rk.BOT in rk.apply_assignment({1: 0, 2: 0}, f)


def test_apply_clauses_keeps_duplicates():
    cs = [rk.clause(1, 2), rk.clause(1, 3)]
    imgs = rk.apply_clauses({2: 0, 3: 0}, cs)
    assert imgs == [frozenset({1}), frozenset({1})]


def test_falsifying_assignment():
    c = rk.clause(1, -2, 3)
    phi = rk.falsifying_assignment(c)
    assert phi == {1: 0, 2: 1, 3: 0}
    assert rk.apply_assignment(phi, frozenset({c})) == rk.BOT_SET


def test_is_satisfiable():
    assert rk.is_satisfiable(rk.TOP)
    assert not rk.is_satisfiable(rk.BOT_SET)
    assert rk.is_satisfiable(rk.clause_set([[1, 2], [-1, 2], [1, -2]]))
    assert not rk.is_satisfiable(
        rk.clause_set([[1, 2], [-1, 2], [1, -2], [-1, -2]]))


def test_solve_returns_model():
    f = rk.clause_set([[1, 2], [-1, 3], [-2, -3]])
    phi = rk.solve(f)
    assert phi is not None and rk.apply_assignment(phi, f) == rk.TOP


def test_solve_deep_search_does_not_recurse():
    # every decision opens a new level: 1000 of them on a satisfiable 2-CNF
    f = rk.clause_set([[2 * i - 1, 2 * i] for i in range(1, 1001)])
    phi = rk.solve(f)
    assert phi is not None and rk.apply_assignment(phi, f) == rk.TOP


def test_dpll_budget_names_the_budget_limit_and_progress(monkeypatch):
    f = rk.clause_set([[1, 2], [-1, 2], [1, -2], [-1, -2]])
    for m in (1, 2):
        monkeypatch.setattr(core, "_MAX_DPLL_NODES", m)
        with pytest.raises(rk.SizeLimitExceeded, match="^DPLL node budget exhausted$") as info:
            rk.solve(f)
        assert (info.value.budget, info.value.limit, info.value.progress) == ("DPLL node", m, m + 1)
    monkeypatch.setattr(core, "_MAX_DPLL_NODES", 3)
    assert rk.solve(f) is None


def test_size_limit_exceeded_requires_budget_limit_and_progress():
    fields = {"budget": "variables", "limit": 2, "progress": 3}
    e = rk.SizeLimitExceeded("too large", **fields)
    assert (str(e), e.budget, e.limit, e.progress) == ("too large", "variables", 2, 3)
    for name in fields:
        with pytest.raises(TypeError):
            rk.SizeLimitExceeded("too large", **{k: v for k, v in fields.items() if k != name})


def test_models_and_canonical_dnf():
    f = rk.clause_set([[1, 2]])
    dnf = rk.canonical_dnf(f)
    assert dnf == rk.clause_set([[1, 2], [1, -2], [-1, 2]])
    assert rk.count_models(f) == 3


def test_entails_equivalent():
    f = rk.clause_set([[1], [-1, 2]])
    assert rk.entails(f, [2])
    assert not rk.entails(f, [-2])
    assert rk.equivalent(f, rk.clause_set([[1], [2]]))
    # every clause-set entails a tautology, in either literal order
    for g in (rk.clause_set([[1, 2]]), rk.TOP):
        assert rk.entails(g, [1, -1]) and rk.entails(g, [-1, 1])


def test_dimacs_roundtrip_basic():
    text = "c a comment\np cnf 3 2\n1 -2 0\n2 3 0\n"
    clauses, fmt = rk.parse_dimacs(text)
    assert fmt == "cnf"
    assert clauses == [rk.clause(1, -2), rk.clause(2, 3)]
    again, _ = rk.parse_dimacs(rk.emit_dimacs(clauses))
    assert again == clauses


def test_dimacs_long_line_roundtrip():
    rng = random.Random(5)
    clauses = [rk.clause(*(v if rng.random() < .5 else -v
                           for v in rng.sample(range(1, 301), rng.randint(1, 4))))
               for _ in range(20_000)]
    text = "p cnf 300 20000\n" + " ".join(
        " ".join(map(str, sorted(c))) + " 0" for c in clauses) + "\n"
    parsed, fmt = rk.parse_dimacs(text)
    assert fmt == "cnf" and parsed == clauses
    assert rk.parse_dimacs(rk.emit_dimacs(parsed, num_vars=300))[0] == clauses


def test_dimacs_clauses_across_lines():
    text = "p cnf 3 3\n1 -2\n3 0 2 0 -1\n\n-3 0\n"
    assert rk.parse_dimacs(text)[0] == [rk.clause(1, -2, 3), rk.clause(2),
                                        rk.clause(-1, -3)]
    with pytest.raises(rk.DimacsError, match="^line 3: complementary pair"):
        rk.parse_dimacs("p cnf 2 1\n1 2\n-1 0\n")


@pytest.mark.parametrize("bad", [
    "1 2 0\n",                       # clause before header
    "p cnf 1 1\n1 1 -1 0\n",         # tautological clause
    "p cnf 1 2\n1 0\n",              # clause count mismatch
    "p cnf 1 1\n2 0\n",              # variable beyond header
    "p xnf 1 0\n",                   # unknown format
    "p cnf 1 1\n1\n",                # missing terminating 0
])
def test_dimacs_errors(bad):
    with pytest.raises(rk.DimacsError):
        rk.parse_dimacs(bad)


@pytest.mark.parametrize("bad, message", [
    ("p cnf 2 1\n1 x 0\n", "line 2: bad token in '1 x 0'"),
    ("p cnf 2 1\n\t1  2.0 0 \n", "line 2: bad token in '1  2.0 0'"),
    ("p cnf 1 1\n1 0\np cnf 1 1\n", "line 3: duplicate problem line"),
    ("c x\n  p cnf one 1 \n", "line 2: bad counts in 'p cnf one 1'"),
    ("p dnf 1 1.0\n", "line 1: bad counts in 'p dnf 1 1.0'"),
    ("", "missing problem line"),
    ("c only a comment\n\n", "missing problem line"),
    ("p cnf 2 1\n1 0\n2\n", "trailing literals without closing 0"),
    ("p cnf 2 1\n1 0 -2", "trailing literals without closing 0"),
    ("c x\n1 2 0\n", "line 2: clause before problem line"),
    ("p xnf 1 0\n", "line 1: bad problem line 'p xnf 1 0'"),
    ("p cnf 1\n", "line 1: bad problem line 'p cnf 1'"),
    ("p cnf 1 1\n1\t0\n\tp cnf 1 1\n", "line 3: duplicate problem line"),  # loop-only body
])
def test_dimacs_error_messages(bad, message):
    with pytest.raises(rk.DimacsError) as info:
        rk.parse_dimacs(bad)
    assert str(info.value) == message


@st.composite
def dimacs_texts(draw):
    """DIMACS text laid out in random lines or mostly one clause per line,
    valid or with one corruption: a dropped 0, a complementary literal, a
    bad (or unusual but int()-valid) token, a second problem line, or a
    comment line inside the body."""
    nv = draw(st.integers(1, 12))
    cls = draw(st.lists(st.sets(st.integers(1, nv), max_size=4).flatmap(
        lambda vs: st.tuples(*(st.sampled_from([v, -v]) for v in sorted(vs)))), max_size=8))
    tokens = [str(x) for c in cls for x in (*c, 0)]
    header = (f"p {draw(st.sampled_from(['cnf', 'dnf']))} "
              f"{nv + draw(st.integers(-1, 1))} {len(cls) + draw(st.integers(-1, 0))}")
    lines = [header]
    corruption = draw(st.sampled_from(["none", "drop 0", "complement", "token",
                                       "second p", "comment"]))
    if tokens and corruption == "drop 0":
        del tokens[draw(st.sampled_from([i for i, t in enumerate(tokens) if t == "0"]))]
    elif corruption == "complement" and any(cls):
        x = draw(st.sampled_from([x for c in cls for x in c]))
        tokens.insert(tokens.index(str(x)), str(-x))
    elif corruption == "token":
        bad = draw(st.sampled_from(["x", "1.5", "--1", "+3", "-0", "1_0", "0x1", "\u0663"]))
        tokens.insert(draw(st.integers(0, len(tokens))), bad)
    if draw(st.booleans()):
        cuts = sorted(draw(st.sets(st.integers(0, len(tokens)))))
    else:  # mostly one clause per line, some joined or wrapped
        ends = {i + 1 for i, t in enumerate(tokens) if t == "0"}
        joined = draw(st.sets(st.sampled_from(sorted(ends)))) if ends else set()
        cuts = sorted(ends - joined | draw(st.sets(st.integers(0, len(tokens)), max_size=2)))
    sep = draw(st.sampled_from([" ", "  ", "\t"]))
    lines += [sep.join(tokens[i:j]) for i, j in zip([0] + cuts, cuts + [len(tokens)])]
    if corruption in ("second p", "comment"):
        extra = header if corruption == "second p" else \
            draw(st.sampled_from(["c ", "c", "cnf "])) + sep.join(tokens[:3])
        lines.insert(draw(st.integers(1, len(lines))), extra)
    return draw(st.sampled_from(["\n", "\r\n"])).join(lines) + "\n"


@given(dimacs_texts())
@example("p cnf 3 3\n1 -2 0\n2 3 0 -1\n-3 0\n")
@example("p cnf 3 3\n1 -2 0\n0\n2 -3 0 3\n")
@example("p cnf 2 2\n1 2 0\n2 -2 1 0\n")
@example("p cnf 2 2\n1 0 2\n-2 1 0\n")
@example("p cnf 2 2\n1 -2 0 2 0\n-1 1 0\n")
@example("p cnf 2 1\n1 -1 0\n")
@example("p cnf 3 2\n1\t-2\t0\n3\t0\n")           # tab-separated
@example("p cnf 3 2\n1 -0 2 0\n3 0\n")             # "-0" ends a clause
@example("p cnf 3 2\n1 00 2 0\n3 0\n")             # so does "00"
@example("p cnf 2 2\n1 0\nc a comment\n2 0\n")     # comment after the problem line
@example("p cnf 2 3\n1 0\n0\n2 0\n")                # a lone 0: the empty clause
@example("p cnf 1 2\n1 0\n0\n")                    # the same, last
@example("p cnf 2 2\r\n1 -2 0\r\n2 0\r\n")          # CRLF line ends
@example("p cnf 2 3\n1 0\n2 0\n")                  # one clause too many in the header
@example("p cnf 2 1\n1 0\n2 0\n")                  # one too few
@example("p cnf 1 2\n1 0\n2 0\n")                  # a variable above the header's
@example("p cnf 2 2\n1 -2 0 \n 0\n\n")             # trailing blanks, a lone " 0"
@settings(max_examples=300, deadline=None)
def test_parse_dimacs_matches_frozen_parser(text):
    """The same clause list, or the same DimacsError message, as the parser
    that ran a Python frame per token and per literal."""
    assert outcome(rk.parse_dimacs, text) == outcome(ref_parse_dimacs, text)


def test_written_bodies_are_read_in_one_pass():
    """A body as `emit_dimacs` writes it, also re-wrapped to many clauses a
    line, is read by `_parse_body`, not by the line loop."""
    spec = rk.InstanceSpec(2, 5, 2)
    clauses, n = rk.generate(spec)
    body = [s for s in rk.instance_dimacs(spec).splitlines() if s[0] not in "cp"]
    wrapped = [" ".join(body[i:i + 7]) for i in range(0, len(body), 7)]
    assert core._parse_body(body, core._Ints()) == clauses
    assert core._parse_body(wrapped, core._Ints()) == clauses


@pytest.mark.parametrize("body", [
    ["1\t-2\t0", "3\t0"], ["1\t0 2 0", "3 0"], ["1 -0 2 0", "3 0"], ["1 00 2 0", "3 0"],
    ["1 0", "c x", "2 0"], ["1 0", "0", "2 0"], ["1 0", "0"],
    ["1 -1 0", "2 0"], ["1 x 0", "2 0"], ["1 0", "2"], ["1 0", "2 0", ""], ["1 -2 0 ", "2 0"],
])
def test_other_bodies_are_left_to_the_line_loop(body):
    """Tabs, zero tokens other than "0", a comment, the empty clause, a
    complementary pair, a bad token, a trailing literal, line or space."""
    assert core._parse_body(body, core._Ints()) is None


@st.composite
def clause_lists(draw):
    n = draw(st.integers(1, 5))
    cls = draw(st.lists(
        st.sets(st.integers(1, n), min_size=1, max_size=n).flatmap(
            lambda vs: st.tuples(*(st.sampled_from([v, -v]) for v in sorted(vs)))),
        min_size=0, max_size=6))
    return [frozenset(c) for c in cls]


@given(clause_lists())
@settings(max_examples=100, deadline=None)
def test_dimacs_roundtrip_random(cls):
    text = rk.emit_dimacs(cls)
    parsed, _ = rk.parse_dimacs(text)
    assert parsed == list(cls)


@given(clause_lists(), st.dictionaries(st.integers(1, 5), st.integers(0, 1)),
       st.dictionaries(st.integers(1, 5), st.integers(0, 1)))
@settings(max_examples=100, deadline=None)
def test_apply_composes(cls, phi, psi):
    """Instantiating in two steps equals instantiating once, when the second
    assignment does not overwrite the first."""
    f = frozenset(cls)
    psi = {v: b for v, b in psi.items() if v not in phi}
    assert rk.apply_assignment(psi, rk.apply_assignment(phi, f)) == \
        rk.apply_assignment({**phi, **psi}, f)


@st.composite
def dimacs_clause_sets(draw):
    """Clause-sets over sparse, multi-digit variables, the empty clause included."""
    vs = draw(st.lists(st.integers(1, 10 ** 4), min_size=1, max_size=8, unique=True))
    cls = draw(st.sets(
        st.sets(st.sampled_from(vs), max_size=len(vs)).flatmap(
            lambda c: st.tuples(*(st.sampled_from([v, -v]) for v in sorted(c)))),
        max_size=10))
    return frozenset(frozenset(c) for c in cls)


@given(dimacs_clause_sets(), st.lists(st.text("abc xyz", max_size=8), max_size=2))
@settings(max_examples=100, deadline=None)
def test_dimacs_roundtrip_clause_sets(cs, comments):
    text = rk.emit_dimacs(cs, comments=comments)
    parsed, fmt = rk.parse_dimacs(text)
    assert fmt == "cnf"
    assert parsed == sorted(cs, key=rk.reductions.clause_key)
    assert rk.parse_dimacs(rk.emit_dimacs(cs, num_vars=10 ** 4))[0] == parsed


@given(st.one_of(clause_lists(), dimacs_clause_sets()),
       st.lists(st.text("abc xyz", max_size=8), max_size=2),
       st.sampled_from(["cnf", "dnf"]), st.none() | st.integers(0, 10 ** 4))
@settings(max_examples=200, deadline=None)
def test_emit_dimacs_matches_frozen_emitter(clauses, comments, fmt, num_vars):
    assert rk.emit_dimacs(clauses, fmt, comments, num_vars) == \
        ref_emit_dimacs(clauses, fmt, comments, num_vars)


_NOT_LEAVES = ("ValueError", "leaf_set must be a non-empty subset of the leaf numbers")


@pytest.mark.parametrize("call, want", [
    (lambda: rk.reduce_r(rk.clause_set([[1]]), -1), ("ValueError", "k must be >= 0")),
    (lambda: rk.two_xor_system(2), ("ValueError", "needs n >= 3")),
    (lambda: rk.clause_for_leaves(rk.extremal_tree(1, 2), set()), _NOT_LEAVES),
    (lambda: rk.clause_for_leaves(rk.extremal_tree(1, 2), {2, 4}), _NOT_LEAVES),  # 3 leaves
    (lambda: rk.sat_lit({1: 1}, -2), None),
], ids=["reduce_r-negative-k", "two_xor_system-2", "no-leaves", "leaf-past-the-last", "sat_lit-unassigned"])
def test_argument_edges_of_the_public_calls(call, want):
    assert outcome(call) == want
