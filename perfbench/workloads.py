"""The benchmark's workloads: seeded inputs, operations and their checks.

An operation is one rung of a workload.  Its ``run(ctx)`` makes the calls
into repkit through ``ctx.call`` (only those calls are timed) and returns its
outputs; ``check(outputs, want)`` returns a list of problems found by
comparing them with the computations in ``oracles``.  ``want`` is what the
operation's ``prepare()`` returned: the costly oracle work, done once per run
by ``Workload.prepare`` after set-up and outside every timed region.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from math import comb

import oracles as orc
from repkit import bench, cli, core, mps, reductions, translate, trees, trigger

#: Fixed generator seed of the analyze-corpus inputs.  The command-line seed
#: orders the operations and picks the oracle sample; the corpus itself stays
#: put, so the traced call counts repeat exactly from seed to seed.
CORPUS_SEED = 1302_4421


class Op:
    def __init__(self, label, run, check, digest=repr, prepare=lambda: None):
        self.label, self.run, self.check, self.digest = label, run, check, digest
        self.prepare, self.want = prepare, None


class Workload:
    def __init__(self, name, ops, timeout_s):
        self.name, self.ops, self.timeout_s = name, ops, timeout_s

    def prepare(self):
        for op in self.ops:
            op.want = op.prepare()


def _mismatch(what, got, want):
    return [] if got == want else [f"{what}: got {got!r}, want {want!r}"]


# ---------------------------------------------------------------------------
# family-hardness: `repkit verify --level hardness` over a G1/G2/G3 ladder
# ---------------------------------------------------------------------------

#: The h = 9 rungs (5-6 s each, G2_k2_h9 and G3_k2_h9) are left out; see README.
FAMILY_RUNGS = [(k, h, v) for v in (1, 2, 3) for k, h in ((2, 5), (2, 6), (2, 7), (3, 5))]


def _verify_op(k, h, v):
    name = f"G{v}_k{k}_h{h}"
    argv = ["verify", "--k", str(k), "--h", str(h), "--variant", str(v),
            "--level", "hardness"]

    def run(ctx):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = ctx.call("cli.main", cli.main, argv)
        return rc, buf.getvalue()

    def check(out, want):
        (n, c, l), hd = want
        rc, text = out
        try:
            rep = json.loads(text)
        except ValueError:
            return [f"output is not JSON: {text[:80]!r}"]
        return (_mismatch("exit code", rc, 0)
                + _mismatch("instance", rep.get("instance"), name)
                + _mismatch("n", rep.get("n", [None])[0], n)
                + _mismatch("c", rep.get("c", [None])[0], c)
                + _mismatch("l", rep.get("l", [None])[0], l)
                + _mismatch("unsatisfiable", rep.get("unsatisfiable"), True)
                + _mismatch("hardness", rep.get("hardness", [None])[0], hd))

    return Op(name, run, check,
              prepare=lambda: (orc.family_counts(k, h, v), orc.family_hardness(k, v)))


def family_hardness(seed):
    rungs = list(FAMILY_RUNGS)
    random.Random(seed).shuffle(rungs)
    return Workload("family-hardness", [_verify_op(*r) for r in rungs], timeout_s=60)


# ---------------------------------------------------------------------------
# analyze-corpus: the analyze measures on many small inputs
# ---------------------------------------------------------------------------

def _random_cnf(rng):
    n = rng.randint(2, 8)
    m = rng.randint(n // 2 + 1, 2 * n)
    out = set()
    while len(out) < m:
        w = min(n, rng.choice((1, 2, 2, 2, 3, 3, 3)))
        out.add(frozenset(v if rng.random() < 0.5 else -v
                          for v in rng.sample(range(1, n + 1), w)))
    return frozenset(out)


def _measures_op(i, f, sampled):
    def run(ctx):
        return (ctx.call("reductions.hardness", reductions.hardness, f),
                ctx.call("reductions.w_hardness", reductions.w_hardness, f),
                ctx.call("reductions.p_hardness", reductions.p_hardness, f))

    def check(out, want):
        hd, whd, phd = (r.value for r in out)
        problems = []
        if not whd <= hd <= phd <= hd + 1:
            problems.append(f"whd <= hd <= phd <= hd+1 fails: {whd}, {hd}, {phd}")
        witness = out[0].witness_assignment()
        if witness is None:
            problems.append("hardness has no witness")
        else:
            g = orc.image(f, witness)
            if orc.is_satisfiable(g):
                problems.append("hardness witness leaves a satisfiable instance")
            else:
                problems += _mismatch("refutation level at the witness",
                                      orc.refutation_level(g), hd)
        if want is not None:
            problems += _mismatch("(hd, phd) against all partial assignments",
                                  (hd, phd), want)
        return problems

    return Op(f"measures/f{i}", run, check, digest=lambda out: [repr(r) for r in out],
              prepare=lambda: orc.hd_phd(f) if sampled else None)


def _program_tree_clauses(t):
    """smuo of a repkit Tree, walked from its attributes."""
    out = []

    def walk(s, path):
        if s.is_leaf:
            out.append(frozenset(path))
            return
        walk(s.left, path + [s.var])
        walk(s.right, path + [-s.var])

    walk(t, [])
    return frozenset(out)


def _tree_op(i, shape):
    f = frozenset(orc.path_clauses(shape, orc.bfs_labels(shape)))

    def run(ctx):
        return (ctx.call("reductions.hardness", reductions.hardness, f).value,
                ctx.call("trees.tsmuo", trees.tsmuo, f))

    def check(out, hs):
        return (_mismatch("hd = Horton-Strahler number", out[0], hs)
                + _mismatch("smuo(tsmuo(F))", _program_tree_clauses(out[1]), f))

    return Op(f"tree/t{i}", run, check, digest=lambda out: (out[0], repr(out[1])),
              prepare=lambda: orc.horton_strahler(shape))


def _doped_clauses(shape):
    return orc.doped_clauses(shape, orc.bfs_labels(shape))


def _implicates(shape):
    """Leaf mask -> prime implicate, from the closed form."""
    return orc.doped_tree_prime_implicates(shape, orc.bfs_labels(shape))


def _prime_op(i, shape):
    doped = _doped_clauses(shape)
    f = frozenset(doped)

    def run(ctx):
        p = ctx.call("reductions.prime_implicates", reductions.prime_implicates, f)
        ctx.count("reductions.prime_implicates.clauses", len(p))
        return p

    def check(p, want):
        return (_mismatch("number of prime implicates", len(p), 2 ** len(doped) - 1)
                + ([] if p == want else ["prime implicates differ from the leaf-mask closed form"]))

    return Op(f"prime/l{len(doped)}t{i}", run, check, digest=lambda p: sorted(map(sorted, p)),
              prepare=lambda: frozenset(_implicates(shape).values()))


def _mps_op(i, shape):
    doped = _doped_clauses(shape)
    f, index = frozenset(doped), {c: j for j, c in enumerate(doped)}

    def run(ctx):
        return ctx.call("mps.mps_subsets", mps.mps_subsets, f)

    def check(ws, implicates):
        problems = _mismatch("number of minimal premise subsets", len(ws), 2 ** len(doped) - 1)
        masks = set()
        for w in ws:
            if not w.subset or not w.subset <= f:
                problems.append(f"subset not a non-empty part of F: {sorted(map(sorted, w.subset))}")
                continue
            mask = sum(1 << index[c] for c in w.subset)
            masks.add(mask)
            if w.conclusion != implicates[mask]:
                problems.append(f"conclusion of leaf set {mask:b} is not C_V")
        return problems + _mismatch("distinct leaf sets", len(masks), len(ws))

    return Op(f"mps/l{len(doped)}t{i}", run, check,
              digest=lambda ws: sorted((sorted(map(sorted, w.subset)), sorted(w.conclusion))
                                       for w in ws),
              prepare=lambda: _implicates(shape))


def _xor_op(n, known):
    def run(ctx):
        f = ctx.call("translate.two_xor_system", translate.two_xor_system, n)
        return f, ctx.call("reductions.w_refutation_level", reductions.w_refutation_level, f)

    def check(out, want):
        f, whd = out
        if f not in known:  # the oracles run on the first round's formula only
            known[f] = (len(orc.variables_of(f)), orc.is_satisfiable(f),
                        orc.refutation_level(f),
                        orc.w_refutation_level(f) if n <= 3 else None)
        nvars, sat, hd, exact = known[f]
        problems = (_mismatch("variables", nvars, 3 * n - 4)
                    + _mismatch("satisfiable", sat, False))
        if not 1 <= whd <= hd:
            problems.append(f"1 <= whd <= hd fails: whd {whd}, hd {hd}")
        if exact is not None:
            problems += _mismatch("whd against k-resolution saturation", whd, exact)
        return problems

    return Op(f"xor/n{n}", run, check, digest=lambda out: (sorted(map(sorted, out[0])), out[1]))


def _trigger_op(i, shape, k):
    p = frozenset(_implicates(shape).values())

    def run(ctx):
        h = ctx.call("trigger.trigger_hypergraph", trigger.trigger_hypergraph, p, k)
        return (h, ctx.call("trigger.transversal_number", trigger.transversal_number, h),
                ctx.call("trigger.matching_number", trigger.matching_number, h))

    def check(out, edges):
        distinct = set(edges.values())
        h, (tau, hitting), (nu, matching) = out
        problems = ([] if h.edges == edges else ["hyperedges differ from their definition"])
        problems += _mismatch("transversal size", len(hitting), tau)
        if any(not (e & hitting) for e in distinct):
            problems.append("transversal misses an edge")
        problems += _mismatch("matching size", len(matching), nu)
        if any(e not in distinct for e in matching):
            problems.append("matching uses a non-edge")
        seen = set()
        for e in matching:
            if e & seen:
                problems.append("matching edges intersect")
            seen |= e
        if tau < nu:
            problems.append(f"tau {tau} < nu {nu}")
        return problems

    return Op(f"trigger/l{orc.leaf_count(shape)}t{i}k{k}", run, check,
              digest=lambda out: (out[1][0], out[2][0]), prepare=lambda: orc.hyperedges(p, k))


def _certificate_op(k_tree, h, known):
    def prepare():
        shape = orc.extremal_shape(k_tree, h)
        masks = orc.node_masks(shape, orc.bfs_labels(shape))
        # leaves in all, and in each of the two depth-1 subtrees
        return masks, orc.leaf_count(shape), [orc.leaf_count(s) for s in shape]

    def run(ctx):
        t = ctx.call("trees.extremal_tree", trees.extremal_tree, k_tree, h)
        return ctx.call("trigger.depth_k_incomparable_family",
                        trigger.depth_k_incomparable_family, t, 1)

    def check(cert, want):
        masks, a, blocks = want
        problems = _mismatch("certificate size", cert.size, comb(h, h // 2))
        lo, hi = (1, blocks[0]), (blocks[0] + 1, a)
        for side in (lo, hi):
            parts = [frozenset(x for x in v if side[0] <= x <= side[1]) for v in cert.leaf_sets]
            if len(set(parts)) != len(parts) or len({len(s) for s in parts}) != 1:
                problems.append(f"leaf sets not incomparable on leaves {side}")
        leaf_masks = [sum(1 << (x - 1) for x in v) for v in cert.leaf_sets]
        wants = {mv: orc.leaf_set_implicate(masks, a, mv) for mv in leaf_masks}
        missing = [mv for mv in leaf_masks if mv not in known]
        if missing:
            # One pass over all 2^a - 1 implicates, keeping none of them, so
            # that the check adds nothing to the run's peak memory.
            found = {mv: [] for mv in missing}
            for m in range(1, 1 << a):
                cm = orc.leaf_set_implicate(masks, a, m)
                for mv in missing:
                    if orc.in_hyperedge(cm, wants[mv], 1):
                        found[mv].append(m)
            known.update((mv, tuple(ms)) for mv, ms in found.items())
        seen = set()
        for v, mv, c, members in zip(cert.leaf_sets, leaf_masks, cert.clauses, cert.members):
            problems += _mismatch(f"clause of {sorted(v)}", c, wants[mv])
            problems += _mismatch(f"edge members of {sorted(v)}", members, known[mv])
            if seen & set(members):
                problems.append("certificate edges intersect")
            seen |= set(members)
        return problems

    return Op(f"certificate/k{k_tree}h{h}", run, check, prepare=prepare,
              digest=lambda cert: (cert.size, cert.leaf_sets, cert.members))


def analyze_corpus(seed):
    gen = random.Random(CORPUS_SEED)
    formulas = [_random_cnf(gen) for _ in range(160)]
    tree_shapes = [orc.random_shape(gen, 4 + i % 6) for i in range(12)]
    prime_shapes = [orc.random_shape(gen, n) for n in (7, 7, 8, 8, 9)]
    mps_shapes = [orc.random_shape(gen, n) for n in (7, 8)]
    trigger_shapes = [orc.random_shape(gen, n) for n in (5, 5, 6, 6)]

    pick = random.Random(seed)
    sample = set(pick.sample(range(len(formulas)), 12))
    xor_known: dict = {}
    cert_known: dict = {}
    ops = ([_measures_op(i, f, i in sample) for i, f in enumerate(formulas)]
           + [_tree_op(i, s) for i, s in enumerate(tree_shapes)]
           + [_prime_op(i, s) for i, s in enumerate(prime_shapes)]
           + [_mps_op(i, s) for i, s in enumerate(mps_shapes)]
           + [_xor_op(n, xor_known) for n in (3, 4)]
           + [_trigger_op(i, s, k) for i, s in enumerate(trigger_shapes) for k in (1, 2)]
           + [_certificate_op(2, 5, cert_known)])
    pick.shuffle(ops)
    return Workload("analyze-corpus", ops, timeout_s=30)


# ---------------------------------------------------------------------------
# dimacs-io: generate, emit and parse paper-table rows
# ---------------------------------------------------------------------------

DIMACS_ROWS = [(2, 52, 3), (3, 23, 2), (3, 23, 1)]
#: Clauses per line of the re-wrapped text.
WRAP = 2000


def _dimacs_op(k, h, v, rng):
    spec = bench.InstanceSpec(k, h, v)

    def prepare():
        n, c, l = orc.family_counts(k, h, v)
        perm = list(range(c))
        rng.shuffle(perm)
        return n, c, l, perm

    def rewrap(text, perm):
        lines = text.splitlines()
        head = [s for s in lines if s.startswith(("c", "p"))]
        body = [s for s in lines if not s.startswith(("c", "p"))]
        body = [body[i] for i in perm]
        wrapped = [" ".join(body[i:i + WRAP]) for i in range(0, len(body), WRAP)]
        return "\n".join(head + wrapped) + "\n"

    def run(ctx):
        generated, nvars = ctx.call("bench.generate", bench.generate, spec)
        text = ctx.call("bench.instance_dimacs", bench.instance_dimacs, spec)
        parsed = ctx.call("core.parse_dimacs", core.parse_dimacs, text)
        wrapped = rewrap(text, op.want[3])
        reparsed = ctx.call("core.parse_dimacs", core.parse_dimacs, wrapped)
        ctx.count("core.dimacs.bytes", len(text.encode()) + len(wrapped.encode()))
        return generated, nvars, text, parsed, reparsed

    def check(out, want):
        n, c, l, perm = want
        generated, nvars, text, (parsed, fmt), (reparsed, fmt2) = out
        problems = (_mismatch("n", nvars, n)
                    + _mismatch("c", len(generated), c)
                    + _mismatch("l", sum(map(len, generated)), l)
                    + _mismatch("distinct clauses", len(set(generated)), c)
                    + _mismatch("largest variable", max(abs(x) for cl in generated for x in cl), n)
                    + _mismatch("problem line", f"p cnf {n} {c}" in text.splitlines(), True)
                    + _mismatch("formats", (fmt, fmt2), ("cnf", "cnf")))
        if parsed != generated:
            problems.append("parsed clauses differ from the generated ones")
        if reparsed != [generated[i] for i in perm]:
            problems.append("re-wrapped parse differs from the permuted clauses")
        return problems

    op = Op(spec.name, run, check, prepare=prepare,
            digest=lambda out: (out[1], len(out[0]), len(out[2]), hash(out[2])))
    return op


def dimacs_io(seed):
    # The rows keep their order: peak memory depends on it.  Workload.prepare
    # shuffles each row's clause order from rng, in that same order.
    rng = random.Random(seed)
    return Workload("dimacs-io", [_dimacs_op(*r, rng) for r in DIMACS_ROWS], timeout_s=60)


WORKLOADS = {"family-hardness": family_hardness, "analyze-corpus": analyze_corpus,
             "dimacs-io": dimacs_io}
