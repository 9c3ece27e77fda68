"""Benchmark family built from doped extremal trees.

For k >= 2 and h >= k+1 let F be dope(smuo(T)) for the breadth-first
labelled extremal tree T of Horton-Strahler k and height h, and F' the same
with all doping literals flipped.  The three variants are

  1: F' together with F                  (hardness k+1, deficiency 1),
  2: F' plus cant  of the negation of F' (hardness 2),
  3: F' plus cantm of the negation of F' (hardness 2).

Variable blocks: tree labels 1..a-1 breadth-first (a = leaf count), doping
variables a..2a-1 by leaf number, translation selectors 2a..3a-1 in clause
order: `generate` makes F_i = P_i + {a+i} and F'_i = P_i + {-(a+i)} from
the leaf paths P_i of T.  Generation is bit-deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from math import comb
from operator import neg

from . import __version__
from .core import Clause, SizeLimitExceeded, _nogc, emit_dimacs
from .translate import cant, cantm
from .trees import _MAX_LITERALS, _leaf_depth_sum, _leaf_paths, alpha, extremal_tree

#: A tree-resolution refutation as index chains, in the manner of LRAT
#: hints.  Clause i < len(F) is the input clause F[i]; chain j derives
#: clause len(F) + j.  A chain (start, antecedents) begins at clause start
#: and resolves the running clause with each antecedent in turn, on the one
#: literal of the antecedent whose complement the running clause holds.
Proof = list[tuple[int, list[int] | range]]


@dataclass(frozen=True)
class InstanceSpec:
    k: int
    h: int
    variant: int

    def __post_init__(self):
        if self.k < 2:
            raise ValueError("k must be >= 2")
        if self.h < self.k + 1:
            raise ValueError("h must be >= k + 1")
        if self.variant not in (1, 2, 3):
            raise ValueError("variant must be 1, 2 or 3")

    @property
    def name(self) -> str:
        return f"G{self.variant}_k{self.k}_h{self.h}"


@dataclass(frozen=True)
class StatsRecord:
    k: int
    h: int
    variant: int
    n: int
    c: int
    l: int
    alpha: int
    hardness: int
    b_hk: int     # binomial(h-k, floor((h-k)/2))
    b_m: int      # binomial(1+h-k, floor((1+h-k)/2)), m = 1+h-k leaves
    # Neither is a certificate size: depth_k_incomparable_family of
    # extremal_tree(k, h) at width k-1 has binomial(2+h-k, floor((2+h-k)/2))
    # edges, which is b_m at h+1 and b_hk at h+2.


def stats(spec: InstanceSpec) -> StatsRecord:
    """Closed-form instance measures (no tree is built)."""
    a = alpha(spec.k, spec.h)
    lf = _leaf_depth_sum(spec.k, spec.h) + a   # literals of the doped base
    if spec.variant == 1:
        n, c, l, hd = 2 * a - 1, 2 * a, 2 * lf, spec.k + 1
    elif spec.variant == 2:
        n, c, l, hd = 3 * a - 1, 1 + 2 * a + lf, 2 * a + 4 * lf, 2
    else:
        n, c, l, hd = 3 * a - 1, 1 + a + lf, a + 3 * lf, 2
    d = spec.h - spec.k
    return StatsRecord(spec.k, spec.h, spec.variant, n, c, l, a, hd,
                       comb(d, d // 2), comb(d + 1, (d + 1) // 2))


@_nogc
def generate(spec: InstanceSpec) -> tuple[list[Clause], int]:
    """The instance as an ordered clause list, plus its variable count.
    Raises SizeLimitExceeded, before building anything, when the closed
    form counts more than _MAX_LITERALS literals."""
    l = stats(spec).l
    if l > _MAX_LITERALS:
        raise SizeLimitExceeded(f"{spec.name} has {l} literals, above the limit of {_MAX_LITERALS}",
                                budget="literals", limit=_MAX_LITERALS, progress=l)
    paths = list(_leaf_paths(extremal_tree(spec.k, spec.h)))
    a = len(paths)                     # labels 1..a-1, so leaf i is doped with a + i
    # union sizes a clause's table once; frozenset of a tuple grows it 4x at a time
    flipped = [frozenset(p).union((-(a + i),)) for i, p in enumerate(paths)]
    if spec.variant == 1:
        out = flipped + [frozenset(p).union((a + i,)) for i, p in enumerate(paths)]
    else:                              # the negation of F' as a DNF: selectors start at 2a
        translation = cant if spec.variant == 2 else cantm
        dnf = [(*map(neg, p), a + i) for i, p in enumerate(paths)]
        del paths
        out = flipped + list(translation(dnf, first_new_var=2 * a).ordered)
    return out, max(map(abs, set().union(*out)))


def instance_comments(spec: InstanceSpec) -> list[str]:
    rec = stats(spec)
    a = rec.alpha
    out = [
        f"{spec.name}: doped extremal tree family, k={spec.k} h={spec.h} variant={spec.variant}",
        f"generated by repkit {__version__}",
        f"n={rec.n} c={rec.c} l={rec.l} alpha={a} hardness={rec.hardness}",
        f"vars 1..{a - 1}: tree labels (breadth-first)",
        f"vars {a}..{2 * a - 1}: doping variables (by leaf number, flipped negative in F')",
    ]
    if spec.variant != 1:
        out.append(f"vars {2 * a}..{3 * a - 1}: translation selectors (in clause order)")
    return out


def instance_dimacs(spec: InstanceSpec) -> str:
    clauses, n = generate(spec)
    return emit_dimacs(clauses, "cnf", instance_comments(spec), num_vars=n)


def default_grid() -> list[tuple[int, int]]:
    """The (k, h) pairs of the reference statistics table."""
    return ([(2, h) for h in range(22, 73, 10)]
            + [(3, h) for h in range(23, 44, 10)]
            + [(4, h) for h in range(24, 45, 10)]
            + [(5, h) for h in (25, 35)])


def _certificate(spec: InstanceSpec, clauses: list[Clause]) -> tuple[int, Proof]:
    """A refutation of the generated clause list, read off its layout and
    clause lengths, with the Horton-Strahler number it claims.

    G1 (F' then F, leaf order): leaf i's pair (i, [a + i]) derives its path
    clause, of len(F[i]) - 1 literals: the leaf's depth.  A full binary
    tree is fixed by its leaf depths in leaf order, so while the stack's
    top is as long as the new path clause, the two are siblings and (top,
    [new]) derives their parent's; the number is k + 1.

    G2/G3 (F', the translation's binary selector clauses, ..., the long
    selector clause last): F'[i] resolves with its binary clauses
    (-s_i, -l) into {-s_i}, number 1, and the long clause with every
    {-s_i} into bot, number 2."""
    a, m = alpha(spec.k, spec.h), len(clauses)
    if spec.variant != 1:              # leaf i's binary clauses are b[i], ..., b[i + 1] - 1
        b = list(accumulate((len(c) for c in clauses[:a]), initial=a))
        return 2, [(i, range(b[i], b[i + 1])) for i in range(a)] + [(m - 1, range(m, m + a))]
    proof: Proof = []
    stack: list[tuple[int, int]] = []  # (index, length) of the path clauses left of leaf i
    for i in range(a):
        proof.append((i, [a + i]))
        d = len(clauses[i]) - 1
        while stack and stack[-1][1] == d:  # the last derived clause and the top are siblings
            proof.append((stack.pop()[0], [m + len(proof) - 1]))
            d -= 1
        stack.append((m + len(proof) - 1, d))
    return spec.k + 1, proof


def _check_refutation(clauses: list[Clause], proof: Proof, level: int) -> int:
    """The Horton-Strahler number of a checked tree-resolution refutation
    of clauses (an input clause is 0; a resolvent is a + 1 when both its
    parents are a, otherwise the larger of theirs).  Each antecedent c is
    scanned once: the one literal q of c whose complement is in the running
    clause is the clash, the others join it, then -q leaves it.  Raises
    ValueError on an index that names no input clause and no earlier,
    unused derived clause, on no clash or a second one, on -q in c (so on
    every tautological antecedent), on a tautological input start clause,
    when the last derived clause is not empty, and when the number exceeds
    the claimed level.  Each derived clause is dropped at its one use, so
    the proof is a tree."""
    m = len(clauses)
    derived: list[tuple[set[int], int] | None] = []

    def take(i: int) -> tuple[Clause | set[int], int]:
        if 0 <= i < m:
            return clauses[i], 0
        if not m <= i < m + len(derived) or derived[i - m] is None:
            raise ValueError(f"clause index {i} names no available clause")
        got, derived[i - m] = derived[i - m], None
        return got

    for start, antecedents in proof:
        run, hs = take(start)
        if start < m:
            run = set(run)
            if not run.isdisjoint(map(neg, run)):
                raise ValueError(f"input clause {start} is tautological")
        for i in antecedents:
            c, h = take(i)
            q = 0
            for x in c:
                if -x not in run:
                    run.add(x)
                elif q:
                    raise ValueError(f"clause {i} has a second clash with the running clause")
                else:
                    q = x
            if not q:
                raise ValueError(f"clause {i} has no clash with the running clause")
            if -q in c:
                raise ValueError(f"clause {i} is tautological")
            run.remove(-q)
            hs = hs + 1 if hs == h else max(hs, h)
        derived.append((run, hs))
    if not derived or derived[-1][0]:
        raise ValueError("the proof does not end in the empty clause")
    if derived[-1][1] > level:
        raise ValueError(f"Horton-Strahler number {derived[-1][1]} above the claimed {level}")
    return derived[-1][1]


@_nogc
def _certified_level(spec: InstanceSpec, clauses: list[Clause]) -> int:
    """hd(F) by certificate.  A checked refutation of Horton-Strahler
    number L shows hd(F) <= L (Kullmann 1999: hd(F) is the least such
    number), and no clause shorter than L shows hd(F) >= L: r_0 needs the
    empty clause, and setting one literal shortens each clause by at most
    one, so by induction r_j changes nothing while every clause has more
    than j literals.  Raises ValueError naming the check that fails, and
    LookupError on a clause list not in the G1/G2/G3 layout.  Runs with
    the collector paused, as `generate` does: the proof and the derived
    clauses hold no cycle."""
    level, proof = _certificate(spec, clauses)
    lvl = _check_refutation(clauses, proof, level)
    if min(map(len, clauses)) < lvl:
        i = next(i for i, c in enumerate(clauses) if len(c) < lvl)
        raise ValueError(f"clause {i} has {len(clauses[i])} literals, fewer than the proof's {lvl}")
    return lvl


def verify(spec: InstanceSpec, level: str = "formulas") -> dict:
    """Check the generated instance against the closed forms ("formulas")
    or additionally its satisfiability status and hardness ("hardness").

    The hardness is certified (`_certified_level`): a refutation read off
    the generator's clause layout is checked step by step for the upper
    bound L, and the shortest clause, of at least L literals, gives the
    lower bound.  Neither bound builds a propagation trail.  When a check
    fails nothing is proved: the report says "unsatisfiable": null, a
    hardness of null, ok false, and under "rejected" the failed check."""
    if level not in ("formulas", "hardness"):
        raise ValueError(f"unknown verify level {level!r}")
    rec = stats(spec)
    clauses, n = generate(spec)
    report = {
        "instance": spec.name,
        "n": (n, rec.n),
        "c": (len(clauses), rec.c),
        "l": (sum(len(c) for c in clauses), rec.l),
        "distinct": len(set(clauses)) == len(clauses),
    }
    report["ok"] = (report["distinct"]
                    and all(got == want for got, want in
                            (report["n"], report["c"], report["l"])))
    if level == "hardness":
        try:
            lvl = _certified_level(spec, clauses)
        except (LookupError, ValueError) as e:  # an instance of another layout, or a rejected proof
            report.update(ok=False, unsatisfiable=None, hardness=(None, rec.hardness),
                          rejected=f"{type(e).__name__}: {e}")
        else:
            report.update(ok=report["ok"] and lvl == rec.hardness, unsatisfiable=True,
                          hardness=(lvl, rec.hardness))
    return report
