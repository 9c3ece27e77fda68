"""Benchmark family built from doped extremal trees.

For k >= 2 and h >= k+1 let F be dope(smuo(T)) for the breadth-first
labelled extremal tree T of Horton-Strahler k and height h, and F' the same
with all doping literals flipped.  The three variants are

  1: F' together with F                  (hardness k+1, deficiency 1),
  2: F' plus cant  of the negation of F' (hardness 2),
  3: F' plus cantm of the negation of F' (hardness 2).

Variable blocks: tree labels 1..a-1 breadth-first (a = leaf count), doping
variables a..2a-1 by leaf number, translation selectors 2a..3a-1 in clause
order.  Generation is bit-deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from math import comb

from .core import Clause, _nogc, emit_dimacs
from .reductions import unsat_level
from .translate import cant, cantm, complement_clauses
from .trees import _extremal_fold, alpha, doped_tree, extremal_tree


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


def _leaf_depth_sum(k: int, h: int) -> int:
    """Sum of leaf depths of the extremal tree of parameters (k, h), by the
    row DP of extremal_shape over (leaf count, leaf depth sum) pairs."""
    return _extremal_fold(k, h, (1, 0), lambda l, r: (l[0] + r[0], sum(l) + sum(r)))[1]


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
    """The instance as an ordered clause list, plus its variable count."""
    d = doped_tree(extremal_tree(spec.k, spec.h))
    flipped = [c ^ {u, -u} for c, u in zip(d.ordered, d.doping_map.values())]
    if spec.variant == 1:
        out = flipped + list(d.ordered)
    else:                              # one clause per leaf: selectors start at 2a
        translation = cant if spec.variant == 2 else cantm
        out = flipped + list(translation(complement_clauses(flipped),
                                         first_new_var=2 * len(flipped)).ordered)
    return out, max(map(abs, chain.from_iterable(out)))


def instance_comments(spec: InstanceSpec) -> list[str]:
    from . import __version__
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


def verify(spec: InstanceSpec, level: str = "formulas") -> dict:
    """Check the generated instance against the closed forms ("formulas")
    or additionally its satisfiability status and hardness ("hardness").

    With the claimed hardness hd, one trail of F is closed under r_2 ... r_hd
    (`unsat_level`).  An r_hd refutation is the proof that F is unsatisfiable,
    and its level is the hardness.  DPLL runs only on a failed claim, where
    the trail is still open: it tells "satisfiable" apart from "harder than
    claimed", and then the climb goes on from r_{hd+1}."""
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
        lvl = unsat_level(frozenset(clauses), rec.hardness)
        report["unsatisfiable"] = lvl is not None
        report["hardness"] = (lvl, rec.hardness)
        report["ok"] = report["ok"] and lvl == rec.hardness
    return report
