"""Full binary trees labelled with variables, and their hitting clause-sets.

A tree T with distinct inner-node labels yields smuo(T), a saturated minimally
unsatisfiable clause-set of deficiency 1: each leaf contributes the clause of
the literals along its path, where an edge to the left child carries the
parent's label positively, to the right child negatively.  tsmuo inverts this.

Leaves are numbered 1..#leaves in left-to-right (in-order) order; extremal
trees get their inner labels breadth-first.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from math import comb

from .core import (
    BOT, BOT_SET, Clause, ClauseSet, apply_assignment, variables,
)
from .mps import DopedClauseSet, _doped


class NotSmu1Error(ValueError):
    """Input clause-set is not smuo(T) for any labelled tree."""


@dataclass(frozen=True)
class Tree:
    var: int | None = None
    left: "Tree | None" = None
    right: "Tree | None" = None

    def __post_init__(self):
        inner = self.var is not None and self.left is not None and self.right is not None
        leaf = self.var is None and self.left is None and self.right is None
        if not (inner or leaf):
            raise ValueError("a node is either a labelled inner node or a bare leaf")

    @property
    def is_leaf(self) -> bool:
        return self.var is None


LEAF = Tree()


def node(v: int, left: Tree, right: Tree) -> Tree:
    return Tree(v, left, right)


def hts(t: Tree) -> int:
    """Horton-Strahler number."""
    if t.is_leaf:
        return 0
    a, b = hts(t.left), hts(t.right)
    return a + 1 if a == b else max(a, b)


def height(t: Tree) -> int:
    if t.is_leaf:
        return 0
    return 1 + max(height(t.left), height(t.right))


def leaf_count(t: Tree) -> int:
    return 1 if t.is_leaf else leaf_count(t.left) + leaf_count(t.right)


def inner_count(t: Tree) -> int:
    return 0 if t.is_leaf else 1 + inner_count(t.left) + inner_count(t.right)


def tree_labels(t: Tree) -> set[int]:
    return set() if t.is_leaf else {t.var} | tree_labels(t.left) | tree_labels(t.right)


def tree_clauses(t: Tree) -> list[Clause]:
    """The clauses of smuo(T) in leaf order."""
    out: list[Clause] = []

    def walk(s: Tree, path: list[int]) -> None:
        if s.is_leaf:
            out.append(frozenset(path))
            return
        path.append(s.var)
        walk(s.left, path)
        path[-1] = -s.var
        walk(s.right, path)
        path.pop()

    walk(t, [])
    return out


def smuo(t: Tree) -> ClauseSet:
    labels = tree_labels(t)
    if len(labels) != inner_count(t):
        raise ValueError("inner labels must be distinct")
    return frozenset(tree_clauses(t))


def tsmuo(f: ClauseSet) -> Tree:
    """The labelled tree T with smuo(T) = F; raises NotSmu1Error otherwise."""
    t = _build(f, len(variables(f)))
    if smuo(t) != f:
        raise NotSmu1Error("clause-set is not of the smuo form")
    return t


def _build(f: ClauseSet, fuel: int) -> Tree:
    if f == BOT_SET:
        return LEAF
    if not f or BOT in f or fuel < 0:
        raise NotSmu1Error("clause-set is not of the smuo form")
    common = set.intersection(*(set(abs(x) for x in c) for c in f))
    if not common:
        raise NotSmu1Error("no variable occurs in every clause")
    v = min(common)
    return node(v,
                _build(apply_assignment({v: 0}, f), fuel - 1),
                _build(apply_assignment({v: 1}, f), fuel - 1))


def apply_literal(t: Tree, x: int) -> Tree:
    """The tree of <x -> 1> * smuo(T): the subtree entered by the edge
    labelled x disappears, its sibling takes the place of their parent."""
    v = abs(x)

    def go(s: Tree) -> Tree | None:
        if s.is_leaf:
            return None
        if s.var == v:
            return s.right if x > 0 else s.left
        l = go(s.left)
        if l is not None:
            return node(s.var, l, s.right)
        r = go(s.right)
        if r is not None:
            return node(s.var, s.left, r)
        return None

    out = go(t)
    if out is None:
        raise ValueError(f"variable {v} does not label any node")
    return out


# ---------------------------------------------------------------------------
# extremal trees
# ---------------------------------------------------------------------------

def alpha(k: int, h: int) -> int:
    """Leaf count of the extremal trees: sum_{i=0..k} binomial(h, i)."""
    _check_pair(k, h)
    return sum(comb(h, i) for i in range(k + 1))


def _check_pair(k: int, h: int) -> None:
    if k < 0 or h < k or (k == 0 and h != 0):
        raise ValueError(f"no tree of Horton-Strahler {k} and height {h}")


def extremal_shape(k: int, h: int) -> Tree:
    """An unlabelled maximal-leaf-count tree of Horton-Strahler k, height h;
    the subtree of larger Horton-Strahler number goes left."""
    _check_pair(k, h)
    if k == 0:
        return LEAF
    if k == 1:
        t = Tree(0, LEAF, LEAF)
        for _ in range(h - 1):
            t = Tree(0, t, LEAF)
        return t
    return Tree(0, extremal_shape(min(k, h - 1), h - 1), extremal_shape(k - 1, h - 1))


def label_bfs(shape: Tree, first: int = 1) -> Tree:
    """Relabel inner nodes breadth-first with first, first+1, ..."""
    labels: dict[tuple[int, ...], int] = {}
    q: deque[tuple[Tree, tuple[int, ...]]] = deque([(shape, ())])
    n = first - 1
    while q:
        s, path = q.popleft()
        if s.is_leaf:
            continue
        n += 1
        labels[path] = n
        q.append((s.left, path + (0,)))
        q.append((s.right, path + (1,)))

    def rebuild(s: Tree, path: tuple[int, ...]) -> Tree:
        if s.is_leaf:
            return LEAF
        return node(labels[path], rebuild(s.left, path + (0,)), rebuild(s.right, path + (1,)))

    return rebuild(shape, ())


def extremal_tree(k: int, h: int) -> Tree:
    return label_bfs(extremal_shape(k, h))


# ---------------------------------------------------------------------------
# doping of tree clause-sets
# ---------------------------------------------------------------------------

def _first_doping_var(t: Tree, first: int | None = None) -> int:
    """The doping variable of leaf 1: first, by default the largest inner
    label plus one, so that doping variables never meet a label."""
    return max(tree_labels(t), default=0) + 1 if first is None else first


def doped_tree(t: Tree, first_doping_var: int | None = None) -> DopedClauseSet:
    """dope(smuo(T)) with the doping variable of leaf i (leaf order, 1-based)
    numbered first_doping_var + i - 1 (default: right after the largest label)."""
    return _doped(tree_clauses(t), _first_doping_var(t, first_doping_var))


def clause_for_leaves(t: Tree, leaf_set: set[int] | frozenset[int],
                      first_doping_var: int | None = None) -> Clause:
    """The prime implicate C_V of dope(smuo(T)) for a non-empty set V of
    leaf numbers: the doping literals of V plus every edge literal x whose
    subtree contains a leaf of V while the sibling subtree contains none."""
    masks, nl = _node_masks(t)
    v_set = frozenset(leaf_set)
    if not v_set or not v_set <= frozenset(range(1, nl + 1)):
        raise ValueError("leaf_set must be a non-empty subset of the leaf numbers")
    return _leaf_set_implicate(masks, _first_doping_var(t, first_doping_var), nl,
                               sum(1 << (i - 1) for i in v_set))


def _node_masks(t: Tree) -> tuple[list[tuple[int, int, int]], int]:
    """Per inner node (var, left leaf mask, right leaf mask); plus leaf count.
    Leaf i (1-based, left to right) is bit i-1."""
    masks: list[tuple[int, int, int]] = []
    counter = [0]

    def walk(s: Tree) -> int:
        if s.is_leaf:
            m = 1 << counter[0]
            counter[0] += 1
            return m
        lm = walk(s.left)
        rm = walk(s.right)
        masks.append((s.var, lm, rm))
        return lm | rm

    walk(t)
    return masks, counter[0]


def _leaf_set_implicate(masks: list[tuple[int, int, int]], u0: int, nl: int,
                        mv: int) -> Clause:
    """C_V for the leaf set V with mask mv: the doping literals of V plus every
    edge literal whose subtree meets V while the sibling subtree does not."""
    lits = [u0 + i for i in range(nl) if mv >> i & 1]
    for v, lm, rm in masks:
        if mv & lm and not mv & rm:
            lits.append(v)
        elif mv & rm and not mv & lm:
            lits.append(-v)
    return frozenset(lits)


def to_dot(t: Tree) -> str:
    """Graphviz rendering; leaves show their leaf number."""
    lines = ["digraph tree {", "  node [shape=circle];"]
    counter = [0]
    leafno = [0]

    def walk(s: Tree) -> str:
        me = f"n{counter[0]}"
        counter[0] += 1
        if s.is_leaf:
            leafno[0] += 1
            lines.append(f'  {me} [shape=box, label="{leafno[0]}"];')
            return me
        lines.append(f'  {me} [label="v{s.var}"];')
        l = walk(s.left)
        lines.append(f'  {me} -> {l} [label="v{s.var}"];')
        r = walk(s.right)
        lines.append(f'  {me} -> {r} [label="-v{s.var}"];')
        return me

    walk(t)
    lines.append("}")
    return "\n".join(lines) + "\n"
