"""Full binary trees labelled with variables, and their hitting clause-sets.

A tree T with distinct inner-node labels yields smuo(T), a saturated minimally
unsatisfiable clause-set of deficiency 1: each leaf contributes the clause of
the literals along its path, where an edge to the left child carries the
parent's label positively, to the right child negatively.  tsmuo inverts this.

Leaves are numbered 1..#leaves in left-to-right (in-order) order; extremal
trees get their inner labels breadth-first.  One traversal owns that order:
_walk, a pre-order walk on an explicit stack.  Every walk over a Tree goes
through it (the bottom-up ones through _fold), and nothing here recurses,
so trees of any depth are handled.  _extremal_paths walks shape pairs, not
a Tree: it reads the extremal leaf paths off the shape recurrence.

doped_tree(T) is dope(smuo(T)) in leaf order; clause_for_leaves and
_implicate_builder give its prime implicates C_V in closed form.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from math import comb

from .core import Clause, ClauseSet, SizeLimitExceeded
from .translate import TranslationResult, dope

#: The most literals `extremal_shape` and `bench.generate` build: the largest
#: row of the paper's table, G2_k5_h35, has 49,595,888.
_MAX_LITERALS = 50_000_000


class NotSmu1Error(ValueError):
    """Input clause-set is not smuo(T) for any labelled tree."""


@dataclass(frozen=True, eq=False, repr=False)
class Tree:
    """A node.  == and repr give what a frozen dataclass's would, and hash
    agrees with ==; all three run on _walk, not once per level."""
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

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        # the pre-order labels, None at a leaf, spell out a full binary tree
        return self is other or _labels(self) == _labels(other)

    def __hash__(self):
        return hash(tuple(_labels(self)))

    def __repr__(self):
        return _fold(_labels(self), lambda i: "Tree(var=None, left=None, right=None)",
                     lambda v, l, r: f"Tree(var={v!r}, left={l}, right={r})")


LEAF = Tree()


def node(v: int, left: Tree, right: Tree) -> Tree:
    return Tree(v, left, right)


def _walk(t: Tree):
    """Yield (node, depth, literal on the edge into it, 0 at the root) in
    pre-order, left child first, so that leaves come out in leaf order."""
    stack = [(t, 0, 0)]
    while stack:
        s, d, x = stack.pop()
        yield s, d, x
        if not s.is_leaf:
            stack += ((s.right, d + 1, -s.var), (s.left, d + 1, s.var))


def _labels(t: Tree) -> list[int | None]:
    """The labels in pre-order, None at a leaf."""
    return [s.var for s, _, _ in _walk(t)]


def _fold(labels: list[int | None], leaf, inner):
    """Fold the tree with these pre-order labels (None at a leaf) from the
    leaves up: leaf(i) at the leaf of index i (0-based, leaf order), and
    inner(v, left value, right value) at an inner node labelled v."""
    i = labels.count(None)
    vals: list = []
    for v in reversed(labels):  # both subtrees of a node are done before it
        if v is None:
            i -= 1
            vals.append(leaf(i))
        else:
            vals.append(inner(v, vals.pop(), vals.pop()))
    return vals[0]


def hts(t: Tree) -> int:
    """Horton-Strahler number."""
    return _fold(_labels(t), lambda i: 0,
                 lambda v, a, b: a + 1 if a == b else max(a, b))


def height(t: Tree) -> int:
    return max(d for _, d, _ in _walk(t))


def leaf_count(t: Tree) -> int:
    return sum(s.is_leaf for s, _, _ in _walk(t))


def inner_count(t: Tree) -> int:
    return leaf_count(t) - 1


def tree_labels(t: Tree) -> set[int]:
    return {s.var for s, _, _ in _walk(t) if not s.is_leaf}


def _leaf_paths(t: Tree):
    """Yield the edge literals from the root to each leaf, in leaf order."""
    path: list[int] = []
    for s, d, x in _walk(t):
        if d:
            path[d - 1:] = (x,)
        if s.is_leaf:
            yield tuple(path)


def tree_clauses(t: Tree) -> list[Clause]:
    """The clauses of smuo(T) in leaf order."""
    return list(map(frozenset, _leaf_paths(t)))


def smuo(t: Tree) -> ClauseSet:
    if len(tree_labels(t)) != inner_count(t):
        raise ValueError("inner labels must be distinct")
    return frozenset(tree_clauses(t))


def tsmuo(f: ClauseSet) -> Tree:
    """The labelled tree T with smuo(T) = F; raises NotSmu1Error otherwise.
    T is built top-down on an explicit stack, left subtree first.  A node
    keeps the clauses of F below it, which all hold its path's literals; its
    label is the least variable off the path in all of them (so in the
    shortest), and they are split by its sign.  No clause-set is rebuilt."""
    labels: list[int | None] = []  # in pre-order
    path: list[int] = []  # the labels from the root down
    stack = [(list(f), 0)]  # (clauses of F below a node, its depth)
    while stack:
        cs, d = stack.pop()
        del path[d:]
        if len(cs) == 1 and len(cs[0]) == d:  # the path is the whole clause
            labels.append(None)
            continue
        if not cs or any(len(c) == d for c in cs):
            raise NotSmu1Error("clause-set is not of the smuo form")
        off_path = sorted({abs(x) for x in min(cs, key=len)}.difference(path))
        v = next((v for v in off_path if all(v in c or -v in c for c in cs)), None)
        if v is None:
            raise NotSmu1Error("no variable occurs in every clause")
        labels.append(v)
        path.append(v)
        stack += (([c for c in cs if v not in c], d + 1), ([c for c in cs if -v not in c], d + 1))
    t = _fold(labels, lambda i: LEAF, node)
    inner = [v for v in labels if v is not None]  # one label may recur across branches
    if len(set(inner)) < len(inner) or smuo(t) != f:
        raise NotSmu1Error("clause-set is not of the smuo form")
    return t


def apply_literal(t: Tree, x: int) -> Tree:
    """The tree of <x -> 1> * smuo(T): the subtree entered by the edge
    labelled x disappears, its sibling takes the place of their parent."""
    v = abs(x)
    path: list[tuple[int, Tree]] = []  # (pre-order index, node) from the root down
    for i, (s, d, _) in enumerate(_walk(t)):
        path[d:] = ((i, s),)
        if s.var == v:
            out = s.right if x > 0 else s.left
            for (j, p), (c, _) in zip(path[-2::-1], path[:0:-1]):
                # a left child directly follows its parent in pre-order
                out = node(p.var, out, p.right) if c == j + 1 else node(p.var, p.left, out)
            return out
    raise ValueError(f"variable {v} does not label any node")


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


def _extremal_fold(k: int, h: int, leaf, inner):
    """Fold the extremal shape of (k, h) from the leaves up, one height j at
    a time.  Row j holds the values of the shapes (g, j), g = 0..min(k, j):
    (0, j) is a leaf, and (g, j) has (min(g, j - 1), j - 1) on the left and
    (g - 1, j - 1) on the right."""
    _check_pair(k, h)
    row = [leaf]
    for j in range(1, h + 1):
        row = [leaf] + [inner(row[min(g, j - 1)], row[g - 1]) for g in range(1, min(k, j) + 1)]
    return row[k]


def _leaf_depth_sum(k: int, h: int) -> int:
    """Sum of leaf depths of the extremal tree of parameters (k, h), by the
    row DP of extremal_shape over (leaf count, leaf depth sum) pairs."""
    return _extremal_fold(k, h, (1, 0), lambda l, r: (l[0] + r[0], sum(l) + sum(r)))[1]


def extremal_shape(k: int, h: int) -> Tree:
    """An unlabelled maximal-leaf-count tree of Horton-Strahler k, height h;
    the subtree of larger Horton-Strahler number goes left.  Raises
    SizeLimitExceeded, before building anything, when its leaf depths, the
    literals of smuo(T), sum to more than _MAX_LITERALS."""
    l = _leaf_depth_sum(k, h)
    if l > _MAX_LITERALS:
        raise SizeLimitExceeded(f"the extremal tree k={k} h={h} has {l} literals, "
                                f"above the limit of {_MAX_LITERALS}",
                                budget="literals", limit=_MAX_LITERALS, progress=l)
    return _extremal_fold(k, h, LEAF, lambda l, r: Tree(0, l, r))


def label_bfs(shape: Tree, first: int = 1) -> Tree:
    """Relabel inner nodes breadth-first with first, first+1, ..."""
    order = [shape]
    inner: list[tuple[int, int]] = []  # (place in order, place of its left child)
    for i, s in enumerate(order):  # order grows while it is read: a BFS queue
        if not s.is_leaf:
            inner.append((i, len(order)))
            order += (s.left, s.right)
    built = [LEAF] * len(order)
    for n in range(len(inner) - 1, -1, -1):
        i, j = inner[n]
        built[i] = node(first + n, built[j], built[j + 1])
    return built[0]


def extremal_tree(k: int, h: int) -> Tree:
    return label_bfs(extremal_shape(k, h))


def _extremal_paths(k: int, h: int) -> list[tuple[int, ...]]:
    """list(_leaf_paths(extremal_tree(k, h))), building no Tree and checking
    no size.  The nodes at depth d are _extremal_fold's pairs (g, h - d): a
    breadth-first count of them gives each depth's first label, and a
    pre-order walk, which meets a depth's nodes in BFS order, takes them."""
    _check_pair(k, h)
    nxt, row = [1], [0] * k + [1]  # row[g]: how many pairs (g, j) lie at depth h - j
    for j in range(h, 0, -1):
        nxt.append(nxt[-1] + sum(row[1:]))
        below = row[1:] + [0]  # the right children (g - 1, j - 1), then the left ones
        for g in range(1, k + 1):
            below[min(g, j - 1)] += row[g]
        row = below
    paths, stack = [], [(k, 0, ())]  # (g, depth, edge literals down to it)
    while stack:
        g, d, p = stack.pop()
        if not g:
            paths.append(p)
            continue
        v = nxt[d]
        nxt[d] = v + 1
        stack += ((g - 1, d + 1, p + (-v,)), (min(g, h - d - 1), d + 1, p + (v,)))
    return paths


# ---------------------------------------------------------------------------
# doping of tree clause-sets
# ---------------------------------------------------------------------------

def doped_tree(t: Tree) -> TranslationResult:
    """dope(smuo(T)) in leaf order: the variables of smuo(T) are its labels,
    so the doping variable of leaf i (1-based) is numbered i after the
    largest label and never meets one."""
    return dope(tree_clauses(t))


def clause_for_leaves(t: Tree, leaf_set: set[int] | frozenset[int]) -> Clause:
    """The prime implicate C_V of dope(smuo(T)) for a non-empty set V of
    leaf numbers."""
    nl, implicate = _implicate_builder(t)
    v_set = frozenset(leaf_set)
    if not v_set or not v_set <= frozenset(range(1, nl + 1)):
        raise ValueError("leaf_set must be a non-empty subset of the leaf numbers")
    return implicate(sum(1 << (i - 1) for i in v_set))


def _node_masks(t: Tree) -> tuple[list[tuple[int, int, int]], int]:
    """Per inner node (var, left leaf mask, right leaf mask); plus leaf count.
    Leaf i (1-based, left to right) is bit i-1."""
    masks: list[tuple[int, int, int]] = []

    def inner(v: int, lm: int, rm: int) -> int:
        masks.append((v, lm, rm))
        return lm | rm

    return masks, _fold(_labels(t), lambda i: 1 << i, inner).bit_length()


def _implicate_builder(t: Tree) -> tuple[int, Callable[[int], Clause]]:
    """The leaf count of T, and the map from the leaf mask of V (leaf i is
    bit i-1) to C_V, the prime implicate of doped_tree(T) for V: the doping
    literals of V plus every edge literal whose subtree meets V while the
    sibling subtree does not."""
    masks, nl = _node_masks(t)
    u0 = max((v for v, _, _ in masks), default=0) + 1  # as in doped_tree

    def implicate(mv: int) -> Clause:
        lits = [u0 + i for i in range(nl) if mv >> i & 1]
        for v, lm, rm in masks:
            if mv & lm and not mv & rm:
                lits.append(v)
            elif mv & rm and not mv & lm:
                lits.append(-v)
        return frozenset(lits)

    return nl, implicate


def _depth_k_leaf_blocks(t: Tree, k: int) -> list[list[int]]:
    """Leaf numbers of each depth-k subtree, left to right."""
    blocks: list[list[int]] = []
    leafno = 0
    for s, d, _ in _walk(t):
        if d == k:
            blocks.append([])
        if s.is_leaf:
            if not 0 <= k <= d:
                raise ValueError(f"tree has a leaf above depth {k}")
            leafno += 1
            blocks[-1].append(leafno)
    return blocks


def to_dot(t: Tree) -> str:
    """Graphviz rendering; leaves show their leaf number."""
    lines = ["digraph tree {", "  node [shape=circle];"]
    path: list[tuple[int, int | None]] = []  # (node number, label) from the root down
    edges: list[str] = []  # the edges into them, each written once its subtree is done
    leafno = 0
    for me, (s, d, _) in enumerate(_walk(t)):
        lines += reversed(edges[d - 1:])
        del edges[d - 1:]
        if s.is_leaf:
            leafno += 1
            lines.append(f'  n{me} [shape=box, label="{leafno}"];')
        else:
            lines.append(f'  n{me} [label="v{s.var}"];')
        if d:
            p, v = path[d - 1]
            sign = "" if me == p + 1 else "-"  # a left child directly follows its parent
            edges.append(f'  n{p} -> n{me} [label="{sign}v{v}"];')
        path[d:] = ((me, s.var),)
    lines += reversed(edges)
    lines.append("}")
    return "\n".join(lines) + "\n"
