"""Directed-tree combinatorics: validation, navigation, structural sets, index.

Vertices are opaque strings, stored in canonical order with the position of
each one's parent; the string maps are views, built on first use.  The
built-in families name their vertices ``"-k"``, ``"0"`` and ``"(i,j)"``;
explicit trees may use any labels.  Infinite trees are never stored whole: a
family writes a finite prefix and its :class:`TreeArrays` by formula.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from functools import cached_property
from itertools import compress
from typing import Callable, Iterable, Mapping, Optional

import numpy as np

__all__ = [
    "ValidationError",
    "DisconnectedError",
    "CircuitError",
    "MultipleParentsError",
    "UnknownVertexError",
    "EmptyComplementError",
    "NotFredholmError",
    "IndeterminateError",
    "DirectedTree",
    "StructuralSets",
    "TreeFamily",
    "FamilyStructure",
    "Materialized",
    "TreeArrays",
    "vertex_key",
    "validate",
    "descendants",
    "structural_sets",
    "tree_structure",
    "tree_index",
    "split_at",
    "as_complete",
    "explicit_truncation",
]


class ValidationError(ValueError):
    """Input graph is not a directed tree."""


class DisconnectedError(ValidationError):
    pass


class CircuitError(ValidationError):
    def __init__(self, cycle):
        super().__init__(f"circuit found: {' -> '.join(cycle)}")
        self.cycle = tuple(cycle)


class MultipleParentsError(ValidationError):
    def __init__(self, vertex):
        super().__init__(f"vertex {vertex!r} has more than one parent")
        self.vertex = vertex


class UnknownVertexError(KeyError):
    pass


class EmptyComplementError(ValueError):
    pass


class NotFredholmError(ValueError):
    """The tree has infinitely many branching vertices or an infinite sibling set."""


class IndeterminateError(ValueError):
    """Structural data is not finitely determined at the requested depth."""


_PAIR_RE = re.compile(r"^\((-?\d+),(-?\d+)\)$")


def vertex_key(v: str):
    """Canonical sort key: integers, then (i,j) pairs, then plain strings.

    The one reader of the form of a vertex id: ``(0, n, 0)`` for an integer
    id n, ``(1, i, j)`` for a pair and ``(2, v, 0)`` for any other label.
    """
    m = _PAIR_RE.match(v)
    if m:
        return (1, int(m.group(1)), int(m.group(2)))
    try:
        return (0, int(v), 0)
    except ValueError:
        return (2, v, 0)


@dataclass(frozen=True)
class DirectedTree:
    """A finite directed tree: vertex ids in canonical order and, by position,
    the position of each parent (-1 at the root).  Construct it through
    :func:`validate` (or the family materializers) so the invariants hold.
    The string maps ``parent``, ``children`` and ``positions`` (id to
    position) are views, built on first use and cached on the instance.
    """

    vertices: tuple
    parent_ids: np.ndarray
    root: Optional[str]

    def __eq__(self, other):
        same = isinstance(other, DirectedTree) and (self.vertices, self.root) == (other.vertices, other.root)
        return same and np.array_equal(self.parent_ids, other.parent_ids)

    @cached_property
    def positions(self) -> dict:
        return {v: i for i, v in enumerate(self.vertices)}

    @cached_property
    def parent(self) -> Mapping[str, str]:
        vs = self.vertices
        return {vs[i]: vs[p] for i, p in enumerate(self.parent_ids.tolist()) if p >= 0}

    @cached_property
    def children(self) -> Mapping[str, tuple]:
        kids: dict = {v: [] for v in self.vertices}
        for v, u in self.parent.items():  # by position: each tuple in canonical order
            kids[u].append(v)
        return {u: tuple(cs) for u, cs in kids.items()}

    def __contains__(self, v) -> bool:
        return v in self.positions

    def has_parent(self, v) -> bool:
        """Is ``v`` a non-root vertex?"""
        return v in self.positions and v != self.root

    def edges(self) -> tuple:
        return tuple((self.parent[v], v) for v in self.vertices if v in self.parent)


@dataclass(frozen=True)
class StructuralSets:
    leaves: frozenset
    branching: frozenset
    vprime: frozenset


def validate(vertices: Iterable[str], edges: Iterable[tuple]) -> DirectedTree:
    """Check that (vertices, edges) is a directed tree and build it.

    Raises :class:`MultipleParentsError`, :class:`CircuitError` or
    :class:`DisconnectedError` otherwise.
    """
    vs = [str(v) for v in vertices]
    vset = set(vs)
    if len(vs) != len(vset):
        raise ValidationError("duplicate vertex ids")
    if not vset:
        raise ValidationError("empty vertex set")
    parent: dict = {}
    for u, v in edges:
        u, v = str(u), str(v)
        if u not in vset or v not in vset:
            raise ValidationError(f"edge ({u},{v}) mentions an unknown vertex")
        if u == v:
            raise ValidationError(f"self-loop at {u!r}")
        if v in parent:
            raise MultipleParentsError(v)
        parent[v] = u

    # Circuits: follow parents; with unique parents any circuit is a parent
    # cycle.  Every vertex walked records the root its parent chain ends at.
    root_of: dict = {}
    for start in vs:
        path, on_path, v = [], set(), start
        while v not in root_of:
            if v in on_path:
                raise CircuitError(path[path.index(v):] + [v])
            on_path.add(v)
            path.append(v)
            if v not in parent:
                root_of[v] = v
                break
            v = parent[v]
        for w in path:
            root_of[w] = root_of[v]

    # Without circuits the graph is a forest: connected iff it has one root.
    top = root_of[vs[0]]
    outside = sum(1 for v in vs if root_of[v] != top)
    if outside:
        raise DisconnectedError(f"{outside} vertices unreachable")
    order = tuple(sorted(vs, key=vertex_key))  # stable: input order breaks ties
    index = {v: i for i, v in enumerate(order)}
    ids = np.fromiter((index[parent[v]] if v in parent else -1 for v in order), np.int64, len(order))
    return DirectedTree(order, ids, top)


def descendants(t: DirectedTree, u: str, n: int) -> frozenset:
    """The n-th descendant level of u (level 0 is {u})."""
    if u not in t.children:
        raise UnknownVertexError(u)
    if n < 0:
        raise ValueError("level must be nonnegative")
    level = {u}
    for _ in range(n):
        level = {w for v in level for w in t.children[v]}
        if not level:
            break
    return frozenset(level)


def structural_sets(t: DirectedTree) -> StructuralSets:
    leaves = frozenset(v for v in t.vertices if not t.children[v])
    branching = frozenset(v for v in t.vertices if len(t.children[v]) >= 2)
    return StructuralSets(
        leaves=leaves, branching=branching, vprime=frozenset(t.vertices) - leaves
    )


def tree_structure(obj) -> "FamilyStructure":
    """The structure of a :class:`TreeFamily`, of a family prefix, or of an
    explicit :class:`DirectedTree` (or :class:`Materialized` prefix that is
    the whole tree), derived from its parent ids."""
    if isinstance(obj, Materialized):
        if obj.family is None and not obj.whole:
            raise IndeterminateError("truncated tree without family structure")
        obj = obj.family or obj.tree
    if isinstance(obj, TreeFamily):
        if obj.structure is None:
            raise IndeterminateError("custom family lacks declared structure")
        return obj.structure
    if isinstance(obj, DirectedTree):
        deg = np.bincount(obj.parent_ids[obj.parent_ids >= 0], minlength=len(obj.vertices))
        return FamilyStructure(obj.root is not None, int(np.count_nonzero(deg == 0)), tuple(deg[deg >= 2].tolist()))
    raise TypeError(f"no tree structure for {type(obj).__name__}")


def tree_index(obj) -> int:
    """Index of a Fredholm directed tree (always <= 1).

    Accepts what :func:`tree_structure` accepts; an explicit
    :class:`DirectedTree` is taken as the whole tree.
    """
    return tree_structure(obj).index()


def split_at(t: DirectedTree, u: str) -> tuple:
    """Split into (subtree of descendants of u, complement subtree)."""
    if u not in t:
        raise UnknownVertexError(u)
    des = set()
    stack = [u]
    while stack:
        x = stack.pop()
        des.add(x)
        stack.extend(t.children[x])
    rest = [v for v in t.vertices if v not in des]
    if not rest:
        raise EmptyComplementError(f"descendants of {u!r} exhaust the tree")
    sub = validate([v for v in t.vertices if v in des], [(t.parent[v], v) for v in des if v != u])
    return sub, validate(rest, [(t.parent[v], v) for v in rest if v != t.root])


@dataclass(frozen=True)
class TreeArrays:
    """Integer view of a materialized prefix, built with it.

    Vertex ids are positions in ``tree.vertices``.  The children of ``u`` are
    ``child_idx[child_ptr[u]:child_ptr[u + 1]]``, in the order of
    ``tree.children[u]``, so walking the edges in storage order visits parents
    by increasing id and each parent's children in canonical order.
    """

    parent: np.ndarray  # parent id, -1 at the root
    child_ptr: np.ndarray
    child_idx: np.ndarray
    edge_parent: np.ndarray  # parent of each entry of child_idx
    complete: np.ndarray  # bool mask
    level: np.ndarray  # distance from the materialized root
    checkable: np.ndarray  # complete, and every child complete: ||S e_v|| known below


def _tree_arrays(parent: np.ndarray, complete: np.ndarray, child_idx=None, level=None) -> TreeArrays:
    """The integer view from parent ids and completeness.  A family passes
    ``child_idx`` and ``level`` by formula; else a stable sort by parent id
    gives the children (the root's -1 first, siblings in canonical order)
    and pointer doubling the levels."""
    n = len(parent)
    if child_idx is None:
        order = np.argsort(parent, kind="stable")
        child_idx = order[parent[order] >= 0]
    edge_parent = parent[child_idx]
    child_ptr = np.zeros(n + 1, np.int64)
    np.cumsum(np.bincount(edge_parent, minlength=n), out=child_ptr[1:])
    checkable = complete.copy()
    checkable[parent[(parent >= 0) & ~complete]] = False
    if level is None:
        # after k rounds every vertex knows its distance to the ancestor
        # 2**k levels up, or to the root
        up, live = parent, parent >= 0
        level = live.astype(np.int64)
        while live.any():
            level = level + np.where(live, level[up], 0)
            up = np.where(live, up[up], -1)
            live = up >= 0
    return TreeArrays(parent, child_ptr, child_idx, edge_parent, complete, level, checkable)


@dataclass(frozen=True)
class Materialized:
    """A finite prefix of a (possibly infinite) directed tree.

    ``complete`` lists the vertices all of whose children are present;
    ``boundary_root`` is set when the materialized root is an artifact of the
    truncation (the true tree continues upward).

    ``arrays`` is the integer view of the prefix (:class:`TreeArrays`): a
    family passes it in, else it is derived at construction.  Its ids are
    positions in ``tree.vertices``, which is sorted by :func:`vertex_key`; a
    scan "in canonical order" is therefore a scan by increasing id, and the
    first violation it meets is the violation with the lowest id.  The
    arrays, ``tree.vertices`` and ``complete`` are built eagerly; the tree's
    string maps on first use, which no closed form needs.
    """

    tree: DirectedTree
    complete: frozenset
    boundary_root: bool = False
    family: Optional["TreeFamily"] = None
    depth: int = 0
    arrays: Optional[TreeArrays] = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        if self.arrays is None:  # derived from the tree and ``complete``
            mask = np.fromiter(map(self.complete.__contains__, self.tree.vertices), bool, len(self.tree.vertices))
            object.__setattr__(self, "arrays", _tree_arrays(self.tree.parent_ids, mask))

    def is_complete(self, v: str) -> bool:
        return v in self.complete

    def has_true_root(self) -> bool:
        return self.tree.root is not None and not self.boundary_root

    def rooted(self) -> bool:
        """Is the tree rooted?  The family's answer, or whether this prefix
        has a true root."""
        return self.has_true_root() if self.family is None else self.family.rooted()

    @cached_property
    def whole(self) -> bool:
        """Is the prefix the whole tree: every vertex complete, and the root
        the true root?"""
        return not self.boundary_root and bool(self.arrays.complete.all())

    def levels(self) -> dict:
        """Distance from the materialized root, per vertex."""
        return dict(zip(self.tree.vertices, self.arrays.level.tolist()))


def as_complete(t: DirectedTree) -> Materialized:
    """Wrap a genuinely finite tree (every vertex complete)."""
    return Materialized(tree=t, complete=frozenset(t.vertices), family=None)


def explicit_truncation(
    t: DirectedTree, incomplete: Iterable[str] = (), rootless: bool = False
) -> Materialized:
    """Mark an explicit tree as a truncation of a larger one.

    ``incomplete`` lists vertices with missing children; ``rootless`` marks the
    root as a truncation artifact of a rootless tree.
    """
    inc = frozenset(str(v) for v in incomplete)
    unknown = inc - set(t.vertices)
    if unknown:
        raise UnknownVertexError(sorted(unknown)[0])
    return Materialized(tree=t, complete=frozenset(t.vertices) - inc, boundary_root=rootless)


@dataclass(frozen=True)
class FamilyStructure:
    """What a tree's index and admissible classes depend on: whether it is
    ``rooted``, its number of ``leaves`` and the child count of each branching
    vertex.  A non-empty ``infinite_branching`` says that infinitely many
    vertices branch, and how; it makes the tree not Fredholm."""

    rooted: bool
    leaves: int
    branch_children: tuple = ()
    infinite_branching: str = ""

    def index(self) -> int:
        """ind = #leaves + sum over branching u of (1 - #Chi(u)) - [rooted]."""
        if self.infinite_branching:
            raise NotFredholmError(self.infinite_branching)
        return self.leaves + sum(1 - c for c in self.branch_children) - int(self.rooted)


# the structure each built-in kind declares; the broom's comes from eta and kappa
_STRUCTURES = {
    "z_plus": FamilyStructure(rooted=True, leaves=0),
    "z": FamilyStructure(rooted=False, leaves=0),
    "z_minus": FamilyStructure(rooted=False, leaves=1),
    "binary": FamilyStructure(
        rooted=True, leaves=0, infinite_branching="every vertex of the binary tree is branching"
    ),
}


@dataclass(frozen=True)
class TreeFamily:
    """Parameterized infinite tree with depth-bounded materialization.

    Kinds: ``z_plus``, ``z``, ``z_minus``, ``t_eta_kappa`` (broom: a trunk of
    length kappa feeding a branching vertex with eta infinite branches),
    ``binary`` (full binary tree, every vertex has two children) and
    ``custom`` (explicit child generator).  ``structure`` is the family's
    :class:`FamilyStructure`: a custom family may declare one, and every other
    kind derives its own (replacing any value passed in).
    """

    kind: str
    eta: int = 0
    kappa: float = 0  # nonnegative int, or math.inf
    generator: Optional[Callable[[str], list]] = None
    custom_root: str = "0"
    structure: Optional[FamilyStructure] = None

    def __post_init__(self):
        if self.kind == "t_eta_kappa":
            if not (isinstance(self.eta, int) and self.eta >= 2):
                raise ValueError("eta must be a finite integer >= 2")
            if not (self.kappa == math.inf or (isinstance(self.kappa, int) and self.kappa >= 0)):
                raise ValueError("kappa must be a nonnegative integer or inf")
            # no leaves, one branching vertex with eta children
            object.__setattr__(self, "structure", FamilyStructure(self.kappa != math.inf, 0, (self.eta,)))
        elif self.kind == "custom":
            if self.generator is None:
                raise ValueError("custom family needs a generator")
        elif self.kind in _STRUCTURES:
            object.__setattr__(self, "structure", _STRUCTURES[self.kind])
        else:
            raise ValueError(f"unknown family kind {self.kind!r}")

    # -- materialization ------------------------------------------------

    def materialize(self, depth: int) -> Materialized:
        if depth < 1:
            raise ValueError("depth must be >= 1")
        if self.kind == "custom":
            # expand each new vertex once; an edge to a vertex already seen is
            # kept, so validate refuses a circuit or a second parent
            vs, edges, frontier = {self.custom_root: None}, [], [self.custom_root]
            for _ in range(depth):
                nxt = []
                for u in frontier:
                    for c in dict.fromkeys(str(c) for c in self.generator(u)):
                        edges.append((u, c))
                        if c not in vs:
                            vs[c] = None
                            nxt.append(c)
                frontier = nxt
            return Materialized(  # validate sorts stably: generation order breaks ties
                tree=validate(vs, edges), complete=frozenset(vs) - set(frontier), family=self, depth=depth
            )
        # the ids, then the arrays by formula, both in canonical order
        if self.kind == "binary":
            if depth > 16:
                raise ValueError("binary family materialization capped at depth 16")
            # heap order: (i,j) at 2**i - 2 + j, its parent (i-1,(j+1)//2) at (p-1)//2
            vs = ["0", *(f"({i},{j})" for i in range(1, depth + 1) for j in range(1, 2 ** i + 1))]
            pos = np.arange(len(vs))
            parent, child_idx = (pos - 1) // 2, pos[1:]
            complete = pos < 2 ** depth - 1  # levels 0 .. depth - 1
            level = np.repeat(np.arange(depth + 1), 1 << np.arange(depth + 1))
            boundary = False
        else:
            # the integer chain lo..hi; for the broom, eta branches of pair ids off
            # "0".  kappa is how far the chain runs below "0" in the whole tree.
            kappa = {"z_plus": 0, "t_eta_kappa": self.kappa}.get(self.kind, math.inf)
            lo, hi = -int(min(kappa, depth)), (depth if self.kind in ("z_plus", "z") else 0)
            vs = [str(n) for n in range(lo, hi + 1)]
            c, eta = len(vs), (self.eta if self.kind == "t_eta_kappa" else 0)
            for i in range(1, eta + 1):
                vs += [f"({i},{j})" for j in range(1, depth + 1)]
            parent = np.arange(-1, len(vs) - 1)
            heads = c + depth * np.arange(eta)
            parent[heads] = -lo  # the position of "0"
            complete = np.ones(len(vs), bool)
            complete[heads + depth - 1] = False
            complete[c - 1] = hi == 0  # a top at "0" is complete
            # by parent: the chain's children, the heads, each branch vertex's child
            child_idx = np.concatenate([np.arange(1, c), heads, np.delete(np.arange(c, len(vs)), heads - c)])
            level = np.concatenate([np.arange(c), np.tile(np.arange(1 - lo, 1 - lo + depth), eta)])
            boundary = kappa > -lo  # the chain continues below lo
        vs = tuple(vs)
        return Materialized(
            tree=DirectedTree(vs, parent, vs[0]),
            complete=frozenset(compress(vs, complete.tolist())),
            boundary_root=boundary,
            family=self,
            depth=depth,
            arrays=_tree_arrays(parent, complete, child_idx, level),
        )

    # -- structural data -------------------------------------------------

    def rooted(self) -> bool:
        # a custom family that declares nothing grows down from its root
        return self.structure.rooted if self.structure else True

    def leafless(self) -> bool:
        return tree_structure(self).leaves == 0


def zplus() -> TreeFamily:
    return TreeFamily(kind="z_plus")


def zline() -> TreeFamily:
    return TreeFamily(kind="z")


def zminus() -> TreeFamily:
    return TreeFamily(kind="z_minus")


def broom(eta: int, kappa) -> TreeFamily:
    return TreeFamily(kind="t_eta_kappa", eta=eta, kappa=kappa)


def binary() -> TreeFamily:
    return TreeFamily(kind="binary")
