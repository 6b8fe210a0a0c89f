"""Brute-force cross-checks on sparse truncation matrices.

Everything here is deliberately independent of the closed-form routes: the
norm and positivity both come from LAPACK eigensolves on explicitly
assembled matrices, the norm from those of A*A.  Truncation artifacts are
removed by projecting onto *interior* vertices, whose local neighbourhood is
fully materialized, so agreement with the closed forms is exact at finite
depth.

A truncation holds the matrix of S as index arrays, one entry per edge, and
every matrix is a list of (row, column, value) triples: a product joins the
entries of its factors on the inner index and sums the entries that land on
one position, so no n x n array is formed.  An eigenvalue check splits its
restricted matrix into the connected components of that matrix's own
nonzero entries and solves all components of one size in one stacked
``eigh``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .measure import MomentPrefix
from .shift import WeightSystem
from .tree import DirectedTree, Materialized, TreeFamily, as_complete

__all__ = [
    "Truncation",
    "OracleVerdict",
    "EmptyInteriorError",
    "InsufficientLengthError",
    "truncate",
    "operator_norm",
    "selfcommutator_check",
    "power_selfcommutator_check",
    "hankel_min_eig",
    "kernel_dims",
    "matrix_power_norm",
    "adjoint_power_norm",
]

WITNESS_TIE = 1e-9  # eigenvector components this close to the largest are tied


class EmptyInteriorError(ValueError):
    pass


class InsufficientLengthError(ValueError):
    pass


@dataclass(frozen=True)
class Truncation:
    """The matrix of S on a depth-bounded prefix, as index arrays.

    Position i holds vertex ``order[i]`` (BFS order, canonical child order).
    ``parent[i]`` is its parent's position, -1 at the root, and ``weight[i]``
    its weight (0 at the root): the matrix has the entry ``weight[i]`` at
    (i, ``parent[i]``) and no other.  ``complete[i]`` is set when all of the
    vertex's children are present.
    """

    materialized: Materialized
    order: tuple  # BFS vertex ordering
    index: dict  # vertex -> position
    parent: np.ndarray
    weight: np.ndarray
    complete: np.ndarray
    interior: frozenset

    def pos(self, v: str) -> int:
        return self.index[v]


@dataclass(frozen=True)
class OracleVerdict:
    ok: bool
    min_eig: float
    witness: Optional[str] = None

    def __bool__(self):
        return self.ok


class _Coo(NamedTuple):
    """A sparse complex matrix as (row, column, value) triples."""

    rows: np.ndarray
    cols: np.ndarray
    vals: np.ndarray

    def adjoint(self) -> "_Coo":
        return _Coo(self.cols, self.rows, self.vals.conj())


def _coalesce(rows, cols, vals, n: int) -> _Coo:
    """One entry per position, sorted by (row, column); duplicates are summed
    in the order given."""
    keys, inverse = np.unique(rows * n + cols, return_inverse=True)
    out = np.zeros(len(keys), complex)
    np.add.at(out, inverse, vals)
    return _Coo(keys // n, keys % n, out)


def _product(a: _Coo, b: _Coo, n: int) -> _Coo:
    """a @ b: every entry (i, j) of a meets every entry (j, k) of b."""
    by_row = np.argsort(b.rows, kind="stable")
    b_rows = b.rows[by_row]
    lo = np.searchsorted(b_rows, a.cols, "left")
    count = np.searchsorted(b_rows, a.cols, "right") - lo
    ia = np.repeat(np.arange(len(a.rows)), count)
    # the entries of b that meet entry i of a: lo[i], ..., lo[i] + count[i] - 1
    ib = by_row[np.repeat(lo - np.cumsum(count) + count, count) + np.arange(len(ia))]
    return _coalesce(a.rows[ia], b.cols[ib], a.vals[ia] * b.vals[ib], n)


def _difference(a: _Coo, b: _Coo, n: int) -> _Coo:
    return _coalesce(np.concatenate([a.rows, b.rows]), np.concatenate([a.cols, b.cols]),
                     np.concatenate([a.vals, -b.vals]), n)


def _diagonal_matrix(d: np.ndarray) -> _Coo:
    pos = np.arange(len(d))
    return _Coo(pos, pos, d.astype(complex))


def _diagonal(m: _Coo, n: int) -> np.ndarray:
    """The diagonal of a coalesced matrix."""
    d = np.zeros(n, complex)
    on = m.rows == m.cols
    d[m.rows[on]] = m.vals[on]
    return d


def _matvec(m: _Coo, x: np.ndarray) -> np.ndarray:
    y = np.zeros(len(x), complex)
    np.add.at(y, m.rows, m.vals * x[m.cols])
    return y


def truncate(obj, depth: int, weights: Optional[WeightSystem] = None) -> Truncation:
    """Lay a depth-bounded prefix out in BFS order with its weights.

    ``obj`` may be a family, a materialized prefix, or a finite tree.  The BFS
    ordering (canonical child order) is deterministic.  Interior vertices have
    all children present and a present parent (or are the true root).  Each
    weight is read through ``weights.weight``.
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    if isinstance(obj, TreeFamily):
        m = obj.materialize(depth)
    elif isinstance(obj, Materialized):
        m = obj
    elif isinstance(obj, DirectedTree):
        m = as_complete(obj)
    else:
        raise TypeError(f"cannot truncate {type(obj).__name__}")
    t = m.tree
    order = [t.root]
    for u in order:  # the list grows while it is walked: a BFS
        order.extend(t.children[u])
    index = {v: i for i, v in enumerate(order)}
    n = len(order)
    parent = np.fromiter((index.get(t.parent.get(v), -1) for v in order), np.int64, n)
    weight = np.zeros(n, complex)
    if weights is not None:
        weight[1:] = [weights.weight(v) for v in order[1:]]
    complete = np.fromiter((v in m.complete for v in order), bool, n)
    interior = frozenset(
        v for v, inside in zip(order, _interior(m, parent, complete)) if inside
    )
    return Truncation(
        materialized=m, order=tuple(order), index=index, parent=parent, weight=weight,
        complete=complete, interior=interior,
    )


def _interior(m: Materialized, parent: np.ndarray, complete: np.ndarray) -> np.ndarray:
    return complete & ((parent >= 0) | (not m.boundary_root))


def _matrix(tr: Truncation) -> _Coo:
    kids = np.flatnonzero(tr.parent >= 0)
    return _Coo(kids, tr.parent[kids], tr.weight[kids])


def _norms_squared(a: _Coo, n: int) -> np.ndarray:
    """||S e_u||^2 per position: the diagonal of A*A."""
    return _diagonal(_product(a.adjoint(), a, n), n).real


def _components(rows: np.ndarray, cols: np.ndarray, n: int) -> np.ndarray:
    """Per position, the least position joined to it through the entries
    (rows[e], cols[e]): label propagation with pointer jumping."""
    label = np.arange(n)
    while True:
        low = np.minimum(label[rows], label[cols])
        new = label.copy()
        np.minimum.at(new, rows, low)
        np.minimum.at(new, cols, low)
        new = new[new]
        if np.array_equal(new, label):
            return label
        label = new


def operator_norm(tr: Truncation) -> float:
    """Largest singular value: the square root of the largest eigenvalue of
    A*A, taken block by block."""
    n = len(tr.order)
    a = _matrix(tr)
    b = _product(a.adjoint(), a, n)
    top = max(float(evs[:, -1].max()) for _, _, evs, _ in _blocks(b, np.ones(n, bool)))
    return math.sqrt(max(top, 0.0))


def _blocks(m: _Coo, keep: np.ndarray):
    """The Hermitian part of ``m`` on the positions in ``keep``, block by block.

    The restriction splits into the connected components of its nonzero
    entries.  Per component size this yields ``(members, stack, evs, vecs)``:
    each component's positions in ascending order, one row per component and
    the rows ordered by their first position; the components' blocks; and
    one stacked ``eigh`` of them.
    """
    n = len(keep)
    inside = keep[m.rows] & keep[m.cols] & (m.vals != 0)
    rows, cols, vals = m.rows[inside], m.cols[inside], m.vals[inside]
    label = _components(rows, cols, n)
    pos = np.flatnonzero(keep)
    pos = pos[np.lexsort((pos, label[pos]))]
    first = np.flatnonzero(np.r_[True, np.diff(label[pos]) != 0])
    size = np.diff(np.r_[first, len(pos)])
    block = np.full(n, -1)
    block[pos] = np.repeat(np.arange(len(first)), size)
    rank = np.zeros(n, np.int64)
    rank[pos] = np.arange(len(pos)) - np.repeat(first, size)
    for s in np.unique(size):
        ids = np.flatnonzero(size == s)
        slot = np.full(len(first), -1)
        slot[ids] = np.arange(len(ids))
        mine = slot[block[rows]] >= 0
        stack = np.zeros((len(ids), s, s), complex)
        stack[slot[block[rows[mine]]], rank[rows[mine]], rank[cols[mine]]] = vals[mine]
        stack = (stack + stack.conj().transpose(0, 2, 1)) / 2.0
        evs, vecs = np.linalg.eigh(stack)
        yield pos[first[ids, None] + np.arange(s)], stack, evs, vecs


def _min_eig(tr: Truncation, m: _Coo, keep: np.ndarray, tol: float) -> OracleVerdict:
    """Least eigenvalue of the Hermitian part of ``m`` on the positions in ``keep``.

    The least eigenvalue over the blocks wins, a tie going to the block with
    the earliest position; the witness is the earliest position among the
    components of its eigenvector within ``WITNESS_TIE`` (relative) of the
    largest.
    """
    scale, best = 1.0, None
    for members, stack, evs, vecs in _blocks(m, keep):
        scale = max(scale, 1.0 + float(np.max(np.abs(stack))))
        j = int(np.argmin(evs[:, 0]))  # the first of equal minima: the earliest block
        cand = (float(evs[j, 0]), int(members[j, 0]), members[j], vecs[j, :, 0])
        if best is None or cand[:2] < best[:2]:
            best = cand
    min_eig, _, members, vec = best
    ok = min_eig >= -tol * scale
    witness = None
    if not ok:
        mag = np.abs(vec)
        top = int(np.argmax(mag >= (1.0 - WITNESS_TIE) * mag.max()))
        witness = tr.order[members[top]]
    return OracleVerdict(ok=bool(ok), min_eig=min_eig, witness=witness)


def selfcommutator_check(tr: Truncation, p: float = 1.0, tol: float = 1e-10) -> OracleVerdict:
    """Positivity of |S|^2p - |S*|^2p on the interior block.

    |S|^2p is the diagonal D of 2p-th norm powers; |S*|^2p is U D U*, with U
    the polar partial isometry.  Interior projection removes every truncation
    artifact, so the verdict is exact for the infinite operator restricted
    there.
    """
    if p <= 0:
        raise ValueError("p must be positive")
    if not tr.interior:
        raise EmptyInteriorError("no interior vertices at this depth")
    n = len(tr.order)
    a = _matrix(tr)
    n2 = _norms_squared(a, n)
    d = _diagonal_matrix(n2 ** p)
    norms2 = n2[a.cols]
    u = _Coo(a.rows, a.cols, np.divide(a.vals, np.sqrt(norms2), out=np.zeros_like(a.vals), where=norms2 > 0))
    m = _difference(d, _product(_product(u, d, n), u.adjoint(), n), n)
    return _min_eig(tr, m, _interior(tr.materialized, tr.parent, tr.complete), tol)


def _power_safe(tr: Truncation, k: int) -> np.ndarray:
    """Positions whose k-step up and down neighbourhoods are fully present:
    from the ancestor k levels up (or the true root), every vertex of the
    next 2k levels down is complete."""
    m = tr.materialized
    parent = tr.parent
    top = np.arange(len(parent))
    safe = np.ones(len(parent), bool)
    for _ in range(k):
        up = parent[top]
        if m.boundary_root:
            safe &= up >= 0
        top = np.where(up >= 0, up, top)
    # near[x]: an incomplete vertex lies within 2k - 1 levels below x
    near = ~tr.complete
    level = near
    for _ in range(2 * k - 1):
        below = level & (parent >= 0)
        level = np.zeros_like(near)
        level[parent[below]] = True
        near = near | level
    return safe & ~near[top]


def power_selfcommutator_check(tr: Truncation, k: int = 2, tol: float = 1e-10) -> OracleVerdict:
    """Hyponormality probe for the k-th matrix power on safe vertices.

    Searches basis vectors first (a violation there is a certificate), then
    falls back to the eigenvalue of the projected self-commutator.
    """
    safe = _power_safe(tr, k)
    if not safe.any():
        raise EmptyInteriorError(f"no vertex supports a power-{k} check")
    n = len(tr.order)
    a = _matrix(tr)
    b = a
    for _ in range(k - 1):
        b = _product(b, a, n)
    bh = b.adjoint()
    m = _difference(_product(bh, b, n), _product(b, bh, n), n)
    gaps = _diagonal(m, n).real
    bad = np.flatnonzero(safe & (gaps < -tol * (1.0 + np.abs(gaps))))
    if bad.size:
        i = int(bad[0])
        return OracleVerdict(ok=False, min_eig=float(gaps[i]), witness=tr.order[i])
    return _min_eig(tr, m, safe, tol)


def hankel_min_eig(p: MomentPrefix, shift: int = 0) -> float:
    """LAPACK minimum eigenvalue of the largest admissible Hankel matrix."""
    if shift not in (0, 1):
        raise ValueError("shift must be 0 or 1")
    vals = p.values
    order = (len(vals) - shift + 1) // 2
    if order < 1:
        raise InsufficientLengthError("prefix too short for the requested matrix")
    h = np.array([[vals[shift + i + j] for j in range(order)] for i in range(order)])
    return float(np.linalg.eigvalsh(h)[0])


def kernel_dims(tr: Truncation) -> tuple:
    """(dim ker S, dim ker S*) counted structurally on the truncation.

    ker S* decomposes as the root line plus, per complete vertex, the
    orthogonal complement of its child weight vector; ker S collects the
    complete vertices whose outgoing weights all vanish.  Exact whenever the
    un-materialized part is leafless with nonvanishing weights.
    """
    m = tr.materialized
    n = len(tr.order)
    n2 = _norms_squared(_matrix(tr), n)
    kids = np.bincount(tr.parent[tr.parent >= 0], minlength=n)
    dead = tr.complete & (n2 == 0.0)  # leaves, and vertices whose weights vanish
    live = tr.complete & ~dead
    dim_ker = int(dead.sum())
    dim_coker = 1 if (m.tree.root is not None and not m.boundary_root) else 0
    dim_coker += int(kids[dead].sum() + (kids[live] - 1).sum())
    return dim_ker, dim_coker


def matrix_power_norm(tr: Truncation, u: str, n: int) -> float:
    """||A^n e_u|| by repeated sparse matvec."""
    return _power_norm(tr, _matrix(tr), u, n)


def adjoint_power_norm(tr: Truncation, u: str, n: int) -> float:
    return _power_norm(tr, _matrix(tr).adjoint(), u, n)


def _power_norm(tr: Truncation, a: _Coo, u: str, n: int) -> float:
    x = np.zeros(len(tr.order), complex)
    x[tr.pos(u)] = 1.0
    for _ in range(n):
        x = _matvec(a, x)
    return float(np.linalg.norm(x))
