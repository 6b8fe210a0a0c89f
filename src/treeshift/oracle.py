"""Brute-force cross-checks on dense truncation matrices.

Everything here is deliberately independent of the closed-form routes: norms
come from power iteration, positivity from LAPACK eigensolves on explicitly
assembled matrices.  Truncation artifacts are removed by projecting onto
*interior* vertices, whose local neighbourhood is fully materialized, so
agreement with the closed forms is exact at finite depth.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .measure import MomentPrefix
from .shift import WeightSystem
from .tree import DirectedTree, Materialized, TreeFamily, as_complete

__all__ = [
    "Truncation",
    "OracleVerdict",
    "NonConvergenceError",
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

POWER_ITERATION_CAP = 100_000


class NonConvergenceError(RuntimeError):
    def __init__(self, iterations):
        super().__init__(f"power iteration did not settle in {iterations} steps")
        self.iterations = iterations


class EmptyInteriorError(ValueError):
    pass


class InsufficientLengthError(ValueError):
    pass


@dataclass(frozen=True)
class Truncation:
    materialized: Materialized
    order: tuple  # BFS vertex ordering
    index: dict  # vertex -> position
    matrix: np.ndarray  # matrix[i, j] = weight(v_i) if v_j is parent(v_i)
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


def truncate(obj, depth: int, weights: Optional[WeightSystem] = None) -> Truncation:
    """Assemble the dense matrix of a depth-bounded prefix.

    ``obj`` may be a family, a materialized prefix, or a finite tree.  The BFS
    ordering (canonical child order) is deterministic.  Interior vertices have
    all children present and a present parent (or are the true root).
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
    order = []
    queue = [t.root]
    while queue:
        u = queue.pop(0)
        order.append(u)
        queue.extend(t.children[u])
    index = {v: i for i, v in enumerate(order)}
    n = len(order)
    a = np.zeros((n, n), dtype=complex)
    if weights is not None:
        for v in order:
            p = t.parent.get(v)
            if p is not None:
                a[index[v], index[p]] = weights.weight(v)
    interior = frozenset(
        v
        for v in order
        if v in m.complete and (t.parent.get(v) is not None or not m.boundary_root)
    )
    return Truncation(
        materialized=m, order=tuple(order), index=index, matrix=a, interior=interior
    )


def operator_norm(tr: Truncation, tol: float = 1e-6) -> float:
    """Largest singular value by power iteration on A*A (all-ones seed)."""
    if tol <= 0:
        raise ValueError("tol must be positive")
    a = tr.matrix
    b = a.conj().T @ a
    n = b.shape[0]
    x = np.ones(n) / math.sqrt(n)
    est = 0.0
    for _ in range(POWER_ITERATION_CAP):
        y = b @ x
        ny = np.linalg.norm(y)
        if ny == 0.0:
            return 0.0
        new_est = float(np.real(np.vdot(x, y)))
        x = y / ny
        # successive Rayleigh quotients can stall near-degenerate pairs, so
        # demand a margin well below the requested accuracy
        if abs(new_est - est) <= 1e-4 * tol * max(new_est, 1e-300):
            return math.sqrt(max(new_est, 0.0))
        est = new_est
    raise NonConvergenceError(POWER_ITERATION_CAP)


def _norms_squared_from_matrix(tr: Truncation) -> np.ndarray:
    a = tr.matrix
    return np.real(np.sum(a.conj() * a, axis=0))


def _partial_isometry(tr: Truncation) -> np.ndarray:
    a = tr.matrix.copy()
    n2 = _norms_squared_from_matrix(tr)
    t = tr.materialized.tree
    for v in tr.order:
        p = t.parent.get(v)
        if p is None:
            continue
        j, i = tr.pos(p), tr.pos(v)
        a[i, j] = a[i, j] / math.sqrt(n2[j]) if n2[j] > 0 else 0.0
    return a


def selfcommutator_check(tr: Truncation, p: float = 1.0, tol: float = 1e-10) -> OracleVerdict:
    """Positivity of |S|^2p - |S*|^2p on the interior block.

    |S|^2p is the diagonal of 2p-th norm powers; |S*|^2p is its conjugation
    by the polar partial isometry.  Interior projection removes every
    truncation artifact, so the verdict is exact for the infinite operator
    restricted there.
    """
    if p <= 0:
        raise ValueError("p must be positive")
    if not tr.interior:
        raise EmptyInteriorError("no interior vertices at this depth")
    n2 = _norms_squared_from_matrix(tr)
    dpow = n2 ** p
    u = _partial_isometry(tr)
    m = np.diag(dpow) - (u * dpow) @ u.conj().T  # u * dpow is u @ diag(dpow)
    idx = sorted(tr.pos(v) for v in tr.interior)
    sub = m[np.ix_(idx, idx)]
    sub = (sub + sub.conj().T) / 2.0
    evs, vecs = np.linalg.eigh(sub)
    scale = 1.0 + float(np.max(np.abs(sub))) if sub.size else 1.0
    ok = evs[0] >= -tol * scale
    witness = None
    if not ok:
        dom = int(np.argmax(np.abs(vecs[:, 0])))
        witness = tr.order[idx[dom]]
    return OracleVerdict(ok=bool(ok), min_eig=float(evs[0]), witness=witness)


def _interior_for_power(tr: Truncation, k: int) -> list:
    """Vertices whose k-step up and down neighbourhoods are fully present."""
    m = tr.materialized
    t = m.tree
    out = []
    for u in tr.order:
        x, safe = u, True
        for _ in range(k):
            p = t.parent.get(x)
            if p is None:
                if m.boundary_root:
                    safe = False
                break
            x = p
        if not safe:
            continue
        # everything reachable downward within 2k levels of the top ancestor
        # must have complete children up to the horizon
        level = {x}
        for step in range(2 * k):
            nxt = set()
            for y in level:
                if y not in m.complete:
                    safe = False
                    break
                nxt.update(t.children[y])
            if not safe:
                break
            level = nxt
        if safe:
            out.append(u)
    return out


def power_selfcommutator_check(tr: Truncation, k: int = 2, tol: float = 1e-10) -> OracleVerdict:
    """Hyponormality probe for the k-th matrix power on safe vertices.

    Searches basis vectors first (a violation there is a certificate), then
    falls back to the eigenvalue of the projected self-commutator.
    """
    safe = _interior_for_power(tr, k)
    if not safe:
        raise EmptyInteriorError(f"no vertex supports a power-{k} check")
    b = np.linalg.matrix_power(tr.matrix, k)
    m = b.conj().T @ b - b @ b.conj().T
    idx = sorted(tr.pos(v) for v in safe)
    for i in idx:
        gap = float(np.real(m[i, i]))
        if gap < -tol * (1.0 + abs(gap)):
            return OracleVerdict(ok=False, min_eig=gap, witness=tr.order[i])
    sub = m[np.ix_(idx, idx)]
    sub = (sub + sub.conj().T) / 2.0
    evs, vecs = np.linalg.eigh(sub)
    scale = 1.0 + float(np.max(np.abs(sub))) if sub.size else 1.0
    ok = evs[0] >= -tol * scale
    witness = None
    if not ok:
        witness = tr.order[idx[int(np.argmax(np.abs(vecs[:, 0])))]]
    return OracleVerdict(ok=bool(ok), min_eig=float(evs[0]), witness=witness)


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
    t = m.tree
    n2 = _norms_squared_from_matrix(tr)
    dim_ker = 0
    dim_coker = 1 if (t.root is not None and not m.boundary_root) else 0
    for u in tr.order:
        if u not in m.complete:
            continue
        kids = t.children[u]
        if not kids:
            dim_ker += 1
            continue
        if n2[tr.pos(u)] == 0.0:
            dim_ker += 1
            dim_coker += len(kids)
        else:
            dim_coker += len(kids) - 1
    return dim_ker, dim_coker


def matrix_power_norm(tr: Truncation, u: str, n: int) -> float:
    """||A^n e_u|| by repeated dense matvec."""
    x = np.zeros(len(tr.order), dtype=complex)
    x[tr.pos(u)] = 1.0
    for _ in range(n):
        x = tr.matrix @ x
    return float(np.linalg.norm(x))


def adjoint_power_norm(tr: Truncation, u: str, n: int) -> float:
    x = np.zeros(len(tr.order), dtype=complex)
    x[tr.pos(u)] = 1.0
    ah = tr.matrix.conj().T
    for _ in range(n):
        x = ah @ x
    return float(np.linalg.norm(x))
