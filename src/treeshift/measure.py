"""Finitely atomic measures, moments, and moment-sequence tests.

Moments of negative order follow the convention 1/0 = inf, so a measure with
an atom at 0 has infinite negative moments, and a :class:`MomentPrefix`
holds finite terms only.  The positive-semidefiniteness test used by
:func:`is_stieltjes` runs on a small hand-rolled Jacobi eigensolver (O(n) per
rotation, stopping after the first sweep that rotates nothing); the
LAPACK-backed check lives in :mod:`treeshift.oracle` so the two routes stay
independent.  The alternating sequence a_n has one evaluation,
:func:`ca_sequence`, which :func:`ca_term` reads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate, repeat
from math import comb
from operator import add, mul
from typing import Iterable, Optional, Sequence

__all__ = [
    "AtomicMeasure",
    "MomentPrefix",
    "SequenceVerdict",
    "ConditionViolated",
    "EmptyPrefixError",
    "moment",
    "is_stieltjes",
    "is_completely_alternating",
    "backward_extend_stieltjes",
    "backward_extend_ca",
    "jacobi_min_eig",
    "REL_TOL",
]

REL_TOL = 1e-10
"""The slack of the closed-form comparisons (``classify.REL_TOL``), the broom
models' conditions (``models.TOL``) and the [0, 1] support of a ``ca_ratio``
tail, one number so that a model built by ``models`` passes the predicate that
tests the same condition.  A sum of d squared moduli is off by about
d * 2.2e-16, so this stays three orders above rounding up to degree 10^3."""

PSD_TOL = 1e-9
"""Slack of the sequence tests, relative to 1 + max |t_n|: an alternating
difference of order n rounds by up to 2^n * 2.2e-16 (2.3e-10 at n = 20); the
least eigenvalue of a singular Hankel matrix of an atomic measure came out
within 3e-16 of 0 up to order 12 (200 random measures on (0.05, 2])."""


class ConditionViolated(ValueError):
    def __init__(self, message, value):
        super().__init__(f"{message} (got {value!r})")
        self.value = value


class NotProbabilityError(ValueError):
    def __init__(self, branch, mass):
        super().__init__(f"measure {branch} has total mass {mass!r}")
        self.branch = branch


class EmptyPrefixError(ValueError):
    pass


@dataclass(frozen=True)
class AtomicMeasure:
    """A finite positive combination of point masses on [0, oo)."""

    atoms: tuple  # ((point, mass), ...) sorted by point, points distinct

    def __post_init__(self):
        for p, m in self.atoms:
            if not (math.isfinite(p) and math.isfinite(m)):
                raise ValueError(f"atom ({p!r}, {m!r}) is not finite")
        pts = [p for p, _ in self.atoms]
        if any(p < 0 for p in pts):
            raise ValueError("atoms must sit on [0, oo)")
        if any(m <= 0 for _, m in self.atoms):
            raise ValueError("masses must be positive")
        if sorted(pts) != pts or len(set(pts)) != len(pts):
            raise ValueError("points must be distinct and sorted ascending")

    @staticmethod
    def from_pairs(pairs: Iterable[tuple]) -> "AtomicMeasure":
        merged: dict = {}
        for p, m in pairs:
            p, m = float(p), float(m)
            merged[p] = merged.get(p, 0.0) + m
        atoms = tuple(sorted((p, m) for p, m in merged.items() if m != 0.0))
        return AtomicMeasure(atoms=atoms)

    @staticmethod
    def delta(point: float, mass: float = 1.0) -> "AtomicMeasure":
        return AtomicMeasure.from_pairs([(point, mass)])

    @staticmethod
    def zero() -> "AtomicMeasure":
        return AtomicMeasure(atoms=())

    def total_mass(self) -> float:
        return sum(m for _, m in self.atoms)

    def is_probability(self, tol: float = 1e-12) -> bool:
        return abs(self.total_mass() - 1.0) <= tol

    def support_max(self) -> float:
        return self.atoms[-1][0] if self.atoms else 0.0

    def support_min(self) -> float:
        return self.atoms[0][0] if self.atoms else 0.0

    def scaled(self, c: float) -> "AtomicMeasure":
        return AtomicMeasure(atoms=tuple((p, c * m) for p, m in self.atoms))

    def to_json(self) -> dict:
        return {"atoms": [[p, m] for p, m in self.atoms]}

    @staticmethod
    def from_json(d: dict) -> "AtomicMeasure":
        return AtomicMeasure.from_pairs(d["atoms"])


def moment(m: AtomicMeasure, n: int) -> float:
    """sum mass * point**n; +inf when n < 0 and an atom sits at 0."""
    return atoms_moment(m.atoms, n)


def atoms_moment(atoms: Iterable[tuple], n: int) -> float:
    """:func:`moment` of (point, mass) pairs that need not form a measure."""
    total = 0.0
    for p, w in atoms:
        if p == 0.0:
            if n < 0:
                return math.inf
            total += w if n == 0 else 0.0
        else:
            total += w * p ** n
    return total


@dataclass(frozen=True)
class MomentPrefix:
    """A finite run t_0 ... t_N of a real sequence."""

    values: tuple

    def __post_init__(self):
        if len(self.values) == 0:
            raise EmptyPrefixError("empty prefix")
        bad = next((v for v in self.values if not math.isfinite(v)), None)
        if bad is not None:
            raise ValueError(f"prefix term {bad!r} is not finite")

    @staticmethod
    def of(values: Sequence[float]) -> "MomentPrefix":
        return MomentPrefix(values=tuple(float(v) for v in values))

    @staticmethod
    def from_measure(m: AtomicMeasure, upto: int) -> "MomentPrefix":
        return MomentPrefix.of([moment(m, n) for n in range(upto + 1)])


@dataclass(frozen=True)
class SequenceVerdict:
    ok: bool
    checked_to: int
    witness: Optional[tuple] = None  # kind-specific
    value: Optional[float] = None

    def __bool__(self) -> bool:
        return self.ok


def jacobi_min_eig(a: Sequence[Sequence[float]], sweeps: int = 64, eps: float = 1e-14) -> float:
    """Minimum eigenvalue of a small real symmetric matrix by cyclic Jacobi.

    Rotates (p, q) when |a_pq| > eps * (|a_pp| + |a_qq| + 1), in place on
    rows and columns p and q of Python floats (O(n) work), zeroing a_pq.  The
    loop stops after the first sweep that rotates nothing, as every later
    sweep would leave the matrix as it is; ``sweeps`` only caps it.  A
    matrix with a non-finite entry gives NaN.
    """
    a = [[float(x) for x in row] for row in a]
    n = len(a)
    if not all(math.isfinite(x) for row in a for x in row):
        return math.nan
    for _ in range(sweeps):
        rotated = False
        for p in range(n - 1):
            ap = a[p]
            for q in range(p + 1, n):
                aq, apq = a[q], ap[q]
                if abs(apq) <= eps * (abs(ap[p]) + abs(aq[q]) + 1.0):
                    continue
                rotated = True
                theta = (aq[q] - ap[p]) / (2.0 * apq)
                t = math.copysign(1.0, theta) / (abs(theta) + math.hypot(1.0, theta))
                c = 1.0 / math.sqrt(1.0 + t * t)
                s = t * c
                for k in range(n):
                    if k != p and k != q:
                        akp, akq = ap[k], aq[k]
                        ap[k] = a[k][p] = c * akp - s * akq
                        aq[k] = a[k][q] = s * akp + c * akq
                ap[p] -= t * apq
                aq[q] += t * apq
                ap[q] = aq[p] = 0.0
        if not rotated:
            break
    return min(a[i][i] for i in range(n))


def is_stieltjes(p: MomentPrefix, tol: float = PSD_TOL) -> SequenceVerdict:
    """Necessary-only moment test: both Hankel ladders must stay PSD.

    Checks every admissible order of [t_{i+j}] and [t_{i+j+1}].  A failure
    carries (shift, order) of the smallest violating matrix.  Passing a
    finite prefix is necessary, never sufficient.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    vals = p.values
    n = len(vals)
    scale = 1.0 + max(abs(v) for v in vals)
    thr = -tol * scale
    top = (n + 1) // 2  # the largest order of a shift-0 matrix
    for order in range(1, top + 1):
        for shift in (0, 1):
            if shift + 2 * (order - 1) < n:
                ev = jacobi_min_eig([vals[shift + i : shift + i + order] for i in range(order)])
                if ev < thr:
                    return SequenceVerdict(ok=False, checked_to=n - 1, witness=(shift, order), value=ev)
    return SequenceVerdict(ok=True, checked_to=n - 1, witness=None, value=float(top))


def is_completely_alternating(p: MomentPrefix, tol: float = PSD_TOL) -> SequenceVerdict:
    """Necessary-only test: every alternating difference over the window is <= 0.

    Checks sum_j (-1)^j C(n,j) a_{m+j} <= 0 for all m >= 0, n >= 1 with
    m + n inside the prefix; a failure names the violating (m, n).
    """
    vals = p.values
    if len(vals) < 2:
        raise EmptyPrefixError("need at least two terms")
    scale = 1.0 + max(abs(v) for v in vals)
    thr = tol * scale
    for n in range(1, len(vals)):
        for m in range(0, len(vals) - n):
            s = sum((-1) ** j * comb(n, j) * vals[m + j] for j in range(n + 1))
            if s > thr:
                return SequenceVerdict(
                    ok=False, checked_to=len(vals) - 1, witness=(m, n), value=s
                )
    return SequenceVerdict(ok=True, checked_to=len(vals) - 1)


def backward_extend_stieltjes(m: AtomicMeasure, tol: float = 1e-12) -> AtomicMeasure:
    """One-step backward extension: nu with moment(nu, n+1) = moment(m, n).

    Requires moment(m, -1) <= 1; the mass deficit, if any, lands in an atom
    at 0.
    """
    neg1 = moment(m, -1)
    if neg1 > 1.0 + tol:
        raise ConditionViolated("need integral of 1/s d(mu) <= 1", neg1)
    pairs = [(p, w / p) for p, w in m.atoms if p > 0]
    deficit = 1.0 - neg1
    if deficit > tol:
        pairs.append((0.0, deficit))
    return AtomicMeasure.from_pairs(pairs)


def backward_extend_ca(a0: float, t: AtomicMeasure, tol: float = 1e-12) -> AtomicMeasure:
    """Backward extension of an alternating-representation measure on [0,1].

    Requires 1 + moment(t, -1) <= a0; returns (1/s) t plus the deficit mass
    at 0, the representing measure of the sequence prepended with 1.
    """
    if t.atoms and t.support_max() > 1.0 + tol:
        raise ValueError("measure must be supported in [0, 1]")
    neg1 = moment(t, -1)
    if 1.0 + neg1 > a0 + tol:
        raise ConditionViolated("need 1 + integral of 1/s d(tau) <= a0", 1.0 + neg1)
    pairs = [(p, w / p) for p, w in t.atoms if p > 0]
    deficit = a0 - 1.0 - neg1
    if deficit > tol:
        pairs.append((0.0, deficit))
    return AtomicMeasure.from_pairs(pairs)


def ca_term(a0: float, t: AtomicMeasure, n: int) -> float:
    """a_n = a_0 + integral of (1 + s + ... + s^(n-1)) d(tau); a_0 for n <= 0."""
    return ca_sequence(a0, t, max(n, 0))[-1]


def ca_sequence(a0: float, t: AtomicMeasure, upto: int) -> list:
    """[a_0, ..., a_upto] of :func:`ca_term`, in O(upto).

    Each atom's power sums 1 + s + ... + s^(n-1) run along, added term by
    term from the integer 0, so the floats do not depend on whether the
    interpreter's ``sum`` compensates (it does from Python 3.12 on).
    """
    out = [a0] * (upto + 1)
    for p, w in t.atoms:
        sums = accumulate(map(pow, repeat(p), range(upto)), initial=0)
        out = list(map(add, out, map(mul, repeat(w), sums)))
    return list(map(float, out))
