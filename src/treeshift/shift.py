"""The weighted shift as a computable object.

A :class:`WeightSystem` assigns a complex weight to every non-root vertex,
either explicitly (``base``) or through family rules (branch heads plus tail
generators).  All operations work on a :class:`~treeshift.tree.Materialized`
prefix and refuse to answer when the truncation cannot support the question.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Mapping, Optional

import numpy as np

from .measure import REL_TOL, AtomicMeasure, atoms_moment, ca_sequence
from .tree import IndeterminateError, Materialized, TreeFamily, UnknownVertexError, vertex_key

__all__ = [
    "IncompleteTruncationError",
    "UnknownWeightError",
    "NonFiniteWeightError",
    "WeightSystem",
    "FredholmData",
    "NormResult",
    "DirectionReport",
    "DomainInclusionReport",
    "ConstantTail",
    "GeometricTail",
    "FactorialTail",
    "AffineTail",
    "MomentRatioTail",
    "CaRatioTail",
    "SequenceTail",
    "TrunkMomentRatioTail",
    "BranchRule",
    "Run",
    "BroomWeights",
    "ChainWeights",
    "BinaryWeights",
    "apply",
    "apply_adjoint",
    "norm",
    "power_norm_squared",
    "polar",
    "modulus_power",
    "fredholm_data",
    "normalize_weights",
    "solve_grading",
    "domain_inclusion_criteria",
    "vec_inner",
    "vec_norm",
    "shift_norms_squared",
    "LocalData",
    "local_data",
]


class IncompleteTruncationError(ValueError):
    def __init__(self, vertex, why=""):
        super().__init__(f"truncation too shallow at {vertex!r}" + (f": {why}" if why else ""))
        self.vertex = vertex


class UnknownWeightError(KeyError):
    pass


class NonFiniteWeightError(ValueError):
    """A weight, or a parameter that generates weights, is NaN or infinite."""


def _finite(x, what: str) -> None:
    if not (math.isfinite(x.real) and math.isfinite(x.imag)):
        raise NonFiniteWeightError(f"{what} is not finite: {x!r}")


def _moment_sum(terms, n: int, scale: float = 1.0) -> float:
    """sum c*moment(mu, n) over the (c, mu) terms, with the points divided
    by scale (p / 1.0 is p, so scale 1.0 reads the atoms as they are)."""
    if scale == 1.0:
        return sum([c * atoms_moment(mu.atoms, n) for c, mu in terms])
    return sum([c * atoms_moment([(p / scale, m) for p, m in mu.atoms], n) for c, mu in terms])


def _pivot_ratio(terms, hi: int, lo: int, pivot: float) -> float:
    """sum c*moment(mu, hi) / sum c*moment(mu, lo) over the (c, mu) terms.

    Where that quotient under- or overflows (0/0, x/0, inf, or a spurious
    0), it is taken over the points divided by ``pivot`` and multiplied by
    pivot**(hi - lo): the pivot atom then contributes exactly c times its
    mass, and every other atom at most that.
    """
    def quotient(scale):
        return _moment_sum(terms, hi, scale) / _moment_sum(terms, lo, scale)

    try:
        r = quotient(1.0)  # p / 1.0 is p: the plain quotient
    except (ZeroDivisionError, OverflowError):
        if not pivot > 0.0:
            raise
        r = math.nan
    if (r != 0.0 and math.isfinite(r)) or not pivot > 0.0:
        return r
    return pivot ** (hi - lo) * quotient(pivot)


def _pivot_ratios(terms, lows, pivot: float) -> list:
    """[_pivot_ratio(terms, n + 1, n, pivot) for n in lows], the same floats,
    with each plain moment sum taken once; a quotient that needs the pivot
    is left to :func:`_pivot_ratio`."""
    sums = {}
    for n in sorted({*lows, *(n + 1 for n in lows)}):
        try:
            sums[n] = _moment_sum(terms, n)
        except (ZeroDivisionError, OverflowError):
            sums[n] = None
    out = []
    for n in lows:
        a, b = sums[n + 1], sums[n]
        r = a / b if a is not None and b else math.nan
        out.append(r if r != 0.0 and math.isfinite(r) else _pivot_ratio(terms, n + 1, n, pivot))
    return out


# ---------------------------------------------------------------------------
# Tail rules: closed-form weight generators for the un-materialized part.
# ``values(start, stop)`` is [value(i) for i in range(start, stop)], the same
# numbers bit for bit (and the same error where value raises), computed once
# for the run.  Each tail declares its facts about the moduli |value(i)|,
# i >= start, once:
# ``sup`` and ``inf`` as (bound, exact) and ``ratio_bounds`` as (lo, hi, exact)
# with lo <= |value(i+1)| / |value(i)| <= hi (0/0 reads as 1); exact bounds
# are the sup and inf themselves.  Every verdict beyond a prefix reads these.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConstantTail:
    value_: float

    def __post_init__(self):
        _finite(self.value_, "constant tail value")

    def value(self, idx: int) -> float:
        return self.value_

    def values(self, start: int, stop: int) -> list:
        return [self.value_] * (stop - start)

    def sup(self, start: int):
        return abs(self.value_), True

    def inf(self, start: int):
        return abs(self.value_), True

    def ratio_bounds(self, start: int):
        return 1.0, 1.0, True

    def to_json(self):
        return {"kind": "constant", "value": self.value_}


@dataclass(frozen=True)
class GeometricTail:
    """value(i) = scale * ratio**i."""

    scale: float
    ratio: float

    def __post_init__(self):
        _finite(self.scale, "power tail scale")
        _finite(self.ratio, "power tail ratio")

    def value(self, idx: int) -> float:
        return self.scale * self.ratio ** idx

    def values(self, start: int, stop: int) -> list:
        # Python's pow, as value takes it: numpy's power may differ in the last bit
        return [self.scale * self.ratio ** i for i in range(start, stop)]

    def sup(self, start: int):
        if abs(self.ratio) <= 1.0 or self.scale == 0.0:
            return abs(self.value(start)), True
        return math.inf, True

    def inf(self, start: int):
        if abs(self.ratio) >= 1.0:
            return abs(self.value(start)), True
        return 0.0, True

    def ratio_bounds(self, start: int):
        r = abs(self.ratio)
        if r == 0.0 or self.scale == 0.0:  # zeros, after the scale at index 0
            return 0.0, 1.0, False
        return r, r, True

    def to_json(self):
        return {"kind": "power", "scale": self.scale, "ratio": self.ratio}


@dataclass(frozen=True)
class FactorialTail:
    """value(i) = scale * i!."""

    scale: float = 1.0

    def __post_init__(self):
        _finite(self.scale, "factorial tail scale")

    def value(self, idx: int) -> float:
        return self.scale * math.factorial(idx)

    def values(self, start: int, stop: int) -> list:
        if start >= stop:
            return []
        f = math.factorial(start)  # a running integer product: i! exactly
        out = [self.scale * f]
        for i in range(start + 1, stop):
            f *= i
            out.append(self.scale * f)
        return out

    def sup(self, start: int):
        return (math.inf if self.scale else 0.0), True

    def inf(self, start: int):
        return abs(self.value(start)), True

    def ratio_bounds(self, start: int):
        if self.scale == 0.0:
            return 1.0, 1.0, True
        return float(start + 1), math.inf, True

    def to_json(self):
        return {"kind": "factorial", "scale": self.scale}


@dataclass(frozen=True)
class AffineTail:
    """value(i) = i + 1 - k_n on [k_n, k_{n+1}); the break gaps must grow.

    Models saw-tooth weight schedules with gaps that grow without end: the
    sup is declared inf, and the step ratios, which climb to 2 after each
    break and fall to 1/gap at the next, are declared to reach down to 0.
    """

    breaks: tuple

    def __post_init__(self):
        if not self.breaks or any(a >= b for a, b in zip(self.breaks, self.breaks[1:])):
            raise ValueError(f"affine tail breaks must be nonempty and strictly increasing: {list(self.breaks)}")

    def value(self, idx: int) -> float:
        if idx < self.breaks[0]:
            raise ValueError(f"index {idx} precedes first break")
        k = max(b for b in self.breaks if b <= idx)
        return float(idx + 1 - k)

    def values(self, start: int, stop: int) -> list:
        if start >= stop:
            return []
        self.value(start)  # refuses an index before the first break
        b, out = self.breaks, []
        n = bisect_right(b, start) - 1  # the last break at or below start
        while start < stop:
            end = min(b[n + 1], stop) if n + 1 < len(b) else stop
            out += [float(i + 1 - b[n]) for i in range(start, end)]
            start, n = end, n + 1
        return out

    def sup(self, start: int):
        return math.inf, True

    def inf(self, start: int):
        return 1.0, True

    def ratio_bounds(self, start: int):
        return 0.0, 2.0, True

    def to_json(self):
        return {"kind": "affine", "breaks": list(self.breaks)}


@dataclass(frozen=True)
class MomentRatioTail:
    """value(j)**2 = m_{j-1}/m_{j-2} for the moments of a fixed measure.

    The ratios increase to the top of the support (the moments are
    log-convex), so the sup is exact and no step ratio is below 1.  Deep
    indices, where the moments under- or overflow, are evaluated relative to
    the top of the support.
    """

    measure: AtomicMeasure

    def value(self, idx: int) -> float:
        mu = self.measure
        return math.sqrt(_pivot_ratio([(1.0, mu)], idx - 1, idx - 2, mu.support_max()))

    def values(self, start: int, stop: int) -> list:
        mu = self.measure
        return [math.sqrt(r) for r in _pivot_ratios([(1.0, mu)], range(start - 2, stop - 2), mu.support_max())]

    def sup(self, start: int):
        return math.sqrt(self.measure.support_max()), True

    def inf(self, start: int):
        return self.value(start), True

    def ratio_bounds(self, start: int):
        return 1.0, math.inf, False

    def to_json(self):
        return {"kind": "moment_ratio", "atoms": [[p, m] for p, m in self.measure.atoms]}


@dataclass(frozen=True)
class CaRatioTail:
    """value(j)**2 = a_{j-1}/a_{j-2} with a_n = 1 + integral of (1+...+s^(n-1)).

    For tau on [0,1] the ratios decrease to 1, so both extremes are exact;
    the step ratios increase to 1, so the first one is the least.  An atom
    above 1 (past the slack ``models.construct_chex`` allows) is refused.
    """

    tau: AtomicMeasure

    def __post_init__(self):
        if self.tau.support_max() > 1.0 + REL_TOL:
            raise ValueError(f"ca_ratio tail measure must live on [0,1]: atom at {self.tau.support_max()!r}")

    def value(self, idx: int) -> float:
        return self.values(idx, idx + 1)[0]

    def values(self, start: int, stop: int) -> list:
        a = ca_sequence(1.0, self.tau, max(stop - 2, 0))  # a_n for n <= 0 is a_0
        return [math.sqrt(a[max(j - 1, 0)] / a[max(j - 2, 0)]) for j in range(start, stop)]

    def sup(self, start: int):
        return self.value(start), True

    def inf(self, start: int):
        return 1.0, True

    def ratio_bounds(self, start: int):
        return self.value(start + 1) / self.value(start), 1.0, True

    def to_json(self):
        return {"kind": "ca_ratio", "atoms": [[p, m] for p, m in self.tau.atoms]}


@dataclass(frozen=True)
class TrunkMomentRatioTail:
    """Trunk weights of the subnormal model on the rootless broom.

    value(k)**2 = (sum_i c_i^2 m_i(-(k+1))) / (sum_i c_i^2 m_i(-(k+2))),
    a nonincreasing sequence, so the sup is its first value and no step
    ratio exceeds 1.  Deep indices, where the negative moments overflow, are
    evaluated relative to the smallest point.
    """

    lambda1: tuple
    measures: tuple

    def __post_init__(self):
        for i, c in enumerate(self.lambda1):
            _finite(c, f"trunk lambda1[{i}]")

    def _terms(self):
        terms = [(c ** 2, mu) for c, mu in zip(self.lambda1, self.measures)]
        return terms, min((mu.support_min() for c, mu in terms if c and mu.atoms), default=0.0)

    def value(self, idx: int) -> float:
        terms, low = self._terms()
        return math.sqrt(_pivot_ratio(terms, -(idx + 1), -(idx + 2), low))

    def values(self, start: int, stop: int) -> list:
        terms, low = self._terms()
        return [math.sqrt(r) for r in _pivot_ratios(terms, range(-(start + 2), -(stop + 2), -1), low)]

    def sup(self, start: int):
        return self.value(start), True

    def inf(self, start: int):
        return 0.0, False  # limit exists but is measure-dependent; report lower bound

    def ratio_bounds(self, start: int):
        return 0.0, 1.0, False

    def to_json(self):
        return {
            "kind": "trunk_moment_ratio",
            "lambda1": list(self.lambda1),
            "measures": [[[p, m] for p, m in mu.atoms] for mu in self.measures],
        }


@dataclass(frozen=True)
class SequenceTail:
    """Arbitrary callable tail with declared facts (tests and one-offs);
    without ``declared_ratio`` the step ratios are unknown."""

    fn: object
    declared_sup: float = math.inf
    declared_inf: float = 0.0
    exact: bool = False
    declared_ratio: Optional[tuple] = None

    def value(self, idx: int) -> float:
        return self.fn(idx)

    def values(self, start: int, stop: int) -> list:
        return [self.fn(i) for i in range(start, stop)]

    def sup(self, start: int):
        return self.declared_sup, self.exact

    def inf(self, start: int):
        return self.declared_inf, self.exact

    def ratio_bounds(self, start: int):
        if self.declared_ratio is None:
            return 0.0, math.inf, False
        return (*self.declared_ratio, self.exact)

    def to_json(self):
        raise TypeError("sequence tails are not serializable")


def tail_from_json(d: dict):
    kind = d["kind"]
    if kind == "constant":
        return ConstantTail(float(d["value"]))
    if kind == "power":
        return GeometricTail(float(d.get("scale", 1.0)), float(d["ratio"]))
    if kind == "factorial":
        return FactorialTail(float(d.get("scale", 1.0)))
    if kind == "affine":
        return AffineTail(tuple(int(b) for b in d["breaks"]))
    if kind == "moment_ratio":
        return MomentRatioTail(AtomicMeasure.from_json(d))
    if kind == "ca_ratio":
        return CaRatioTail(AtomicMeasure.from_json(d))
    if kind == "trunk_moment_ratio":
        return TrunkMomentRatioTail(
            tuple(float(x) for x in d["lambda1"]),
            tuple(AtomicMeasure.from_pairs(a) for a in d["measures"]),
        )
    raise ValueError(f"unknown tail kind {kind!r}")


@dataclass(frozen=True)
class BranchRule:
    """Weights along one chain: explicit head values, then a tail rule.

    ``start`` is the index of ``head[0]``; ``tail.value(idx)`` covers
    idx >= start + len(head).
    """

    head: tuple
    tail: Optional[object] = None
    start: int = 1

    def __post_init__(self):
        for i, v in enumerate(self.head):
            _finite(v, f"head[{i}]")

    def value(self, idx: int) -> complex:
        off = idx - self.start
        if 0 <= off < len(self.head):
            return self.head[off]
        if off < 0:
            raise UnknownWeightError(idx)
        if self.tail is None:
            raise UnknownWeightError(idx)
        return self.tail.value(idx)

    def values(self, start: int, stop: int) -> list:
        """[self.value(i) for i in range(start, stop)]: the head's entries,
        then the tail's values."""
        if start >= stop:
            return []
        if start < self.start:
            raise UnknownWeightError(start)
        ts = self.tail_start()
        out = list(self.head[start - self.start:stop - self.start])
        if stop > ts:
            if self.tail is None:
                raise UnknownWeightError(max(start, ts))
            out += self.tail.values(max(start, ts), stop)
        return out

    def tail_start(self) -> int:
        return self.start + len(self.head)

    def sup_abs(self, first: int):
        """(sup of |value(i)| over i >= first, exact)."""
        vals = [abs(v) for v in self.head[max(first - self.start, 0):]]
        if self.tail is None:
            return (max(vals) if vals else 0.0), True
        ts, exact = self.tail.sup(max(first, self.tail_start()))
        return max(vals + [ts]), exact

    def inf_abs_nonzero(self, first: int):
        """(inf of the nonzero head moduli and of the tail's, over i >= first,
        exact); inf where there are none."""
        vals = [abs(v) for v in self.head[max(first - self.start, 0):] if v != 0]
        if self.tail is None:
            return min(vals, default=math.inf), True
        ti, exact = self.tail.inf(max(first, self.tail_start()))
        return min(vals + [ti]), exact

    def to_json(self):
        out = {"head": [_num_to_json(v) for v in self.head], "start": self.start}
        if self.tail is not None:
            out["tail"] = self.tail.to_json()
        return out


def _num_to_json(v):
    v = complex(v)
    if v.imag == 0.0:
        return v.real
    return [v.real, v.imag]


def _num_from_json(x) -> complex:
    if isinstance(x, (list, tuple)):
        real, imag = x  # a list of another length is refused
        return complex(float(real), float(imag))
    return complex(float(x))


# ---------------------------------------------------------------------------
# Family weight rules: map a vertex id to (rule, index), lay the family's
# chains over a prefix, and answer the family-level questions.  ``runs(m)``
# is the one description of the chains: each lies over the positions of the
# prefix ``m`` with its direction, and ``WeightSystem.fill`` writes |lambda|
# from them.  Inside the prefix the fill gives the weights (``base`` wins);
# a rule is read only from its run's first index past the prefix, ``stop``.
# ``norm2_sup(m)`` is (sup of ||S e_u||^2 over the vertices whose child
# weight lies past ``m``, exact).
# ---------------------------------------------------------------------------


def _starts_at(rule: Optional[BranchRule], first: int, what: str) -> None:
    if rule is not None and rule.start < first:
        raise ValueError(f"{what} rule starts at index {rule.start}; its first index is {first}")


@dataclass(frozen=True)
class Run:
    """One chain of a family laid over a prefix: index ``first + k`` of the
    chain sits at position ``at[k]`` (see :attr:`Materialized.arrays`).  The
    indices from ``stop`` on lie past the prefix, up to ``end`` (exclusive)
    in the whole tree.  ``rule`` is None when no rule covers the chain.
    ``direction`` is the way the index runs: 1 along the shift, -1 against it
    (lambda_{-k} by k), 0 where the chain's vertices branch.  Where the
    indices name no vertex (the binary off-spine run, whose rule is one
    constant), ``past`` names a vertex past the prefix that the rule weighs."""

    rule: Optional[BranchRule]
    first: int
    at: np.ndarray
    direction: int
    end: float = math.inf
    past: Optional[str] = None

    @property
    def stop(self) -> int:
        return self.first + len(self.at)

    def beyond(self) -> bool:
        """Does the chain run past the prefix?"""
        return self.end > self.stop

    def covered(self) -> bool:
        """Does the rule give every weight of the chain past the prefix?"""
        r = self.rule
        return not self.beyond() or (
            r is not None and r.start <= self.stop and (r.tail is not None or r.tail_start() >= self.end)
        )

    def write(self, out: np.ndarray) -> None:
        """Write |lambda| at ``at``: NaN where the rule gives no weight, or
        where its values overflow, are refused or are not real moduli.  Those
        are resolved one vertex at a time, where a ``base`` weight comes
        first and the vertex a sweep meets first raises."""
        out[self.at] = np.nan
        r = self.rule
        if r is None:
            return
        lo = max(self.first, r.start)
        hi = self.stop if r.tail is not None else min(self.stop, r.tail_start())
        h = max(0, min(hi, r.tail_start()) - lo)  # head entries, maybe complex
        try:
            vals = r.values(lo, hi)
            mods = np.concatenate(([abs(x) for x in vals[:h]], np.abs(np.array(vals[h:], dtype=float))))
        except (ArithmeticError, ValueError, TypeError):
            return
        out[self.at[lo - self.first:hi - self.first]] = mods


class _FamilyRules:
    """What every rules class derives from its ``runs``, which cover every
    non-root position of the family's prefix once."""

    def _check_family(self, m: Materialized, kind: str, *params) -> None:
        fam = m.family
        if fam is None or fam.kind != kind or (params and (fam.eta, fam.kappa) != params):
            raise UnknownWeightError(f"{type(self).__name__} gives no weights on this prefix")

    def covers(self, m: Materialized) -> bool:
        """Do the rules give every weight past the prefix ``m``?"""
        return all(run.covered() for run in self.runs(m))

    def every_vertex_branches(self, m: Materialized) -> bool:
        return all(run.direction == 0 for run in self.runs(m))

    def norm2_sup(self, m: Materialized) -> tuple:
        """On chains, whose vertices each have one child."""
        best, exact = 0.0, True
        for run in self.runs(m):
            if run.beyond() and run.rule is not None:
                s, ok = run.rule.sup_abs(run.stop)
                best, exact = max(best, s ** 2), exact and ok
        return best, exact


@dataclass(frozen=True)
class BroomWeights(_FamilyRules):
    """Rules on the broom: trunk positions -k carry lambda_{-k} (k=0..kappa-1
    for a finite trunk, all k when the trunk is infinite); branch i carries
    lambda_{i,j} for j >= 1.  A finite trunk's tail is read over the kappa
    positions once, when the rules are built."""

    eta: int
    kappa: float
    branches: tuple  # eta BranchRules, index j starting at 1
    trunk: Optional[BranchRule] = None  # index k of lambda_{-k}, starting at 0

    def __post_init__(self):
        if len(self.branches) != self.eta or None in self.branches:
            raise ValueError(f"a broom with eta={self.eta} takes one rule for each branch 1..{self.eta}")
        for i, b in enumerate(self.branches, start=1):
            _starts_at(b, 1, f"branch {i}")
        t = self.trunk
        if t is not None and self.kappa == 0:
            raise ValueError("a broom with kappa=0 has no trunk: it takes no trunk rule")
        _starts_at(t, 0, "trunk")
        if t is not None and self.kappa != math.inf:
            if t.tail_start() > self.kappa:
                raise ValueError(f"the trunk head runs past the kappa={self.kappa} trunk positions")
            if t.tail is not None:
                head = tuple(t.value(k) for k in range(t.start, int(self.kappa)))
                object.__setattr__(self, "trunk", BranchRule(head, None, t.start))

    def lookup(self, v: str):
        form, a, j = vertex_key(v)
        if form == 1 and 1 <= a <= self.eta:
            return self.branches[a - 1], j
        if form == 0 and a <= 0 and self.trunk is not None:
            return self.trunk, -a  # a finite trunk's rule has no value at its root, -kappa
        raise UnknownWeightError(v)

    def runs(self, m: Materialized) -> list:
        """The trunk's positions (ids -k..0, the root -k first), then each
        branch's depth positions."""
        self._check_family(m, "t_eta_kappa", self.eta, self.kappa)
        d, k = m.depth, int(min(self.kappa, m.depth))
        out = [Run(self.trunk, 0, np.arange(k, 0, -1), -1, self.kappa)] if k else []
        return out + [Run(b, 1, np.arange(k + 1 + i * d, k + 1 + (i + 1) * d), 1) for i, b in enumerate(self.branches)]

    def to_json(self):
        out = {
            "tails": [dict(branch=i + 1, **b.to_json()) for i, b in enumerate(self.branches)]
        }
        if self.trunk is not None:
            out["trunk"] = self.trunk.to_json()
        return out

    @classmethod
    def from_json(cls, d: dict, family: TreeFamily) -> "BroomWeights":
        branches = [None] * family.eta
        for item in d.get("tails", []):
            b = int(item["branch"])
            if not 1 <= b <= family.eta:
                raise ValueError(f"branch {b}: a broom with eta={family.eta} has branches 1..{family.eta}")
            if branches[b - 1] is not None:
                raise ValueError(f"branch {b} has two rules")
            branches[b - 1] = _rule_from_json(item, 1, f"branch {b}")
        trunk = _rule_from_json(d["trunk"], 0, "trunk") if "trunk" in d else None
        return cls(eta=family.eta, kappa=family.kappa, branches=tuple(branches), trunk=trunk)


@dataclass(frozen=True)
class ChainWeights(_FamilyRules):
    """Rules on a line: ``pos`` covers vertices n >= 1 (weight index n),
    ``neg`` covers n <= 0 (index k of lambda_{-k})."""

    kind: str  # z_plus | z | z_minus
    pos: Optional[BranchRule] = None
    neg: Optional[BranchRule] = None

    def __post_init__(self):
        for name, first in (("pos", 1), ("neg", 0)):
            rule = getattr(self, name)
            if rule is not None and name not in _RULE_KEYS.get(self.kind, (None, ()))[1]:
                raise ValueError(f"{self.kind} takes no {name} rule")
            _starts_at(rule, first, name)

    def lookup(self, v: str):
        form, n, _ = vertex_key(v)
        rule = (self.pos if n >= 1 else self.neg) if form == 0 else None
        if rule is None:
            raise UnknownWeightError(v)
        return rule, abs(n)

    def runs(self, m: Materialized) -> list:
        """The ids -lo..hi of the line's prefix: ``neg`` down to the root
        -lo, then ``pos``."""
        self._check_family(m, self.kind)
        lo = m.depth if self.kind in ("z", "z_minus") else 0
        hi = m.depth if self.kind in ("z_plus", "z") else 0
        out = [Run(self.neg, 0, np.arange(lo, 0, -1), -1)] if lo else []
        return out + ([Run(self.pos, 1, np.arange(lo + 1, lo + hi + 1), 1)] if hi else [])

    def to_json(self):
        out = {}
        if self.pos is not None:
            out["pos"] = self.pos.to_json()
        if self.neg is not None:
            out["neg"] = self.neg.to_json()
        return out

    @classmethod
    def from_json(cls, d: dict, family: TreeFamily) -> "ChainWeights":
        pos = _rule_from_json(d["pos"], 1, "pos") if "pos" in d else None
        neg = _rule_from_json(d["neg"], 0, "neg") if "neg" in d else None
        return cls(kind=family.kind, pos=pos, neg=neg)


@dataclass(frozen=True)
class BinaryWeights(_FamilyRules):
    """Rules on the full binary tree with a distinguished spine.

    The spine vertices (i,1) carry ``spine.value(i)``, from i = 1 on; every
    other non-root vertex carries the constant ``off_spine`` weight.
    """

    spine: BranchRule
    off_spine: float = 1.0

    def __post_init__(self):
        _finite(self.off_spine, "off_spine")
        _starts_at(self.spine, 1, "spine")

    def lookup(self, v: str):
        form, i, j = vertex_key(v)
        if form != 1:
            raise UnknownWeightError(v)
        if j == 1:
            return self.spine, i
        return self.off_rule, i

    @property
    def off_rule(self) -> BranchRule:
        """The rule of every off-spine vertex: one constant, from index 0 on."""
        return BranchRule(head=(), tail=ConstantTail(self.off_spine), start=0)

    def runs(self, m: Materialized) -> list:
        """The spine (i,1), at position 2**i - 1, then the off-spine
        vertices, whose indices do not matter: past the prefix, (d+1,2)
        stands for them."""
        self._check_family(m, "binary")
        spine = (1 << np.arange(1, m.depth + 1)) - 1
        off = np.ones(len(m.tree.vertices), bool)
        off[0] = off[spine] = False
        return [Run(self.spine, 1, spine, 0), Run(self.off_rule, 0, np.flatnonzero(off), 0, past=f"({m.depth + 1},2)")]

    def norm2_sup(self, m: Materialized) -> tuple:
        s, ok = self.spine.sup_abs(self.runs(m)[0].stop)
        off = self.off_spine
        return max(s ** 2 + off ** 2, 2 * off ** 2), ok

    def level_envs(self, m: Materialized, mod: np.ndarray, depth: int) -> tuple:
        """(levels, child moduli, child norms squared) of the environments
        that reach past the prefix ``m``: the off-spine vertices', then the
        spine's at levels m.depth - 1 .. ``depth``.  A weight inside the
        prefix is read off ``mod`` (by position), one past it off the rules."""
        spine = self.runs(m)[0].at  # (i,1) at spine[i - 1], and (i,2) after it
        d = len(spine)
        off = abs(self.off_spine)
        mu = lambda i: float(mod[spine[i - 1]]) if i <= d else abs(self.spine.value(i))
        side = lambda i: float(mod[spine[i - 1] + 1]) if i <= d else off
        white_n2 = 2.0 * off ** 2
        levels = [0, *range(max(d - 1, 0), depth + 1)]
        mods = [[off, off]] + [[mu(i + 1), side(i + 1)] for i in levels[1:]]
        norms2 = [[white_n2, white_n2]] + [[mu(i + 2) ** 2 + off ** 2, white_n2] for i in levels[1:]]
        return levels, mods, norms2

    def to_json(self):
        return {"mu": self.spine.to_json(), "off_spine": self.off_spine}

    @classmethod
    def from_json(cls, d: dict, family: TreeFamily) -> "BinaryWeights":
        if "mu" not in d:
            raise ValueError("off_spine needs the spine rule mu")
        return cls(spine=_rule_from_json(d["mu"], 1, "mu"), off_spine=float(d.get("off_spine", 1.0)))


@dataclass(frozen=True)
class WeightSystem:
    """Weights for all non-root vertices: explicit base plus optional rules.
    ``base`` is kept as a read-only copy, so a bound system cannot change."""

    base: Mapping[str, complex] = field(default_factory=dict)
    rules: Optional[object] = None

    def __post_init__(self):
        object.__setattr__(self, "base", MappingProxyType(dict(self.base)))
        for v, x in self.base.items():
            _finite(x, f"weight of vertex {v!r}")

    def weight(self, v: str) -> complex:
        if v in self.base:
            return self.base[v]
        if self.rules is not None:
            rule, idx = self.rules.lookup(v)
            return rule.value(idx)
        raise UnknownWeightError(v)

    def fill(self, m: Materialized) -> np.ndarray:
        """|lambda| by position of the prefix ``m`` (see
        :attr:`Materialized.arrays`): each run of the rules, then every
        ``base`` weight; NaN at the root and wherever neither gives a weight
        (:func:`local_data` resolves those through :meth:`weight`)."""
        out = np.full(len(m.tree.vertices), np.nan)
        for run in [] if self.rules is None else self.rules.runs(m):
            run.write(out)
        base = [(m.tree.positions[v], abs(x)) for v, x in self.base.items() if m.tree.has_parent(v)]
        if base:
            at, mods = zip(*base)
            out[list(at)] = mods
        return out

    def rules_beyond(self, m: Materialized):
        """The rules, as the answer for the tree beyond the prefix ``m``: None
        without rules, when some ``base`` id is not a non-root vertex of
        ``m``, or when some chain runs past ``m`` without a rule for it (no
        rule describes those weights, so answers stay at depth)."""
        if self.rules is not None and all(map(m.tree.has_parent, self.base)) and self.rules.covers(m):
            return self.rules
        return None

    def with_base(self, extra: Mapping[str, complex]) -> "WeightSystem":
        merged = dict(self.base)
        merged.update(extra)
        return WeightSystem(base=merged, rules=self.rules)

    def scaled(self, c: complex) -> "WeightSystem":
        if self.rules is not None:
            raise TypeError("scaling is only supported for explicit weight systems")
        return WeightSystem(base={v: c * w for v, w in self.base.items()})

    def to_json(self) -> dict:
        out: dict = {"base": {v: _num_to_json(w) for v, w in sorted(self.base.items())}}
        if self.rules is not None:
            out.update(self.rules.to_json())
            out["rules_kind"] = type(self.rules).__name__
        return out


def _rule_from_json(item: dict, start: int, where: str) -> BranchRule:
    if not isinstance(item, dict):
        raise TypeError(f"{where}: a rule is a JSON object, not {item!r}")
    try:
        return BranchRule(
            head=tuple(_num_from_json(x) for x in item.get("head", [])),
            tail=tail_from_json(item["tail"]) if "tail" in item else None,
            start=int(item.get("start", start)),
        )
    except ValueError as e:  # name the rule whose value is refused
        raise ValueError(f"{where}: {e}") from None


_RULE_KEYS = {
    "t_eta_kappa": (BroomWeights, ("tails", "trunk")),
    "z_plus": (ChainWeights, ("pos",)),
    "z": (ChainWeights, ("pos", "neg")),
    "z_minus": (ChainWeights, ("neg",)),
    "binary": (BinaryWeights, ("mu", "off_spine")),
}


def weights_from_json(d: dict, family: Optional[TreeFamily] = None) -> WeightSystem:
    """``base`` weights by vertex id, and the rule keys of the family's kind
    (``_RULE_KEYS``), read by its rules class; any other key is refused."""
    kind = family.kind if family is not None else "an explicit tree"
    cls, keys = _RULE_KEYS.get(kind, (None, ()))
    extra = sorted(set(d) - {"base", *keys, *(("rules_kind",) if cls else ())})
    if extra:
        raise ValueError(f"weights on {kind} take no key {extra[0]!r}")
    if cls is not None and d.get("rules_kind", cls.__name__) != cls.__name__:
        raise ValueError(f"rules_kind {d['rules_kind']!r}: weights on {kind} take {cls.__name__}")
    base = d.get("base", {})
    if not isinstance(base, dict):
        raise TypeError(f"base maps vertex ids to weights, not {base!r}")
    rules = cls.from_json(d, family) if any(k in d for k in keys) else None
    return WeightSystem(base={v: _num_from_json(x) for v, x in base.items()}, rules=rules)


# ---------------------------------------------------------------------------
# Vectors
# ---------------------------------------------------------------------------


def _clean(f: dict) -> dict:
    return {v: c for v, c in f.items() if c != 0}


def vec_inner(f: Mapping[str, complex], g: Mapping[str, complex]) -> complex:
    return sum(c * g[v].conjugate() for v, c in f.items() if v in g)


def vec_norm(f: Mapping[str, complex]) -> float:
    return math.sqrt(sum(abs(c) ** 2 for c in f.values()))


# ---------------------------------------------------------------------------
# Core operations
# ---------------------------------------------------------------------------


def apply(w: WeightSystem, m: Materialized, f: Mapping[str, complex]) -> dict:
    """(Sf)(v) = lambda_v f(parent(v)); needs every support vertex complete."""
    out: dict = {}
    for u, c in f.items():
        if c == 0:
            continue
        if u not in m.tree.children:
            raise UnknownVertexError(u)
        if not m.is_complete(u):
            raise IncompleteTruncationError(u, "children missing")
        for v in m.tree.children[u]:
            out[v] = out.get(v, 0) + w.weight(v) * c
    return _clean(out)


def apply_adjoint(w: WeightSystem, m: Materialized, f: Mapping[str, complex]) -> dict:
    """(S*f)(u) = sum over children v of u of conj(lambda_v) f(v)."""
    out: dict = {}
    for v, c in f.items():
        if c == 0:
            continue
        if v not in m.tree.children:
            raise UnknownVertexError(v)
        p = m.tree.parent.get(v)
        if p is None:
            if m.boundary_root:
                raise IncompleteTruncationError(v, "parent missing")
            continue  # true root: S* e_root = 0
        out[p] = out.get(p, 0) + w.weight(v).conjugate() * c
    return _clean(out)


@dataclass(frozen=True)
class LocalData:
    """|lambda_v|, |lambda_v|**2 and ||S e_u||^2 by position (see
    :attr:`~treeshift.tree.Materialized.arrays`), read-only.

    ``mod`` and ``mod2`` hold every non-root position and are NaN at the
    root; ``norms2`` is 0 on incomplete vertices, whose children are not all
    in the prefix.
    """

    mod: np.ndarray
    mod2: np.ndarray
    norms2: np.ndarray


def _per_run(x: np.ndarray, f) -> np.ndarray:
    """f(v) elementwise on Python floats, called once for each run of equal
    neighbours."""
    new = np.ones(len(x), bool)
    new[1:] = x[1:] != x[:-1]
    starts = np.flatnonzero(new)
    out = np.array([f(v) for v in x[starts].tolist()], dtype=float)
    return np.repeat(out, np.diff(np.append(starts, len(x))))


def _squares(x: np.ndarray) -> np.ndarray:
    """x ** 2 by Python's pow, as the scalar formulas take it (numpy's square
    differs in the last bit); an overflow raises."""
    return _per_run(x, lambda v: v ** 2)


def local_data(w: WeightSystem, m: Materialized) -> LocalData:
    """The one binding of ``w`` to the prefix ``m``, which every reader of
    the moduli shares: ``m`` keeps the last one, for the same ``w`` object.

    The weights are ``w.fill(m)``; a position it leaves NaN is resolved
    through ``w.weight`` in storage order (by parent id, then canonical
    order), so the first of them that raises is the one a sweep would meet
    first, and every reader raises it."""
    last = getattr(m, "_bound", None)
    if last is None or last[0] is not w:
        # keyed by w itself, held here, not by id(w), which a new system could reuse
        last = (w, _bind(w, m))
        object.__setattr__(m, "_bound", last)
    return last[1]


def _bind(w: WeightSystem, m: Materialized) -> LocalData:
    ar = m.arrays
    names = m.tree.vertices
    ep, kids = ar.edge_parent, ar.child_idx
    mod = w.fill(m)
    unresolved = kids[np.isnan(mod[kids])]
    if unresolved.size:
        mod[unresolved] = [abs(w.weight(names[v])) for v in unresolved.tolist()]
    bad = kids[~np.isfinite(mod[kids])]
    if bad.size:
        v = names[bad.min()]
        raise NonFiniteWeightError(f"weight of vertex {v!r} is not finite: {w.weight(v)!r}")
    mod2 = _squares(mod)
    below = ar.complete[ep]
    # bincount adds in storage order: per parent, children in canonical order
    norms2 = np.bincount(ep[below], weights=mod2[kids[below]], minlength=len(names))
    for a in (mod, mod2, norms2):
        a.flags.writeable = False
    return LocalData(mod, mod2, norms2)


def shift_norms_squared(w: WeightSystem, m: Materialized) -> dict:
    """u -> ||S e_u||^2 over complete vertices."""
    ids = np.flatnonzero(m.arrays.complete)
    n2 = local_data(w, m).norms2[ids]
    return dict(zip((m.tree.vertices[u] for u in ids.tolist()), n2.tolist()))


@dataclass(frozen=True)
class NormResult:
    value: float
    exact: bool

    def __float__(self):
        return self.value


def norm(w: WeightSystem, m: Materialized) -> NormResult:
    """sup_u ||S e_u||; exact when tails admit provable sups, else a lower
    bound at the materialization depth.  When the rules alone make the norm
    exactly infinite, no weight is resolved."""
    rules = w.rules_beyond(m)
    if rules is not None and rules.norm2_sup(m) == (math.inf, True):
        return NormResult(value=math.inf, exact=True)
    return _norm(rules, m, local_data(w, m))


def _norm(rules, m: Materialized, loc: LocalData) -> NormResult:
    best = float(loc.norms2.max(initial=0.0))
    exact = m.whole
    if rules is not None:
        s, exact = rules.norm2_sup(m)
        best = max(best, s)
    return NormResult(value=math.sqrt(best), exact=exact)


def power_norm_squared(w: WeightSystem, m: Materialized, u: str, n: int) -> float:
    """||S^n e_u||^2 as a sum of squared path products over n levels, taken
    depth first."""
    if u not in m.tree:
        raise UnknownVertexError(u)
    if n == 0:
        return 1.0
    mod2 = local_data(w, m).mod2
    ar, names = m.arrays, m.tree.vertices
    total = 0.0
    stack = [(m.tree.positions[u], 0, 1.0)]
    while stack:
        x, k, acc = stack.pop()
        if k == n:
            total += acc
            continue
        if not ar.complete[x]:
            raise IncompleteTruncationError(names[x], f"need level {n} below {u!r}")
        kids = ar.child_idx[ar.child_ptr[x]:ar.child_ptr[x + 1]]
        for v, sq in zip(kids.tolist(), mod2[kids].tolist()):
            stack.append((v, k + 1, acc * sq))
    return total


def polar(w: WeightSystem, m: Materialized) -> tuple:
    """(modulus diagonal on complete vertices, partial-isometry weights).

    pi_v = lambda_v / ||S e_{parent(v)}|| when the parent norm is positive,
    else 0; then S e_u = ||S e_u|| (S_pi e_u) on basis vectors.
    """
    norms = {u: math.sqrt(v) for u, v in shift_norms_squared(w, m).items()}
    names = m.tree.vertices
    up = {v: names[p] for v, p in zip(names, m.arrays.parent.tolist()) if p >= 0 and names[p] in norms}
    pi = {v: w.weight(v) / norms[u] if norms[u] > 0 else 0.0 for v, u in up.items()}
    return norms, WeightSystem(base=pi)


def modulus_power(w: WeightSystem, m: Materialized, alpha: float) -> dict:
    """u -> ||S e_u||**alpha on complete vertices (diagonal of |S|^alpha)."""
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    return {u: v ** (alpha / 2.0) for u, v in shift_norms_squared(w, m).items()}


@dataclass(frozen=True)
class FredholmData:
    a: float  # card(V minus V_lambda^+), possibly inf
    b: float
    c: float  # inf of the nonzero |lambda_v| over v whose parent has one child; inf when none
    is_fredholm: bool
    index: Optional[int]
    exact: bool
    reason: str = ""


def fredholm_data(w: WeightSystem, m: Materialized) -> FredholmData:
    """Kernel/cokernel counters and the index, promoted to exact when the
    tail rules pin down the un-materialized part.  c reads the weights in
    force inside the prefix and each rule from its run's first index past it.
    A zero head weight past the prefix leaves the counters open."""
    ar = m.arrays
    rules = w.rules_beyond(m)
    have_rules = rules is not None
    exact = m.whole or have_rules

    if have_rules and rules.every_vertex_branches(m):
        return FredholmData(
            a=0.0, b=math.inf, c=math.inf, is_fredholm=False, index=None,
            exact=True, reason="every vertex branches",
        )

    tail_infs = []  # the rules' c, past the prefix
    for run in rules.runs(m) if have_rules else ():
        rule = run.rule
        if rule is None:
            continue
        if rule.tail is not None and rule.tail.sup(max(run.stop, rule.tail_start())) == (0.0, True):
            return FredholmData(
                a=math.inf, b=math.inf, c=0.0, is_fredholm=False, index=None,
                exact=True, reason="a whole tail of weights vanishes",
            )
        iv, ok = rule.inf_abs_nonzero(run.stop)
        tail_infs.append(iv)
        exact = exact and ok and 0 not in rule.head[max(0, run.stop - rule.start):]
    if not exact:
        raise IndeterminateError(
            "structural counters are not finitely determined at this depth"
        )

    loc = local_data(w, m)
    deg = np.diff(ar.child_ptr)
    live = ar.complete & (deg > 0)
    a = int(np.count_nonzero(ar.complete & (loc.norms2 == 0.0)))
    b = int(np.sum(np.where(loc.norms2[live] > 0.0, deg[live] - 1, deg[live])))
    ep = ar.edge_parent
    chain = loc.mod[ar.child_idx[ar.complete[ep] & (deg[ep] == 1)]]
    c = min([float(chain[chain != 0.0].min(initial=math.inf)), *tail_infs])

    is_f = c > 0.0 and b < math.inf
    index = (a - b - 1 if m.rooted() else a - b) if is_f else None
    return FredholmData(a=a, b=b, c=c, is_fredholm=is_f, index=index, exact=True)


def normalize_weights(w: WeightSystem, m: Materialized) -> tuple:
    """Phase-strip the weights: returns (|weights| system, unimodular phases).

    The phases satisfy lambda_v beta_v conj(beta_{parent}) = |lambda_v| with
    beta = 1 wherever the weight vanishes, anchored at the materialized root.
    """
    names, ar = m.tree.vertices, m.arrays
    beta, abs_base = {m.tree.root: 1.0 + 0.0j}, {}
    for k in np.argsort(ar.level, kind="stable")[1:].tolist():  # each parent before its children
        v, lam = names[k], w.weight(names[k])
        abs_base[v] = abs(lam)
        beta[v] = (abs(lam) / lam) * beta[names[ar.parent[k]]] if lam != 0 else 1.0 + 0.0j
    return WeightSystem(base=abs_base, rules=w.rules), beta


def solve_grading(m: Materialized, c: float, anchor: tuple) -> dict:
    """theta with theta_parent - theta_child = c on every materialized edge,
    pinned at the anchor (vertex, value)."""
    v0, val0 = anchor
    if v0 not in m.tree:
        raise UnknownVertexError(v0)
    lv = m.levels()
    shift_by = val0 + c * lv[v0]
    return {u: shift_by - c * k for u, k in lv.items()}


# ---------------------------------------------------------------------------
# Domain-inclusion criteria
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DirectionReport:
    sup: float
    verdict: str  # "holds" | "fails" | "at-depth"
    exact: bool
    monotone_increasing: bool = False
    extras: dict = field(default_factory=dict)


@dataclass(frozen=True)
class DomainInclusionReport:
    fwd: DirectionReport  # D(S) included in D(S*)
    bwd: DirectionReport  # D(S*) included in D(S)
    depth: int


def _tu_quantities(mods: np.ndarray, child_norms2: np.ndarray):
    """Exact norms of the diagonal-minus-rank-one comparison operators.

    Row r of the (g, d) inputs holds one vertex's child moduli and child
    norms squared; all g operators are d x d and solved in one batch.  The
    diagonal is assembled from leave-one-out weight sums, which avoids the
    catastrophic cancellation the naive d^2 - d^2 lam^2/(1+n^2) form suffers
    on fast-growing weights; x is divided by sqrt(1 + ||S e_u||^2) before
    x x^T, which would overflow first.  Returns per-row (operator norm,
    diagonal sup).  Every reduction runs along C-contiguous rows, so each
    row's floats are those of a one-vertex call.
    """
    d2, lam = child_norms2, mods
    g, d = lam.shape
    lam2 = lam * lam
    denom = 1.0 + np.sum(lam2, axis=1)  # 1 + ||S e_u||^2
    loo = np.ones((g, d))
    if d > 1:
        for i in range(d):
            loo[:, i] += np.sum(np.delete(lam2, i, axis=1), axis=1)
    x = np.sqrt(d2) * lam / np.sqrt(denom)[:, None]
    mat = -(x[:, :, None] * x[:, None, :])
    diag = np.arange(d)
    mat[:, diag, diag] = d2 * loo / denom[:, None]
    return np.linalg.eigvalsh(mat)[:, -1], np.max(d2, axis=1)


def _rising(vals: np.ndarray, level: np.ndarray, name_of) -> bool:
    """Is the running sup of vals, scanned by (level, name), still strictly
    growing at the last two entries?  ``name_of(i)`` names entry i.

    It last grows where the first maximal entry sits, so only the entries
    scanned after that one need counting.
    """
    vals = np.where(np.isnan(vals), -math.inf, vals)  # a NaN never raises the sup
    top = vals.max(initial=-math.inf)
    if len(vals) < 3 or not top > 0.0:
        return False
    lv, name = min((level[i], name_of(i)) for i in np.flatnonzero(vals == top).tolist())
    later = int(np.count_nonzero(level > lv))
    if later <= 1:
        later += sum(1 for i in np.flatnonzero(level == lv).tolist() if name_of(i) > name)
    return later <= 1


def domain_inclusion_criteria(w: WeightSystem, m: Materialized, depth: Optional[int] = None) -> DomainInclusionReport:
    """Test the two domain inclusions between the shift and its adjoint.

    fwd: sup_u of sum over children v of |lambda_v|^2/(1 + ||S e_v||^2);
    bwd: sup_u of the norm of the diagonal-minus-rank-one operator, reported
    with the raw diagonal sup.  Both hold when the operator is provably
    bounded; else, on the binary family, fwd fails iff the spine tail's step
    ratios reach down to 0 and bwd iff they are unbounded; elsewhere the
    verdicts are at-depth.
    Every vertex with two complete levels below it gives its environment;
    on the binary family the rules add those past the prefix, the spine's up
    to level ``depth`` (:meth:`BinaryWeights.level_envs`).  The environments
    are scanned by level, then vertex name (a rule's first in its level);
    only the growth flags depend on that order.
    """
    if depth is None:
        depth = m.depth or 8

    loc = local_data(w, m)
    rules = w.rules_beyond(m)
    binary = rules is not None and rules.every_vertex_branches(m)
    ar = m.arrays
    ep, kids = ar.edge_parent, ar.child_idx
    deg = np.diff(ar.child_ptr)
    envs = np.flatnonzero(ar.checkable & (deg > 0))
    # sums over children in storage order, as the one-vertex sum takes them
    fwd_all = np.bincount(ep, weights=loc.mod2[kids] / (1.0 + loc.norms2[kids]), minlength=len(deg))
    fwd_vals = fwd_all[envs]
    t_vals, diag_vals = np.empty(len(envs)), np.empty(len(envs))
    for d in np.unique(deg[envs]).tolist():
        rows = np.flatnonzero(deg[envs] == d)
        ch = kids[ar.child_ptr[envs[rows]][:, None] + np.arange(d)]
        t_vals[rows], diag_vals[rows] = _tu_quantities(loc.mod[ch], loc.norms2[ch])
    level = ar.level[envs]
    if binary:
        lv, mods, norms2 = rules.level_envs(m, loc.mod, depth)
        fwd_vals = np.append(fwd_vals, [sum(l ** 2 / (1.0 + n2) for l, n2 in zip(ls, ns)) for ls, ns in zip(mods, norms2)])
        t_rules, diag_rules = _tu_quantities(np.array(mods), np.array(norms2))
        t_vals, diag_vals = np.append(t_vals, t_rules), np.append(diag_vals, diag_rules)
        level = np.append(level, lv)

    if not len(fwd_vals):
        raise IncompleteTruncationError(m.tree.root, "no vertex has two complete levels")

    def mono(vals):
        # running sup still strictly growing at the deepest levels (rules' environments named "")
        return _rising(vals, level, lambda i: m.tree.vertices[envs[i]] if i < len(envs) else "")

    fwd_sup = float(fwd_vals.max())
    bwd_sup = float(t_vals.max())
    extras = {"diag_sup": float(diag_vals.max())}

    nr = _norm(rules, m, loc)
    if nr.exact and math.isfinite(nr.value):
        fwd_v = bwd_v = "holds"
    elif binary:
        spine = rules.spine
        lo, hi, ok = spine.tail.ratio_bounds(spine.tail_start())
        fwd_v = ("fails" if lo == 0.0 else "holds") if ok else "at-depth"
        bwd_v = ("fails" if hi == math.inf else "holds") if ok else "at-depth"
    else:
        fwd_v = bwd_v = "at-depth"
    exact = fwd_v != "at-depth"
    fwd = DirectionReport(fwd_sup, fwd_v, exact, mono(fwd_vals))
    bwd = DirectionReport(bwd_sup, bwd_v, exact, mono(t_vals), extras)
    return DomainInclusionReport(fwd=fwd, bwd=bwd, depth=depth)
