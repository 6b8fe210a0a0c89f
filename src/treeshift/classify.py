"""Operator-class predicates.

Every verdict is ``yes``/``no``/``indeterminate`` with an exactness flag: a
closed-form criterion evaluated against family tail rules is exact, anything
read off a bare truncation is necessary-only at that depth.  A ``no`` always
carries a witness that can be re-evaluated directly.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Mapping, Optional, Sequence

import numpy as np

from . import measure as msr
from .measure import (
    REL_TOL,
    AtomicMeasure,
    MomentPrefix,
    NotProbabilityError,
    SequenceVerdict,
    moment,
)
from .models import _branch_measures, _neg_sum, model_tail
from .shift import (
    IncompleteTruncationError,
    UnknownWeightError,
    WeightSystem,
    _per_run,
    apply,
    local_data,
    power_norm_squared,
    vec_norm,
)
from .tree import Materialized, tree_structure

__all__ = [
    "Verdict",
    "ClassificationReport",
    "MeasureMismatchError",
    "NotProbabilityError",
    "REL_TOL",
    "is_isometry",
    "is_quasinormal",
    "is_normal",
    "is_cohyponormal",
    "is_hyponormal",
    "is_p_hyponormal",
    "subnormal_on_T",
    "chex_on_T",
    "stieltjes_necessary",
    "ca_necessary",
    "paranormal_witness",
    "paranormal_sample",
    "admissibility",
]

MODEL_ORDERS = 12  # moments of each branch measure the model tests compare


class MeasureMismatchError(ValueError):
    def __init__(self, branch, order, expected, got):
        super().__init__(
            f"branch {branch}: moment of order {order} is {got!r}, weights give {expected!r}"
        )
        self.branch = branch
        self.order = order


def _leq(a: float, b: float, tol: float = REL_TOL) -> bool:
    # relative to max(|a|, |b|) with no floor, so no verdict depends on scale
    return a <= b + tol * max(abs(a), abs(b))


def _eq(a: float, b: float, tol: float = REL_TOL) -> bool:
    return abs(a - b) <= tol * max(abs(a), abs(b))


def _scale(a: np.ndarray, b) -> np.ndarray:
    return np.maximum(np.abs(a), np.abs(b))


def _leq_all(a: np.ndarray, b, tol: float) -> np.ndarray:
    """:func:`_leq` elementwise."""
    return a <= b + tol * _scale(a, b)


def _eq_all(a: np.ndarray, b, tol: float) -> np.ndarray:
    """:func:`_eq` elementwise."""
    return np.abs(a - b) <= tol * _scale(a, b)


@dataclass(frozen=True)
class Verdict:
    value: str  # "yes" | "no" | "indeterminate"
    exact: bool
    witness: object = None
    depth: Optional[int] = None
    detail: dict = field(default_factory=dict)

    def __bool__(self) -> bool:
        return self.value == "yes"

    def to_json(self) -> dict:
        out = {"verdict": self.value, "exact": self.exact}
        if self.witness is not None:
            out["witness"] = self.witness
        if self.depth is not None:
            out["depth"] = self.depth
        if self.detail:
            out["detail"] = {k: v for k, v in sorted(self.detail.items())}
        return out


@dataclass(frozen=True)
class ClassificationReport:
    entries: dict  # predicate name -> Verdict

    def to_json(self) -> dict:
        return {name: v.to_json() for name, v in sorted(self.entries.items())}

    def summary(self) -> dict:
        return {name: v.value for name, v in sorted(self.entries.items())}


# ---------------------------------------------------------------------------
# tail bookkeeping: what do the rules guarantee beyond the truncation?
# ---------------------------------------------------------------------------


TAIL_WALK = 10_000  # how far past its start a tail is searched for its first drop


def _ruled(rules, m: Materialized) -> list:
    """The runs of ``rules`` over the prefix ``m`` that have a rule; none
    without rules."""
    return [] if rules is None else [run for run in rules.runs(m) if run.rule is not None]


def _pinned(w: WeightSystem, m: Materialized, fact, finite: bool = False) -> bool:
    """Is a verdict read off the prefix exact?  With rules: when every head lies
    inside the complete region and ``fact(rule, direction)`` holds on every
    tail.  Without (:meth:`WeightSystem.rules_beyond`): when ``finite`` is set
    and the prefix is a whole tree."""
    rules = w.rules_beyond(m)
    if rules is None:
        return finite and m.whole
    runs = _ruled(rules, m)
    horizon = max((run.rule.tail_start() for run in runs), default=0)
    return m.depth >= horizon + 1 and all(run.rule.tail is None or fact(run.rule, run.direction) for run in runs)


def _constant_modulus(rule) -> Optional[float]:
    """The one value of |lambda| along the rule's tail, or None if it may vary."""
    lo, ok_lo = rule.tail.inf(rule.tail_start())
    hi, ok_hi = rule.tail.sup(rule.tail_start())
    return hi if ok_lo and ok_hi and lo == hi else None


def _least_step(rule, direction: int) -> tuple:
    """(lo, exact): the least ratio of consecutive tail moduli read along the
    shift.  A rule indexed against the shift (direction -1) reads its ratio
    bounds inverted, so there 1/hi is the least step."""
    lo, hi, exact = rule.tail.ratio_bounds(rule.tail_start())
    return (lo if direction > 0 else (1.0 / hi if hi else math.inf)), exact


def _tail_walk(run, prev: float, found) -> Optional[int]:
    """The first j from the run's first index past the prefix on with
    found(|lambda_{j-1}|, |lambda_j|), where ``prev`` is |lambda_{stop-1}|,
    the prefix's own weight; None up to TAIL_WALK past the tail start.  The
    values are read in chunks of doubling size: at most about twice those
    the walk compares."""
    rule, j, end, size = run.rule, run.stop, run.rule.tail_start() + 1 + TAIL_WALK, 8
    while j < end:
        hi, size = min(j + size, end), 2 * size
        try:
            vals = rule.values(j, hi)
        except (ArithmeticError, ValueError, TypeError):
            vals = map(rule.value, range(j, hi))  # one at a time: the index that raises, raises
        for cur in map(abs, vals):
            if found(prev, cur):
                return j
            prev, j = cur, j + 1
    return None


# ---------------------------------------------------------------------------
# pointwise predicates
# ---------------------------------------------------------------------------


def _norm2_at(m: Materialized, loc, u: int):
    """||S e_u||^2 of the complete vertex u as a witness reports it: a
    childless vertex's norm is an empty sum, the integer 0."""
    return 0 if m.arrays.child_ptr[u + 1] == m.arrays.child_ptr[u] else float(loc.norms2[u])


def is_isometry(w: WeightSystem, m: Materialized, tol: float = REL_TOL) -> Verdict:
    """sum of squared child weights equals 1 at every vertex."""
    loc = local_data(w, m)
    bad = m.arrays.complete & ~_eq_all(loc.norms2, 1.0, tol)
    if bad.any():
        u = int(np.argmax(bad))
        return Verdict("no", True, witness={"vertex": m.tree.vertices[u], "norm_squared": _norm2_at(m, loc, u)})
    # a chain vertex's norm is its child's weight; branching rules prove nothing
    exact = _pinned(w, m, lambda r, d: d != 0 and _constant_modulus(r) == 1.0, finite=True)
    return Verdict("yes", exact, depth=m.depth or None)


def is_quasinormal(w: WeightSystem, m: Materialized, tol: float = REL_TOL) -> Verdict:
    """||S e_u|| = ||S e_v|| whenever v is a child of u with nonzero weight."""
    loc = local_data(w, m)
    ar = m.arrays
    ep, kids = ar.edge_parent, ar.child_idx
    on = ar.checkable[ep] & (loc.mod[kids] != 0.0)  # edges in canonical order
    bad = on & ~_eq_all(loc.norms2[ep], loc.norms2[kids], tol)
    if bad.any():
        k = int(np.argmax(bad))
        u, v = int(ep[k]), int(kids[k])
        return Verdict(
            "no", True,
            witness={
                "parent": m.tree.vertices[u], "child": m.tree.vertices[v],
                "norms_squared": [float(loc.norms2[u]), _norm2_at(m, loc, v)],
            },
        )
    common = float(loc.norms2[ep[np.flatnonzero(on)[-1]]]) if on.any() else None
    exact = _pinned(w, m, lambda r, d: _constant_modulus(r) is not None)
    detail = {}
    if common is not None and bool(np.all(loc.mod[kids] > 0)):
        detail["scalar_multiple_of_isometry"] = math.sqrt(common)
    return Verdict("yes", exact, depth=m.depth or None, detail=detail)


def _rooted_verdict(w: WeightSystem, m: Materialized) -> Verdict:
    """A rooted shift is normal or cohyponormal only when it is zero: the
    first nonzero weight of the prefix, else of a head past the prefix,
    else of a tail, is the witness."""
    nz = np.flatnonzero((m.arrays.parent >= 0) & (local_data(w, m).mod != 0.0))
    if nz.size:
        return Verdict("no", True, witness={"reason": "rooted and nonzero", "vertex": m.tree.vertices[nz[0]]})
    rules = w.rules_beyond(m)
    runs = [run for run in _ruled(rules, m) if run.beyond()]
    for run in runs:
        r = run.rule
        j = next((j for j in range(run.stop, min(r.tail_start(), run.end)) if abs(r.value(j)) != 0.0), None)
        if j is not None:
            return Verdict("no", True, witness={"reason": "rooted and nonzero", "tail_index": j})
    nonzero = [run for run in runs if run.rule.sup_abs(run.stop)[0] != 0.0]  # in a tail: the heads are zero
    if not nonzero:
        if w.rules is not None and rules is None:  # a base weight past the prefix
            return Verdict("yes", False, depth=m.depth or None, detail={"structure": "zero operator"})
        return Verdict("yes", True, detail={"structure": "zero operator"})
    for run in nonzero:  # the prefix is zero
        if run.past is not None:  # a nonzero constant weighs every vertex of the run
            return Verdict("no", True, witness={"reason": "rooted and nonzero", "vertex": run.past})
        j = _tail_walk(run, 0.0, lambda a, b: b != 0.0)
        if j is not None:
            return Verdict("no", True, witness={"reason": "rooted and nonzero", "tail_index": j})
    return Verdict("indeterminate", False, depth=m.depth or None)


def _chain_verdict(w: WeightSystem, m: Materialized, require_equal: bool, tol: float) -> Verdict:
    """Shared detector for the rootless chain-with-dead-branches structure,
    walked over positions from the root."""
    if m.rooted():
        return _rooted_verdict(w, m)
    loc = local_data(w, m)
    ar, names = m.arrays, m.tree.vertices
    norm2, mod = loc.norms2.tolist(), loc.mod.tolist()
    complete, ptr, idx = ar.complete.tolist(), ar.child_ptr.tolist(), ar.child_idx.tolist()
    chain = []
    cur = int(np.flatnonzero(ar.parent < 0)[0])
    terminal = False
    allowed = ar.parent < 0  # the root, the chain and the fan it ends in
    while True:
        kids = idx[ptr[cur]:ptr[cur + 1]]
        if not all(complete[v] for v in kids):
            allowed[kids] = True  # the chain leaves the truncation here
            break
        plus = [v for v in kids if norm2[v] > 0.0]
        if len(plus) > 1:
            return Verdict("no", True, witness={"vertex": names[cur], "reason": "two live children"})
        dead = [v for v in kids if norm2[v] == 0.0 and mod[v] != 0.0]
        if plus:
            v = plus[0]
            lam2 = mod[v] * mod[v]
            if dead:
                return Verdict("no", True, witness={"vertex": names[dead[0]], "reason": "nonzero weight off the chain"})
            bad = not _eq(norm2[v], lam2, tol) if require_equal else not _leq(norm2[v], lam2, tol)
            if bad:
                # prefer the root cause: a nonzero weight feeding a dead branch below v
                for x in idx[ptr[v]:ptr[v + 1]]:
                    if complete[x] and norm2[x] == 0.0 and mod[x] != 0.0:
                        return Verdict(
                            "no", True,
                            witness={"vertex": names[x], "reason": "nonzero weight off the chain"},
                        )
                return Verdict(
                    "no", True,
                    witness={"vertex": names[v], "child_norm_squared": norm2[v], "weight_squared": lam2},
                )
            chain.append(v)
            allowed[v] = True
            cur = v
            continue
        # no live child: a terminal broom may absorb one last nonzero step
        if require_equal and any(mod[v] != 0.0 for v in kids):
            v = next(v for v in kids if mod[v] != 0.0)
            return Verdict("no", True, witness={"vertex": names[v], "reason": "terminal weights break normality"})
        if not require_equal and chain:
            last = chain[-1]  # chain vertices are complete
            if not _leq(norm2[last], mod[last] ** 2, tol):
                return Verdict(
                    "no", True,
                    witness={"vertex": names[last], "children_norm_squared": norm2[last]},
                )
        allowed[kids] = True  # the terminal fan may carry nonzero weights
        terminal = True
        break

    # everything off the extracted chain must carry zero weight
    off = np.flatnonzero(~allowed & (loc.mod != 0.0))
    if off.size:
        return Verdict("no", True, witness={"vertex": names[off[0]], "reason": "nonzero weight off the chain"})

    exact = _pinned(w, m, lambda r, d: _constant_modulus(r) is not None)
    return Verdict(
        "yes", exact, depth=m.depth or None,
        detail={"chain": [names[v] for v in chain], "terminal": terminal},
    )


def is_cohyponormal(w: WeightSystem, m: Materialized, tol: float = REL_TOL) -> Verdict:
    """Adjoint-side hyponormality: a rootless chain with nonincreasing moduli
    and dead side branches, or the zero operator."""
    return _chain_verdict(w, m, require_equal=False, tol=tol)


def is_normal(w: WeightSystem, m: Materialized, tol: float = REL_TOL) -> Verdict:
    """Normal shifts are two-sided chains with constant modulus."""
    return _chain_verdict(w, m, require_equal=True, tol=tol)


def _pow_all(xs: np.ndarray, p: float) -> np.ndarray:
    """x ** p elementwise with Python's pow, as the one-vertex formulas take it;
    an overflow reads as inf."""
    def pw(x):
        try:
            return x ** p
        except OverflowError:
            return math.inf
    return _per_run(xs, pw)


def _hyponormal_core(w, m, p, tol) -> Verdict:
    loc = local_data(w, m)
    ar = m.arrays
    ep, kids = ar.edge_parent, ar.child_idx
    on = ar.checkable[ep]  # edges below checkable vertices, in canonical order
    n2 = loc.norms2[kids]
    lam2 = loc.mod2[kids]
    dead = on & (n2 == 0.0)
    fed = dead & (loc.mod[kids] != 0.0)  # a nonzero weight into a kernel vector
    live = on & ~dead
    terms = np.zeros(len(kids))
    if p != 1.0:
        n2 = np.ones(len(kids))
        n2[live] = _pow_all(loc.norms2[kids[live]], p)
    with np.errstate(divide="ignore", invalid="ignore"):
        terms[live] = lam2[live] / n2[live]
    terms[live & (lam2 == 0.0)] = 0.0  # also where n2 ** p underflowed to 0
    # bincount adds each vertex's terms in its children's order
    total = np.bincount(ep, weights=terms, minlength=len(loc.norms2))
    fed_at = np.bincount(ep, weights=fed, minlength=len(total)) > 0
    checked = ar.checkable & ~fed_at
    if p != 1.0:
        checked &= loc.norms2 != 0.0
        total[checked] *= _pow_all(loc.norms2[checked], p - 1.0)
    bad = fed_at | (checked & ~_leq_all(total, 1.0, tol))
    if bad.any():
        u = int(np.argmax(bad))
        if fed_at[u]:
            v = int(kids[np.flatnonzero(fed & (ep == u))[0]])
            return Verdict(
                "no", True,
                witness={"parent": m.tree.vertices[u], "vertex": m.tree.vertices[v],
                         "reason": "weight into a kernel vector"},
            )
        return Verdict("no", True, witness={"vertex": m.tree.vertices[u], "lhs": float(total[u])})

    # on a chain, hyponormality is |lambda| nondecreasing along the shift
    for run in _ruled(w.rules_beyond(m), m):
        if run.direction == 0 or run.rule.tail is None:
            continue
        lo, exact = _least_step(run.rule, run.direction)
        drop = (lambda a, b: b < a) if run.direction > 0 else (lambda a, b: b > a)  # rises in k, against it
        j = _tail_walk(run, float(loc.mod[run.at[-1]]), drop) if exact and lo < 1.0 else None
        if j is not None:
            return Verdict(
                "no", True,
                witness={"tail_index": j, "reason": "weights decrease along a tail"},
            )
    exact = _pinned(w, m, lambda r, d: d != 0 and _least_step(r, d)[0] >= 1.0, finite=True)
    return Verdict("yes", exact, depth=m.depth or None)


def is_hyponormal(w: WeightSystem, m: Materialized, tol: float = REL_TOL) -> Verdict:
    """||S* f|| <= ||S f||, tested through the child-weight inequality."""
    return _hyponormal_core(w, m, 1.0, tol)


def is_p_hyponormal(w: WeightSystem, m: Materialized, p: float, tol: float = REL_TOL) -> Verdict:
    """|S*|^2p <= |S|^2p via the weighted child inequality; p=1 is hyponormality."""
    if p <= 0:
        raise ValueError("p must be positive")
    return _hyponormal_core(w, m, float(p), tol)


# ---------------------------------------------------------------------------
# model-backed predicates on the broom
# ---------------------------------------------------------------------------


def _broom_data(w: WeightSystem, m: Materialized):
    fam = m.family
    if fam is None or fam.kind != "t_eta_kappa":
        raise TypeError("exact model predicates live on the broom family only")
    return fam


def _model_weight(w: WeightSystem, v: str) -> float:
    """|lambda_v| for the model predicates; a vertex that no weight covers
    makes the truncation too shallow for them."""
    try:
        return abs(w.weight(v))
    except UnknownWeightError:
        raise IncompleteTruncationError(v, "no weight rule covers it") from None


def _zgod0_check(w, measures, chex: bool, tol: float):
    """Products of squared branch weights must reproduce the model sequence."""
    for i, mu in enumerate(measures, start=1):
        wants = msr.ca_sequence(1.0, mu, MODEL_ORDERS) if chex else [moment(mu, n) for n in range(MODEL_ORDERS + 1)]
        prod = 1.0
        for n in range(1, MODEL_ORDERS + 1):
            prod *= _model_weight(w, f"({i},{n + 1})") ** 2
            if not _eq(prod, wants[n], tol):
                raise MeasureMismatchError(i, n, prod, wants[n])


def _zgod0_exact(w, m, measures, chex: bool) -> bool:
    """Is every branch tail the model's own, or of constant modulus where the
    model sequence is geometric?"""
    branches = [run.rule for run in _ruled(w.rules_beyond(m), m) if run.direction > 0]
    if len(branches) != len(measures):  # also without rules
        return False
    for rule, mu in zip(branches, measures):
        if rule.tail is None:
            return False
        if rule.tail == model_tail(mu, chex):
            continue
        c = _constant_modulus(rule)
        if c is None or not (
            (not mu.atoms and c == 1.0) if chex else (len(mu.atoms) == 1 and _eq(c ** 2, mu.atoms[0][0]))
        ):
            return False
    return True


def subnormal_on_T(
    w: WeightSystem,
    m: Materialized,
    measures: Sequence[AtomicMeasure],
    K: int = 25,
    tol: float = REL_TOL,
) -> Verdict:
    """Moment-model subnormality test on the broom with candidate measures.

    The measures must reproduce the squared partial products along each
    branch; the verdict then checks the consistency conditions tying the
    first-level weights and the trunk to negative moments.  The ``extremal``
    detail marks equality in the final condition.
    """
    fam = _broom_data(w, m)
    eta, kappa = fam.eta, fam.kappa
    measures = _branch_measures(eta, measures, chex=False, tol=tol)
    _zgod0_check(w, measures, chex=False, tol=tol)
    exact = _zgod0_exact(w, m, measures, chex=False)

    lam1 = [_model_weight(w, f"({i},1)") for i in range(1, eta + 1)]
    detail = {"extremal": False}
    if kappa == 0:
        v = _neg_sum(lam1, measures, 1)
        if not _leq(v, 1.0, tol):
            return Verdict("no", True, witness={"condition": "consistency", "value": v})
        detail["extremal"] = _eq(v, 1.0, tol)
        return Verdict("yes", exact, detail=detail)

    v = _neg_sum(lam1, measures, 1)
    if not _eq(v, 1.0, tol):
        return Verdict("no", True, witness={"condition": "strong consistency", "value": v})

    # trunk equalities for k < kappa (k <= K on an infinite trunk), then the
    # final inequality at k = kappa; prod is the product of the first k
    # squared trunk weights
    prod = 1.0
    for k in range(1, (K if kappa == math.inf else int(kappa)) + 1):
        prod *= _model_weight(w, str(1 - k)) ** 2
        lhs, rhs = 1.0 / prod, _neg_sum(lam1, measures, k + 1)
        if k != kappa and not _eq(lhs, rhs, tol):
            return Verdict(
                "no", True,
                witness={"condition": "trunk equality", "k": k, "lhs": lhs, "rhs": rhs},
            )
    if kappa == math.inf:
        return Verdict("yes", False, depth=K, detail=detail)
    if not _leq(rhs, lhs, tol):
        return Verdict(
            "no", True,
            witness={"condition": "final inequality", "lhs": lhs, "rhs": rhs},
        )
    detail["extremal"] = _eq(lhs, rhs, tol)
    return Verdict("yes", exact, detail=detail)


def chex_on_T(
    w: WeightSystem,
    m: Materialized,
    taus: Sequence[AtomicMeasure],
    tol: float = REL_TOL,
) -> Verdict:
    """Alternating-model complete hyperexpansivity test on the broom.

    With an infinite trunk the class collapses to isometries; otherwise the
    candidate measures on [0,1] must reproduce the branch products and satisfy
    the trunk conditions.  ``extremal`` marks equality in the last one.
    """
    fam = _broom_data(w, m)
    eta, kappa = fam.eta, fam.kappa
    taus = _branch_measures(eta, taus, chex=True, tol=tol)
    if kappa == math.inf:
        iso = is_isometry(w, m, tol)
        return Verdict(iso.value, iso.exact, witness=iso.witness, depth=iso.depth,
                       detail={"reduction": "infinite trunk forces an isometry"})

    _zgod0_check(w, taus, chex=True, tol=tol)
    exact = _zgod0_exact(w, m, taus, chex=True)
    kappa = int(kappa)
    lam1 = [_model_weight(w, f"({i},1)") for i in range(1, eta + 1)]
    ssum = sum(c * c for c in lam1)
    detail = {"extremal": False}
    if kappa == 0:
        lhs, rhs = ssum, 1.0 + _neg_sum(lam1, taus, 1)
        if not _leq(rhs, lhs, tol):
            return Verdict("no", True, witness={"condition": "consistency", "lhs": lhs, "rhs": rhs})
        detail["extremal"] = _eq(lhs, rhs, tol)
        return Verdict("yes", exact, detail=detail)

    rhs = 1.0 + _neg_sum(lam1, taus, 1)
    if not _eq(ssum, rhs, tol):
        return Verdict(
            "no", True,
            witness={"condition": "strong consistency", "lhs": ssum, "rhs": rhs},
        )
    # trunk equalities for k < kappa, then the final inequality at k = kappa;
    # prod is the product of the first k squared trunk weights
    prod = 1.0
    for k in range(1, kappa + 1):
        lhs = _model_weight(w, str(1 - k)) ** 2
        prod *= lhs
        rhs = 1.0 + prod * _neg_sum(lam1, taus, k + 1)
        if k != kappa and not _eq(lhs, rhs, tol):
            return Verdict(
                "no", True,
                witness={"condition": "trunk equality", "k": k, "lhs": lhs, "rhs": rhs},
            )
    if not _leq(rhs, lhs, tol):
        return Verdict(
            "no", True,
            witness={"condition": "final inequality", "lhs": lhs, "rhs": rhs},
        )
    detail["extremal"] = _eq(lhs, rhs, tol)
    return Verdict("yes", exact, detail=detail)


# ---------------------------------------------------------------------------
# necessary-only sequence tests and sampling
# ---------------------------------------------------------------------------


def stieltjes_necessary(
    w: WeightSystem, m: Materialized, u: str, N: int, tol: float = msr.PSD_TOL
) -> SequenceVerdict:
    """Run the Hankel ladder on ||S^n e_u||^2, n <= N (necessary only)."""
    vals = [power_norm_squared(w, m, u, n) for n in range(N + 1)]
    return msr.is_stieltjes(MomentPrefix.of(vals), tol)


def ca_necessary(
    w: WeightSystem, m: Materialized, u: str, N: int, tol: float = msr.PSD_TOL
) -> SequenceVerdict:
    """Alternating-difference test on ||S^n e_u||^2, n <= N (necessary only)."""
    vals = [power_norm_squared(w, m, u, n) for n in range(N + 1)]
    return msr.is_completely_alternating(MomentPrefix.of(vals), tol)


def paranormal_witness(
    w: WeightSystem, m: Materialized, f: Mapping[str, complex], tol: float = REL_TOL
) -> bool:
    """Single inequality ||Sf||^2 <= ||S^2 f|| ||f|| for one vector."""
    sf = apply(w, m, f)
    s2f = apply(w, m, sf)
    lhs = vec_norm(sf) ** 2
    rhs = vec_norm(s2f) * vec_norm(f)
    return _leq(lhs, rhs, tol)


def paranormal_sample(
    w: WeightSystem,
    m: Materialized,
    count: int = 200,
    seed: int = 0,
    max_support: int = 6,
    tol: float = REL_TOL,
) -> Verdict:
    """Sampling wrapper: random finite vectors on doubly-complete vertices."""
    safe = [m.tree.vertices[u] for u in np.flatnonzero(m.arrays.checkable).tolist()]
    if not safe:
        raise IncompleteTruncationError(m.tree.root, "no vertex supports S^2")
    rng = random.Random(seed)
    for trial in range(count):
        supp = rng.sample(safe, k=min(len(safe), rng.randint(1, max_support)))
        f = {
            v: complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for v in supp
        }
        if not paranormal_witness(w, m, f, tol):
            return Verdict("no", True, witness={"trial": trial, "vector": {k: [c.real, c.imag] for k, c in f.items()}})
    return Verdict("yes", False, depth=m.depth or None, detail={"trials": count})


# ---------------------------------------------------------------------------
# structure-only admissibility
# ---------------------------------------------------------------------------


def admissibility(obj) -> dict:
    """Which classes the bare tree admits, independent of any weights.

    Reads the tree's structure (:func:`tree.tree_structure`).  A leafless
    tree is infinite; a rootless one with no branching vertex is Z (leafless)
    or Z_- (one leaf).
    """
    s = tree_structure(obj)
    injective_ok = s.leaves == 0
    chain_like = not (s.rooted or s.branch_children or s.infinite_branching)
    is_z = chain_like and injective_ok
    return {
        "hyponormal_nonzero": injective_ok,
        "subnormal_nonzero": injective_ok,
        "isometric_nonzero": injective_ok,
        "completely_hyperexpansive_nonzero": injective_ok,
        "injective_nonzero": injective_ok,
        "coisometric": chain_like,
        "dense_range": chain_like,
        "unitary": is_z,
        "normal_nonzero": is_z,
    }
