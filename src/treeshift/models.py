"""Constructive model procedures on the broom tree.

Two recipes turn finitely atomic measures into weight systems: one produces
moment-model (subnormal) shifts, the other alternating-model (completely
hyperexpansive) shifts.  Both emit weights through ratio tails, so the
resulting systems are exact at every depth, and both default to the extremal
choice of the last free trunk weight.

Each condition of the models is stated here once, for the constructors and for
``classify.subnormal_on_T`` and ``classify.chex_on_T``: the branch measures
(:func:`_branch_measures`), the first-level sums (:func:`_neg_sum`), the
drained mass (:func:`_drained`) and k-step backward extendibility
(:func:`backward_extension`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

from .measure import REL_TOL as TOL, AtomicMeasure, ConditionViolated, NotProbabilityError, moment
from .shift import (
    BranchRule,
    BroomWeights,
    CaRatioTail,
    MomentRatioTail,
    TrunkMomentRatioTail,
    WeightSystem,
)
from .tree import TreeFamily, broom

__all__ = [
    "NoAdmissibleLambda1Error",
    "ThetaOutOfRangeError",
    "TConditionsViolatedError",
    "ImpossibleError",
    "ModelResult",
    "model_tail",
    "construct_subnormal",
    "exists_lambda1",
    "construct_chex",
    "solve_t_sequence",
    "backward_extension",
    "bridge_classical",
    "classical_weights",
]

class NoAdmissibleLambda1Error(ValueError):
    pass


class ThetaOutOfRangeError(ValueError):
    def __init__(self, theta, bound, side):
        super().__init__(f"theta={theta!r} violates the {side} bound {bound!r}")
        self.theta = theta
        self.bound = bound


class TConditionsViolatedError(ValueError):
    def __init__(self, which, detail=""):
        super().__init__(f"first-level weights violate {which}" + (f": {detail}" if detail else ""))
        self.which = which


class ImpossibleError(ValueError):
    def __init__(self, reason, branch=None):
        super().__init__(reason if branch is None else f"branch {branch}: {reason}")
        self.branch = branch


@dataclass(frozen=True)
class ModelResult:
    family: TreeFamily
    weights: WeightSystem
    norm: float
    lambda1: tuple
    theta: Optional[float]
    extremal: bool
    measures: tuple

    def to_json(self) -> dict:
        fam = {"family": "t_eta_kappa", "eta": self.family.eta,
               "kappa": "inf" if self.family.kappa == math.inf else int(self.family.kappa)}
        return {
            "tree": fam,
            "weights": self.weights.to_json(),
            "norm": self.norm,
            "lambda1": list(self.lambda1),
            "theta": self.theta,
            "extremal": self.extremal,
        }


def model_tail(mu: AtomicMeasure, chex: bool = False):
    """The tail a model branch carries: moment ratios of ``mu``, or alternating-sequence ratios."""
    return CaRatioTail(mu) if chex else MomentRatioTail(mu)


def _branch_measures(eta: int, measures: Sequence[AtomicMeasure], chex: bool, tol: float = TOL) -> tuple:
    """The measures of a model on the broom with ``eta`` branches, one per
    branch: probability measures (mass 1 within ``tol``), or for ``chex``
    measures supported in [0, 1 + tol]."""
    measures = tuple(measures)
    if len(measures) != eta:
        raise ValueError(f"need {eta} measures")
    for i, mu in enumerate(measures, start=1):
        if chex:
            if mu.atoms and mu.support_max() > 1.0 + tol:
                raise ValueError(f"measure {i} must live on [0,1]")
        elif not mu.is_probability(tol):
            raise NotProbabilityError(i, mu.total_mass())
    return measures


def _neg_sum(lambda1: Sequence[float], measures: Sequence[AtomicMeasure], order: int) -> float:
    """sum_i lambda_i^2 * integral of s^-order d(mu_i)."""
    return sum(c * c * moment(mu, -order) for c, mu in zip(lambda1, measures))


def _drained(tau: AtomicMeasure, k: int) -> float:
    """The drained mass sum_{l <= k} integral of s^-l d(tau); inf with an atom at 0."""
    return sum(moment(tau, -l) for l in range(1, k + 1))


def construct_subnormal(
    eta: int,
    kappa,
    measures: Sequence[AtomicMeasure],
    lambda1: Optional[Sequence[float]] = None,
    theta: Optional[float] = None,
) -> ModelResult:
    """Build a subnormal weight system on the broom from branch measures.

    Branch weights are square roots of consecutive moment ratios; first-level
    weights either come from the caller (checked against the consistency
    condition) or from the canonical normalized choice.  For a finite trunk
    the last free weight is ``theta``, by default the extremal endpoint.
    """
    measures = _branch_measures(eta, measures, chex=False)
    # kappa + 1 steps back; for an atomic measure every k answers alike
    if not all(backward_extension(mu, math.inf, "subnormal") for mu in measures):
        raise NoAdmissibleLambda1Error(
            "an atom at 0 makes the required negative moments infinite"
        )

    if lambda1 is None:
        if kappa == math.inf:
            raw = [
                2.0 ** (-i)
                * max(moment(mu, -k) for k in range(1, i + 1)) ** -0.5
                for i, mu in enumerate(measures, start=1)
            ]
        else:
            raw = [1.0] * eta
        t1 = _neg_sum(raw, measures, 1)
        lambda1 = tuple(c / math.sqrt(t1) for c in raw)
    else:
        lambda1 = tuple(float(x) for x in lambda1)
        if any(x <= 0 for x in lambda1):
            raise NoAdmissibleLambda1Error("first-level weights must be positive")
        t1 = _neg_sum(lambda1, measures, 1)
        if kappa == 0:
            if t1 > 1.0 + TOL:
                raise ConditionViolated("consistency needs sum <= 1", t1)
        elif abs(t1 - 1.0) > TOL:
            raise ConditionViolated("strong consistency needs sum = 1", t1)

    branches = tuple(
        BranchRule(head=(lam,), tail=model_tail(mu), start=1)
        for lam, mu in zip(lambda1, measures)
    )

    extremal = False
    if kappa == 0:
        trunk = None
        if theta is not None:
            raise ThetaOutOfRangeError(theta, None, "nonexistent (no trunk)")
        extremal = abs(_neg_sum(lambda1, measures, 1) - 1.0) <= TOL
    elif kappa == math.inf:
        if theta is not None:
            raise ThetaOutOfRangeError(theta, None, "nonexistent (infinite trunk)")
        trunk = BranchRule(
            head=(), tail=TrunkMomentRatioTail(lambda1, measures), start=0
        )
    else:
        kappa = int(kappa)
        bound = math.sqrt(
            _neg_sum(lambda1, measures, kappa) / _neg_sum(lambda1, measures, kappa + 1)
        )
        if theta is None:
            theta = bound
        if not (0.0 < theta <= bound * (1.0 + TOL)):
            raise ThetaOutOfRangeError(theta, bound, "upper")
        head = []
        for k in range(kappa - 1):
            head.append(
                math.sqrt(
                    _neg_sum(lambda1, measures, k + 1)
                    / _neg_sum(lambda1, measures, k + 2)
                )
            )
        head.append(theta)
        trunk = BranchRule(head=tuple(head), tail=None, start=0)
        extremal = abs(theta - bound) <= TOL * max(1.0, bound)

    fam = broom(eta, kappa)
    ws = WeightSystem(
        rules=BroomWeights(eta=eta, kappa=fam.kappa, branches=branches, trunk=trunk)
    )
    nrm = math.sqrt(max(mu.support_max() for mu in measures))
    return ModelResult(
        family=fam, weights=ws, norm=nrm, lambda1=lambda1,
        theta=theta if kappa not in (0, math.inf) else None,
        extremal=extremal, measures=measures,
    )


def exists_lambda1(measures: Sequence[AtomicMeasure], kappa) -> tuple:
    """Can admissible first-level weights exist?  Returns (yes, witness)."""
    measures = tuple(measures)
    if not all(mu.atoms and backward_extension(mu, math.inf, "subnormal") for mu in measures):
        return False, None
    res = construct_subnormal(len(measures), kappa, measures)
    return True, res.lambda1


def _zeta(t: Sequence[float], taus: Sequence[AtomicMeasure], k: int) -> float:
    return sum(ti * ti * (1.0 - _drained(tau, k)) for ti, tau in zip(t, taus))


def _check_t(t, taus, kappa):
    ssum = sum(x * x for x in t)
    first = 1.0 + _neg_sum(t, taus, 1)
    if kappa == 0:
        if ssum < first - TOL:
            raise TConditionsViolatedError("the consistency inequality", f"{ssum} < {first}")
    else:
        if abs(ssum - first) > TOL * max(1.0, ssum):
            raise TConditionsViolatedError("the strong consistency equality", f"{ssum} != {first}")
    zk = _zeta(t, taus, int(kappa) + 1)
    if not zk > TOL * ssum:
        raise TConditionsViolatedError("strict positivity of the deep drain", f"zeta={zk}")


def construct_chex(
    eta: int,
    kappa: int,
    taus: Sequence[AtomicMeasure],
    t: Optional[Sequence[float]] = None,
    theta: Optional[float] = None,
) -> ModelResult:
    """Build a completely hyperexpansive weight system on the broom.

    Branch weights follow the alternating-representation ratios of the
    ``taus``; the trunk comes from the drained sums ``zeta_k``, with the last
    free weight at least the extremal (minimal) endpoint.
    """
    if kappa == math.inf:
        raise ValueError("an infinite trunk admits only isometries; use kappa < inf")
    kappa = int(kappa)
    if kappa < 0:
        raise ValueError("kappa must be a nonnegative integer or inf")
    taus = _branch_measures(eta, taus, chex=True)
    if t is None:
        t = solve_t_sequence(taus, kappa)
        if t is None:
            raise TConditionsViolatedError(
                "existence", "no admissible first-level weights for these measures"
            )
    t = tuple(float(x) for x in t)
    if any(x <= 0 for x in t):
        raise TConditionsViolatedError("positivity", "first-level weights must be positive")
    _check_t(t, taus, kappa)

    branches = tuple(
        BranchRule(
            head=(ti, math.sqrt(1.0 + tau.total_mass())),
            tail=model_tail(tau, chex=True),
            start=1,
        )
        for ti, tau in zip(t, taus)
    )

    extremal = False
    if kappa == 0:
        trunk = None
        if theta is not None:
            raise ThetaOutOfRangeError(theta, None, "nonexistent (no trunk)")
        ssum = sum(x * x for x in t)
        extremal = abs(ssum - (1.0 + _neg_sum(t, taus, 1))) <= TOL * max(1.0, ssum)
        theta_out = None
    else:
        zetas = {k: _zeta(t, taus, k) for k in range(1, kappa + 2)}
        bound = math.sqrt(zetas[kappa] / zetas[kappa + 1])
        if theta is None:
            theta = bound
        if theta < bound * (1.0 - TOL):
            raise ThetaOutOfRangeError(theta, bound, "lower")
        head = []
        for k in range(kappa - 1):
            head.append(
                1.0 / math.sqrt(zetas[2]) if k == 0 else math.sqrt(zetas[k + 1] / zetas[k + 2])
            )
        head.append(theta)
        trunk = BranchRule(head=tuple(head), tail=None, start=0)
        extremal = abs(theta - bound) <= TOL * max(1.0, bound)
        theta_out = theta

    fam = broom(eta, kappa)
    ws = WeightSystem(
        rules=BroomWeights(eta=eta, kappa=fam.kappa, branches=branches, trunk=trunk)
    )
    top = max(1.0 + tau.total_mass() for tau in taus)
    if kappa == 0:
        n2 = max(sum(x * x for x in t), top)
    else:
        n2 = max(trunk.head[kappa - 1] ** 2 if kappa >= 1 else 0.0, top)
    return ModelResult(
        family=fam, weights=ws, norm=math.sqrt(n2), lambda1=t,
        theta=theta_out, extremal=extremal, measures=taus,
    )


def solve_t_sequence(taus: Sequence[AtomicMeasure], kappa: int) -> Optional[tuple]:
    """Deterministic solution of the first-level weight system, or None.

    Splits the branches by the sign of their drained masses, puts the unit
    weight on the healthy block and a dyadically shrunk weight elsewhere,
    then normalizes the healthy block so the consistency equality holds.
    """
    taus = tuple(taus)
    kappa = int(kappa)
    drains = [_drained(tau, kappa + 1) for tau in taus]
    if any(d == math.inf for d in drains):
        return None
    if all(d >= 1.0 for d in drains):
        return None
    first = [moment(tau, -1) for tau in taus]
    plus = [i for i, d in enumerate(drains) if d < 1.0]
    mid = [i for i, (f, d) in enumerate(zip(first, drains)) if f < 1.0 <= d]
    minus = [i for i, f in enumerate(first) if f >= 1.0]
    theta0 = sum(1.0 - first[i] for i in plus)
    v1 = sum(1.0 - first[i] for i in mid)
    v2 = sum(first[i] - 1.0 for i in minus)
    a0 = sum(1.0 - drains[i] for i in plus)
    a12 = sum(drains[i] - 1.0 for i in mid) + sum(drains[i] - 1.0 for i in minus)
    rho = 1.0
    for _ in range(200):
        r0sq = (1.0 - rho * rho * (v1 - v2)) / theta0
        if r0sq > 0 and r0sq * a0 - rho * rho * a12 > 0:
            break
        rho /= 2.0
    else:
        return None
    r0 = math.sqrt(r0sq)
    t = [0.0] * len(taus)
    for i in plus:
        t[i] = r0
    for i in mid + minus:
        t[i] = rho
    return tuple(t)


def backward_extension(mu: AtomicMeasure, k, flavor: str) -> bool:
    """Can k more positive weights be prepended while keeping the class?

    ``subnormal``: all negative moments up to order k must be finite (for an
    atomic measure: no atom at 0).  ``chex``: the drained mass up to order k
    must stay strictly below 1.
    """
    if flavor == "subnormal":
        if k != math.inf and (not isinstance(k, int) or k < 1):
            raise ValueError("k must be a positive integer or inf")
        # atomic measures: one finite negative moment makes them all finite
        return moment(mu, -1) < math.inf
    if flavor == "chex":
        if not isinstance(k, int) or k < 1:
            raise ValueError("k must be a positive integer for the expansive flavor")
        return _drained(mu, k) < 1.0
    raise ValueError(f"unknown flavor {flavor!r}")


def classical_weights(mu: AtomicMeasure, flavor: str, upto: int) -> list:
    """Weights alpha_1..alpha_upto of the one-branch classical shift: the
    values from index 2 on of the tail a model branch carries."""
    if flavor not in ("subnormal", "chex"):
        raise ValueError(f"unknown flavor {flavor!r}")
    tail = model_tail(mu, chex=flavor == "chex")
    return [tail.value(i) for i in range(2, upto + 2)]


def bridge_classical(measures: Sequence[AtomicMeasure], kappa, flavor: str) -> ModelResult:
    """Merge classical one-branch shifts into one shift on the broom.

    Each input measure describes one branch; the merged shift restricted to a
    branch reproduces the classical weights shifted one step outward.
    """
    measures = tuple(measures)
    eta = len(measures)
    if eta < 2:
        raise ValueError("need at least two branches")
    if flavor == "subnormal":
        for i, mu in enumerate(measures, start=1):
            if not mu.atoms or not backward_extension(mu, math.inf, "subnormal"):
                raise ImpossibleError(
                    f"no {kappa}+1-step extension (atom at 0)", branch=i
                )
        return construct_subnormal(eta, kappa, measures)
    if flavor == "chex":
        kappa = int(kappa)
        for i, tau in enumerate(measures, start=1):
            if _drained(tau, kappa + 1) == math.inf:
                raise ImpossibleError("infinite drained mass (atom at 0)", branch=i)
        if not any(backward_extension(tau, kappa + 1, "chex") for tau in measures):
            raise ImpossibleError(
                "no branch admits the required backward extension (all drained masses >= 1)"
            )
        return construct_chex(eta, kappa, measures)
    raise ValueError(f"unknown flavor {flavor!r}")
