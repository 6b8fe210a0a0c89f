import math
import random

import pytest

import treeshift as ts
from treeshift import classify, models, oracle, shift
from treeshift.measure import (
    AtomicMeasure,
    ConditionViolated,
    MomentPrefix,
    NotProbabilityError,
    moment,
)

from helpers import TWO_ATOM


def test_scaled_isometry_from_point_masses():
    # equal point masses at t with sum x_i^2 / t = 1 accept lambda1 = x
    t = 2.0
    mus = [AtomicMeasure.delta(t), AtomicMeasure.delta(t)]
    res = models.construct_subnormal(2, 0, mus, lambda1=(1.0, 1.0))
    assert res.norm == pytest.approx(math.sqrt(t))
    m = res.family.materialize(10)
    assert classify.subnormal_on_T(res.weights, m, mus).value == "yes"
    # all branch weights beyond the first level equal sqrt(t)
    assert res.weights.weight("(1,3)") == pytest.approx(math.sqrt(t))
    # norm-scaled system is an isometry
    scaled = shift.WeightSystem(
        base={
            v: res.weights.weight(v) / res.norm
            for v in m.tree.vertices
            if m.tree.parent.get(v) is not None
        }
    )
    assert classify.is_isometry(scaled, m).value == "yes"


def test_isometry_case_with_trunk():
    mus = [AtomicMeasure.delta(1.0), AtomicMeasure.delta(1.0)]
    res = models.construct_subnormal(2, 1, mus)
    m = res.family.materialize(8)
    assert res.extremal
    v = classify.is_isometry(res.weights, m)
    assert v.value == "yes" and v.exact
    assert res.weights.weight("0") == pytest.approx(1.0)


def test_two_atom_round_trip():
    mus = [AtomicMeasure.delta(1.0), TWO_ATOM]
    for kappa in (0, 1, 2):
        res = models.construct_subnormal(2, kappa, mus)
        m = res.family.materialize(12)
        v = classify.subnormal_on_T(res.weights, m, mus)
        assert v.value == "yes" and v.exact, kappa
        if kappa >= 1:
            assert v.detail["extremal"]
        assert res.norm == pytest.approx(1.0, abs=1e-12)


def test_models_pass_their_own_predicates_at_the_edge_of_the_slack():
    # a measure the constructor admits, within TOL of the condition, is one the
    # predicate admits too: mass off by up to TOL, atoms up to 1 + TOL
    rng = random.Random(19)
    for kappa in (0, 1, 2, math.inf):
        for off in (-0.9, -0.5, 0.5, 0.9):
            mus = []
            for i in range(2):
                pts = sorted({round(rng.uniform(0.05, 2.0), 4) for _ in range(rng.randint(1, 3))})
                raw = [rng.uniform(0.1, 1.0) for _ in pts]
                c = (1.0 + (off if i == 0 else -off) * models.TOL) / sum(raw)
                mus.append(AtomicMeasure.from_pairs([(p, c * x) for p, x in zip(pts, raw)]))
            assert abs(mus[0].total_mass() - 1.0) > 0.4 * models.TOL
            res = models.construct_subnormal(2, kappa, mus)
            v = classify.subnormal_on_T(res.weights, res.family.materialize(8), mus)
            assert v.value == "yes", (kappa, off, v.witness)
    for kappa in (0, 1, 2):
        taus = [
            AtomicMeasure.from_pairs([(0.5, 0.05), (1.0 + models.TOL, 0.1)]),
            AtomicMeasure.from_pairs([(0.8, 0.02), (1.0 + 0.5 * models.TOL, 0.05)]),
        ]
        res = models.construct_chex(2, kappa, taus)
        v = classify.chex_on_T(res.weights, res.family.materialize(8), taus)
        assert v.value == "yes" and v.detail["extremal"], (kappa, v.witness)


def test_lambda1_validation():
    mus = [AtomicMeasure.delta(1.0), AtomicMeasure.delta(1.0)]
    with pytest.raises(ConditionViolated):
        models.construct_subnormal(2, 1, mus, lambda1=(1.0, 1.0))  # sums to 2
    with pytest.raises(NotProbabilityError):
        models.construct_subnormal(2, 0, [AtomicMeasure.delta(1.0, 0.3)] * 2)
    with pytest.raises(models.ThetaOutOfRangeError):
        models.construct_subnormal(2, 1, mus, theta=1.5)
    with pytest.raises(models.NoAdmissibleLambda1Error):
        models.construct_subnormal(
            2, 1, [AtomicMeasure.from_pairs([(0.0, 0.5), (1.0, 0.5)]), AtomicMeasure.delta(1.0)]
        )


def test_trunk_weights_decrease_toward_root():
    mus = [TWO_ATOM, AtomicMeasure.from_pairs([(0.25, 0.25), (1.0, 0.75)])]
    res = models.construct_subnormal(2, 4, mus)
    trunk = [abs(res.weights.weight(str(-k))) for k in range(4)]
    for a, b in zip(trunk, trunk[1:]):
        assert b <= a + 1e-12  # lambda_{-(k+1)} <= lambda_{-k}


def test_infinite_trunk_construction():
    mus = [AtomicMeasure.delta(1.0), TWO_ATOM]
    res = models.construct_subnormal(2, math.inf, mus)
    m = res.family.materialize(10)
    v = classify.subnormal_on_T(res.weights, m, mus, K=20)
    assert v.value == "yes" and not v.exact and v.depth == 20
    trunk = [abs(res.weights.weight(str(-k))) for k in range(12)]
    for a, b in zip(trunk, trunk[1:]):
        assert b <= a + 1e-12


def test_exists_lambda1():
    assert models.exists_lambda1([AtomicMeasure.delta(0.5), TWO_ATOM], 3)[0]
    ok, _ = models.exists_lambda1(
        [AtomicMeasure.from_pairs([(0.0, 0.5), (1.0, 0.5)]), TWO_ATOM], 1
    )
    assert not ok
    ok, lam1 = models.exists_lambda1([AtomicMeasure.delta(0.5), AtomicMeasure.delta(0.25)], math.inf)
    assert ok
    # the witness satisfies the finiteness sums for a range of orders
    for k in range(1, 20):
        s = sum(
            c * c * moment(mu, -k)
            for c, mu in zip(lam1, [AtomicMeasure.delta(0.5), AtomicMeasure.delta(0.25)])
        )
        assert math.isfinite(s)


def test_extremal_subnormal_maximizes_root_norm():
    mus = [AtomicMeasure.delta(1.0), TWO_ATOM]
    base = models.construct_subnormal(2, 2, mus)
    theta_max = base.theta
    norms = []
    for frac in (0.2, 0.5, 0.8, 1.0):
        res = models.construct_subnormal(2, 2, mus, theta=frac * theta_max)
        m = res.family.materialize(12)
        v = classify.subnormal_on_T(res.weights, m, mus)
        assert v.value == "yes"
        norms.append(abs(res.weights.weight(str(-1))))  # ||S e_root||
    assert norms[-1] == max(norms) and norms[-1] == pytest.approx(theta_max)


def test_construct_chex_isometry():
    taus = [AtomicMeasure.zero()] * 2
    res = models.construct_chex(2, 0, taus, t=(1 / math.sqrt(2), 1 / math.sqrt(2)))
    m = res.family.materialize(8)
    assert classify.is_isometry(res.weights, m).value == "yes"
    assert res.norm == pytest.approx(1.0)


def test_construct_chex_closed_form_trunk():
    taus = [AtomicMeasure.zero(), AtomicMeasure.delta(1.0)]
    res = models.construct_chex(2, 1, taus, t=(1.0, 0.6))
    assert res.weights.weight("0") == pytest.approx(1.25, abs=1e-15)
    assert res.extremal
    assert res.norm == pytest.approx(math.sqrt(2.0))
    m = res.family.materialize(10)
    assert classify.chex_on_T(res.weights, m, taus).value == "yes"


def test_chex_quotients_decrease():
    rng = random.Random(3)
    for _ in range(8):
        eta = rng.randint(2, 3)
        kappa = rng.randint(0, 3)
        taus = []
        for _ in range(eta):
            if rng.random() < 0.3:
                taus.append(AtomicMeasure.zero())
            else:
                pts = sorted({round(rng.uniform(0.3, 1.0), 3) for _ in range(rng.randint(1, 2))})
                taus.append(AtomicMeasure.from_pairs([(p, rng.uniform(0.02, 0.15)) for p in pts]))
        t = models.solve_t_sequence(taus, kappa)
        if t is None:
            continue
        res = models.construct_chex(eta, kappa, taus, t=t)
        m = res.family.materialize(12)
        root = m.tree.root
        vals = [shift.power_norm_squared(res.weights, m, root, n) for n in range(8)]
        quots = [vals[n + 1] / vals[n] for n in range(7)]
        for a, b in zip(quots, quots[1:]):
            assert b <= a + 1e-10
        # first-level mass bound for a trunked expansive system
        if kappa >= 1:
            assert sum(x * x for x in res.lambda1) < (kappa + 1) / kappa
        # branch weights nonincreasing past the second position
        for i in range(1, eta + 1):
            seq = [abs(res.weights.weight(f"({i},{j})")) for j in range(2, 8)]
            for a, b in zip(seq, seq[1:]):
                assert b <= a + 1e-12


def test_extremal_chex_minimizes_root_norm():
    taus = [AtomicMeasure.zero(), AtomicMeasure.delta(1.0, 0.4)]
    base = models.construct_chex(2, 2, taus)
    theta_min = base.theta
    norms = []
    for mult in (1.0, 1.3, 1.9):
        res = models.construct_chex(2, 2, taus, t=base.lambda1, theta=mult * theta_min)
        norms.append(abs(res.weights.weight(str(-1))))
        m = res.family.materialize(10)
        assert classify.chex_on_T(res.weights, m, taus).value == "yes"
    assert norms[0] == min(norms) and norms[0] == pytest.approx(theta_min)


def test_chex_validation():
    taus = [AtomicMeasure.zero(), AtomicMeasure.delta(1.0)]
    with pytest.raises(models.TConditionsViolatedError):
        models.construct_chex(2, 1, taus, t=(0.5, 0.6))  # consistency equality broken
    with pytest.raises(models.TConditionsViolatedError):
        models.construct_chex(2, 1, taus, t=(1.0, 1.0))  # deep drain not positive
    with pytest.raises(models.ThetaOutOfRangeError):
        models.construct_chex(2, 1, taus, t=(1.0, 0.6), theta=1.0)  # below 1.25
    with pytest.raises(models.TConditionsViolatedError):
        models.construct_chex(2, 0, [AtomicMeasure.delta(1.0)] * 2)  # no solution


def test_solve_t_sequence():
    t = models.solve_t_sequence([AtomicMeasure.zero()] * 3, 0)
    assert sum(x * x for x in t) == pytest.approx(1.0)
    assert models.solve_t_sequence([AtomicMeasure.delta(1.0)] * 2, 0) is None
    t2 = models.solve_t_sequence([AtomicMeasure.zero(), AtomicMeasure.delta(1.0)], 1)
    assert t2 is not None
    ssum = sum(x * x for x in t2)
    drained = t2[1] ** 2 * 2.0  # integral of 1/s + 1/s^2 against delta_1
    assert ssum == pytest.approx(1.0 + t2[1] ** 2)  # consistency equality
    assert ssum > drained


def test_backward_extension():
    assert models.backward_extension(AtomicMeasure.delta(1.0), math.inf, "subnormal")
    assert not models.backward_extension(
        AtomicMeasure.from_pairs([(0.0, 0.5), (1.0, 0.5)]), 1, "subnormal"
    )
    # strictness at the boundary
    assert not models.backward_extension(AtomicMeasure.delta(0.5, 0.5), 1, "chex")
    rng = random.Random(12)
    for _ in range(20):
        pts = sorted({round(rng.uniform(0.2, 1.0), 4) for _ in range(rng.randint(1, 3))})
        tau = AtomicMeasure.from_pairs([(p, rng.uniform(0.05, 0.6)) for p in pts])
        k = rng.randint(1, 3)
        direct = sum(moment(tau, -l) for l in range(1, k + 1))
        assert models.backward_extension(tau, k, "chex") == (direct < 1.0)


def test_bridge_classical():
    res = models.bridge_classical([AtomicMeasure.delta(1.0)] * 2, 1, "subnormal")
    m = res.family.materialize(8)
    assert classify.subnormal_on_T(res.weights, m, [AtomicMeasure.delta(1.0)] * 2).value == "yes"
    # branch weights reproduce the classical ones shifted outward
    alphas = models.classical_weights(TWO_ATOM, "subnormal", 6)
    res2 = models.bridge_classical([AtomicMeasure.delta(1.0), TWO_ATOM], 0, "subnormal")
    for n, alpha in enumerate(alphas, start=1):
        assert abs(res2.weights.weight(f"(2,{n + 1})")) == pytest.approx(alpha)

    taus = [AtomicMeasure.zero(), AtomicMeasure.delta(1.0)]
    res3 = models.bridge_classical(taus, 1, "chex")
    achex = models.classical_weights(AtomicMeasure.delta(1.0), "chex", 5)
    for n, alpha in enumerate(achex, start=1):
        assert abs(res3.weights.weight(f"(2,{n + 1})")) == pytest.approx(alpha)

    with pytest.raises(models.ImpossibleError):
        models.bridge_classical(
            [AtomicMeasure.from_pairs([(0.0, 0.5), (1.0, 0.5)]), AtomicMeasure.delta(1.0)],
            0,
            "subnormal",
        )


def test_classical_weights_at_deep_indices():
    # the moments underflow long before n = 1200; the ratios tend to the top atom
    mu = AtomicMeasure.from_pairs([(0.3, 0.5), (0.45, 0.5)])
    alphas = models.classical_weights(mu, "subnormal", 1200)
    assert alphas[:3] == [math.sqrt(moment(mu, n) / moment(mu, n - 1)) for n in (1, 2, 3)]
    assert alphas[-1] == pytest.approx(math.sqrt(0.45), rel=1e-12)
    with pytest.raises(ValueError):
        models.classical_weights(AtomicMeasure.delta(1.5), "chex", 5)
    with pytest.raises(models.ImpossibleError):
        models.bridge_classical([AtomicMeasure.delta(1.0)] * 2, 0, "chex")


def test_subnormal_output_passes_hankel_oracle():
    mus = [AtomicMeasure.delta(1.0), TWO_ATOM]
    res = models.construct_subnormal(2, 1, mus)
    m = res.family.materialize(22)
    for u in ("-1", "0", "(1,1)", "(2,1)", "(2,3)"):
        vals = [shift.power_norm_squared(res.weights, m, u, n) for n in range(11)]
        p = MomentPrefix.of(vals)
        scale = 1.0 + max(abs(v) for v in vals)
        for sh in (0, 1):
            assert oracle.hankel_min_eig(p, sh) >= -1e-9 * scale
