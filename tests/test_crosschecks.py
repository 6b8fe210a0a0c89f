"""Cross-route consistency: every closed form against an independent check."""

import math
import random

import numpy as np
import pytest

import treeshift as ts
from treeshift import classify, models, oracle, shift, tree
from treeshift.measure import (
    AtomicMeasure,
    MomentPrefix,
    is_stieltjes,
    jacobi_min_eig,
    moment,
)
from treeshift.shift import WeightSystem, weights_from_json

from helpers import ones_chain, ref_commutator, ref_interior, ref_restricted, side_branch_chain


def test_jacobi_on_hankel_matrices():
    # moment Hankels are badly conditioned; the two eigensolvers must agree
    rng = random.Random(99)
    for _ in range(40):
        pts = sorted({round(rng.uniform(0.05, 3.0), 4) for _ in range(rng.randint(1, 4))})
        mu = AtomicMeasure.from_pairs([(p, rng.uniform(0.1, 2.0)) for p in pts])
        vals = [moment(mu, n) for n in range(0, 13)]
        for order in (2, 4, 6):
            h = np.array([[vals[i + j] for j in range(order)] for i in range(order)])
            a = jacobi_min_eig(h)
            b = float(np.linalg.eigvalsh(h)[0])
            scale = 1.0 + float(np.max(np.abs(h)))
            assert abs(a - b) <= 1e-10 * scale


def test_sequence_tests_agree_with_lapack_route():
    rng = random.Random(5)
    for _ in range(30):
        vals = [1.0] + [rng.uniform(0.0, 3.0) for _ in range(rng.randint(2, 8))]
        p = MomentPrefix.of(vals)
        verdict = is_stieltjes(p)
        scale = 1.0 + max(abs(v) for v in vals)
        mins = []
        for sh in (0, 1):
            try:
                mins.append(oracle.hankel_min_eig(p, sh))
            except oracle.InsufficientLengthError:
                pass
        lap_ok = all(mn >= -1e-9 * scale for mn in mins)
        # the ladder checks more orders than the single largest matrix, so a
        # ladder pass forces a LAPACK pass; disagreement is only possible the
        # other way within tolerance noise
        if verdict.ok:
            assert lap_ok
        elif min(mins) < -1e-6 * scale:
            assert not verdict.ok


def test_random_subnormal_models_round_trip():
    rng = random.Random(7)
    built = 0
    for _ in range(12):
        eta = rng.randint(2, 4)
        kappa = rng.choice([0, 1, 2, 3])
        mus = []
        for _ in range(eta):
            pts = sorted({round(rng.uniform(0.2, 2.5), 3) for _ in range(rng.randint(1, 3))})
            masses = [rng.uniform(0.1, 1.0) for _ in pts]
            total = sum(masses)
            mus.append(AtomicMeasure.from_pairs([(p, m / total) for p, m in zip(pts, masses)]))
        res = models.construct_subnormal(eta, kappa, mus)
        m = res.family.materialize(16)
        v = classify.subnormal_on_T(res.weights, m, mus)
        assert v.value == "yes"
        if kappa >= 1:
            assert v.detail["extremal"]
        assert res.norm == pytest.approx(math.sqrt(max(mu.support_max() for mu in mus)))
        # independent ladder at a few vertices
        for u in (m.tree.root, "0", "(1,1)", f"({eta},2)"):
            assert classify.stieltjes_necessary(res.weights, m, u, 8).ok
        # trunk weights never increase toward the root
        if kappa >= 2:
            trunk = [abs(res.weights.weight(str(-k))) for k in range(kappa)]
            assert all(b <= a + 1e-12 for a, b in zip(trunk, trunk[1:]))
        built += 1
    assert built == 12


def test_random_chex_models_round_trip():
    rng = random.Random(8)
    built = 0
    for _ in range(14):
        eta = rng.randint(2, 4)
        kappa = rng.choice([0, 1, 2])
        taus = []
        for _ in range(eta):
            if rng.random() < 0.35:
                taus.append(AtomicMeasure.zero())
            else:
                pts = sorted({round(rng.uniform(0.4, 1.0), 3) for _ in range(rng.randint(1, 2))})
                taus.append(
                    AtomicMeasure.from_pairs([(p, rng.uniform(0.02, 0.2)) for p in pts])
                )
        t = models.solve_t_sequence(taus, kappa)
        if t is None:
            continue
        res = models.construct_chex(eta, kappa, taus, t=t)
        m = res.family.materialize(16)
        v = classify.chex_on_T(res.weights, m, taus)
        assert v.value == "yes", (eta, kappa)
        for u in (m.tree.root, "0", "(1,1)"):
            assert classify.ca_necessary(res.weights, m, u, 8).ok
        built += 1
    assert built >= 8


def test_solve_t_with_mixed_blocks():
    # one branch drains too much, the other stays healthy
    heavy = AtomicMeasure.delta(0.7, 0.6)   # 1/s integral < 1, drained sum >= 1
    light = AtomicMeasure.delta(0.9, 0.1)
    assert moment(heavy, -1) < 1.0 <= moment(heavy, -1) + moment(heavy, -2)
    t = models.solve_t_sequence([heavy, light], 1)
    assert t is not None
    res = models.construct_chex(2, 1, [heavy, light], t=t)
    m = res.family.materialize(12)
    assert classify.chex_on_T(res.weights, m, [heavy, light]).value == "yes"


def _adjoint_commutator_extremes(m, w, p=1.0):
    tr = oracle.truncate(m, max(m.depth, 1), weights=w)
    sub, _ = ref_restricted(ref_commutator(tr, p), ref_interior(tr))
    evs = np.linalg.eigvalsh(sub)
    return float(evs[0]), float(evs[-1])


def test_cohyponormal_detector_matches_matrix_sign():
    m, w, _ = side_branch_chain(n_chain=18)
    assert classify.is_cohyponormal(w, m).value == "yes"
    _, mx = _adjoint_commutator_extremes(m, w)
    assert mx <= 1e-10  # self-commutator nonpositive on the interior

    base = dict(w.base)
    base["s4"] = 0.5
    w_bad = WeightSystem(base=base)
    assert classify.is_cohyponormal(w_bad, m).value == "no"
    _, mx_bad = _adjoint_commutator_extremes(m, w_bad)
    assert mx_bad > 1e-6


def test_normal_detector_matches_matrix():
    m = ts.zline().materialize(8)
    w = ones_chain("z")
    assert classify.is_normal(w, m).value == "yes"
    mn, mx = _adjoint_commutator_extremes(m, w)
    assert abs(mn) <= 1e-12 and abs(mx) <= 1e-12


def test_infinite_trunk_weights_serialize():
    mus = [AtomicMeasure.delta(1.0), AtomicMeasure.from_pairs([(0.5, 0.5), (1.0, 0.5)])]
    res = models.construct_subnormal(2, math.inf, mus)
    blob = res.weights.to_json()
    fam = ts.broom(2, math.inf)
    back = weights_from_json(blob, fam)
    m = fam.materialize(9)
    for v in m.tree.vertices:
        if m.tree.parent.get(v) is None and not m.boundary_root:
            continue
        assert back.weight(v) == pytest.approx(res.weights.weight(v), rel=1e-15)
    # beyond the materialization too
    assert back.weight("-15") == pytest.approx(res.weights.weight("-15"), rel=1e-15)


def test_power_norms_vs_dense_on_families():
    # family rules and the dense truncation describe one operator
    rng = random.Random(30)
    mus = [AtomicMeasure.from_pairs([(0.5, 0.4), (1.5, 0.6)]), AtomicMeasure.delta(2.0)]
    res = models.construct_subnormal(2, 1, mus)
    m = res.family.materialize(12)
    tr = oracle.truncate(m, 12, weights=res.weights)
    for u in ("-1", "0", "(1,1)", "(2,3)"):
        for n in range(6):
            a = shift.power_norm_squared(res.weights, m, u, n)
            b = oracle.matrix_power_norm(tr, u, n) ** 2
            assert b == pytest.approx(a, rel=1e-10)
