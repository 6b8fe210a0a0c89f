"""Acceptance criteria, one test per criterion, tolerances pinned inline."""

import math
import random
import time

import treeshift as ts
from treeshift import classify, models, oracle, shift, tree
from treeshift.measure import AtomicMeasure, MomentPrefix, moment
from treeshift.shift import (
    BinaryWeights,
    BranchRule,
    FactorialTail,
    GeometricTail,
    WeightSystem,
)

from helpers import (
    broom_weights,
    hyponormal_two_branch,
    paranormal_not_hyponormal,
    p_separating,
    random_tree,
    random_weights,
    side_branch_chain,
    stem_binary,
    TWO_ATOM,
)


def _ok(n, msg):
    print(f"criterion {n:02d}: PASS - {msg}")


def test_criterion_01_tree_indices():
    cases = [
        (ts.zminus(), 1),
        (ts.zline(), 0),
        (ts.zplus(), -1),
        (ts.broom(2, 0), -2),
    ]
    for fam, want in cases:
        tree.tree_index(fam)  # warm-up
        t0 = time.perf_counter()
        got = tree.tree_index(fam)
        dt = time.perf_counter() - t0
        assert got == want and isinstance(got, int)
        assert dt < 1e-3

    # kernel-dimension oracle for the double branch with unit weights
    w = broom_weights(2, 0, [((1.0,), 1.0), ((1.0,), 1.0)])
    tr = oracle.truncate(ts.broom(2, 0).materialize(8), 8, weights=w)
    dk, dck = oracle.kernel_dims(tr)
    assert dk - dck == -2 == tree.tree_index(ts.broom(2, 0))

    rng = random.Random(1)
    for _ in range(8):
        t = random_tree(rng, rng.randint(2, 120))
        t0 = time.perf_counter()
        assert tree.tree_index(t) == 0
        assert time.perf_counter() - t0 < 1e-3
    _ok(1, "indices 1, 0, -1, -2 exact; kernel oracle agrees; finite trees 0")


def test_criterion_02_square_not_hyponormal():
    q, s, t_ = 4.0, 1.0, 1.9
    fam, w = hyponormal_two_branch(q=q, r=8.0, s=s, t=t_)
    m = fam.materialize(10)
    assert classify.is_hyponormal(w, m).value == "yes"
    tr = oracle.truncate(m, 10, weights=w)
    fwd = oracle.matrix_power_norm(tr, "(2,1)", 2)
    bwd = oracle.adjoint_power_norm(tr, "(2,1)", 2)
    assert abs(fwd - t_ ** 2) <= 1e-12
    assert abs(bwd - s * q) <= 1e-12
    assert fwd < bwd
    assert not oracle.power_selfcommutator_check(tr, k=2).ok
    _ok(2, "hyponormal yes; ||S^2 e|| = 3.61 < 4.0 = ||S*^2 e||, square fails")


def test_criterion_03_stem_binary_square():
    alpha, beta = 3.0, 1.0
    m, w = stem_binary(8, alpha, beta)
    tr = oracle.truncate(m, 8, weights=w)
    fwd = oracle.matrix_power_norm(tr, "(2,2)", 2)
    bwd = oracle.adjoint_power_norm(tr, "(2,2)", 2)
    assert abs(bwd - alpha * beta) <= 1e-12
    assert abs(fwd - 2 * beta ** 2) <= 1e-12
    assert bwd > fwd
    assert classify.is_hyponormal(w, m).value == "yes"
    _ok(3, "||S*^2 e|| = 3 > 2 = ||S^2 e||; first power hyponormal")


def test_criterion_04_paranormal_not_hyponormal():
    fam, w = paranormal_not_hyponormal()
    m = fam.materialize(10)
    n2 = shift.shift_norms_squared(w, m)
    assert math.sqrt(n2["(2,1)"]) == 0.5
    assert abs(w.weight("(2,1)")) == 1.0  # = ||S* e_{2,1}||
    assert classify.is_hyponormal(w, m).value == "no"
    v = classify.paranormal_sample(w, m, count=1000, seed=2024, max_support=8)
    assert v.value == "yes" and v.detail["trials"] == 1000
    _ok(4, "||Se||=0.5 vs ||S*e||=1.0; not hyponormal; 1000 paranormal samples clean")


def test_criterion_05_p_separation_grid():
    fam = ts.broom(2, 1)
    m = fam.materialize(10)
    checked = 0
    for a in (0.6, 0.8, 1.0, 1.2, 1.4):
        for b in (0.6, 0.8, 1.0, 1.2, 1.4):
            for lam0 in (0.5, 1.0, 1.1):
                _, w = p_separating(lam0, a, b)
                for p in (0.5, 1.0, 2.0):
                    want = lam0 <= 1.0 and a ** (2 * p) + b ** (2 * p) <= 2.0 + 1e-10
                    got = classify.is_p_hyponormal(w, m, p)
                    assert (got.value == "yes") == want, (a, b, lam0, p)
                    orc = oracle.selfcommutator_check(
                        oracle.truncate(m, 10, weights=w), p=p
                    )
                    assert orc.ok == (got.value == "yes"), (a, b, lam0, p)
                    checked += 1
                mus = [AtomicMeasure.delta(1 / a ** 2), AtomicMeasure.delta(1 / b ** 2)]
                sub = classify.subnormal_on_T(w, m, mus, tol=1e-10)
                want_sub = (
                    abs(a * a + b * b - 2.0) <= 1e-10
                    and (a ** 4 + b ** 4) / 2.0 <= 1.0 / lam0 ** 2 + 1e-10
                )
                assert (sub.value == "yes") == want_sub, (a, b, lam0)
    assert checked == 225
    _ok(5, "225 grid points: classifier = closed form = oracle; model test matches")


def test_criterion_06_norm_exactness():
    rng = random.Random(2025)
    for _ in range(25):
        t = random_tree(rng, rng.randint(5, 150))
        w = random_weights(rng, t, lo=0.0, hi=3.0)
        m = tree.as_complete(t)
        closed = shift.norm(w, m)
        assert closed.exact
        brute = oracle.operator_norm(oracle.truncate(m, 1, weights=w))
        assert abs(closed.value - brute) <= 1e-12 * max(closed.value, 1e-300)
    _ok(6, "25 random trees: closed-form norm = oracle norm within 1e-12")


def test_criterion_07_power_norms_match_dense():
    rng = random.Random(7)
    for _ in range(10):
        t = random_tree(rng, rng.randint(5, 100))
        w = random_weights(rng, t)
        m = tree.as_complete(t)
        tr = oracle.truncate(m, 1, weights=w)
        u = rng.choice(list(t.vertices))
        for n in range(9):
            a = shift.power_norm_squared(w, m, u, n)
            b = oracle.matrix_power_norm(tr, u, n) ** 2
            assert abs(a - b) <= 1e-10 * max(a, b, 1.0)
    _ok(7, "path-product power norms = dense matrix powers within 1e-10")


def test_criterion_08_subnormal_round_trip():
    mus = [AtomicMeasure.delta(1.0), TWO_ATOM]
    for kappa in (0, 1, 2):
        res = models.construct_subnormal(2, kappa, mus)
        assert abs(res.norm - 1.0) <= 1e-12
        deep = res.family.materialize(22)
        v = classify.subnormal_on_T(res.weights, deep, mus)
        assert v.value == "yes"
        probe = res.family.materialize(10)
        for u in probe.tree.vertices:
            vals = [shift.power_norm_squared(res.weights, deep, u, n) for n in range(11)]
            p = MomentPrefix.of(vals)
            assert classify.stieltjes_necessary(res.weights, deep, u, 10).ok
            scale = 1.0 + max(abs(x) for x in vals)
            for sh in (0, 1):
                assert oracle.hankel_min_eig(p, sh) >= -1e-9 * scale

    iso = models.construct_subnormal(2, 1, [AtomicMeasure.delta(1.0)] * 2)
    assert iso.extremal
    assert classify.is_isometry(iso.weights, iso.family.materialize(10)).value == "yes"
    _ok(8, "model shifts verify and pass Hankel ladders everywhere; isometry case exact")


def test_criterion_09_chex_round_trip():
    taus = [AtomicMeasure.zero(), AtomicMeasure.delta(1.0)]
    res = models.construct_chex(2, 1, taus, t=(1.0, 0.6))
    lam0 = abs(res.weights.weight("0"))
    assert lam0 == 1.25  # exact closed form
    deep = res.family.materialize(22)
    assert classify.chex_on_T(res.weights, deep, taus).value == "yes"
    probe = res.family.materialize(10)
    for u in probe.tree.vertices:
        assert classify.ca_necessary(res.weights, deep, u, 10).ok
    vals = [shift.power_norm_squared(res.weights, deep, "-1", n) for n in range(10)]
    quots = [vals[n + 1] / vals[n] for n in range(9)]
    for x, y in zip(quots, quots[1:]):
        assert y <= x + 1e-12
    _ok(9, "trunk weight 1.25 exact; alternating tests pass everywhere; quotients fall")


def test_criterion_10_backward_extensions():
    assert models.backward_extension(AtomicMeasure.delta(1.0), math.inf, "subnormal")
    with_zero = AtomicMeasure.from_pairs([(0.0, 0.25), (1.0, 0.75)])
    assert not models.backward_extension(with_zero, 1, "subnormal")
    assert not models.backward_extension(with_zero, 1, "chex")
    rng = random.Random(10)
    for _ in range(20):
        pts = sorted({round(rng.uniform(0.15, 1.0), 4) for _ in range(rng.randint(1, 3))})
        tau = AtomicMeasure.from_pairs([(p, rng.uniform(0.05, 0.7)) for p in pts])
        k = rng.randint(1, 4)
        direct = sum(moment(tau, -l) for l in range(1, k + 1))
        assert models.backward_extension(tau, k, "chex") == (direct < 1.0)
    _ok(10, "infinite-step yes for the unit atom; atom at 0 blocks; chex matches sums")


def test_criterion_11_cohyponormal_structure():
    m, w, side = side_branch_chain(n_chain=21, decay=0.015)
    assert len(m.tree.vertices) == 30
    v = classify.is_cohyponormal(w, m)
    assert v.value == "yes"
    chain = v.detail["chain"]
    assert chain == [f"c{i}" for i in range(1, len(chain) + 1)]
    nonzero = {
        x for x in m.tree.vertices
        if m.tree.parent.get(x) is not None and abs(w.weight(x)) != 0.0
    }
    assert nonzero <= set(chain) | {f"c{len(chain) + 1}"}

    base = dict(w.base)
    base["s6"] = 0.4
    v2 = classify.is_cohyponormal(WeightSystem(base=base), m)
    assert v2.value == "no" and v2.witness["vertex"] == "s6"
    _ok(11, "30-vertex chain detected with matching chain; perturbed side is the witness")


def test_criterion_12_domain_inclusion():
    m = ts.binary().materialize(3)
    w_fact = WeightSystem(rules=BinaryWeights(spine=BranchRule((), FactorialTail(), start=1)))
    rep = shift.domain_inclusion_criteria(w_fact, m, depth=20)
    assert rep.fwd.verdict == "holds" and rep.fwd.exact
    assert rep.bwd.verdict == "fails" and rep.bwd.exact
    assert rep.bwd.monotone_increasing
    # the diverging diagonal certificate blows past 1e6 at depth 20
    assert rep.bwd.extras["diag_sup"] > 1e6

    w_pow = WeightSystem(rules=BinaryWeights(spine=BranchRule((), GeometricTail(1.0, 2.0), start=1)))
    rep2 = shift.domain_inclusion_criteria(w_pow, m, depth=20)
    assert rep2.fwd.verdict == "holds" and rep2.bwd.verdict == "holds"
    _ok(12, "factorial spine: forward holds, backward diverges (>1e6); power spine: both hold")


def test_criterion_13_property_suites():
    rng = random.Random(13)

    # partition of non-root vertices by children sets
    for _ in range(10):
        t = random_tree(rng, rng.randint(2, 200))
        seen = [v for u in t.vertices for v in t.children[u]]
        assert len(seen) == len(set(seen))
        assert set(seen) == set(t.vertices) - {t.root}

    # adjoint and polar identities
    for _ in range(10):
        t = random_tree(rng, rng.randint(4, 90))
        m = tree.as_complete(t)
        w = random_weights(rng, t, zeros=0.15)
        f = {v: rng.uniform(-1, 1) for v in rng.sample(list(t.vertices), min(9, len(t.vertices)))}
        g = {v: rng.uniform(-1, 1) for v in rng.sample(list(t.vertices), min(9, len(t.vertices)))}
        assert abs(
            shift.vec_inner(shift.apply(w, m, f), g)
            - shift.vec_inner(f, shift.apply_adjoint(w, m, g))
        ) <= 1e-12
        mods, pi = shift.polar(w, m)
        u = rng.choice(list(t.vertices))
        lhs = shift.apply(w, m, {u: 1.0})
        rhs = {v: mods[u] * c for v, c in shift.apply(pi, m, {u: 1.0}).items()}
        assert set(lhs) == set(rhs)
        for v in lhs:
            assert abs(lhs[v] - rhs[v]) <= 1e-12 * max(1.0, abs(lhs[v]))

    # scaling invariance of hyponormality
    for _ in range(8):
        t = random_tree(rng, rng.randint(4, 80))
        m = tree.as_complete(t)
        w = random_weights(rng, t, zeros=0.5)
        assert (
            classify.is_hyponormal(w, m).value
            == classify.is_hyponormal(w.scaled(3.7), m).value
        )

    # p-monotonicity and the classical collapse
    mb = ts.broom(2, 1).materialize(8)
    for a in (0.7, 1.0, 1.25):
        for b in (0.8, 1.1):
            _, w = p_separating(0.9, a, b)
            for p, q in ((0.25, 1.0), (1.0, 4.0)):
                if classify.is_p_hyponormal(w, mb, q).value == "yes":
                    assert classify.is_p_hyponormal(w, mb, p).value == "yes"
    mz = ts.zplus().materialize(10)
    for _ in range(5):
        base = {str(n): rng.uniform(0.2, 2.0) for n in range(1, 11)}
        wz = WeightSystem(base=base)
        verdicts = {classify.is_p_hyponormal(wz, mz, p).value for p in (0.25, 1.0, 4.0)}
        assert len(verdicts) == 1

    # Hankel failure monotonicity
    from treeshift.measure import is_stieltjes

    for _ in range(10):
        mu = AtomicMeasure.from_pairs(
            [(rng.uniform(0.2, 2.0), rng.uniform(0.2, 1.0)) for _ in range(2)]
        )
        vals = [moment(mu, n) for n in range(9)]
        vals[1] *= 1.0 + rng.uniform(0.5, 1.5)  # break realizability
        failed = False
        for n in range(2, 9):
            ok = is_stieltjes(MomentPrefix.of(vals[: n + 1])).ok
            if failed:
                assert not ok
            failed = failed or not ok
        assert failed
    _ok(13, "partition, adjoint, polar, scaling, p-monotone, collapse, Hankel monotone")
