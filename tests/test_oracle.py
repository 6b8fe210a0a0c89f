import random

import numpy as np
import pytest

import treeshift as ts
from treeshift import classify, oracle, shift, tree
from treeshift.measure import MomentPrefix
from treeshift.shift import WeightSystem

from helpers import (
    hyponormal_two_branch,
    ones_chain,
    p_separating,
    random_tree,
    random_weights,
    ref_dense_norms_squared,
    ref_interior,
    ref_matrix,
    ref_partial_isometry,
    ref_restricted,
)


def test_truncate_zplus():
    m = ts.zplus().materialize(3)
    w = ones_chain("z_plus")
    tr = oracle.truncate(m, 3, weights=w)
    a = ref_matrix(tr)
    assert a.shape == (4, 4)
    sub = np.diag(np.ones(3), k=-1)
    assert np.allclose(a, sub)


def test_truncate_broom_count_and_interior():
    tr = oracle.truncate(ts.broom(2, 1), 2)
    assert len(tr.order) == 6  # trunk -1,0 plus two branches of length 2
    t = tree.validate(["a", "b", "c"], [("a", "b"), ("b", "c")])
    tr2 = oracle.truncate(t, 1)
    assert tr2.interior == frozenset(t.vertices)


def test_operator_norm_cases():
    fam, w = p_separating(1.0, 1.0, 1.0)  # isometry
    tr = oracle.truncate(fam.materialize(8), 8, weights=w)
    assert oracle.operator_norm(tr) == pytest.approx(1.0, rel=1e-6)

    m = ts.zplus().materialize(6)
    w2 = WeightSystem(base={str(n): float(n) for n in range(1, 7)})
    tr2 = oracle.truncate(m, 6, weights=w2)
    assert oracle.operator_norm(tr2) == pytest.approx(6.0, rel=1e-6)


def test_operator_norm_vs_closed_form():
    rng = random.Random(2)
    for _ in range(10):
        t = random_tree(rng, rng.randint(5, 120))
        w = random_weights(rng, t)
        m = tree.as_complete(t)
        tr = oracle.truncate(m, 1, weights=w)
        assert oracle.operator_norm(tr, 1e-7) == pytest.approx(
            shift.norm(w, m).value, rel=1e-6
        )


def test_selfcommutator_examples():
    fam, w = hyponormal_two_branch()
    tr = oracle.truncate(fam.materialize(10), 10, weights=w)
    assert oracle.selfcommutator_check(tr, p=1.0).ok
    sq = oracle.power_selfcommutator_check(tr, k=2)
    assert not sq.ok and sq.witness == "(2,1)"

    fam_i, wi = p_separating(1.0, 1.0, 1.0)
    tri = oracle.truncate(fam_i.materialize(10), 10, weights=wi)
    for p in (0.5, 1.0, 2.0):
        assert oracle.selfcommutator_check(tri, p=p).ok


def test_selfcommutator_matches_the_explicit_diagonal_product():
    # |S*|^2p = u diag(|S|^2p) u*, formed densely with the n x n diagonal
    def explicit(tr, p):
        a = ref_matrix(tr)
        dpow = ref_dense_norms_squared(a) ** p
        u = ref_partial_isometry(tr, a)
        sub, scale = ref_restricted(np.diag(dpow) - u @ np.diag(dpow) @ u.conj().T, ref_interior(tr))
        return np.linalg.eigvalsh(sub)[0], scale

    rng = random.Random(3)
    trees = [oracle.truncate(fam.materialize(8), 8, weights=w)
             for fam, w in (hyponormal_two_branch(), p_separating(1.0, 0.5, 2.0))]
    for _ in range(4):
        t = random_tree(rng, rng.randint(20, 120))
        trees.append(oracle.truncate(tree.as_complete(t), 1, weights=random_weights(rng, t, zeros=0.1)))
    for tr in trees:
        for p in (0.5, 1.0, 2.0):
            got = oracle.selfcommutator_check(tr, p=p)
            want, scale = explicit(tr, p)
            assert abs(got.min_eig - want) <= 1e-12 * scale
            assert got.ok == (want >= -1e-10 * scale)


def test_selfcommutator_agrees_with_classifier():
    rng = random.Random(17)
    agree = 0
    for _ in range(50):
        t = random_tree(rng, rng.randint(5, 150))
        w = random_weights(rng, t, zeros=0.1 if rng.random() < 0.3 else 0.0)
        m = tree.as_complete(t)
        v = classify.is_hyponormal(w, m)
        o = oracle.selfcommutator_check(oracle.truncate(m, 1, weights=w), p=1.0)
        assert (v.value == "yes") == o.ok
        agree += 1
    assert agree == 50


def test_p_selfcommutator_on_separating_family():
    for p in (0.5, 1.0, 2.0):
        for a in (0.6, 1.0, 1.3):
            for b in (0.8, 1.1):
                fam, w = p_separating(0.9, a, b)
                m = fam.materialize(10)
                v = classify.is_p_hyponormal(w, m, p)
                o = oracle.selfcommutator_check(
                    oracle.truncate(m, 10, weights=w), p=p
                )
                assert (v.value == "yes") == o.ok


def test_hankel_min_eig():
    assert oracle.hankel_min_eig(MomentPrefix.of([1, 1, 1])) == pytest.approx(0.0, abs=1e-12)
    assert oracle.hankel_min_eig(MomentPrefix.of([1, 2, 5])) > 0
    assert oracle.hankel_min_eig(MomentPrefix.of([1, 2, 1])) < 0
    with pytest.raises(oracle.InsufficientLengthError):
        oracle.hankel_min_eig(MomentPrefix.of([1.0]), shift=1)


def test_kernel_dims_families():
    cases = [
        (ts.zminus(), ones_chain("z_minus"), 1, 0),
        (ts.zline(), ones_chain("z"), 0, 0),
        (ts.zplus(), ones_chain("z_plus"), 0, 1),
    ]
    for fam, w, dk, dck in cases:
        m = fam.materialize(8)
        tr = oracle.truncate(m, 8, weights=w)
        assert oracle.kernel_dims(tr) == (dk, dck)
        assert tree.tree_index(fam) == dk - dck


def test_empty_interior():
    m = ts.zline().materialize(1)  # only vertex "0" is complete, but it has no parent safety
    w = ones_chain("z")
    tr = oracle.truncate(m, 1, weights=w)
    with pytest.raises(oracle.EmptyInteriorError):
        # two levels of safety are impossible at depth 1
        oracle.power_selfcommutator_check(tr, k=3)
