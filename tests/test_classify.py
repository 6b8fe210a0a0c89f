import math
import random

import pytest

import treeshift as ts
from treeshift import classify, models, shift, tree
from treeshift.measure import AtomicMeasure, NotProbabilityError
from treeshift.shift import BranchRule, BinaryWeights, BroomWeights, ConstantTail, SequenceTail, WeightSystem

from helpers import (
    broom_weights,
    hyponormal_two_branch,
    ones_chain,
    paranormal_not_hyponormal,
    p_separating,
    random_tree,
    random_weights,
    ref_chain_verdict,
    side_branch_chain,
    stem_binary,
    two_threads,
    TWO_ATOM,
)


def test_isometry_examples():
    # equal first-level split, unit tails
    w = broom_weights(2, 0, [((1 / math.sqrt(2),), 1.0), ((1 / math.sqrt(2),), 1.0)])
    m = ts.broom(2, 0).materialize(6)
    v = classify.is_isometry(w, m)
    assert v.value == "yes" and v.exact

    assert classify.is_isometry(ones_chain("z"), ts.zline().materialize(6)).value == "yes"

    fam, w2 = two_threads()
    v2 = classify.is_isometry(w2, fam.materialize(6))
    assert v2.value == "no" and v2.witness["vertex"] == "(1,1)"


def test_quasinormal_examples():
    w = WeightSystem(rules=BinaryWeights(spine=BranchRule((), ConstantTail(0.7), 1), off_spine=0.7))
    v = classify.is_quasinormal(w, ts.binary().materialize(4))
    assert v.value == "yes" and v.exact
    assert v.detail["scalar_multiple_of_isometry"] == pytest.approx(0.7 * math.sqrt(2))

    fam, wi = p_separating(1.0, 1.0, 1.0)
    assert classify.is_quasinormal(wi, fam.materialize(6)).value == "yes"

    fam3, w3 = hyponormal_two_branch()
    v3 = classify.is_quasinormal(w3, fam3.materialize(6))
    assert v3.value == "no"
    u, c = v3.witness["parent"], v3.witness["child"]
    n2 = shift.shift_norms_squared(w3, fam3.materialize(6))
    assert n2[u] != pytest.approx(n2[c])  # witness re-evaluates


def test_normal_and_cohyponormal_line():
    m = ts.zline().materialize(8)
    assert classify.is_normal(ones_chain("z"), m).value == "yes"
    assert classify.is_cohyponormal(ones_chain("z"), m).value == "yes"

    w_inc = WeightSystem(
        rules=shift.ChainWeights(
            kind="z",
            pos=BranchRule((), shift.SequenceTail(lambda n: 1 + 0.1 * min(n, 40), 5.0, 1.0, True), 1),
            neg=BranchRule((), ConstantTail(1.0), 0),
        )
    )
    assert classify.is_cohyponormal(w_inc, m).value == "no"


def test_cohyponormal_rooted_cases():
    fam, w = paranormal_not_hyponormal()
    m = fam.materialize(6)
    assert classify.is_cohyponormal(w, m).value == "no"
    zero = WeightSystem(base={v: 0.0 for v in m.tree.vertices if m.tree.parent.get(v)})
    t_small = tree.validate(["a", "b"], [("a", "b")])
    assert classify.is_cohyponormal(WeightSystem(base={"b": 0.0}), tree.as_complete(t_small)).value == "yes"


def test_cohyponormal_chain_structure():
    m, w, side = side_branch_chain()
    v = classify.is_cohyponormal(w, m)
    assert v.value == "yes"
    chain = v.detail["chain"]
    assert chain == [f"c{i}" for i in range(1, len(chain) + 1)]
    # every nonzero weight lies on the extracted chain
    nz = {x for x in m.tree.vertices if m.tree.parent.get(x) and abs(w.weight(x)) > 0}
    assert nz <= set(chain) | {f"c{len(chain)+1}"}

    m2, w2, _ = side_branch_chain(side_weight=0.0)
    base = dict(w2.base)
    base["s4"] = 0.5
    v2 = classify.is_cohyponormal(WeightSystem(base=base), m2)
    assert v2.value == "no" and v2.witness["vertex"] == "s4"


def test_cohyponormal_terminal_fan():
    # chain that ends in a dead fan: allowed when the fan mass fits the last weight
    verts = [f"c{i}" for i in range(9)] + ["d1", "d2"]
    edges = [(f"c{i}", f"c{i+1}") for i in range(8)] + [("c8", "d1"), ("c8", "d2")]
    t = tree.validate(verts, edges)
    m = tree.explicit_truncation(t, rootless=True)
    base = {f"c{i+1}": 1.0 for i in range(8)}
    base.update({"d1": 0.6, "d2": 0.5})  # 0.36 + 0.25 <= 1
    v = classify.is_cohyponormal(WeightSystem(base=base), m)
    assert v.value == "yes" and v.detail["terminal"]

    base["d2"] = 0.9  # 0.36 + 0.81 > 1
    v2 = classify.is_cohyponormal(WeightSystem(base=base), m)
    assert v2.value == "no"


def test_hyponormal_examples():
    fam, w = hyponormal_two_branch()
    v = classify.is_hyponormal(w, fam.materialize(8))
    assert v.value == "yes" and v.exact

    fam2, w2 = paranormal_not_hyponormal()
    m2 = fam2.materialize(8)
    n2 = shift.shift_norms_squared(w2, m2)
    assert math.sqrt(n2["(2,1)"]) == 0.5
    assert abs(w2.weight("(2,1)")) == 1.0
    assert classify.is_hyponormal(w2, m2).value == "no"

    fam3, w3 = p_separating(1.0, 1.0, 1.0)
    assert classify.is_hyponormal(w3, fam3.materialize(8)).value == "yes"


def test_hyponormal_rejects_leafy_trees():
    rng = random.Random(21)
    for _ in range(5):
        t = random_tree(rng, rng.randint(3, 60))
        w = random_weights(rng, t, lo=0.2, hi=2.0)
        assert classify.is_hyponormal(w, tree.as_complete(t)).value == "no"


def test_hyponormal_scaling_invariance():
    rng = random.Random(4)
    for _ in range(8):
        t = random_tree(rng, rng.randint(4, 60))
        w = random_weights(rng, t, zeros=0.5)
        m = tree.as_complete(t)
        before = classify.is_hyponormal(w, m).value
        after = classify.is_hyponormal(w.scaled(2.5), m).value
        assert before == after


def test_p_hyponormal_separating_grid():
    for lam0, a, b, p, expect in [
        (0.7, 0.9, 1.05, 2.0, True),   # a^4+b^4 = 1.871... <= 2
        (0.7, 0.9, 1.05, 4.0, True),   # a^8+b^8 = 1.90...  <= 2
        (0.7, 0.9, 1.2, 2.0, False),   # 0.6561 + 2.0736 > 2
        (1.1, 0.9, 1.05, 0.5, False),  # first-level overshoot
        (1.1, 1.0, 1.0, 2.0, False),
    ]:
        fam, w = p_separating(lam0, a, b)
        v = classify.is_p_hyponormal(w, fam.materialize(8), p)
        assert (v.value == "yes") == expect, (lam0, a, b, p)


def test_p_equals_one_matches_hyponormal():
    rng = random.Random(6)
    for _ in range(12):
        t = random_tree(rng, rng.randint(4, 80))
        w = random_weights(rng, t, zeros=0.3)
        m = tree.as_complete(t)
        assert (
            classify.is_hyponormal(w, m).value
            == classify.is_p_hyponormal(w, m, 1.0).value
        )


def test_p_monotone():
    rng = random.Random(14)
    grid = [(a, b) for a in (0.6, 0.9, 1.1, 1.3) for b in (0.7, 1.0, 1.2)]
    for a, b in grid:
        fam, w = p_separating(0.8, a, b)
        m = fam.materialize(8)
        for p, q in [(0.25, 1.0), (1.0, 4.0), (0.5, 2.0)]:
            vq = classify.is_p_hyponormal(w, m, q)
            vp = classify.is_p_hyponormal(w, m, p)
            if vq.value == "yes":
                assert vp.value == "yes"


def test_classical_shift_p_collapse():
    rng = random.Random(10)
    for kind, fam in [("z_plus", ts.zplus()), ("z", ts.zline())]:
        m = fam.materialize(10)
        for _ in range(6):
            base = {}
            for v in m.tree.vertices:
                if m.tree.parent.get(v) is not None:
                    base[v] = rng.uniform(0.2, 2.0)
            w = WeightSystem(base=base)
            verdicts = {
                p: classify.is_p_hyponormal(w, m, p).value for p in (0.25, 1.0, 4.0)
            }
            assert len(set(verdicts.values())) == 1


def test_subnormal_on_broom():
    fam, w = p_separating(1.0, 1.0, 1.0)
    m = fam.materialize(8)
    mus = [AtomicMeasure.delta(1.0), AtomicMeasure.delta(1.0)]
    v = classify.subnormal_on_T(w, m, mus)
    assert v.value == "yes" and v.detail["extremal"]

    # a^2+b^2 = 2 with unequal atoms, lambda0 small: subnormal, not extremal
    a2, b2 = 0.8, 1.2
    fam2, w2 = p_separating(0.5, math.sqrt(a2), math.sqrt(b2))
    mus2 = [AtomicMeasure.delta(1 / a2), AtomicMeasure.delta(1 / b2)]
    v2 = classify.subnormal_on_T(w2, fam2.materialize(8), mus2)
    assert v2.value == "yes" and not v2.detail["extremal"]

    # a^2+b^2 != 2 breaks the strong consistency equality
    fam3, w3 = p_separating(0.5, 1.1, 1.1)
    mus3 = [AtomicMeasure.delta(1 / 1.21), AtomicMeasure.delta(1 / 1.21)]
    v3 = classify.subnormal_on_T(w3, fam3.materialize(8), mus3)
    assert v3.value == "no" and v3.witness["condition"] == "strong consistency"


def test_subnormal_trunk_perturbation_detected():
    mus = [AtomicMeasure.delta(1.0), TWO_ATOM]
    res = models.construct_subnormal(2, 2, mus)
    m = res.family.materialize(12)
    assert classify.subnormal_on_T(res.weights, m, mus).value == "yes"
    bumped = res.weights.with_base({"0": abs(res.weights.weight("0")) * 1.05})
    v = classify.subnormal_on_T(bumped, m, mus)
    assert v.value == "no" and v.witness["condition"] == "trunk equality"
    shrunk = res.weights.with_base(
        {"-1": abs(res.weights.weight("-1")) * 0.9}
    )
    v2 = classify.subnormal_on_T(shrunk, m, mus)
    assert v2.value == "yes" and not v2.detail["extremal"]


def test_subnormal_errors():
    fam, w = p_separating(1.0, 1.0, 1.0)
    m = fam.materialize(8)
    with pytest.raises(NotProbabilityError):
        classify.subnormal_on_T(w, m, [AtomicMeasure.delta(1.0, 0.5), AtomicMeasure.delta(1.0)])
    with pytest.raises(classify.MeasureMismatchError):
        classify.subnormal_on_T(w, m, [AtomicMeasure.delta(2.0), AtomicMeasure.delta(1.0)])
    with pytest.raises(TypeError):
        classify.subnormal_on_T(w, ts.zplus().materialize(4), [])


def test_chex_on_broom():
    taus = [AtomicMeasure.zero(), AtomicMeasure.delta(1.0)]
    res = models.construct_chex(2, 1, taus, t=(1.0, 0.6))
    m = res.family.materialize(10)
    v = classify.chex_on_T(res.weights, m, taus)
    assert v.value == "yes" and v.detail["extremal"] and v.exact

    # isometry with zero measures
    w = broom_weights(2, 0, [((1 / math.sqrt(2),), 1.0), ((1 / math.sqrt(2),), 1.0)])
    v2 = classify.chex_on_T(w, ts.broom(2, 0).materialize(8), [AtomicMeasure.zero()] * 2)
    assert v2.value == "yes"


def test_chex_infinite_trunk_reduces_to_isometry():
    w = broom_weights(
        2, math.inf,
        [((1 / math.sqrt(2),), 1.0), ((1 / math.sqrt(2),), 1.0)],
    )
    rules = w.rules
    w = WeightSystem(
        rules=shift.BroomWeights(
            eta=2, kappa=math.inf, branches=rules.branches,
            trunk=BranchRule((), ConstantTail(1.0), 0),
        )
    )
    m = ts.broom(2, math.inf).materialize(6)
    v = classify.chex_on_T(w, m, [AtomicMeasure.zero()] * 2)
    assert v.value == "yes"
    w_bad = WeightSystem(
        rules=shift.BroomWeights(
            eta=2, kappa=math.inf, branches=rules.branches,
            trunk=BranchRule((), ConstantTail(1.3), 0),
        )
    )
    assert classify.chex_on_T(w_bad, m, [AtomicMeasure.zero()] * 2).value == "no"


def test_sequence_necessary_tests():
    fam, w = two_threads()
    m = fam.materialize(14)
    assert not classify.stieltjes_necessary(w, m, "(1,1)", 6).ok
    assert not classify.ca_necessary(w, m, "(1,1)", 6).ok

    fam2, w2 = p_separating(1.0, 1.0, 1.0)
    m2 = fam2.materialize(14)
    assert classify.stieltjes_necessary(w2, m2, "0", 10).ok
    assert classify.ca_necessary(w2, m2, "0", 10).ok


def test_sequence_tests_refuse_overflowing_powers():
    # ||S^n e_u||^2 = 1e200 n overflows to inf at n = 2; the ladder read it as ok
    m = ts.zplus().materialize(8)
    w = WeightSystem(base={v: 1e100 for v in m.tree.vertices if v != m.tree.root})
    with pytest.raises(ValueError, match="not finite"):
        classify.stieltjes_necessary(w, m, "0", 4)
    with pytest.raises(ValueError, match="not finite"):
        classify.ca_necessary(w, m, "0", 4)


def test_paranormal():
    fam, w = paranormal_not_hyponormal()
    m = fam.materialize(12)
    assert classify.paranormal_witness(w, m, {}) is True
    v = classify.paranormal_sample(w, m, count=250, seed=3)
    assert v.value == "yes"

    # a big first step followed by a tiny one violates the inequality at e_0
    m2 = ts.zplus().materialize(6)
    w2 = WeightSystem(base={"1": 2.0, "2": 0.1, "3": 1.0, "4": 1.0, "5": 1.0, "6": 1.0})
    assert classify.paranormal_witness(w2, m2, {"0": 1.0}) is False
    assert classify.paranormal_sample(w2, m2, count=100, seed=0).value == "no"


def test_square_hyponormal_on_stem_binary():
    m, w = stem_binary(7, alpha=3.0, beta=1.0)
    assert classify.is_hyponormal(w, m).value == "yes"
    from treeshift import oracle

    tr = oracle.truncate(m, 7, weights=w)
    assert oracle.adjoint_power_norm(tr, "(2,2)", 2) == pytest.approx(3.0, abs=1e-12)
    assert oracle.matrix_power_norm(tr, "(2,2)", 2) == pytest.approx(2.0, abs=1e-12)
    assert not oracle.power_selfcommutator_check(tr, k=2).ok


def test_admissibility():
    rep = classify.admissibility(ts.broom(2, 1))
    assert rep["isometric_nonzero"] and not rep["coisometric"]
    rep_z = classify.admissibility(ts.zline())
    assert rep_z["unitary"] and rep_z["coisometric"] and rep_z["normal_nonzero"]
    rep_zm = classify.admissibility(ts.zminus())
    assert rep_zm["coisometric"] and not rep_zm["hyponormal_nonzero"]
    t = tree.validate(["a", "b"], [("a", "b")])
    rep_f = classify.admissibility(tree.as_complete(t))
    assert not any(
        rep_f[k] for k in ("hyponormal_nonzero", "coisometric", "unitary", "normal_nonzero")
    )


def test_admissibility_reads_the_declared_structure():
    # rootless with no branching vertex: Z (leafless) or Z_- (one leaf), whatever the kind
    for leaves in (0, 1):
        fam = tree.TreeFamily(kind="custom", generator=lambda u: [], custom_root="r",
                              structure=tree.FamilyStructure(rooted=False, leaves=leaves))
        rep = classify.admissibility(fam)
        assert rep["coisometric"] and rep["dense_range"]
        assert rep["unitary"] == rep["normal_nonzero"] == rep["injective_nonzero"] == (leaves == 0)
    branching = tree.FamilyStructure(rooted=False, leaves=0, branch_children=(2,))
    rep = classify.admissibility(tree.TreeFamily(kind="custom", generator=lambda u: [], structure=branching))
    assert rep["injective_nonzero"] and not rep["coisometric"]
    # a truncated explicit prefix does not determine the structure
    t = tree.validate(["a", "b"], [("a", "b")])
    with pytest.raises(tree.IndeterminateError):
        classify.admissibility(tree.explicit_truncation(t, ["b"]))


def test_rooted_zero_prefix_with_a_nonzero_tail():
    # every prefix weight is 0, so the witness is a tail index: the first past the prefix
    m = ts.broom(2, 0).materialize(1)
    rule = BranchRule((0.0,), ConstantTail(1.0), 1)
    w = WeightSystem(rules=BroomWeights(2, 0, (rule, rule)))
    for require_equal, pred in ((True, classify.is_normal), (False, classify.is_cohyponormal)):
        v = pred(w, m)
        assert (v.value, v.exact, v.witness) == ("no", True, {"reason": "rooted and nonzero", "tail_index": 2})
        assert v == ref_chain_verdict(w, m, require_equal, classify.REL_TOL)
    # a tail that may be nonzero but reads 0 at every index walked decides nothing
    zero = BranchRule((0.0,), SequenceTail(lambda i: 0.0), 1)
    w = WeightSystem(rules=BroomWeights(2, 0, (zero, zero)))
    v = classify.is_normal(w, m)
    assert (v.value, v.exact) == ("indeterminate", False)
    assert v == ref_chain_verdict(w, m, True, classify.REL_TOL)
