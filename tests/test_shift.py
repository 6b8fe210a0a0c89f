import cmath
import math
import random

import pytest

import treeshift as ts
from treeshift import oracle, shift, tree
from treeshift.shift import (
    AffineTail,
    BinaryWeights,
    BranchRule,
    BroomWeights,
    ChainWeights,
    ConstantTail,
    FactorialTail,
    GeometricTail,
    IncompleteTruncationError,
    SequenceTail,
    UnknownWeightError,
    WeightSystem,
    weights_from_json,
)

from helpers import (
    hyponormal_two_branch,
    ones_chain,
    paranormal_not_hyponormal,
    p_separating,
    random_tree,
    random_weights,
    ref_matrix,
    two_threads,
)


def test_apply_on_two_branch_example():
    fam, w = hyponormal_two_branch()
    m = fam.materialize(6)
    out = shift.apply(w, m, {"0": 1.0})
    assert out == {"(1,1)": 4.0, "(2,1)": 1.0}
    assert shift.apply(w, m, {}) == {}


def test_apply_ones_root():
    m = ts.zplus().materialize(4)
    assert shift.apply(ones_chain("z_plus"), m, {"0": 1.0}) == {"1": 1.0}


def test_apply_incomplete():
    fam, w = hyponormal_two_branch()
    m = fam.materialize(3)
    with pytest.raises(IncompleteTruncationError):
        shift.apply(w, m, {"(1,3)": 1.0})


def test_adjoint_on_examples():
    fam, w = paranormal_not_hyponormal()
    m = fam.materialize(6)
    out = shift.apply_adjoint(w, m, {"(2,1)": 1.0})
    assert out == {"0": 1.0}
    assert shift.apply_adjoint(w, m, {"0": 1.0}) == {}


def test_adjoint_identity_random():
    rng = random.Random(123)
    for _ in range(10):
        t = random_tree(rng, rng.randint(5, 80))
        m = tree.as_complete(t)
        base = {
            v: complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
            for v in t.vertices
            if t.parent.get(v) is not None
        }
        w = WeightSystem(base=base)
        pick = lambda: {
            v: complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
            for v in rng.sample(list(t.vertices), min(8, len(t.vertices)))
        }
        f, g = pick(), pick()
        lhs = shift.vec_inner(shift.apply(w, m, f), g)
        rhs = shift.vec_inner(f, shift.apply_adjoint(w, m, g))
        assert abs(lhs - rhs) <= 1e-12


def test_norm_examples():
    m = ts.zline().materialize(6)
    r = shift.norm(ones_chain("z"), m)
    assert r.value == 1.0 and r.exact
    fam, w = p_separating(1.0, 1.0, 1.0)
    r = shift.norm(w, fam.materialize(6))
    assert r.value == pytest.approx(1.0, abs=1e-15) and r.exact


def test_norm_matches_oracle_on_random_trees():
    rng = random.Random(42)
    for _ in range(12):
        t = random_tree(rng, rng.randint(8, 150))
        w = random_weights(rng, t)
        m = tree.as_complete(t)
        closed = shift.norm(w, m)
        assert closed.exact
        tr = oracle.truncate(m, 1, weights=w)
        assert oracle.operator_norm(tr) == pytest.approx(closed.value, rel=1e-12)


def test_norm_unbounded_tail():
    w = WeightSystem(
        rules=BinaryWeights(spine=BranchRule((), FactorialTail(), start=1))
    )
    m = ts.binary().materialize(3)
    r = shift.norm(w, m)
    assert math.isinf(r.value) and r.exact


def test_power_norms_two_threads():
    fam, w = two_threads()
    m = fam.materialize(8)
    vals = [shift.power_norm_squared(w, m, "0", n) for n in range(6)]
    assert vals == pytest.approx([1.0] * 6)
    assert shift.power_norm_squared(w, m, "(1,1)", 0) == 1.0


def test_power_norms_match_matrix():
    fam, w = hyponormal_two_branch()
    m = fam.materialize(9)
    tr = oracle.truncate(m, 9, weights=w)
    assert shift.power_norm_squared(w, m, "(2,1)", 2) == pytest.approx(
        1.9 ** 4, rel=1e-12
    )
    rng = random.Random(9)
    for _ in range(8):
        t = random_tree(rng, rng.randint(5, 60))
        w2 = random_weights(rng, t)
        m2 = tree.as_complete(t)
        tr2 = oracle.truncate(m2, 1, weights=w2)
        u = rng.choice(list(t.vertices))
        for n in range(5):
            a = shift.power_norm_squared(w2, m2, u, n)
            b = oracle.matrix_power_norm(tr2, u, n) ** 2
            assert b == pytest.approx(a, rel=1e-10, abs=1e-12)


def test_power_norm_requires_depth():
    fam, w = hyponormal_two_branch()
    m = fam.materialize(4)
    with pytest.raises(IncompleteTruncationError):
        shift.power_norm_squared(w, m, "(1,1)", 5)


def test_polar_identities():
    fam, w = p_separating(1.0, 1.0, 1.0)  # isometry
    m = fam.materialize(6)
    mods, pi = shift.polar(w, m)
    for v in ("(1,1)", "(1,3)", "0"):
        assert pi.weight(v) == pytest.approx(w.weight(v))

    m2 = ts.zplus().materialize(6)
    w2 = WeightSystem(base={str(n): 2.0 for n in range(1, 7)})
    _, pi2 = shift.polar(w2, m2)
    assert all(pi2.weight(str(n)) == pytest.approx(1.0) for n in range(1, 6))

    # basis identity S e_u = ||S e_u|| * S_pi e_u
    rng = random.Random(77)
    t = random_tree(rng, 40)
    m3 = tree.as_complete(t)
    w3 = random_weights(rng, t, zeros=0.2)
    mods3, pi3 = shift.polar(w3, m3)
    for u in t.vertices:
        lhs = shift.apply(w3, m3, {u: 1.0})
        rhs = shift.apply(pi3, m3, {u: 1.0})
        rhs = {v: mods3[u] * c for v, c in rhs.items()}
        assert set(lhs) == set(rhs)
        for v in lhs:
            assert lhs[v] == pytest.approx(rhs[v], rel=1e-12)


def test_partial_isometry_matrix():
    rng = random.Random(5)
    t = random_tree(rng, 50)
    m = tree.as_complete(t)
    w = random_weights(rng, t, zeros=0.15)
    _, pi = shift.polar(w, m)
    tr = oracle.truncate(m, 1, weights=pi)
    import numpy as np

    u = ref_matrix(tr)
    g = u.conj().T @ u
    norms2 = {
        v: sum(abs(w.weight(c)) ** 2 for c in t.children[v]) for v in t.vertices
    }
    for v in t.vertices:
        i = tr.pos(v)
        want = 1.0 if norms2[v] > 0 else 0.0
        assert g[i, i] == pytest.approx(want, abs=1e-12)


def test_modulus_power():
    fam, w = hyponormal_two_branch()
    m = fam.materialize(5)
    n2 = shift.shift_norms_squared(w, m)
    d2 = shift.modulus_power(w, m, 2.0)
    d1 = shift.modulus_power(w, m, 1.0)
    for u in d2:
        assert d2[u] == pytest.approx(n2[u])
        assert d1[u] ** 2 == pytest.approx(d2[u])
    d_alpha = shift.modulus_power(w, m, 0.7)
    for u in d_alpha:
        assert d_alpha[u] == pytest.approx(n2[u] ** 0.35)


def test_fredholm_examples():
    m = ts.zline().materialize(6)
    fd = shift.fredholm_data(ones_chain("z"), m)
    assert fd.is_fredholm and fd.index == 0

    wz = WeightSystem(
        rules=shift.ChainWeights(
            kind="z_plus",
            pos=BranchRule(
                (), SequenceTail(lambda n: 1.0 / n, declared_sup=1.0, declared_inf=0.0, exact=True), 1
            ),
        )
    )
    fd2 = shift.fredholm_data(wz, ts.zplus().materialize(8))
    assert not fd2.is_fredholm and fd2.c == 0.0

    w20 = WeightSystem(
        rules=shift.BroomWeights(
            eta=2, kappa=0,
            branches=(BranchRule((), ConstantTail(1.0), 1), BranchRule((), ConstantTail(1.0), 1)),
            trunk=None,
        )
    )
    fd3 = shift.fredholm_data(w20, ts.broom(2, 0).materialize(6))
    assert fd3.is_fredholm and fd3.index == -2 and fd3.exact

    fd4 = shift.fredholm_data(ones_chain("z_minus"), ts.zminus().materialize(8))
    assert fd4.is_fredholm and fd4.index == 1
    fd5 = shift.fredholm_data(ones_chain("z_plus"), ts.zplus().materialize(8))
    assert fd5.is_fredholm and fd5.index == -1


def test_fredholm_zero_tail():
    w = WeightSystem(
        rules=shift.ChainWeights(
            kind="z_plus", pos=BranchRule((1.0, 1.0), ConstantTail(0.0), 1)
        )
    )
    fd = shift.fredholm_data(w, ts.zplus().materialize(8))
    assert not fd.is_fredholm and math.isinf(fd.b)


def test_fredholm_indeterminate_and_binary():
    t = tree.validate(["a", "b", "c"], [("a", "b"), ("b", "c")])
    m = tree.explicit_truncation(t, incomplete=["c"])
    with pytest.raises(tree.IndeterminateError):
        shift.fredholm_data(WeightSystem(base={"b": 1.0, "c": 1.0}), m)

    wb = WeightSystem(rules=BinaryWeights(spine=BranchRule((), ConstantTail(1.0), 1)))
    fd = shift.fredholm_data(wb, ts.binary().materialize(3))
    assert not fd.is_fredholm and math.isinf(fd.b) and fd.exact


def test_normalize_weights():
    m = ts.zplus().materialize(8)
    pos = WeightSystem(base={str(n): 0.5 + n for n in range(1, 9)})
    _, beta = shift.normalize_weights(pos, m)
    assert all(beta[v] == 1.0 for v in beta)

    neg = WeightSystem(base={str(n): -1.0 for n in range(1, 9)})
    absw, beta = shift.normalize_weights(neg, m)
    for n in range(8):
        assert beta[str(n)] == pytest.approx((-1.0) ** n)
        if n >= 1:
            assert absw.weight(str(n)) == 1.0

    rng = random.Random(31)
    t = random_tree(rng, 60)
    m2 = tree.as_complete(t)
    w = WeightSystem(
        base={
            v: cmath.rect(rng.uniform(0.2, 2.0), rng.uniform(-math.pi, math.pi))
            for v in t.vertices
            if t.parent.get(v) is not None
        }
    )
    _, beta = shift.normalize_weights(w, m2)
    for v in t.vertices:
        p = t.parent.get(v)
        if p is None:
            continue
        lhs = w.weight(v) * beta[v] * beta[p].conjugate()
        assert abs(lhs - abs(w.weight(v))) <= 1e-12


def test_unitary_equivalence_on_basis():
    rng = random.Random(13)
    t = random_tree(rng, 40)
    m = tree.as_complete(t)
    w = WeightSystem(
        base={
            v: cmath.rect(rng.uniform(0.2, 2.0), rng.uniform(-math.pi, math.pi))
            for v in t.vertices
            if t.parent.get(v) is not None
        }
    )
    absw, beta = shift.normalize_weights(w, m)
    for u in list(t.vertices)[:15]:
        plain = shift.apply(absw, m, {u: 1.0})
        conj = shift.apply(w, m, {u: beta[u].conjugate()})
        conj = {v: beta[v] * c for v, c in conj.items()}
        assert set(plain) == set(conj)
        for v in plain:
            assert plain[v] == pytest.approx(conj[v], rel=1e-12)


def test_direct_sum_split():
    rng = random.Random(8)
    t = random_tree(rng, 50)
    m = tree.as_complete(t)
    w = random_weights(rng, t)
    u = sorted(t.vertices)[7]
    if t.parent.get(u) is None:
        u = sorted(t.vertices)[8]
    w = w.with_base({u: 0.0})
    des = set()
    stack = [u]
    while stack:
        x = stack.pop()
        des.add(x)
        stack.extend(t.children[x])
    f = {v: rng.uniform(-1, 1) for v in rng.sample(list(t.vertices), 12)}
    proj = lambda g: {v: c for v, c in g.items() if v in des}
    lhs = shift.apply(w, m, proj(f))
    rhs = proj(shift.apply(w, m, f))
    assert lhs.keys() == rhs.keys()
    for v in lhs:
        assert lhs[v] == pytest.approx(rhs[v], rel=1e-12)


def test_solve_grading():
    m = ts.zplus().materialize(8)
    th0 = shift.solve_grading(m, 0.0, ("3", 5.0))
    assert set(th0.values()) == {5.0}
    th = shift.solve_grading(m, 1.0, ("0", 0.0))
    for n in range(9):
        assert th[str(n)] == pytest.approx(-float(n))
    mb = ts.broom(2, 1).materialize(5)
    thb = shift.solve_grading(mb, 2.0, ("0", 0.0))
    for v in mb.tree.vertices:
        p = mb.tree.parent.get(v)
        if p is not None:
            assert thb[p] - thb[v] == pytest.approx(2.0)
    with pytest.raises(tree.UnknownVertexError):
        shift.solve_grading(m, 1.0, ("zz", 0.0))


def test_domain_criteria_factorial_spine():
    m = ts.binary().materialize(3)
    w = WeightSystem(rules=BinaryWeights(spine=BranchRule((), FactorialTail(), start=1)))
    rep = shift.domain_inclusion_criteria(w, m, depth=20)
    assert rep.fwd.verdict == "holds" and rep.fwd.exact
    assert rep.bwd.verdict == "fails" and rep.bwd.exact
    assert rep.bwd.monotone_increasing
    assert rep.bwd.extras["diag_sup"] > 1e6


@pytest.mark.parametrize("case", ["z_plus", "binary"])
def test_domain_criteria_fast_tails_do_not_overflow(case):
    # the rank-one part x x^T overflowed before its division by
    # 1 + ||S e_u||^2 here; RuntimeWarnings are errors in this suite
    if case == "z_plus":
        w = WeightSystem(rules=ChainWeights("z_plus", pos=BranchRule((), FactorialTail(), 1)))
        rep = shift.domain_inclusion_criteria(w, ts.zplus().materialize(64))
        assert rep.depth == 64
    else:
        w = WeightSystem(rules=BinaryWeights(spine=BranchRule((), FactorialTail(), start=1)))
        rep = shift.domain_inclusion_criteria(w, ts.binary().materialize(16), depth=60)
        assert rep.fwd.verdict == "holds" and rep.bwd.verdict == "fails"
    assert math.isfinite(rep.bwd.sup) and rep.bwd.sup > 1000.0
    assert rep.bwd.monotone_increasing
    assert set(rep.bwd.extras) == {"diag_sup"}


def test_domain_criteria_power_spine():
    m = ts.binary().materialize(3)
    w = WeightSystem(rules=BinaryWeights(spine=BranchRule((), GeometricTail(1.0, 2.0), start=1)))
    rep = shift.domain_inclusion_criteria(w, m, depth=20)
    assert rep.fwd.verdict == "holds" and rep.bwd.verdict == "holds"


def test_domain_criteria_affine_spine():
    breaks = []
    k = 1
    while k < 600:
        breaks.append(k)
        k = k * 3 + 1
    w = WeightSystem(
        rules=BinaryWeights(spine=BranchRule((), AffineTail(tuple(breaks)), start=1))
    )
    rep = shift.domain_inclusion_criteria(w, ts.binary().materialize(3), depth=20)
    assert rep.fwd.verdict == "fails" and rep.bwd.verdict == "holds"


def test_domain_criteria_polynomial_spine_at_depth():
    # mu(i) = i grows polynomially: no named closed form, so at-depth only,
    # with both sup series visibly converging
    w = WeightSystem(
        rules=BinaryWeights(
            spine=BranchRule(
                (), SequenceTail(lambda i: float(i), declared_sup=math.inf,
                                 declared_inf=1.0, exact=True), 1,
            )
        )
    )
    rep = shift.domain_inclusion_criteria(w, ts.binary().materialize(3), depth=30)
    assert rep.fwd.verdict == "at-depth" and rep.bwd.verdict == "at-depth"
    assert rep.fwd.sup < 2.0  # ratios (i/(i+1))^2 stay below 1
    assert rep.bwd.sup < 6.0  # T entries approach 2*(i+2)^2/(i+1)^2 -> 2


def test_domain_criteria_bounded_tree():
    # bounded all-ones binary shift: both inclusions trivially hold
    w = WeightSystem(rules=BinaryWeights(spine=BranchRule((), ConstantTail(1.0), start=1)))
    rep = shift.domain_inclusion_criteria(w, ts.binary().materialize(3), depth=10)
    assert rep.fwd.verdict == "holds" and rep.bwd.verdict == "holds"
    assert rep.fwd.exact and rep.bwd.exact


def test_weights_json_round_trip():
    fam, w = hyponormal_two_branch()
    blob = w.to_json()
    w2 = weights_from_json(blob, fam)
    m = fam.materialize(6)
    for v in m.tree.vertices:
        if m.tree.parent.get(v) is None:
            continue
        assert w2.weight(v) == w.weight(v)


def test_id_of_the_wrong_form_has_no_weight():
    one = BranchRule((), ConstantTail(1.0), 1)
    line = ChainWeights("z", pos=one, neg=BranchRule((), ConstantTail(1.0), 0))
    broom = BroomWeights(2, 1, (one, one), BranchRule((1.0,), None, 0))
    for rules, v in ((line, "(1,2)"), (broom, "x"), (BinaryWeights(one), "3")):
        with pytest.raises(UnknownWeightError):
            WeightSystem(rules=rules).weight(v)


# -- rules checked against their family when built ------------------------------

ONE = BranchRule((), ConstantTail(1.0), 1)


@pytest.mark.parametrize("build,match", [
    (lambda: BroomWeights(2, 0, (ONE,)), "one rule for each branch 1..2"),
    (lambda: BroomWeights(2, 0, (ONE, None)), "one rule for each branch 1..2"),
    (lambda: BroomWeights(2, 0, (ONE, BranchRule((9.0, 1.0), ConstantTail(1.0), 0))), "branch 2 rule starts at index 0"),
    (lambda: BroomWeights(2, 0, (ONE, ONE), BranchRule((3.0,), None, 0)), "kappa=0 has no trunk"),
    (lambda: BroomWeights(2, 1, (ONE, ONE), BranchRule((1.0, 5.0), None, 0)), "runs past the kappa=1"),
    (lambda: BroomWeights(2, math.inf, (ONE, ONE), BranchRule((1.0,), None, -1)), "trunk rule starts at index -1"),
    (lambda: ChainWeights("z_plus", pos=ONE, neg=BranchRule((7.0,), None, 0)), "z_plus takes no neg"),
    (lambda: ChainWeights("z_minus", pos=BranchRule((4.0,), None, 1)), "z_minus takes no pos"),
    (lambda: ChainWeights("z", pos=BranchRule((4.0,), ConstantTail(1.0), 0)), "pos rule starts at index 0"),
    (lambda: ChainWeights("z", neg=BranchRule((4.0,), ConstantTail(1.0), -1)), "neg rule starts at index -1"),
    (lambda: ChainWeights("binary", pos=ONE), "binary takes no pos rule"),
    (lambda: BinaryWeights(BranchRule((2.0,), ConstantTail(1.0), 0)), "spine rule starts at index 0"),
])
def test_rules_refuse_chains_their_family_lacks(build, match):
    with pytest.raises(ValueError, match=match):
        build()


def test_finite_trunk_tail_is_read_once():
    # a finite trunk has kappa positions: its tail is read over them when built
    w = BroomWeights(2, 3, (ONE, ONE), BranchRule((1.0,), GeometricTail(1.0, 0.5), 0))
    assert w.trunk == BranchRule((1.0, 0.5, 0.25), None, 0)
    trunk = w.runs(ts.broom(2, 3).materialize(2))[0]  # the root -2, then -1 and 0
    assert (trunk.rule, trunk.direction, trunk.at.tolist(), trunk.stop, trunk.end) == (w.trunk, -1, [2, 1], 2, 3)
    w0 = BroomWeights(2, 1, (ONE, ONE), BranchRule((2.0,), ConstantTail(5.0), 0))
    assert w0.trunk == BranchRule((2.0,), None, 0)
    # lambda_0 = 2 lies inside the prefix: the fill gives it, the rules only the branches past it
    m = ts.broom(2, 1).materialize(1)
    assert w0.norm2_sup(m) == (1.0, True)
    assert shift.norm(WeightSystem(rules=w0), m) == shift.NormResult(2.0, True)


def test_chain_rule_is_picked_by_the_sign_of_the_id():
    pos, neg = BranchRule((2.0,), ConstantTail(1.0), 1), BranchRule((3.0,), ConstantTail(1.0), 0)
    z = ChainWeights("z", pos=pos, neg=neg)
    assert z.lookup("1") == (pos, 1) and z.lookup("0") == (neg, 0) and z.lookup("-4") == (neg, 4)
    with pytest.raises(UnknownWeightError):
        WeightSystem(rules=ChainWeights("z_plus", pos=pos)).weight("0")  # the root
    with pytest.raises(UnknownWeightError):
        WeightSystem(rules=ChainWeights("z_minus", neg=neg)).weight("1")


def test_base_past_the_prefix_is_answered_at_depth():
    fam = ts.broom(2, 0)
    w = WeightSystem(base={"(1,40)": 100.0}, rules=BroomWeights(2, 0, (ONE, ONE)))
    shallow, deep = fam.materialize(6), fam.materialize(50)
    assert w.rules_beyond(shallow) is None and w.rules_beyond(deep) is w.rules
    assert shift.norm(w, shallow) == shift.NormResult(math.sqrt(2.0), False)
    assert shift.norm(w, deep) == shift.NormResult(100.0, True)
    with pytest.raises(tree.IndeterminateError):
        shift.fredholm_data(w, shallow)
    assert not shift.domain_inclusion_criteria(w, shallow).fwd.exact
    assert shift.fredholm_data(w, deep).exact


def test_fredholm_zero_head_past_the_prefix():
    w = WeightSystem(rules=BroomWeights(2, 0, (BranchRule((1.0, 1.0, 0.0), ConstantTail(1.0), 1),
                                              BranchRule((1.0,), ConstantTail(1.0), 1))))
    # the zero weight at (1,3) blocks exactness only while it lies past the prefix
    with pytest.raises(tree.IndeterminateError):
        shift.fredholm_data(w, ts.broom(2, 0).materialize(2))
    for depth in (3, 4, 5, 8):
        fd = shift.fredholm_data(w, ts.broom(2, 0).materialize(depth))
        assert (fd.a, fd.b, fd.c, fd.exact) == (1, 2, 1.0, True)


TAIL_KINDS = {
    "constant": ConstantTail(0.75),
    "power": GeometricTail(0.5, 1.25),
    "factorial": FactorialTail(0.25),
    "affine": AffineTail((2, 3, 5, 8)),
    "moment_ratio": shift.MomentRatioTail(ts.AtomicMeasure.from_pairs([(0.5, 0.25), (1.5, 0.75)])),
    "ca_ratio": shift.CaRatioTail(ts.AtomicMeasure.from_pairs([(0.5, 0.4)])),
}


@pytest.mark.parametrize("fam,rules", [
    (ts.zplus(), ChainWeights("z_plus", pos=BranchRule((2.0,), ConstantTail(1.0), 1))),
    (ts.zline(), ChainWeights("z", pos=BranchRule((), GeometricTail(1.0, 0.5), 1),
                              neg=BranchRule(((0.5 + 0.5j), 1.0), ConstantTail(1.0), 0))),
    (ts.zminus(), ChainWeights("z_minus", neg=BranchRule((0.5,), FactorialTail(1.0), 0))),
    (ts.binary(), BinaryWeights(BranchRule((1.5,), AffineTail((2, 4, 7)), 1), off_spine=0.5)),
    (ts.broom(2, math.inf), BroomWeights(2, math.inf, (ONE, ONE), BranchRule(
        (), shift.TrunkMomentRatioTail((0.5, 0.5), (ts.AtomicMeasure.delta(1.0),) * 2), 0))),
] + [
    (ts.broom(2, 1), BroomWeights(2, 1, (BranchRule((1.0,), tail, 1), ONE), BranchRule((0.5,), None, 0)))
    for tail in TAIL_KINDS.values()
], ids=["z_plus", "z", "z_minus", "binary", "trunk_moment_ratio"] + list(TAIL_KINDS))
def test_rules_json_round_trip(fam, rules):
    m = fam.materialize(5)
    w = WeightSystem(base={next(iter(m.tree.parent)): 2.5}, rules=rules)
    back = weights_from_json(w.to_json(), fam)
    assert back == w
    assert [back.weight(v) for v in m.tree.parent] == [w.weight(v) for v in m.tree.parent]


@pytest.mark.parametrize("d,match", [
    ({"tails": [], "mu": {"head": [5.0]}}, "take no key 'mu'"),
    ({"extra": 1}, "take no key 'extra'"),
    ({"rules_kind": "ChainWeights"}, "rules_kind 'ChainWeights'"),
    ({"tails": [{"branch": 0, "tail": {"kind": "constant", "value": 1.0}}]}, "branch 0"),
    ({"tails": [{"branch": b, "tail": {"kind": "constant", "value": 1.0}} for b in (1, 2, 3)]}, "branch 3"),
    ({"tails": [{"branch": b, "tail": {"kind": "constant", "value": 1.0}} for b in (1, 1, 2)]}, "branch 1 has two"),
    ({"tails": [{"branch": 2, "tail": {"kind": "constant", "value": 1.0}}]}, "one rule for each branch 1..2"),
    ({"base": [1.0]}, "base maps vertex ids"),
    ({"tails": [{"branch": b, "tail": {"kind": "constant", "value": 1.0}} for b in (1, 2)], "trunk": [1.0]},
     "trunk: a rule is a JSON object"),
])
def test_broom_reader_refuses(d, match):
    with pytest.raises((ValueError, TypeError), match=match):
        weights_from_json(d, ts.broom(2, 1))


def test_readers_take_their_family_keys_only():
    with pytest.raises(ValueError, match="off_spine needs the spine rule mu"):
        weights_from_json({"off_spine": 2.0}, ts.binary())
    with pytest.raises(ValueError, match="take no key 'pos'"):
        weights_from_json({"pos": {"head": [1.0]}})  # an explicit tree takes base only
    with pytest.raises(ValueError, match="take no key 'rules_kind'"):
        weights_from_json({"rules_kind": "BroomWeights"})
    assert weights_from_json({"base": {"1": 1.0}, "rules_kind": "ChainWeights"}, ts.zplus()).rules is None
