"""The weight fill: every |lambda| of a family prefix from the rules' runs.

``shift.local_data`` reads ``WeightSystem.fill``, which writes each chain of
the family from one ``values`` call per rule and never reads a vertex id.
On every family kind, with ``base`` overrides, zero heads and complex heads,
it must give what a sweep through ``WeightSystem.weight`` gives, bit for bit,
and raise what that sweep raises.  The last section pins what the rules
answer past the prefix.
"""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import treeshift as ts
from treeshift import classify, cli, shift, tree
from treeshift.measure import AtomicMeasure
from treeshift.shift import (
    AffineTail,
    BinaryWeights,
    BranchRule,
    BroomWeights,
    CaRatioTail,
    ChainWeights,
    ConstantTail,
    FactorialTail,
    GeometricTail,
    MomentRatioTail,
    SequenceTail,
    UnknownWeightError,
    WeightSystem,
)

from helpers import ref_chain_verdict, ref_fredholm_data, ref_is_p_hyponormal, ref_local_data

MODULI = st.one_of(st.sampled_from([0.0, 0.0, 0.5, 1.0, 1.5]), st.floats(0.05, 3.0))
WEIGHTS = st.builds(lambda r, ph: complex(r * ph), MODULI, st.sampled_from([1, 1j, -1, cmath.exp(0.7j)]))
HEADS = st.lists(st.one_of(WEIGHTS, MODULI), max_size=3).map(tuple)
TAILS = st.one_of(
    st.builds(ConstantTail, st.sampled_from([0.0, -0.5, 1.0, 1.5])),
    st.builds(GeometricTail, st.floats(0.5, 1.5), st.sampled_from([0.0, 0.9, 1.0, -1.1])),
    st.builds(FactorialTail, st.sampled_from([0.0, 0.5])),
    st.just(AffineTail((1, 3, 6, 10))),
    st.just(AffineTail((4, 9))),  # indices 1..3 precede the first break: the sweep raises
    st.builds(lambda p: MomentRatioTail(AtomicMeasure.from_pairs([(p, 0.5), (1.2, 0.5)])), st.floats(0.1, 1.1)),
    st.builds(lambda p: CaRatioTail(AtomicMeasure.from_pairs([(p, 0.3)])), st.floats(0.0, 1.0)),
    st.builds(lambda c: SequenceTail(lambda i: c / (i + 1)), st.floats(0.1, 2.0)),
)
RULES = st.builds(BranchRule, HEADS, st.one_of(st.none(), TAILS, TAILS))


def families():
    brooms = st.builds(ts.broom, st.integers(2, 4), st.sampled_from([0, 1, 2, 3, 5, math.inf]))
    return st.one_of(brooms, st.sampled_from([ts.zplus(), ts.zline(), ts.zminus(), ts.binary()]))


@st.composite
def rules_for(draw, fam):
    """A rules object of the family's own class; a rule may be missing."""
    if fam.kind == "binary":
        return BinaryWeights(draw(RULES.map(lambda r: BranchRule(r.head, r.tail, 1))),
                             draw(st.sampled_from([0.0, 0.5, 1.0])))
    rule = lambda start: RULES.map(lambda r: BranchRule(r.head, r.tail, start))  # noqa: E731
    if fam.kind != "t_eta_kappa":
        pos = draw(st.one_of(st.none(), rule(1))) if fam.kind != "z_minus" else None
        neg = draw(st.one_of(st.none(), rule(0))) if fam.kind != "z_plus" else None
        return ChainWeights(fam.kind, pos=pos, neg=neg)
    trunk = None
    if fam.kappa and draw(st.booleans()):
        # a finite trunk's tail would be read over its kappa positions when built
        trunk = draw(rule(0)) if fam.kappa == math.inf else BranchRule(draw(HEADS)[:fam.kappa], None, 0)
    return BroomWeights(fam.eta, fam.kappa, tuple(draw(rule(1)) for _ in range(fam.eta)), trunk)


@st.composite
def systems(draw):
    fam = draw(families())
    m = fam.materialize(draw(st.integers(1, 4 if fam.kind == "binary" else 9)))
    rules = draw(st.one_of(st.none(), rules_for(fam))) if draw(st.integers(0, 5)) == 0 else draw(rules_for(fam))
    inner = [v for v in m.tree.vertices if v in m.tree.parent]
    base = draw(st.dictionaries(st.sampled_from(inner), WEIGHTS, max_size=4))
    return WeightSystem(base=base, rules=rules), m


def outcome(fn, *args):
    """The arrays as bytes (bit for bit, NaN included), or the error raised."""
    try:
        out = fn(*args)
    except Exception as e:  # noqa: BLE001 - the error is the outcome
        return type(e).__name__, str(e)
    if isinstance(out, shift.LocalData):
        out = (out.mod, out.mod2, out.norms2)
    return tuple(np.asarray(a, dtype=float).tobytes() for a in out)


@settings(max_examples=400, derandomize=True, deadline=None)
@given(systems())
def test_local_data_matches_the_sweep(wm):
    assert outcome(shift.local_data, *wm) == outcome(ref_local_data, *wm)


def test_deep_broom_fill_matches_the_sweep():
    mu = AtomicMeasure.from_pairs([(0.2, 0.5), (0.45, 0.5)])  # the moments underflow past ~930
    w = WeightSystem(rules=BroomWeights(3, math.inf, (
        BranchRule((0.5j,), MomentRatioTail(mu), 1),
        BranchRule((), GeometricTail(1.2, 0.999), 1),
        BranchRule((0.0, 2.0), CaRatioTail(AtomicMeasure.from_pairs([(0.9, 0.5)])), 1),
    ), BranchRule((0.7,), ConstantTail(0.9), 0)), base={"(2,5)": 3.0, "-7": 0.0})
    m = ts.broom(3, math.inf).materialize(1100)
    assert outcome(shift.local_data, w, m) == outcome(ref_local_data, w, m)


def test_the_fill_reads_no_vertex_id(monkeypatch):
    def refuse(v):
        raise AssertionError(f"vertex_key({v!r}) called")
    for mod in (tree, shift):
        monkeypatch.setattr(mod, "vertex_key", refuse)
    one = BranchRule((0.5j,), ConstantTail(1.0), 1)
    cases = [
        (WeightSystem(rules=BroomWeights(3, math.inf, (one,) * 3, BranchRule((), GeometricTail(1.0, 0.9), 0))),
         ts.broom(3, math.inf)),
        (WeightSystem(rules=BroomWeights(2, 2, (one,) * 2, BranchRule((1.0, 2.0), None, 0))), ts.broom(2, 2)),
        (WeightSystem(rules=ChainWeights("z", pos=one, neg=BranchRule((), ConstantTail(2.0), 0))), ts.zline()),
        (WeightSystem(rules=ChainWeights("z_plus", pos=one)), ts.zplus()),
        (WeightSystem(rules=ChainWeights("z_minus", neg=BranchRule((), ConstantTail(2.0), 0))), ts.zminus()),
        (WeightSystem(rules=BinaryWeights(one, 0.5)), ts.binary()),
    ]
    readers = (classify.is_isometry, classify.is_quasinormal, classify.is_normal, classify.is_cohyponormal,
               lambda w, m: shift.power_norm_squared(w, m, m.tree.root, 3),
               lambda w, m: classify.stieltjes_necessary(w, m, m.tree.root, 3))
    for w, fam in cases:
        m = fam.materialize(5)
        shift.local_data(w, m)
        for read in readers:  # rooted and rootless: every reader reads the binding
            read(w, m)
    assert {fam.rooted() for _, fam in cases} == {True, False}


def test_one_binding_per_weights_and_prefix(monkeypatch):
    binds = []
    bind = shift._bind
    monkeypatch.setattr(shift, "_bind", lambda w, m: binds.append(w) or bind(w, m))
    rules = BroomWeights(2, 1, (BranchRule((0.5,), ConstantTail(1.0), 1),) * 2, BranchRule((1.0,), None, 0))
    base = {"(1,1)": 2.0}
    w, m = WeightSystem(base=base, rules=rules), ts.broom(2, 1).materialize(6)
    loc = shift.local_data(w, m)
    for read in (shift.norm, shift.fredholm_data, shift.domain_inclusion_criteria, classify.is_isometry,
                 classify.is_quasinormal, classify.is_normal, classify.is_hyponormal):
        read(w, m)
    assert shift.local_data(w, m) is loc and binds == [w]
    # an equal system is another object: it gets its own binding
    other = WeightSystem(base=base, rules=rules)
    assert other == w and shift.local_data(other, m) is not loc and binds == [w, other]
    assert np.array_equal(shift.local_data(w, m).mod, loc.mod, equal_nan=True) and len(binds) == 3
    # neither the weights nor the arrays can change under a binding
    base["(1,1)"] = 5.0
    assert w.weight("(1,1)") == 2.0
    with pytest.raises(TypeError):
        w.base["(1,1)"] = 5.0
    for a in (loc.mod, loc.mod2, loc.norms2):
        with pytest.raises(ValueError):
            a[1] = 0.0


def test_every_reader_raises_what_the_binding_raises():
    # a is incomplete (a child of it is missing from the truncation), and its
    # child c has no weight: the binding resolves every weight of the prefix
    t = tree.validate(["r", "a", "b", "c"], [("r", "a"), ("a", "b"), ("a", "c")])
    m = tree.explicit_truncation(t, ["a"])
    w = WeightSystem(base={"a": 1.0, "b": 1.0})
    readers = (shift.local_data, shift.norm, shift.shift_norms_squared, shift.domain_inclusion_criteria,
               classify.is_isometry, classify.is_quasinormal, classify.is_normal, classify.is_cohyponormal,
               classify.is_hyponormal, lambda w, m: classify.is_p_hyponormal(w, m, 2.0),
               lambda w, m: shift.power_norm_squared(w, m, "r", 1))
    for read in readers:
        with pytest.raises(UnknownWeightError, match="'c'"):
            read(w, m)
    rootless = tree.explicit_truncation(t, ["a"], rootless=True)
    for read in (classify.is_normal, classify.is_cohyponormal):
        with pytest.raises(UnknownWeightError, match="'c'"):
            read(w, rootless)


def test_rooted_binary_witness_past_a_zero_prefix():
    # base zeroes the prefix and the spine tail is 0: the first nonzero weight
    # is an off-spine one past the prefix, named by its id at every depth
    rules = BinaryWeights(BranchRule((), ConstantTail(0.0), 1), 1.0)
    for d in range(1, 17):
        m = ts.binary().materialize(d)
        w = WeightSystem(base=dict.fromkeys(m.tree.parent, 0.0), rules=rules)
        want = {"reason": "rooted and nonzero", "vertex": f"({d + 1},2)"}
        for fn in (classify.is_normal, classify.is_cohyponormal):
            assert fn(w, m).to_json() == {"verdict": "no", "exact": True, "witness": want}
        if d <= 8:
            assert ref_chain_verdict(w, m, True, classify.REL_TOL).witness == want
        assert w.weight(want["vertex"]) == 1.0


def test_rules_of_another_family_give_no_fill():
    w = WeightSystem(rules=BroomWeights(2, 1, (BranchRule((), ConstantTail(1.0), 1),) * 2, BranchRule((1.0,), None, 0)))
    for other in (ts.broom(3, 1), ts.broom(2, 2), ts.zline()):
        with pytest.raises(UnknownWeightError):
            w.fill(other.materialize(3))
    with pytest.raises(UnknownWeightError):
        WeightSystem(rules=ChainWeights("z", pos=BranchRule((), ConstantTail(1.0), 1))).fill(ts.zplus().materialize(3))


def test_a_failing_run_is_resolved_vertex_by_vertex():
    # past index 170 the factorial tail overflows, but base weights cover those
    # vertices: the sweep never asked the tail for them, and neither does the fill
    fam = ts.zplus()
    m = fam.materialize(175)
    base = {str(n): 1.0 for n in range(171, 176)}
    w = WeightSystem(base=base, rules=ChainWeights("z_plus", pos=BranchRule((), FactorialTail(1e-300), 1)))
    assert outcome(shift.local_data, w, m) == outcome(ref_local_data, w, m)
    assert shift.local_data(w, m).mod[-1] == 1.0


# -- what the rules answer past the prefix ---------------------------------------


def test_norm_counts_no_head_weight_a_base_weight_overrides():
    # branch 1's head 9.0 sits at (1,1), which base sets to 1: the norm is sqrt(2)
    w = shift.weights_from_json({
        "tails": [{"branch": 1, "head": [9.0], "tail": {"kind": "constant", "value": 1.0}},
                  {"branch": 2, "tail": {"kind": "constant", "value": 1.0}}],
        "base": {"(1,1)": 1.0}}, ts.broom(2, 0))
    m = ts.broom(2, 0).materialize(6)
    assert shift.norm(w, m) == shift.NormResult(math.sqrt(2.0), True)
    assert shift.norm(w.with_base({"(1,1)": 9.0}), m) == shift.NormResult(math.sqrt(82.0), True)


def test_oracle_compare_agrees_when_base_overrides_a_head(tmp_path, capsys):
    tree_file, weights_file = tmp_path / "t.json", tmp_path / "w.json"
    tree_file.write_text('{"kind": "family", "family": "t_eta_kappa", "eta": 2, "kappa": 0, "depth": 6}')
    weights_file.write_text(
        '{"tails": [{"branch": 1, "head": [9.0], "tail": {"kind": "constant", "value": 1.0}},'
        ' {"branch": 2, "tail": {"kind": "constant", "value": 1.0}}], "base": {"(1,1)": 1.0}}')
    assert cli.run(["oracle-compare", str(tree_file), str(weights_file)]) == 0
    out = capsys.readouterr().out
    assert '"norms_agree": true' in out and '"shift_norm": 1.4142135623730951' in out
    assert '"shift_norm_exact": true' in out


def test_rooted_verdict_reads_head_weights_past_the_prefix():
    # the prefix and both tails are zero, but lambda_(1,9) = 5
    head = (1.0, 0, 0, 0, 0, 0, 0, 0, 5.0)
    w = WeightSystem(base={"(1,1)": 0.0}, rules=BroomWeights(2, 0, (
        BranchRule(head, ConstantTail(0.0), 1), BranchRule((), ConstantTail(0.0), 1))))
    m = ts.broom(2, 0).materialize(6)
    want = {"verdict": "no", "exact": True, "witness": {"reason": "rooted and nonzero", "tail_index": 9}}
    for fn, equal in ((classify.is_normal, True), (classify.is_cohyponormal, False)):
        assert fn(w, m).to_json() == want
        assert ref_chain_verdict(w, m, equal, classify.REL_TOL).to_json() == want
    assert abs(w.weight("(1,9)")) == 5.0  # the witness re-evaluates
    # at depth 9 the weight is in the prefix
    deep = classify.is_normal(w, ts.broom(2, 0).materialize(9))
    assert deep.witness == {"reason": "rooted and nonzero", "vertex": "(1,9)"}


def test_rooted_zero_operator_with_zero_heads_past_the_prefix():
    w = WeightSystem(rules=BroomWeights(2, 0, (
        BranchRule((0.0,) * 8, ConstantTail(0.0), 1), BranchRule((), ConstantTail(0.0), 1))))
    v = classify.is_normal(w, ts.broom(2, 0).materialize(3))
    assert v.to_json() == {"verdict": "yes", "exact": True, "detail": {"structure": "zero operator"}}


def test_a_chain_without_a_rule_is_answered_at_depth():
    # no neg rule on z: the base weights on 0..-5 say nothing below -5
    base = {str(-k): 1.0 for k in range(6)}
    w = WeightSystem(base=base, rules=ChainWeights("z", pos=BranchRule((), ConstantTail(1.0), 1)))
    m = ts.zline().materialize(6)
    assert w.rules_beyond(m) is None
    assert shift.norm(w, m) == shift.NormResult(1.0, False)
    both = WeightSystem(base=base, rules=ChainWeights("z", pos=w.rules.pos, neg=BranchRule((), ConstantTail(1.0), 0)))
    assert shift.norm(both, m) == shift.NormResult(1.0, True)
    # the rootless broom with no trunk rule, and a finite trunk longer than the prefix
    one = BranchRule((), ConstantTail(1.0), 1)
    for kappa in (math.inf, 9):
        m = ts.broom(2, kappa).materialize(4)
        trunk = {str(-k): 1.0 for k in range(4)}
        w = WeightSystem(base=trunk, rules=BroomWeights(2, kappa, (one, one)))
        assert w.rules_beyond(m) is None and not shift.norm(w, m).exact
    # a head-only rule that ends before the chain does gives no weight past it
    w = WeightSystem(rules=ChainWeights("z_plus", pos=BranchRule((1.0,) * 8, None, 1)))
    assert w.rules_beyond(ts.zplus().materialize(4)) is None
    assert w.rules_beyond(ts.zplus().materialize(8)) is None
    finite = WeightSystem(rules=BroomWeights(2, 3, (one, one), BranchRule((1.0, 1.0, 1.0), None, 0)))
    assert finite.rules_beyond(ts.broom(2, 3).materialize(2)) is finite.rules


def test_cli_norm_of_a_chain_without_a_rule(tmp_path, capsys):
    tree_file, weights_file = tmp_path / "t.json", tmp_path / "w.json"
    tree_file.write_text('{"kind": "family", "family": "z", "depth": 6}')
    weights_file.write_text('{"pos": {"tail": {"kind": "constant", "value": 1.0}}, "base": {'
                            + ", ".join(f'"{-k}": 1.0' for k in range(6)) + "}}")
    assert cli.run(["norm", str(tree_file), str(weights_file)]) == 0
    assert capsys.readouterr().out.strip() == '{"exact": false, "norm": 1.0}'


def test_binary_off_spine_run_is_every_position_but_the_root_and_the_spine():
    rules = BinaryWeights(BranchRule((), ConstantTail(1.0), 1), 1.0)
    for d in range(1, 17):
        m = ts.binary().materialize(d)
        spine = (1 << np.arange(1, d + 1)) - 1
        want = np.setdiff1d(np.arange(1, len(m.tree.vertices)), spine)
        off = rules.runs(m)[1].at
        assert off.dtype == want.dtype and np.array_equal(off, want)


# -- every reader of the rules starts past the prefix ---------------------------


def broom_base(branch1, branch2, base):
    """broom eta=2, kappa=0 at depth 6, with the two branch rules and ``base``."""
    return WeightSystem(base=base, rules=BroomWeights(2, 0, (branch1, branch2))), ts.broom(2, 0).materialize(6)


def test_runs_carry_their_direction():
    one = BranchRule((), ConstantTail(1.0), 1)
    cases = [
        (BroomWeights(2, math.inf, (one, one), BranchRule((), ConstantTail(1.0), 0)), ts.broom(2, math.inf), [-1, 1, 1]),
        (ChainWeights("z", pos=one, neg=BranchRule((), ConstantTail(1.0), 0)), ts.zline(), [-1, 1]),
        (ChainWeights("z_plus", pos=one), ts.zplus(), [1]),
        (BinaryWeights(one), ts.binary(), [0, 0]),
    ]
    for rules, fam, directions in cases:
        assert [run.direction for run in rules.runs(fam.materialize(3))] == directions
    assert not hasattr(BroomWeights, "directed_rules")


def test_fredholm_c_reads_chain_positions_and_the_rules_past_the_prefix():
    # the 0.1 head sits at (1,2), which base sets to 1; (1,1) hangs below the
    # branching root, so its weight is no chain position either
    w, m = broom_base(BranchRule((1.0, 0.1), ConstantTail(1.0), 1), BranchRule((), ConstantTail(1.0), 1),
                      {"(1,2)": 1.0})
    fd = shift.fredholm_data(w, m)
    assert (fd.c, fd.exact) == (1.0, True)
    assert fd == ref_fredholm_data(w, m)
    # a head value past the prefix still counts
    w, _ = broom_base(BranchRule((1.0,) * 7 + (0.25,), ConstantTail(1.0), 1), BranchRule((), ConstantTail(1.0), 1), {})
    assert shift.fredholm_data(w, ts.broom(2, 0).materialize(6)).c == 0.25
    assert shift.fredholm_data(w, ts.broom(2, 0).materialize(6)) == ref_fredholm_data(w, ts.broom(2, 0).materialize(6))


def test_rooted_tail_witness_lies_past_the_prefix():
    w, m = broom_base(BranchRule((), ConstantTail(1.0), 1), BranchRule((), ConstantTail(0.0), 1),
                      {f"(1,{j})": 0.0 for j in range(1, 7)})
    want = {"verdict": "no", "exact": True, "witness": {"reason": "rooted and nonzero", "tail_index": 7}}
    for fn, equal in ((classify.is_normal, True), (classify.is_cohyponormal, False)):
        assert fn(w, m).to_json() == want
        assert ref_chain_verdict(w, m, equal, classify.REL_TOL).to_json() == want
    assert w.weight("(1,6)") == 0.0 and w.weight("(1,7)") == 1.0


@pytest.mark.parametrize("branch1,base,j", [
    # lambda_(1,6) = 0.3 < 0.9**7, and 0.9**8 < 0.9**7
    (BranchRule((), GeometricTail(1.0, 0.9), 1), {"(1,1)": 0.1, **{f"(1,{j})": 0.3 for j in range(2, 7)}}, 8),
    # lambda_(1,6) = 5 > 4 = lambda_(1,7)
    (BranchRule((), AffineTail((1, 4, 20000)), 1), {f"(1,{j})": float(j - 1) for j in range(2, 7)}, 7),
])
def test_hyponormal_tail_witness_lies_past_the_prefix(branch1, base, j):
    branch2 = BranchRule((0.1,), ConstantTail(1.0), 1) if j == 8 else BranchRule((), ConstantTail(0.0), 1)
    w, m = broom_base(branch1, branch2, base)
    want = {"verdict": "no", "exact": True, "witness": {"tail_index": j, "reason": "weights decrease along a tail"}}
    assert classify.is_hyponormal(w, m).to_json() == want
    assert ref_is_p_hyponormal(w, m).to_json() == want
    assert abs(w.weight(f"(1,{j})")) < abs(w.weight(f"(1,{j - 1})"))


def test_binary_domain_inclusion_reads_base_inside_the_prefix():
    m = ts.binary().materialize(5)
    rules = BinaryWeights(BranchRule((), ConstantTail(1.0), 1), 1.0)
    plain = shift.domain_inclusion_criteria(WeightSystem(rules=rules), m)
    assert plain.fwd.sup == 2.0 / 3.0
    # the root's children (1,1) and (1,2) weigh 5 and 1, each with norm squared 2
    rep = shift.domain_inclusion_criteria(WeightSystem(base={"(1,1)": 5.0}, rules=rules), m)
    assert rep.fwd.sup == pytest.approx(26.0 / 3.0)
    # at the last level, (5,1) = 3 and the rules' (6,1), (6,2) = 1 give spine level 4 10/3
    deep = shift.domain_inclusion_criteria(WeightSystem(base={"(5,1)": 3.0}, rules=rules), m)
    assert deep.fwd.sup == pytest.approx(10.0 / 3.0)
    # a base weight equal to the rule's leaves the report as it is
    same = WeightSystem(base={"(1,1)": 1.0, "(5,1)": 1.0, "(5,2)": 1.0}, rules=rules)
    assert shift.domain_inclusion_criteria(same, m) == plain
