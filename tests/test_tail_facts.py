"""The tail-fact protocol: what each tail declares, and the verdicts read off it.

Every tail declares ``sup`` and ``inf`` of its moduli and bounds on the ratio
of consecutive moduli; the conformance test samples each kind and holds the
values to those declarations.  The other tests pin the verdicts that are
derived from the facts: moduli, not signed values; the direction a rule's
index runs in; tail witnesses that name a real drop; and the norm of rules
that are unbounded on their own.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import treeshift as ts
from treeshift import classify, cli, shift
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
    SequenceTail,
    WeightSystem,
    tail_from_json,
)

REL = 1e-12
SAMPLES = 60


# -- conformance: every sampled value lies inside the declared facts ------------


def _ratio(a: float, b: float) -> float:
    """|v(i+1)| / |v(i)| with 0/0 read as 1."""
    if a == 0.0:
        return 1.0 if b == 0.0 else math.inf
    return b / a


def assert_conforms(tail, start: int, stop: int) -> None:
    (lo_v, _), (hi_v, _) = tail.inf(start), tail.sup(start)
    lo_r, hi_r, _ = tail.ratio_bounds(start)
    mods = [abs(tail.value(i)) for i in range(start, stop + 1)]
    for i, x in enumerate(mods, start):
        assert lo_v * (1 - REL) <= x <= hi_v * (1 + REL), ("modulus", i, x, lo_v, hi_v)
    for i, (a, b) in enumerate(zip(mods, mods[1:]), start):
        q = _ratio(a, b)
        assert lo_r * (1 - REL) <= q <= hi_r * (1 + REL), ("ratio", i, q, lo_r, hi_r)


# magnitudes of at least 0.1 keep 60 steps of a power tail clear of subnormal
# floats, where the ratio of two computed values no longer matches the ratio
SIGNED = st.one_of(st.just(0.0), st.floats(0.1, 2.0), st.floats(-2.0, -0.1))
RATIOS = st.one_of(st.just(0.0), st.floats(0.1, 1.3), st.floats(-1.3, -0.1))
ATOMS = st.lists(st.tuples(st.floats(0.05, 2.0), st.floats(0.1, 1.0)), min_size=1, max_size=3)
UNIT_ATOMS = st.lists(st.tuples(st.floats(0.01, 1.0), st.floats(0.05, 1.0)), max_size=3)


@st.composite
def affine_json(draw):
    breaks, gap = [draw(st.integers(1, 4))], 1
    for _ in range(draw(st.integers(1, 8))):
        gap += draw(st.integers(1, 3))
        breaks.append(breaks[-1] + gap)
    return {"kind": "affine", "breaks": breaks}


TAIL_JSON = st.one_of(
    st.builds(lambda v: {"kind": "constant", "value": v}, SIGNED),
    st.builds(lambda s, r: {"kind": "power", "scale": s, "ratio": r},
              SIGNED, RATIOS),
    st.builds(lambda s: {"kind": "factorial", "scale": s}, SIGNED),
    affine_json(),
    st.builds(lambda a: {"kind": "moment_ratio", "atoms": a}, ATOMS),
    st.builds(lambda a: {"kind": "ca_ratio", "atoms": a}, UNIT_ATOMS),
    st.builds(lambda c, ms: {"kind": "trunk_moment_ratio", "lambda1": c, "measures": ms},
              st.lists(st.floats(0.2, 2.0), min_size=2, max_size=2),
              st.lists(ATOMS, min_size=2, max_size=2)),
)

# one example of every kind the JSON parser builds
KIND_EXAMPLES = [
    {"kind": "constant", "value": -1.5},
    {"kind": "power", "scale": 1.0, "ratio": 0.5},
    {"kind": "factorial", "scale": 0.5},
    {"kind": "affine", "breaks": [2, 4, 7]},
    {"kind": "moment_ratio", "atoms": [[0.5, 0.5], [1.5, 0.5]]},
    {"kind": "ca_ratio", "atoms": [[0.5, 0.3]]},
    {"kind": "trunk_moment_ratio", "lambda1": [0.6, 0.8], "measures": [[[0.5, 1.0]], [[1.5, 1.0]]]},
]



def test_every_tail_class_is_covered():
    tails = {getattr(shift, n) for n in shift.__all__ if n.endswith("Tail")}
    covered = {type(tail_from_json(d)) for d in KIND_EXAMPLES} | {SequenceTail}
    assert covered == tails


@settings(max_examples=300, derandomize=True, deadline=None)
@given(TAIL_JSON, st.integers(0, 4))
def test_tail_facts_hold_on_samples(d, start):
    tail = tail_from_json(d)
    stop = start + SAMPLES
    if d["kind"] == "affine":  # the declared saw-tooth model lives within the breaks
        start = max(start, d["breaks"][0])
        stop = min(stop, d["breaks"][-1])
    if d["kind"] in ("moment_ratio", "ca_ratio"):
        start = max(start, 2)  # value(j) reads the sequence at j - 1 and j - 2
    assert_conforms(tail, start, stop)


@pytest.mark.parametrize("start", [0, 3])
def test_declared_sequence_tail_conforms(start):
    # 1, 1.5, 1.67, ... up to 2: these facts hold for every start >= 0
    tail = SequenceTail(lambda i: 2.0 - 1.0 / (i + 1), declared_sup=2.0, declared_inf=1.0,
                        exact=True, declared_ratio=(1.0, 1.5))
    assert_conforms(tail, start, start + SAMPLES)


# -- values(start, stop): the numbers value(i) gives, computed once per run ------


def run_outcome(fn):
    """What fn returns, or the type of the error it raises."""
    try:
        return fn()
    except Exception as e:  # noqa: BLE001 - the error type is the outcome
        return type(e)


def assert_values_match(tail, start: int, stop: int) -> None:
    want = run_outcome(lambda: [tail.value(i) for i in range(start, stop)])
    got = run_outcome(lambda: tail.values(start, stop))
    assert got == want, (tail, start, stop)  # ==: the same floats, bit for bit


@settings(max_examples=300, derandomize=True, deadline=None)
@given(TAIL_JSON, st.integers(0, 40), st.integers(0, 150))
def test_values_match_value(d, start, length):
    assert_values_match(tail_from_json(d), start, start + length)


LOW = AtomicMeasure.from_pairs([(0.2, 0.5), (0.45, 0.5)])  # moments underflow past ~930
HIGH = AtomicMeasure.from_pairs([(0.7, 0.3), (1.7, 0.7)])  # 1.7**n overflows past ~1338


@pytest.mark.parametrize("tail, start, stop", [
    (shift.MomentRatioTail(LOW), 2, 1200),  # the pivot quotient past the underflow
    (shift.MomentRatioTail(AtomicMeasure.from_pairs([(0.3, 0.5), (0.5, 0.5)])), 1070, 1100),
    (shift.MomentRatioTail(HIGH), 1300, 1400),  # a moment overflows
    (shift.TrunkMomentRatioTail((0.6, 0.8), (AtomicMeasure.from_pairs([(5e-9, 0.5), (1.0, 0.5)]),
                                             AtomicMeasure.delta(1.5))), 0, 60),  # negative moments overflow
    (FactorialTail(0.5), 0, 171),
    (FactorialTail(0.5), 160, 180),  # 171! is past the float range: OverflowError
    (FactorialTail(0.0), 150, 200),
    (GeometricTail(1.0, 2.0), 1015, 1030),  # OverflowError in Python's pow
    (GeometricTail(-1.5, 0.999), 0, 3000),
    (ConstantTail(-0.75), 3, 500),
    (AffineTail((2, 4, 7, 11)), 2, 40),
    (AffineTail((2, 4, 7, 11)), 1, 5),  # index 1 precedes the first break
    (CaRatioTail(AtomicMeasure.from_pairs([(0.3, 0.2), (0.95, 0.4)])), 0, 600),
    (CaRatioTail(AtomicMeasure.zero()), 1, 50),
    (SequenceTail(lambda i: (-1) ** i / (i + 1)), 0, 30),
    (ConstantTail(1.0), 5, 2),  # an empty run
])
def test_values_match_value_at_the_edges(tail, start, stop):
    assert_values_match(tail, start, stop)


def test_factorial_values_raise_as_value_does():
    with pytest.raises(OverflowError):
        FactorialTail(1.0).value(171)
    with pytest.raises(OverflowError):
        FactorialTail(1.0).values(170, 172)


def test_branch_rule_values_join_head_and_tail():
    rule = BranchRule((2.0, 1j, 0.0), GeometricTail(1.0, 0.5), 1)
    assert rule.values(1, 7) == [rule.value(i) for i in range(1, 7)] == [2.0, 1j, 0.0, 0.0625, 0.03125, 0.015625]
    assert rule.values(5, 7) == [rule.value(5), rule.value(6)]
    assert run_outcome(lambda: rule.values(0, 3)) is shift.UnknownWeightError  # before the rule's start
    head_only = BranchRule((1.0, 2.0), None, 1)
    assert run_outcome(lambda: head_only.values(2, 6)) is shift.UnknownWeightError  # past its head


# -- phase invariance: only the moduli of the weights matter ----------------------


@st.composite
def signed_tails(draw):
    kind = draw(st.sampled_from(["constant", "power", "factorial", "moment_ratio"]))
    mag = draw(st.sampled_from([0.5, 1.0, 1.5]))
    if kind == "constant":
        return {"kind": kind, "value": mag}
    if kind == "power":
        return {"kind": kind, "scale": mag, "ratio": draw(st.sampled_from([0.5, 0.9, 1.0, 1.1, 2.0]))}
    if kind == "factorial":
        return {"kind": kind, "scale": mag}
    return {"kind": kind, "atoms": [[0.5, 0.5], [mag, 0.5]] if mag != 0.5 else [[0.5, 1.0]]}


@st.composite
def signed_rules(draw, start):
    return {"head": draw(st.lists(st.sampled_from([0.5, 1.0, 2.0]), max_size=2)),
            "tail": draw(signed_tails()), "start": start}


def flip(rule: dict, mask) -> dict:
    """The rule with the signs of the drawn head entries and tail parameters flipped."""
    head = [-x if next(mask) else x for x in rule["head"]]
    tail = dict(rule["tail"])
    for key in ("value", "scale", "ratio"):
        if key in tail and next(mask):
            tail[key] = -tail[key]
    return dict(rule, head=head, tail=tail)


def as_rule(r: dict) -> BranchRule:
    return BranchRule(tuple(r["head"]), tail_from_json(r["tail"]), r["start"])


@st.composite
def signed_systems(draw):
    """(family, rule specs as dicts, builder of a WeightSystem from the specs)."""
    shape = draw(st.sampled_from(["broom", "z", "binary"]))
    if shape == "broom":
        eta, kappa = draw(st.integers(2, 3)), draw(st.sampled_from([0, 1, math.inf]))
        specs = [draw(signed_rules(1)) for _ in range(eta)]
        if kappa == math.inf:
            specs.append(draw(signed_rules(0)))
        elif kappa:
            specs.append({"head": [draw(st.sampled_from([0.5, 1.0]))], "tail": None, "start": 0})

        def build(rs):
            trunk = None if kappa == 0 else (
                as_rule(rs[-1]) if rs[-1]["tail"] else BranchRule(tuple(rs[-1]["head"]), None, 0))
            return BroomWeights(eta, kappa, tuple(as_rule(r) for r in rs[:eta]), trunk)
        return ts.broom(eta, kappa), specs, build
    if shape == "z":
        specs = [draw(signed_rules(1)), draw(signed_rules(0))]
        return ts.zline(), specs, lambda rs: ChainWeights("z", as_rule(rs[0]), as_rule(rs[1]))
    off = draw(st.sampled_from([0.5, 1.0]))
    specs = [draw(signed_rules(1)), {"head": [off], "tail": None, "start": 0}]
    return ts.binary(), specs, lambda rs: BinaryWeights(as_rule(rs[0]), rs[1]["head"][0])


def outcomes(w, m) -> dict:
    def run(fn, *args):
        try:
            r = fn(w, m, *args)
        except (ts.tree.IndeterminateError, shift.IncompleteTruncationError) as e:
            return type(e).__name__
        return cli.dumps_canonical(r.to_json()) if isinstance(r, classify.Verdict) else r

    return {
        "norm": run(shift.norm),
        "fredholm": run(shift.fredholm_data),
        "domain": run(shift.domain_inclusion_criteria),
        **{name: run(getattr(classify, name)) for name in (
            "is_isometry", "is_quasinormal", "is_normal", "is_cohyponormal", "is_hyponormal")},
        "p_hyponormal": run(classify.is_p_hyponormal, 2.0),
    }


@settings(max_examples=120, derandomize=True, deadline=None)
@given(signed_systems(), st.integers(2, 4), st.lists(st.booleans(), min_size=40, max_size=40))
def test_phase_invariance(system, depth, bits):
    fam, specs, build = system
    m = fam.materialize(depth)
    mask = iter(bits * 2)
    flipped = [flip(r, mask) if r["tail"] else dict(r, head=[-x for x in r["head"]]) for r in specs]
    plain = outcomes(WeightSystem(rules=build(specs)), m)
    assert outcomes(WeightSystem(rules=build(flipped)), m) == plain


# -- the verdicts derived from the facts ------------------------------------------


def test_negative_constant_tail_norm():
    # the tail beyond a depth-1 prefix decides the norm: 3, not sqrt(2)
    w = WeightSystem(rules=BroomWeights(2, 0, (
        BranchRule((1.0,), ConstantTail(-3.0), 1), BranchRule((1.0,), ConstantTail(1.0), 1))))
    assert shift.norm(w, ts.broom(2, 0).materialize(1)) == shift.NormResult(3.0, True)


def test_negative_ratio_geometric_tail():
    w = WeightSystem(rules=ChainWeights("z_plus", pos=BranchRule((), GeometricTail(1.0, -2.0), 1)))
    m = ts.zplus().materialize(6)
    assert shift.norm(w, m) == shift.NormResult(math.inf, True)
    fd = shift.fredholm_data(w, m)
    assert fd.c == 2.0 and fd.is_fredholm and fd.index == -1
    rep = shift.domain_inclusion_criteria(w, m)
    assert rep.fwd.verdict == rep.bwd.verdict == "at-depth"


def test_backward_rule_read_along_the_shift():
    # lambda_{-k} = 0.5**k: the moduli grow along the shift, which is hyponormal
    w = WeightSystem(rules=ChainWeights(
        "z", pos=BranchRule((), ConstantTail(1.0), 1), neg=BranchRule((), GeometricTail(1.0, 0.5), 0)))
    v = classify.is_hyponormal(w, ts.zline().materialize(12))
    assert v.value == "yes" and v.exact
    # past the prefix the neg side grows in k, so it falls along the shift:
    # lambda_{-4} = 0.81 feeds lambda_{-3} = 0.27
    neg = BranchRule((2.0, 1.0, 0.5), GeometricTail(0.01, 3.0), 0)
    w2 = WeightSystem(rules=ChainWeights("z", pos=BranchRule((), ConstantTail(2.0), 1), neg=neg))
    v2 = classify.is_hyponormal(w2, ts.zline().materialize(3))
    assert v2.value == "no" and v2.witness == {"tail_index": 4, "reason": "weights decrease along a tail"}
    assert abs(neg.value(4)) > abs(neg.value(3))  # the witness re-evaluates


def test_finite_trunk_tail_is_not_read_past_kappa():
    # kappa = 1: lambda_0 = 0.5 is the only trunk weight; the rising tail
    # values 1, 2, ... at k >= 1 belong to no vertex
    w = WeightSystem(rules=BroomWeights(2, 1, (BranchRule((0.5,), ConstantTail(1.0), 1),) * 2,
                                        BranchRule((), GeometricTail(0.5, 2.0), 0)))
    m = ts.broom(2, 1).materialize(4)
    assert classify.is_hyponormal(w, m).to_json() == {"verdict": "yes", "exact": True, "depth": 4}
    assert shift.norm(w, m) == shift.NormResult(1.0, True)  # not inf: no weight grows


def test_tail_witness_names_a_real_drop():
    # weights 0.5, then 1, 2, 3 on [2, 5), then 1 again at the break 5
    branch = BranchRule((0.5,), AffineTail((2, 5, 9)), 1)
    w = WeightSystem(rules=BroomWeights(2, 0, (branch, BranchRule((0.5,), ConstantTail(1.0), 1))))
    v = classify.is_hyponormal(w, ts.broom(2, 0).materialize(3))
    assert v.value == "no" and v.witness == {"tail_index": 5, "reason": "weights decrease along a tail"}
    assert abs(branch.value(5)) < abs(branch.value(4))


def test_unbounded_rules_skip_the_weight_sweep():
    def fn(i):
        raise RuntimeError(f"weight {i} evaluated")
    w = WeightSystem(rules=BroomWeights(2, 0, (
        BranchRule((1.0,), SequenceTail(fn, declared_sup=math.inf, exact=True), 1),
        BranchRule((1.0,), ConstantTail(1.0), 1))))
    assert shift.norm(w, ts.broom(2, 0).materialize(6)) == shift.NormResult(math.inf, True)


# -- tails whose facts would not hold are refused -------------------------------


def test_ca_ratio_tail_lives_on_the_unit_interval():
    # with an atom at 2 the values rise towards sqrt(2), past the declared sup
    with pytest.raises(ValueError, match="ca_ratio"):
        CaRatioTail(AtomicMeasure.from_pairs([(2.0, 0.5)]))
    # the slack models.construct_chex allows is kept
    CaRatioTail(AtomicMeasure.from_pairs([(1.0 + 5e-11, 0.5)]))
    CaRatioTail(AtomicMeasure.zero())
