"""The closed forms on integer arrays against the per-vertex reference loops.

``helpers.ref_*`` are the closed forms as one Python loop per vertex, in
canonical order.  On random explicit trees and family prefixes the library
must return exactly what they return: verdicts, exactness flags and
witnesses compared byte for byte through the CLI's canonical JSON, and
``NormResult``, ``FredholmData`` and ``DomainInclusionReport`` with ``==``.
"""

import cmath
import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import treeshift as ts
from treeshift import classify, cli, shift, tree
from treeshift.shift import (
    AffineTail,
    BinaryWeights,
    BranchRule,
    BroomWeights,
    ConstantTail,
    FactorialTail,
    GeometricTail,
    MomentRatioTail,
    SequenceTail,
    WeightSystem,
)
from treeshift.measure import AtomicMeasure

from helpers import (
    ref_arrays,
    ref_build,
    ref_chain_verdict,
    ref_domain_inclusion_criteria,
    ref_family,
    ref_fredholm_data,
    ref_is_isometry,
    ref_is_p_hyponormal,
    ref_is_quasinormal,
    ref_levels,
    ref_local_data,
    ref_norm,
    ref_norms_squared,
)

TOL = classify.REL_TOL

# moduli on a coarse grid, so that ties (equal norms, equal maxima) are common
MODULI = st.one_of(st.sampled_from([0.0, 0.0, 0.5, 1.0, 1.0, 1.5, 2.0]), st.floats(0.05, 3.0))
PHASES = st.sampled_from([1, 1j, -1, cmath.exp(0.7j)])
WEIGHTS = st.builds(lambda r, ph: complex(r * ph), MODULI, PHASES)


def label(i: int, style: int) -> str:
    """Integer, pair and plain labels, so canonical and string order differ."""
    return (str(i - 20), f"({i % 3},{i})", f"w{i}")[style]


@st.composite
def explicit_prefixes(draw):
    size = draw(st.integers(2, 40))
    names = [label(i, draw(st.integers(0, 2))) for i in range(size)]
    edges, frontier, nxt = [], [0], 1
    while frontier and nxt < size:
        u = frontier.pop(0)
        for _ in range(min(draw(st.integers(1, 5)), size - nxt)):
            edges.append((names[u], names[nxt]))
            frontier.append(nxt)
            nxt += 1
    names = names[:nxt]
    t = tree.validate(names, edges)
    incomplete = draw(st.lists(st.sampled_from(names), max_size=4, unique=True))
    leaves = [v for v in names if not t.children[v]]
    incomplete += [v for v in leaves if draw(st.booleans()) and v not in incomplete]
    m = tree.explicit_truncation(t, incomplete, rootless=draw(st.booleans()))
    w = WeightSystem(base={v: draw(WEIGHTS) for v in names if v != t.root})
    return w, m


TAILS = st.one_of(
    st.builds(ConstantTail, st.sampled_from([0.0, 0.5, 1.0, 1.5])),
    st.builds(GeometricTail, st.floats(0.5, 1.5), st.sampled_from([0.9, 1.0, 1.1])),
    st.builds(lambda p: MomentRatioTail(AtomicMeasure.from_pairs([(p, 0.5), (1.2, 0.5)])),
              st.floats(0.1, 1.1)),
)


@st.composite
def broom_prefixes(draw):
    eta = draw(st.integers(2, 5))
    kappa = draw(st.sampled_from([0, 1, 2, math.inf]))
    depth = draw(st.integers(1, max(1, (39 - min(kappa, 3)) // (eta + (kappa == math.inf)))))
    heads = st.lists(WEIGHTS, max_size=2).map(tuple)
    branches = tuple(BranchRule(draw(heads), draw(TAILS), 1) for _ in range(eta))
    trunk = None
    if kappa == math.inf:
        trunk = BranchRule(draw(heads), draw(TAILS), 0)
    elif kappa:
        trunk = BranchRule(tuple(draw(WEIGHTS) for _ in range(kappa)), None, 0)
    fam = ts.broom(eta, kappa)
    return WeightSystem(rules=BroomWeights(eta, kappa, branches, trunk)), fam.materialize(depth)


@st.composite
def binary_prefixes(draw):
    tail = draw(st.one_of(TAILS, st.just(FactorialTail(0.5)), st.just(AffineTail((2, 4, 7, 11)))))
    start = 2 if isinstance(tail, AffineTail) else 1
    spine = BranchRule((draw(MODULI),) * (start - 1), tail, 1)
    w = WeightSystem(rules=BinaryWeights(spine, draw(st.sampled_from([0.5, 1.0, 1.5]))))
    return w, ts.binary().materialize(draw(st.integers(2, 4)))


def outcome(fn, *args):
    """The result, with verdicts as their canonical JSON, or the error raised."""
    try:
        r = fn(*args)
    except (tree.IndeterminateError, shift.IncompleteTruncationError) as e:
        return type(e).__name__
    return cli.dumps_canonical(r.to_json()) if isinstance(r, classify.Verdict) else r


def as_bytes(arrays):
    """Arrays compared bit for bit, NaN included."""
    return tuple(np.asarray(a).tobytes() for a in arrays)


def assert_matches_reference(w, m, p):
    pairs = {
        "local_data": (lambda w, m: as_bytes(vars(shift.local_data(w, m)).values()),
                       lambda w, m: as_bytes(ref_local_data(w, m)), ()),
        "norms_squared": (shift.shift_norms_squared, ref_norms_squared, ()),
        "norm": (shift.norm, ref_norm, ()),
        "fredholm": (shift.fredholm_data, ref_fredholm_data, ()),
        "domain": (shift.domain_inclusion_criteria, ref_domain_inclusion_criteria, ()),
        "isometry": (classify.is_isometry, ref_is_isometry, ()),
        "quasinormal": (classify.is_quasinormal, ref_is_quasinormal, ()),
        "hyponormal": (classify.is_hyponormal, ref_is_p_hyponormal, ()),
        "p_hyponormal": (lambda w, m: classify.is_p_hyponormal(w, m, p),
                         lambda w, m: ref_is_p_hyponormal(w, m, p), ()),
        "normal": (classify.is_normal, ref_chain_verdict, (True, TOL)),
        "cohyponormal": (classify.is_cohyponormal, ref_chain_verdict, (False, TOL)),
    }
    for name, (fast, ref, extra) in pairs.items():
        assert outcome(fast, w, m) == outcome(ref, w, m, *extra), name


@settings(max_examples=150, derandomize=True, deadline=None)
@given(explicit_prefixes(), st.sampled_from([0.5, 1.0, 2.0]))
def test_explicit_trees_match_reference(wm, p):
    assert_matches_reference(*wm, p)


@settings(max_examples=100, derandomize=True, deadline=None)
@given(broom_prefixes(), st.sampled_from([0.5, 1.0, 2.0]))
def test_broom_prefixes_match_reference(wm, p):
    assert_matches_reference(*wm, p)


@settings(max_examples=40, derandomize=True, deadline=None)
@given(binary_prefixes(), st.sampled_from([0.5, 1.0, 2.0]))
def test_binary_prefixes_match_reference(wm, p):
    assert_matches_reference(*wm, p)


def test_integer_view():
    m = ts.broom(2, 1).materialize(2)
    a = m.arrays
    assert m.tree.vertices == ("-1", "0", "(1,1)", "(1,2)", "(2,1)", "(2,2)")
    assert a.parent.tolist() == [-1, 0, 1, 2, 1, 4]
    assert a.child_ptr.tolist() == [0, 1, 3, 4, 4, 5, 5]
    assert a.child_idx.tolist() == [1, 2, 4, 3, 5]
    assert a.complete.tolist() == [True, True, True, False, True, False]
    assert a.level.tolist() == [0, 1, 2, 3, 2, 3]
    assert m.arrays is a  # built once per prefix


# -- canonical order: the arrays come first, the string maps are views -------


def assert_same_tree(t, ref):
    """The library's tree and its string views equal the reference's."""
    assert t.vertices == ref.vertices
    assert dict(t.parent) == ref.parent
    assert dict(t.children) == ref.children
    assert t.root == ref.root


def assert_arrays_match(m, ref, complete):
    want = ref_arrays(ref, complete)
    for f in dataclasses.fields(tree.TreeArrays):
        got = getattr(m.arrays, f.name)
        dtype = bool if f.name in ("complete", "checkable") else np.int64
        assert got.dtype == dtype, f.name
        assert got.tobytes() == np.array(want[f.name], dtype).tobytes(), f.name


def assert_matches_reference_build(m):
    ref = ref_build(set(m.tree.vertices), m.tree.parent)
    assert_same_tree(m.tree, ref)
    assert_arrays_match(m, ref, m.complete)
    assert m.levels() == ref_levels(ref)


FAMILIES = {
    "z_plus": ts.zplus(), "z": ts.zline(), "z_minus": ts.zminus(),
    "t_eta_kappa0": ts.broom(2, 0), "t_eta_kappa1": ts.broom(3, 2), "t_eta_kappa2": ts.broom(2, math.inf),
    "binary": ts.binary(),
    "custom": tree.TreeFamily(kind="custom", generator=lambda u: [u + "a", u + "b"][: len(u) % 2 + 1],
                              custom_root="r"),
    "z_eta3": tree.TreeFamily(kind="z", eta=3),  # a line family ignores its eta field
    # children repeated, and in reverse canonical (and string) order
    "custom_reversed": tree.TreeFamily(kind="custom",
                                       generator=lambda u: [str(2 * int(u) + 2), str(2 * int(u) + 1)] * 2),
}
BUILT_IN = {k: f for k, f in FAMILIES.items() if f.kind != "custom"}


@pytest.mark.parametrize("fam", FAMILIES.values(), ids=FAMILIES.keys())
def test_families_match_reference_build(fam):
    for depth in range(1, 7):
        assert_matches_reference_build(fam.materialize(depth))


STRING_REFERENCE = {
    "z_plus": ts.zplus(), "z": ts.zline(), "z_minus": ts.zminus(), "binary": ts.binary(),
    **{f"broom_{eta}_{kappa}": ts.broom(eta, kappa) for eta in (2, 3, 5) for kappa in (0, 1, 4, 20, math.inf)},
}


@pytest.mark.parametrize("fam", STRING_REFERENCE.values(), ids=STRING_REFERENCE.keys())
def test_families_match_string_reference(fam):
    # the formulas against the family written id by id, trunks longer than
    # the depth included
    for depth in range(1, 11 if fam.kind == "binary" else 17):
        m = fam.materialize(depth)
        ref, complete, boundary = ref_family(fam, depth)
        assert_same_tree(m.tree, ref)
        assert m.complete == frozenset(complete) and isinstance(m.complete, frozenset)
        assert (m.boundary_root, m.depth, m.family) == (boundary, depth, fam)
        assert_arrays_match(m, ref, complete)


def test_string_maps_stay_unbuilt_on_the_closed_forms():
    # the calls of a broom job read the arrays only; the string maps are
    # views that nothing there builds
    rule = BranchRule((0.9,), GeometricTail(0.8, 0.99), 1)
    trunks = {0: None, 2: BranchRule((0.7, 0.6), None, 0), math.inf: BranchRule((0.7,), GeometricTail(0.7, 0.99), 0)}
    for kappa, trunk in trunks.items():
        w = WeightSystem(rules=BroomWeights(3, kappa, (rule,) * 3, trunk))
        m = ts.broom(3, kappa).materialize(40)
        for name in ("is_isometry", "is_quasinormal", "is_normal", "is_cohyponormal", "is_hyponormal"):
            getattr(classify, name)(w, m)
        classify.is_p_hyponormal(w, m, 2.0)
        shift.norm(w, m)
        shift.fredholm_data(w, m)
        shift.domain_inclusion_criteria(w, m)
        # what perfbench's count_tree reads: the ids and the complete set
        assert len(m.tree.vertices) == len(m.complete) + 3 == 3 * 40 + 1 + min(kappa, 40)
        built = {"parent", "children", "positions"} & set(vars(m.tree))
        assert not built, built


@pytest.mark.parametrize("fam", BUILT_IN.values(), ids=BUILT_IN.keys())
def test_families_write_canonical_order(fam, monkeypatch):
    # the built-in families emit their ids in canonical order: no id is read back
    def refuse(v):
        raise AssertionError(f"vertex_key({v!r}) called")
    monkeypatch.setattr(tree, "vertex_key", refuse)
    for depth in range(1, 7):
        fam.materialize(depth).arrays


def test_custom_ties_keep_generation_order():
    # "1", "01" and "+1" share a sort key; the generator's order decides
    fam = tree.TreeFamily(kind="custom", generator=lambda u: ["1", "+1", "01"] if u == "r" else [], custom_root="r")
    assert fam.materialize(1).tree.vertices == ("1", "+1", "01", "r")


def assert_split_matches_reference(t):
    for u in t.vertices:
        if u == t.root:
            continue
        sub, comp = tree.split_at(t, u)
        assert sub.root == u
        assert set(sub.vertices) | set(comp.vertices) == set(t.vertices)
        for piece in (sub, comp):
            vs = set(piece.vertices)
            assert_same_tree(piece, ref_build(vs, {v: t.parent[v] for v in vs if v in t.parent and v != piece.root}))


@pytest.mark.parametrize("fam", FAMILIES.values(), ids=FAMILIES.keys())
def test_split_pieces_match_reference_build(fam):
    assert_split_matches_reference(fam.materialize(3).tree)


@settings(max_examples=50, derandomize=True, deadline=None)
@given(explicit_prefixes())
def test_explicit_split_pieces_match_reference_build(wm):
    assert_split_matches_reference(wm[1].tree)


def test_deep_broom_matches_reference_build():
    assert_matches_reference_build(ts.broom(4, math.inf).materialize(4000))


@settings(max_examples=100, derandomize=True, deadline=None)
@given(explicit_prefixes())
def test_explicit_trees_match_reference_build(wm):
    assert_matches_reference_build(wm[1])


def test_predicates_raise_what_the_binding_raises():
    rule = BranchRule((0.5,), ConstantTail(0.8), 1)
    w = WeightSystem(rules=BroomWeights(2, 1, (rule, rule), BranchRule((1.0,), None, 0)))
    m = ts.broom(2, 1).materialize(8)
    iso = classify.is_isometry(w, m)
    assert iso.value == "no" and iso.witness == {"vertex": "0", "norm_squared": 0.5}
    assert iso == ref_is_isometry(w, m)
    co = classify.is_cohyponormal(w, m)
    assert co.witness == {"reason": "rooted and nonzero", "vertex": "0"}
    assert co == ref_chain_verdict(w, m, False, TOL)

    # every weight past index 3 raises: a reader that would stop at vertex "0"
    # raises it too, as the binding of the weights to the prefix does
    def fn(i):
        if i > 3:
            raise RuntimeError(f"weight {i} evaluated")
        return 0.8
    rule = BranchRule((0.5,), SequenceTail(fn), 1)
    w = WeightSystem(rules=BroomWeights(2, 1, (rule, rule), BranchRule((1.0,), None, 0)))
    for read in (classify.is_isometry, classify.is_cohyponormal, shift.norm):
        with pytest.raises(RuntimeError, match="weight 4 evaluated"):
            read(w, m)


# -- non-finite input is refused at the boundary ------------------------------


def test_nan_weight_refused():
    # a NaN weight used to give shift.norm(...) == 0.5, exact
    with pytest.raises(ValueError, match="vertex '1'"):
        WeightSystem(base={"1": math.nan, "2": 0.5})
    with pytest.raises(ValueError, match="head"):
        BranchRule((1.0, math.inf), ConstantTail(1.0))
    with pytest.raises(ValueError, match="ratio"):
        GeometricTail(1.0, math.nan)
    with pytest.raises(ValueError):
        AtomicMeasure.from_pairs([(math.inf, 1.0)])


def test_nan_from_json_names_the_field():
    fam = ts.broom(2, 1)
    good = {"branch": 1, "head": [1.0], "tail": {"kind": "constant", "value": 1.0}}
    bad = {"branch": 2, "head": [1.0], "tail": {"kind": "power", "scale": math.nan, "ratio": 1.0}}
    with pytest.raises(ValueError, match="branch 2: power tail scale"):
        shift.weights_from_json({"tails": [good, bad]}, fam)
    with pytest.raises(ValueError, match="trunk: head"):
        shift.weights_from_json({"tails": [good, dict(good, branch=2)], "trunk": {"head": [math.inf]}}, fam)
    with pytest.raises(ValueError, match="'1'"):
        shift.weights_from_json({"base": {"1": [0.0, math.nan]}})


def test_non_finite_rule_value_refused():
    w = WeightSystem(rules=BroomWeights(
        2, 0, (BranchRule((1.0,), SequenceTail(lambda i: math.nan), 1),) * 2))
    with pytest.raises(shift.NonFiniteWeightError, match=r"vertex '\(1,2\)'"):
        shift.norm(w, ts.broom(2, 0).materialize(4))


# -- moment-ratio tails past the float range -----------------------------------


def test_moment_ratio_tail_deep():
    from treeshift import models
    mus = [AtomicMeasure.delta(0.5), AtomicMeasure.delta(0.7)]
    res = models.construct_subnormal(2, 1, mus)
    m = res.family.materialize(1200)  # 0.5**n underflows past n ~ 1075
    assert classify.is_hyponormal(res.weights, m).value == "yes"
    assert shift.norm(res.weights, m) == shift.NormResult(math.sqrt(0.7), True)


def test_trunk_moment_ratio_tail_deep():
    from treeshift import models
    mus = [AtomicMeasure.from_pairs([(5e-9, 0.5), (1.0, 0.5)]), AtomicMeasure.delta(1.5)]
    res = models.construct_subnormal(2, math.inf, mus)
    m = res.family.materialize(50)  # (5e-9)**-n overflows past n ~ 37
    assert classify.is_hyponormal(res.weights, m).value == "yes"
    assert shift.norm(res.weights, m).exact
    assert res.weights.rules.trunk.tail.value(49) == pytest.approx(math.sqrt(5e-9), rel=1e-12)


def test_rescaled_ratios_agree_with_plain():
    # where both forms are finite, the quotient over points divided by a
    # pivot agrees with the plain one
    mu = AtomicMeasure.from_pairs([(0.3, 0.2), (0.9, 0.5), (1.7, 0.3)])
    terms = [(0.36, AtomicMeasure.delta(0.4)), (0.64, mu)]

    def rescaled(hi, lo, pivot):
        s = lambda n: sum(c * sum(m * (p / pivot) ** n for p, m in t.atoms) for c, t in terms)
        return pivot ** (hi - lo) * (s(hi) / s(lo))

    for n in (1, 4, 39, 299):
        assert shift._pivot_ratio(terms, n, n - 1, 1.7) == pytest.approx(rescaled(n, n - 1, 1.7), rel=1e-12)
        assert shift._pivot_ratio(terms, -n, -n - 1, 0.3) == pytest.approx(rescaled(-n, -n - 1, 0.3), rel=1e-12)


def test_wide_vertices_match_reference():
    # sums over 8 or more children take numpy's pairwise path, and several
    # vertices of one width are solved as one batch
    import random
    rng = random.Random(7)
    for width in (8, 9, 12):
        kids = [f"c{i}" for i in range(width)]
        grand = [f"g{i}" for i in range(width * width)]
        edges = [("r", c) for c in kids] + [(kids[i // width], g) for i, g in enumerate(grand)]
        m = tree.explicit_truncation(tree.validate(["r"] + kids + grand, edges), grand[:width])
        w = WeightSystem(base={v: rng.uniform(0.0, 1.0) * 10 ** rng.uniform(-2, 2) for v in kids + grand})
        assert_matches_reference(w, m, 2.0)
