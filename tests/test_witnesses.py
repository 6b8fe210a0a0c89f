"""Every "no" whose witness is a tail index re-evaluates to the violation it names.

On broom and line prefixes with rules and random ``base`` overrides inside
the prefix, ``is_normal``, ``is_cohyponormal``, ``is_hyponormal`` and
``is_p_hyponormal`` may answer "no" with a ``tail_index`` j: a weight past the
prefix.  The witness names no chain, so some chain of the family must show,
read through ``WeightSystem.weight`` (a ``base`` weight first):

- "rooted and nonzero": a nonzero weight at index j;
- "weights decrease along a tail": along the shift, |lambda| falls from index
  j - 1 to j on a chain indexed along it, and rises from j - 1 to j on one
  indexed against it (the broom trunk and ``neg``, lambda_{-k} by k).
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

import treeshift as ts
from treeshift import classify
from treeshift.measure import AtomicMeasure
from treeshift.shift import (
    AffineTail,
    BranchRule,
    BroomWeights,
    CaRatioTail,
    ChainWeights,
    ConstantTail,
    FactorialTail,
    GeometricTail,
    MomentRatioTail,
    WeightSystem,
)

MODULI = st.one_of(st.sampled_from([0.0, 0.5, 1.0, 2.0]), st.floats(0.05, 3.0))
TAILS = st.one_of(
    st.builds(ConstantTail, st.sampled_from([0.0, 0.5, 1.0])),
    st.builds(GeometricTail, st.floats(0.2, 3.0), st.sampled_from([0.5, 0.9, 1.0, 1.1, 2.0])),
    st.just(FactorialTail(0.5)),
    st.just(AffineTail((0, 2, 5, 9, 14))),
    st.builds(lambda p: MomentRatioTail(AtomicMeasure.from_pairs([(p, 0.5), (1.2, 0.5)])), st.floats(0.1, 1.1)),
    st.builds(lambda p: CaRatioTail(AtomicMeasure.from_pairs([(p, 0.3)])), st.floats(0.0, 1.0)),
)
HEADS = st.lists(MODULI, max_size=2).map(tuple)
PREDICATES = {
    "normal": classify.is_normal,
    "cohyponormal": classify.is_cohyponormal,
    "hyponormal": classify.is_hyponormal,
    "p_hyponormal_half": lambda w, m: classify.is_p_hyponormal(w, m, 0.5),
    "p_hyponormal_two": lambda w, m: classify.is_p_hyponormal(w, m, 2.0),
}


def rule(draw, start):
    return BranchRule(draw(HEADS), draw(TAILS), start)


@st.composite
def prefixes(draw):
    """(weights, prefix, chains): each chain is (id of index j, forward, first
    index, end) of the family."""
    kind = draw(st.sampled_from(["broom", "broom", "z_plus", "z", "z_minus"]))
    depth = draw(st.integers(1, 8))
    if kind == "broom":
        eta, kappa = draw(st.integers(2, 3)), draw(st.sampled_from([0, 2, math.inf]))
        branches = tuple(rule(draw, 1) for _ in range(eta))
        trunk = None
        if kappa == math.inf:
            trunk = rule(draw, 0)
        elif kappa:
            trunk = BranchRule(tuple(draw(MODULI) for _ in range(kappa)), None, 0)
        rules, fam = BroomWeights(eta, kappa, branches, trunk), ts.broom(eta, kappa)
        chains = [(lambda j, i=i: f"({i},{j})", True, 1, math.inf) for i in range(1, eta + 1)]
        chains += [(lambda k: str(-k), False, 0, kappa)] if kappa else []
    else:
        pos = rule(draw, 1) if kind != "z_minus" else None
        neg = rule(draw, 0) if kind != "z_plus" else None
        rules, fam = ChainWeights(kind, pos=pos, neg=neg), {"z_plus": ts.zplus(), "z": ts.zline(), "z_minus": ts.zminus()}[kind]
        chains = ([(str, True, 1, math.inf)] if pos else []) + ([(lambda k: str(-k), False, 0, math.inf)] if neg else [])
    m = fam.materialize(depth)
    base = draw(bases(m, chains))
    return WeightSystem(base=base, rules=rules), m, chains


@st.composite
def bases(draw, m, chains):
    """``base`` overrides on vertices of the prefix: none, every weight 0,
    one chain nondecreasing along the shift and every other weight 0, or a
    few weights anywhere."""
    ids = [v for v in m.tree.vertices if v in m.tree.parent]
    mode = draw(st.sampled_from(["none", "zero", "one chain", "one chain", "few"]))
    if mode == "none":
        return {}
    if mode == "few":
        picked = draw(st.lists(st.sampled_from(ids), max_size=4, unique=True))
        return {v: draw(MODULI) for v in picked}
    base = dict.fromkeys(ids, 0.0)
    if mode == "one chain":
        name, forward, first, end = draw(st.sampled_from(chains))
        inside = [j for j in range(first, int(min(end, m.depth + first))) if name(j) in base]
        level = draw(st.floats(0.05, 1.0))
        step = draw(st.sampled_from([1.0, 1.0, 1.1]))
        for n, j in enumerate(inside if forward else inside[::-1]):
            base[name(j)] = level * step ** n
    return base


def shows(w, chains, witness) -> bool:
    """Does some chain show the violation the tail-index witness names?"""
    j = witness["tail_index"]
    for name, forward, first, end in chains:
        if not first <= j < end:
            continue
        cur = abs(w.weight(name(j)))
        if witness["reason"] == "rooted and nonzero":
            if cur != 0.0:
                return True
        elif j - 1 >= max(first, 1 if forward else 0):
            prev = abs(w.weight(name(j - 1)))
            if (cur < prev) if forward else (cur > prev):
                return True
    return False


@settings(max_examples=400, derandomize=True, deadline=None)
@given(prefixes())
def test_tail_witnesses_re_evaluate(wmc):
    w, m, chains = wmc
    for name, fn in PREDICATES.items():
        v = fn(w, m)
        witness = v.witness if v.value == "no" else None
        if isinstance(witness, dict) and "tail_index" in witness:
            assert shows(w, chains, witness), (name, witness)
        elif isinstance(witness, dict) and witness.get("reason") == "rooted and nonzero":
            assert abs(w.weight(witness["vertex"])) != 0.0, name
