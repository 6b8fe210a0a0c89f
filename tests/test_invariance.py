"""Verdicts that depend only on the moduli of the weights, and only up to scale.

A weighted shift is unitarily equivalent to the shift with weights |lambda|
(``normalize_weights``), so every predicate and the norm must read the same
on both.  Scaling every weight by c > 0 scales S by c: the norm scales with
it, and every predicate but the isometry test keeps its verdict.  The
systems are ``helpers.truncations``: random explicit truncations with
complex weights (in about half of them), repeated moduli, incomplete
vertices, zero weights and rootless prefixes.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treeshift import classify, shift
from treeshift.shift import WeightSystem

from helpers import truncations

P = 1.5  # an exponent of p-hyponormality other than 1

SCALE_FREE = {
    "is_quasinormal": classify.is_quasinormal,
    "is_normal": classify.is_normal,
    "is_cohyponormal": classify.is_cohyponormal,
    "is_hyponormal": classify.is_hyponormal,
    "is_p_hyponormal": lambda w, m: classify.is_p_hyponormal(w, m, P),
}
PREDICATES = dict(SCALE_FREE, is_isometry=classify.is_isometry)


def verdict_shape(v):
    """The verdict, its exactness and the vertices its witness names."""
    return v.value, v.exact, {k: x for k, x in (v.witness or {}).items() if isinstance(x, str)}


@settings(max_examples=60, derandomize=True, deadline=None)
@given(truncations())
def test_phase_stripped_system_reads_the_same(mw):
    m, w = mw
    absw, _ = shift.normalize_weights(w, m)
    for name, fn in PREDICATES.items():
        assert fn(absw, m).to_json() == fn(w, m).to_json(), name
    assert shift.norm(absw, m) == shift.norm(w, m)


@settings(max_examples=60, derandomize=True, deadline=None)
@given(truncations(), st.floats(min_value=1e-100, max_value=1e100))
def test_scaling_the_weights_scales_only_the_norm(mw, c):
    m, w = mw
    scaled = WeightSystem(base={v: c * lam for v, lam in w.base.items()})
    for name, fn in SCALE_FREE.items():
        assert verdict_shape(fn(scaled, m)) == verdict_shape(fn(w, m)), name
    got, want = shift.norm(scaled, m), shift.norm(w, m)
    assert got.exact == want.exact
    assert got.value == pytest.approx(c * want.value, rel=1e-12, abs=0)
