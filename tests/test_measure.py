import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treeshift import measure, oracle
from treeshift.shift import CaRatioTail
from treeshift.measure import (
    AtomicMeasure,
    ConditionViolated,
    EmptyPrefixError,
    MomentPrefix,
    backward_extend_ca,
    backward_extend_stieltjes,
    ca_sequence,
    is_completely_alternating,
    is_stieltjes,
    jacobi_min_eig,
    moment,
)


def test_moments_basic():
    assert moment(AtomicMeasure.delta(1.0), 7) == 1.0
    mixed = AtomicMeasure.from_pairs([(1.0, 0.5), (4.0, 0.5)])
    assert moment(mixed, 1) == pytest.approx(2.5)
    assert moment(AtomicMeasure.delta(0.0), -1) == math.inf
    assert moment(AtomicMeasure.delta(0.0), 0) == 1.0


def test_measure_invariants():
    with pytest.raises(ValueError):
        AtomicMeasure(atoms=((1.0, -1.0),))
    with pytest.raises(ValueError):
        AtomicMeasure(atoms=((2.0, 1.0), (1.0, 1.0)))
    merged = AtomicMeasure.from_pairs([(1.0, 0.5), (1.0, 0.25)])
    assert merged.atoms == ((1.0, 0.75),)


def test_stieltjes_pass_and_fail():
    assert is_stieltjes(MomentPrefix.of([1, 1, 1, 1, 1])).ok
    a, b = 0.6, 0.8
    v = is_stieltjes(MomentPrefix.of([1, (b / a) ** 2, 1, 1, 1]))
    assert not v.ok and v.witness == (0, 2)
    mixed = AtomicMeasure.from_pairs([(1.0, 0.5), (2.0, 0.5)])
    assert is_stieltjes(MomentPrefix.from_measure(mixed, 8)).ok


atoms_strategy = st.lists(
    st.tuples(
        st.floats(min_value=0.05, max_value=3.0),
        st.floats(min_value=0.05, max_value=2.0),
    ),
    min_size=1,
    max_size=4,
)


@settings(max_examples=40, derandomize=True)
@given(atoms_strategy)
def test_atomic_moments_always_pass(atoms):
    mu = AtomicMeasure.from_pairs(atoms)
    assert is_stieltjes(MomentPrefix.from_measure(mu, 12)).ok


@settings(max_examples=40, derandomize=True)
@given(atoms_strategy)
def test_hankel_oracle_agrees(atoms):
    mu = AtomicMeasure.from_pairs(atoms)
    p = MomentPrefix.from_measure(mu, 10)
    scale = 1.0 + max(abs(v) for v in p.values)
    for shift in (0, 1):
        assert oracle.hankel_min_eig(p, shift) >= -1e-9 * scale


def test_completely_alternating():
    assert is_completely_alternating(MomentPrefix.of([1, 1, 1, 1])).ok
    assert is_completely_alternating(MomentPrefix.of([1, 2, 3, 4, 5])).ok
    a, b = 0.6, 0.8
    v = is_completely_alternating(MomentPrefix.of([1, (b / a) ** 2, 1, 1]))
    assert not v.ok and v.witness == (1, 1)


def test_prefix_guards():
    with pytest.raises(EmptyPrefixError):
        MomentPrefix(values=())
    with pytest.raises(EmptyPrefixError):
        is_completely_alternating(MomentPrefix.of([1.0]))
    with pytest.raises(ValueError):
        is_stieltjes(MomentPrefix.of([1.0]), tol=0.0)


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_non_finite_prefix_is_refused(bad):
    # an infinite term made the ladders' thresholds infinite, so both answered ok
    for vals in ([1.0, bad, 1.0], [1.0, 0.5, 0.25, bad], [bad, 1.0]):
        with pytest.raises(ValueError, match="not finite"):
            MomentPrefix.of(vals)
        with pytest.raises(ValueError, match="not finite"):
            MomentPrefix(values=tuple(vals))


def test_backward_extend_stieltjes():
    assert backward_extend_stieltjes(AtomicMeasure.delta(1.0)).atoms == ((1.0, 1.0),)
    nu = backward_extend_stieltjes(AtomicMeasure.delta(2.0))
    assert nu.atoms == ((0.0, 0.5), (2.0, 0.5))
    mu = AtomicMeasure.delta(2.0)
    for n in range(7):
        assert moment(nu, n + 1) == pytest.approx(moment(mu, n), rel=1e-12)
    with pytest.raises(ConditionViolated):
        backward_extend_stieltjes(AtomicMeasure.delta(0.5))


@settings(max_examples=40, derandomize=True)
@given(atoms_strategy)
def test_backward_extend_round_trip(atoms):
    mu = AtomicMeasure.from_pairs(atoms)
    if moment(mu, -1) > 1.0:
        mu = mu.scaled(0.9 / moment(mu, -1))
    nu = backward_extend_stieltjes(mu)
    assert moment(nu, 0) == pytest.approx(1.0, rel=1e-12)
    for n in range(6):
        assert moment(nu, n + 1) == pytest.approx(moment(mu, n), rel=1e-12)


def test_backward_extend_ca():
    assert backward_extend_ca(1.0, AtomicMeasure.zero()).atoms == ()
    assert backward_extend_ca(2.0, AtomicMeasure.delta(1.0)).atoms == ((1.0, 1.0),)
    rho = backward_extend_ca(2.0, AtomicMeasure.delta(0.5, 0.5))
    assert rho.atoms == ((0.5, 1.0),)
    # the extended sequence starts at 1 and reproduces the old one
    ext = ca_sequence(1.0, rho, 7)
    old = ca_sequence(2.0, AtomicMeasure.delta(0.5, 0.5), 6)
    assert ext[1:] == pytest.approx(old)
    with pytest.raises(ConditionViolated):
        backward_extend_ca(1.5, AtomicMeasure.delta(0.5, 0.5))


@settings(max_examples=30, derandomize=True)
@given(
    st.lists(
        st.tuples(
            st.floats(min_value=0.1, max_value=1.0),
            st.floats(min_value=0.01, max_value=0.5),
        ),
        min_size=0,
        max_size=3,
    )
)
def test_ca_quotients_decrease(atoms):
    tau = AtomicMeasure.from_pairs(atoms)
    a = ca_sequence(1.0, tau, 12)
    assert all(x >= 1.0 - 1e-12 for x in a)
    quots = [a[n + 1] / a[n] for n in range(len(a) - 1)]
    assert all(quots[i + 1] <= quots[i] + 1e-12 for i in range(len(quots) - 1))


def test_hankel_failure_is_monotone():
    bad = [1.0, 1.9, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0]
    first_fail = None
    for n in range(1, len(bad)):
        ok = is_stieltjes(MomentPrefix.of(bad[: n + 1])).ok
        if first_fail is None and not ok:
            first_fail = n
        if first_fail is not None:
            assert not ok


def test_jacobi_matches_lapack():
    rng = np.random.default_rng(2024)
    for n in range(1, 9):
        for _ in range(5):
            a = rng.normal(size=(n, n))
            a = (a + a.T) / 2
            assert jacobi_min_eig(a) == pytest.approx(
                float(np.linalg.eigvalsh(a)[0]), rel=1e-9, abs=1e-10
            )


# -- the Hankel ladder against LAPACK at every order ---------------------------

model_atoms = st.lists(  # model-tails' range: points and masses in [0.05, 2]
    st.tuples(st.floats(min_value=0.05, max_value=2.0), st.floats(min_value=0.05, max_value=2.0)),
    min_size=1,
    max_size=4,
)


@st.composite
def moment_prefixes(draw):
    """An order-12 moment prefix of a measure with r <= 4 atoms, and a copy
    whose entry k >= 2r is lowered: the Hankel matrix with t_k in its corner
    has order > r, so it is singular, and lowering the corner makes it
    indefinite, so the copy is not a moment sequence."""
    mu = AtomicMeasure.from_pairs(draw(model_atoms))
    vals = [moment(mu, n) for n in range(13)]
    k = draw(st.integers(2 * len(mu.atoms), 12))
    bad = list(vals)
    bad[k] *= draw(st.floats(min_value=0.5, max_value=0.999))
    return MomentPrefix.of(vals), MomentPrefix.of(bad)


def hankels(p):
    """(shift, order, matrix) in the order the ladder visits them."""
    vals, n = p.values, len(p.values)
    for order in range(1, (n + 1) // 2 + 1):
        for shift in (0, 1):
            if shift + 2 * (order - 1) < n:
                yield shift, order, [list(vals[shift + i : shift + i + order]) for i in range(order)]


@settings(max_examples=80, derandomize=True)
@given(moment_prefixes())
def test_jacobi_ladder_matches_lapack_at_every_order(prefixes):
    for p in prefixes:
        seen = set()
        for shift, order, h in hankels(p):
            seen.add((shift, order))
            ev = jacobi_min_eig(h)
            scale = 1.0 + max(abs(x) for row in h for x in row)
            assert abs(ev - float(np.linalg.eigvalsh(np.array(h))[0])) <= 1e-12 * scale
            assert jacobi_min_eig(h, sweeps=8) == ev  # convergence, not the cap, ends the loop
            assert jacobi_min_eig(np.array(h)) == ev
        assert seen == {(s, o) for o in range(1, 8) for s in (0, 1)} - {(1, 7)}


@settings(max_examples=80, derandomize=True)
@given(moment_prefixes())
def test_ladder_verdict_matches_the_lapack_ladder(prefixes):
    # the same ladder on oracle.hankel_min_eig: every matrix whose least
    # eigenvalue is clear of 0 must be passed or failed as LAPACK says
    for p in prefixes:
        got = is_stieltjes(p)
        scale = 1.0 + max(abs(v) for v in p.values)
        for shift, order, _ in hankels(p):
            ev = oracle.hankel_min_eig(MomentPrefix.of(p.values[: shift + 2 * order - 1]), shift)
            if abs(ev) > 1e-6 * scale:
                assert (got.witness == (shift, order)) == (ev < 0)
            if got.witness == (shift, order):
                break
        else:
            assert got.ok and got.value == 7.0


def test_jacobi_of_a_non_finite_matrix_is_nan():
    assert math.isnan(jacobi_min_eig([[1.0, math.inf], [math.inf, 1.0]]))
    assert math.isnan(jacobi_min_eig(np.array([[1.0, math.nan, 2.0], [math.nan, 2.0, 0.0], [2.0, 0.0, 1.0]])))


def test_json_round_trip():
    mu = AtomicMeasure.from_pairs([(0.5, 0.25), (2.0, 1.5)])
    assert AtomicMeasure.from_json(mu.to_json()) == mu


def test_ca_terms_keep_the_sequence_floats():
    # the sequence as a full build took it: each a_n accumulated from a_0,
    # each power sum added left to right (not by sum(), which compensates
    # from Python 3.12 on)
    def built(a0, t, upto):
        out = [float(a0)]
        for n in range(1, upto + 1):
            acc = a0
            for p, w in t.atoms:
                ps = 0
                for k in range(n):
                    ps += p ** k
                acc += w * ps
            out.append(acc)
        return out

    for tau in (AtomicMeasure.zero(), AtomicMeasure.from_pairs([(0.3, 0.2), (0.6, 0.3), (0.95, 0.4)])):
        want = built(1.0, tau, 300)
        assert ca_sequence(1.0, tau, 300) == want
        assert [measure.ca_term(1.0, tau, n) for n in range(301)] == want
        tail = CaRatioTail(tau)
        assert [tail.value(j) for j in range(2, 302)] == [math.sqrt(want[j - 1] / want[j - 2]) for j in range(2, 302)]
