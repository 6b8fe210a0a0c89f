"""The sparse truncation oracle against the dense reference in ``helpers``.

Random explicit truncations of up to 150 vertices, with incomplete vertices,
zero weights, complex phases and rootless prefixes: every figure of the
sparse oracle must agree with the dense matrices, and every "no" witness
must lie in a block of the dense restriction whose least eigenvalue is a
violation.  A binary prefix of depth 12 checks the sizes the dense matrices
could not hold.
"""

import json
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import treeshift as ts
from treeshift import classify, cli, oracle, shift, tree
from treeshift.shift import BinaryWeights, BranchRule, ConstantTail, WeightSystem

from helpers import (
    ref_bfs,
    ref_commutator,
    ref_interior,
    ref_kernel_dims,
    ref_matrix,
    ref_operator_norm,
    ref_power_commutator,
    ref_power_safe,
    ref_power_selfcommutator_check,
    ref_restricted,
    ref_selfcommutator_check,
    ref_witness_block_min,
    truncations,
)

TOL = 1e-10  # the oracle's default eigenvalue tolerance
def _same_eig_verdict(got, want, scale):
    assert abs(got.min_eig - want.min_eig) <= 1e-12 * scale
    assert got.ok == want.ok


def _witness_reevaluates(tr, mat, idx, verdict):
    """The block of the dense restriction holding the witness has an
    eigenvalue below -TOL * scale."""
    _, scale = ref_restricted(mat, idx)
    assert ref_witness_block_min(mat, idx, tr.pos(verdict.witness)) < -TOL * scale


@settings(max_examples=200, derandomize=True, deadline=None)
@given(truncations())
def test_sparse_oracle_matches_the_dense_reference(case):
    m, w = case
    t = m.tree
    tr = oracle.truncate(m, 1, weights=w)
    assert list(tr.order) == ref_bfs(m)
    for v in tr.order[1:]:
        assert tr.order[tr.parent[tr.pos(v)]] == t.parent[v]
        assert tr.weight[tr.pos(v)] == w.weight(v)
    a = ref_matrix(tr)

    assert oracle.operator_norm(tr) == pytest.approx(ref_operator_norm(tr), rel=1e-10, abs=1e-300)

    for p in (0.5, 1.0, 2.0):
        if not tr.interior:
            with pytest.raises(oracle.EmptyInteriorError):
                oracle.selfcommutator_check(tr, p=p)
            break
        got = oracle.selfcommutator_check(tr, p=p)
        want, scale = ref_selfcommutator_check(tr, p)
        _same_eig_verdict(got, want, scale)
        if not got.ok:
            _witness_reevaluates(tr, ref_commutator(tr, p), ref_interior(tr), got)

    for k in (2, 3):
        idx = ref_power_safe(tr, k)
        if not idx:
            with pytest.raises(oracle.EmptyInteriorError):
                oracle.power_selfcommutator_check(tr, k=k)
            continue
        got = oracle.power_selfcommutator_check(tr, k=k)
        want, scale = ref_power_selfcommutator_check(tr, k)
        if scale is None:  # a basis vector decided
            assert (got.ok, got.witness) == (want.ok, want.witness)
            assert got.min_eig == pytest.approx(want.min_eig, rel=1e-12, abs=1e-12)
        else:
            _same_eig_verdict(got, want, scale)
        if not got.ok:
            _witness_reevaluates(tr, ref_power_commutator(tr, k), idx, got)

    assert oracle.kernel_dims(tr) == ref_kernel_dims(tr)

    for v in tr.order[:: max(1, len(tr.order) // 5)]:
        e = np.zeros(len(tr.order), complex)
        e[tr.pos(v)] = 1.0
        for n in (1, 2, 3, 4):
            fwd = np.linalg.norm(np.linalg.matrix_power(a, n) @ e)
            bwd = np.linalg.norm(np.linalg.matrix_power(a.conj().T, n) @ e)
            assert oracle.matrix_power_norm(tr, v, n) == pytest.approx(fwd, rel=1e-12, abs=1e-12)
            assert oracle.adjoint_power_norm(tr, v, n) == pytest.approx(bwd, rel=1e-12, abs=1e-12)


@settings(max_examples=100, derandomize=True, deadline=None)
@given(truncations(), st.integers(-150, 150))
def test_operator_norm_at_every_magnitude(case, k):
    # weights from 1e-151 to 3e150: A*A's entries stay inside the float range,
    # so the norm must too, and agree with the SVD and the closed form
    m, w = case
    scaled = WeightSystem(base={v: x * 10.0 ** k for v, x in w.base.items()})
    tr = oracle.truncate(m, 1, weights=scaled)
    assert oracle.operator_norm(tr) == pytest.approx(ref_operator_norm(tr), rel=1e-10, abs=0.0)
    whole = tree.as_complete(m.tree)
    got = oracle.operator_norm(oracle.truncate(whole, 1, weights=scaled))
    assert got == pytest.approx(shift.norm(scaled, whole).value, rel=1e-12, abs=0.0)


def test_equal_minima_pick_the_earliest_vertex():
    # two sibling leaves with |lambda| = 2 under a vertex of norm 1: the
    # self-commutator has the same least eigenvalue at both, so the witness
    # is the earlier one in BFS order
    t = tree.validate(["r", "a", "b", "c", "d", "e"],
                      [("r", "a"), ("a", "b"), ("a", "c"), ("r", "d"), ("d", "e")])
    w = WeightSystem(base={"a": 1.0, "b": 2.0, "c": 2.0, "d": 1.0, "e": 1.0})
    verdict = oracle.selfcommutator_check(oracle.truncate(tree.as_complete(t), 1, weights=w))
    assert not verdict.ok and verdict.witness == "b"


def _binary_weights(spine):
    return WeightSystem(rules=BinaryWeights(spine=BranchRule((), ConstantTail(spine), 1), off_spine=0.7))


@pytest.mark.parametrize("spine", [0.7, 0.9])
def test_binary_depth_12_without_a_dense_matrix(spine):
    # 8191 vertices: one dense complex matrix would take 16 n^2 bytes, over 1 GB
    m = ts.binary().materialize(12)
    assert len(m.tree.vertices) == 8191
    w = _binary_weights(spine)
    whole = tree.as_complete(m.tree)
    w_whole = WeightSystem(base={v: w.weight(v) for v in m.tree.vertices[1:]})
    tracemalloc.start()
    try:
        tr = oracle.truncate(m, 12, weights=w)
        onorm = oracle.operator_norm(tr)
        sc = oracle.selfcommutator_check(tr)
        kd = oracle.kernel_dims(oracle.truncate(whole, 1, weights=w_whole))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100e6
    nr = shift.norm(w, m)
    assert nr.exact and onorm == pytest.approx(nr.value, rel=1e-6)
    assert sc.ok == (classify.is_hyponormal(w, m).value == "yes")
    fd = shift.fredholm_data(w_whole, whole)
    assert (fd.a, fd.b + 1) == kd  # the root line counts in ker S*


def test_cli_power_check_on_binary_at_the_default_depth(tmp_path, capsys):
    tree_file = tmp_path / "t.json"
    tree_file.write_text(json.dumps({"kind": "family", "family": "binary"}))
    weights_file = tmp_path / "w.json"
    weights_file.write_text(json.dumps({"mu": {"tail": {"kind": "constant", "value": 0.9}}, "off_spine": 0.7}))
    assert cli.run(["classify", str(tree_file), str(weights_file), "--power", "2"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["predicates"]["square_hyponormal"]["depth"] == 12


def test_cli_import_leaves_scipy_out():
    # scipy is not a declared dependency, and importing it would slow every
    # CLI start
    code = "import sys, treeshift.cli; print('scipy' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(ts.__file__)))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env)
    assert out.stdout.strip() == "False"


@settings(max_examples=100, derandomize=True, deadline=None)
@given(st.integers(2, 300), st.sampled_from([1, 3, 40]), st.randoms(use_true_random=False), st.booleans())
def test_truncate_lays_out_random_trees_in_bfs_order(n, span, rng, rootless):
    # shuffled integer ids, so that canonical order says nothing of the
    # shape; the reference walks the input edges, children sorted by id
    ids = [str(i) for i in range(n)]
    rng.shuffle(ids)
    edges = [(ids[i - 1 - rng.randrange(min(i, span))], ids[i]) for i in range(1, n)]
    m = tree.explicit_truncation(tree.validate(ids, edges), rng.sample(ids, n // 10), rootless)
    kids = {v: [] for v in ids}
    for u, v in edges:
        kids[u].append(v)
    order = [ids[0]]
    for u in order:  # the list grows while it is walked
        order.extend(sorted(kids[u], key=tree.vertex_key))
    tr = oracle.truncate(m, 1)
    assert list(tr.order) == order
    parent = {v: u for u, v in edges}
    assert [tr.order[p] if p >= 0 else None for p in tr.parent.tolist()] == [parent.get(v) for v in order]
    assert [tr.pos(v) for v in order] == list(range(n))
    assert tr.complete.tolist() == [m.is_complete(v) for v in order]
