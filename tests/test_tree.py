import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import treeshift as ts
from treeshift import oracle, tree
from treeshift.shift import BranchRule, BroomWeights, ConstantTail, WeightSystem

from helpers import random_tree


def test_validate_chain():
    t = tree.validate(["0", "1", "2"], [("0", "1"), ("1", "2")])
    assert t.root == "0"
    assert t.children["0"] == ("1",)
    assert t.parent["2"] == "1"


def test_validate_two_cycle():
    with pytest.raises(tree.CircuitError) as ei:
        tree.validate(["a", "b"], [("a", "b"), ("b", "a")])
    assert set(ei.value.cycle) == {"a", "b"}


def test_validate_disconnected():
    with pytest.raises(tree.DisconnectedError):
        tree.validate(["a", "b", "c", "d"], [("a", "b"), ("c", "d")])


def test_validate_forest_of_three():
    # trees {a, b, c}, {d, e} and {f}; the count is of the vertices outside
    # the tree that holds the first input vertex, e
    with pytest.raises(tree.DisconnectedError, match=r"^4 vertices unreachable$"):
        tree.validate(["e", "a", "b", "c", "d", "f"], [("a", "b"), ("a", "c"), ("d", "e")])


def test_validate_multiple_parents():
    with pytest.raises(tree.MultipleParentsError):
        tree.validate(["a", "b", "c"], [("a", "c"), ("b", "c"), ("a", "b")])


def test_validate_self_loop_and_unknown():
    with pytest.raises(tree.ValidationError):
        tree.validate(["a"], [("a", "a")])
    with pytest.raises(tree.ValidationError):
        tree.validate(["a"], [("a", "b")])


def test_descendants_broom():
    m = ts.broom(2, 1).materialize(4)
    assert tree.descendants(m.tree, "0", 1) == {"(1,1)", "(2,1)"}
    assert tree.descendants(m.tree, "(1,2)", 0) == {"(1,2)"}


def test_descendants_line():
    m = ts.zline().materialize(5)
    assert tree.descendants(m.tree, "0", 3) == {"3"}
    with pytest.raises(tree.UnknownVertexError):
        tree.descendants(m.tree, "99", 1)


def test_structural_sets_broom():
    m = ts.broom(2, 0).materialize(4)
    s = tree.structural_sets(m.tree)
    assert s.branching == {"0"}
    assert not (s.leaves & m.complete)  # leaves are only truncation artifacts


def test_structural_sets_chain_and_binary():
    t = tree.validate(["0", "1", "2"], [("0", "1"), ("1", "2")])
    assert tree.structural_sets(t).branching == frozenset()
    m = ts.binary().materialize(3)
    s = tree.structural_sets(m.tree)
    assert len(s.branching & m.complete) == 7


def test_tree_index_families():
    assert tree.tree_index(ts.zminus()) == 1
    assert tree.tree_index(ts.zline()) == 0
    assert tree.tree_index(ts.zplus()) == -1
    assert tree.tree_index(ts.broom(2, 0)) == -2
    assert tree.tree_index(ts.broom(3, 2)) == -3
    assert tree.tree_index(ts.broom(2, math.inf)) == -1


def test_tree_index_binary_not_fredholm():
    with pytest.raises(tree.NotFredholmError):
        tree.tree_index(ts.binary())


def test_tree_index_matches_kernel_count():
    # all-ones weights on the rooted double branch: index = dim ker - dim coker
    w = WeightSystem(
        rules=BroomWeights(
            eta=2, kappa=0,
            branches=(BranchRule((), ConstantTail(1.0), 1), BranchRule((), ConstantTail(1.0), 1)),
            trunk=None,
        )
    )
    m = ts.broom(2, 0).materialize(6)
    tr = oracle.truncate(m, 6, weights=w)
    dk, dck = oracle.kernel_dims(tr)
    assert tree.tree_index(ts.broom(2, 0)) == dk - dck == -2


def test_tree_index_finite_trees_zero():
    import random

    rng = random.Random(11)
    for _ in range(10):
        t = random_tree(rng, rng.randint(2, 120))
        assert tree.tree_index(t) == 0


def test_split_at_broom():
    m = ts.broom(2, 1).materialize(3)
    sub, comp = tree.split_at(m.tree, "(1,1)")
    assert sub.root == "(1,1)"
    assert comp.root == "-1"
    assert set(sub.vertices) == {"(1,1)", "(1,2)", "(1,3)"}


def test_split_at_root_fails():
    t = tree.validate(["0", "1", "2"], [("0", "1"), ("1", "2")])
    sub, comp = tree.split_at(t, "1")
    assert set(sub.vertices) == {"1", "2"} and set(comp.vertices) == {"0"}
    with pytest.raises(tree.EmptyComplementError):
        tree.split_at(t, "0")


@st.composite
def tree_strategy(draw, max_n=200):
    n = draw(st.integers(min_value=2, max_value=max_n))
    picks = draw(st.lists(st.integers(0, 10 ** 9), min_size=n - 1, max_size=n - 1))
    verts = [f"v{i}" for i in range(n)]
    edges = [(verts[picks[i - 1] % i], verts[i]) for i in range(1, n)]
    return tree.validate(verts, edges)


@settings(max_examples=30, derandomize=True)
@given(tree_strategy())
def test_children_partition_non_root(t):
    # the non-root vertices are the disjoint union of the children sets
    seen = []
    for u in t.vertices:
        seen.extend(t.children[u])
    assert len(seen) == len(set(seen))
    assert set(seen) == set(t.vertices) - {t.root}


@settings(max_examples=30, derandomize=True)
@given(tree_strategy(max_n=120), st.integers(0, 6))
def test_descendant_levels_disjoint(t, depth):
    u = t.root
    levels = [tree.descendants(t, u, n) for n in range(depth + 1)]
    for i in range(len(levels)):
        for j in range(i + 1, len(levels)):
            assert not (levels[i] & levels[j])


def test_family_completeness_and_parent_consistency():
    for fam in (ts.zplus(), ts.zline(), ts.zminus(), ts.broom(3, 2), ts.binary()):
        m = fam.materialize(4)
        for u in m.complete:
            for v in m.tree.children[u]:
                assert m.tree.parent[v] == u


def test_leaf_removal_keeps_index():
    import random

    rng = random.Random(5)
    for _ in range(10):
        t = random_tree(rng, rng.randint(3, 80))
        leaves = sorted(v for v in t.vertices if not t.children[v])
        w = leaves[0]
        rest = [v for v in t.vertices if v != w]
        t2 = tree.validate(rest, [(p, v) for (p, v) in t.edges() if v != w])
        assert tree.tree_index(t) == tree.tree_index(t2)


def test_branch_cut_raises_index_by_one():
    for eta, kappa in [(3, 0), (4, 2), (2, math.inf), (5, 1)]:
        if eta <= 2:
            continue
        assert tree.tree_index(ts.broom(eta - 1, kappa)) == tree.tree_index(ts.broom(eta, kappa)) + 1


def test_family_validation():
    with pytest.raises(ValueError):
        ts.broom(1, 0)
    with pytest.raises(ValueError):
        tree.TreeFamily(kind="nope")
    with pytest.raises(ValueError):
        ts.broom(2, 0).materialize(0)


def test_custom_family():
    fam = tree.TreeFamily(
        kind="custom",
        generator=lambda u: [u + "L", u + "R"] if len(u) < 3 else [u + "L"],
        custom_root="r",
        structure=tree.FamilyStructure(rooted=True, leaves=0, branch_children=(2, 2, 2, 2, 2, 2, 2)),
    )
    m = fam.materialize(3)
    assert "rLR" in m.tree.children
    assert tree.tree_index(fam) == (0 + 7) - 1 - 14


def test_custom_root_named_as_child_is_a_circuit():
    fam = tree.TreeFamily(kind="custom", generator=lambda u: ["a"] if u == "r" else ["r"], custom_root="r")
    with pytest.raises(tree.CircuitError):
        fam.materialize(2)


def test_custom_child_under_two_parents():
    children = {"r": ["x", "y"], "x": ["y"]}
    fam = tree.TreeFamily(kind="custom", generator=lambda u: children.get(u, []), custom_root="r")
    with pytest.raises(tree.MultipleParentsError) as ei:
        fam.materialize(2)
    assert ei.value.vertex == "y"


def test_custom_repeated_children_expand_once():
    calls = []

    def twice(u):
        calls.append(u)
        return [u + "0", u + "1"] * 2

    m = tree.TreeFamily(kind="custom", generator=twice, custom_root="r").materialize(9)
    assert len(m.tree.vertices) == 2 ** 10 - 1
    assert sorted(calls) == sorted(m.complete) and len(calls) == 2 ** 9 - 1
    assert all(len(m.tree.children[u]) == 2 for u in m.complete)


def test_structure_gives_the_index_once():
    # ind = #leaves + sum over branching u of (1 - #Chi(u)) - [rooted]
    cases = [
        (ts.zplus(), (True, 0, ())), (ts.zline(), (False, 0, ())), (ts.zminus(), (False, 1, ())),
        (ts.broom(3, 2), (True, 0, (3,))), (ts.broom(4, math.inf), (False, 0, (4,))),
    ]
    for fam, (rooted, leaves, branch) in cases:
        s = tree.tree_structure(fam)
        assert (s.rooted, s.leaves, s.branch_children) == (rooted, leaves, branch)
        assert fam.rooted() == rooted and fam.leafless() == (leaves == 0)
        assert tree.tree_index(fam) == tree.tree_index(fam.materialize(3)) == leaves + sum(1 - c for c in branch) - rooted
    t = tree.validate(list("rabcd"), [("r", "a"), ("r", "b"), ("r", "c"), ("a", "d")])
    assert tree.tree_structure(t) == tree.FamilyStructure(rooted=True, leaves=3, branch_children=(3,))
    assert tree.tree_index(t) == tree.tree_index(tree.as_complete(t)) == 3 + (1 - 3) - 1
    with pytest.raises(tree.NotFredholmError, match="every vertex of the binary tree is branching"):
        tree.tree_index(ts.binary())
    with pytest.raises(tree.IndeterminateError):
        tree.tree_index(tree.explicit_truncation(t, ["d"]))
