import json
import math

import pytest

from treeshift import cli


def _run(capsys, argv):
    code = cli.run(argv)
    out = capsys.readouterr().out
    return code, out


def _write(tmp_path, name, obj):
    p = tmp_path / name
    p.write_text(json.dumps(obj))
    return str(p)


@pytest.fixture
def exa_files(tmp_path):
    tree = _write(
        tmp_path, "tree.json",
        {"kind": "family", "family": "t_eta_kappa", "eta": 2, "kappa": 1, "depth": 10},
    )
    weights = _write(
        tmp_path, "weights.json",
        {
            "base": {},
            "tails": [
                {"branch": 1, "head": [4.0], "tail": {"kind": "constant", "value": 8.0}},
                {"branch": 2, "head": [1.0], "tail": {"kind": "constant", "value": 1.9}},
            ],
            "trunk": {"head": [4.0]},
        },
    )
    return tree, weights


def test_classify_two_branch_example(capsys, exa_files):
    tree, weights = exa_files
    code, out = _run(capsys, ["classify", tree, weights, "--power", "2", "--depth", "10"])
    assert code == 0
    rep = json.loads(out)
    assert rep["summary"]["hyponormal"] == "yes"
    assert rep["summary"]["square_hyponormal"] == "no"
    assert rep["predicates"]["square_hyponormal"]["witness"]["vertex"] == "(2,1)"


def test_classify_deterministic(capsys, exa_files):
    tree, weights = exa_files
    _, out1 = _run(capsys, ["classify", tree, weights, "--power", "2"])
    _, out2 = _run(capsys, ["classify", tree, weights, "--power", "2"])
    assert out1 == out2


def test_index_families(capsys, tmp_path):
    for fam, expect in [("z_minus", 1), ("z", 0), ("z_plus", -1)]:
        tree = _write(tmp_path, f"{fam}.json", {"kind": "family", "family": fam, "depth": 8})
        code, out = _run(capsys, ["index", tree])
        assert code == 0 and json.loads(out)["tree_index"] == expect
    tb = _write(tmp_path, "bin.json", {"kind": "family", "family": "binary", "depth": 4})
    code, out = _run(capsys, ["index", tb])
    assert code == 0 and json.loads(out)["tree_index"] is None


def test_validate_errors(capsys, tmp_path):
    bad = _write(
        tmp_path, "bad.json",
        {"kind": "explicit", "vertices": ["a", "b"], "edges": [["a", "b"], ["b", "a"]]},
    )
    code, out = _run(capsys, ["validate", bad])
    assert code == 2
    assert json.loads(out)["error"]["kind"] == "CircuitError"
    good = _write(
        tmp_path, "good.json",
        {"kind": "explicit", "vertices": ["a", "b", "c"], "edges": [["a", "b"], ["b", "c"]]},
    )
    code, out = _run(capsys, ["validate", good])
    assert code == 0 and json.loads(out) == {"root": "a", "valid": True, "vertices": 3}


def test_construct_and_round_trip(capsys, tmp_path):
    spec = _write(
        tmp_path, "spec.json",
        {
            "eta": 2,
            "kappa": 1,
            "measures": [
                {"atoms": [[1.0, 1.0]]},
                {"atoms": [[0.5, 0.5], [1.0, 0.5]]},
            ],
        },
    )
    code, out = _run(capsys, ["construct-subnormal", spec])
    assert code == 0
    blob = json.loads(out)
    assert blob["norm"] == pytest.approx(1.0)
    assert blob["extremal"] is True

    # emitted weights re-parse and re-classify identically
    tree = _write(tmp_path, "t.json", dict(blob["tree"], kind="family", family="t_eta_kappa", depth=10))
    weights = _write(tmp_path, "w.json", blob["weights"])
    measures = _write(
        tmp_path, "m.json",
        {"measures": [{"atoms": [[1.0, 1.0]]}, {"atoms": [[0.5, 0.5], [1.0, 0.5]]}],
         "flavor": "subnormal"},
    )
    code, out = _run(capsys, ["classify", tree, weights, "--measures", measures])
    assert code == 0
    rep = json.loads(out)
    assert rep["summary"]["subnormal_model"] == "yes"
    assert rep["predicates"]["subnormal_model"]["detail"]["extremal"] is True

    code2, out2 = _run(capsys, ["classify", tree, weights, "--measures", measures])
    assert out2 == out


def test_construct_bad_theta(capsys, tmp_path):
    spec = _write(
        tmp_path, "spec.json",
        {
            "eta": 2,
            "kappa": 1,
            "theta": 99.0,
            "measures": [{"atoms": [[1.0, 1.0]]}, {"atoms": [[0.5, 0.5], [1.0, 0.5]]}],
        },
    )
    code, out = _run(capsys, ["construct-subnormal", spec])
    assert code == 2
    assert "ThetaOutOfRange" in json.loads(out)["error"]["message"]


def test_construct_chex_cli(capsys, tmp_path):
    spec = _write(
        tmp_path, "spec.json",
        {"eta": 2, "kappa": 1, "t": [1.0, 0.6],
         "measures": [{"atoms": []}, {"atoms": [[1.0, 1.0]]}]},
    )
    code, out = _run(capsys, ["construct-chex", spec])
    assert code == 0
    blob = json.loads(out)
    assert blob["theta"] == pytest.approx(1.25)


def test_backward_extension_cli(capsys, tmp_path):
    meas = _write(tmp_path, "m.json", {"atoms": [[1.0, 1.0]]})
    code, out = _run(capsys, ["backward-extension", meas, "--k", "inf"])
    assert code == 0 and json.loads(out)["extendible"] is True
    meas0 = _write(tmp_path, "m0.json", {"atoms": [[0.0, 0.5], [1.0, 0.5]]})
    code, out = _run(capsys, ["backward-extension", meas0, "--k", "1"])
    assert code == 0 and json.loads(out)["extendible"] is False
    meas2 = _write(tmp_path, "m2.json", {"atoms": [[0.5, 0.5]]})
    code, out = _run(capsys, ["backward-extension", meas2, "--k", "1", "--flavor", "chex"])
    assert code == 0 and json.loads(out)["extendible"] is False


def test_powers_and_norm(capsys, exa_files):
    tree, weights = exa_files
    code, out = _run(capsys, ["norm", tree, weights])
    assert code == 0
    rep = json.loads(out)
    assert rep["norm"] == 8.0 and rep["exact"] is True
    code, out = _run(capsys, ["powers", tree, weights, "--vertex", "(2,1)", "--max-n", "3", "--depth", "10"])
    vals = json.loads(out)["power_norms_squared"]
    assert vals[2] == pytest.approx(1.9 ** 4)


def test_oracle_compare_cli(capsys, exa_files):
    tree, weights = exa_files
    code, out = _run(capsys, ["oracle-compare", tree, weights, "--depth", "8"])
    assert code == 0
    rep = json.loads(out)
    assert rep["norms_agree"] and rep["classifiers_agree"]


def test_missing_file(capsys):
    code, out = _run(capsys, ["index", "/nonexistent/tree.json"])
    assert code == 2 and json.loads(out)["error"]["kind"] == "InputError"


def test_classify_chex_flavor(capsys, tmp_path):
    spec = _write(
        tmp_path, "spec.json",
        {"eta": 2, "kappa": 1, "t": [1.0, 0.6],
         "measures": [{"atoms": []}, {"atoms": [[1.0, 1.0]]}]},
    )
    _, out = _run(capsys, ["construct-chex", spec])
    blob = json.loads(out)
    tree = _write(tmp_path, "t.json", dict(blob["tree"], kind="family", family="t_eta_kappa", depth=10))
    weights = _write(tmp_path, "w.json", blob["weights"])
    measures = _write(
        tmp_path, "m.json",
        {"measures": [{"atoms": []}, {"atoms": [[1.0, 1.0]]}], "flavor": "chex"},
    )
    code, out = _run(capsys, ["classify", tree, weights, "--measures", measures])
    assert code == 0
    assert json.loads(out)["summary"]["chex_model"] == "yes"


def test_strict_mode_indeterminate(capsys, tmp_path):
    tree = _write(tmp_path, "t.json", {"kind": "family", "family": "z_plus", "depth": 4})
    weights = _write(tmp_path, "w.json", {"base": {str(n): 1.0 for n in range(1, 5)}})
    code, out = _run(
        capsys,
        ["powers", tree, weights, "--vertex", "2", "--max-n", "9", "--depth", "4", "--strict"],
    )
    assert code == 3 and "indeterminate" in json.loads(out)


def test_canonical_float_format():
    s = cli.dumps_canonical({"x": 1.0, "y": 1 / 3, "z": math.inf})
    assert s == '{"x": 1.0, "y": 0.33333333333333331, "z": "inf"}'


# -- golden reports -----------------------------------------------------------
# Exact stdout of a fixed set of invocations, so that a rewrite of the closed
# forms cannot move a single byte of a report.

GOLDEN_FILES = {
    "broom.json": {"kind": "family", "family": "t_eta_kappa", "eta": 3, "kappa": 2, "depth": 12},
    "broom_w.json": {
        "tails": [
            {"branch": 1, "head": [0.7], "tail": {"kind": "power", "scale": 0.9, "ratio": 0.97}},
            {"branch": 2, "head": [0.4, 1.3],
             "tail": {"kind": "moment_ratio", "atoms": [[0.3, 0.25], [1.2, 0.75]]}},
            {"branch": 3, "tail": {"kind": "ca_ratio", "atoms": [[0.6, 0.3]]}},
        ],
        "trunk": {"head": [1.1, 0.8]},
    },
    "rootless.json": {"kind": "family", "family": "t_eta_kappa", "eta": 2, "kappa": "inf", "depth": 10},
    "rootless_w.json": {
        "tails": [
            {"branch": 1, "head": [0.55],
             "tail": {"kind": "moment_ratio", "atoms": [[0.8, 0.5], [1.5, 0.5]]}},
            {"branch": 2, "head": [0.5], "tail": {"kind": "power", "scale": 1.1, "ratio": 1.01}},
        ],
        "trunk": {"head": [0.9], "tail": {"kind": "power", "scale": 0.85, "ratio": 0.995}},
    },
    "line.json": {"kind": "family", "family": "z", "depth": 6},
    "line_w.json": {
        "pos": {"tail": {"kind": "constant", "value": 1.3}},
        "neg": {"tail": {"kind": "constant", "value": 1.3}},
    },
    # root with four children; kernel vectors at b, d's subtree and leaves
    "explicit.json": {
        "kind": "explicit",
        "vertices": ["r", "a", "b", "c", "d", "a1", "a2", "a3", "b1", "c1", "c2",
                     "a11", "c11", "c12", "c13", "c14"],
        "edges": [["r", "a"], ["r", "b"], ["r", "c"], ["r", "d"],
                  ["a", "a1"], ["a", "a2"], ["a", "a3"], ["b", "b1"], ["c", "c1"], ["c", "c2"],
                  ["a1", "a11"], ["c1", "c11"], ["c1", "c12"], ["c1", "c13"], ["c1", "c14"]],
        "incomplete": ["a11", "a2", "a3"],
    },
    "explicit_w.json": {"base": {
        "a": [0.6, 0.3], "b": 0.5, "c": [0.0, 1.1], "d": 0.0,
        "a1": 1.2, "a2": [0.3, -0.4], "a3": 0.0, "b1": 0.0,
        "c1": 0.9, "c2": 0.0, "a11": 2.0,
        "c11": 0.5, "c12": 0.0, "c13": [0.1, 0.7], "c14": 1.3,
    }},
}

GOLDEN = [
    (['classify', 'broom.json', 'broom_w.json'], 0,
     '{"predicates": {"cohyponormal": {"exact": true, "verdict": "no", "witness": {"reason": "rooted and nonzero", "vertex": "-1"}}, "hyponormal": {"exact": true, "verdict": "no", "witness": {"lhs": 1.5472253126522431, "vertex": "0"}}, "isometry": {"exact": true, "verdict": "no", "witness": {"norm_squared": 0.64000000000000012, "vertex": "-2"}}, "normal": {"exact": true, "verdict": "no", "witness": {"reason": "rooted and nonzero", "vertex": "-1"}}, "quasinormal": {"exact": true, "verdict": "no", "witness": {"child": "-1", "norms_squared": [0.64000000000000012, 1.2100000000000002], "parent": "-2"}}}, "summary": {"cohyponormal": "no", "hyponormal": "no", "isometry": "no", "normal": "no", "quasinormal": "no"}}\n'),
    (['classify', 'rootless.json', 'rootless_w.json', '--p', '2'], 0,
     '{"predicates": {"cohyponormal": {"exact": true, "verdict": "no", "witness": {"child_norm_squared": 0.66681773707138559, "vertex": "-9", "weight_squared": 0.66016623014409848}}, "hyponormal": {"exact": true, "verdict": "no", "witness": {"lhs": 1.4660633484162897, "vertex": "-1"}}, "isometry": {"exact": true, "verdict": "no", "witness": {"norm_squared": 0.66016623014409848, "vertex": "-10"}}, "normal": {"exact": true, "verdict": "no", "witness": {"child_norm_squared": 0.66681773707138559, "vertex": "-9", "weight_squared": 0.66016623014409848}}, "p_hyponormal[2.0]": {"exact": true, "verdict": "no", "witness": {"lhs": 2.1493417415695832, "vertex": "-1"}}, "quasinormal": {"exact": true, "verdict": "no", "witness": {"child": "-9", "norms_squared": [0.66016623014409848, 0.66681773707138559], "parent": "-10"}}}, "summary": {"cohyponormal": "no", "hyponormal": "no", "isometry": "no", "normal": "no", "p_hyponormal[2.0]": "no", "quasinormal": "no"}}\n'),
    (['classify', 'rootless.json', 'rootless_w.json', '--p', '0.5'], 0,
     '{"predicates": {"cohyponormal": {"exact": true, "verdict": "no", "witness": {"child_norm_squared": 0.66681773707138559, "vertex": "-9", "weight_squared": 0.66016623014409848}}, "hyponormal": {"exact": true, "verdict": "no", "witness": {"lhs": 1.4660633484162897, "vertex": "-1"}}, "isometry": {"exact": true, "verdict": "no", "witness": {"norm_squared": 0.66016623014409848, "vertex": "-10"}}, "normal": {"exact": true, "verdict": "no", "witness": {"child_norm_squared": 0.66681773707138559, "vertex": "-9", "weight_squared": 0.66016623014409848}}, "p_hyponormal[0.5]": {"exact": true, "verdict": "no", "witness": {"lhs": 1.2108110291933627, "vertex": "-1"}}, "quasinormal": {"exact": true, "verdict": "no", "witness": {"child": "-9", "norms_squared": [0.66016623014409848, 0.66681773707138559], "parent": "-10"}}}, "summary": {"cohyponormal": "no", "hyponormal": "no", "isometry": "no", "normal": "no", "p_hyponormal[0.5]": "no", "quasinormal": "no"}}\n'),
    (['classify', 'line.json', 'line_w.json'], 0,
     '{"predicates": {"cohyponormal": {"depth": 6, "detail": {"chain": ["-5", "-4", "-3", "-2", "-1", "0", "1", "2", "3", "4", "5"], "terminal": false}, "exact": true, "verdict": "yes"}, "hyponormal": {"depth": 6, "exact": true, "verdict": "yes"}, "isometry": {"exact": true, "verdict": "no", "witness": {"norm_squared": 1.6900000000000002, "vertex": "-6"}}, "normal": {"depth": 6, "detail": {"chain": ["-5", "-4", "-3", "-2", "-1", "0", "1", "2", "3", "4", "5"], "terminal": false}, "exact": true, "verdict": "yes"}, "quasinormal": {"depth": 6, "detail": {"scalar_multiple_of_isometry": 1.3}, "exact": true, "verdict": "yes"}}, "summary": {"cohyponormal": "yes", "hyponormal": "yes", "isometry": "no", "normal": "yes", "quasinormal": "yes"}}\n'),
    (['classify', 'explicit.json', 'explicit_w.json', '--p', '2'], 0,
     '{"predicates": {"cohyponormal": {"exact": true, "verdict": "no", "witness": {"reason": "rooted and nonzero", "vertex": "a"}}, "hyponormal": {"exact": true, "verdict": "no", "witness": {"parent": "c1", "reason": "weight into a kernel vector", "vertex": "c11"}}, "isometry": {"exact": true, "verdict": "no", "witness": {"norm_squared": 1.6899999999999999, "vertex": "a"}}, "normal": {"exact": true, "verdict": "no", "witness": {"reason": "rooted and nonzero", "vertex": "a"}}, "p_hyponormal[2.0]": {"exact": true, "verdict": "no", "witness": {"parent": "c1", "reason": "weight into a kernel vector", "vertex": "c11"}}, "quasinormal": {"exact": true, "verdict": "no", "witness": {"child": "c1", "norms_squared": [0.81000000000000005, 2.4399999999999999], "parent": "c"}}}, "summary": {"cohyponormal": "no", "hyponormal": "no", "isometry": "no", "normal": "no", "p_hyponormal[2.0]": "no", "quasinormal": "no"}}\n'),
    (['norm', 'broom.json', 'broom_w.json'], 0,
     '{"exact": true, "norm": 1.3}\n'),
    (['norm', 'explicit.json', 'explicit_w.json'], 0,
     '{"exact": false, "norm": 2.0}\n'),
    (['oracle-compare', 'broom.json', 'broom_w.json', '--depth', '6'], 0,
     '{"classifiers_agree": true, "hyponormal_closed_form": "no", "hyponormal_oracle": "no", "norms_agree": true, "oracle_norm": 1.3, "rel_diff": 0.0, "shift_norm": 1.3, "shift_norm_exact": true}\n'),
]


@pytest.mark.parametrize("argv,code,stdout", GOLDEN, ids=[f"{i}-{g[0][0]}" for i, g in enumerate(GOLDEN)])
def test_golden_reports(capsys, tmp_path, argv, code, stdout):
    for name, obj in GOLDEN_FILES.items():
        _write(tmp_path, name, obj)
    argv = [str(tmp_path / a) if a in GOLDEN_FILES else a for a in argv]
    assert _run(capsys, argv) == (code, stdout)


def test_canonical_non_finite():
    assert cli.dumps_canonical([math.nan, -math.inf]) == '["nan", "-inf"]'


def test_norm_nan_weight_exits_2(capsys, tmp_path):
    tree = _write(tmp_path, "t.json", {"kind": "family", "family": "z_plus", "depth": 3})
    w = tmp_path / "w.json"
    w.write_text('{"base": {"1": NaN, "2": 0.5, "3": 0.5}}')  # Python's json reads NaN
    code, out = _run(capsys, ["norm", tree, str(w)])
    assert code == 2
    err = json.loads(out)["error"]
    assert err["kind"] == "InputError" and "'1'" in err["message"]


def test_oracle_compare_unbounded_tail(capsys, tmp_path):
    tree = _write(tmp_path, "t.json", {"kind": "family", "family": "t_eta_kappa", "eta": 2, "depth": 5})
    weights = _write(tmp_path, "w.json", {"tails": [
        {"branch": 1, "head": [1.0], "tail": {"kind": "affine", "breaks": [2, 4, 7, 11]}},
        {"branch": 2, "head": [0.5], "tail": {"kind": "constant", "value": 1.0}},
    ]})
    code, out = _run(capsys, ["oracle-compare", tree, weights, "--depth", "5"])
    assert code == 0
    rep = json.loads(out)
    assert rep["shift_norm"] == "inf" and rep["rel_diff"] == "nan"


def _compare_on_a_path(capsys, tmp_path, a, b):
    """oracle-compare on r -> a -> b with weights a and b."""
    tree = _write(tmp_path, "t.json", {"kind": "explicit", "vertices": ["r", "a", "b"],
                                       "edges": [["r", "a"], ["a", "b"]]})
    weights = _write(tmp_path, "w.json", {"base": {"a": a, "b": b}})
    code, out = _run(capsys, ["oracle-compare", tree, weights, "--depth", "3"])
    assert code == 0
    return json.loads(out)


def test_oracle_compare_near_degenerate_norm_is_exact(capsys, tmp_path):
    # ||S e_r||^2 = 1 and ||S e_a||^2 = 0.99999: the largest eigenvalue of
    # A*A is read off its blocks, however close the next one lies
    rep = _compare_on_a_path(capsys, tmp_path, 1.0, 0.999995)
    assert rep["oracle_norm"] == rep["shift_norm"] == 1.0 and rep["norms_agree"]


def test_oracle_compare_norm_past_1e77(capsys, tmp_path):
    # ||S e_r||^2 = 4e160: squaring A*A's entries once more would overflow
    rep = _compare_on_a_path(capsys, tmp_path, 2e80, 1e80)
    assert rep["oracle_norm"] == rep["shift_norm"] == 2e80 and rep["norms_agree"]


def test_norm_factorial_tail_past_float_range(capsys, tmp_path):
    # the factorial tail alone makes the norm exactly infinite, so the weights
    # past index 170, which overflow a float, are never resolved
    tree = _write(tmp_path, "t.json", {"kind": "family", "family": "t_eta_kappa", "eta": 2, "depth": 190})
    weights = _write(tmp_path, "w.json", {"tails": [
        {"branch": 1, "head": [1.0], "tail": {"kind": "factorial", "scale": 0.5}},
        {"branch": 2, "head": [0.5], "tail": {"kind": "constant", "value": 1.0}},
    ]})
    code, out = _run(capsys, ["norm", tree, weights, "--depth", "190"])
    assert code == 0
    assert out == '{"exact": true, "norm": "inf"}\n'


# -- malformed input: an error object and exit 2, never a traceback ------------

BROOM_NO_TRUNK = {
    "t.json": {"kind": "family", "family": "t_eta_kappa", "eta": 2, "kappa": 1, "depth": 4},
    "w.json": {"tails": [{"branch": b, "tail": {"kind": "constant", "value": 1.0}} for b in (1, 2)]},
}
LINE_W = {"pos": {"tail": {"kind": "constant", "value": 1.0}}}
TWO_DELTAS = [{"atoms": [[1.0, 1.0]]}, {"atoms": [[0.5, 1.0]]}]

BAD_INPUTS = {
    "validate-without-edges": (["validate", "t.json"], {"t.json": {"kind": "explicit", "vertices": ["a"]}}),
    "broom-without-eta": (["index", "t.json"], {"t.json": {"kind": "family", "family": "t_eta_kappa"}}),
    "top-level-array": (["index", "t.json"], {"t.json": [{"kind": "family", "family": "z"}]}),
    "atom-without-mass": (["backward-extension", "m.json"], {"m.json": {"atoms": [[0.5]]}}),
    "spec-without-measures": (["construct-subnormal", "s.json"], {"s.json": {"eta": 2, "kappa": 1}}),
    "theta-not-a-number": (["construct-subnormal", "s.json"],
                           {"s.json": {"eta": 2, "kappa": 1, "theta": "x", "measures": TWO_DELTAS}}),
    "t-not-numbers": (["construct-chex", "s.json"],
                      {"s.json": {"eta": 2, "kappa": 1, "t": [None, 0.6], "measures": TWO_DELTAS}}),
    "binary-depth-20": (["norm", "t.json", "w.json", "--depth", "20"],
                        {"t.json": {"kind": "family", "family": "binary"}, "w.json": {"mu": LINE_W["pos"]}}),
    "depth-0": (["norm", "t.json", "w.json"],
                {"t.json": {"kind": "family", "family": "z_plus", "depth": 0}, "w.json": LINE_W}),
    "norm-without-trunk-rule": (["norm", "t.json", "w.json"], BROOM_NO_TRUNK),
    "classify-without-trunk-rule": (["classify", "t.json", "w.json"], BROOM_NO_TRUNK),
    "one-measure-for-two-branches": (["classify", "t.json", "w.json", "--measures", "m.json"],
                                     {**BROOM_NO_TRUNK, "t.json": {**BROOM_NO_TRUNK["t.json"], "kappa": 0},
                                      "m.json": {"measures": TWO_DELTAS[:1]}}),
    # a tau with an atom above 1 used to give a wrong norm marked exact
    "ca-ratio-atom-above-1": (["norm", "t.json", "w.json"], {
        "t.json": {"kind": "family", "family": "t_eta_kappa", "eta": 2, "kappa": 0, "depth": 6},
        "w.json": {"tails": [{"branch": 1, "head": [0.1], "tail": {"kind": "ca_ratio", "atoms": [[2.0, 0.5]]}},
                             {"branch": 2, "head": [0.1], "tail": {"kind": "constant", "value": 0.1}}]}}),
    "affine-without-breaks": (["classify", "t.json", "w.json", "--depth", "4"],
                              {"t.json": {"kind": "family", "family": "binary"},
                               "w.json": {"mu": {"tail": {"kind": "affine", "breaks": []}}}}),
    "affine-breaks-unsorted": (["classify", "t.json", "w.json", "--depth", "4"],
                               {"t.json": {"kind": "family", "family": "binary"},
                                "w.json": {"mu": {"tail": {"kind": "affine", "breaks": [3, 1]}}}}),
    # spine rules on a broom used to give a wrong norm (2.83 for 2)
    "spine-rules-on-a-broom": (["norm", "t.json", "w.json"], {
        "t.json": {"kind": "family", "family": "t_eta_kappa", "eta": 2, "kappa": 0, "depth": 6},
        "w.json": {"mu": {"head": [1.0], "tail": {"kind": "constant", "value": 1.0}}, "off_spine": 2.0}}),
}

# Weight rules for chains or vertices the tree lacks; each printed a wrong
# norm marked exact, or the rule was dropped or ended in a traceback.
ONE = {"kind": "constant", "value": 1.0}
BROOM_0 = {"kind": "family", "family": "t_eta_kappa", "eta": 2, "kappa": 0, "depth": 6}
TWO_TAILS = [{"branch": b, "tail": ONE} for b in (1, 2)]


def _norm_case(t, w):
    return ["norm", "t.json", "w.json"], {"t.json": t, "w.json": w}


BAD_INPUTS.update({
    "trunk-head-past-kappa": _norm_case({**BROOM_0, "kappa": 1}, {"tails": TWO_TAILS, "trunk": {"head": [1.0, 5.0]}}),
    "trunk-rule-on-kappa-0": _norm_case(BROOM_0, {"tails": TWO_TAILS, "trunk": {"head": [3.0]}}),
    "branch-starting-at-0": _norm_case(BROOM_0, {"tails": [{"branch": 1, "start": 0, "head": [9.0, 1.0], "tail": ONE},
                                                           {"branch": 2, "tail": ONE}]}),
    "neg-rule-on-z-plus": _norm_case({"kind": "family", "family": "z_plus", "depth": 6},
                                     {"pos": {"tail": ONE}, "neg": {"head": [7.0]}}),
    "pos-rule-on-z-minus": _norm_case({"kind": "family", "family": "z_minus", "depth": 6},
                                      {"neg": {"tail": ONE}, "pos": {"head": [4.0]}}),
    "base-id-past-the-prefix": _norm_case(BROOM_0, {"tails": TWO_TAILS, "base": {"(1,40)": 100.0}}),
    "base-id-not-in-the-tree": _norm_case(BROOM_0, {"tails": TWO_TAILS, "base": {"(1,1)": 9.0, "nope": 3.0}}),
    "rule-groups-of-other-families": _norm_case(BROOM_0, {"tails": TWO_TAILS, "mu": {"head": [5.0]},
                                                          "pos": {"head": [7.0]}}),
    "branch-0": _norm_case(BROOM_0, {"tails": [{"branch": 0, "tail": ONE}, {"branch": 1, "tail": ONE}]}),
    "branch-eta-plus-1": _norm_case(BROOM_0, {"tails": TWO_TAILS + [{"branch": 3, "tail": ONE}]}),
    "branch-twice": _norm_case(BROOM_0, {"tails": [{"branch": 1, "head": [5.0], "tail": ONE}] + TWO_TAILS}),
    "unknown-weights-key": _norm_case(BROOM_0, {"tails": TWO_TAILS, "extra": 1}),
    "rules-kind-of-another-family": _norm_case(BROOM_0, {"tails": TWO_TAILS, "rules_kind": "ChainWeights"}),
    "off-spine-without-mu": _norm_case({"kind": "family", "family": "binary", "depth": 4}, {"off_spine": 2.0}),
    "base-on-the-root": _norm_case({"kind": "explicit", "vertices": ["a", "b"], "edges": [["a", "b"]]},
                                   {"base": {"a": 1.0, "b": 1.0}}),
})


@pytest.mark.parametrize("argv,files", BAD_INPUTS.values(), ids=BAD_INPUTS.keys())
def test_malformed_input_exits_2(capsys, tmp_path, argv, files):
    for name, obj in files.items():
        _write(tmp_path, name, obj)
    code, out = _run(capsys, [str(tmp_path / a) if a in files else a for a in argv])
    assert code == 2
    err = json.loads(out)["error"]
    assert set(err) == {"kind", "message"}


def test_base_id_inside_a_deeper_prefix(capsys, tmp_path):
    tree = _write(tmp_path, "t.json", dict(BROOM_0, depth=50))
    weights = _write(tmp_path, "w.json", {"tails": TWO_TAILS, "base": {"(1,40)": 100.0}})
    assert _run(capsys, ["norm", tree, weights, "--depth", "50"]) == (0, '{"exact": true, "norm": 100.0}\n')


def test_construct_chex_reads_kappa_as_subnormal_does(capsys, tmp_path):
    spec = _write(tmp_path, "s.json", {"eta": 2, "kappa": "inf", "measures": TWO_DELTAS})
    code, out = _run(capsys, ["construct-chex", spec])
    assert code == 2 and "an infinite trunk admits only isometries" in json.loads(out)["error"]["message"]
