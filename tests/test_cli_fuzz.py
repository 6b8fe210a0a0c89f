"""CLI fuzzing: valid tree and weights files of every family, mutated.

Whatever the mutation, ``cli.run`` returns 0 or 2, prints an ``error``
object when it returns 2, and never raises.
"""

import contextlib
import copy
import io
import json
import math
import os
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from treeshift import cli

ONE = {"kind": "constant", "value": 1.0}


def _family(name, **extra):
    return {"kind": "family", "family": name, "depth": 4, **extra}


VALID = {
    "broom": (_family("t_eta_kappa", eta=2, kappa=2), {
        "base": {"(1,1)": [0.5, 0.5]},
        "tails": [{"branch": 1, "head": [1.0], "tail": {"kind": "power", "scale": 0.9, "ratio": 0.97}},
                  {"branch": 2, "start": 1, "tail": {"kind": "moment_ratio", "atoms": [[0.3, 0.25], [1.2, 0.75]]}}],
        "trunk": {"head": [1.1], "tail": ONE},
    }),
    "rootless-broom": (_family("t_eta_kappa", eta=3, kappa="inf"), {
        "tails": [{"branch": 1, "tail": {"kind": "ca_ratio", "atoms": [[0.6, 0.3]]}},
                  {"branch": 2, "tail": {"kind": "factorial", "scale": 0.5}},
                  {"branch": 3, "head": [0.5], "tail": {"kind": "affine", "breaks": [2, 4, 7]}}],
        "trunk": {"tail": {"kind": "trunk_moment_ratio", "lambda1": [0.5, 0.5, 0.5],
                           "measures": [[[1.0, 1.0]], [[0.5, 1.0]], [[2.0, 1.0]]]}},
        "rules_kind": "BroomWeights",
    }),
    "z_plus": (_family("z_plus"), {"pos": {"head": [2.0], "tail": ONE}}),
    "z": (_family("z"), {"pos": {"tail": ONE}, "neg": {"head": [[0.0, 1.0]], "start": 0, "tail": ONE},
                         "rules_kind": "ChainWeights"}),
    "z_minus": (_family("z_minus"), {"base": {"0": 3.0}, "neg": {"tail": {"kind": "power", "ratio": 1.1}}}),
    "binary": (_family("binary"), {"mu": {"head": [1.5], "tail": ONE}, "off_spine": 0.5}),
    "explicit": ({"kind": "explicit", "vertices": ["r", "a", "b", "a1"],
                  "edges": [["r", "a"], ["r", "b"], ["a", "a1"]], "incomplete": ["a1"]},
                 {"base": {"a": 1.0, "b": [0.0, 2.0], "a1": 0.5}}),
}

WRONG_TYPES = ("x", None, [], {}, True, [1.0], -1)


def _paths(obj):
    """Every (container, key) pair in a JSON value, outermost first."""
    items = obj.items() if isinstance(obj, dict) else enumerate(obj) if isinstance(obj, list) else ()
    for k, v in items:
        yield obj, k
        yield from _paths(v)


@st.composite
def mutated(draw, doc):
    """``doc`` with one to three mutations: drop a key, add an unknown key,
    set a branch to 0, eta+1 or a repeat, or put in a wrong type or NaN."""
    doc = copy.deepcopy(doc)
    for _ in range(draw(st.integers(1, 3))):
        spots = list(_paths(doc))
        op = draw(st.sampled_from(("drop", "add", "branch", "type", "nan")))
        if op == "add":
            dicts = [doc] + [c[k] for c, k in spots if isinstance(c[k], dict)]
            draw(st.sampled_from(dicts))["extra"] = 1
            continue
        if op == "branch":
            tails = doc.get("tails") if isinstance(doc, dict) else None
            items = [t for t in tails if isinstance(t, dict)] if isinstance(tails, list) else []
            if items:
                item = draw(st.sampled_from(items))
                to = draw(st.sampled_from(("0", "eta+1", "repeat")))
                if to == "repeat":
                    tails.append(copy.deepcopy(item))
                else:
                    item["branch"] = 0 if to == "0" else len(tails) + 1
            continue
        if not spots:
            continue
        container, key = draw(st.sampled_from(spots))
        if op == "drop":
            del container[key]
        else:
            container[key] = math.nan if op == "nan" else copy.deepcopy(draw(st.sampled_from(WRONG_TYPES)))
    return doc


@st.composite
def cases(draw):
    name = draw(st.sampled_from(sorted(VALID)))
    t, w = VALID[name]
    which = draw(st.sampled_from(("tree", "weights", "both")))
    if which != "weights":
        t = draw(mutated(t))
    if which != "tree":
        w = draw(mutated(w))
    cmd = draw(st.sampled_from(("norm", "classify", "oracle-compare", "index")))
    return cmd, t, w


@settings(max_examples=1000, derandomize=True, deadline=None)
@given(cases())
def test_mutated_inputs_exit_0_or_2(case):
    cmd, t, w = case
    with tempfile.TemporaryDirectory() as tmp:
        argv = [cmd, os.path.join(tmp, "t.json")]
        if cmd != "index":
            argv.append(os.path.join(tmp, "w.json"))
        for name, obj in (("t.json", t), ("w.json", w)):
            with open(os.path.join(tmp, name), "w") as fh:
                json.dump(obj, fh)  # NaN is written as Python's json reads it
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.run(argv + ["--depth", "4"])
    assert code in (0, 2), (code, out.getvalue())
    if code == 2:
        err = json.loads(out.getvalue())["error"]
        assert set(err) == {"kind", "message"}
