"""The README's examples run, and give what their comments state."""

import ast
import json
import re
import shlex
from pathlib import Path

import pytest

from treeshift import cli

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def _fenced(lang: str, marker: str) -> str:
    blocks = [b for b in re.findall(rf"```{lang}\n(.*?)```", README, re.S) if marker in b]
    assert len(blocks) == 1, f"expected one {lang} block with {marker!r}"
    return blocks[0]


def _claims(block: str) -> dict:
    """code -> the text after its ``# ->`` comment."""
    return {
        line.split("#")[0].strip(): line.split("# ->")[1].strip()
        for line in block.splitlines()
        if "# ->" in line
    }


def test_python_example():
    src = _fenced("python", "import treeshift")
    ns: dict = {}
    values = {}
    for stmt in ast.parse(src).body:
        code = ast.get_source_segment(src, stmt)
        if isinstance(stmt, ast.Expr):
            values[code] = eval(compile(ast.Expression(stmt.value), "README.md", "eval"), ns)
        else:
            exec(compile(ast.Module([stmt], []), "README.md", "exec"), ns)
    sub, norm = "classify.subnormal_on_T(res.weights, m, mus)", "shift.norm(res.weights, m)"
    assert _claims(src) == {sub: "yes, exact, extremal", norm: "1.0, exact"}
    v = values[sub]
    assert (v.value, v.exact, v.detail["extremal"]) == ("yes", True, True)
    assert (values[norm].value, values[norm].exact) == (1.0, True)
    assert values["oracle.operator_norm(tr)"] == pytest.approx(1.0, rel=1e-12)


def test_cli_example(capsys, tmp_path):
    block = _fenced("sh", "treeshift classify")
    files = re.findall(r"echo '(.*?)' > (\S+)", block, re.S)
    assert [name for _, name in files] == ["tree.json", "weights.json"]
    for text, name in files:
        (tmp_path / name).write_text(text)
    outputs = {}
    for line in block.splitlines():
        if line.startswith("treeshift "):
            argv = shlex.split(line.split("#")[0])[1:]
            code = cli.run([str(tmp_path / a) if a.endswith(".json") else a for a in argv])
            assert code == 0, line
            outputs[argv[0]] = json.loads(capsys.readouterr().out)
    assert set(outputs) == {"classify", "index", "oracle-compare"}
    assert '"hyponormal": "yes", "square_hyponormal": "no"' in block
    assert outputs["classify"]["summary"]["hyponormal"] == "yes"
    assert outputs["classify"]["summary"]["square_hyponormal"] == "no"
    assert '{"tree_index": -2}' in block
    assert outputs["index"] == {"tree_index": -2}
    assert '"classifiers_agree": true, ..., "norms_agree": true' in block
    assert outputs["oracle-compare"]["classifiers_agree"] and outputs["oracle-compare"]["norms_agree"]
