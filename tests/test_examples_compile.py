"""Every example script compiles, exposes a main() and runs to the end."""

import ast
import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).parent.parent
EXAMPLES = sorted((ROOT / "examples").glob("*.py"))


def test_examples_exist():
    names = {p.name for p in EXAMPLES}
    assert "quickstart.py" in names
    assert len(EXAMPLES) >= 3


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda p: p.name)
def test_example_compiles_and_has_main(path):
    source = path.read_text()
    tree = ast.parse(source, filename=str(path))
    compile(tree, str(path), "exec")
    func_names = {
        node.name for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef)
    }
    assert "main" in func_names, f"{path.name} lacks a main() entry point"
    assert '__main__' in source, f"{path.name} lacks an if-main guard"


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda p: p.name)
def test_example_has_docstring(path):
    tree = ast.parse(path.read_text())
    doc = ast.get_docstring(tree)
    assert doc and len(doc) > 40, f"{path.name} needs a real module docstring"


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda p: p.name)
def test_example_runs_end_to_end(path, tmp_path):
    """Run as a user would, in a fresh interpreter from an empty
    directory (an example that writes ``results/`` writes it there): a
    moved or renamed import fails here, not only at the user's."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [env.get("PYTHONPATH")])]
    )
    done = subprocess.run(
        [sys.executable, str(path)], cwd=tmp_path, env=env,
        capture_output=True, text=True, timeout=600,
    )
    assert done.returncode == 0, done.stderr[-4000:]
