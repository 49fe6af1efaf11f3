"""The walkthrough scripts in ``demos/`` and the README's Python code blocks:
each runs to exit 0 in a subprocess, and every ``tailens`` name they use,
also in comments, still exists."""

import ast
import importlib
import io
import os
import re
import subprocess
import sys
import tokenize
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
README = (ROOT / "README.md").read_text(encoding="utf-8")
# each ```python block of the README, keyed by the line it starts on
README_BLOCKS = {
    f"README.md:{README.count(chr(10), 0, m.start()) + 1}": m.group(1)
    for m in re.finditer(r"^```python\n(.*?)^```", README, re.S | re.M)
}


def tailens_references(source: str) -> list[tuple[str, str]]:
    """(module, name) for each ``from tailens... import name`` and each
    ``alias.name`` where ``alias`` came from ``import tailens... as alias``,
    in the code and then in its comments (``# or t.other(...)``)."""
    refs, aliases = [], {}
    tree = ast.parse(source)
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "tailens":
            refs += [(node.module, a.name) for a in node.names]
        elif isinstance(node, ast.Import):
            for a in node.names:
                if a.name.split(".")[0] == "tailens":
                    aliases[a.asname or a.name] = a.name
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and getattr(node.value, "id", None) in aliases:
            refs.append((aliases[node.value.id], node.attr))
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type == tokenize.COMMENT:
            refs += [(aliases[a], n) for a, n in re.findall(r"\b(\w+)\.(\w+)", token.string)
                     if a in aliases]
    return refs


def missing_names(source: str) -> list[str]:
    refs = tailens_references(source)
    assert refs, "uses no tailens name"
    return [f"{m}.{n}" for m, n in refs if not hasattr(importlib.import_module(m), n)]


def test_the_demos_and_readme_blocks_are_found():
    assert DEMOS and README_BLOCKS


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_tailens_names_resolve(demo):
    missing = missing_names(demo.read_text(encoding="utf-8"))
    assert not missing, f"{demo.name} uses names tailens does not define: {missing}"


@pytest.mark.parametrize("block", README_BLOCKS.values(), ids=README_BLOCKS.keys())
def test_readme_tailens_names_resolve(block):
    missing = missing_names(block)
    assert not missing, f"a README code block uses names tailens does not define: {missing}"


def test_a_removed_name_is_caught():
    source = (
        "import tailens as t\nfrom tailens.fusion import no_such\n"
        "t.nor_this()  # or t.load_embeddings(...)\n"
    )
    refs = tailens_references(source)
    assert refs == [
        ("tailens.fusion", "no_such"), ("tailens", "nor_this"), ("tailens", "load_embeddings")
    ]
    assert not any(hasattr(importlib.import_module(m), n) for m, n in refs)


def run_script(path: Path, tmp_path: Path) -> None:
    """Run ``path`` with the package on its path and its temporary files
    under ``tmp_path``; fail with its output unless it exits 0."""
    env = dict(os.environ, TMPDIR=str(tmp_path))
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [env.get("PYTHONPATH")])]
    )
    proc = subprocess.run(
        [sys.executable, str(path)], cwd=tmp_path, env=env,
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, f"{path.name} exited {proc.returncode}:\n{proc.stderr}"


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo, tmp_path):
    run_script(demo, tmp_path)


@pytest.mark.parametrize("block", README_BLOCKS.values(), ids=README_BLOCKS.keys())
def test_readme_block_runs(block, tmp_path):
    script = tmp_path / "readme_block.py"
    script.write_text(block, encoding="utf-8")
    run_script(script, tmp_path)
