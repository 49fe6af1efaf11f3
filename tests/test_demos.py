"""The walkthrough scripts in ``demos/`` are not run by the suite, so check
statically that every ``tailens`` name they use still exists."""

import ast
import importlib
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def tailens_references(tree: ast.AST) -> list[tuple[str, str]]:
    """(module, name) for each ``from tailens... import name`` and each
    ``alias.name`` where ``alias`` came from ``import tailens... as alias``."""
    refs, aliases = [], {}
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
    return refs


def test_the_demos_are_found():
    assert DEMOS


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_tailens_names_resolve(demo):
    refs = tailens_references(ast.parse(demo.read_text(encoding="utf-8")))
    assert refs, f"{demo.name} uses no tailens name"
    missing = [f"{m}.{n}" for m, n in refs if not hasattr(importlib.import_module(m), n)]
    assert not missing, f"{demo.name} uses names tailens does not define: {missing}"


def test_a_removed_name_is_caught():
    tree = ast.parse("import tailens as t\nfrom tailens.fusion import no_such\nt.nor_this()\n")
    refs = tailens_references(tree)
    assert refs == [("tailens.fusion", "no_such"), ("tailens", "nor_this")]
    assert not any(hasattr(importlib.import_module(m), n) for m, n in refs)
