"""Every name that ``src/tailens`` defines is used by the program, a demo or
the README quick start; a name that only the tests reach belongs in
``tests/``.

Names are matched by spelling, whatever object they belong to: a module's
functions, classes and constants, and each class's methods and fields. A
use is a name read, an attribute, a keyword argument or a string that
spells the name (for ``getattr``). An import only binds a name, so the
package's re-exports are not uses, and neither are the benchmark's calls in
``perfbench/``."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "tailens"

# name -> why it stays although nothing but the tests and perfbench/ uses it
ALLOWED = {
    "backward_gradients": "bound by perfbench/; until a benchmark change; ROADMAP item 11",
    "dataset_loss": "bound by perfbench/; until a benchmark change; ROADMAP item 11",
    "serialize_config": "public API: the INI of a RunConfig built in code, such as "
                        "synth60_config's, for the CLI; parse_config's inverse",
}


def defined_names(tree: ast.Module) -> set[str]:
    """The module's functions, classes and assigned names, and each class's
    methods and fields; dunder names, which Python calls, are left out."""
    names = set()
    for node in tree.body:
        body = node.body if isinstance(node, ast.ClassDef) else []
        for item in [node, *body]:
            if isinstance(item, (ast.FunctionDef, ast.ClassDef)):
                names.add(item.name)
            elif isinstance(item, ast.Assign):
                names.update(t.id for t in item.targets if isinstance(t, ast.Name))
            elif isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                names.add(item.target.id)
    return {n for n in names if not re.fullmatch(r"__\w+__", n)}


def used_names(source: str) -> set[str]:
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.keyword) and node.arg:
            names.add(node.arg)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if node.value.isidentifier():
                names.add(node.value)
    return names


def quick_start_blocks() -> list[str]:
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library quick start\n", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"^```python\n(.*?)^```", section, re.S | re.M)


def test_every_name_in_src_is_used_outside_the_tests():
    defined, used = set(), set()
    for path in sorted(SRC.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        defined |= defined_names(ast.parse(source))
        used |= used_names(source)
    for path in sorted((ROOT / "demos").glob("*.py")):
        used |= used_names(path.read_text(encoding="utf-8"))
    blocks = quick_start_blocks()
    assert blocks, "the README quick start holds no python block"
    for block in blocks:
        used |= used_names(block)
    unused = defined - used
    assert sorted(unused - ALLOWED.keys()) == [], "used by nothing but tests; move to tests/"
    assert sorted(ALLOWED.keys() - unused) == [], "used or gone; drop from ALLOWED"


def test_a_name_only_the_tests_use_is_caught():
    source = (
        "class A:\n    x: int\n    def used(self):\n        return self.x\n"
        "    def spare(self):\n        pass\n\nA().used()\n"
    )
    assert defined_names(ast.parse(source)) == {"A", "x", "used", "spare"}
    assert defined_names(ast.parse(source)) - used_names(source) == {"spare"}
