"""Every module-level import in src/restock is used, exported in __all__,
or marked ``# noqa: F401`` -- the unused-import rule of a linter, checked
with the standard library's ``ast``."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "restock"


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    lines = source.splitlines()
    exported: set[str] = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            exported = set(ast.literal_eval(node.value))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = []
    for node in tree.body:
        if not isinstance(node, (ast.Import, ast.ImportFrom)) or getattr(node, "module", None) == "__future__":
            continue
        if any("# noqa: F401" in line for line in lines[node.lineno - 1 : node.end_lineno]):
            continue
        for alias in node.names:
            bound = alias.asname or alias.name.split(".")[0]
            if bound not in used and bound not in exported:
                unused.append(f"line {node.lineno}: {bound}")
    return unused


def test_the_check_finds_an_unused_import():
    assert unused_imports("import math\nimport numpy as np\n\nx = np.pi\n") == ["line 1: math"]
    assert unused_imports("import math  # noqa: F401\n__all__ = ['sys']\nimport sys\n") == []


@pytest.mark.parametrize("module", sorted(path.name for path in SRC.glob("*.py")))
def test_module_imports_are_used(module):
    assert unused_imports((SRC / module).read_text(encoding="utf-8")) == []
