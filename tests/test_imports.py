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


# The modules that import numpy; every other module runs without it, so
# `import restock`, the CLI's start-up and the scalar commands never load it.
ARRAY_MODULES = {"erlang", "laplace", "montecarlo", "volterra"}


def eager_imports(source: str) -> set[str]:
    """Modules a source imports when it is itself imported: every import
    outside a function body, with ``from a import b`` counted as a and a.b."""
    found: set[str] = set()
    stack = list(ast.parse(source).body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            found.add(node.module)
            found.update(f"{node.module}.{alias.name}" for alias in node.names)
        stack.extend(ast.iter_child_nodes(node))
    return found


def numpy_imports(source: str) -> list[str]:
    """The eager imports that load numpy: numpy itself or an array module."""
    heavy = {"numpy", *(f"restock.{name}" for name in ARRAY_MODULES)}
    return sorted(m for m in eager_imports(source) if any(m == h or m.startswith(h + ".") for h in heavy))


def test_the_check_finds_an_eager_numpy_import():
    source = (
        "import numpy.fft\n"
        "from restock import laplace\n"
        "from restock.grid import GridSpec\n"
        "if True:\n    from restock.volterra import solve_renewal\n"
        "class A:\n    import numpy as np\n"
        "def f():\n    import numpy\n    from restock.erlang import erlang_cdf_grid\n"
    )
    assert numpy_imports(source) == ["numpy", "numpy.fft", "restock.laplace", "restock.volterra", "restock.volterra.solve_renewal"]


@pytest.mark.parametrize("module", sorted(path.name for path in SRC.glob("*.py") if path.stem not in ARRAY_MODULES))
def test_numpy_only_in_array_modules(module):
    assert numpy_imports((SRC / module).read_text(encoding="utf-8")) == []
