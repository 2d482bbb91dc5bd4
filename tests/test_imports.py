"""Every module-level import in src/restock is used, exported in __all__,
or marked ``# noqa: F401`` -- the unused-import rule of a linter, checked
with the standard library's ``ast``; every private module-level function
and constant is used by src/restock itself; and only the array modules
import numpy."""

import ast
from collections import Counter
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "restock"


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    lines = source.splitlines()
    exported: set[str] = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            # the names spelled out in it, also in a form like [*_HOMES, "__version__"]
            constants = (n for n in ast.walk(node.value) if isinstance(n, ast.Constant))
            exported = {n.value for n in constants if isinstance(n.value, str)}
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
    assert unused_imports("import os\nimport sys\n__all__ = [*_HOMES, 'sys']\n") == ["line 1: os"]


@pytest.mark.parametrize("module", sorted(path.name for path in SRC.glob("*.py")))
def test_module_imports_are_used(module):
    assert unused_imports((SRC / module).read_text(encoding="utf-8")) == []


def _references(tree: ast.AST) -> Counter[str]:
    """Names a tree refers to: bare names, attributes and imported names."""
    found: Counter[str] = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found[node.id] += 1
        elif isinstance(node, ast.Attribute):
            found[node.attr] += 1
        elif isinstance(node, ast.alias):
            found[node.name] += 1
    return found


def _defined_names(node: ast.stmt) -> list[str]:
    """Names a module-level function definition or assignment binds."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        return [node.name]
    if isinstance(node, ast.Assign):
        targets = node.targets
    elif isinstance(node, ast.AnnAssign):
        targets = [node.target]
    else:
        return []
    return [n.id for target in targets for n in ast.walk(target) if isinstance(n, ast.Name)]


def unreferenced_private_names(sources: dict[str, str]) -> list[str]:
    """Module-level functions and assigned names called ``_name`` (dunders
    aside) that no source refers to outside their own definition, as
    ``module._name``."""
    refs: Counter[str] = Counter()
    private: list[tuple[str, str, int]] = []
    for module, source in sources.items():
        tree = ast.parse(source)
        refs += _references(tree)
        for node in tree.body:
            for name in _defined_names(node):
                if name.startswith("_") and not name.endswith("__"):
                    private.append((module, name, _references(node)[name]))
    return [f"{module}.{name}" for module, name, own in private if refs[name] == own]


def test_the_check_finds_an_unreferenced_private_function():
    sources = {
        "a": "def _dead(n):\n    return _dead(n - 1)\n\ndef _called():\n    pass\n\ndef __getattr__(name):\n    pass\n",
        "b": "from a import _imported\nimport a\n\ndef f():\n    return a._called()\n",
        "c": "def _imported():\n    pass\n\n_UNUSED = 3\n_USED: int = 4\n__version__ = '1'\n\n"
        "def f():\n    return _USED\n",
    }
    assert unreferenced_private_names(sources) == ["a._dead", "c._UNUSED"]


def test_private_functions_are_used_in_src():
    # "no code in src/ that only the tests use": a private helper or
    # constant that only the tests (or nothing) use belongs in the tests or
    # nowhere
    sources = {path.stem: path.read_text(encoding="utf-8") for path in sorted(SRC.glob("*.py"))}
    assert unreferenced_private_names(sources) == []


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
        "from restock.valuation import GridSpec\n"
        "if True:\n    from restock.volterra import solve_renewal\n"
        "class A:\n    import numpy as np\n"
        "def f():\n    import numpy\n    from restock.erlang import erlang_cdf_grid\n"
    )
    assert numpy_imports(source) == ["numpy", "numpy.fft", "restock.laplace", "restock.volterra", "restock.volterra.solve_renewal"]


@pytest.mark.parametrize("module", sorted(path.name for path in SRC.glob("*.py") if path.stem not in ARRAY_MODULES))
def test_numpy_only_in_array_modules(module):
    assert numpy_imports((SRC / module).read_text(encoding="utf-8")) == []
