"""The README's examples run and print the values their comments state,
and the package's docstring cross-references resolve, against the code as
it is."""

import ast
import importlib
import re
import shlex
from pathlib import Path

import pytest

import restock
from restock.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"
SRC = README.parent / "src" / "restock"
# Monte Carlo examples print their figures at 1e6 paths; 1e4 keeps the run short
EXAMPLE_PATHS = "10000"


def section(title: str) -> str:
    text = README.read_text(encoding="utf-8")
    return text.split(f"\n## {title}\n", 1)[1].split("\n## ", 1)[0]


def library_block() -> str:
    blocks = re.findall(r"```python\n(.*?)```", section("Library"), flags=re.DOTALL)
    assert len(blocks) == 1
    return blocks[0]


def cli_examples() -> list[list[str]]:
    """Each ``restock ...`` command of the CLI section's shell block, as argv."""
    blocks = re.findall(r"```sh\n(.*?)```", section("CLI"), flags=re.DOTALL)
    assert len(blocks) == 1
    lines = blocks[0].replace("\\\n", " ").splitlines()
    commands = [shlex.split(line)[1:] for line in lines if line.startswith("restock ")]
    for argv in commands:
        if "--paths" in argv:
            argv[argv.index("--paths") + 1] = EXAMPLE_PATHS
    return commands


def documented_values(block: str) -> list[tuple[str, object]]:
    """(expression, value) for each line of a code block whose comment starts
    with a Python literal, read up to any " = " that follows it."""
    found = []
    for line in block.splitlines():
        code, hash_, comment = line.partition("#")
        if not hash_:
            continue
        try:
            found.append((code.strip(), ast.literal_eval(comment.split(" = ")[0].strip())))
        except (ValueError, TypeError, SyntaxError):  # a comment in words, or such as MCEstimate(...)
            continue
    return found


def test_documented_values_reads_literal_comments():
    block = (
        "x = 1\nf(x)  # 2.5\ng(x)  # 0.1 = one tenth\n"
        "h(x)  # MCEstimate(...)\nk(x)  # (1, 2.0)\nm(x)  # w(10), the last\n"
    )
    assert documented_values(block) == [("f(x)", 2.5), ("g(x)", 0.1), ("k(x)", (1, 2.0))]


def test_readme_library_block_runs():
    namespace: dict = {}
    exec(compile(library_block(), str(README), "exec"), namespace)
    documented = documented_values(library_block())
    assert documented
    assert [(code, eval(code, namespace)) for code, _ in documented] == documented


def test_every_exported_name_resolves():
    missing = [name for name in restock.__all__ if not hasattr(restock, name)]
    assert missing == []


@pytest.mark.parametrize("argv", cli_examples(), ids=lambda argv: argv[0])
def test_readme_cli_example_runs(capsys, argv):
    assert main(argv) == 0
    assert capsys.readouterr().out


# a :mod:`restock.x` or :func:`restock.x.f` reference in src/restock
XREF = re.compile(r":(?:mod|func):`(restock(?:\.\w+)*)`")


def resolve(dotted: str):
    """What a dotted name names: its longest importable module prefix, then
    the attributes after it."""
    parts = dotted.split(".")
    for cut in range(len(parts), 0, -1):
        name = ".".join(parts[:cut])
        try:
            target = importlib.import_module(name)
        except ModuleNotFoundError as exc:
            if exc.name != name:  # a module that exists failed to import
                raise
            continue
        for attr in parts[cut:]:
            target = getattr(target, attr)
        return target


def test_docstring_cross_references_resolve():
    refs = sorted({ref for path in SRC.glob("*.py") for ref in XREF.findall(path.read_text(encoding="utf-8"))})
    assert "restock.valuation" in refs
    stale = []
    for ref in refs:
        try:
            resolve(ref)
        except (ModuleNotFoundError, AttributeError):
            stale.append(ref)
    assert stale == []


def test_the_resolver_finds_a_stale_reference():
    assert resolve("restock.valuation._check_real").__name__ == "_check_real"
    with pytest.raises(ModuleNotFoundError):
        resolve("restock.erlang.erlang_cdf_grid")
    with pytest.raises(AttributeError):
        resolve("restock.valuation.GammaLaw")
