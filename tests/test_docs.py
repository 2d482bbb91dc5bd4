"""The README's examples run against the public surface as it is."""

import re
import shlex
from pathlib import Path

import pytest

import restock
from restock.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"
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


def test_readme_library_block_runs():
    exec(compile(library_block(), str(README), "exec"), {})


def test_every_exported_name_resolves():
    missing = [name for name in restock.__all__ if not hasattr(restock, name)]
    assert missing == []


@pytest.mark.parametrize("argv", cli_examples(), ids=lambda argv: argv[0])
def test_readme_cli_example_runs(capsys, argv):
    assert main(argv) == 0
    assert capsys.readouterr().out
