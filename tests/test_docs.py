"""The README's library example runs against the public surface as it is."""

import re
from pathlib import Path

import restock

README = Path(__file__).resolve().parent.parent / "README.md"


def library_block() -> str:
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"```python\n(.*?)```", section, flags=re.DOTALL)
    assert len(blocks) == 1
    return blocks[0]


def test_readme_library_block_runs():
    exec(compile(library_block(), str(README), "exec"), {})


def test_every_exported_name_resolves():
    missing = [name for name in restock.__all__ if not hasattr(restock, name)]
    assert missing == []
