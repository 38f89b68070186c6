"""README.md's Python examples run as written."""

from __future__ import annotations

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"


def python_blocks() -> list[str]:
    return re.findall(r"^```python\n(.*?)^```$", README.read_text(), flags=re.M | re.S)


def test_every_python_block_runs_from_the_repo_root(monkeypatch, capsys):
    # Run in order in one namespace, as a reader would paste them, so a block
    # that names a deleted function fails here.
    monkeypatch.chdir(ROOT)
    blocks = python_blocks()
    assert blocks
    namespace: dict = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
    assert capsys.readouterr().out
