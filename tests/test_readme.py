"""The README's examples print exactly what the README shows."""

import re
import shlex
from pathlib import Path

from fuzzdet.cli import main

ROOT = Path(__file__).parent.parent
BLOCK = re.compile(r"^```\n\$ fuzzdet ([^\n]*)\n(.*?)^```$", re.M | re.S)
LIBRARY = re.compile(r"^```python\n(.*?)^```$", re.M | re.S)


def test_readme_examples(capsys, monkeypatch):
    monkeypatch.chdir(ROOT)
    examples = BLOCK.findall((ROOT / "README.md").read_text(encoding="utf-8"))
    assert [shlex.split(cmd)[0] for cmd, _ in examples] == ["det", "equiv"]
    for cmd, expected in examples:
        assert main(shlex.split(cmd)) == 0, cmd
        assert capsys.readouterr().out == expected, cmd


def test_readme_library_example(capsys, monkeypatch):
    """The Library block runs from the repository root, and each print
    prints what its comment says."""
    monkeypatch.chdir(ROOT)
    (block,) = LIBRARY.findall((ROOT / "README.md").read_text(encoding="utf-8"))
    exec(block, {})
    said = [line.split("# ", 1)[1] for line in block.splitlines() if line.startswith("print(")]
    assert len(said) == 3
    assert capsys.readouterr().out.splitlines() == said
