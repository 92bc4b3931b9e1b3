"""The README's command line examples print exactly what the README shows."""

import re
import shlex
from pathlib import Path

from fuzzdet.cli import main

ROOT = Path(__file__).parent.parent
BLOCK = re.compile(r"^```\n\$ fuzzdet ([^\n]*)\n(.*?)^```$", re.M | re.S)


def test_readme_examples(capsys, monkeypatch):
    monkeypatch.chdir(ROOT)
    examples = BLOCK.findall((ROOT / "README.md").read_text(encoding="utf-8"))
    assert [shlex.split(cmd)[0] for cmd, _ in examples] == ["det", "equiv"]
    for cmd, expected in examples:
        assert main(shlex.split(cmd)) == 0, cmd
        assert capsys.readouterr().out == expected, cmd
