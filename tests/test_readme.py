"""The README's quick starts run as written."""

import contextlib
import io
import re
import shlex
from pathlib import Path

from knitweave import cli
from knitweave.gallery import write_showcase_json

README = Path(__file__).resolve().parents[1] / "README.md"


def test_first_quick_start_block_prints_its_comments():
    block = re.search(r"```python\n(.*?)```", README.read_text(), re.S).group(1)
    # each print line ends in a comment holding the line it prints
    expected = [line.split("# ", 1)[1] for line in block.splitlines() if line.startswith("print(")]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, str(README), "exec"), {})
    assert len(expected) == 3
    assert out.getvalue().splitlines() == expected


def test_cli_quick_start_commands_exit_0_with_output(tmp_path, monkeypatch):
    block = re.search(r"## Quick start \(CLI\)\n\n```sh\n(.*?)```", README.read_text(), re.S).group(1)
    # one-line commands only: a piped or continued line needs a shell
    commands = [
        line
        for line in block.splitlines()
        if line.startswith("knitweave ") and "|" not in line and not line.endswith("\\")
    ]
    assert len(commands) == 5
    monkeypatch.chdir(tmp_path)
    write_showcase_json("showcase.json")  # the block's python3 -c line
    for line in commands:
        out = io.StringIO()
        assert cli.main(shlex.split(line)[1:], out=out) == 0, line
        assert out.getvalue().strip(), line
