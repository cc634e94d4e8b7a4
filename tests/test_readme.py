"""The README's library quick start runs as written and prints what it says."""

import contextlib
import io
import re
from pathlib import Path

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
