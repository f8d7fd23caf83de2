"""The README's library example runs and prints what its comments say."""

from __future__ import annotations

import contextlib
import io
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_example_prints_what_its_comments_say():
    section = README.read_text().split("\n## Library\n", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    # each print line ends with "# <the value it prints>"
    want = [line.rsplit("# ", 1)[1] for line in block.splitlines() if line.startswith("print(")]
    assert want
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        exec(compile(block, "README.md", "exec"), {})
    assert printed.getvalue().splitlines() == want
