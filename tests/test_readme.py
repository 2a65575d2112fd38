"""The README's library quick start runs and prints what its comments say."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def _python_block():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"),
                        re.S)
    assert len(blocks) == 1
    return blocks[0]


def _documented_output(code):
    """The comment after each print call, on its own line or the next one."""
    lines = code.splitlines()
    expected = []
    for i, line in enumerate(lines):
        if line.startswith("print("):
            _, sep, comment = line.partition("#")
            if not sep:
                comment = lines[i + 1].strip().lstrip("#")
            expected.append(comment.strip())
    return expected


def test_quick_start_prints_its_comments():
    code = _python_block()
    expected = _documented_output(code)
    assert expected == ["2*L[0] + 1/4*C1", "['ad(L[2])', 'ad(I[2])', 'D']",
                        "pass 3"]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {"__name__": "readme"})
    assert out.getvalue().splitlines() == expected
