"""The README's library quick start runs and prints what its comments say."""

import ast
import contextlib
import io
import re
from pathlib import Path

import superder

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


def _api_section():
    text = README.read_text(encoding="utf-8")
    _, found, rest = text.partition("\n## Library API\n")
    assert found
    return rest.split("\n## ", 1)[0]


def test_every_export_is_documented():
    documented = set(re.findall(r"`([A-Za-z_][A-Za-z0-9_]*)`", _api_section()))
    assert sorted(set(superder.__all__) - documented) == []
    assert "(%d in all," % len(superder.__all__) in _api_section()
    # The acceptance gate imports only documented names from the package root.
    gate = ast.parse((README.parent / "tests" / "test_acceptance.py").read_text(encoding="utf-8"))
    gate_names = {alias.name for node in ast.walk(gate)
                  if isinstance(node, ast.ImportFrom) and node.module == "superder"
                  for alias in node.names}
    assert gate_names and gate_names <= set(superder.__all__)


def test_every_documented_name_is_exported():
    """The reverse of the check above: each backticked identifier in the API
    section names an export, an attribute or base class of an exported class,
    the value of an exported string (``D``), or the package itself."""
    exports = {name: getattr(superder, name) for name in superder.__all__}
    classes = [obj for obj in exports.values() if isinstance(obj, type)]
    known = set(exports) | {superder.__name__}
    known |= {value for value in exports.values() if isinstance(value, str)}
    known |= {base.__name__ for cls in classes for base in cls.__mro__}
    documented = set(re.findall(r"`([A-Za-z_][A-Za-z0-9_]*)`", _api_section()))
    stale = {name for name in documented - known
             if not any(hasattr(cls, name) for cls in classes)}
    assert sorted(stale) == []
