"""The README's `## Library` example runs, and each line whose comment
is a Python literal evaluates to it."""

import ast
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def _library_block():
    text = README.read_text(encoding="utf-8")
    match = re.search(r"^## Library\n+```python\n(.*?)^```", text, re.M | re.S)
    assert match, "README has no python block under ## Library"
    return match.group(1)


def test_readme_library_example():
    source = _library_block()
    lines = source.splitlines()
    namespace = {}
    checked = []
    for stmt in ast.parse(source).body:
        code = ast.get_source_segment(source, stmt)
        comment = lines[stmt.end_lineno - 1].partition("#")[2].strip()
        try:
            expected = ast.literal_eval(comment)
        except (SyntaxError, ValueError):
            exec(code, namespace)
            continue
        assert isinstance(stmt, ast.Expr), code
        assert eval(code, namespace) == expected, code
        checked.append(expected)
    assert checked == [(1, 1, 2), 1]
