"""README.md's Python examples run, and print what their comments say."""

from __future__ import annotations

import ast
import re
from pathlib import Path

import pytest

README = Path(__file__).parents[1] / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"),
                    re.MULTILINE | re.DOTALL)


def test_the_readme_has_a_python_example():
    assert BLOCKS


@pytest.mark.parametrize("source", BLOCKS)
def test_example_runs_and_each_commented_expression_has_its_stated_repr(source):
    """Run the statements in order; an expression statement followed by
    ``# value`` on its last line must have ``repr`` equal to ``value``."""
    lines, namespace, checked = source.splitlines(), {}, 0
    for node in ast.parse(source).body:
        comment = lines[node.end_lineno - 1][node.end_col_offset:].strip()
        if isinstance(node, ast.Expr) and comment.startswith("#"):
            got = eval(compile(ast.Expression(node.value), "README.md", "eval"), namespace)
            assert repr(got) == comment[1:].strip(), ast.unparse(node)
            checked += 1
        else:
            exec(compile(ast.Module([node], []), "README.md", "exec"), namespace)
    assert checked
