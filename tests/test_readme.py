"""README.md's Python examples run, and print what their comments say; its
shell examples parse, and print what the README shows after them."""

from __future__ import annotations

import ast
import re
import shlex
from pathlib import Path

import pytest

from ratefix.cli import build_parser, main

README = Path(__file__).parents[1] / "README.md"
TEXT = README.read_text(encoding="utf-8")
BLOCKS = re.findall(r"^```python\n(.*?)^```$", TEXT, re.MULTILINE | re.DOTALL)


def _shell_examples():
    """Each ``ratefix`` command in a fenced block, its ``$ `` prompt stripped
    and ``\\`` continuations joined, with the lines printed after a prompted
    command up to the next prompt or the end of the block."""
    examples = []
    for block in re.findall(r"^```[a-z]*\n(.*?)^```$", TEXT, re.MULTILINE | re.DOTALL):
        printed = None
        for line in block.replace("\\\n", " ").splitlines():
            command = line.removeprefix("$ ")
            if command.startswith("ratefix "):
                printed = [] if line.startswith("$ ") else None
                examples.append((command, printed))
            elif line.startswith("$ "):
                printed = None
            elif printed is not None:
                printed.append(line)
    return examples


SHELL = _shell_examples()


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


def test_the_readme_shows_the_fix_example_and_its_output():
    assert any(command.startswith("ratefix fix --quotes") and printed
               for command, printed in SHELL)


@pytest.mark.parametrize("command, printed", SHELL,
                         ids=[command.split()[1] for command, _ in SHELL])
def test_shell_example_parses_and_prints_what_follows_it(command, printed, capsys):
    argv = shlex.split(command)[1:]
    build_parser().parse_args(argv)
    if printed:
        assert main(argv) == 0
        assert capsys.readouterr().out.splitlines() == printed
