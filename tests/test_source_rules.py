"""Rules on the library's source text."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "conich1"


def _library_nodes(matches):
    """file:line of every node of every src/conich1/*.py for which matches(node) holds."""
    files = sorted(SRC.glob("*.py"))
    assert len(files) >= 10
    found = []
    for path in files:
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree) if matches(node)]
    return found


def test_library_has_no_assert_statements():
    # python -O strips assert statements, so an invariant the library relies
    # on must raise a real exception instead
    assert _library_nodes(lambda node: isinstance(node, ast.Assert)) == []


def _raises_assertion_error(node):
    if not isinstance(node, ast.Raise) or node.exc is None:
        return False
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    return isinstance(exc, ast.Name) and exc.id == "AssertionError"


def test_library_raises_no_assertion_error():
    # a broken library invariant raises RuntimeError, which the CLI reports
    # as a verification failure (exit 1) rather than a traceback
    assert _library_nodes(_raises_assertion_error) == []
