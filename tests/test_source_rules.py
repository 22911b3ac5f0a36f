"""Rules on the library's source text."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "conich1"


def test_library_has_no_assert_statements():
    # python -O strips assert statements, so an invariant the library relies
    # on must raise a real exception instead
    files = sorted(SRC.glob("*.py"))
    assert len(files) >= 10
    found = []
    for path in files:
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert found == []
