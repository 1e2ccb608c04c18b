"""Rules checked on the package source itself."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "raynaud"


def test_no_assert_statements_in_the_package():
    # a runtime check written as `assert` vanishes under `python -O`;
    # the package raises (Unstable, ValueError, ...) instead
    files = sorted(SRC.glob("*.py"))
    assert files
    found = [
        f"{path.name}:{node.lineno}"
        for path in files
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert not found, f"assert statements in the package: {found}"
