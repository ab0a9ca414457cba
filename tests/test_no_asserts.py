"""Certifying checks must survive `python -O`, which strips asserts."""
import ast
from pathlib import Path

import blobshift

SOURCES = sorted(Path(blobshift.__file__).parent.glob("*.py"))


def test_the_library_has_no_assert_statement():
    assert len(SOURCES) > 10
    found = [f"{path.name}:{node.lineno}" for path in SOURCES
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Assert)]
    assert not found, found
