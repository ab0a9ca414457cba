"""Every report leaves the CLI through one place: `cli.main`.

Handlers return a result dict or the bytes of a render; only `main`
builds the JSON report (`_report`) and writes it (`_emit`), so a report
has one exit to check, serialize or replay.
"""
import ast
from pathlib import Path

import blobshift

CLI = Path(blobshift.__file__).parent / "cli.py"
TREE = ast.parse(CLI.read_text(), str(CLI))
WRITERS = ("_emit", "_report")


def uses(node) -> list[str]:
    """The report writers named anywhere under node, sorted."""
    return sorted(n.id for n in ast.walk(node)
                  if isinstance(n, ast.Name) and n.id in WRITERS)


def test_only_main_builds_and_writes_reports():
    (main,) = [node for node in TREE.body
               if isinstance(node, ast.FunctionDef) and node.name == "main"]
    assert uses(main) == sorted(WRITERS)
    assert uses(TREE) == uses(main)


def test_handlers_take_only_the_arguments_and_the_inputs():
    handlers = [node for node in TREE.body
                if isinstance(node, ast.FunctionDef)
                and node.name.startswith("_cmd_")]
    assert len(handlers) >= 11
    assert {h.name: [a.arg for a in h.args.args] for h in handlers} == {
        h.name: ["args", "inputs"] for h in handlers}


def test_no_dict_literal_copies_a_verdict():
    # verdict records reach the report as their field-ordered dicts; a
    # hand-written map of a record's fields would declare them twice
    tagged = [node.lineno for node in ast.walk(TREE)
              if isinstance(node, ast.Dict)
              and any(isinstance(key, ast.Constant) and key.value == "tag"
                      for key in node.keys)]
    assert tagged == []
