"""Every public name in ``src/`` is reached by something other than tests.

Code that only tests call is code nothing uses. This lint walks the
syntax tree of each ``src/blobshift/*.py`` module and fails on a public
top-level ``def`` or ``class`` that no reader reaches. A reader is the
name's own module outside its definition, another library module, a
``perfbench`` script, the acceptance criteria in
``tests/test_acceptance.py``, or the text of README.md. A reach is a
``Name``, an ``Attribute`` or an import alias spelling the name; in
README.md, the name as a whole word.
"""
import ast
import re
from pathlib import Path

import blobshift

SRC = Path(blobshift.__file__).resolve().parent
ROOT = SRC.parent.parent
TESTS = Path(__file__).resolve().parent


def public_defs(tree: ast.Module) -> dict[str, range]:
    """Public top-level def/class name -> the lines its definition spans."""
    return {node.name: range(node.lineno, node.end_lineno + 1)
            for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef))
            and not node.name.startswith("_")}


def spelled(tree: ast.Module, skip: range = range(0)) -> set[str]:
    """Names a tree reaches, leaving out nodes on the lines in `skip`."""
    names = set()
    for node in ast.walk(tree):
        if getattr(node, "lineno", None) in skip:
            continue
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.split(".")[-1])
    return names


def unreached(modules: dict[str, str], readers: list[str],
              text: str) -> list[str]:
    """module.name for each public def no reader reaches.

    `modules` maps a library module's name to its source; `readers` are
    the other sources that count, and `text` the prose that does.
    """
    trees = {name: ast.parse(source, name) for name, source in modules.items()}
    outside = set().union(*(spelled(ast.parse(source)) for source in readers))
    words = set(re.findall(r"\w+", text))
    found = []
    for name, tree in sorted(trees.items()):
        others = set().union(*(spelled(t) for n, t in trees.items()
                               if n != name))
        for fn, lines in public_defs(tree).items():
            own = spelled(tree, lines)
            if not {fn} & (own | others | outside | words):
                found.append(f"{name}.{fn}")
    return sorted(found)


def test_every_public_library_name_has_a_reader():
    modules = {path.stem: path.read_text()
               for path in sorted(SRC.glob("*.py"))}
    readers = [path.read_text()
               for path in sorted((ROOT / "perfbench").rglob("*.py"))]
    readers.append((TESTS / "test_acceptance.py").read_text())
    assert len(modules) > 10 and len(readers) > 5
    assert unreached(modules, readers, (ROOT / "README.md").read_text()) == []


LIB = '''
def kept():
    return helper()


def helper():
    return 1


def tested_only(n):
    return tested_only(n - 1) if n else 0


class Shown:
    pass


class Benched:
    pass


def _private():
    pass
'''


def test_the_lint_flags_only_what_tests_alone_reach():
    # tests are no reader: a name only they import is flagged, and its
    # own recursive call does not reach it
    bench = "import blobshift.lib as L\nL.kept()\nL.Benched()\n"
    assert unreached({"lib": LIB}, [bench], "Run `Shown` here.") == [
        "lib.tested_only"]
    # a perfbench script, README's text and another library module reach
    cli = "from .lib import tested_only\n"
    assert unreached({"lib": LIB, "cli": cli}, [bench], "Shown") == []
    # helper is reached inside its own module, by kept
    assert unreached({"lib": LIB}, [], "") == [
        "lib.Benched", "lib.Shown", "lib.kept", "lib.tested_only"]
