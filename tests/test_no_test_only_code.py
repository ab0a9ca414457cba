"""Everything public in ``src/`` is reached by something other than tests.

Code that only tests call is code nothing uses. This lint walks the
syntax tree of each ``src/blobshift/*.py`` module. A reader is the
module itself outside the definition in question, another library
module, a ``perfbench`` script, the acceptance criteria in
``tests/test_acceptance.py``, or the code README.md shows: its python
blocks and its inline code, not its prose or its shell blocks. The lint
fails on

- a public top-level ``def`` or ``class`` that no reader spells as a
  ``Name``, an ``Attribute`` or an import alias, or README.md's code as
  a whole word. A ``Name`` that a parameter or a local of an enclosing
  function binds is that function's, so it reaches nothing;
- a public method of a top-level class that no reader calls as
  ``x.name(...)`` or passes as an argument ``f(x.name)``, or a public
  property that no reader spells as an attribute ``x.name``; README.md's
  code reaches either as ``.name``. A field of another class spelled
  ``x.name`` does not reach a method of that name;
- a defaulted parameter of a public top-level function that no reader's
  call passes, by position or by keyword.
"""
import ast
import re
from pathlib import Path

import blobshift

SRC = Path(blobshift.__file__).resolve().parent
ROOT = SRC.parent.parent
TESTS = Path(__file__).resolve().parent


def public_defs(node: ast.Module | ast.ClassDef) -> dict[str, ast.AST]:
    """Public def/class name -> its definition, in the body of node."""
    return {child.name: child for child in node.body
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef))
            and not child.name.startswith("_")}


def _callee(node: ast.expr) -> str | None:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ListComp,
           ast.SetComp, ast.DictComp, ast.GeneratorExp)


def binds(scope: ast.AST) -> set[str]:
    """The names a function, lambda or comprehension binds itself: its
    parameters, and the names it assigns, defines or imports outside the
    scopes nested in it."""
    if isinstance(scope, (ast.ListComp, ast.SetComp, ast.DictComp,
                          ast.GeneratorExp)):
        names, todo = set(), [g.target for g in scope.generators]
    else:
        a = scope.args
        names = {arg.arg for arg in (*a.posonlyargs, *a.args, *a.kwonlyargs,
                                     a.vararg, a.kwarg) if arg}
        body = scope.body
        todo = list(body) if isinstance(body, list) else [body]
    while todo:
        node = todo.pop()
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                               ast.ClassDef)):
            names.add(node.name)
            continue
        elif isinstance(node, ast.alias):
            names.add((node.asname or node.name).split(".")[0])
        if not isinstance(node, _SCOPES):
            todo += ast.iter_child_nodes(node)
    return names


def _locals(tree: ast.AST) -> set[int]:
    """ids of the Name nodes that some enclosing function binds."""
    out = set()
    todo = [(tree, frozenset())]
    while todo:
        node, bound = todo.pop()
        if isinstance(node, ast.Name) and node.id in bound:
            out.add(id(node))
        if isinstance(node, _SCOPES):
            bound = bound | binds(node)
        todo += [(child, bound) for child in ast.iter_child_nodes(node)]
    return out


def reaches(tree: ast.Module) -> list[tuple[int, tuple]]:
    """(line, reach) for each reach a tree makes.

    A reach is ("name", n) for a Name, an Attribute or an import alias
    spelling n; ("attr", n) for an Attribute alone; ("call", n) for an
    Attribute that is called or passed as an argument; ("pass", f, key)
    for an argument that a call of f passes, key being its position or
    keyword, ``*`` for a starred one and ``**`` for a double-starred one.
    A Name bound by a parameter or a local of an enclosing function is
    no reach.
    """
    out = []
    local = _locals(tree)
    for node in ast.walk(tree):
        line = getattr(node, "lineno", None)
        if isinstance(node, ast.Name):
            if id(node) not in local:
                out.append((line, ("name", node.id)))
        elif isinstance(node, ast.Attribute):
            out += [(line, ("name", node.attr)), (line, ("attr", node.attr))]
        elif isinstance(node, ast.alias):
            out.append((line, ("name", node.name.split(".")[-1])))
        elif isinstance(node, ast.Call):
            used = [node.func, *node.args, *(k.value for k in node.keywords)]
            out += [(line, ("call", attr.attr)) for attr in used
                    if isinstance(attr, ast.Attribute)]
            callee = _callee(node.func)
            out += [(line, ("pass", callee,
                            "*" if isinstance(arg, ast.Starred) else at))
                    for at, arg in enumerate(node.args)]
            out += [(line, ("pass", callee, kw.arg or "**"))
                    for kw in node.keywords]
    return out


def needs(member: ast.AST) -> str:
    """The reach a class member needs: a call for a plain method."""
    plain = (isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef))
             and not any(isinstance(d, ast.Name) and d.id == "property"
                         for d in member.decorator_list))
    return "call" if plain else "attr"


def defaulted(fn: ast.FunctionDef) -> list[tuple[int | None, str]]:
    """(position, or None for keyword-only; name) per defaulted parameter."""
    positional = fn.args.posonlyargs + fn.args.args
    first = len(positional) - len(fn.args.defaults)
    out = [(at, arg.arg) for at, arg in enumerate(positional) if at >= first]
    out += [(None, arg.arg) for arg, default
            in zip(fn.args.kwonlyargs, fn.args.kw_defaults) if default]
    return out


def shown_code(markdown: str) -> str:
    """The code a Markdown text shows: its ```python blocks and the inline
    code of the rest, fenced blocks of any other language left out."""
    blocks = re.findall(r"^```python\n(.*?)^```", markdown, re.M | re.S)
    rest = re.sub(r"^```.*?^```", "", markdown, flags=re.M | re.S)
    return "\n".join(blocks + re.findall(r"`([^`]+)`", rest))


def unreached(modules: dict[str, str], readers: list[str],
              markdown: str) -> list[str]:
    """module.name, module.Class.method and module.function(parameter)
    for each that no reader reaches.

    `modules` maps a library module's name to its source; `readers` are
    the other sources that count, and `markdown` the document whose
    shown code does.
    """
    trees = {name: ast.parse(source, name) for name, source in modules.items()}
    made = {name: reaches(tree) for name, tree in trees.items()}
    outside = {reach for source in readers for _, reach in reaches(
        ast.parse(source))}
    code = shown_code(markdown)
    words = set(re.findall(r"\w+", code))
    dotted = set(re.findall(r"\.(\w+)", code))
    found = []
    for name, tree in sorted(trees.items()):
        others = outside | {reach for n, rs in made.items() if n != name
                            for _, reach in rs}

        def reached(node: ast.AST) -> set[tuple]:
            skip = range(node.lineno, node.end_lineno + 1)
            return others | {reach for line, reach in made[name]
                             if line not in skip}

        for fn, node in public_defs(tree).items():
            seen = reached(node)
            if ("name", fn) not in seen and fn not in words:
                found.append(f"{name}.{fn}")
            if isinstance(node, ast.ClassDef):
                found += [f"{name}.{fn}.{method}"
                          for method, child in public_defs(node).items()
                          if (needs(child), method) not in reached(child)
                          and method not in dotted]
                continue
            for at, param in defaulted(node):
                keys = {param, "**"} | ({at, "*"} if at is not None else set())
                if not any(("pass", fn, key) in seen for key in keys):
                    found.append(f"{name}.{fn}({param})")
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


class Level:
    def __init__(self, depth):
        self.depth = depth


class Benched:
    def run(self):
        return self.size

    @property
    def size(self):
        return 0

    def step(self):
        return self.step()

    def shown(self):
        pass

    def worded(self):
        pass

    def depth(self):
        pass

    def _private(self):
        pass


def knobs(a, b=1, c=2, *, d=3, e=None):
    return knobs(a, b, c, d=d, e=e)


def starred(a=0, b=1):
    pass


def _private(x=0):
    pass
'''


def test_the_lint_flags_only_what_tests_alone_reach():
    # tests are no reader: a name only they reach is flagged, and a
    # recursive call of a function or a method does not reach it; README
    # reaches a method only as `.name`, and Level's field depth does not
    # reach the method depth
    bench = ("import blobshift.lib as L\nL.kept()\nL.Benched().run()\n"
             "L.knobs(0, 1, d=2)\nargs = (0,)\nL.starred(*args)\n"
             "L.Level(1).depth\n")
    prose = "Run `Shown`, `worded` and `Benched.shown` here."
    assert unreached({"lib": LIB}, [bench], prose) == [
        "lib.Benched.depth", "lib.Benched.step", "lib.Benched.worded",
        "lib.knobs(c)", "lib.knobs(e)", "lib.tested_only"]
    # another library module reaches too, and a method passed as an
    # argument is reached
    cli = ("from .lib import tested_only\nknobs(0, 1, 2)\n"
           "knobs(0, e=1)\nB().step()\nmap(B().depth, [])\n")
    assert unreached({"lib": LIB, "cli": cli}, [bench],
                     "`Shown`, `.worded` and `.shown`") == []
    # helper is reached inside its own module, by kept, and size by run
    assert unreached({"lib": LIB}, [], "") == [
        "lib.Benched", "lib.Benched.depth", "lib.Benched.run",
        "lib.Benched.shown", "lib.Benched.step", "lib.Benched.worded",
        "lib.Level", "lib.Shown", "lib.kept",
        "lib.knobs", "lib.knobs(b)", "lib.knobs(c)", "lib.knobs(d)",
        "lib.knobs(e)", "lib.starred", "lib.starred(a)", "lib.starred(b)",
        "lib.tested_only"]


def test_only_code_reaches_a_name():
    # a parameter or a local of an enclosing function, a comprehension's
    # variable, and a word in README's prose or in a shell block are not
    # the library's names; a README python block and inline code are
    lib = "".join(f"def {fn}():\n    pass\n\n\n" for fn in (
        "walked", "hopped", "shelled", "fenced", "quoted"))
    bench = ("def go(hopped):\n    walked = hopped\n"
             "    return lambda: walked, [shelled for shelled in ()]\n")
    readme = ("Here walked, hopped, shelled and fenced are prose.\n"
              "```sh\nblobshift shelled --quoted  # fenced\n```\n"
              "```python\nfenced()\n```\nand `quoted` is inline.\n")
    assert unreached({"lib": lib}, [bench], readme) == [
        "lib.hopped", "lib.shelled", "lib.walked"]
    # the same names outside any function do reach
    assert unreached({"lib": lib}, ["walked\nhopped\nshelled\n"], "") == [
        "lib.fenced", "lib.quoted"]
