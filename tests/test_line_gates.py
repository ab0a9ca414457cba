"""Every function-body line of every module runs under its gate.

A gate traces its module alone, which keeps it cheap, while the module's
driver and every GUARDS row run, and fails on a function-body line that
never ran. Only a line no input reaches is allowed: an invariant raise
kept for ``python -O``, named by its AST node.
"""
import ast
import importlib.util
import inspect
import sys
from pathlib import Path

import pytest

import blobshift
from blobshift.errors import InvariantViolation
from test_automata import drive_automata
from test_blobfractal import drive_blobfractal
from test_cli_options import drive_cli
from test_library_guards import run_guards
from test_limits import drive_limits
from test_pathcover import drive_pathcover
from test_paths import drive_paths
from test_patterns import drive_patterns
from test_primes import drive_primes
from test_render_cli import drive_render
from test_substitution import drive_substitution

# module, its driver, the functions whose InvariantViolation raises are
# allowed; GUARDS rows raise both error classes that have a body
GATES = [
    ("automata", drive_automata, ("evolve", "compose")),
    ("blobfractal", drive_blobfractal, ()),
    ("cli", drive_cli, ()),
    ("errors", lambda: None, ()),
    ("limits", drive_limits, ()),
    ("pathcover", drive_pathcover, ()),
    ("paths", drive_paths, ()),
    ("patterns", drive_patterns, ()),
    ("primes", drive_primes, ()),
    ("render", drive_render, ()),
    ("substitution", drive_substitution, ()),
]


def source(module):
    """The path the module's code objects carry."""
    return importlib.import_module(f"blobshift.{module}").__file__


def invariant_raises(path, functions):
    """Lines of each InvariantViolation raise in the named functions."""
    return {line for top in ast.parse(Path(path).read_text()).body
            if getattr(top, "name", None) in functions
            for node in ast.walk(top)
            if isinstance(node, ast.Raise)
            and node.exc.func.id == "InvariantViolation"
            for line in range(node.lineno, node.end_lineno + 1)}


def function_body_lines(path):
    """Lines that hold code of some function body in the module at path."""
    todo = [compile(Path(path).read_text(), path, "exec")]
    lines = set()
    while todo:
        code = todo.pop()
        todo += [c for c in code.co_consts if inspect.iscode(c)]
        if code.co_flags & inspect.CO_OPTIMIZED:  # a function, not a class
            # the def line only runs its RESUME, which fires no line event
            lines |= {line for _, _, line in code.co_lines()
                      if line is not None and line != code.co_firstlineno}
    return lines


def gate(path, drive, allowed):
    """(lines never run, allowed lines that ran) while drive runs; only
    frames of the module at path are traced line by line."""
    ran = set()

    def tracer(frame, event, arg):
        if frame.f_code.co_filename != path:
            return None
        if event == "line":
            ran.add(frame.f_lineno)
        return tracer

    prior = sys.gettrace()
    sys.settrace(tracer)
    try:
        drive()
    finally:
        sys.settrace(prior)
    return (sorted(function_body_lines(path) - ran - allowed),
            sorted(ran & allowed))


@pytest.mark.parametrize("module,driver,allowed_in", GATES,
                         ids=[row[0] for row in GATES])
def test_every_line_runs(request, module, driver, allowed_in):
    path = source(module)
    fixtures = {name: request.getfixturevalue(name)
                for name in inspect.signature(driver).parameters}
    missed, allowed_ran = gate(path, lambda: (driver(**fixtures),
                                              run_guards()),
                               invariant_raises(path, allowed_in))
    assert not missed, f"{module}.py lines never run: {missed}"
    assert not allowed_ran, f"{module}.py allowed lines ran: {allowed_ran}"


def test_every_module_with_function_bodies_has_a_gate():
    modules = {path.stem for path
               in Path(blobshift.__file__).parent.glob("*.py")}
    bodies = {module for module in modules
              if function_body_lines(source(module))}
    assert bodies == {module for module, _, _ in GATES}
    assert modules - bodies == {"__init__", "__main__"}
    # the allowlist: evolve's light-cone raise holds by construction of
    # the stepper, and compose's table raise by construction of the table
    assert sum(len(invariant_raises(source(module), allowed_in))
               for module, _, allowed_in in GATES) == 4


def test_the_harness_reports_exactly_the_undriven_line(tmp_path):
    path = tmp_path / "toy.py"
    path.write_text(
        "from blobshift.errors import InvariantViolation\n"
        "\n"
        "\n"
        "def half(n):\n"
        "    if n < 0:\n"
        "        n = -n\n"
        "    if n % 2:\n"
        "        raise InvariantViolation(\n"
        "            'odd')\n"
        "    return n // 2\n")
    spec = importlib.util.spec_from_file_location("toy", path)
    toy = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(toy)
    allowed = invariant_raises(str(path), ("half",))
    assert allowed == {8, 9}
    assert gate(str(path), lambda: toy.half(4), allowed) == ([6], [])
    assert gate(str(path), lambda: toy.half(4), set()) == ([6, 8, 9], [])
    # an allowed line that runs is reported, so no reachable line hides

    def odd():
        with pytest.raises(InvariantViolation):
            toy.half(-3)
    assert gate(str(path), odd, allowed) == ([10], [8, 9])
