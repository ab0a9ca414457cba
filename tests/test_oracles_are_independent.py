"""The test oracles share no kernel with the code they check.

A checker that calls the search it checks agrees with it by construction
(McConnell, Mehlhorn, Näher & Schweitzer, "Certifying algorithms", 2011).
This lint walks the syntax tree of every test module and fails when a
function named ``oracle_*``, ``*_oracle``, ``ball_*``, ``dilate`` or
``three_bfs_geodesic`` (tests aside) calls one of the library's graph
and blob kernels, by a name imported from ``blobshift`` or through a
``blobshift`` module.
"""
import ast
from pathlib import Path

TESTS = Path(__file__).resolve().parent

KERNELS = frozenset({"_adjacency", "_bfs", "_sweeps",
                     "_components", "connected_components", "neighbours",
                     "zero_glue", "geodesic_witness", "blobs", "pad"})


def is_oracle(name: str) -> bool:
    """Oracle names; a test named ``test_*_oracle`` calls the kernels."""
    return not name.startswith("test_") and (
        name.startswith(("oracle_", "ball_")) or name.endswith("_oracle")
        or name in ("dilate", "three_bfs_geodesic"))


def library_bindings(tree: ast.Module) -> tuple[dict, set]:
    """Local name -> kernel imported from blobshift, and blobshift modules."""
    kernels, modules = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 0 and (
                node.module or "").split(".")[0] == "blobshift":
            for alias in node.names:
                local = alias.asname or alias.name
                if alias.name in KERNELS:
                    kernels[local] = alias.name
                elif node.module == "blobshift":
                    modules.add(local)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "blobshift":
                    modules.add(alias.asname or alias.name.split(".")[0])
    return kernels, modules


def kernel_calls(source: str, filename: str = "<test>") -> list[str]:
    """file:line: oracle -> kernel, for each kernel call inside an oracle."""
    tree = ast.parse(source, filename)
    kernels, modules = library_bindings(tree)
    found = []
    for fn in ast.walk(tree):
        if not (isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
                and is_oracle(fn.name)):
            continue
        for call in ast.walk(fn):
            if not isinstance(call, ast.Call):
                continue
            f = call.func
            if isinstance(f, ast.Name) and f.id in kernels:
                kernel = kernels[f.id]
            elif (isinstance(f, ast.Attribute) and f.attr in KERNELS
                  and _root(f.value) in modules):
                kernel = f.attr
            else:
                continue
            found.append(f"{filename}:{call.lineno}: {fn.name} -> {kernel}")
    return found


def _root(node: ast.expr) -> str | None:
    while isinstance(node, ast.Attribute):
        node = node.value
    return node.id if isinstance(node, ast.Name) else None


def test_no_oracle_calls_a_library_kernel():
    found = []
    for path in sorted(TESTS.glob("*.py")):
        found += kernel_calls(path.read_text(), path.name)
    assert found == []


def test_the_oracles_are_where_the_lint_looks():
    names = set()
    for path in TESTS.glob("*.py"):
        names |= {fn.name for fn in ast.walk(ast.parse(path.read_text()))
                  if isinstance(fn, ast.FunctionDef) and is_oracle(fn.name)}
    assert {"ball_bfs", "ball_components", "dilate", "three_bfs_geodesic",
            "oracle_scan", "oracle_verify_axioms", "oracle_classify",
            "oracle_zero_glue", "ball_oracle", "dilate_oracle",
            "oracle_adjacency", "oracle_bfs", "oracle_sweeps",
            "oracle_geodesic", "oracle_ascend"} <= names


def test_the_lint_sees_each_way_a_kernel_is_reached():
    source = '''
from blobshift.patterns import neighbours, pad as padded, Pattern
from blobshift import patterns
import blobshift.pathcover as pc

def ball_bfs(start, r):
    return neighbours(1, r)(start)

def oracle_pad(p, r):
    return [padded(p, r), Pattern.from_word("1")]

def dilate(cells, r):
    return patterns.connected_components(cells, r)

def three_bfs_geodesic(p, r):
    return pc.geodesic_witness(p, r)

def helper(cells, r):
    return pc._adjacency(cells, r)

def test_pad_matches_oracle(p):
    assert padded(p, 1) == oracle_pad(p, 1)
'''
    assert kernel_calls(source) == [
        "<test>:7: ball_bfs -> neighbours",
        "<test>:10: oracle_pad -> pad",
        "<test>:13: dilate -> connected_components",
        "<test>:16: three_bfs_geodesic -> geodesic_witness",
    ]
