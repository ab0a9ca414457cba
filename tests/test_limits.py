"""The cell cap: one guard, one message, charged before anything is built."""
import ast
import json
import re
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest

import blobshift
from blobshift import automata, pathcover, paths, patterns, primes, substitution
from blobshift.cli import main
from blobshift.errors import BlobshiftError, SizeLimit
from blobshift.limits import cell_cap
from blobshift.patterns import BINARY, Pattern

SOURCES = sorted(Path(blobshift.__file__).parent.glob("*.py"))

ONE = Pattern(BINARY, {(0, 0): "1"})
# built before any test lowers the cap, which its own table would pass
SHIFT = automata.shift_element()


# each site, and an input whose cells pass a 10-cell cap
SITES = [
    ("2-adjacency of 3 cells", lambda: pathcover._adjacency(
        {(0,), (1,), (2,)}, 2)),
    ("1-components of 6 cells", lambda: patterns.connected_components(
        {(x,) for x in range(6)}, 1)),
    ("dilation by 5", lambda: patterns.pad(Pattern.from_word("1"), 5)),
    ("bounding box", lambda: patterns.write_rows(
        Pattern(BINARY, {(0, 0): "1", (3, 3): "1"}))),
    ("sieve up to 20", lambda: primes.sieve(20)),
    ("tiled window", lambda: paths.classify_path_space(
        substitution.parse_substitution("subst 1d +\n+ -> +\n"), 100)),
    ("1D iterate", lambda: substitution.iterate_1d(
        substitution.cantor_substitution(), "1", 3)),
    ("2D iterate", lambda: substitution.iterate_2d(
        substitution.plus_substitution(), ONE, 2)),
    ("level 2 pattern", lambda: substitution.build_unbounded_rows(
        substitution.block_spec(2), 2, 1)),
    ("trajectory of 5 steps", lambda: automata.evolve(
        automata.xor_rule(), automata.FiniteConfig.make("1"), 5)),
    ("probe of width 2 and time 2", lambda: automata.find_glider(
        automata.xor_rule(), 2, 2)),
    ("injectivity check at radius 1", lambda: automata.tfg_validate(
        automata.block_swap_element())),
    ("composed table at radius 2", lambda: automata.compose(
        automata.block_swap_element(), automata.block_swap_element())),
    ("drift search up to period 4", lambda: automata.tfg_order_search(
        SHIFT, 1, 4)),
    ("shift table at radius 6", lambda: automata.shift_element(amount=6)),
    ("wildcard at radius 2", lambda: automata.parse_ca_rule(
        "ca 01 radius 2\n* -> 0\n")),
    ("guided trace", lambda: pathcover.trace_guided_path([1, 1], [5, 5], 2)),
    ("Sturmian word", lambda: pathcover.sturmian_word(Fraction(1, 2), 11)),
]


@pytest.mark.parametrize("what,call", SITES)
def test_every_guarded_site_names_what_passes_the_cap(monkeypatch, what, call):
    monkeypatch.setenv("BLOBSHIFT_CELL_CAP", "10")
    with pytest.raises(SizeLimit, match=f"^{re.escape(what)} needs "
                                        r"\d+ cells, past the 10-cell cap$"):
        call()


def drive_limits(monkeypatch):
    """Pass a 10-cell cap at every site, then set a cap that is no number."""
    with monkeypatch.context() as patched:
        for what, call in SITES:
            test_every_guarded_site_names_what_passes_the_cap(patched, what,
                                                              call)
        patched.setenv("BLOBSHIFT_CELL_CAP", "ten")
        with pytest.raises(BlobshiftError, match="^BLOBSHIFT_CELL_CAP must "
                           "be a positive integer, got 'ten'$"):
            cell_cap()


def test_size_limits_are_raised_only_by_the_guard():
    found = [f"{path.name}:{node.lineno}" for path in SOURCES
             if path.name != "limits.py"
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Call)
             and getattr(node.func, "id", getattr(node.func, "attr", None))
             == "SizeLimit"]
    assert len(SOURCES) > 10
    assert not found, found


def test_adjacency_charges_its_ball_before_listing_it(monkeypatch):
    # two cells 5000 apart span 5000: the half ball at r = 5000 holds
    # 25 million offsets
    monkeypatch.setenv("BLOBSHIFT_CELL_CAP", "10")
    tracemalloc.start()
    try:
        with pytest.raises(SizeLimit, match="^5000-adjacency of 2 cells needs "
                           "100020000 cells, past the 10-cell cap$"):
            pathcover._adjacency({(0, 0), (5000, 0)}, 5000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20
    # one cell spans 0, so no radius probes anything
    assert pathcover._adjacency({(0, 0)}, 5000) == ({0: []}, {0: (0, 0)})


@pytest.mark.parametrize("cells,r,ball", [
    ({(0,)}, 600, 2 * 600 + 1),
    ({(0, 0), (1, 0)}, 30, 2 * 30 * 31 + 1),
])
def test_dilate_refuses_a_ball_past_the_cap_at_once(monkeypatch, cells, r,
                                                    ball):
    monkeypatch.setenv("BLOBSHIFT_CELL_CAP", "1000")
    with pytest.raises(SizeLimit, match=f"^dilation by {r} needs {ball} "):
        patterns.pad(Pattern(BINARY, dict.fromkeys(cells, "1")), r)


def run_capped(monkeypatch, capsys, argv):
    monkeypatch.setenv("BLOBSHIFT_CELL_CAP", "1000")
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, json.loads(captured.err)["error"]


def test_guided_trace_charges_its_offsets(monkeypatch, capsys):
    code, out, error = run_capped(monkeypatch, capsys, [
        "pathcover", "guided", "--steps", "3,3", "--offsets", "1000000,1",
        "--length", "2"])
    assert (code, out, error["kind"]) == (2, "", "SizeLimit")
    assert error["message"].startswith("guided trace needs 1000008 cells")


def test_glue_render_charges_the_bounding_box(tmp_path, monkeypatch, capsys):
    (tmp_path / "a.pat").write_text("dims 1 1\nalphabet 01\n1\n")
    (tmp_path / "b.pat").write_text(
        "dims 1 1\nalphabet 01\norigin 2000 2000\n1\n")
    code, out, error = run_capped(monkeypatch, capsys, [
        "glue", "--pattern", str(tmp_path / "a.pat"),
        "--pattern", str(tmp_path / "b.pat")])
    assert (code, out, error["kind"]) == (2, "", "SizeLimit")
    assert error["message"].startswith(f"bounding box needs {2001 ** 2} cells")
