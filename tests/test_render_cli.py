"""Renders and the CLI adapter: golden equivalence, formats, exit codes."""
import json

import pytest

from blobshift.cli import main
from blobshift.errors import UnsupportedFormat
from blobshift.paths import parse_moves
from blobshift.patterns import (BINARY, Alphabet, Pattern, format_pattern,
                                 parse_pattern)
from blobshift.render import render_moves, render_pattern
from blobshift.substitution import iterate_1d
from blobshift.paths import deep_zigzag


PLUS_SUB = """subst 2d 3 01
0 ->
...
...
...
1 ->
.1.
111
.1.
"""

SHIFT_CA = """ca 01 radius 1
* -> 0
001 -> 1
011 -> 1
101 -> 1
111 -> 1
"""

TAU1_SUB = """subst 1d +-
+ -> ++--++
- -> --++--
"""


@pytest.fixture
def files(tmp_path):
    (tmp_path / "plus.sub").write_text(PLUS_SUB)
    (tmp_path / "shift.ca").write_text(SHIFT_CA)
    (tmp_path / "tau1.sub").write_text(TAU1_SUB)
    (tmp_path / "word.pat").write_text("dims 7\nalphabet 01\n.11..1.\n")
    (tmp_path / "a.pat").write_text("dims 3\nalphabet 01\n1..\n")
    (tmp_path / "b.pat").write_text("dims 3\nalphabet 01\norigin 6\n1..\n")
    return tmp_path


def run_cli(capsys, *argv) -> tuple[int, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def run_json(capsys, *argv):
    code, out = run_cli(capsys, *argv)
    assert code == 0, out
    return json.loads(out)


# -------------------------------------------------------------------- renders


def test_render_pbm_small():
    p = Pattern.from_rows(["1.", ".."])
    data = render_pattern(p, "pbm")
    assert data == b"P1\n2 2\n10\n00\n"


def test_render_text_empty_pattern():
    p = Pattern(BINARY, {})
    text = render_pattern(p, "text").decode()
    assert text.splitlines()[0] == "dims 0"


def test_render_text_round_trips():
    p = Pattern.from_rows(["1.1", ".1."])
    assert parse_pattern(render_pattern(p, "text").decode()) == p


def test_render_moves_polyline_points():
    word = parse_moves(iterate_1d(deep_zigzag(), "+", 4))
    svg = render_moves(word).decode()
    assert svg.count("<polyline") == 1
    points = svg.split('points="')[1].split('"')[0].split()
    assert len(points) == 6 ** 4 + 1


TERNARY = Alphabet(("0", "1", "2"), "0")


@pytest.mark.parametrize("pattern,text,pbm", [
    (Pattern.from_word("0110"), "dims 4\nalphabet 01\n.11.\n",
     "P1\n4 1\n0110\n"),
    (Pattern(BINARY, {(-3,): "1", (-1,): "0"}),
     "dims 3\nalphabet 01\norigin -3\n1?.\n", "P1\n3 1\n100\n"),
    (Pattern.from_rows(["1.", ".1"]), "dims 2 2\nalphabet 01\n1.\n.1\n",
     "P1\n2 2\n10\n01\n"),
    (Pattern.from_rows(["1.?", ".21"], TERNARY).translate((2, -5)),
     "dims 3 2\nalphabet 012\norigin 2 -5\n1.?\n.21\n",
     "P1\n3 2\n100\n011\n"),
    (Pattern.from_rows(["?a", "b?"], Alphabet(("a", "b"), "b")),
     "dims 2 2\nalphabet ba\n?a\n.?\n", "P1\n2 2\n01\n00\n"),
    (Pattern(BINARY, {}), "dims 0\nalphabet 01\n", "P1\n0 0\n"),
])
def test_render_golden_bytes(pattern, text, pbm):
    assert render_pattern(pattern, "text") == text.encode()
    assert format_pattern(pattern) == text
    assert render_pattern(pattern, "pbm") == pbm.encode()
    back = parse_pattern(text)
    assert dict(back.items()) == dict(pattern.items())
    assert back.alphabet.zero == pattern.alphabet.zero


def test_render_unknown_format():
    with pytest.raises(UnsupportedFormat):
        render_pattern(Pattern(BINARY, {}), "gif")


# ------------------------------------------------------------------ CLI paths


def test_cli_gen_pbm(files, capsys):
    code, out = run_cli(capsys, "gen", "--subst", str(files / "plus.sub"),
                        "--seed", "1", "--iters", "1", "--format", "pbm")
    assert code == 0
    assert out == "P1\n3 3\n010\n111\n010\n"


def test_cli_gen_matches_library(files, capsys):
    from blobshift.substitution import iterate_2d, plus_substitution
    report = run_json(capsys, "gen", "--subst", str(files / "plus.sub"),
                      "--seed", "1", "--iters", "2")
    direct = iterate_2d(plus_substitution(), Pattern(BINARY, {(0, 0): "1"}), 2)
    assert report["result"]["support"] == len(direct.support())


def test_cli_blobs(files, capsys):
    report = run_json(capsys, "blobs", "--pattern", str(files / "word.pat"),
                      "--radius", "1")
    found = report["result"]["blobs"]
    assert [b["anchor"] for b in found] == [[1], [5]]


def test_cli_blobs_pad_resolves_tight_window(files, capsys, tmp_path):
    (tmp_path / "tight.pat").write_text("dims 3\nalphabet 01\n111\n")
    code = main(["blobs", "--pattern", str(tmp_path / "tight.pat"),
                 "--radius", "1"])
    capsys.readouterr()
    assert code == 2  # padding exits the window: refuse, never truncate
    report = run_json(capsys, "blobs", "--pattern",
                      str(tmp_path / "tight.pat"), "--radius", "1",
                      "--pad", "1")
    assert len(report["result"]["blobs"]) == 1


def test_cli_glue_and_conflict(files, capsys):
    report = run_json(capsys, "glue", "--pattern", str(files / "a.pat"),
                      "--pattern", str(files / "b.pat"))
    assert report["result"]["support"] == 2
    (files / "c.pat").write_text("dims 1\nalphabet 01\n1\n")
    code = main(["glue", "--pattern", str(files / "a.pat"),
                 "--pattern", str(files / "c.pat")])
    err = capsys.readouterr().err
    assert code == 2
    assert "GlueConflict" in err


def test_cli_width(files, capsys):
    report = run_json(capsys, "width", "--pattern", str(files / "word.pat"),
                      "--radius", "1")
    assert report["result"]["sparsity"] == 3
    assert report["result"]["width_lower_bound"] == 2


def test_cli_classify_path(files, capsys):
    report = run_json(capsys, "classify-path", "--subst",
                      str(files / "tau1.sub"), "--horizon", "32")
    result = report["result"]
    assert result["tag"] == "unbounded_recurrent"
    assert set(result) >= {"tag", "constant", "witness", "horizon"}
    replay = parse_moves(result["witness"])
    from blobshift.paths import integrate
    visits = sum(1 for h in integrate(replay).heights if h == 0)
    assert visits >= 32


def test_cli_ca_glider_golden(files, capsys):
    report = run_json(capsys, "ca", "glider", "--rule",
                      str(files / "shift.ca"), "--max-width", "3",
                      "--max-time", "8")
    assert report["result"] == {
        "found": True, "word": "1", "steps": 1, "shift": 1}


def test_cli_tfg_order(files, capsys, tmp_path):
    (tmp_path / "swap.tfg").write_text(
        "ca 01 radius 1\n* -> shift 0\n"
        "010 -> shift 1\n110 -> shift 1\n"
        "101 -> shift -1\n100 -> shift -1\n")
    report = run_json(capsys, "tfg", "order", "--rule",
                      str(tmp_path / "swap.tfg"), "--max-order", "6",
                      "--max-period", "3")
    assert report["result"]["tag"] == "torsion"
    assert report["result"]["order"] == 2


def test_cli_primes_crt_golden(capsys):
    report = run_json(capsys, "primes", "crt", "--n", "3",
                      "--injection", "5,7,11")
    assert report["result"]["k"] == 20
    assert report["result"]["modulus"] == 385


def test_cli_primes_export(capsys, tmp_path):
    out = tmp_path / "primes.pat"
    code = main(["primes", "export", "--limit", "50", "--out", str(out)])
    assert code == 0
    pattern = parse_pattern(out.read_text())
    assert (2,) in pattern.support()


def test_cli_fractal_classify(files, capsys, tmp_path):
    from blobshift.patterns import format_pattern, pad
    from blobshift.substitution import cantor_substitution
    word = iterate_1d(cantor_substitution(), "1", 6)
    pattern = pad(Pattern.from_word(word), 28)
    (tmp_path / "cantor.pat").write_text(format_pattern(pattern))
    report = run_json(capsys, "fractal", "classify", "--pattern",
                      str(tmp_path / "cantor.pat"), "--radii", "2,4,10,28",
                      "--threshold", "100")
    assert report["result"]["tag"] == "blob_fractal"
    assert report["result"]["levels_verified"] >= 4


def test_cli_fractal_render_dir(files, capsys, tmp_path):
    from blobshift.patterns import format_pattern, pad
    single = pad(Pattern(BINARY, {(0,): "1"}), 4)
    (tmp_path / "one.pat").write_text(format_pattern(single))
    outdir = tmp_path / "figs"
    report = run_json(capsys, "fractal", "verify", "--pattern",
                      str(tmp_path / "one.pat"), "--radii", "1,2",
                      "--render-dir", str(outdir))
    assert report["result"]["rendered"]
    rendered = list(outdir.iterdir())
    assert rendered and all(f.suffix == ".pbm" for f in rendered)
    assert all(f.read_bytes().startswith(b"P1\n") for f in rendered)


def test_cli_pathcover_geodesic(capsys, tmp_path):
    from blobshift.patterns import format_pattern
    p = Pattern(BINARY, {(0, y): "1" for y in range(5)})
    (tmp_path / "col.pat").write_text(format_pattern(p))
    report = run_json(capsys, "pathcover", "geodesic", "--pattern",
                      str(tmp_path / "col.pat"), "--radius", "1")
    assert report["result"]["length"] == 5


def test_cli_pathcover_ascend_reports_its_work(capsys, tmp_path):
    p = Pattern(BINARY, {(0, y): "1" for y in range(5)})
    (tmp_path / "col.pat").write_text(format_pattern(p))
    argv = ["pathcover", "ascend", "--pattern", str(tmp_path / "col.pat"),
            "--radius", "1", "--window", "1"]
    result = run_json(capsys, *argv)["result"]
    assert list(result) == ["found", "budget", "spent", "complete",
                            "length", "cells"]
    assert (result["length"], result["spent"], result["complete"]) == (
        5, 5, True)
    result = run_json(capsys, *argv, "--budget", "3")["result"]
    assert (result["length"], result["spent"], result["complete"]) == (
        3, 3, False)


def test_cli_render_moves_svg(capsys):
    code, out = run_cli(capsys, "render", "--moves", "++--++",
                        "--format", "svg-paths")
    assert code == 0
    assert out.startswith("<svg")


def test_cli_ca_profile(files, capsys):
    report = run_json(capsys, "ca", "profile", "--rule",
                      str(files / "shift.ca"), "--config", "1",
                      "--horizon", "5")
    assert report["result"]["profile"] == [1] * 6


def test_cli_usage_error_is_exit_one(capsys):
    assert main(["nonsense"]) == 1
    assert main(["glue", "--pattern", "only-one.pat"]) == 1


@pytest.mark.parametrize("argv,code", [
    (["blobs", "--pattern", "word.pat", "--radius", "-1"], 1),
    (["blobs", "--pattern", "word.pat", "--radius", "1", "--pad", "-2"], 1),
    (["pathcover", "ascend", "--pattern", "word.pat", "--window", "0"], 1),
    (["blobs", "--pattern", "bad_dims.pat", "--radius", "1"], 2),
    (["blobs", "--pattern", "bad_origin.pat", "--radius", "1"], 2),
    (["gen", "--subst", "plus.sub", "--iters", "-1"], 1),
    (["primes", "crt", "--n", "0"], 1),
    (["primes", "dirichlet", "--n", "0"], 1),
    (["primes", "lang", "--limit", "1"], 1),
    (["primes", "lang", "--limit", "100", "--threshold", "99"], 1),
    (["pathcover", "guided", "--slope", "x"], 1),
    (["pathcover", "guided", "--slope", "1/0"], 1),
    (["pathcover", "guided", "--slope", "3/2"], 1),
    (["pathcover", "guided", "--slope", "1/2", "--length", "-1"], 1),
    (["pathcover", "guided", "--steps", "1,x", "--offsets", "0,1"], 1),
    (["primes", "crt", "--n", "2", "--injection", "5,x"], 1),
    (["classify-path", "--subst", "tau1.sub", "--horizon", "0"], 1),
    (["ca", "nilpotent", "--rule", "shift.ca", "--max-width", "-1",
      "--max-time", "-3"], 1),
    (["ca", "nilpotent", "--rule", "shift.ca", "--max-width", "0"], 1),
    (["ca", "glider", "--rule", "shift.ca", "--max-time", "0"], 1),
    (["ca", "profile", "--rule", "shift.ca", "--horizon", "-2"], 1),
    (["ca", "profile", "--rule", "shift.ca", "--config", "102"], 1),
    (["tfg", "order", "--rule", "shift.ca", "--max-order", "0"], 1),
    (["render", "--moves", "+x", "--format", "svg-paths"], 1),
    (["pathcover", "ascend", "--pattern", "word.pat", "--budget", "-5"], 1),
    (["pathcover", "ascend"], 1),
    (["pathcover", "geodesic"], 1),
    (["gen", "--subst", "tau1.sub", "--seed", "x", "--iters", "1"], 1),
    (["gen", "--subst", "plus.sub", "--seed", "7", "--iters", "1"], 1),
    (["gen", "--subst", "plus.sub", "--seed-file", "a.pat", "--iters", "1"], 1),
    (["gen", "--subst", "tau1.sub", "--seed-file", "a.pat", "--iters", "1"], 1),
    (["gen", "--subst", "plus.sub", "--seed-file", "ternary.pat", "--iters",
      "1"], 1),
    (["pathcover", "geodesic", "--pattern", "word.pat", "--format", "pbm"], 1),
    (["pathcover", "ascend", "--pattern", "word.pat", "--format", "text"], 1),
    (["tfg", "order", "--rule", "r6.tfg"], 2),
    (["tfg", "order", "--rule", "swap.tfg", "--max-order", "1",
      "--max-period", "40"], 2),
    (["ca", "nilpotent", "--rule", "xor.ca", "--max-width", "40",
      "--max-time", "2"], 2),
    (["fractal", "verify", "--pattern", "word.pat", "--radii", "2"], 1),
])
def test_cli_bad_arguments_and_files_exit_cleanly(files, capsys, monkeypatch,
                                                  argv, code):
    (files / "bad_dims.pat").write_text("dims x\nalphabet 01\n1\n")
    (files / "bad_origin.pat").write_text("dims 1\nalphabet 01\norigin 1.5\n1\n")
    (files / "ternary.pat").write_text("dims 2 1\nalphabet 012\n2.\n")
    (files / "r6.tfg").write_text("ca 01 radius 6\n* -> shift 0\n")
    (files / "swap.tfg").write_text(
        "ca 01 radius 1\n* -> shift 0\n010 -> shift 1\n110 -> shift 1\n"
        "100 -> shift -1\n101 -> shift -1\n")
    (files / "xor.ca").write_text(
        "ca 01 radius 1\n* -> 0\n001 -> 1\n010 -> 1\n101 -> 1\n110 -> 1\n")
    monkeypatch.chdir(files)
    assert main(argv) == code
    err = capsys.readouterr().err
    assert "Traceback" not in err
    if code == 2:
        # the probes enumerate past the cell cap; the files do not parse
        kind = "SizeLimit" if argv[0] in ("ca", "tfg") else "UnsupportedFormat"
        assert json.loads(err)["error"]["kind"] == kind


@pytest.mark.parametrize("command,text", [
    ("ca", "ca 01 radius 1\n001 -> 1\n"),
    ("ca", "ca 01 radius x\n* -> 0\n"),
    ("ca", "ca 01 radius 1\n* -> 2\n"),
    ("ca", "ca 00 radius 1\n* -> 0\n"),
    ("ca", "ca 01 radius 1\n* -> 0\n001 -> 5\n"),
    ("ca", "ca 01 radius 1\n* -> 0\n001 1\n"),
    ("ca", "ca 01 radius 0\n0 -> 0\nx -> 1\n"),
    ("tfg", "ca 01 radius 0\n0 -> shift 0\nx -> shift 0\n"),
    ("tfg", "ca 01 radius 1\n* -> shift x\n"),
    ("tfg", "ca 01 radius 1\n* -> shift 5\n"),
    ("tfg", "ca 01 radius 1\n* -> 0\n"),
    ("gen", "subst 2d x 01\n"),
    ("gen", "subst 2d 2 01\n0 ->\n..\n..\n1 ->\n12\n..\n"),
    ("gen", "subst 2d 2 01\n0 ->\n..\n..\n1 ->\n11\n11\n2 ->\n..\n..\n"),
    ("gen", "subst 1d 01\n0 -> 00\n1 -> 12\n"),
    ("gen", "subst 1d 01\n0 -> 00\n1 -> 10\n2 -> 1\n"),
    ("gen", "subst 1d 01\n0 -> 00\n1 10\n"),
    ("gen", "subst 1d 00\n0 -> 00\n"),
    ("render", "dims 2\nalphabet 01\n12\n"),
    ("render", "dims 2\nalphabet \n..\n"),
    ("render", "dims 2\nalphabet 01\n\xff1\n"),
])
def test_cli_malformed_files_are_unsupported_format(tmp_path, capsys,
                                                    command, text):
    path = str(tmp_path / "input")
    (tmp_path / "input").write_bytes(text.encode("latin-1"))
    argv = {"ca": ["ca", "glider", "--rule", path],
            "tfg": ["tfg", "order", "--rule", path],
            "gen": ["gen", "--subst", path, "--seed", "1", "--iters", "1"],
            "render": ["render", "--pattern", path]}[command]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert json.loads(err)["error"]["kind"] == "UnsupportedFormat"


def test_cli_wildcard_past_the_cell_cap_is_a_size_limit(tmp_path, capsys,
                                                        monkeypatch):
    monkeypatch.setenv("BLOBSHIFT_CELL_CAP", "100")
    (tmp_path / "r3.ca").write_text("ca 01 radius 3\n* -> 0\n")
    assert main(["ca", "glider", "--rule", str(tmp_path / "r3.ca")]) == 2
    assert json.loads(capsys.readouterr().err)["error"]["kind"] == "SizeLimit"


def test_cell_cap_env_override(monkeypatch):
    from blobshift.errors import SizeLimit
    from blobshift.substitution import iterate_1d, thinning_substitution
    monkeypatch.setenv("BLOBSHIFT_CELL_CAP", "100")
    with pytest.raises(SizeLimit):
        iterate_1d(thinning_substitution(2), "1", 5)
    monkeypatch.delenv("BLOBSHIFT_CELL_CAP")
    assert len(iterate_1d(thinning_substitution(2), "1", 5)) == 4 ** 5


@pytest.mark.parametrize("raw", ["abc", "0"])
def test_bad_cell_cap_env_is_a_domain_error(files, capsys, monkeypatch, raw):
    monkeypatch.setenv("BLOBSHIFT_CELL_CAP", raw)
    code = main(["gen", "--subst", str(files / "plus.sub"), "--seed", "1",
                 "--iters", "1"])
    assert code == 2
    assert json.loads(capsys.readouterr().err)["error"]["kind"] == \
        "BlobshiftError"


def test_cli_reports_are_schema_one(files, capsys):
    report = run_json(capsys, "width", "--pattern", str(files / "word.pat"),
                      "--radius", "2")
    assert report["schema"] == 1
    assert report["tool"]["name"] == "blobshift"
    assert list(report) == ["schema", "tool", "command", "inputs", "result"]
