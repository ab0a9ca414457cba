"""The CLI's option surface: each action takes only the flags it reads.

A flag that parses but that the handler never reads is a setting that does
nothing, so the surface is pinned here leaf by leaf, and every README
command must still parse under it.
"""
import argparse
import importlib
import json
import shlex
import sys
from pathlib import Path

import pytest

import blobshift.cli
from blobshift.cli import _build_parser, main
from test_render_cli import (BAD_ARGUMENTS, USAGE_MESSAGES, write_bad_files,
                             write_files)
from test_report_digests import INPUTS

README = Path(__file__).resolve().parent.parent / "README.md"

# each leaf parser's flags, beside -h/--help and --out, which all take
SURFACE = {
    ("gen",): "--subst --seed --seed-file --iters --format",
    ("blobs",): "--pattern --radius --pad",
    ("glue",): "--pattern --format",
    ("width",): "--pattern --radius",
    ("classify-path",): "--subst --horizon",
    ("render",): "--pattern --moves --format",
    ("fractal", "verify"): "--pattern --pad --radii --render-dir",
    ("fractal", "classify"): "--pattern --pad --radii --threshold --render-dir",
    ("pathcover", "geodesic"): "--pattern --radius",
    ("pathcover", "ascend"): "--pattern --radius --window --budget",
    ("pathcover", "guided"): "--length --slope --steps --offsets --format",
    ("ca", "glider"): "--rule --max-width --max-time",
    ("ca", "nilpotent"): "--rule --max-width --max-time",
    ("ca", "profile"): "--rule --config --offset --horizon",
    ("tfg", "order"): "--rule --max-order --max-period",
    ("primes", "lang"): "--limit --length --threshold",
    ("primes", "crt"): "--n --injection",
    ("primes", "isolated"): "--n --limit",
    ("primes", "dirichlet"): "--n --scan-limit --injection",
    ("primes", "gaps"): "--limit --threshold",
    ("primes", "export"): "--limit --start --end",
}
ACTIONS = [words for words in SURFACE if len(words) == 2]


def leaves(parser, words=()):
    """(command words, parser) for each parser that takes no further word."""
    subparsers = [action for action in parser._actions
                  if isinstance(action, argparse._SubParsersAction)]
    if not subparsers:
        yield words, parser
    for sub in subparsers:
        for name, child in sub.choices.items():
            yield from leaves(child, words + (name,))


def test_each_leaf_takes_exactly_its_flags():
    found = {words: sorted(flag for action in leaf._actions
                           for flag in action.option_strings)
             for words, leaf in leaves(_build_parser())}
    assert found == {words: sorted(["-h", "--help", "--out", *flags.split()])
                     for words, flags in SURFACE.items()}
    assert sum(len(SURFACE[words].split()) for words in ACTIONS) == 48


# (action, flag) for each flag that a sibling action takes and it does not
FOREIGN = [(words, flag) for words in ACTIONS
           for flag in sorted({flag for other in ACTIONS
                               if other[0] == words[0]
                               for flag in SURFACE[other].split()}
                              - set(SURFACE[words].split()))]


@pytest.mark.parametrize("words,flag", FOREIGN,
                         ids=[" ".join((*w, f)) for w, f in FOREIGN])
def test_each_action_refuses_its_siblings_flags(capsys, words, flag):
    # the required inputs, so that the foreign flag is what is refused
    required = [token for needed in ("--pattern", "--rule")
                if needed in SURFACE[words].split()
                for token in (needed, "x")]
    assert main([*words, *required, flag, "1"]) == 1
    assert json.loads(capsys.readouterr().err) == {"schema": 1, "error": {
        "kind": "UsageError", "message": f"unrecognized arguments: {flag} 1"}}


def readme_commands():
    section = README.read_text().split("\n## CLI\n")[1].split("\n## ")[0]
    block = section.split("```sh\n")[1].split("```")[0]
    return [line for line in block.splitlines()
            if line.startswith("blobshift ")]


def test_readme_commands_parse():
    commands = readme_commands()
    assert len(commands) >= 20
    parser = _build_parser()
    for line in commands:
        parser.parse_args(shlex.split(line)[1:])


# argv that end in help, the version or an error of the parser
HELP = [[], ["--help"], ["--version"], ["nonsense"], ["--out", "f.json"],
        ["gen", "-h"], ["primes"], ["primes", "-h"], ["primes", "bogus"],
        ["primes", "lang", "--help"], ["pathcover", "geodesic", "-h"],
        ["blobs", "-h"], ["glue", "-h"], ["width", "-h"],
        ["classify-path", "-h"], ["render", "-h"], ["fractal", "-h"],
        ["fractal", "verify", "-h"], ["fractal", "classify", "-h"],
        ["pathcover", "-h"], ["pathcover", "ascend", "-h"],
        ["pathcover", "guided", "-h"], ["ca", "-h"], ["ca", "glider", "-h"],
        ["ca", "nilpotent", "-h"], ["ca", "profile", "-h"], ["tfg", "-h"],
        ["tfg", "order", "-h"], ["primes", "lang", "-h"],
        ["primes", "crt", "-h"], ["primes", "isolated", "-h"],
        ["primes", "dirichlet", "-h"], ["primes", "gaps", "-h"],
        ["primes", "export", "-h"]]
ANSWERED = ([shlex.split(line)[1:] for line in readme_commands()]
            + [argv for argv, _ in BAD_ARGUMENTS] + HELP)


def write_inputs(directory):
    """The digest inputs and the README's good and malformed files."""
    for name, text in INPUTS.items():
        (directory / name).write_text(text)
    write_bad_files(write_files(directory))


def answer(capsys, argv):
    """(exit code, stdout, stderr) of one command."""
    try:
        code = main(list(argv))
    except SystemExit as exc:  # help and --version exit in argparse
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("argv", ANSWERED,
                         ids=[" ".join(argv) or "-" for argv in ANSWERED])
def test_the_cut_parser_answers_as_the_full_tree(tmp_path, capsys,
                                                 monkeypatch, argv):
    # main builds only the command and action that argv names
    write_inputs(tmp_path)
    monkeypatch.chdir(tmp_path)
    cut = answer(capsys, argv)
    monkeypatch.setattr("blobshift.cli._build_parser",
                        lambda *names: _build_parser())
    assert answer(capsys, argv) == cut


def drive_cli(tmp_path, capsys, monkeypatch):
    """Answer the README commands, the refused argv, the help argv and the
    usage messages in process."""
    write_inputs(tmp_path)
    with monkeypatch.context() as patched:
        patched.chdir(tmp_path)
        patched.delenv("BLOBSHIFT_CELL_CAP", raising=False)
        # cli.py is imported afresh, since the parser table runs code at
        # import; the suite's module is put back afterwards
        patched.setattr(blobshift, "cli", blobshift.cli)
        patched.delitem(sys.modules, "blobshift.cli")
        fresh = importlib.import_module("blobshift.cli").main
        for argv in ANSWERED + [argv for argv, _ in USAGE_MESSAGES]:
            try:
                fresh(list(argv))
            except SystemExit:  # help and --version exit in argparse
                pass
            capsys.readouterr()
