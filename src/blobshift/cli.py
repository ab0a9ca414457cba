"""Command-line entry point wiring all modules.

Every subcommand is a thin adapter over one library call: it returns a
result dict, or raw bytes for a render, and :func:`main` alone writes
it. JSON reports go to stdout with a fixed field order and no
timestamps, so identical inputs produce byte-identical output;
`--format text|pbm|svg-paths` switches pattern-emitting commands to raw
renders. Exit codes: 0 success, 1 usage error, 2 domain error; both
errors print one JSON line on stderr,
`{"schema": 1, "error": {"kind": ..., "message": ...}}`, with kind
`UsageError` for exit 1.
"""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import TYPE_CHECKING

from . import __version__
from .errors import BlobshiftError, UnsupportedFormat
from .patterns import (
    Pattern,
    blobs,
    essential_width_lower_bound,
    format_pattern,
    pad,
    parse_pattern,
    rows_of,
    sparsity,
    zero_glue,
)

if TYPE_CHECKING:
    from fractions import Fraction


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage problems; the report contract wants 1
    def error(self, message):
        raise _UsageError(message)


def _at_least(minimum: int):
    """argparse type for an integer no smaller than minimum."""
    def integer(raw: str) -> int:
        if int(raw) < minimum:
            raise argparse.ArgumentTypeError(f"must be at least {minimum}")
        return int(raw)
    return integer


def _slope(raw: str) -> Fraction:
    """argparse type for a rational slope p/q."""
    from fractions import Fraction

    num, _, den = raw.partition("/")
    try:
        return Fraction(int(num), int(den or "1"))
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"{raw!r} is not p/q") from None


def _int_list(raw: str) -> list[int]:
    """argparse type for a comma-separated list of integers."""
    try:
        return [int(v) for v in raw.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad integer list {raw!r}") from None


def _checked(call, *args):
    """Run a library call whose ValueError reports a bad argument."""
    try:
        return call(*args)
    except ValueError as exc:
        raise _UsageError(str(exc)) from exc


def _read(path: str, inputs: dict) -> str:
    import hashlib

    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        raise _UsageError(f"cannot read {path}: {exc.strerror}") from exc
    inputs[path] = hashlib.sha256(data).hexdigest()[:16]
    try:
        return data.decode()
    except UnicodeDecodeError:
        raise UnsupportedFormat(f"{path} is not UTF-8 text") from None


def _cells(cells) -> list:
    return [list(c) for c in cells]


def _emit(args, payload: bytes) -> None:
    if args.out is not None:
        try:
            Path(args.out).write_bytes(payload)
        except OSError as exc:
            raise _UsageError(
                f"cannot write {args.out}: {exc.strerror}") from exc
    else:
        sys.stdout.buffer.write(payload)
        sys.stdout.buffer.flush()


def _report(argv: list[str], inputs: dict, result: dict) -> bytes:
    """The JSON report of a result.

    The command drops its --out pair or --out=... token, so reports are
    location-independent; the parser takes no abbreviation of --out.
    """
    command = [token for token in argv if not token.startswith("--out=")]
    while "--out" in command:
        at = command.index("--out")
        del command[at:at + 2]
    report = {
        "schema": 1,
        "tool": {"name": "blobshift", "version": __version__},
        "command": command,
        "inputs": inputs,
        "result": result,
    }
    return (json.dumps(report, indent=2) + "\n").encode()


def _pattern_result(args, pattern: Pattern, result: dict) -> dict | bytes:
    """The pattern rendered as --format asks, or the result ending with it."""
    from . import render

    if args.format in render.PATTERN_FORMATS:
        return render.render_pattern(pattern, args.format)
    return {**result, "pattern": format_pattern(pattern)}


# -- subcommand handlers -------------------------------------------------------
#
# Each handler imports the library modules it runs, so a command loads only
# its own: most of a short command's time is compiling and importing them.
# A handler returns its result dict, or the bytes of a render; the library
# checks its own arguments, and _checked turns their ValueError into exit 1.


def _cmd_gen(args, inputs):
    from . import substitution

    subst = substitution.parse_substitution(_read(args.subst, inputs))
    seed = subst.alphabet.symbols[0] if args.seed is None else args.seed
    if isinstance(subst, substitution.Substitution1D):
        if args.seed_file is not None:
            raise _UsageError("--seed-file needs a 2D substitution")
        word = _checked(substitution.iterate_1d, subst, seed, args.iters)
        pattern = _checked(Pattern.from_word, word, subst.alphabet)
    else:
        if args.seed_file is not None:
            seed = parse_pattern(_read(args.seed_file, inputs))
        else:
            seed = _checked(Pattern, subst.alphabet, {(0, 0): seed})
        pattern = _checked(substitution.iterate_2d, subst, seed, args.iters)
    return _pattern_result(args, pattern, {
        "cells": len(pattern), "support": len(pattern.support())})


def _cmd_blobs(args, inputs):
    pattern = parse_pattern(_read(args.pattern, inputs))
    if args.pad:
        pattern = pad(pattern, args.pad)
    return {
        "radius": args.radius,
        "blobs": [{"anchor": list(anchor),
                   "support": _cells(sorted(blob.support())),
                   "cells": len(blob.pattern)}
                  for blob, anchor in blobs(pattern, args.radius)],
    }


def _cmd_glue(args, inputs):
    if len(args.pattern) != 2:
        raise _UsageError("glue needs exactly two --pattern files")
    p = parse_pattern(_read(args.pattern[0], inputs))
    q = parse_pattern(_read(args.pattern[1], inputs))
    glued = _checked(zero_glue, p, q)
    return _pattern_result(args, glued, {
        "cells": len(glued), "support": len(glued.support())})


def _cmd_width(args, inputs):
    rows = rows_of(parse_pattern(_read(args.pattern, inputs)))
    return {
        "radius": args.radius,
        "width_lower_bound": essential_width_lower_bound(rows, args.radius),
        "sparsity": sparsity(rows),
    }


def _pair_reports(report):
    """Each pair's fields, with passed() inserted before its counterexample."""
    rows = []
    for pair in report:
        row = pair._asdict()
        counterexample = row.pop("counterexample")
        rows.append({**row, "passed": pair.passed(),
                     "counterexample": counterexample})
    return rows


def _render_levels(args, hierarchy):
    if args.render_dir is None:
        return None
    from . import render

    outdir = Path(args.render_dir)
    written = []
    try:
        outdir.mkdir(parents=True, exist_ok=True)
        for level in hierarchy.levels:
            for ix, placement in enumerate(level.placements):
                name = f"level_r{level.radius}_blob{ix}.pbm"
                (outdir / name).write_bytes(
                    render.render_pattern(placement.blob.pattern, "pbm"))
                written.append(name)
    except OSError as exc:
        raise _UsageError(f"cannot write {outdir}: {exc.strerror}") from exc
    return written


def _cmd_fractal(args, inputs):
    from . import blobfractal

    pattern = parse_pattern(_read(args.pattern, inputs))
    if args.pad:
        pattern = pad(pattern, args.pad)
    radii = args.radii or blobfractal.auto_radii(pattern)
    hierarchy = blobfractal.build_hierarchy(pattern, radii)
    rendered = _render_levels(args, hierarchy)
    result = {"radii": radii,
              "levels": [{"radius": lvl.radius,
                          "blobs": len(lvl.placements),
                          "distinct": len(lvl.distinct())}
                         for lvl in hierarchy.levels]}
    if args.action == "verify":
        report = _checked(blobfractal.verify_axioms, hierarchy)
    else:
        verdict = blobfractal._classify(hierarchy, args.threshold)
        result.update(verdict._asdict())
        del result["report"]
        report = verdict.report
    result["pairs"] = _pair_reports(report)
    if rendered is not None:
        result["rendered"] = rendered
    return result


def _cmd_classify_path(args, inputs):
    from dataclasses import asdict, replace

    from . import paths, substitution

    subst = substitution.parse_substitution(_read(args.subst, inputs))
    verdict = _checked(paths.classify_path_space, subst, args.horizon)
    witness = paths.format_moves(verdict.witness) if verdict.witness else None
    return asdict(replace(verdict, witness=witness))


def _cmd_pathcover(args, inputs):
    from . import pathcover

    if args.action != "guided":
        pattern = parse_pattern(_read(args.pattern, inputs))
    if args.action == "geodesic":
        path = pathcover.geodesic_witness(pattern, args.radius)
        return {"length": len(path), "cells": _cells(path.cells)}
    if args.action == "ascend":
        path, spent, complete = pathcover._ascend(
            pattern, args.radius, args.window, args.budget)
        return {
            "found": path is not None,
            "budget": args.budget,
            "spent": spent,
            "complete": complete,
            "length": len(path) if path else 0,
            "cells": _cells(path.cells) if path else [],
        }
    # guided
    if args.slope is not None:
        if args.steps or args.offsets:
            raise _UsageError("guided takes --slope or --steps with --offsets,"
                              " not both")
        offsets = [int(c) for c in _checked(pathcover.sturmian_word,
                                            args.slope, args.length)]
        steps = [1] * args.length
    else:
        if not args.steps or not args.offsets:
            raise _UsageError("guided needs --slope or --steps with --offsets")
        steps, offsets = args.steps, args.offsets
    pattern = _checked(pathcover.trace_guided_path, steps, offsets, args.length)
    return _pattern_result(args, pattern, {"support": len(pattern.support())})


def _cmd_ca(args, inputs):
    from . import automata

    rule = automata.parse_ca_rule(_read(args.rule, inputs))
    if args.action == "glider":
        hit = automata.find_glider(rule, args.max_width, args.max_time)
        result = {"found": hit is not None}
        if hit:
            config, n, m = hit
            result.update({"word": config.word, "steps": n, "shift": m})
        return result
    if args.action == "nilpotent":
        return automata.nilpotency_probe(rule, args.max_width,
                                         args.max_time)._asdict()
    config = _checked(automata.FiniteConfig.make, args.config, args.offset,
                      rule.alphabet)
    return {"profile": automata.asymptotic_profile(rule, config, args.horizon)}


def _cmd_tfg(args, inputs):
    from . import automata

    element = automata.parse_tfg_element(_read(args.rule, inputs))
    automata.tfg_validate(element)
    return automata.tfg_order_search(element, args.max_order,
                                     args.max_period)._asdict()


def _cmd_primes(args, inputs):
    from . import primes

    if args.action == "crt":
        return _checked(primes.crt_zero_run, args.n, args.injection)._asdict()
    if args.action == "dirichlet":
        k, modulus, p = _checked(primes.dirichlet_isolated, args.n,
                                 args.scan_limit, args.injection)
        return {"n": args.n, "k": k, "modulus": modulus, "prime": p}
    window = primes.sieve(args.limit)
    if args.action == "lang":
        words = sorted(_checked(primes.late_language, window, args.length,
                                args.threshold))
        return {"length": args.length, "threshold": args.threshold,
                "limit": args.limit, "words": words}
    if args.action == "isolated":
        return {"n": args.n, "limit": args.limit,
                "prime": primes.isolated_prime_search(args.n, window)}
    if args.action == "gaps":
        return {"threshold": args.threshold, "limit": args.limit,
                "gap_floor": _checked(primes.gap_floor, window,
                                      args.threshold)}
    # export
    pattern = _checked(primes.char_pattern, window, args.start, args.end)
    return format_pattern(pattern).encode()


def _cmd_render(args, inputs):
    from . import render

    if args.moves is not None:
        from . import paths

        word = _checked(paths.parse_moves, args.moves)
        if args.format != "svg-paths":
            raise _UsageError("move words render as --format svg-paths")
        return render.render_moves(word)
    if args.pattern is None:
        raise _UsageError("render needs --pattern or --moves")
    if args.format not in render.PATTERN_FORMATS:
        raise _UsageError("patterns render as --format text or pbm")
    pattern = parse_pattern(_read(args.pattern, inputs))
    return render.render_pattern(pattern, args.format)


# -- parser ----------------------------------------------------------------------
#
# Every command is one _COMMANDS entry: its handler, its summary, its flag
# definitions and the flags it takes, in order. A command with actions takes
# them per action instead: one parser per action, holding only the flags its
# branch of the handler reads, so any other flag is a usage error. Flags in a
# tuple are a group, and the flags of a group exclude each other.

_FORMATS = ("json", "text", "pbm")
_PAD = dict(type=_at_least(0), default=0,
            help="zero-pad the window by this radius first")

# command: (handler, summary, flag definitions, its flags or each action's)
_COMMANDS = {
    "gen": (_cmd_gen, "iterate a substitution", {
        "--subst": dict(required=True),
        "--seed": {},
        "--seed-file": {},
        "--iters": dict(type=_at_least(0), required=True),
        "--format": dict(default="json", choices=_FORMATS),
    }, ("--subst", ("--seed", "--seed-file"), "--iters", "--format")),
    "blobs": (_cmd_blobs, "blob decomposition of a pattern", {
        "--pattern": dict(required=True),
        "--radius": dict(type=_at_least(0), required=True),
        "--pad": _PAD,
    }, ("--pattern", "--radius", "--pad")),
    "glue": (_cmd_glue, "zero-glue two patterns", {
        "--pattern": dict(action="append", required=True),
        "--format": dict(default="json", choices=_FORMATS),
    }, ("--pattern", "--format")),
    "width": (_cmd_width, "essential width lower bound and sparsity", {
        "--pattern": dict(required=True),
        "--radius": dict(type=_at_least(0), required=True),
    }, ("--pattern", "--radius")),
    "classify-path": (_cmd_classify_path,
                      "classify the path space of a move substitution", {
        "--subst": dict(required=True),
        "--horizon": dict(type=_at_least(1), required=True),
    }, ("--subst", "--horizon")),
    "render": (_cmd_render, "render a pattern or a move word", {
        "--pattern": {},
        "--moves": {},
        "--format": dict(default="text", choices=("text", "pbm", "svg-paths")),
    }, (("--pattern", "--moves"), "--format")),
    "fractal": (_cmd_fractal, "blob hierarchy verification", {
        "--pattern": dict(required=True),
        "--pad": _PAD,
        "--radii": dict(type=_int_list,
                        help="comma-separated strictly increasing radii"),
        "--threshold": dict(type=_at_least(1), default=50),
        "--render-dir": dict(
            help="write one PBM per level blob into this directory"),
    }, {
        "verify": ("--pattern", "--pad", "--radii", "--render-dir"),
        "classify": ("--pattern", "--pad", "--radii", "--threshold",
                     "--render-dir"),
    }),
    "pathcover": (_cmd_pathcover, "paths drawn on supports", {
        "--pattern": dict(required=True),
        "--radius": dict(type=_at_least(0), default=1),
        "--window": dict(type=_at_least(1), default=1,
                         help="ascension window"),
        "--budget": dict(type=_at_least(1), default=200_000),
        "--length": dict(type=_at_least(0), default=64),
        "--slope": dict(type=_slope, help="rational slope p/q in [0, 1] "
                                          "for Sturmian offsets"),
        "--steps": dict(type=_int_list, help="comma-separated vertical steps"),
        "--offsets": dict(type=_int_list,
                          help="comma-separated horizontal offsets"),
        "--format": dict(default="json", choices=_FORMATS),
    }, {
        "geodesic": ("--pattern", "--radius"),
        "ascend": ("--pattern", "--radius", "--window", "--budget"),
        "guided": ("--length", "--slope", "--steps", "--offsets", "--format"),
    }),
    "ca": (_cmd_ca, "cellular automaton probes", {
        "--rule": dict(required=True),
        "--max-width": dict(type=_at_least(1), default=4),
        "--max-time": dict(type=_at_least(1), default=16),
        "--config": dict(default="1"),
        "--offset": dict(type=int, default=0),
        "--horizon": dict(type=_at_least(0), default=32),
    }, {
        "glider": ("--rule", "--max-width", "--max-time"),
        "nilpotent": ("--rule", "--max-width", "--max-time"),
        "profile": ("--rule", "--config", "--offset", "--horizon"),
    }),
    "tfg": (_cmd_tfg, "topological full group order search", {
        "--rule": dict(required=True),
        "--max-order": dict(type=_at_least(1), default=8),
        "--max-period": dict(type=_at_least(1), default=4),
    }, {
        "order": ("--rule", "--max-order", "--max-period"),
    }),
    "primes": (_cmd_primes, "prime subshift probes", {
        "--limit": dict(type=_at_least(2), default=10 ** 6),
        "--length": dict(type=_at_least(1), default=3),
        "--threshold": dict(type=_at_least(0), default=10 ** 5),
        "--n": dict(type=_at_least(0), default=1),
        "--injection": dict(type=_int_list),
        "--scan-limit": dict(type=_at_least(0), default=10 ** 5),
        "--start": dict(type=_at_least(0), default=0),
        "--end": dict(type=int, default=None),
    }, {
        "lang": ("--limit", "--length", "--threshold"),
        "crt": ("--n", "--injection"),
        "isolated": ("--n", "--limit"),
        "dirichlet": ("--n", "--scan-limit", "--injection"),
        "gaps": ("--limit", "--threshold"),
        "export": ("--limit", "--start", "--end"),
    }),
}


def _named(argv: list[str]) -> tuple[str | None, str | None]:
    """The command and the action that argv names; None where it names none.

    A flag between an action command and its action is refused: the
    command's parser does not know the flag, so it would read the flag's
    value as the action and name that in its error.
    """
    if not argv or argv[0] not in _COMMANDS:
        return None, None
    command, actions = argv[0], _COMMANDS[argv[0]][3]
    if not isinstance(actions, dict) or len(argv) < 2:
        return command, None
    word = argv[1]
    if word.startswith("-") and word not in ("-h", "--help"):
        flag = word.partition("=")[0]
        raise _UsageError(f"{flag} before the action: flags go after the "
                          f"action, as in blobshift {command} "
                          f"{{{','.join(actions)}}} {flag} ...")
    return command, word if word in actions else None


def _build_parser(command: str | None = None,
                  action: str | None = None) -> _Parser:
    """The parser tree, cut to one command and one action where given.

    A parser that argv does not reach changes neither the parse nor any
    message, so :func:`main` builds only what :func:`_named` names.
    """
    parser = _Parser(prog="blobshift", description=__doc__,
                     allow_abbrev=False)
    parser.add_argument("--version", action="version", version=__version__)
    # each prog is the one argparse would format from the usage line, which
    # costs more than the rest of add_subparsers
    sub = parser.add_subparsers(dest="cmd", required=True, prog=parser.prog)
    for name, (handler, summary, flags, takes) in _COMMANDS.items():
        if command not in (None, name):
            continue
        # (subparsers, name, flags taken, add_parser keywords) per leaf; an
        # action's parser has no summary
        leaves = [(sub, name, takes, {"help": summary})]
        if isinstance(takes, dict):
            parsers = sub.add_parser(name, allow_abbrev=False, help=summary)
            actions = parsers.add_subparsers(dest="action", required=True,
                                             prog=parsers.prog)
            leaves = [(actions, leaf, names, {})
                      for leaf, names in takes.items()
                      if action in (None, leaf)]
        for parsers, leaf, names, kwargs in leaves:
            p = parsers.add_parser(leaf, allow_abbrev=False, **kwargs)
            p.set_defaults(handler=handler)
            p.add_argument("--out",
                           help="write output to a file instead of stdout")
            for entry in names:
                if isinstance(entry, tuple):
                    group = p.add_mutually_exclusive_group()
                    for flag in entry:
                        group.add_argument(flag, **flags[flag])
                else:
                    p.add_argument(entry, **flags[entry])
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    inputs: dict = {}
    try:
        args = _build_parser(*_named(argv)).parse_args(argv)
        result = args.handler(args, inputs)
        _emit(args, result if isinstance(result, bytes)
              else _report(argv, inputs, result))
        return 0
    except _UsageError as exc:
        _print_error("UsageError", exc)
        return 1
    except BlobshiftError as exc:
        _print_error(type(exc).__name__, exc)
        return 2


def _print_error(kind: str, exc: Exception) -> None:
    error = {"schema": 1, "error": {"kind": kind, "message": str(exc)}}
    print(json.dumps(error), file=sys.stderr)
