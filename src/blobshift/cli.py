"""Command-line entry point wiring all modules.

Every subcommand is a thin adapter over one library call. JSON reports go
to stdout with a fixed field order and no timestamps, so identical inputs
produce byte-identical output; `--format text|pbm|svg-paths` switches
pattern-emitting commands to raw renders. Exit codes: 0 success, 1 usage
error, 2 domain error.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import sys
from fractions import Fraction
from pathlib import Path

from . import __version__
from .errors import BlobshiftError, UnsupportedFormat
from . import automata, blobfractal, pathcover, paths, primes, render, substitution
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
    """argparse type for a rational slope p/q in [0, 1]."""
    num, _, den = raw.partition("/")
    try:
        alpha = Fraction(int(num), int(den or "1"))
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"{raw!r} is not p/q") from None
    if not 0 <= alpha <= 1:
        raise argparse.ArgumentTypeError("must lie in [0, 1]")
    return alpha


def _int_list(raw: str) -> list[int]:
    try:
        return [int(v) for v in raw.split(",")]
    except ValueError:
        raise _UsageError(f"bad integer list {raw!r}") from None


def _checked(call, *args):
    """Run a library call whose ValueError reports a bad argument."""
    try:
        return call(*args)
    except ValueError as exc:
        raise _UsageError(str(exc)) from exc


def _read(path: str, inputs: dict) -> str:
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        raise _UsageError(f"cannot read {path}: {exc.strerror}") from exc
    inputs[path] = hashlib.sha256(data).hexdigest()[:16]
    try:
        return data.decode()
    except UnicodeDecodeError:
        raise UnsupportedFormat(f"{path} is not UTF-8 text") from None


def _jsonable(value):
    if isinstance(value, Fraction):
        return {"num": value.numerator, "den": value.denominator}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, (set, frozenset)):
        return sorted(_jsonable(v) for v in value)
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    return value


def _cells(cells) -> list:
    return [list(c) for c in sorted(cells)]


def _emit(args, payload: bytes) -> None:
    if getattr(args, "out", None):
        Path(args.out).write_bytes(payload)
    else:
        sys.stdout.buffer.write(payload)
        sys.stdout.buffer.flush()


def _echo(command: list[str]) -> list[str]:
    """The command without its --out pair: reports are location-independent."""
    out = []
    skip = False
    for token in command:
        if skip:
            skip = False
            continue
        if token == "--out":
            skip = True
            continue
        out.append(token)
    return out


def _report(args, command: list[str], inputs: dict, result: dict) -> int:
    report = {
        "schema": 1,
        "tool": {"name": "blobshift", "version": __version__},
        "command": _echo(command),
        "inputs": inputs,
        "result": _jsonable(result),
    }
    payload = (json.dumps(report, indent=2) + "\n").encode()
    _emit(args, payload)
    return 0


def _pattern_report(args, argv, inputs, pattern: Pattern, result: dict) -> int:
    """The pattern rendered as --format asks, or a report ending with it."""
    if args.format in render.PATTERN_FORMATS:
        _emit(args, render.render_pattern(pattern, args.format))
        return 0
    return _report(args, argv, inputs,
                   {**result, "pattern": format_pattern(pattern)})


# -- subcommand handlers -------------------------------------------------------


def _cmd_gen(args, argv, inputs):
    subst = substitution.parse_substitution(_read(args.subst, inputs))
    symbols = subst.alphabet.symbols
    if isinstance(subst, substitution.Substitution1D):
        if args.seed_file:
            raise _UsageError("--seed-file needs a 2D substitution")
        seed = args.seed or symbols[0]
        if not set(seed) <= set(symbols):
            raise _UsageError(f"--seed {seed!r} leaves the alphabet")
        word = substitution.iterate_1d(subst, seed, args.iters, cap=args.cap)
        pattern = Pattern.from_word(word, subst.alphabet)
    else:
        if args.seed_file:
            seed = parse_pattern(_read(args.seed_file, inputs))
            if any(len(c) != 2 or v not in symbols for c, v in seed.items()):
                raise _UsageError("--seed-file needs a 2D pattern over the "
                                  "substitution's alphabet")
        else:
            symbol = args.seed or symbols[0]
            if symbol not in symbols:
                raise _UsageError(f"--seed {symbol!r} is not one symbol "
                                  "of the alphabet")
            seed = Pattern(subst.alphabet, {(0, 0): symbol})
        pattern = substitution.iterate_2d(subst, seed, args.iters, cap=args.cap)
    return _pattern_report(args, argv, inputs, pattern, {
        "cells": len(pattern), "support": len(pattern.support())})


def _cmd_blobs(args, argv, inputs):
    pattern = parse_pattern(_read(args.pattern, inputs))
    if args.pad:
        pattern = pad(pattern, args.pad)
    found = blobs(pattern, args.radius)
    return _report(args, argv, inputs, {
        "radius": args.radius,
        "blobs": [{"anchor": list(anchor),
                   "support": _cells(blob.support()),
                   "cells": len(blob.pattern)}
                  for blob, anchor in found],
    })


def _cmd_glue(args, argv, inputs):
    if len(args.pattern) != 2:
        raise _UsageError("glue needs exactly two --pattern files")
    p = parse_pattern(_read(args.pattern[0], inputs))
    q = parse_pattern(_read(args.pattern[1], inputs))
    glued = zero_glue(p, q)
    return _pattern_report(args, argv, inputs, glued, {
        "cells": len(glued), "support": len(glued.support())})


def _cmd_width(args, argv, inputs):
    pattern = parse_pattern(_read(args.pattern, inputs))
    rows = rows_of(pattern)
    return _report(args, argv, inputs, {
        "radius": args.radius,
        "width_lower_bound": essential_width_lower_bound(rows, args.radius),
        "sparsity": sparsity(rows),
    })


def _parse_radii(raw: str) -> list[int]:
    try:
        return [int(part) for part in raw.split(",") if part]
    except ValueError as exc:
        raise _UsageError(f"bad radii list {raw!r}") from exc


def _pair_reports(report):
    return [{
        "lower_radius": pair.lower_radius,
        "upper_radius": pair.upper_radius,
        "checked": pair.checked,
        "skipped_truncated": pair.skipped_truncated,
        "glue_exact": pair.glue_exact,
        "contains_all": pair.contains_all,
        "splits_in_two": pair.splits_in_two,
        "passed": pair.passed(),
        "counterexample": pair.counterexample,
    } for pair in report]


def _render_levels(args, hierarchy):
    if not getattr(args, "render_dir", None):
        return None
    outdir = Path(args.render_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    written = []
    for level in hierarchy.levels:
        for ix, placement in enumerate(level.placements):
            name = f"level_r{level.radius}_blob{ix}.pbm"
            (outdir / name).write_bytes(
                render.render_pattern(placement.blob.pattern, "pbm"))
            written.append(name)
    return written


def _cmd_fractal(args, argv, inputs):
    pattern = parse_pattern(_read(args.pattern, inputs))
    if args.pad:
        pattern = pad(pattern, args.pad)
    radii = (_parse_radii(args.radii) if args.radii
             else blobfractal.auto_radii(pattern))
    hierarchy = blobfractal.build_hierarchy(pattern, radii)
    rendered = _render_levels(args, hierarchy)
    levels = [{"radius": lvl.radius,
               "blobs": len(lvl.placements),
               "distinct": len(lvl.distinct())}
              for lvl in hierarchy.levels]
    if args.action == "verify":
        report = _checked(blobfractal.verify_axioms, hierarchy)
        result = {
            "radii": radii,
            "levels": levels,
            "pairs": _pair_reports(report),
        }
    else:
        verdict = blobfractal._classify(hierarchy, args.threshold)
        result = {
            "radii": radii,
            "levels": levels,
            "tag": verdict.tag,
            "radius": verdict.radius,
            "witness_length": verdict.witness_length,
            "levels_verified": verdict.levels_verified,
            "pairs": _pair_reports(verdict.report),
        }
    if rendered is not None:
        result["rendered"] = rendered
    return _report(args, argv, inputs, result)


def _cmd_classify_path(args, argv, inputs):
    subst = substitution.parse_substitution(_read(args.subst, inputs))
    if not isinstance(subst, substitution.Substitution1D):
        raise _UsageError("classify-path needs a 1D substitution")
    verdict = paths.classify_path_space(subst, args.horizon)
    return _report(args, argv, inputs, {
        "tag": verdict.tag,
        "constant": verdict.constant,
        "witness": (paths.format_moves(verdict.witness)
                    if verdict.witness else None),
        "horizon": verdict.horizon,
        "details": verdict.details,
    })


def _cmd_pathcover(args, argv, inputs):
    if args.action != "guided" and not args.pattern:
        raise _UsageError(f"{args.action} needs --pattern")
    if args.action != "guided" and args.format != "json":
        raise _UsageError(f"{args.action} reports only as --format json")
    if args.action == "geodesic":
        pattern = parse_pattern(_read(args.pattern, inputs))
        path = pathcover.geodesic_witness(pattern, args.radius)
        return _report(args, argv, inputs, {
            "length": len(path), "cells": _cells_in_order(path)})
    if args.action == "ascend":
        pattern = parse_pattern(_read(args.pattern, inputs))
        path, spent, complete = pathcover._ascend(
            pattern, args.radius, args.window, args.budget)
        return _report(args, argv, inputs, {
            "found": path is not None,
            "budget": args.budget,
            "spent": spent,
            "complete": complete,
            "length": len(path) if path else 0,
            "cells": _cells_in_order(path) if path else [],
        })
    # guided
    if args.slope is not None:
        offsets = [int(c) for c in
                   pathcover.sturmian_word(args.slope, args.length)]
        steps = [1] * args.length
    else:
        if not args.steps or not args.offsets:
            raise _UsageError("guided needs --slope or --steps with --offsets")
        steps = _int_list(args.steps)
        offsets = _int_list(args.offsets)
    pattern = _checked(pathcover.trace_guided_path, steps, offsets, args.length)
    return _pattern_report(args, argv, inputs, pattern,
                           {"support": len(pattern.support())})


def _cells_in_order(path) -> list:
    return [list(c) for c in path.cells]


def _cmd_ca(args, argv, inputs):
    rule = automata.parse_ca_rule(_read(args.rule, inputs))
    if args.action == "glider":
        hit = automata.find_glider(rule, args.max_width, args.max_time)
        result = {"found": hit is not None}
        if hit:
            config, n, m = hit
            result.update({"word": config.word, "steps": n, "shift": m})
        return _report(args, argv, inputs, result)
    if args.action == "nilpotent":
        verdict = automata.nilpotency_probe(rule, args.max_width, args.max_time)
        return _report(args, argv, inputs, {
            "tag": verdict.tag, "steps": verdict.steps,
            "witness": verdict.witness})
    if not set(args.config) <= set(rule.alphabet.symbols):
        raise _UsageError(f"--config {args.config!r} leaves the alphabet")
    config = automata.FiniteConfig.make(args.config, args.offset, rule.alphabet)
    profile = automata.asymptotic_profile(rule, config, args.horizon)
    return _report(args, argv, inputs, {"profile": profile})


def _cmd_tfg(args, argv, inputs):
    element = automata.parse_tfg_element(_read(args.rule, inputs))
    automata.tfg_validate(element)
    verdict = automata.tfg_order_search(element, args.max_order, args.max_period)
    return _report(args, argv, inputs, {
        "tag": verdict.tag, "order": verdict.order, "witness": verdict.witness})


def _cmd_primes(args, argv, inputs):
    if args.action == "lang":
        window = primes.sieve(args.limit)
        words = sorted(_checked(primes.late_language, window, args.length,
                                args.threshold))
        return _report(args, argv, inputs, {
            "length": args.length, "threshold": args.threshold,
            "limit": args.limit, "words": words})
    if args.action == "crt":
        injection = _int_list(args.injection) if args.injection else None
        witness = _checked(primes.crt_zero_run, args.n, injection)
        return _report(args, argv, inputs, {
            "n": witness.n, "injection": list(witness.injection),
            "k": witness.k, "modulus": witness.modulus,
            "start": witness.start})
    if args.action == "isolated":
        window = primes.sieve(args.limit)
        found = primes.isolated_prime_search(args.n, window)
        return _report(args, argv, inputs, {
            "n": args.n, "limit": args.limit, "prime": found})
    if args.action == "dirichlet":
        k, modulus, p = _checked(primes.dirichlet_isolated, args.n,
                                 args.scan_limit)
        return _report(args, argv, inputs, {
            "n": args.n, "k": k, "modulus": modulus, "prime": p})
    if args.action == "gaps":
        window = primes.sieve(args.limit)
        return _report(args, argv, inputs, {
            "threshold": args.threshold, "limit": args.limit,
            "gap_floor": _checked(primes.gap_floor, window, args.threshold)})
    # export
    window = primes.sieve(args.limit)
    pattern = _checked(primes.char_pattern, window, args.start, args.end)
    _emit(args, format_pattern(pattern).encode())
    return 0


def _cmd_render(args, argv, inputs):
    if args.moves:
        word = _checked(paths.parse_moves, args.moves)
        if args.format != "svg-paths":
            raise _UsageError("move words render as --format svg-paths")
        _emit(args, render.render_moves(word))
        return 0
    if not args.pattern:
        raise _UsageError("render needs --pattern or --moves")
    pattern = parse_pattern(_read(args.pattern, inputs))
    _emit(args, render.render_pattern(pattern, args.format))
    return 0


# -- parser ----------------------------------------------------------------------


def _build_parser() -> _Parser:
    parser = _Parser(prog="blobshift", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="cmd", required=True)

    def add(name, handler, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(handler=handler)
        p.add_argument("--out", help="write output to a file instead of stdout")
        return p

    p = add("gen", _cmd_gen, help="iterate a substitution")
    p.add_argument("--subst", required=True)
    p.add_argument("--seed")
    p.add_argument("--seed-file", dest="seed_file")
    p.add_argument("--iters", type=_at_least(0), required=True)
    p.add_argument("--cap", type=_at_least(1), default=None)
    p.add_argument("--format", default="json",
                   choices=("json", "text", "pbm"))

    p = add("blobs", _cmd_blobs, help="blob decomposition of a pattern")
    p.add_argument("--pattern", required=True)
    p.add_argument("--radius", type=_at_least(0), required=True)
    p.add_argument("--pad", type=_at_least(0), default=0,
                   help="zero-pad the window by this radius first")

    p = add("glue", _cmd_glue, help="zero-glue two patterns")
    p.add_argument("--pattern", action="append", required=True)
    p.add_argument("--format", default="json",
                   choices=("json", "text", "pbm"))

    p = add("width", _cmd_width, help="essential width lower bound and sparsity")
    p.add_argument("--pattern", required=True)
    p.add_argument("--radius", type=_at_least(0), required=True)

    p = add("fractal", _cmd_fractal, help="blob hierarchy verification")
    p.add_argument("action", choices=("verify", "classify"))
    p.add_argument("--pattern", required=True)
    p.add_argument("--pad", type=_at_least(0), default=0,
                   help="zero-pad the window by this radius first")
    p.add_argument("--radii", help="comma-separated strictly increasing radii")
    p.add_argument("--threshold", type=_at_least(1), default=50)
    p.add_argument("--render-dir", dest="render_dir",
                   help="write one PBM per level blob into this directory")

    p = add("classify-path", _cmd_classify_path,
            help="classify the path space of a move substitution")
    p.add_argument("--subst", required=True)
    p.add_argument("--horizon", type=_at_least(1), required=True)

    p = add("pathcover", _cmd_pathcover, help="paths drawn on supports")
    p.add_argument("action", choices=("geodesic", "ascend", "guided"))
    p.add_argument("--pattern")
    p.add_argument("--radius", type=_at_least(0), default=1)
    p.add_argument("--window", type=_at_least(1), default=1,
                   help="ascension window for ascend")
    p.add_argument("--budget", type=_at_least(1), default=200_000)
    p.add_argument("--length", type=_at_least(0), default=64)
    p.add_argument("--slope", type=_slope,
                   help="rational slope p/q in [0, 1] for Sturmian offsets")
    p.add_argument("--steps", help="comma-separated vertical steps")
    p.add_argument("--offsets", help="comma-separated horizontal offsets")
    p.add_argument("--format", default="json",
                   choices=("json", "text", "pbm"))

    p = add("ca", _cmd_ca, help="cellular automaton probes")
    p.add_argument("action", choices=("glider", "nilpotent", "profile"))
    p.add_argument("--rule", required=True)
    p.add_argument("--max-width", dest="max_width", type=_at_least(1),
                   default=4)
    p.add_argument("--max-time", dest="max_time", type=_at_least(1),
                   default=16)
    p.add_argument("--config", default="1")
    p.add_argument("--offset", type=int, default=0)
    p.add_argument("--horizon", type=_at_least(0), default=32)

    p = add("tfg", _cmd_tfg, help="topological full group order search")
    p.add_argument("action", choices=("order",))
    p.add_argument("--rule", required=True)
    p.add_argument("--max-order", dest="max_order", type=_at_least(1),
                   default=8)
    p.add_argument("--max-period", dest="max_period", type=_at_least(1),
                   default=4)

    p = add("primes", _cmd_primes, help="prime subshift probes")
    p.add_argument("action", choices=("lang", "crt", "isolated",
                                      "dirichlet", "gaps", "export"))
    p.add_argument("--limit", type=_at_least(2), default=10 ** 6)
    p.add_argument("--length", type=_at_least(1), default=3)
    p.add_argument("--threshold", type=_at_least(0), default=10 ** 5)
    p.add_argument("--n", type=_at_least(0), default=1)
    p.add_argument("--injection")
    p.add_argument("--scan-limit", dest="scan_limit", type=_at_least(0),
                   default=10 ** 5)
    p.add_argument("--start", type=_at_least(0), default=0)
    p.add_argument("--end", type=int, default=None)

    p = add("render", _cmd_render, help="render a pattern or a move word")
    p.add_argument("--pattern")
    p.add_argument("--moves")
    p.add_argument("--format", default="text",
                   choices=("text", "pbm", "svg-paths"))
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.handler(args, argv, {})
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except BlobshiftError as exc:
        error = {"schema": 1, "error": {
            "kind": type(exc).__name__, "message": str(exc)}}
        print(json.dumps(error), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
