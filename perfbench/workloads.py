"""The four workloads: seeded inputs, one pass of tasks, and their checks.

A builder takes the call namespace from :func:`tracer.api`, the seed and a
work directory. It generates every input there (that is set-up) and
returns the tasks of one pass. A pass is a fixed amount of work, so its
wall time compares across commits; the run repeats it until its time is
up. Each task is called with the namespace to use, so one set of inputs
serves untraced and traced passes alike.

Every task is one latency sample. The passes made of different calls
(large_windows, probes) hold an odd number of tasks, so the median task
latency falls inside one task's samples rather than in the gap between
two.
"""
from __future__ import annotations

import os
import random
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace
from typing import Callable

import checks


def _no_counts(_output) -> dict:
    return {}


@dataclass
class Task:
    name: str
    run: Callable          # run(api) -> output
    check: Callable        # check(output) -> list of failure messages
    count: Callable = _no_counts  # count(output) -> {counter: int}


def _check_rng(seed: int) -> random.Random:
    return random.Random(seed ^ 0xC4EC)


# -- large_windows ---------------------------------------------------------------

BLOCK_PAD, BLOCK_RADII = 18, (2, 6, 18)
# axiom pass flags of the level-3 block pattern j, padded by BLOCK_PAD
BLOCK_PASSED = {1: (True, False), 2: (False, True)}
CANTOR_PAD, CANTOR_RADII = 82, (2, 4, 10, 28, 82)
STAIR_LENGTH = 1000
ASCEND_BUDGET = 10_000


def large_windows(L, seed: int, workdir: Path) -> list[Task]:
    rng = random.Random(seed)
    j = rng.choice((1, 2))
    block = L.build_unbounded_rows(L.block_spec(2), 3, j)
    cantor = L.from_word(L.iterate_1d(L.cantor_substitution(), "1", 6))
    plus = L.iterate_2d(L.plus_substitution(),
                        L.Pattern(block.alphabet, {(0, 0): "1"}), 4)
    offsets = [int(c) for c in
               L.sturmian_word(Fraction(377, 610), STAIR_LENGTH)]
    stair = L.trace_guided_path([1] * STAIR_LENGTH, offsets, STAIR_LENGTH)

    def block_run(api):
        padded = api.pad(block, BLOCK_PAD)
        hierarchy = api.build_hierarchy(padded, BLOCK_RADII)
        return padded, hierarchy, api.verify_axioms(hierarchy)

    def block_check(out):
        padded, hierarchy, report = out
        return (checks.check_pad(block, padded, BLOCK_PAD)
                or checks.check_hierarchy(padded, hierarchy, BLOCK_RADII)
                or checks.check_report(hierarchy, report, BLOCK_PASSED[j]))

    def cantor_run(api):
        padded = api.pad(cantor, CANTOR_PAD)
        hierarchy = api.build_hierarchy(padded, CANTOR_RADII)
        report = api.verify_axioms(hierarchy)
        return padded, hierarchy, report, api.classify(padded, CANTOR_RADII, 50)

    def cantor_check(out):
        padded, hierarchy, report, verdict = out
        passed = (True,) * (len(CANTOR_RADII) - 1)
        failures = (checks.check_pad(cantor, padded, CANTOR_PAD)
                    or checks.check_hierarchy(padded, hierarchy, CANTOR_RADII)
                    or checks.check_report(hierarchy, report, passed))
        if not failures and (verdict.tag, verdict.levels_verified) != (
                "blob_fractal", len(CANTOR_RADII)):
            failures = [f"Cantor classified {verdict.tag} "
                        f"with {verdict.levels_verified} levels"]
        return failures

    def block_count(out):
        return {**checks.pad_counts(block, out[0], BLOCK_PAD),
                **checks.hierarchy_counts(out[1], out[2])}

    def cantor_count(out):
        return {**checks.pad_counts(cantor, out[0], CANTOR_PAD),
                **checks.hierarchy_counts(out[1], out[2])}

    def plus_run(api):
        padded = api.pad(plus, 2)
        return padded, api.classify(padded, (1, 2), 50)

    def plus_check(out):
        padded, verdict = out
        # a level-4 plus spans 3^4 cells from arm tip to arm tip
        got = (verdict.tag, verdict.radius, verdict.witness_length)
        return (checks.check_pad(plus, padded, 2)
                or ([] if got == ("unbounded_component", 1, 3 ** 4)
                    else [f"plus classified as {got}"]))

    def geodesic_check(path):
        return checks.check_geodesic(stair, path, 3)

    def ascend_check(path):
        return checks.check_ascending(stair, path, 1, 3)

    return [
        Task("block_hierarchy", block_run, block_check, block_count),
        Task("cantor_hierarchy", cantor_run, cantor_check, cantor_count),
        Task("plus_classify", plus_run, plus_check,
             lambda out: checks.pad_counts(plus, out[0], 2)),
        Task("stair_geodesic", lambda api: api.geodesic_witness(stair, 3),
             geodesic_check,
             lambda path: {"pathcover.geodesic_witness.path_len": len(path)}),
        Task("stair_ascend",
             lambda api: api.find_ascending_path(stair, 1, 3,
                                                 budget=ASCEND_BUDGET),
             ascend_check,
             lambda path: {"pathcover.find_ascending_path.path_len":
                           len(path) if path else 0}),
    ]


# -- blob_batch ---------------------------------------------------------------------

BATCH_PAIRS = 100


def blob_batch(L, seed: int, workdir: Path) -> list[Task]:
    """Distinct small windows, half 1D (40, 0.4), half 2D (12x12, 0.35).

    A task takes one window of each kind, so tasks are alike and the
    latency percentiles do not sit on the gap between 1D and 2D windows.
    """
    rng = random.Random(seed)
    words, grids = set(), set()
    while len(words) < BATCH_PAIRS:
        words.add("".join("1" if rng.random() < 0.4 else "0" for _ in range(40)))
    while len(grids) < BATCH_PAIRS:
        grids.add(tuple("".join("1" if rng.random() < 0.35 else "0"
                                for _ in range(12)) for _ in range(12)))
    return [Task("blob_pair", _blob_run(word, grid), _blob_check, _blob_count)
            for word, grid in zip(sorted(words), sorted(grids))]


def _blob_run(word: str, grid: tuple[str, ...]):
    def run(api):
        return [_blob_window(api, api.from_word(word)),
                _blob_window(api, api.from_rows(list(grid)))]
    return run


def _blob_window(api, core):
    padded = api.pad(core, 3)
    levels = []
    for r in (1, 2, 3):
        found = api.blobs(padded, r)
        rebuilt = None
        for blob, anchor in found:
            piece = api.translate(blob.pattern, anchor)
            rebuilt = piece if rebuilt is None else api.zero_glue(rebuilt, piece)
        levels.append((found, rebuilt))
    width = api.essential_width_lower_bound(api.rows_of(padded), 2)
    return core, padded, levels, width


def _blob_check(windows) -> list[str]:
    for core, padded, levels, width in windows:
        failures = checks.check_pad(core, padded, 3)
        for r, (found, rebuilt) in zip((1, 2, 3), levels):
            failures = (failures or checks.check_partition(padded, found, r)
                        or checks.check_rebuild(padded, rebuilt))
        if not failures and width != checks.width_oracle(padded, 2):
            failures = [f"width bound {width}, oracle "
                        f"{checks.width_oracle(padded, 2)}"]
        if failures:
            return failures
    return []


def _blob_count(windows) -> dict[str, int]:
    counts: dict[str, int] = {}
    for core, padded, levels, _ in windows:
        for key, value in checks.pad_counts(core, padded, 3).items():
            counts[key] = counts.get(key, 0) + value
        counts["patterns.blobs.blobs_out"] = (
            counts.get("patterns.blobs.blobs_out", 0)
            + sum(len(found) for found, _ in levels))
    return counts


# -- probes ---------------------------------------------------------------------------

HORIZON = 512
FLOOR_LEVELS = 12
SIEVE_LIMIT, LATE_LENGTH, LATE_THRESHOLD = 2 * 10 ** 6, 20, 10 ** 4
UNIT_MOVES = {"+": 1, "-": -1}


def _drawn_rule(L, rng: random.Random):
    """A zero-preserving radius-1 binary rule with seeded outputs."""
    windows = [f"{i:03b}" for i in range(8)]
    table = {w: ("0" if w == "000" else rng.choice("01")) for w in windows}
    return L.CARule(L.xor_rule().alphabet, 1, table)


def probes(L, seed: int, workdir: Path) -> list[Task]:
    rng = random.Random(seed)
    tasks = []
    tm, tm_moves = L.thue_morse_moves()
    for name, subst, moves in (("deep", L.deep_zigzag(), UNIT_MOVES),
                               ("drift", L.drift_zigzag(), UNIT_MOVES),
                               ("floor", L.floor_zigzag(), UNIT_MOVES),
                               ("thue_morse", tm, tm_moves)):
        tasks.append(_classify_task(name, subst, moves))

    floor = L.floor_zigzag()
    floor_words, word = [], "+"
    for _ in range(FLOOR_LEVELS):
        word = L.iterate_1d(floor, word, 1)
        floor_words.append(word)
    floor_moves = [L.move_word([UNIT_MOVES[c] for c in w], 1)
                   for w in floor_words]
    tasks.append(Task(
        "floor_profiles",
        lambda api: [api.visit_profile(w) for w in floor_moves],
        lambda profiles: checks.check_floor_profiles(floor_words, profiles)))

    drift = [UNIT_MOVES[c] for c in L.iterate_1d(L.drift_zigzag(), "+", 7)]
    language = [L.move_word(f, 1) for f in sorted(
        {tuple(drift[i:i + 20]) for i in range(len(drift) - 19)})]
    tasks.append(Task(
        "drift_cut", lambda api: api.cut_path_search(language, 1, 16),
        lambda cut: checks.check_cut(language, 1, 16, cut)))

    nil_inputs = [("xor", L.xor_rule(), 9), ("decrement", L.decrement_rule(), 7)]
    nil_inputs += [(f"drawn{i}", _drawn_rule(L, rng), 5) for i in range(3)]
    for name, rule, width in nil_inputs:
        tasks.append(_nilpotency_task(name, rule, width, 64, seed))
    # xor's left edge moves left every step while its right edge stays put,
    # so no finite configuration returns to a translate: no glider exists
    tasks.append(_glider_task("xor", L.xor_rule(), 11, 16, expect_none=True))
    tasks.append(_glider_task("shift", L.shift_rule(), 3, 8, expect_none=False))

    start = L.identity_element()
    pool = [L.shift_element(), L.shift_element(amount=-1), L.block_swap_element()]
    steps = [rng.choice(pool) for _ in range(7)]

    swap = L.block_swap_element()

    def full_group_run(api):
        acc, chain = start, []
        for el in steps:
            acc = api.compose(el, acc)
            chain.append(acc)
        return chain, api.tfg_order_search(api.tfg_validate(swap), 8, 4)

    def full_group_check(out):
        chain, verdict = out
        return (checks.check_compose_chain(steps, chain, _check_rng(seed))
                or checks.check_order(swap, verdict))

    tasks.append(Task(
        "full_group", full_group_run, full_group_check,
        lambda _: {"automata.compose.table_entries":
                   checks.compose_entries(start, steps)}))

    def primes_run(api):
        window = api.sieve(SIEVE_LIMIT)
        words = api.late_language(window, LATE_LENGTH, LATE_THRESHOLD)
        return (window, words, api.gap_floor(window, LATE_THRESHOLD),
                api.crt_zero_run(3, [5, 7, 11]),
                {n: api.dirichlet_isolated(n) for n in (1, 2)})

    tasks.append(Task(
        "primes",
        primes_run,
        lambda out: checks.check_primes(out[0], out[1], LATE_LENGTH,
                                        LATE_THRESHOLD, out[2], out[3], out[4],
                                        _check_rng(seed)),
        lambda out: checks.late_counts(out[0], out[1], LATE_LENGTH,
                                       LATE_THRESHOLD)))
    return tasks


def _classify_task(name: str, subst, moves: dict) -> Task:
    explicit = None if moves is UNIT_MOVES else moves
    seed = subst.alphabet.symbols[0]
    return Task(
        f"classify_{name}",
        lambda api: api.classify_path_space(subst, HORIZON, moves=explicit),
        lambda verdict: checks.check_path_verdict(
            dict(subst.rules), seed, moves, HORIZON, verdict),
        lambda verdict: {"paths.classify_path_space.search_length":
                         verdict.details.get("search_length", 0)})


def _nilpotency_task(name: str, rule, width: int, time: int, seed: int) -> Task:
    return Task(
        f"nilpotency_{name}",
        lambda api: api.nilpotency_probe(rule, width, time),
        lambda verdict: checks.check_nilpotency(rule, width, time, verdict,
                                                _check_rng(seed)),
        lambda verdict: {"automata.nilpotency_probe.configs":
                         checks.nilpotency_configs(rule, width, verdict)})


def _glider_task(name: str, rule, width: int, time: int,
                 expect_none: bool) -> Task:
    return Task(
        f"glider_{name}",
        lambda api: api.find_glider(rule, width, time),
        lambda hit: checks.check_find_glider(rule, hit, expect_none),
        lambda hit: {"automata.find_glider.configs":
                     checks.glider_configs(rule, width, hit)})


# -- cli_commands ----------------------------------------------------------------------

XOR_CA = "ca 01 radius 1\n* -> 0\n001 -> 1\n010 -> 1\n101 -> 1\n110 -> 1\n"
SWAP_TFG = ("ca 01 radius 1\n* -> shift 0\n010 -> shift 1\n110 -> shift 1\n"
            "101 -> shift -1\n100 -> shift -1\n")
STAIR_CLI = 300
# pinned per block pattern j (level 3, padded by 9)
CLI_BLOCK = {
    1: {"blobs": 4, "levels": [{"radius": 1, "blobs": 18, "distinct": 2},
                               {"radius": 3, "blobs": 4, "distinct": 3},
                               {"radius": 9, "blobs": 1, "distinct": 1}],
        "passed": [True, True]},
    2: {"blobs": 5, "levels": [{"radius": 1, "blobs": 18, "distinct": 2},
                               {"radius": 3, "blobs": 5, "distinct": 3},
                               {"radius": 9, "blobs": 2, "distinct": 2}],
        "passed": [True, False]},
}


class CliCommand:
    """One CLI invocation in a fresh interpreter, checked against its pins."""

    def __init__(self, name: str, argv: list[str], workdir: Path, expect):
        self.name = name
        self.argv = argv
        self.workdir = workdir
        self.expect = expect
        self.reference: bytes | None = None

    def run(self, api):
        env = dict(os.environ, PYTHONPATH=str(Path.cwd() / "src"))
        proc = subprocess.run([sys.executable, "-m", "blobshift", *self.argv],
                              cwd=self.workdir, env=env, capture_output=True,
                              timeout=120)
        return proc.returncode, proc.stdout

    def check(self, out):
        returncode, stdout = out
        failures = checks.check_cli(returncode, stdout, self.reference,
                                    self.expect)
        if self.reference is None and not failures:
            self.reference = stdout
        return failures

    def count(self, out):
        return {"cli.stdout_bytes": len(out[1])}


def _path_verdict(report: dict):
    witness = report.get("witness") or ""
    return SimpleNamespace(
        tag=report.get("tag"), constant=report.get("constant"),
        details=report.get("details", {}),
        witness=SimpleNamespace(moves=tuple(UNIT_MOVES[c] for c in witness)))


def cli_commands(L, seed: int, workdir: Path) -> list[Task]:
    rng = random.Random(seed)
    j = rng.choice((1, 2))
    block = L.build_unbounded_rows(L.block_spec(2), 3, j)
    cantor = L.pad(L.from_word(L.iterate_1d(L.cantor_substitution(), "1", 6)), 28)
    offsets = [int(c) for c in L.sturmian_word(Fraction(377, 610), STAIR_CLI)]
    stair = L.trace_guided_path([1] * STAIR_CLI, offsets, STAIR_CLI)
    deep = L.deep_zigzag()
    files = {
        "plus.sub": L.format_substitution(L.plus_substitution()),
        "deep.sub": L.format_substitution(deep),
        "block.pat": L.format_pattern(block),
        "cantor.pat": L.format_pattern(cantor),
        "stair.pat": L.format_pattern(stair),
        "xor.ca": XOR_CA,
        "swap.tfg": SWAP_TFG,
    }
    for name, text in files.items():
        (workdir / name).write_text(text)

    pins = CLI_BLOCK[j]
    xor, swap = L.xor_rule(), L.block_swap_element()
    guided_rise = 200 * 377 // 610

    def path_replay(result):
        return checks.check_path_verdict(dict(deep.rules), "+", UNIT_MOVES,
                                         HORIZON, _path_verdict(result))

    def nilpotency_replay(result):
        verdict = SimpleNamespace(tag=result["tag"], steps=result["steps"],
                                  witness=result["witness"])
        return checks.check_nilpotency(xor, 8, 32, verdict, _check_rng(seed))

    def order_replay(result):
        verdict = SimpleNamespace(tag=result["tag"], order=result["order"])
        return checks.check_order(swap, verdict)

    specs = [
        ("gen_plus", ["gen", "--subst", "plus.sub", "--seed", "1",
                      "--iters", "4", "--format", "pbm"],
         checks.check_pbm(81, 81, 5 ** 4)),
        ("blobs_block", ["blobs", "--pattern", "block.pat", "--pad", "9",
                         "--radius", "3"],
         checks.json_fields({"radius": 3,
                             "blobs": lambda v: len(v) == pins["blobs"]})),
        ("fractal_verify", ["fractal", "verify", "--pattern", "block.pat",
                            "--pad", "9", "--radii", "1,3,9"],
         checks.json_fields({"levels": pins["levels"],
                             "pairs": lambda v: [p["passed"] for p in v]
                             == pins["passed"]})),
        ("fractal_classify", ["fractal", "classify", "--pattern", "cantor.pat",
                              "--radii", "2,4,10,28", "--threshold", "100"],
         checks.json_fields({"tag": "blob_fractal", "levels_verified": 4})),
        ("classify_path", ["classify-path", "--subst", "deep.sub",
                           "--horizon", str(HORIZON)],
         checks.json_fields({"horizon": HORIZON}, path_replay)),
        ("geodesic", ["pathcover", "geodesic", "--pattern", "stair.pat",
                      "--radius", "1"],
         # the staircase is a simple path: its geodesic is all of it
         checks.json_fields({"length": 1 + STAIR_CLI + sum(offsets)})),
        ("guided", ["pathcover", "guided", "--slope", "377/610",
                    "--length", "200", "--format", "text"],
         checks.text_pattern(1 + guided_rise, 201, 1 + 200 + guided_rise)),
        ("ca_nilpotent", ["ca", "nilpotent", "--rule", "xor.ca",
                          "--max-width", "8", "--max-time", "32"],
         checks.json_fields({}, nilpotency_replay)),
        ("tfg_order", ["tfg", "order", "--rule", "swap.tfg",
                       "--max-order", "8", "--max-period", "4"],
         checks.json_fields({"order": 2}, order_replay)),
        ("primes_lang", ["primes", "lang", "--limit", "1000000",
                         "--length", "3", "--threshold", "100000"],
         # past 10^5 no two adjacent integers are both prime
         checks.json_fields({"words": ["000", "001", "010", "100", "101"]})),
        ("render_block", ["render", "--pattern", "block.pat", "--format", "pbm"],
         checks.check_pbm(27, 27, len(block.support()))),
    ]
    return [CliCommand(name, argv, workdir, expect)
            for name, argv, expect in specs]


def cli_in_process(L, commands: list[CliCommand]) -> list[str]:
    """Run each command once through blobshift.cli.main in this process.

    The bytes written must equal those of the fresh-interpreter run.
    """
    failures = []
    home = Path.cwd()
    for command in commands:
        out = command.workdir / f"{command.name}.inproc"
        os.chdir(command.workdir)
        try:
            code = L.main(command.argv + ["--out", out.name])
        finally:
            os.chdir(home)
        if code != 0 or out.read_bytes() != command.reference:
            failures.append(f"{command.name}: in-process output differs")
    return failures


BUILDERS = {
    "large_windows": large_windows,
    "blob_batch": blob_batch,
    "probes": probes,
    "cli_commands": cli_commands,
}
