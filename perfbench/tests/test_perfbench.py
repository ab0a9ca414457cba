"""Self-tests of the benchmark: checkers reject corrupted results, counters
repeat, and every metric named in BENCHMARK.json is emitted with its unit.

Run from the repository root: python3 -m pytest perfbench/tests -q
"""
import json
import random
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import checks  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
API = tracer.api()


def _bench(*args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170)
    return proc


# -- metric names -------------------------------------------------------------------


def test_benchmark_json_names_match_the_code():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.BUILDERS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.PER_LAYER


@pytest.mark.parametrize("trace, section", [("0", "end_to_end"),
                                            ("1", "per_layer")])
def test_every_metric_is_emitted_with_its_unit(trace, section):
    proc = _bench("--workload", "blob_batch", "--seed", "7",
                  "--seconds", "1", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(isinstance(v["value"], (int, float))
               for v in result["metrics"].values())


def test_bare_checkout_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "blob_batch", "--seed", "1",
                  "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


# -- checkers reject corrupted results -------------------------------------------------


def test_dropped_blob_fails_the_check(tmp_path):
    task = workloads.blob_batch(API, 3, tmp_path)[0]
    out = task.run(API)
    assert task.check(out) == []
    core, padded, levels, width = out[1]
    found, rebuilt = levels[0]
    assert len(found) >= 2
    corrupted = [out[0], (core, padded, [(found[1:], rebuilt), *levels[1:]],
                          width)]
    assert task.check(corrupted)


def test_wrong_glider_shift_fails_the_check():
    rule = API.shift_rule()
    config, n, m = API.find_glider(rule, 3, 8)
    assert checks.check_find_glider(rule, (config, n, m), False) == []
    assert checks.check_find_glider(rule, (config, n, m + 1), False)
    assert checks.check_find_glider(rule, None, False)
    verdict = SimpleNamespace(tag="not_nilpotent", steps=None, witness={
        "kind": "glider", "word": config.word, "time": n, "shift": m + 1})
    assert checks.check_nilpotency(rule, 3, 8, verdict, random.Random(0))


@pytest.fixture(scope="module")
def cli_outputs(tmp_path_factory):
    workdir = tmp_path_factory.mktemp("cli")
    commands = {c.name: c for c in workloads.cli_commands(API, 1, workdir)}
    return {name: (commands[name], commands[name].run(API))
            for name in ("tfg_order", "render_block", "primes_lang")}


@pytest.mark.parametrize("name", ["tfg_order", "render_block", "primes_lang"])
def test_flipped_cli_byte_fails_the_check(cli_outputs, name):
    command, (code, stdout) = cli_outputs[name]
    assert command.check((code, stdout)) == []
    assert command.reference == stdout
    for pos in range(0, len(stdout), max(1, len(stdout) // 17)):
        flipped = bytearray(stdout)
        flipped[pos] ^= 1
        assert command.check((code, bytes(flipped))), pos
    assert command.check((1, stdout))


def test_pins_alone_catch_a_changed_result(cli_outputs):
    command, (code, stdout) = cli_outputs["tfg_order"]
    changed = stdout.replace(b'"order": 2', b'"order": 3')
    assert changed != stdout
    assert checks.check_cli(code, changed, None, command.expect)


def test_path_verdict_replays_the_witness():
    deep = API.deep_zigzag()
    verdict = API.classify_path_space(deep, 64)
    moves = {"+": 1, "-": -1}
    args = (dict(deep.rules), "+", moves, 64)
    assert checks.check_path_verdict(*args, verdict) == []
    short = replace(verdict, witness=replace(
        verdict.witness, moves=verdict.witness.moves[:-40]))
    assert checks.check_path_verdict(*args, short)


def test_floor_law_is_the_computed_one():
    floor = API.floor_zigzag()
    words, word = [], "+"
    for _ in range(6):
        word = API.iterate_1d(floor, word, 1)
        words.append(word)
    profiles = [API.visit_profile(API.move_word(
        [1 if c == "+" else -1 for c in w], 1)) for w in words]
    assert checks.check_floor_profiles(words, profiles) == []
    assert checks.check_floor_profiles(words[1:], profiles[1:])


# -- work counters -------------------------------------------------------------------------


def _counts(tasks):
    total = {}
    for task in tasks:
        for key, value in task.count(task.run(API)).items():
            total[key] = total.get(key, 0) + value
    return total


def test_counters_repeat_exactly(tmp_path):
    def quick(seed):
        tasks = workloads.probes(API, seed, tmp_path)
        return [t for t in tasks if t.name != "primes"]

    assert _counts(quick(5)) == _counts(quick(5))
    first = workloads.blob_batch(API, 5, tmp_path)[:10]
    again = workloads.blob_batch(API, 5, tmp_path)[:10]
    assert _counts(first) == _counts(again)


def test_closed_form_config_counts_match_enumeration():
    from blobshift.automata import _cyclic_words, canonical_configs
    for alphabet, width in ((API.xor_rule().alphabet, 7),
                            (API.decrement_rule().alphabet, 5)):
        configs = list(canonical_configs(alphabet, width))
        assert checks.finite_total(len(alphabet.symbols), width) == len(configs)
        for ix, config in enumerate(configs):
            assert checks.finite_rank(alphabet.symbols, alphabet.zero,
                                      config.word) == ix
        cyclic = list(_cyclic_words(alphabet, width))
        assert checks.necklace_total(len(alphabet.symbols), width) == len(cyclic)


def test_nilpotency_configs_count_the_enumeration():
    xor = API.xor_rule()
    verdict = API.nilpotency_probe(xor, 10, 64)
    assert verdict.witness == {"kind": "periodic", "word": "001", "time": 4}
    # 512 finite configurations, then the necklaces 1, 01, 11, 001
    assert checks.nilpotency_configs(xor, 10, verdict) == 512 + 4


def test_pad_counts_and_dilation():
    core = API.from_rows(["101", "000"])
    out = API.pad(core, 2)
    assert checks.check_pad(core, out, 2) == []
    assert len(out) == checks.dilated_box_size((0, 0), (2, 1), 2)
    assert checks.pad_counts(core, out, 2)["patterns.pad.probes"] == 6 * 13
