"""blobshift benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout: the library is imported from ./src.
The run sets up (interpreter, import, seeded inputs) several times in
fresh interpreters and reports the median as setup_s. After one untimed
warm-up pass it repeats the workload's pass, one closed-loop client in
one process, until S seconds of passes have run. Every task's output is
checked after its pass, outside the timed region.

The end-to-end times are given at the host's reference speed. Between
tasks the run times a fixed pure-Python reference loop that calls no
blobshift code, and scales each task's wall time by REFERENCE_NOMINAL_S
over the reference times on either side of it. A shared host's slow
spells slow both alike and cancel; a change to the library moves the
task times alone, so it moves the metric as it moves wall time. The run
and every process it starts are pinned to one CPU, because each CPU of
such a host has spells of its own.

--trace 0 prints the end-to-end metrics. --trace 1 alternates untraced
and traced passes, prints the per-layer metrics and writes the spans to
.perfbench_out/. The last line of stdout is one JSON object: correct,
attempted, failed, metrics.
"""
from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path.cwd()
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
OUT = ROOT / ".perfbench_out"
SETUP_REPEATS = 5
MIN_PASSES = 3
# the reference loop's wall time on the calibration host (perfbench/README.md)
REFERENCE_NOMINAL_S = 0.015
# task time between two timings of the reference loop
REFERENCE_EVERY_S = 0.2

END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "task_p50_ms": "ms",
    "task_p90_ms": "ms",
    "peak_rss_mib": "MiB",
}

# per-layer metric -> unit; busy_s is self time per pass, counts are per pass
PER_LAYER = {
    "patterns.pad.busy_s": "s",
    "patterns.pad.calls": "count",
    "patterns.pad.cells_in": "count",
    "patterns.pad.cells_out": "count",
    "patterns.pad.probe_yield": "ratio",
    "patterns.blobs.busy_s": "s",
    "patterns.blobs.blobs_out": "count",
    "patterns.zero_glue.busy_s": "s",
    "patterns.width.busy_s": "s",
    "substitution.generate.busy_s": "s",
    "blobfractal.build_hierarchy.busy_s": "s",
    "blobfractal.build_hierarchy.placements": "count",
    "blobfractal.build_hierarchy.distinct": "count",
    "blobfractal.verify_axioms.busy_s": "s",
    "blobfractal.verify_axioms.checked": "count",
    "blobfractal.classify.busy_s": "s",
    "pathcover.geodesic_witness.busy_s": "s",
    "pathcover.geodesic_witness.path_len": "count",
    "pathcover.find_ascending_path.busy_s": "s",
    "pathcover.find_ascending_path.path_len": "count",
    "paths.classify_path_space.busy_s": "s",
    "paths.classify_path_space.search_length": "count",
    "paths.visit_profile.busy_s": "s",
    "paths.cut_path_search.busy_s": "s",
    "automata.nilpotency_probe.busy_s": "s",
    "automata.nilpotency_probe.configs": "count",
    "automata.find_glider.busy_s": "s",
    "automata.find_glider.configs": "count",
    "automata.compose.busy_s": "s",
    "automata.compose.table_entries": "count",
    "automata.tfg_order_search.busy_s": "s",
    "primes.sieve.busy_s": "s",
    "primes.sieve.primes": "count",
    "primes.late_language.busy_s": "s",
    "primes.late_language.factors_scanned": "count",
    "primes.late_language.factor_yield": "ratio",
    "cli.interp_start_ms": "ms",
    "cli.import_ms": "ms",
    "cli.main.busy_s": "s",
    "cli.stdout_bytes": "count",
    "trace.overhead_frac": "ratio",
    "error_rate": "ratio",
}

# busy_s metric -> the spans it sums per pass (span names are module.attribute)
BUSY_SPANS = {
    "patterns.pad.busy_s": ("patterns.pad",),
    "patterns.blobs.busy_s": ("patterns.blobs",),
    "patterns.zero_glue.busy_s": ("patterns.zero_glue",),
    "patterns.width.busy_s": ("patterns.essential_width_lower_bound",),
    "blobfractal.build_hierarchy.busy_s": ("blobfractal.build_hierarchy",),
    "blobfractal.verify_axioms.busy_s": ("blobfractal.verify_axioms",),
    "blobfractal.classify.busy_s": ("blobfractal.classify",),
    "pathcover.geodesic_witness.busy_s": ("pathcover.geodesic_witness",),
    "pathcover.find_ascending_path.busy_s": ("pathcover.find_ascending_path",),
    "paths.classify_path_space.busy_s": ("paths.classify_path_space",),
    "paths.visit_profile.busy_s": ("paths.visit_profile",),
    "paths.cut_path_search.busy_s": ("paths.cut_path_search",),
    "automata.nilpotency_probe.busy_s": ("automata.nilpotency_probe",),
    "automata.find_glider.busy_s": ("automata.find_glider",),
    "automata.compose.busy_s": ("automata.compose",),
    "automata.tfg_order_search.busy_s": ("automata.tfg_order_search",),
    "primes.sieve.busy_s": ("primes.sieve",),
    "primes.late_language.busy_s": ("primes.late_language",),
}
GENERATORS = ("substitution.iterate_1d", "substitution.iterate_2d",
              "substitution.build_unbounded_rows")
IN_PROCESS = "in_process"  # task id of the one in-process round of CLI calls


def _import_library():
    """Put ./src first on the path and import blobshift from there only."""
    if not (SRC / "blobshift" / "__init__.py").is_file():
        sys.exit(f"run.py: no blobshift sources under {SRC}; "
                 "run from the root of a checkout")
    sys.path.insert(0, str(SRC))
    import blobshift
    if Path(blobshift.__file__).resolve().parent != (SRC / "blobshift").resolve():
        sys.exit("run.py: imported blobshift from outside ./src")


def reference_s() -> float:
    """Wall time of a fixed pure-Python loop that calls no blobshift code."""
    gc.disable()  # collections would make it depend on the library's heap
    try:
        start = time.perf_counter()
        table: dict[tuple[int, int], int] = {}
        for i in range(20_000):
            key = (i % 113, i // 113)
            table[key] = table.get(key, 0) + 1
        shifted = {(a + 1, b) for a, b in table}
        len(shifted & table.keys())
        return time.perf_counter() - start
    finally:
        gc.enable()


def at_reference_speed(wall_s: list[float], before: float,
                       after: float) -> list[float]:
    """Wall times scaled to the speed at which the reference loop takes
    REFERENCE_NOMINAL_S, given its times just before and just after them."""
    factor = REFERENCE_NOMINAL_S / ((before + after) / 2)
    return [factor * t for t in wall_s]


class Run:
    """Checked passes of one workload, with their timings and counters."""

    def __init__(self, tasks):
        self.tasks = tasks
        self.pass_s: list[float] = []    # wall time
        self.scaled_pass_s: list[float] = []  # at the reference speed
        self.scaled_task_s: list[float] = []
        self.counters: dict[str, int] | None = None
        self.attempted = 0
        self.failed = 0
        self.unstable: list[str] = []

    def run_passes(self, modes, seconds: float, min_rounds: int):
        """Run rounds of passes until another would overrun `seconds`.

        `modes` are (api, tracer or None) pairs; a round runs one pass in
        each, so traced and untraced passes see the same spells of a
        shared host. Returns the wall times of the passes per mode.
        """
        self._pass(modes[0][0], None, timed=False)  # warm-up: allocator, caches
        times = [[] for _ in modes]
        deadline = time.perf_counter() + seconds
        round_s = 0.0
        while (len(times[0]) < min_rounds
               or time.perf_counter() + round_s <= deadline):
            began = time.perf_counter()
            for mode_times, (api, tracer) in zip(times, modes):
                mode_times.append(self._pass(api, tracer))
            round_s = time.perf_counter() - began
        return times

    def _pass(self, api, tracer, timed: bool = True) -> float:
        gc.collect()
        clock = time.perf_counter
        outputs, task_s, scaled = [], [], []
        segment, before, since = [], reference_s(), 0.0
        for ix, task in enumerate(self.tasks):
            if since >= REFERENCE_EVERY_S:
                after = reference_s()
                scaled.extend(at_reference_speed(segment, before, after))
                segment, before, since = [], after, 0.0
            if tracer is not None:
                tracer.task = f"{len(self.pass_s)}.{ix}"
                span = tracer.open(f"task.{task.name}")
            t0 = clock()
            outputs.append(task.run(api))
            elapsed = clock() - t0
            if tracer is not None:
                tracer.close(span)
            task_s.append(elapsed)
            segment.append(elapsed)
            since += elapsed
        scaled.extend(at_reference_speed(segment, before, reference_s()))
        if timed:
            self.pass_s.append(sum(task_s))
            self.scaled_pass_s.append(sum(scaled))
            self.scaled_task_s.extend(scaled)
        self._check(outputs)
        return sum(task_s)

    def _check(self, outputs):
        counters: dict[str, int] = {}
        for task, out in zip(self.tasks, outputs):
            self.attempted += 1
            failures = task.check(out)
            if failures:
                self.failed += 1
                print(f"FAILED {task.name}: {failures[0]}", file=sys.stderr)
            for key, value in task.count(out).items():
                counters[key] = counters.get(key, 0) + value
        if self.counters is None:
            self.counters = counters
        elif counters != self.counters:
            self.unstable.append(f"work counters changed between passes: "
                                 f"{self.counters} != {counters}")


def _timed_subprocess(argv, **kwargs) -> float:
    start = time.perf_counter()
    subprocess.run(argv, check=True, capture_output=True, timeout=170,
                   **kwargs)
    return time.perf_counter() - start


def measure_setup(workload: str, seed: int) -> float:
    """Median time, at the reference speed, of fresh interpreters that
    only set up."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
            "--workload", workload, "--seed", str(seed)]
    samples = []
    for _ in range(SETUP_REPEATS):
        before = reference_s()
        wall = _timed_subprocess(argv, cwd=ROOT)
        samples.extend(at_reference_speed([wall], before, reference_s()))
    return statistics.median(samples)


def _metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(run: Run, setup_s: float) -> dict:
    rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": _metric(setup_s, "s"),
        "run_s": _metric(statistics.median(run.scaled_pass_s), "s"),
        "task_p50_ms": _metric(1e3 * statistics.median(run.scaled_task_s),
                               "ms"),
        "task_p90_ms": _metric(1e3 * statistics.quantiles(
            run.scaled_task_s, n=10, method="inclusive")[8], "ms"),
        "peak_rss_mib": _metric(rss_kib / 1024, "MiB"),
    }


def cli_startup_ms() -> tuple[float, float]:
    """Median interpreter start, and median import of blobshift.cli on top."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    start = statistics.median(
        _timed_subprocess([sys.executable, "-c", "pass"]) for _ in range(5))
    with_import = statistics.median(
        _timed_subprocess([sys.executable, "-c", "import blobshift.cli"],
                          env=env) for _ in range(5))
    return 1e3 * start, 1e3 * (with_import - start)


def per_layer(run: Run, tracer, untraced: list[float], traced: list[float],
              extra: dict) -> dict:
    in_passes = tracer.busy_by_name(lambda task: task not in (None, IN_PROCESS))
    values: dict[str, float] = {
        metric: sum(in_passes.get(name, 0.0) for name in names) / len(traced)
        for metric, names in BUSY_SPANS.items()}
    # set-up (task None) and the in-process CLI round each happen once
    in_setup = tracer.busy_by_name(lambda task: task is None)
    values["substitution.generate.busy_s"] = sum(
        in_setup.get(name, 0.0) for name in GENERATORS)
    values["cli.main.busy_s"] = tracer.busy_by_name(
        lambda task: task == IN_PROCESS).get("cli.main", 0.0)
    counters = run.counters or {}
    for metric in PER_LAYER:
        if metric not in values:
            values[metric] = counters.get(metric, 0)
    probes = counters.get("patterns.pad.probes", 0)
    new_cells = (counters.get("patterns.pad.cells_out", 0)
                 - counters.get("patterns.pad.cells_in", 0))
    values["patterns.pad.probe_yield"] = new_cells / probes if probes else 0.0
    scanned = counters.get("primes.late_language.factors_scanned", 0)
    values["primes.late_language.factor_yield"] = (
        counters.get("primes.late_language.factors_distinct", 0) / scanned
        if scanned else 0.0)
    values["trace.overhead_frac"] = (statistics.fmean(traced)
                                     / statistics.fmean(untraced) - 1)
    values["error_rate"] = run.failed / run.attempted
    values.update(extra)
    return {name: _metric(values[name], unit) for name, unit in PER_LAYER.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    _import_library()
    # the reference loop must time the CPU that the tasks run on
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    import tracer as tracing
    import workloads
    if args.workload not in workloads.BUILDERS:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{', '.join(workloads.BUILDERS)}")
    build = workloads.BUILDERS[args.workload]

    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        if args.setup_only:
            build(tracing.api(), args.seed, workdir)
            return 0
        setup_s = measure_setup(args.workload, args.seed)
        if not args.trace:
            run = Run(build(tracing.api(), args.seed, workdir))
            run.run_passes([(tracing.api(), None)], args.seconds, MIN_PASSES)
            metrics = end_to_end(run, setup_s)
        else:
            spans = tracing.Tracer()
            traced_api = tracing.api(spans)
            setup_span = spans.open("setup")
            run = Run(build(traced_api, args.seed, workdir))
            spans.close(setup_span)
            untraced, traced = run.run_passes(
                [(tracing.api(), None), (traced_api, spans)], args.seconds, 2)
            extra = {}
            if args.workload == "cli_commands":
                spans.task = IN_PROCESS
                failures = workloads.cli_in_process(traced_api, run.tasks)
                run.attempted += len(run.tasks)
                run.failed += len(failures)
                for failure in failures:
                    print(f"FAILED {failure}", file=sys.stderr)
                interp, imports = cli_startup_ms()
                extra = {"cli.interp_start_ms": interp, "cli.import_ms": imports,
                         "cli.stdout_bytes": run.counters["cli.stdout_bytes"]}
            metrics = per_layer(run, spans, untraced, traced, extra)
            OUT.mkdir(exist_ok=True)
            spans.write(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl", {
                "workload": args.workload, "seed": args.seed,
                "seconds": args.seconds, "machine": tracing.machine_record(),
                "counters": run.counters})
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass

    for problem in run.unstable:
        print(problem, file=sys.stderr)
    print(json.dumps({
        "correct": run.failed == 0 and not run.unstable,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
