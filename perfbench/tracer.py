"""Spans around the benchmark's calls into blobshift's public functions.

The library is never instrumented. Workloads reach every public function
through a namespace from :func:`api`: untraced it holds the functions
themselves, traced each one is wrapped so that a call records a span
(name, start, end, parent, task id) in memory. Spans are written out when
the run ends; a span's self time is its duration minus the part of it
that its child spans cover.
"""
from __future__ import annotations

import importlib
import json
import os
import platform
import subprocess
import time
from types import SimpleNamespace

# module -> attribute paths of every public callable the workloads use
PUBLIC = {
    "patterns": ("Pattern", "Pattern.from_word", "Pattern.from_rows",
                 "Pattern.translate", "pad", "blobs", "zero_glue", "rows_of",
                 "essential_width_lower_bound", "format_pattern"),
    "substitution": ("iterate_1d", "iterate_2d", "build_unbounded_rows",
                     "block_spec", "cantor_substitution",
                     "plus_substitution", "format_substitution"),
    "blobfractal": ("build_hierarchy", "verify_axioms", "classify"),
    "pathcover": ("geodesic_witness", "find_ascending_path",
                  "trace_guided_path", "sturmian_word"),
    "paths": ("classify_path_space", "visit_profile", "cut_path_search",
              "move_word", "deep_zigzag", "drift_zigzag", "floor_zigzag",
              "thue_morse_moves"),
    "automata": ("CARule", "nilpotency_probe", "find_glider", "compose",
                 "tfg_validate", "tfg_order_search", "identity_element",
                 "shift_element", "block_swap_element", "shift_rule",
                 "xor_rule", "decrement_rule"),
    "primes": ("sieve", "late_language", "gap_floor", "crt_zero_run",
               "dirichlet_isolated"),
    "cli": ("main",),
}


class Tracer:
    """In-memory span list; spans are closed in stack order."""

    def __init__(self):
        self.origin = time.perf_counter()
        self.spans: list[list] = []  # [name, start, end, parent, task]
        self._stack: list[int] = []
        self.task: str | None = None

    def open(self, name: str) -> int:
        ix = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.task])
        self._stack.append(ix)
        return ix

    def close(self, ix: int) -> None:
        self.spans[ix][2] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            ix = len(spans)
            spans.append([name, None, None, stack[-1] if stack else -1,
                          self.task])
            stack.append(ix)
            span = spans[ix]
            span[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()

        return traced

    def self_times(self) -> list[float]:
        covered = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        return [end - start - covered[ix]
                for ix, (_, start, end, _, _) in enumerate(self.spans)]

    def busy_by_name(self, select) -> dict[str, float]:
        """Self time summed per span name, over spans whose task `select`s."""
        busy: dict[str, float] = {}
        for (name, _, _, _, task), own in zip(self.spans, self.self_times()):
            if select(task):
                busy[name] = busy.get(name, 0.0) + own
        return busy

    def write(self, path, header: dict) -> None:
        """JSON lines: the header, then one span per line with its self time."""
        with open(path, "w") as fh:
            fh.write(json.dumps(header) + "\n")
            for (name, start, end, parent, task), own in zip(
                    self.spans, self.self_times()):
                fh.write(json.dumps({
                    "name": name, "start": start - self.origin,
                    "end": end - self.origin, "parent": parent,
                    "task": task, "self": own}) + "\n")


def api(tracer: Tracer | None = None) -> SimpleNamespace:
    """Public blobshift callables by short name, wrapped when tracing."""
    calls = {}
    for module_name, attrs in PUBLIC.items():
        module = importlib.import_module(f"blobshift.{module_name}")
        for attr in attrs:
            fn = module
            for part in attr.split("."):
                fn = getattr(fn, part)
            short = attr.rsplit(".", 1)[-1]
            calls[short] = (fn if tracer is None
                            else tracer.wrap(f"{module_name}.{attr}", fn))
    return SimpleNamespace(**calls)


def machine_record() -> dict:
    """Python version, core count, CPU model and caches; read-only probes."""
    record = {"python": platform.python_version(),
              "implementation": platform.python_implementation(),
              "nproc": os.cpu_count()}
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    record["cpu_model"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        out = subprocess.run(["lscpu"], capture_output=True, text=True,
                             timeout=10).stdout
    except (OSError, subprocess.TimeoutExpired):
        out = ""
    for line in out.splitlines():
        key, _, value = line.partition(":")
        if key.strip() in ("L1d cache", "L2 cache", "L3 cache"):
            record[key.strip().replace(" ", "_").lower()] = value.strip()
    return record
