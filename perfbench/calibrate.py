"""Time the reference calls of the roadmap's first item, traced, once.

    python3 perfbench/calibrate.py

Run from the root of a checkout. Prints the machine record, then one
table row per call: the traced self time here, the reference range the
roadmap quotes, and the ratio. A ratio outside [1/2, 2] needs an
explanation in perfbench/README.md. Takes about half a minute.
"""
from __future__ import annotations

import json
import sys
from pathlib import Path

SRC = Path.cwd() / "src"
if not (SRC / "blobshift" / "__init__.py").is_file():
    sys.exit("calibrate.py: run from the root of a checkout")
sys.path.insert(0, str(SRC))

import tracer as tracing  # noqa: E402

# span name -> (low, high) seconds quoted by the roadmap
REFERENCE = {
    "patterns.pad": (12.0, 15.0),
    "blobfractal.build_hierarchy": (1.0, 1.0),
    "blobfractal.verify_axioms": (0.12, 0.12),
    "primes.sieve": (0.55, 0.55),
    "primes.late_language": (1.7, 1.7),
    "automata.nilpotency_probe": (0.36, 0.36),
}


def main() -> int:
    spans = tracing.Tracer()
    L = tracing.api(spans)
    block = L.build_unbounded_rows(L.block_spec(2), 4, 1)
    padded = L.pad(block, 27)
    L.verify_axioms(L.build_hierarchy(padded, (3, 9, 27)))
    window = L.sieve(10 ** 7)
    L.late_language(window, 20, 10 ** 4)
    L.nilpotency_probe(L.xor_rule(), 10, 64)

    busy = spans.busy_by_name(lambda task: True)
    print(json.dumps(tracing.machine_record()))
    print("| call | here (s) | roadmap (s) | ratio |")
    print("|---|---|---|---|")
    for name, (low, high) in REFERENCE.items():
        here = busy[name]
        mid = (low + high) / 2
        ratio = here / mid
        flag = "" if 0.5 <= ratio <= 2 else " (gap above 2x)"
        quoted = f"{low}" if low == high else f"{low}-{high}"
        print(f"| `{name}` | {here:.3f} | {quoted} | {ratio:.2f}{flag} |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
