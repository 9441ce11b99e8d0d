#!/usr/bin/env python3
"""Check that the benchmark's machine-independent counts repeat exactly.

    python3 perfbench/check_counts.py

Runs the traced benchmark twice on every workload, with different seeds,
and compares kernel.nodes, kernel.adjacency_pairs, exactfield.max_dim and
exactfield.calls.  Exits 1 if any of them differ.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from tracing import EXACT_COUNTS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def counts(workload: str, seed: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", "1"]
    out = subprocess.run(cmd, cwd=HERE.parent, capture_output=True, text=True, check=True)
    metrics = json.loads(out.stdout.strip().splitlines()[-1])["metrics"]
    return {name: metrics.get(name, {}).get("value") for name in EXACT_COUNTS}


def main() -> int:
    ok = True
    for workload in WORKLOADS:
        first, second = counts(workload, 1), counts(workload, 2)
        for name in EXACT_COUNTS:
            same = first[name] == second[name]
            ok &= same
            print(f"{workload:13s} {name:24s} {first[name]!s:>10} {second[name]!s:>10}"
                  f"  {'ok' if same else 'MISMATCH'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
