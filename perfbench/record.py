#!/usr/bin/env python3
"""Record the benchmark's job lists and expected outputs in expected.json.

Run from the repository root:

    python3 perfbench/record.py

It runs every fixed job once through `basisbound.cli.main` and stores the
maximum and a digest of the witness of each search, and a digest of each
certificate payload.  Re-record only when an output is meant to change.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from itertools import combinations
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads  # noqa: E402
from basisbound import cli, constructions  # noqa: E402
from basisbound.bounds import check_mod_distance_hypotheses  # noqa: E402
from basisbound.exactfield import is_prime  # noqa: E402

DEEP = [
    ("dist-const-n9-l4", "dist", {"n": 9, "q": 2, "pred": "dist-const", "lam": 4}),
    ("dist-mod-n9-l2-p3", "dist", {"n": 9, "q": 2, "pred": "dist-mod", "lam": 2, "p": 3}),
    ("inter-const-n9-l1", "inter", {"n": 9, "q": 2, "pred": "inter-const", "lam": 1}),
    ("dist-const-q3-n5-l3", "dist", {"n": 5, "q": 3, "pred": "dist-const", "lam": 3}),
]

# (n_max, q_max, p_max) of the two validation sweeps, walked in the loop
# order of basisbound.search.sweep_bound_grid (q runs over 2..q_max).
SWEEPS = ((7, 2, 5), (4, 3, 7))


def sweep_grid() -> list:
    rows = []
    for grid, (n_max, q_max, p_max) in enumerate(SWEEPS):
        primes = [p for p in range(2, p_max + 1) if is_prime(p)]
        for n in range(1, n_max + 1):
            for q in range(2, q_max + 1):
                for p in primes:
                    for lam in range(1, p):
                        if check_mod_distance_hypotheses(n, q, p, lam).holds:
                            params = {"n": n, "q": q, "pred": "dist-mod", "lam": lam, "p": p}
                            rows.append((f"g{grid}-dist-mod-q{q}-n{n}-l{lam}-p{p}", "dist", params))
        for n in range(1, n_max + 1):
            for q in range(2, q_max + 1):
                for s in range(1, min(2, n) + 1):
                    for dist in combinations(range(1, n + 1), s):
                        params = {"n": n, "q": q, "pred": "dist-set", "dist": list(dist)}
                        name = f"g{grid}-dist-set-q{q}-n{n}-" + "-".join(map(str, dist))
                        rows.append((name, "dist", params))
    return rows


CERTIFY = [
    ("ryser-pg5", "ryser", "pg5", ["certify", "ryser", "--family", "{input}", "--lambda", "1"]),
    ("ryser-pg7", "ryser", "pg7", ["certify", "ryser", "--family", "{input}", "--lambda", "1"]),
    ("ryser-near-pencil40", "ryser", "near_pencil40",
     ["certify", "ryser", "--family", "{input}", "--lambda", "1"]),
    ("two-distance-schlafli27", "two_distance", "schlafli27",
     ["certify", "two-distance", "--gram", "{input}"]),
    ("two-distance-pentagon", "two_distance", "pentagon",
     ["certify", "two-distance", "--gram", "{input}"]),
    ("hamming-tight-hadamard8", "hamming_tight", "hadamard_plus_full8",
     ["certify", "hamming-tight", "--vectors", "{input}", "--p", "17", "--lambda", "16"]),
    ("mod-design-lambda-pg11", "mod_design", "lambda_design_pg11",
     ["certify", "mod-design", "--family", "{input}", "--p", "5"]),
]


def run(argv) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    if code != 0:
        raise SystemExit(f"{argv}: exit code {code}")
    return json.loads(out.getvalue())["payload"]


def main() -> int:
    expected = {}
    for workload, rows in (("search-deep", DEEP), ("search-sweep", sweep_grid())):
        entries = []
        for name, cls, params in rows:
            payload = run(workloads.search_argv(params))
            if not workloads.witness_valid(params, payload["witness"]):
                raise SystemExit(f"{name}: witness violates the predicate")
            entries.append({
                "name": name,
                "class": cls,
                "params": params,
                "max_size": payload["max_size"],
                "witness_sha256": workloads.digest(payload["witness"]),
            })
        expected[workload] = entries
    scratch = ROOT / ".bench_build" / "perfbench-record"
    scratch.mkdir(parents=True, exist_ok=True)
    docs = workloads.certify_inputs(constructions)
    entries = []
    for name, cls, key, argv in CERTIFY:
        path = scratch / f"{key}.json"
        path.write_text(json.dumps(docs[key]))
        payload = run([str(path) if a == "{input}" else a for a in argv])
        entries.append({
            "name": name,
            "class": cls,
            "input": key,
            "argv": argv,
            "payload_sha256": workloads.digest(payload),
        })
        path.unlink()
    scratch.rmdir()
    expected["certify"] = entries
    workloads.EXPECTED_PATH.write_text(json.dumps(expected, indent=1) + "\n")
    counts = ", ".join(f"{k}: {len(v)} jobs" for k, v in expected.items())
    print(f"wrote {workloads.EXPECTED_PATH.name} ({counts})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
