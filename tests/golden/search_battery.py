"""Golden digests of a battery of `basisbound search` runs.

Each entry of search.json is keyed by its argv, joined with spaces, and holds
the exit code, the stderr text and the sha256 of the JSON report without its
`wall_time_s` field.  The battery is every argv of this grid, each with no
target and with `--target 3`:

- q in {2, 3, 4}, n <= 8, q^n <= 2500;
- `dist-const` with lambda in 1..n, and `inter-const` with lambda in 1..n
  for q = 2;
- `dist-mod` with lambda in 1..n and p in {2, 3, 5};
- `dist-set` with {lambda} and with range(lambda, n + 1, 2), once when the
  two are equal;

plus one argv per predicate with its lambda (for `dist-set`, its distance
list) missing.

The q=3, n=7 slice (SLOW) holds the odd-distance ternary searches: about 25
of the battery's 30 s on a shared 2-core VM under Python 3.11, against about
3 s for the rest.  The tier-1 test checks every entry outside SLOW; CI checks
the whole battery.

    PYTHONPATH=src python tests/golden/search_battery.py check   # exit 1 on a mismatch
    PYTHONPATH=src python tests/golden/search_battery.py write   # regenerate search.json

A change that alters an output on purpose regenerates the file in the same
commit and names each changed argv.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

from basisbound import cli

DIGESTS = Path(__file__).with_name("search.json")
SLOW = {(7, 3)}  # (n, q) slices kept out of tier-1 for time
MISSING_LAMBDA = [
    ["search", "--n", "3", "--q", "2", "--pred", "dist-const"],
    ["search", "--n", "3", "--q", "2", "--pred", "inter-const"],
    ["search", "--n", "3", "--q", "2", "--pred", "dist-mod", "--p", "3"],
    ["search", "--n", "3", "--q", "2", "--pred", "dist-set"],
]


def grid():
    """The battery's argvs, in a fixed order."""
    for q in (2, 3, 4):
        for n in range(1, 9):
            if q ** n > 2500:
                break
            runs = []
            for lam in range(1, n + 1):
                runs.append(["dist-const", "--lambda", str(lam)])
                if q == 2:
                    runs.append(["inter-const", "--lambda", str(lam)])
                for p in (2, 3, 5):
                    runs.append(["dist-mod", "--lambda", str(lam), "--p", str(p)])
                for dists in dict.fromkeys([(lam,), tuple(range(lam, n + 1, 2))]):
                    runs.append(["dist-set", "--dist-list", ",".join(map(str, dists))])
            for run in runs:
                argv = ["search", "--n", str(n), "--q", str(q), "--pred", *run]
                yield argv
                yield argv + ["--target", "3"]
    yield from MISSING_LAMBDA


def is_slow(argv) -> bool:
    return (int(argv[argv.index("--n") + 1]), int(argv[argv.index("--q") + 1])) in SLOW


def entry(argv) -> dict:
    """One argv's exit code, stderr and report digest, run through `cli.main`."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    report = json.loads(out.getvalue())
    del report["wall_time_s"]
    digest = hashlib.sha256(json.dumps(report, indent=2).encode()).hexdigest()
    return {"exit": code, "stderr": err.getvalue(), "sha256": digest}


def load() -> dict:
    return json.loads(DIGESTS.read_text())


def mismatches(argvs, golden) -> list[str]:
    """The argvs in `argvs` whose entry differs from `golden`'s, or that it
    lacks, each with what differs."""
    bad = []
    for argv in argvs:
        key = " ".join(argv)
        got, want = entry(argv), golden.get(key)
        if want is None:
            bad.append(f"{key}: no golden entry")
        elif got != want:
            bad.append(f"{key}: {', '.join(f for f in got if got[f] != want.get(f))} differ")
    return bad


def write() -> None:
    entries = {" ".join(argv): entry(argv) for argv in grid()}
    lines = [f"{json.dumps(key)}: {json.dumps(value)}" for key, value in entries.items()]
    DIGESTS.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    print(f"wrote {len(entries)} entries to {DIGESTS}")


def check() -> int:
    golden = load()
    argvs = list(grid())
    keys = {" ".join(argv) for argv in argvs}
    bad = mismatches(argvs, golden) + [f"{key}: not in the grid" for key in golden if key not in keys]
    for line in bad:
        print(line)
    print(f"{len(bad)} mismatches over {len(argvs)} argvs")
    return 1 if bad else 0


if __name__ == "__main__":
    if sys.argv[1:] == ["write"]:
        write()
    elif sys.argv[1:] == ["check"]:
        sys.exit(check())
    else:
        sys.exit(__doc__)
