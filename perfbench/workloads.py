"""Workloads of the basisbound benchmark: the job lists, the input files
built in set-up, and the output oracle that decides whether a job passed.

Every job is an argv list for `basisbound.cli.main`.  The search grids,
each search's maximum and witness digest (the witness checked against the
predicate when it was recorded) and the certificate payload digests are in
`expected.json` (see `record.py`).  The random independence matrices are
made from the seed and checked against an exact elimination written here,
independent of the package.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product
from pathlib import Path

EXPECTED_PATH = Path(__file__).resolve().parent / "expected.json"

WORKLOADS = ("search-deep", "search-sweep", "certify")

# Job classes whose per-round totals are reported.
CLASSES = ("dist", "inter", "ryser", "two_distance", "hamming_tight", "mod_design", "independence")

# Whole-space clique: the pure kernel recurses once per clique member and
# fails here with RecursionError.  It runs every search-deep round as a
# defect probe, outside the timed job list, against its closed-form answer.
WHOLE_SPACE = {"n": 10, "q": 2, "pred": "dist-set", "dist": list(range(1, 11))}

# Sizes and fields of the seeded independence matrices.
INDEPENDENCE = (("rational", 24, None), ("prime", 48, 10007), ("quadratic", 10, 5))


@dataclass
class Job:
    name: str
    cls: str
    argv: list
    expect: dict


def digest(obj) -> str:
    """sha256 of the document as the CLI serialises it (indent=2)."""
    return hashlib.sha256(json.dumps(obj, indent=2).encode()).hexdigest()


def search_argv(params: dict) -> list:
    argv = ["search", "--n", str(params["n"]), "--q", str(params["q"]), "--pred", params["pred"]]
    if "lam" in params:
        argv += ["--lambda", str(params["lam"])]
    if "p" in params:
        argv += ["--p", str(params["p"])]
    if "dist" in params:
        argv += ["--dist-list", ",".join(map(str, params["dist"]))]
    return argv


# ---------------------------------------------------------------------------
# Inputs made in set-up


def certify_inputs(constructions) -> dict:
    """Documents for the fixed certificate jobs, built by the package's own
    constructions (their cost is part of set-up)."""
    return {
        "pg5": constructions.projective_plane(5).to_json_dict(),
        "pg7": constructions.projective_plane(7).to_json_dict(),
        "near_pencil40": constructions.near_pencil(40).to_json_dict(),
        "schlafli27": constructions.schlafli27().to_json_dict(),
        "pentagon": constructions.pentagon().to_json_dict(),
        "hadamard_plus_full8": constructions.hadamard_plus_full(8).to_vector_system().to_json_dict(),
        "lambda_design_pg11": constructions.lambda_design_type1(
            constructions.projective_plane(11), 0
        ).to_json_dict(),
    }


def _fmt_rational(x: Fraction) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def _fmt_quadratic(a: Fraction, b: Fraction, d: int) -> str:
    """The documented scalar syntax p/q+r/s*sqrt(d)."""
    if b == 0:
        return _fmt_rational(a)
    surd = f"{_fmt_rational(abs(b))}*sqrt({d})"
    if a == 0:
        return surd if b > 0 else "-" + surd
    return f"{_fmt_rational(a)}{'+' if b > 0 else '-'}{surd}"


def random_matrix(kind: str, size: int, param, rng: random.Random):
    """(matrix document, entries as exact values) for one independence job."""

    def small():
        return Fraction(rng.randint(-9, 9), rng.randint(1, 4))

    if kind == "rational":
        values = [[small() for _ in range(size)] for _ in range(size)]
        text = [[_fmt_rational(x) for x in row] for row in values]
        field = {"kind": "rational"}
    elif kind == "prime":
        values = [[rng.randrange(param) for _ in range(size)] for _ in range(size)]
        text = [[str(x) for x in row] for row in values]
        field = {"kind": "prime", "p": param}
    else:
        values = [[(small(), small()) for _ in range(size)] for _ in range(size)]
        text = [[_fmt_quadratic(a, b, param) for a, b in row] for row in values]
        field = {"kind": "quadratic", "d": param}
    return {"field": field, "entries": text}, values


# ---------------------------------------------------------------------------
# Independent exact elimination for the independence oracle


class _Rational:
    zero, one = Fraction(0), Fraction(1)

    def mul(self, x, y):
        return x * y

    def sub(self, x, y):
        return x - y

    def inv(self, x):
        return 1 / x

    def neg(self, x):
        return -x

    def fmt(self, x):
        return _fmt_rational(x)


class _Prime:
    def __init__(self, p):
        self.p, self.zero, self.one = p, 0, 1

    def mul(self, x, y):
        return x * y % self.p

    def sub(self, x, y):
        return (x - y) % self.p

    def inv(self, x):
        return pow(x, self.p - 2, self.p)

    def neg(self, x):
        return -x % self.p

    def fmt(self, x):
        return str(x)


class _Quadratic:
    def __init__(self, d):
        self.d, self.zero, self.one = d, (Fraction(0), Fraction(0)), (Fraction(1), Fraction(0))

    def mul(self, x, y):
        return (x[0] * y[0] + self.d * x[1] * y[1], x[0] * y[1] + x[1] * y[0])

    def sub(self, x, y):
        return (x[0] - y[0], x[1] - y[1])

    def inv(self, x):
        norm = x[0] * x[0] - self.d * x[1] * x[1]
        return (x[0] / norm, -x[1] / norm)

    def neg(self, x):
        return (-x[0], -x[1])

    def fmt(self, x):
        return _fmt_quadratic(x[0], x[1], self.d)


def _det_rank(field, values):
    rows = [list(r) for r in values]
    size = len(rows)
    det, rank = field.one, 0
    for col in range(size):
        pivot = next((i for i in range(rank, size) if rows[i][col] != field.zero), None)
        if pivot is None:
            det = field.zero
            continue
        if pivot != rank:
            rows[rank], rows[pivot] = rows[pivot], rows[rank]
            det = field.neg(det)
        head = rows[rank]
        det = field.mul(det, head[col])
        inv = field.inv(head[col])
        for i in range(rank + 1, size):
            if rows[i][col] != field.zero:
                factor = field.mul(rows[i][col], inv)
                rows[i] = [field.sub(x, field.mul(factor, y)) for x, y in zip(rows[i], head)]
        rank += 1
    return det, rank


def independence_payload(kind: str, param, values) -> dict:
    if kind == "prime":
        field = _Prime(param)
    elif kind == "quadratic":
        field = _Quadratic(param)
    else:
        field = _Rational()
    det, rank = _det_rank(field, values)
    size = len(values)
    nonzero = det != field.zero
    return {
        "kind": "independence",
        "verdict": "pass" if nonzero else "fail",
        "hypotheses": [{"clause": "squareMatrix", "holds": True}],
        "coefficients": [],
        "identities": [
            {"name": "determinant_nonzero", "left": field.fmt(det), "right": "0", "holds": nonzero}
        ],
        "details": {"size": size, "rank": rank, "rank_deficit": size - rank},
    }


# ---------------------------------------------------------------------------
# Job lists


def load_expected() -> dict:
    with open(EXPECTED_PATH) as fh:
        return json.load(fh)


def _search_job(entry: dict) -> Job:
    return Job(entry["name"], entry["class"], search_argv(entry["params"]), entry)


def whole_space_job() -> Job:
    n, q = WHOLE_SPACE["n"], WHOLE_SPACE["q"]
    witness = {"n": n, "q": q, "vectors": [list(v) for v in product(range(q), repeat=n)]}
    expect = {"params": WHOLE_SPACE, "max_size": q**n, "witness_sha256": digest(witness)}
    return Job("whole-space-clique", "dist", search_argv(WHOLE_SPACE), expect)


def build_jobs(workload: str, seed: int, workdir: Path, constructions) -> list:
    """The timed jobs of one workload, in the seeded order, with every input
    file written under `workdir`."""
    rng = random.Random(seed)
    expected = load_expected()[workload]
    if workload != "certify":
        jobs = [_search_job(entry) for entry in expected]
    else:
        docs = certify_inputs(constructions)
        jobs = []
        for entry in expected:
            path = workdir / f"{entry['input']}.json"
            path.write_text(json.dumps(docs[entry["input"]]))
            argv = [str(path) if a == "{input}" else a for a in entry["argv"]]
            jobs.append(Job(entry["name"], entry["class"], argv, entry))
        for kind, size, param in INDEPENDENCE:
            doc, values = random_matrix(kind, size, param, rng)
            path = workdir / f"matrix_{kind}.json"
            path.write_text(json.dumps(doc))
            expect = {"matrix": (kind, param, values)}
            jobs.append(Job(f"independence-{kind}", "independence",
                            ["certify", "independence", "--matrix", str(path)], expect))
    rng.shuffle(jobs)
    return jobs


# ---------------------------------------------------------------------------
# Oracle


def witness_valid(params: dict, witness: dict) -> bool:
    """Independent check that the witness is a sorted family of distinct
    vectors in [0,q-1]^n whose pairs all satisfy the predicate."""
    n, q, pred = params["n"], params["q"], params["pred"]
    vecs = [tuple(v) for v in witness["vectors"]]
    if witness["n"] != n or witness["q"] != q or vecs != sorted(set(vecs)):
        return False
    if any(len(v) != n or any(not 0 <= x < q for x in v) for v in vecs):
        return False
    for u, v in combinations(vecs, 2):
        if pred == "inter-const":
            if sum(1 for a, b in zip(u, v) if a and b) != params["lam"]:
                return False
            continue
        dist = sum(1 for a, b in zip(u, v) if a != b)
        if pred == "dist-const" and dist != params["lam"]:
            return False
        if pred == "dist-mod" and dist % params["p"] != params["lam"] % params["p"]:
            return False
        if pred == "dist-set" and dist not in params["dist"]:
            return False
    return True


def check(job: Job, code, stdout: str) -> tuple[str, str]:
    """("ok" | "failed" | "wrong", reason).  A job fails when it raised,
    exited with an unexpected code or printed no JSON report; it is wrong
    when the report's answer differs from the oracle."""
    if isinstance(code, BaseException):
        return "failed", f"{type(code).__name__} escaped cli.main"
    try:
        report = json.loads(stdout)
        payload = report["payload"]
    except (ValueError, KeyError, TypeError):
        return "failed", "stdout is not a JSON report"
    expect = job.expect
    if "matrix" in expect:
        if "payload" not in expect:
            expect["payload"] = independence_payload(*expect["matrix"])
        want_payload = expect["payload"]
        want_code = 0 if want_payload["verdict"] == "pass" else 1
        if code != want_code:
            return "failed", f"exit code {code}, expected {want_code}"
        if digest(payload) != digest(want_payload):
            return "wrong", "payload differs from the independent elimination"
        return "ok", ""
    if code != 0 or report.get("outcome") != "pass":
        return "failed", f"exit code {code}, outcome {report.get('outcome')!r}"
    if "payload_sha256" in expect:
        if digest(payload) != expect["payload_sha256"]:
            return "wrong", "certificate payload differs from the recorded one"
        return "ok", ""
    if payload.get("max_size") != expect["max_size"]:
        return "wrong", f"max {payload.get('max_size')} != {expect['max_size']}"
    if digest(payload.get("witness")) != expect["witness_sha256"]:
        return "wrong", "witness differs from the recorded one"
    return "ok", ""
