"""CLI: subcommand behavior, exit codes, report determinism, file round
trips and fault injection."""

import argparse
import contextlib
import functools
import hashlib
import io
import json
import math
import operator
import os
import shlex
import subprocess
import sys
import tempfile
import time
import tracemalloc
from itertools import product
from pathlib import Path

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

import basisbound
from basisbound import cli, errors
from basisbound.cli import EXIT_CODES, build_parser, main
from basisbound.constructions import fano_plane, hadamard_plus_full, johnson_pairs, pentagon


# A decimal literal longer than the interpreter's int-to-str limit (4,300).
LONG = "1" * 4401

FANO_SETS = fano_plane().to_json_dict()["sets"]


def _pentagon_coords(edit):
    """The pentagon's Gram document with `edit` applied to each coordinate row."""
    doc = pentagon().to_json_dict()
    doc["coords"] = [edit(list(c)) for c in doc["coords"]]
    return json.dumps(doc)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    report = json.loads(captured.out) if captured.out.strip() else None
    return code, report, captured.err


def test_bound_delsarte(capsys):
    code, report, _ = run_cli(capsys, "bound", "delsarte", "--n", "3", "--q", "2", "--s", "1")
    assert code == 0
    assert report["outcome"] == "pass"
    assert report["payload"]["bound"] == 4


def test_bound_two_dist_max(capsys):
    code, report, _ = run_cli(capsys, "bound", "two-dist-max", "--n", "6")
    assert code == 0 and report["payload"]["bound"] == 27


def test_bound_mod_distance_check_pass_and_fail(capsys):
    code, report, _ = run_cli(
        capsys, "bound", "mod-distance-check", "--n", "4", "--q", "2", "--p", "3", "--lambda", "2"
    )
    assert code == 0 and report["payload"]["bound"] == 4
    code, report, _ = run_cli(
        capsys, "bound", "mod-distance-check", "--n", "3", "--q", "2", "--p", "5", "--lambda", "2"
    )
    assert code == 2
    assert report["outcome"] == "hypothesis-violation"
    assert report["payload"]["clauses"]["qLambdaClause"] is False


def test_bound_out_of_range_is_hypothesis_violation(capsys):
    code, report, _ = run_cli(capsys, "bound", "delsarte", "--n", "3", "--q", "2", "--s", "9")
    assert code == 2 and report["outcome"] == "hypothesis-violation"


def test_construct_and_certify_roundtrip(tmp_path, capsys):
    fano = tmp_path / "fano.json"
    code, report, _ = run_cli(capsys, "construct", "fano", "--out", str(fano))
    assert code == 0
    assert report["payload"]["summary"]["n"] == 7
    # the emitted file is loader-compatible
    code, report, _ = run_cli(capsys, "certify", "ryser", "--family", str(fano), "--lambda", "1")
    assert code == 0
    assert report["payload"]["details"]["alternative"] == "A"


def test_certify_ryser_at_plane_order_cap(tmp_path, capsys):
    """PG(2,31), the largest plane `construct pg` builds (n = 993), is
    certified: kappa is stated in closed form and re-substituted over the
    incidences, with no n x n elimination."""
    plane = tmp_path / "pg31.json"
    code, _, _ = run_cli(capsys, "construct", "pg", "--r", "31", "--out", str(plane))
    assert code == 0
    start = time.perf_counter()
    code, report, _ = run_cli(capsys, "certify", "ryser", "--family", str(plane), "--lambda", "1")
    assert time.perf_counter() - start < 5.0
    assert code == 0 and report["outcome"] == "pass"
    details = report["payload"]["details"]
    assert details["n"] == 993 and details["alternative"] == "A"
    assert details["kappa_values"] == ["1/32"] and details["r"] == "32"


def test_construct_report_sorts_sets(capsys):
    code, report, _ = run_cli(capsys, "construct", "fano")
    assert code == 0
    listed = report["payload"]["summary"]["sets_sorted"]
    assert listed == sorted(listed)


def test_construct_lambda_design_from_file(tmp_path, capsys):
    fano = tmp_path / "fano.json"
    run_cli(capsys, "construct", "fano", "--out", str(fano))
    out = tmp_path / "ld.json"
    code, _, _ = run_cli(
        capsys, "construct", "lambda-design", "--design", str(fano), "--out", str(out)
    )
    assert code == 0
    doc = json.loads(out.read_text())
    assert sorted(len(s) for s in doc["sets"]) == [3, 4, 4, 4, 4, 4, 4]


def test_construct_unsupported_order_exits_3(capsys):
    code, report, _ = run_cli(capsys, "construct", "hadamard", "--v", "4")
    assert code == 3 and report["outcome"] == "error"


@pytest.mark.parametrize("kind", ["hadamard", "hadamard-plus-full"])
def test_construct_hadamard_order_cap_before_primality(capsys, kind):
    """4v-1 = 10**18 + 3 is prime; trial division on it would run for
    minutes, so the desk-scale cap refuses v first."""
    code, report, _ = run_cli(capsys, "construct", kind, "--v", "250000000000000001")
    assert code == 2 and report["outcome"] == "hypothesis-violation"
    assert "desk scale" in report["payload"]["error"]


def test_construct_johnson_dimension_cap(capsys):
    """m = 100 would build and check a 4950 x 4950 Fraction Gram matrix."""
    code, report, _ = run_cli(capsys, "construct", "johnson", "--m", "100")
    assert code == 2 and report["outcome"] == "hypothesis-violation"
    assert "desk scale" in report["payload"]["error"]


def test_construct_johnson_at_dimension_cap(capsys):
    """m = 24, the cap, builds a 276-square Gram matrix and checks it PSD of
    rank at most 24 by fraction-free elimination on integers (under a
    second)."""
    start = time.perf_counter()
    code, report, _ = run_cli(capsys, "construct", "johnson", "--m", "24")
    assert time.perf_counter() - start < 3.0
    assert code == 0 and report["outcome"] == "pass"


def test_construct_lambda_design_from_pg(tmp_path, capsys):
    out = tmp_path / "ld.json"
    code, report, _ = run_cli(
        capsys, "construct", "lambda-design", "--pg", "3", "--block-index", "2", "--out", str(out)
    )
    assert code == 0
    code, report, _ = run_cli(capsys, "certify", "mod-design", "--family", str(out), "--p", "5")
    assert code == 0 or code == 2  # depends on residues for r=3; just re-readable
    doc = json.loads(out.read_text())
    assert doc["n"] == 13 and len(doc["sets"]) == 13


def test_certify_hamming_tight(tmp_path, capsys):
    vectors = tmp_path / "h.json"
    code, report, _ = run_cli(
        capsys, "construct", "hadamard-plus-full", "--v", "1", "--out", str(vectors)
    )
    assert code == 0
    doc = json.loads(vectors.read_text())
    system = {
        "n": doc["n"],
        "q": 2,
        "vectors": [[1 if e in s else 0 for e in range(1, doc["n"] + 1)] for s in doc["sets"]],
    }
    vectors.write_text(json.dumps(system))
    code, report, _ = run_cli(
        capsys, "certify", "hamming-tight", "--vectors", str(vectors), "--p", "5", "--lambda", "2"
    )
    assert code == 0
    assert report["payload"]["coefficients"] == ["2", "2", "2", "2"]


def _certify_hamming_tight(tmp_path, capsys, system, p, lam):
    vectors = tmp_path / "vectors.json"
    vectors.write_text(json.dumps(system))
    return run_cli(
        capsys, "certify", "hamming-tight", "--vectors", str(vectors), "--p", str(p),
        "--lambda", str(lam),
    )


def _payload_sha256(report):
    return hashlib.sha256(json.dumps(report["payload"], indent=2).encode()).hexdigest()


def test_certify_hamming_tight_large_alphabet(tmp_path, capsys):
    """The indicators are in Lagrange form, O(q^2) in all, so no alphabet
    size is refused.  q = 120 over F_127 exits 0 with the payload of the
    Vandermonde reference, and q = 500 over F_503 passes in under 1 s
    without a q x q table.  The payloads pinned before the closed form are
    unchanged: the benchmark's hamming-tight job and the 11 one-symbol
    vectors over F_11."""
    one_symbol = {"n": 1, "q": 120, "vectors": [[i] for i in range(120)]}
    code, report, _ = _certify_hamming_tight(tmp_path, capsys, one_symbol, 127, 1)
    assert code == 0 and report["outcome"] == "pass"
    assert _payload_sha256(report) == "50cdbed3224db9f5718bd7c48272d71c92b9c0e04fcf20657ebd5eca43130268"
    # Timed untraced: tracemalloc slows each allocation several times over.
    one_symbol = {"n": 1, "q": 500, "vectors": [[i] for i in range(500)]}
    started = time.monotonic()
    code, report, _ = _certify_hamming_tight(tmp_path, capsys, one_symbol, 503, 1)
    assert time.monotonic() - started < 1.0
    assert code == 0 and report["outcome"] == "pass"
    tracemalloc.start()
    try:
        code, report, _ = _certify_hamming_tight(tmp_path, capsys, one_symbol, 503, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0 and peak < 2 << 20
    cases = (
        (hadamard_plus_full(8).to_vector_system().to_json_dict(), 17, 16,
         "17d793a9762ed17483f32d183efea77e84f76dabb41573966ce1014a238b23b0"),
        ({"n": 1, "q": 11, "vectors": [[i] for i in range(11)]}, 11, 1,
         "bc7b452d64e8101acab324d24f150a93085624593f1213df1cc4c5d6402d62a7"),
    )
    for system, p, lam, digest in cases:
        code, report, _ = _certify_hamming_tight(tmp_path, capsys, system, p, lam)
        assert code == 0 and _payload_sha256(report) == digest


def test_certify_hamming_tight_lambda_not_positive(tmp_path, capsys):
    """lambda <= 0 is refused as not positive (exit 2, clause
    lambdaPositive), as Ryser refuses it; lambda = 0 mod p with lambda > 0
    keeps the lambdaNonzero clause."""
    system = hadamard_plus_full(1).to_vector_system().to_json_dict()
    code, report, _ = _certify_hamming_tight(tmp_path, capsys, system, 5, -3)
    assert code == 2 and report["outcome"] == "hypothesis-violation"
    assert report["payload"]["clause"] == "lambdaPositive"
    assert "lambda must be positive: -3" in json.dumps(report["payload"])
    code, report, _ = _certify_hamming_tight(tmp_path, capsys, system, 5, 10)
    assert code == 2 and report["payload"]["clause"] == "lambdaNonzero"
    assert "lambda = 10 is zero mod 5" in json.dumps(report["payload"])


def test_certify_hamming_tight_500_members(tmp_path, capsys):
    """hadamard-plus-full --v 125 as a vector system: 500 members on n = 499
    coordinates, 124,750 pairs, each one popcount of two packed members.
    The payload is the one the tuple-distance loop gave; the main call takes
    about 0.2 s on a 2-core Xeon VM, where the tuple loop took 2.1 s."""
    system = hadamard_plus_full(125).to_vector_system().to_json_dict()
    started = time.monotonic()
    code, report, _ = _certify_hamming_tight(tmp_path, capsys, system, 3, 250)
    elapsed = time.monotonic() - started
    assert code == 0 and report["outcome"] == "pass"
    assert _payload_sha256(report) == "0aa8ae2dee2f60579eb4153b2aee26bf288c374dd29750d4cacc381ce7329aaa"
    assert elapsed < 1.5


def test_closed_stdout_exits_3_without_traceback():
    """A reader that closes the pipe early, as `| head -c 10` does, gets
    exit 3 and one error line, not a BrokenPipeError traceback and exit 1.
    The report (about 358 KB) outgrows the pipe's buffer, so the write
    meets the closed pipe."""
    src = Path(basisbound.__file__).resolve().parents[1]
    proc = subprocess.Popen(
        [sys.executable, "-m", "basisbound", "construct", "pg", "--r", "31"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    try:
        assert len(proc.stdout.read(10)) == 10
        proc.stdout.close()
        _, err = proc.communicate(timeout=60)
    finally:
        proc.kill()
    assert proc.returncode == 3
    err = err.decode()
    assert "Traceback" not in err
    assert err.startswith("error:") and err.count("\n") == 1


def test_certify_two_distance_pentagon(tmp_path, capsys):
    gram = tmp_path / "pentagon.json"
    run_cli(capsys, "construct", "pentagon", "--out", str(gram))
    code, report, _ = run_cli(capsys, "certify", "two-distance", "--gram", str(gram))
    assert code == 0
    names = {i["name"]: i for i in report["payload"]["identities"]}
    assert names["maximal_two_distance_relation"]["left"] == "5/4"


def test_certify_two_distance_not_applicable_when_not_maximal(tmp_path, capsys):
    gram = tmp_path / "johnson.json"
    run_cli(capsys, "construct", "johnson", "--m", "6", "--out", str(gram))
    code, report, _ = run_cli(capsys, "certify", "two-distance", "--gram", str(gram))
    assert code == 2 and report["outcome"] == "not-applicable"


def test_certify_two_distance_fault_injection(tmp_path, capsys):
    """A corrupted Gram value must fail the forced relation, exit 1."""
    gram = tmp_path / "sch.json"
    run_cli(capsys, "construct", "schlafli27", "--out", str(gram))
    doc = json.loads(gram.read_text())
    doc["a"] = "1/3"
    doc["gram"] = [["1/3" if x == "1/4" else x for x in row] for row in doc["gram"]]
    gram.write_text(json.dumps(doc))
    code, report, _ = run_cli(capsys, "certify", "two-distance", "--gram", str(gram))
    assert code == 1 and report["outcome"] == "fail"
    names = {i["name"]: i for i in report["payload"]["identities"]}
    assert names["maximal_two_distance_relation"]["holds"] is False


@pytest.mark.parametrize(
    "a,b",
    [(str(10**400), str(4 * 10**400)),
     (f"2+{3 * 10**307}*sqrt(5)", f"2+{12 * 10**307}*sqrt(5)")],
    ids=["rational", "quadratic"],
)
def test_certify_two_distance_values_beyond_float_range(tmp_path, capsys, a, b):
    """Declared values whose float conversion overflows fail the coordinate
    checks in the report; they never escape as a traceback."""
    gram = tmp_path / "huge.json"
    doc = {"n": 1, "N": 2, "a": a, "b": b, "gram": [["1", a], [a, "1"]],
           "coords": [[0.0], [0.0]]}
    gram.write_text(json.dumps(doc))
    code, report, err = run_cli(capsys, "certify", "two-distance", "--gram", str(gram))
    assert "Traceback" not in err and code in (1, 3)
    if code == 1:
        assert report["payload"]["verdict"] == "fail"
        names = {i["name"]: i for i in report["payload"]["identities"]}
        assert names["coordinate_axis_sums_vanish"]["holds"] is False
        assert names["coordinate_norm_total"]["holds"] is False


def test_certify_neumaier(capsys):
    code, report, _ = run_cli(
        capsys, "certify", "neumaier", "--n", "5", "--count", "15", "--d1sq", "1", "--d2sq", "2"
    )
    assert code == 0 and report["payload"]["details"]["m"] == 2


def test_certify_neumaier_quadratic_scalars(capsys):
    code, report, _ = run_cli(
        capsys,
        "certify", "neumaier", "--n", "2", "--count", "8",
        "--d1sq", "3/2-1/2*sqrt(5)", "--d2sq", "3/2+1/2*sqrt(5)",
    )
    assert code == 1  # irrational ratio: no integer m


def test_certify_mod_design_violation_exit(tmp_path, capsys):
    fano = tmp_path / "fano.json"
    run_cli(capsys, "construct", "fano", "--out", str(fano))
    code, report, _ = run_cli(capsys, "certify", "mod-design", "--family", str(fano), "--p", "3")
    assert code == 2
    assert report["outcome"] == "hypothesis-violation"
    assert report["payload"]["clause"] == "kNonzero"


def test_certify_independence(tmp_path, capsys):
    matrix = tmp_path / "m.json"
    matrix.write_text(
        json.dumps({"field": {"kind": "prime", "p": 5}, "entries": [["1", "2"], ["2", "4"]]})
    )
    code, report, _ = run_cli(capsys, "certify", "independence", "--matrix", str(matrix))
    assert code == 1
    assert report["payload"]["details"]["rank_deficit"] == 1


@pytest.mark.parametrize("entries", [5, [5], ["12"]])
def test_certify_independence_entries_not_rows_exit_3(tmp_path, capsys, entries):
    matrix = tmp_path / "m.json"
    matrix.write_text(json.dumps({"field": {"kind": "rational"}, "entries": entries}))
    code, report, _ = run_cli(capsys, "certify", "independence", "--matrix", str(matrix))
    assert code == 3
    assert report["outcome"] == "error" and report["payload"]["kind"] == "MalformedInputError"
    assert "list of rows" in report["payload"]["error"]


@pytest.mark.parametrize(
    "argv, document",
    [
        (["independence", "--matrix"], '{"field": {"kind": "prime"}, "entries": [["1"]]}'),
        (["independence", "--matrix"], '{"field": {"kind": "quadratic", "d": null}, "entries": []}'),
        (["two-distance", "--gram"], '{"n": 1, "N": 1, "a": 1, "b": "0", "gram": [["1"]]}'),
        (["two-distance", "--gram"], '{"n": 1, "N": 1, "a": "1/2", "b": "0", "gram": 5}'),
        (["two-distance", "--gram"],
         '{"n": 1, "N": 2, "a": "0", "b": "-1/2", "gram": [["1", "0"], ["0", "1"]], "coords": 5}'),
        (["two-distance", "--gram"],
         '{"n": 1, "N": 2, "a": "0", "b": "-1/2", "gram": [["1", "0"], ["0", "1"]], "coords": [[], []]}'),
        (["ryser", "--lambda", "1", "--family"], '{"n": 1e999, "sets": [[1]]}'),
        (["hamming-tight", "--p", "3", "--lambda", "1", "--vectors"],
         '{"n": 1, "q": 1e999, "vectors": [[0]]}'),
        (["hamming-tight", "--p", "3", "--lambda", "1", "--vectors"],
         '{"n": 1, "q": 2, "vectors": [[0.0], [1]]}'),
        # Literals that int() or Fraction() refuse with ValueError: text, a
        # non-decimal digit, and more digits than the interpreter converts.
        (["independence", "--matrix"],
         f'{{"field": {{"kind": "rational"}}, "entries": [["{LONG}"]]}}'),
        (["independence", "--matrix"],
         f'{{"field": {{"kind": "prime", "p": 5}}, "entries": [["{LONG}"]]}}'),
        (["independence", "--matrix"],
         f'{{"field": {{"kind": "quadratic", "d": 5}}, "entries": [["{LONG}*sqrt(5)"]]}}'),
        (["independence", "--matrix"],
         '{"field": {"kind": "prime", "p": "abc"}, "entries": [["1"]]}'),
        (["independence", "--matrix"],
         '{"field": {"kind": "prime", "p": 5}, "entries": [["\u00b2"]]}'),
        (["two-distance", "--gram"],
         f'{{"n": 1, "N": 2, "a": "{LONG}", "b": "0", "gram": [["1", "0"], ["0", "1"]]}}'),
        (["two-distance", "--gram"],
         '{"n": "abc", "N": 2, "a": "0", "b": "-1/2", "gram": [["1", "0"], ["0", "1"]]}'),
        (["two-distance", "--gram"],
         '{"n": 1, "N": 2, "a": "0", "b": "-1/2", "gram": [["1", "0"], ["0", "1"]], '
         '"coords": "ab"}'),
        (["ryser", "--lambda", "1", "--family"], '{"n": "abc", "sets": [[1]]}'),
        (["hamming-tight", "--p", "3", "--lambda", "1", "--vectors"],
         '{"n": "abc", "q": 2, "vectors": [[0]]}'),
        # Integer fields must be JSON integers: int() would truncate a float
        # and read a bool or a digit string, and each document below would
        # then be certified.
        (["ryser", "--lambda", "1", "--family"], json.dumps({"n": 7.9, "sets": FANO_SETS})),
        (["independence", "--matrix"],
         '{"field": {"kind": "prime", "p": 5.9}, "entries": [["1", "2"], ["3", "4"]]}'),
        (["hamming-tight", "--p", "3", "--lambda", "1", "--vectors"],
         '{"n": 1, "q": 2.9, "vectors": [[0], [1]]}'),
        (["two-distance", "--gram"], json.dumps({**pentagon().to_json_dict(), "N": 5.2})),
        (["ryser", "--lambda", "1", "--family"], '{"n": true, "sets": [[1]]}'),
        (["ryser", "--lambda", "1", "--family"], json.dumps({"n": "7", "sets": FANO_SETS})),
        # Set elements and vector entries are JSON integers too: true is not 1.
        (["mod-design", "--p", "5", "--family"], '{"n": 3, "sets": [[true, 2], [2, 3], [1, 3]]}'),
        (["hamming-tight", "--p", "3", "--lambda", "1", "--vectors"],
         '{"n": 2, "q": 2, "vectors": [[false, false], [true, false], [false, true]]}'),
        # Coordinate rows hold exactly n finite JSON numbers; affine_dim is an integer.
        (["two-distance", "--gram"], _pentagon_coords(lambda c: c + [3.0])),
        (["two-distance", "--gram"], _pentagon_coords(lambda c: [math.nan] + c[1:])),
        (["two-distance", "--gram"], _pentagon_coords(lambda c: [True] + c[1:])),
        (["two-distance", "--gram"],
         json.dumps({**johnson_pairs(4).to_json_dict(), "affine_dim": "x"})),
        # The affine hull of points in R^n has dimension 0 to n.
        (["two-distance", "--gram"],
         json.dumps({**johnson_pairs(4).to_json_dict(), "affine_dim": -5})),
        (["two-distance", "--gram"],
         json.dumps({**johnson_pairs(4).to_json_dict(), "affine_dim": 99})),
    ],
    ids=["matrix-prime-without-p", "matrix-radicand-null", "gram-a-number", "gram-not-rows",
         "gram-coords-not-rows", "gram-coords-short-row", "family-n-overflow",
         "vectors-q-overflow", "vectors-float-entry", "matrix-long-rational",
         "matrix-long-residue", "matrix-long-surd", "matrix-p-text", "matrix-superscript-residue",
         "gram-long-a", "gram-n-text", "gram-coords-text", "family-n-text", "vectors-n-text",
         "family-n-float", "matrix-p-float", "vectors-q-float", "gram-N-float", "family-n-bool",
         "family-n-digit-string", "family-element-bool", "vectors-entry-bool",
         "gram-coords-long-row", "gram-coords-nan", "gram-coords-bool", "gram-affine-dim-text",
         "gram-affine-dim-negative", "gram-affine-dim-above-n"],
)
def test_certify_malformed_document_exit_3(tmp_path, capsys, argv, document):
    path = tmp_path / "doc.json"
    path.write_text(document)
    code, report, _ = run_cli(capsys, "certify", *argv, str(path))
    assert code == 3
    assert report["outcome"] == "error" and report["payload"]["kind"] == "MalformedInputError"


@pytest.mark.parametrize("d2sq", [LONG, f"sqrt({LONG})"], ids=["rational", "radicand"])
def test_certify_neumaier_long_literal_exit_3(capsys, d2sq):
    code, report, _ = run_cli(
        capsys, "certify", "neumaier", "--n", "5", "--count", "15", "--d1sq", "1", "--d2sq", d2sq
    )
    assert code == 3
    assert report["outcome"] == "error" and report["payload"]["kind"] == "MalformedInputError"


def test_search_report(capsys):
    code, report, _ = run_cli(
        capsys, "search", "--n", "4", "--q", "2", "--pred", "dist-mod", "--lambda", "2", "--p", "3"
    )
    assert code == 0
    payload = report["payload"]
    assert payload["max_size"] == 4
    assert payload["witness"]["vectors"][0] == [0, 0, 0, 0]


def test_search_dist_set_flag(capsys):
    code, report, _ = run_cli(
        capsys, "search", "--n", "3", "--q", "2", "--pred", "dist-set", "--dist-list", "1,2"
    )
    assert code == 0
    assert report["payload"]["max_size"] == 4


def test_search_whole_space_clique(capsys):
    """Every distance allowed: the maximum family is the whole space, a
    clique deeper than the interpreter's recursion limit."""
    code, report, _ = run_cli(
        capsys, "search", "--n", "10", "--q", "2", "--pred", "dist-set",
        "--dist-list", ",".join(str(d) for d in range(1, 11)),
    )
    assert code == 0
    payload = report["payload"]
    assert payload["max_size"] == 1024
    assert payload["witness"]["vectors"] == [list(v) for v in product(range(2), repeat=10)]


def test_search_guard_exit(capsys, monkeypatch):
    """The intersection graph for n = 20 has 2^20 - 1 vertices: refused from
    its size, before any vector is generated."""
    def fail(*args):
        raise AssertionError("enumerate_space called")

    monkeypatch.setattr("basisbound.search.enumerate_space", fail)
    code, report, _ = run_cli(
        capsys, "search", "--n", "20", "--q", "2", "--pred", "inter-const", "--lambda", "1"
    )
    assert code == 3 and report["outcome"] == "error"
    assert report["payload"]["kind"] == "ResourceGuardError"


def test_search_graph_guard_exit(capsys):
    """The intersection predicate keeps every set of weight >= lambda: for
    n = 17, lambda = 1 that is 2^17 - 1 sets, whose rows would take 2 GiB."""
    code, report, _ = run_cli(
        capsys, "search", "--n", "17", "--q", "2", "--pred", "inter-const", "--lambda", "1"
    )
    assert code == 3 and report["outcome"] == "error"
    assert report["payload"]["kind"] == "ResourceGuardError"


@pytest.mark.parametrize(
    "argv",
    [
        ["--pred", "dist-mod", "--lambda", "1", "--p", "2"],
        ["--pred", "inter-const", "--lambda", "50000000"],
    ],
)
def test_search_huge_n_guard_exit(capsys, argv):
    """n = 10^8 is refused at once, without a weight list of length n or a
    number of 10^8 digits."""
    started = time.monotonic()
    code, report, _ = run_cli(capsys, "search", "--n", "100000000", "--q", "2", *argv)
    assert time.monotonic() - started < 0.5
    assert code == 3 and report["outcome"] == "error"
    assert report["payload"]["kind"] == "ResourceGuardError"


def test_search_small_graph_of_a_large_space(capsys):
    """2^21 vectors, but only the zero vector and the all-ones vector are
    at distance 21 from the origin."""
    code, report, _ = run_cli(
        capsys, "search", "--n", "21", "--q", "2", "--pred", "dist-const", "--lambda", "21"
    )
    assert code == 0
    payload = report["payload"]
    assert payload["max_size"] == 2
    assert payload["witness"]["vectors"] == [[0] * 21, [1] * 21]


@pytest.mark.parametrize(
    "argv", [["--help"], ["search", "--help"], ["certify", "ryser", "--help"]]
)
def test_help_is_a_json_report(capsys, argv):
    code, report, err = run_cli(capsys, *argv)
    assert code == 0 and report["outcome"] == "pass" and report["command"] == argv
    assert report["payload"]["help"].startswith("usage: basisbound")
    assert err == ""


@pytest.mark.parametrize(
    "argv", [["--help"], ["search", "--help"], ["certify", "ryser", "--help"]]
)
def test_help_does_not_depend_on_the_terminal(capsys, monkeypatch, argv):
    """Help is formatted at a fixed width, so COLUMNS changes no byte of
    the report."""
    helps = []
    for columns in ("40", "200", None):
        if columns is None:
            monkeypatch.delenv("COLUMNS", raising=False)
        else:
            monkeypatch.setenv("COLUMNS", columns)
        code, report, _ = run_cli(capsys, *argv)
        assert code == 0
        helps.append(report["payload"]["help"])
    assert helps[0] == helps[1] == helps[2]


def test_inputs_digest_is_the_file_bytes_whatever_the_outcome(tmp_path, capsys):
    """Once the files are read, the report digests their bytes, not the
    argv with its paths: the same files in two directories give the same
    digest on a hypothesis violation and on an error, as on a pass."""
    runs = []
    for name in ("one", "two"):
        folder = tmp_path / name
        folder.mkdir()
        fano = folder / "fano.json"
        run_cli(capsys, "construct", "fano", "--out", str(fano))
        bad = folder / "bad.json"
        bad.write_text(json.dumps({"n": 3, "sets": "abc"}))
        runs.append([run_cli(capsys, *argv)[1] for argv in (
            ["certify", "mod-design", "--family", str(fano), "--p", "3"],
            ["certify", "mod-design", "--family", str(bad), "--p", "3"],
            ["certify", "ryser", "--family", str(fano), "--lambda", "1"],
        )])
    assert [r["outcome"] for r in runs[0]] == ["hypothesis-violation", "error", "pass"]
    assert [r["inputs_digest"] for r in runs[0]] == [r["inputs_digest"] for r in runs[1]]


def test_unexpected_exception_is_a_json_report_with_exit_3(tmp_path, capsys, monkeypatch):
    """An exception no handler names, here from an injected certifier
    fault, exits 3 with a report naming its type, not a traceback."""
    def fault(*args):
        raise RuntimeError("injected fault")

    monkeypatch.setattr(cli, "ryser_decompose", fault)
    fano = tmp_path / "fano.json"
    run_cli(capsys, "construct", "fano", "--out", str(fano))
    code, report, err = run_cli(capsys, "certify", "ryser", "--family", str(fano), "--lambda", "1")
    assert code == 3 and report["outcome"] == "error"
    assert report["payload"] == {"error": "injected fault", "kind": "RuntimeError"}
    assert err == "error: injected fault\n"


def test_verify_filter(capsys):
    code, report, err = run_cli(capsys, "verify", "--filter", "neumaier")
    assert code == 0
    rows = report["payload"]["criteria"]
    assert [r["criterion"] for r in rows] == ["neumaier-ratio"]
    assert "PASS" in err


def test_usage_errors_exit_3(capsys):
    """Usage and I/O errors exit 3 with a JSON error report on stdout."""
    for argv in (
        ["bound", "delsarte", "--n", "3", "--q", "2"],
        ["unknown-subcommand"],
        [],
        ["search", "--n", "x", "--q", "2", "--pred", "dist-const", "--lambda", "2"],
        ["certify", "ryser", "--family", "/nonexistent.json", "--lambda", "1"],
        ["search", "--n", "3", "--q", "2", "--pred", "dist-const", "--lambda", "2", "--jobs", "2"],
        ["search", "--n", "3", "--q", "2", "--pred", "dist-const", "--lambda", "2", "--max-space", "8"],
        ["search", "--n", "2", "--q", "300", "--pred", "dist-const", "--lambda", "1"],
        ["bound", "mod-distance-check", "--n", "3", "--q", "2", "--p", "0", "--lambda", "1"],
        ["bound", "mod-distance-check", "--n", "5", "--q", "2", "--p", "1000000000000000003", "--lambda", "1"],
        ["bound", "delsarte", "--n", "3000000", "--q", "2", "--s", "3000000"],
        ["bound", "msd", "--n", "3000000", "--s", "3000000"],
        ["bound", "msd", "--n", "10000", "--s", "10000"],
        ["verify", "--filter", "nosuch"],
    ):
        code, report, err = run_cli(capsys, *argv)
        assert code == 3, argv
        assert report["outcome"] == "error" and report["command"] == argv
        assert report["payload"]["error"] and report["payload"]["kind"]
        assert err.startswith("error: ")


PENTAGON = pentagon().to_json_dict()
SEARCH_3 = ["search", "--n", "3", "--q", "2", "--pred"]


@pytest.mark.parametrize(
    "argv, document, code, key, value, message",
    [
        (["certify", "independence", "--matrix"], {"field": {"kind": "octonion"}, "entries": [[1]]},
         3, "kind", "MalformedInputError", "unknown field kind 'octonion'"),
        (SEARCH_3 + ["dist-set", "--dist-list", "1,x"], None, 3, "kind", "UsageError",
         "bad --dist-list: invalid literal for int() with base 10: 'x'"),
        (["certify", "hamming-tight", "--p", "3", "--lambda", "1", "--vectors"],
         {"n": 1, "q": 5, "vectors": [[0], [1], [2], [3], [4]]},
         2, "clause", "pGeqQ", "need p >= q, got p=3, q=5"),
        (["search", "--n", "0", "--q", "2", "--pred", "dist-const", "--lambda", "1"], None,
         3, "kind", "MalformedInputError", "coordinate count must be positive: 0"),
        (SEARCH_3 + ["dist-set"], None,
         3, "kind", "MalformedInputError", "distance-set predicate needs a distance set"),
        (SEARCH_3 + ["dist-mod", "--lambda", "1"], None,
         3, "kind", "MalformedInputError", "distance-mod predicate needs lambda and p"),
        (SEARCH_3 + ["dist-mod", "--lambda", "1", "--p", "1"], None,
         3, "kind", "MalformedInputError", "modulus must be at least 2: 1"),
        (SEARCH_3 + ["dist-mod", "--lambda", "0", "--p", "3"], None,
         2, "clause", "lambdaPositive", "lambda must be positive: 0"),
        (["search", "--n", "3", "--q", "3", "--pred", "inter-const", "--lambda", "1"], None,
         2, "clause", "qIsTwo", "intersection predicate is defined for set families (q = 2)"),
        (["certify", "two-distance", "--gram"],
         {**PENTAGON, "gram": [[*PENTAGON["gram"][0][:1], PENTAGON["b"], *PENTAGON["gram"][0][2:]],
                               *PENTAGON["gram"][1:]]},
         3, "kind", "MalformedInputError", "gram matrix must be symmetric"),
        (["certify", "two-distance", "--gram"], {**PENTAGON, "coords": PENTAGON["coords"][:4]},
         3, "kind", "MalformedInputError", "coordinate count does not match point count"),
        (["certify", "two-distance", "--gram"], {**PENTAGON, "a": "1sqrt(5)"},
         3, "kind", "MalformedInputError", "missing sign between terms: '1sqrt(5)'"),
        (["construct", "lambda-design", "--pg", "2", "--block-index", "7"], None,
         3, "kind", "MalformedInputError", "block index 7 out of range"),
        (["bound", "msd", "--n", "0", "--s", "2"], None,
         2, "clause", "nAndSPositive", "n and s must be positive: n=0, s=2"),
        (["bound", "two-dist-max", "--n", "0"], None,
         2, "clause", "nPositive", "dimension must be positive: 0"),
        (["certify", "hamming-tight", "--p", "3", "--lambda", "1", "--vectors"],
         {"n": 0, "q": 2, "vectors": []},
         3, "kind", "MalformedInputError", "coordinate count must be positive: 0"),
        (["certify", "hamming-tight", "--p", "3", "--lambda", "1", "--vectors"],
         {"n": 1025, "q": 2, "vectors": []},
         3, "kind", "MalformedInputError", "coordinate count out of range: 1025"),
    ],
    ids=["matrix-unknown-field-kind", "dist-list-not-int", "hamming-tight-p-below-q",
         "search-n-zero", "dist-set-without-list", "dist-mod-without-p", "dist-mod-p-one",
         "dist-mod-lambda-zero", "inter-const-q-three", "gram-asymmetric", "gram-coords-count",
         "gram-a-malformed", "lambda-design-block-index", "msd-n-zero", "two-dist-max-n-zero",
         "vectors-n-zero", "vectors-n-too-large"],
)
def test_error_exits(tmp_path, capsys, argv, document, code, key, value, message):
    """Each user-reachable error exit: its code, its exception's kind (exit
    3) or its clause (exit 2), and its message, on stdout and stderr."""
    if document is not None:
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(document))
        argv = argv + [str(path)]
    got, report, err = run_cli(capsys, *argv)
    assert got == code
    assert report["payload"] == {"error": message, key: value}
    assert err == f"error: {message}\n"


def test_unwritable_out_reports_error(tmp_path, capsys):
    out = tmp_path / "missing-dir" / "report.json"
    code, report, _ = run_cli(capsys, "construct", "fano", "--out", str(out))
    assert code == 3
    assert report["outcome"] == "error" and report["payload"]["kind"] == "FileNotFoundError"


@pytest.mark.parametrize("target", ["0", "-1"])
def test_search_target_below_one_exit_3(capsys, target):
    """A target size below 1 is rejected (it used to run and report max_size 1)."""
    code, report, _ = run_cli(
        capsys, "search", "--n", "3", "--q", "2", "--pred", "dist-const", "--lambda", "2",
        "--target", target,
    )
    assert code == 3
    assert report["outcome"] == "error" and report["payload"]["kind"] == "MalformedInputError"


def test_malformed_json_exit_3(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, report, _ = run_cli(capsys, "certify", "ryser", "--family", str(bad), "--lambda", "1")
    assert code == 3 and report["outcome"] == "error"


@pytest.mark.parametrize(
    "argv",
    [["ryser", "--lambda", "1", "--family"], ["independence", "--matrix"]],
    ids=["ryser", "independence"],
)
def test_deeply_nested_json_exit_3(tmp_path, capsys, argv):
    """A 200,000-deep array overflows the decoder's recursion: a malformed
    input, reported as JSON with exit 3, not a traceback."""
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 200_000 + "]" * 200_000)
    code, report, _ = run_cli(capsys, "certify", *argv, str(deep))
    assert code == 3
    assert report["outcome"] == "error" and report["payload"]["kind"] == "MalformedInputError"


@pytest.mark.parametrize("field", [{"kind": "rational"}, {"kind": "quadratic", "d": 5}])
def test_unprintable_determinant_exit_3(tmp_path, capsys, field):
    """det of diag(10^4000, 10^4000) has 8,001 digits, past the
    interpreter's int-to-str limit: refused as a resource guard."""
    big = "1" + "0" * 4000
    matrix = tmp_path / "m.json"
    matrix.write_text(json.dumps({"field": field, "entries": [[big, "0"], ["0", big]]}))
    code, report, _ = run_cli(capsys, "certify", "independence", "--matrix", str(matrix))
    assert code == 3
    assert report["outcome"] == "error" and report["payload"]["kind"] == "ResourceGuardError"


def _strip_time(report):
    return {k: v for k, v in report.items() if k != "wall_time_s"}


def test_reports_are_deterministic(tmp_path, capsys):
    gram = tmp_path / "pentagon.json"
    run_cli(capsys, "construct", "pentagon", "--out", str(gram))
    first = run_cli(capsys, "certify", "two-distance", "--gram", str(gram))[1]
    second = run_cli(capsys, "certify", "two-distance", "--gram", str(gram))[1]
    assert _strip_time(first) == _strip_time(second)
    third = run_cli(
        capsys, "search", "--n", "3", "--q", "2", "--pred", "dist-const", "--lambda", "2"
    )[1]
    fourth = run_cli(
        capsys, "search", "--n", "3", "--q", "2", "--pred", "dist-const", "--lambda", "2"
    )[1]
    assert _strip_time(third) == _strip_time(fourth)


def test_emitted_files_reload(tmp_path, capsys):
    """Every --out document is re-readable by its loader."""
    from basisbound.constructions import GramTwoDistance
    from basisbound.families import SetFamily

    for name, args, loader in (
        ("fano", [], SetFamily.from_json_dict),
        ("hadamard", ["--v", "2"], SetFamily.from_json_dict),
        ("pentagon", [], GramTwoDistance.from_json_dict),
        ("johnson", ["--m", "4"], GramTwoDistance.from_json_dict),
    ):
        path = tmp_path / f"{name}.json"
        code, _, _ = run_cli(capsys, "construct", name, *args, "--out", str(path))
        assert code == 0
        loader(json.loads(path.read_text()))


# -- loader fuzzing -------------------------------------------------------------

# The error kinds a report may name: the CLI's usage error and every
# library error (a bare ValueError would not say which input was bad).
ERROR_KINDS = {"UsageError"} | {
    name for name, obj in vars(errors).items()
    if isinstance(obj, type) and issubclass(obj, errors.BasisBoundError)
}
_DELETE = object()
_FUZZ_CASES = {
    # subcommand: (document option, extra argv, valid document, key paths to overwrite)
    "independence": (
        "--matrix", [], {"field": {"kind": "prime", "p": 5}, "entries": [["1", "2"], ["3", "4"]]},
        [("field",), ("field", "kind"), ("field", "p"), ("field", "d"), ("entries",),
         ("entries", 0), ("entries", 0, 1)],
    ),
    "two-distance": (
        "--gram", [], pentagon().to_json_dict(),
        [("n",), ("N",), ("a",), ("b",), ("gram",), ("gram", 0), ("gram", 0, 1), ("coords",),
         ("coords", 0), ("coords", 0, 0), ("affine_dim",)],
    ),
    "hamming-tight": (
        "--vectors", ["--p", "5", "--lambda", "2"],
        hadamard_plus_full(1).to_vector_system().to_json_dict(),
        [("n",), ("q",), ("vectors",), ("vectors", 0), ("vectors", 0, 0)],
    ),
    "ryser": (
        "--family", ["--lambda", "1"], fano_plane().to_json_dict(),
        [("n",), ("sets",), ("sets", 0), ("sets", 0, 0)],
    ),
    "mod-design": (
        "--family", ["--p", "5"], fano_plane().to_json_dict(),
        [("n",), ("sets",), ("sets", 0), ("sets", 0, 0)],
    ),
}
_json_values = st.sampled_from(
    # Tuples, not lists: a sampled constant is shared between examples and
    # must not be edited in place.  JSON writes them as lists.
    [None, 0, 5, -1, 2**31 + 11, 10**400, float("inf"), 0.5, "1", "-1/2", "sqrt(5)", "1/0", (5,), ((),)]
) | st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=12),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)


@st.composite
def _mutated_documents(draw):
    kind = draw(st.sampled_from(sorted(_FUZZ_CASES)))
    paths = _FUZZ_CASES[kind][3]
    edits = st.tuples(st.sampled_from(paths), st.just(_DELETE) | _json_values)
    return kind, tuple(draw(st.lists(edits, min_size=1, max_size=2)))


def _edit(doc, path, value):
    """Write `value` at `path`, or delete the key; a path that an earlier
    edit removed is skipped."""
    try:
        target = functools.reduce(operator.getitem, path[:-1], doc)
        if value is _DELETE:
            del target[path[-1]]
        else:
            target[path[-1]] = value
    except (KeyError, IndexError, TypeError):
        pass


@settings(max_examples=50, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(_mutated_documents())
def test_certify_loaders_never_crash(case):
    """Any JSON value in any key of a certify document gives a JSON report,
    an exit code in 0..3, exit 1 only from a failed certificate, and exit 3
    only from a usage error or one of the library's own errors."""
    kind, edits = case
    option, extra, base, _ = _FUZZ_CASES[kind]
    doc = json.loads(json.dumps(base))
    for path, value in edits:
        _edit(doc, path, value)
    with tempfile.TemporaryDirectory() as tmp:
        document = Path(tmp) / "doc.json"
        document.write_text(json.dumps(doc))
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = main(["certify", kind, option, str(document), *extra])
    report = json.loads(out.getvalue())
    assert code in (0, 1, 2, 3)
    if code == 1:
        assert report["payload"]["verdict"] == "fail"
    if code == 3:
        assert report["payload"]["kind"] in ERROR_KINDS, report["payload"]


# -- argv fuzzing ---------------------------------------------------------------


def _leaf_flags(parser, path=()):
    """(subcommand path, option flags) of every leaf under `parser`, with the
    choices of each flag that has them; --help and --out are left out."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, child in action.choices.items():
                yield from _leaf_flags(child, path + (name,))
            return
    flags = [(a.option_strings[0], tuple(a.choices or ())) for a in parser._actions
             if a.option_strings and a.dest not in ("help", "out")]
    yield path, flags


LEAVES = [leaf for leaf in _leaf_flags(build_parser()) if leaf[0] != ("verify",)]
# A search over more than this many vectors is valid but can run for
# minutes (n = q = 5); the search tests cover that scale.
MAX_FUZZ_SPACE = 4**5


@pytest.fixture(scope="module")
def fuzz_files(tmp_path_factory):
    folder = tmp_path_factory.mktemp("argv")
    (folder / "fano.json").write_text(json.dumps(fano_plane().to_json_dict()))
    (folder / "pentagon.json").write_text(json.dumps(pentagon().to_json_dict()))
    return [str(folder / "fano.json"), str(folder / "pentagon.json"), str(folder / "missing.json")]


@settings(max_examples=200, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_argv_fuzz_reports(fuzz_files, data):
    """Any subcommand (verify excepted) with each flag omitted or given one
    of a few tokens gives one JSON report of its argv, an exit code in
    0..3 that matches the outcome, and exit 1 only on outcome fail; and
    the exit code, report and stderr of the full tree, the oracle of the
    tree that main builds for the argv."""
    path, flags = data.draw(st.sampled_from(LEAVES))
    argv = list(path)
    values = {}
    for flag, choices in flags:
        tokens = st.integers(-2, 5).map(str) | st.sampled_from(
            ["x", "1/0", "sqrt(5)", "1,2", *fuzz_files, *choices])
        token = data.draw(st.none() | tokens, label=flag)
        if token is not None:
            argv += [flag, token]
            values[flag] = token
    if path == ("search",) and values.get("--n", "").isdigit() and values.get("--q", "").isdigit():
        assume(int(values["--q"]) ** int(values["--n"]) <= MAX_FUZZ_SPACE)
    [(code, report, err)] = run = _reports([argv])
    assert report["command"] == argv
    # Exit 1 is the code of outcome fail alone.
    assert code in (0, 1, 2, 3) and code == EXIT_CODES[report["outcome"]]
    assert "Traceback" not in err
    with pytest.MonkeyPatch.context() as patch:
        _build_the_full_tree(patch)
        assert run == _reports([argv])


def test_readme_command_lines_parse():
    """Every `basisbound ...` line of README's Command line block names a
    subcommand and flags that the parser accepts."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```")[1]
    lines = [line for line in block.splitlines() if line.startswith("basisbound ")]
    assert lines
    for line in lines:
        argv = shlex.split(line)[1:]
        assert build_parser(argv).parse_args(argv) == build_parser().parse_args(argv)


# -- the parser of the branch that argv names ------------------------------------


def _helps(parser, path=()):
    """path -> format_help() of `parser` and of every parser under it."""
    helps = {path: parser.format_help()}
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, child in action.choices.items():
                helps.update(_helps(child, path + (name,)))
    return helps


SEARCH_ARGV = ["search", "--n", "3", "--q", "2", "--pred", "dist-const", "--lambda", "2"]
EDGE_ARGVS = [
    [], ["--help"], ["-h"], ["bogus"], ["--", *SEARCH_ARGV], ["search", "certify"],
    *([command, "--help"] for command in [*cli.GROUPS, *cli.RUNNERS]),
    ["certify", "ryser", "--help"], ["construct", "lambda-design", "--help"],
    ["certify", "bogus"], ["bound"], ["bound", "delsarte", "--n", "3"], ["search", "--n", "3"],
    [*SEARCH_ARGV[:6], "bogus"], ["construct", "pg", "--r", "2", "--bogus", "1"],
    ["verify", "--bogus"], ["construct", "fano"], SEARCH_ARGV,
    ["certify", "ryser"], ["certify", "ryser", "ryser"], ["certify", "--", "ryser"],
    ["certify", "-h", "ryser"], ["certify", "delsarte"], ["bound", "delsarte", "-h"],
    ["construct", "lambda-design", "--pg", "3", "--design", "x"],
]


def _reports(argvs):
    """(exit code, report without wall_time_s, stderr) of main on each argv."""
    runs = []
    for argv in argvs:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(list(argv))
        report = json.loads(out.getvalue())
        del report["wall_time_s"]
        runs.append((code, report, err.getvalue()))
    return runs


def _build_the_full_tree(patch):
    """Make main build the full tree, whatever its argv."""
    full_tree = build_parser
    patch.setattr(cli, "build_parser", lambda argv=(): full_tree())


def test_branch_parser_matches_the_full_tree(monkeypatch):
    """The full tree is the oracle of the branch that argv names: the
    root's help and every help under the command that argv[0] names, or
    under the leaf that argv[1] names, are the full tree's, and main, which
    builds that branch, reports on edge argvs what it reports with the full
    tree.  (A command's own help is reached only by an argv that names no
    leaf, so a leaf's branch is not asked for it.)"""
    full = _helps(build_parser())
    paths = [(command,) for command in [*cli.GROUPS, *cli.RUNNERS]]
    paths += [(command, leaf) for command, (_, table, _) in cli.GROUPS.items() for leaf in table]
    for path in paths:
        def own(helps):
            return {p: text for p, text in helps.items() if p == () or p[:len(path)] == path}

        assert own(_helps(build_parser(list(path)))) == own(full), path
    branch_reports = _reports(EDGE_ARGVS)
    _build_the_full_tree(monkeypatch)
    assert branch_reports == _reports(EDGE_ARGVS)


@pytest.mark.parametrize("argv, parsers", [
    (["certify", "ryser", "--family", "missing.json", "--lambda", "1"], 7),
    (["construct", "fano"], 7),
    (["bound", "delsarte", "--n", "3", "--q", "2", "--s", "1"], 7),
    (SEARCH_ARGV, 6),
    (["certify", "-h"], 12),
    (["--help"], 25),
])
def test_parsers_built_per_call(capsys, monkeypatch, argv, parsers):
    """main builds the root, every command's parser and, under the command
    that argv names, only the leaf that argv names, or every leaf when it
    names none: a count of parsers, which does not depend on the machine."""
    built = []
    init = cli.Parser.__init__

    def counted(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(cli.Parser, "__init__", counted)
    run_cli(capsys, *argv)
    assert len(built) == parsers


def test_importing_the_cli_leaves_the_acceptance_suite_out():
    """Only verify runs the acceptance suite, so importing the CLI does not
    import it."""
    src = Path(basisbound.__file__).resolve().parents[1]
    code = "import sys, basisbound.cli; print('basisbound.acceptance' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(src)}, timeout=60)
    assert proc.returncode == 0 and proc.stdout == "False\n", proc.stderr


def test_wall_time_includes_the_parser_build(capsys, monkeypatch):
    """The report's clock starts before the parse tree is built."""
    real = build_parser

    def slow(argv=()):
        time.sleep(0.05)
        return real(argv)

    monkeypatch.setattr(cli, "build_parser", slow)
    code, report, _ = run_cli(capsys, "bound", "two-dist-max", "--n", "6")
    assert code == 0 and report["wall_time_s"] >= 0.05
