"""Command-line entry point: bounds, constructions, certification, search
and the acceptance suite, all emitting machine-readable JSON reports.

Report JSON goes to stdout, diagnostics to stderr.  Exit codes: 0 pass,
1 fail, 2 not-applicable or hypothesis violation, 3 usage or I/O error.
Every exact scalar is serialized as a string in the shared scalar syntax,
never as a float, so identical inputs produce byte-identical reports
(modulo the wall_time_s field).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time

from . import acceptance
from .bounds import (
    check_mod_distance_hypotheses,
    delsarte_bound,
    msd_bound,
    two_distance_max,
    uniform_two_intersection_conjecture,
)
from .certifier import (
    certify_independence,
    hamming_tight_certificate,
    mod_design_certificate,
    neumaier_check,
    ryser_decompose,
    two_distance_certificate,
)
from .constructions import (
    GramTwoDistance,
    fano_plane,
    hadamard_design,
    hadamard_plus_full,
    johnson_pairs,
    lambda_design_type1,
    pentagon,
    projective_plane,
    schlafli27,
)
from .errors import (
    BasisBoundError,
    HypothesisViolationError,
    MalformedInputError,
)
from .exactfield import QQ, ExactMatrix, PrimeFieldCtx, QuadExtField, scalar_field
from .families import SetFamily, VectorSystem
from .search import (
    PRED_DIST_CONST,
    PRED_DIST_MOD,
    PRED_DIST_SET,
    PRED_INTERSECT_CONST,
    SearchProblem,
    search_max,
)

EXIT_CODES = {"pass": 0, "fail": 1, "not-applicable": 2, "hypothesis-violation": 2, "error": 3}


# --pred choice -> search predicate, in the order argparse lists the choices.
PREDICATES = {
    "dist-set": PRED_DIST_SET,
    "dist-mod": PRED_DIST_MOD,
    "dist-const": PRED_DIST_CONST,
    "inter-const": PRED_INTERSECT_CONST,
}


class UsageError(Exception):
    pass


class HelpRequested(Exception):
    """--help at any level: the help text, for the report, not argparse's exit."""


class Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)

    def print_help(self, file=None):
        raise HelpRequested(self.format_help())


def build_parser() -> Parser:
    parser = Parser(prog="basisbound", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    bound = sub.add_parser("bound", help="closed-form bound calculators")
    bound_sub = bound.add_subparsers(dest="bound_kind", required=True)
    p = bound_sub.add_parser("delsarte", help="distance-count bound for q-ary systems")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--s", type=int, required=True)
    p = bound_sub.add_parser("msd", help="spherical s-distance bound M(n,s)")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--s", type=int, required=True)
    p = bound_sub.add_parser("two-dist-max", help="maximal two-distance size n(n+3)/2")
    p.add_argument("--n", type=int, required=True)
    p = bound_sub.add_parser(
        "mod-distance-check",
        help="hypothesis check for the modular constant-distance bound n(q-1)",
    )
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--lambda", dest="lam", type=int, required=True)
    p = bound_sub.add_parser("conjecture", help="conjectured uniform two-intersection size")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--w", type=int, required=True)

    construct = sub.add_parser("construct", help="build a named configuration")
    construct_sub = construct.add_subparsers(dest="construct_kind", required=True)
    for name, help_text in (
        ("fano", "the 7-point projective plane"),
        ("pg", "projective plane of prime order r"),
        ("hadamard", "Paley-Hadamard design (4v-1, 2v-1, v-1)"),
        ("hadamard-plus-full", "Hadamard design plus the full ground set"),
        ("lambda-design", "type-1 lambda-design from a symmetric design"),
        ("pentagon", "regular pentagon two-distance set over Q(sqrt 5)"),
        ("schlafli27", "the 27-line two-distance set in dimension 6"),
        ("johnson", "pair-sum vectors (e_i+e_j)/sqrt(2) in R^m"),
    ):
        p = construct_sub.add_parser(name, help=help_text)
        if name == "pg":
            p.add_argument("--r", type=int, required=True)
        elif name in ("hadamard", "hadamard-plus-full"):
            p.add_argument("--v", type=int, required=True)
        elif name == "lambda-design":
            group = p.add_mutually_exclusive_group(required=True)
            group.add_argument("--design", help="symmetric-design family JSON file")
            group.add_argument("--pg", type=int, help="build from the order-r projective plane")
            p.add_argument("--block-index", type=int, default=0)
        elif name == "johnson":
            p.add_argument("--m", type=int, required=True)
        p.add_argument("--out", help="write the constructed JSON document to this file")

    certify = sub.add_parser("certify", help="run a certificate")
    certify_sub = certify.add_subparsers(dest="certify_kind", required=True)
    p = certify_sub.add_parser("independence", help="determinant criterion on an evaluation matrix")
    p.add_argument("--matrix", required=True)
    p.add_argument("--out")
    p = certify_sub.add_parser("hamming-tight", help="tight modular constant-distance family")
    p.add_argument("--vectors", required=True)
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--lambda", dest="lam", type=int, required=True)
    p.add_argument("--out")
    p = certify_sub.add_parser("two-distance", help="maximal spherical two-distance set")
    p.add_argument("--gram", required=True)
    p.add_argument("--out")
    p = certify_sub.add_parser("neumaier", help="squared-distance ratio integrality")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--d1sq", required=True)
    p.add_argument("--d2sq", required=True)
    p.add_argument("--out")
    p = certify_sub.add_parser("mod-design", help="modular design congruences")
    p.add_argument("--family", required=True)
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--out")
    p = certify_sub.add_parser("ryser", help="constant-intersection degree dichotomy")
    p.add_argument("--family", required=True)
    p.add_argument("--lambda", dest="lam", type=int, required=True)
    p.add_argument("--out")

    p = sub.add_parser("search", help="exhaustive maximum-family search")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument(
        "--pred",
        required=True,
        choices=list(PREDICATES),
    )
    p.add_argument("--lambda", dest="lam", type=int)
    p.add_argument("--p", type=int)
    p.add_argument("--dist-list", help="comma-separated allowed distances for dist-set")
    p.add_argument("--target", type=int, help="stop early once this size is reached")
    p.add_argument("--out")

    p = sub.add_parser("verify", help="run the acceptance suite")
    p.add_argument("--filter", help="run only criteria whose name contains this substring")
    p.add_argument("--out")

    return parser


def _digest(parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, bytes):
            h.update(part)
        else:
            h.update(str(part).encode())
        h.update(b"\x1f")
    return h.hexdigest()


def _read_json(path):
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc}") from exc
    try:
        return json.loads(raw.decode()), raw
    except (ValueError, UnicodeDecodeError, RecursionError) as exc:
        raise MalformedInputError(f"invalid JSON in {path}: {exc}") from exc


def _load_matrix(doc) -> ExactMatrix:
    try:
        field_doc = doc["field"]
        kind = field_doc["kind"]
        entries = doc["entries"]
        if kind == "rational":
            field = QQ
        elif kind == "prime":
            field = PrimeFieldCtx(int(field_doc["p"]))
        elif kind == "quadratic":
            field = QuadExtField(int(field_doc["d"]))
        else:
            raise MalformedInputError(f"unknown field kind {kind!r}")
    except (KeyError, TypeError, OverflowError) as exc:
        raise MalformedInputError(f"bad matrix document: {exc}") from exc
    if not (isinstance(entries, list) and all(isinstance(row, list) for row in entries)):
        raise MalformedInputError("matrix entries must be a list of rows")
    return ExactMatrix(field, [[field.parse(str(x)) for x in row] for row in entries])


def _family_summary(family: SetFamily) -> dict:
    return {
        "n": family.n,
        "sets": len(family),
        "sets_sorted": sorted(list(s) for s in family.sets),
    }


def _run_construct(args):
    inputs = []
    if args.construct_kind == "fano":
        data = fano_plane().to_json_dict()
    elif args.construct_kind == "pg":
        data = projective_plane(args.r).to_json_dict()
        inputs.append(args.r)
    elif args.construct_kind == "hadamard":
        data = hadamard_design(args.v).to_json_dict()
        inputs.append(args.v)
    elif args.construct_kind == "hadamard-plus-full":
        data = hadamard_plus_full(args.v).to_json_dict()
        inputs.append(args.v)
    elif args.construct_kind == "lambda-design":
        if args.design is not None:
            doc, raw = _read_json(args.design)
            base = SetFamily.from_json_dict(doc)
            inputs.append(raw)
        else:
            base = projective_plane(args.pg)
            inputs.append(args.pg)
        inputs.append(args.block_index)
        data = lambda_design_type1(base, args.block_index).to_json_dict()
    elif args.construct_kind == "pentagon":
        data = pentagon().to_json_dict()
    elif args.construct_kind == "schlafli27":
        data = schlafli27().to_json_dict()
    else:
        data = johnson_pairs(args.m).to_json_dict()
        inputs.append(args.m)
    if "sets" in data:
        summary = _family_summary(SetFamily.from_json_dict(data))
    else:
        summary = {"n": data["n"], "N": data["N"], "a": data["a"], "b": data["b"]}
    payload = {"name": args.construct_kind, "summary": summary, "data": data}
    return "pass", payload, inputs, data


def _run_certify(args):
    inputs = []
    if args.certify_kind == "independence":
        doc, raw = _read_json(args.matrix)
        inputs.append(raw)
        cert = certify_independence(_load_matrix(doc))
    elif args.certify_kind == "hamming-tight":
        doc, raw = _read_json(args.vectors)
        inputs.extend([raw, args.p, args.lam])
        system = VectorSystem.from_json_dict(doc)
        cert = hamming_tight_certificate(system, args.p, args.lam)
    elif args.certify_kind == "two-distance":
        doc, raw = _read_json(args.gram)
        inputs.append(raw)
        cert = two_distance_certificate(GramTwoDistance.from_json_dict(doc))
    elif args.certify_kind == "neumaier":
        inputs.extend([args.n, args.count, args.d1sq, args.d2sq])
        field = scalar_field([args.d1sq, args.d2sq])
        cert = neumaier_check(args.n, args.count, field.parse(args.d1sq), field.parse(args.d2sq))
    elif args.certify_kind == "mod-design":
        doc, raw = _read_json(args.family)
        inputs.extend([raw, args.p])
        cert = mod_design_certificate(SetFamily.from_json_dict(doc), args.p)
    else:
        doc, raw = _read_json(args.family)
        inputs.extend([raw, args.lam])
        cert = ryser_decompose(SetFamily.from_json_dict(doc), args.lam)
    payload = cert.to_json_dict()
    return cert.verdict, payload, inputs, payload


def _run_bound(args):
    if args.bound_kind == "delsarte":
        value = delsarte_bound(args.n, args.q, args.s)
        inputs = [args.n, args.q, args.s]
    elif args.bound_kind == "msd":
        value = msd_bound(args.n, args.s)
        inputs = [args.n, args.s]
    elif args.bound_kind == "two-dist-max":
        value = two_distance_max(args.n)
        inputs = [args.n]
    elif args.bound_kind == "conjecture":
        value = uniform_two_intersection_conjecture(args.n, args.w)
        inputs = [args.n, args.w]
    else:
        verdict = check_mod_distance_hypotheses(args.n, args.q, args.p, args.lam)
        payload = verdict.to_json_dict()
        outcome = "pass" if verdict.holds else "hypothesis-violation"
        return outcome, payload, [args.n, args.q, args.p, args.lam], payload
    payload = {"bound": value}
    return "pass", payload, inputs, payload


def _run_search(args):
    predicate = PREDICATES[args.pred]
    allowed = None
    if args.dist_list is not None:
        try:
            allowed = tuple(int(x) for x in args.dist_list.split(",") if x.strip())
        except ValueError as exc:
            raise UsageError(f"bad --dist-list: {exc}") from exc
    problem = SearchProblem(
        n=args.n,
        q=args.q,
        predicate=predicate,
        lam=args.lam,
        p=args.p,
        allowed=allowed,
        target_size=args.target,
    )
    result = search_max(problem)
    payload = result.to_json_dict()
    inputs = [args.n, args.q, predicate, args.lam, args.p, allowed, args.target]
    return "pass", payload, inputs, payload


def _run_verify(args):
    rows = acceptance.run_suite(
        filter_substring=args.filter,
        log=lambda line: print(line, file=sys.stderr),
    )
    ok = all(r["passed"] for r in rows) and rows
    payload = {"criteria": rows, "all_passed": bool(ok)}
    return ("pass" if ok else "fail"), payload, [args.filter or ""], payload


def dispatch(args) -> tuple[str, dict, list, dict]:
    if args.command == "bound":
        return _run_bound(args)
    if args.command == "construct":
        return _run_construct(args)
    if args.command == "certify":
        return _run_certify(args)
    if args.command == "search":
        return _run_search(args)
    return _run_verify(args)


def _error_payload(exc) -> dict:
    return {"error": str(exc), "kind": type(exc).__name__}


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    started = time.monotonic()
    args = error_message = None
    inputs = argv
    try:
        args = parser.parse_args(argv)
        outcome, payload, inputs, document = dispatch(args)
    except HelpRequested as exc:
        outcome, payload = "pass", {"help": str(exc)}
    except HypothesisViolationError as exc:
        outcome = "hypothesis-violation"
        payload = {"error": str(exc), "clause": exc.clause}
        error_message = str(exc)
    except (UsageError, BasisBoundError, ValueError, OSError) as exc:
        outcome = "error"
        payload = _error_payload(exc)
        error_message = str(exc)

    report = {
        "command": argv,
        "inputs_digest": _digest(inputs),
        "outcome": outcome,
        "payload": payload,
        "wall_time_s": round(time.monotonic() - started, 6),
    }
    out_path = getattr(args, "out", None) if error_message is None else None
    if out_path:
        try:
            with open(out_path, "w") as fh:
                json.dump(document, fh, indent=2)
                fh.write("\n")
        except OSError as exc:
            outcome = "error"
            report.update(outcome=outcome, payload=_error_payload(exc))
            error_message = f"cannot write {out_path}: {exc}"
    json.dump(report, sys.stdout, indent=2)
    sys.stdout.write("\n")
    if error_message is not None:
        print(f"error: {error_message}", file=sys.stderr)
    return EXIT_CODES[outcome]


if __name__ == "__main__":
    sys.exit(main())
