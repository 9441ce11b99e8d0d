"""Command-line entry point: bounds, constructions, certification, search
and the acceptance suite, all emitting machine-readable JSON reports.

Report JSON goes to stdout, diagnostics to stderr.  Exit codes: 0 pass,
1 fail, 2 not-applicable or hypothesis violation, 3 usage, I/O or any
other error.
Every exact scalar is serialized as a string in the shared scalar syntax,
never as a float, so identical inputs produce byte-identical reports
(modulo the wall_time_s field).

Each `bound`, `construct` and `certify` subcommand is one row of the
BOUNDS, CONSTRUCTIONS or CERTIFICATES table: name -> (help, argument
names, runner).  The argument names, in order, give the subcommand's
required flags (`lam` is `--lambda`), the runner's arguments and the
inputs its report digests.  A FILE_ARGS name is a JSON file: the runner
gets its document and the digest its bytes.  A TEXT_ARGS name is a scalar
literal, every other name an int.  Only `construct lambda-design` declares
its own flags.  GROUPS turns each table's runner results into reports.

Each `main` call builds the argparse tree that its argv needs
(`build_parser(argv)`): the root and every command's parser, and
under the command that argv[0] names, the leaf that argv[1] names with its
flags.  When argv[1] names no leaf of that command (`-h`, a typo, `--`,
nothing), every leaf of it is built, so its help and `invalid choice`
messages are the full tree's; an argv that names no command gets the full
tree.  Every command's parser is still built, though an argv that names
one command reaches no other: building only that one, or keeping one
parser from call to call, would make the benchmark's worker, which calls
`main` many times, run more rounds, and it keeps data for every round, so
its peak RSS would rise (ROADMAP item 10).  The `basisbound` script parses
once per process, so either would save it nothing.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time

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
from .errors import HypothesisViolationError, MalformedInputError
from .exactfield import QQ, ExactMatrix, PrimeFieldCtx, QuadExtField
from .families import SetFamily, VectorSystem, json_int
from .search import (
    PRED_DIST_CONST,
    PRED_DIST_MOD,
    PRED_DIST_SET,
    PRED_INTERSECT_CONST,
    SearchProblem,
    search_max,
)

PIPE_BUF = 4096  # POSIX: a pipe write of at most PIPE_BUF bytes is all or nothing
EXIT_CODES = {"pass": 0, "fail": 1, "not-applicable": 2, "hypothesis-violation": 2, "error": 3}


# --pred choice -> search predicate, in the order argparse lists the choices.
PREDICATES = {
    "dist-set": PRED_DIST_SET,
    "dist-mod": PRED_DIST_MOD,
    "dist-const": PRED_DIST_CONST,
    "inter-const": PRED_INTERSECT_CONST,
}

FILE_ARGS = {"matrix", "vectors", "gram", "family", "design"}
TEXT_ARGS = {"d1sq", "d2sq"}


def _bound(calculator):
    """Runner of a closed-form calculator: its value is the report's bound."""
    return lambda *args: ("pass", {"bound": calculator(*args)})


def _mod_distance_check(n, q, p, lam):
    verdict = check_mod_distance_hypotheses(n, q, p, lam)
    return ("pass" if verdict.holds else "hypothesis-violation"), verdict.to_json_dict()


# Bound runners return (outcome, payload).
BOUNDS = {
    "delsarte": ("distance-count bound for q-ary systems", ("n", "q", "s"), _bound(delsarte_bound)),
    "msd": ("spherical s-distance bound M(n,s)", ("n", "s"), _bound(msd_bound)),
    "two-dist-max": ("maximal two-distance size n(n+3)/2", ("n",), _bound(two_distance_max)),
    "mod-distance-check": ("hypothesis check for the modular constant-distance bound n(q-1)",
                           ("n", "q", "p", "lam"), _mod_distance_check),
    "conjecture": ("conjectured uniform two-intersection size", ("n", "w"),
                   _bound(uniform_two_intersection_conjecture)),
}


def _lambda_design(design, pg, block_index):
    base = projective_plane(pg) if design is None else SetFamily.from_json_dict(design)
    return lambda_design_type1(base, block_index)


# Construction runners return the built SetFamily or GramTwoDistance.
CONSTRUCTIONS = {
    "fano": ("the 7-point projective plane", (), fano_plane),
    "pg": ("projective plane of prime order r", ("r",), projective_plane),
    "hadamard": ("Paley-Hadamard design (4v-1, 2v-1, v-1)", ("v",), hadamard_design),
    "hadamard-plus-full": ("Hadamard design plus the full ground set", ("v",), hadamard_plus_full),
    "lambda-design": ("type-1 lambda-design from a symmetric design",
                      ("design", "pg", "block_index"), _lambda_design),
    "pentagon": ("regular pentagon two-distance set over Q(sqrt 5)", (), pentagon),
    "schlafli27": ("the 27-line two-distance set in dimension 6", (), schlafli27),
    "johnson": ("pair-sum vectors (e_i+e_j)/sqrt(2) in R^m", ("m",), johnson_pairs),
}


# Certify runners return a Certificate.  They look the certifier, the loader
# and the from_json_dict classmethod up by name on each call, so that the
# benchmark's tracing hooks (perfbench/tracing.py), which replace those
# attributes, see every call.
CERTIFICATES = {
    "independence": ("determinant criterion on an evaluation matrix", ("matrix",),
                     lambda matrix: certify_independence(_load_matrix(matrix))),
    "hamming-tight": ("tight modular constant-distance family", ("vectors", "p", "lam"),
                      lambda vectors, p, lam: hamming_tight_certificate(
                          VectorSystem.from_json_dict(vectors), p, lam)),
    "two-distance": ("maximal spherical two-distance set", ("gram",),
                     lambda gram: two_distance_certificate(GramTwoDistance.from_json_dict(gram))),
    "neumaier": ("squared-distance ratio integrality", ("n", "count", "d1sq", "d2sq"),
                 lambda n, count, d1sq, d2sq: neumaier_check(n, count, d1sq, d2sq)),
    "mod-design": ("modular design congruences", ("family", "p"),
                   lambda family, p: mod_design_certificate(SetFamily.from_json_dict(family), p)),
    "ryser": ("constant-intersection degree dichotomy", ("family", "lam"),
              lambda family, lam: ryser_decompose(SetFamily.from_json_dict(family), lam)),
}


def _bound_report(kind, result):
    outcome, payload = result
    return outcome, payload, payload


def _construct_report(kind, built):
    data = built.to_json_dict()
    if isinstance(built, SetFamily):
        summary = {"n": built.n, "sets": len(built), "sets_sorted": sorted(data["sets"])}
    else:
        summary = {key: data[key] for key in ("n", "N", "a", "b")}
    return "pass", {"name": kind, "summary": summary, "data": data}, data


def _certify_report(kind, cert):
    payload = cert.to_json_dict()
    return cert.verdict, payload, payload


# command -> (help, leaf table, (leaf name, runner result) -> (outcome,
# payload, --out document)).
GROUPS = {
    "bound": ("closed-form bound calculators", BOUNDS, _bound_report),
    "construct": ("build a named configuration", CONSTRUCTIONS, _construct_report),
    "certify": ("run a certificate", CERTIFICATES, _certify_report),
}
# The groups whose leaves take --out, and its help text.
OUT_HELP = {"construct": "write the constructed JSON document to this file", "certify": None}


class UsageError(Exception):
    pass


class HelpRequested(Exception):
    """--help at any level: the help text, for the report, not argparse's exit."""


# Help text width: argparse's own when COLUMNS is unset and stdout is not a
# terminal, fixed so that the help report is the same in every terminal.
HELP_WIDTH = 78


class Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)

    def _get_formatter(self):
        return self.formatter_class(prog=self.prog, width=HELP_WIDTH)

    def print_help(self, file=None):
        raise HelpRequested(self.format_help())


def build_parser(argv=()) -> Parser:
    """The root parser and one parser per command, each with its help, so
    that the root's help, usage and `invalid choice` messages are the same
    whatever `argv` is.  Leaves and flags go under the command that argv[0]
    names alone, or under every command when it names none; of that
    command's leaves, only the one that argv[1] names is built, or all of
    them when it names none."""
    command = argv[0] if argv and (argv[0] in GROUPS or argv[0] in RUNNERS) else None
    kinds = GROUPS[command][1] if command in GROUPS else ()
    leaf = argv[1] if len(argv) > 1 and argv[1] in kinds else None
    # --help shows the docstring's first two paragraphs, for users; the
    # rest is for readers of this module.
    parser = Parser(prog="basisbound", description="\n\n".join(__doc__.split("\n\n")[:2]))
    # prog= is the prefix argparse would format from the usage line (no
    # positionals precede a subcommand); passing it skips that formatting.
    sub = parser.add_subparsers(dest="command", required=True, prog=parser.prog)
    for name, (help_text, table, _) in GROUPS.items():
        group = sub.add_parser(name, help=help_text)
        if command not in (None, name):
            continue
        leaves = group.add_subparsers(dest=f"{name}_kind", required=True, prog=group.prog)
        for kind, (leaf_help, arg_names, _) in table.items():
            if leaf not in (None, kind):
                continue
            p = leaves.add_parser(kind, help=leaf_help)
            if kind == "lambda-design":
                base = p.add_mutually_exclusive_group(required=True)
                base.add_argument("--design", help="symmetric-design family JSON file")
                base.add_argument("--pg", type=int, help="build from the order-r projective plane")
                p.add_argument("--block-index", type=int, default=0)
            else:
                for arg in arg_names:
                    flag = "--lambda" if arg == "lam" else "--" + arg
                    typed = None if arg in FILE_ARGS or arg in TEXT_ARGS else int
                    p.add_argument(flag, dest=arg, required=True, type=typed)
            if name in OUT_HELP:
                p.add_argument("--out", help=OUT_HELP[name])

    p = sub.add_parser("search", help="exhaustive maximum-family search")
    if command in (None, "search"):
        p.add_argument("--n", type=int, required=True)
        p.add_argument("--q", type=int, required=True)
        p.add_argument("--pred", required=True, choices=list(PREDICATES))
        p.add_argument("--lambda", dest="lam", type=int)
        p.add_argument("--p", type=int)
        p.add_argument("--dist-list", help="comma-separated allowed distances for dist-set")
        p.add_argument("--target", type=int, help="stop early once this size is reached")
        p.add_argument("--out")

    p = sub.add_parser("verify", help="run the acceptance suite")
    if command in (None, "verify"):
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
    """Each distinct literal str(entry) is parsed once, in row-major order, as the
    Gram loader does, so the first bad one names the error; F_p uses `parse_row`."""
    try:
        field_doc = doc["field"]
        kind = field_doc["kind"]
        entries = doc["entries"]
        if kind == "rational":
            field = QQ
        elif kind == "prime":
            field = PrimeFieldCtx(json_int(field_doc, "p"))
        elif kind == "quadratic":
            field = QuadExtField(json_int(field_doc, "d"))
        else:
            raise MalformedInputError(f"unknown field kind {kind!r}")
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise MalformedInputError(f"bad matrix document: {exc}") from exc
    if not (isinstance(entries, list) and all(isinstance(row, list) for row in entries)):
        raise MalformedInputError("matrix entries must be a list of rows")
    if kind == "prime":
        return ExactMatrix(field, [field.parse_row(row) for row in entries])
    literals = [[str(x) for x in row] for row in entries]
    value = {s: field.parse(s) for s in dict.fromkeys(s for row in literals for s in row)}
    return ExactMatrix(field, [[value[s] for s in row] for row in literals])


def _run_leaf(args):
    """A table row's run: read its file arguments and digest the values (a
    file's bytes), then call its runner; an omitted optional flag (one side
    of lambda-design's --design/--pg) is not digested."""
    kind = getattr(args, f"{args.command}_kind")
    _, table, report = GROUPS[args.command]
    _, arg_names, runner = table[kind]
    values, inputs = [], []
    for name in arg_names:
        value = getattr(args, name)
        if value is not None and name in FILE_ARGS:
            value, raw = _read_json(value)
            inputs.append(raw)
        elif value is not None:
            inputs.append(value)
        values.append(value)
    return inputs, lambda: report(kind, runner(*values))


def _run_search(args):
    predicate = PREDICATES[args.pred]
    allowed = None
    if args.dist_list is not None:
        try:
            allowed = tuple(int(x) for x in args.dist_list.split(",") if x.strip())
        except ValueError as exc:
            raise UsageError(f"bad --dist-list: {exc}") from exc
    # The problem's fields, in order.
    inputs = [args.n, args.q, predicate, args.lam, args.p, allowed, args.target]

    def run():
        payload = search_max(SearchProblem(*inputs)).to_json_dict()
        return "pass", payload, payload

    return inputs, run


def _run_verify(args):
    # Imported here, as only verify runs the suite.
    from . import acceptance

    def run():
        rows = acceptance.run_suite(
            filter_substring=args.filter,
            log=lambda line: print(line, file=sys.stderr),
        )
        if not rows:
            raise UsageError(f"no criterion matches --filter {args.filter!r}")
        ok = all(r["passed"] for r in rows)
        payload = {"criteria": rows, "all_passed": ok}
        return ("pass" if ok else "fail"), payload, payload

    return [args.filter or ""], run


# A command's runner reads its inputs and returns them, as the report
# digests them, with a call that runs the command and returns (outcome,
# payload, --out document).  So a run that raises digests the same inputs as
# one that returns.
RUNNERS = {"search": _run_search, "verify": _run_verify}


def dispatch(args):
    return RUNNERS.get(args.command, _run_leaf)(args)


def _error_payload(exc) -> dict:
    return {"error": str(exc), "kind": type(exc).__name__}


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    started = time.monotonic()
    parser = build_parser(argv)
    args = error_message = None
    inputs = argv
    try:
        args = parser.parse_args(argv)
        inputs, run = dispatch(args)
        outcome, payload, document = run()
    except HelpRequested as exc:
        outcome, payload = "pass", {"help": str(exc)}
    except HypothesisViolationError as exc:
        outcome = "hypothesis-violation"
        payload = {"error": str(exc), "clause": exc.clause}
        error_message = str(exc)
    except Exception as exc:
        # Usage, input and I/O errors, and any fault of the program: a
        # report naming the exception's type, never a traceback.
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
                fh.write(json.dumps(document, indent=2) + "\n")
        except OSError as exc:
            outcome = "error"
            report.update(outcome=outcome, payload=_error_payload(exc))
            error_message = f"cannot write {out_path}: {exc}"
    try:
        # json.dump makes a system call per token when stdout is unbuffered, and
        # one long write to a closed pipe can come back short without an error.
        text = json.dumps(report, indent=2) + "\n"
        sys.stdout.writelines(text[i:i + PIPE_BUF] for i in range(0, len(text), PIPE_BUF))
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout.  Point it at devnull, so that the
        # interpreter's flush at exit cannot raise again.
        with open(os.devnull, "w") as devnull:
            os.dup2(devnull.fileno(), sys.stdout.fileno())
        outcome, error_message = "error", "stdout closed before the report was written"
    if error_message is not None:
        print(f"error: {error_message}", file=sys.stderr)
    return EXIT_CODES[outcome]


if __name__ == "__main__":
    sys.exit(main())
