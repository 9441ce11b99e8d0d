"""Per-layer tracing for the basisbound benchmark, entirely from outside the
package: each layer's public entry points are wrapped at the name their
caller looks up, and every call records a span (name, start, end, parent).

A layer's self time is the duration of its spans minus the part covered by
child spans.  Hooks are installed only for traced rounds and removed
afterwards, so untraced rounds run the package unmodified.  A hook whose
target no longer exists is skipped and the metrics that need it are
reported as absent.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
from collections import Counter
from fractions import Fraction
from time import perf_counter

# (span name, module, attribute path).  Certifier entry points and
# search_max are looked up by the CLI, exact-field routines by the
# certifier, kernel routines as attributes of basisbound.kernel.
HOOKS = (
    ("cli.main", "basisbound.cli", "main"),
    ("search.search_max", "basisbound.cli", "search_max"),
    ("certifier.independence", "basisbound.cli", "certify_independence"),
    ("certifier.hamming_tight", "basisbound.cli", "hamming_tight_certificate"),
    ("certifier.two_distance", "basisbound.cli", "two_distance_certificate"),
    ("certifier.mod_design", "basisbound.cli", "mod_design_certificate"),
    ("certifier.ryser", "basisbound.cli", "ryser_decompose"),
    ("families.parse", "basisbound.cli", "_read_json"),
    ("families.parse", "basisbound.cli", "_load_matrix"),
    ("families.parse", "basisbound.families", "SetFamily.from_json_dict"),
    ("families.parse", "basisbound.families", "VectorSystem.from_json_dict"),
    ("families.parse", "basisbound.constructions", "GramTwoDistance.from_json_dict"),
    ("exactfield.invert", "basisbound.certifier", "invert"),
    ("exactfield.solve", "basisbound.certifier", "solve_linear"),
    ("exactfield.rank", "basisbound.certifier", "rank"),
    ("exactfield.det", "basisbound.certifier", "determinant"),
    ("exactfield.inertia", "basisbound.certifier", "inertia_psd_rank"),
    ("search.enumerate", "basisbound.search", "enumerate_space"),
    ("kernel.adjacency", "basisbound.kernel", "adjacency"),
    ("kernel.extend_max", "basisbound.kernel", "extend_max"),
    ("kernel.witness", "basisbound.kernel", "first_clique_of_size"),
)

# Constructions called by the benchmark's own set-up.
SETUP_HOOKS = tuple(
    ("constructions.build", "basisbound.constructions", name)
    for name in (
        "projective_plane",
        "near_pencil",
        "lambda_design_type1",
        "hadamard_plus_full",
        "pentagon",
        "schlafli27",
    )
)

# Per-layer self-time metrics and the span each one sums.
SELF_TIMES = {
    "cli.self_s": "cli.main",
    "families.parse_s": "families.parse",
    "search.self_s": "search.search_max",
    "search.enumerate_s": "search.enumerate",
    "kernel.adjacency_s": "kernel.adjacency",
    "kernel.extend_max_s": "kernel.extend_max",
    "kernel.witness_s": "kernel.witness",
    "exactfield.invert_s": "exactfield.invert",
    "exactfield.solve_s": "exactfield.solve",
    "exactfield.rank_s": "exactfield.rank",
    "exactfield.det_s": "exactfield.det",
    "exactfield.inertia_s": "exactfield.inertia",
    "certifier.ryser_self_s": "certifier.ryser",
    "certifier.two_distance_self_s": "certifier.two_distance",
    "certifier.hamming_tight_self_s": "certifier.hamming_tight",
    "certifier.mod_design_self_s": "certifier.mod_design",
    "certifier.independence_self_s": "certifier.independence",
}

# Counter metrics and the span whose hook feeds them.
COUNTS = {
    "kernel.extend_max_calls": "kernel.extend_max",
    "kernel.nodes": "kernel.extend_max",
    "kernel.nodes_per_s": "kernel.extend_max",
    "kernel.adjacency_pairs": "kernel.adjacency",
    "kernel.edge_density": "kernel.adjacency",
    "kernel.adjacency_bytes": "kernel.adjacency",
    "exactfield.calls": "exactfield.det",
    "exactfield.max_dim": "exactfield.det",
    "exactfield.result_bits": "exactfield.det",
}

# Counts that do not depend on the machine: two runs must agree exactly.
EXACT_COUNTS = ("kernel.nodes", "kernel.adjacency_pairs", "exactfield.max_dim", "exactfield.calls")


def _bits(x) -> int:
    """Largest numerator or denominator bit length inside an exact value."""
    if isinstance(x, bool):
        return 0
    if isinstance(x, int):
        return abs(x).bit_length()
    if isinstance(x, Fraction):
        return max(abs(x.numerator).bit_length(), x.denominator.bit_length())
    if hasattr(x, "surd"):
        return max(_bits(x.rat), _bits(x.surd))
    if hasattr(x, "entries"):
        return _bits(x.entries)
    if isinstance(x, (list, tuple)):
        return max((_bits(v) for v in x), default=0)
    return 0


def _observe_adjacency(counts, args, rows):
    count = len(args[0])
    counts["kernel.adjacency_pairs"] += count * (count - 1) // 2
    counts["kernel.adjacency_edges"] += sum(r.bit_count() for r in rows) // 2
    counts["kernel.adjacency_bytes"] = max(counts["kernel.adjacency_bytes"], count * count // 8)


def _observe_extend_max(counts, args, result):
    counts["kernel.extend_max_calls"] += 1
    counts["kernel.nodes"] += result[2]


def _observe_exactfield(counts, args, result):
    matrix = args[0]
    counts["exactfield.calls"] += 1
    counts["exactfield.max_dim"] = max(counts["exactfield.max_dim"], matrix.nrows, matrix.ncols)
    counts["exactfield.result_bits"] = max(counts["exactfield.result_bits"], _bits(result))


OBSERVERS = {
    "kernel.adjacency": _observe_adjacency,
    "kernel.extend_max": _observe_extend_max,
    "exactfield.invert": _observe_exactfield,
    "exactfield.solve": _observe_exactfield,
    "exactfield.rank": _observe_exactfield,
    "exactfield.det": _observe_exactfield,
    "exactfield.inertia": _observe_exactfield,
}


class Tracer:
    """Span recorder.  `hooks(table)` wraps the table's targets for the
    duration of a with-block; `round_metrics()` turns the recorded spans and
    counters into per-layer metrics and starts a new round."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index]
        self.stack = []
        self.counts = Counter()
        self.absent = set()

    def _wrap(self, name, fn):
        observe = OBSERVERS.get(name)

        @functools.wraps(fn)
        def hooked(*args, **kwargs):
            parent = self.stack[-1] if self.stack else None
            span = [name, perf_counter(), None, parent]
            self.spans.append(span)
            self.stack.append(len(self.spans) - 1)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                self.stack.pop()
            if observe is not None:
                # The observer's own cost is a span of its own, so it is
                # charged to tracing, not to the caller's self time.
                start = perf_counter()
                observe(self.counts, args, result)
                self.spans.append(["trace.observe", start, perf_counter(), parent])
            return result

        return hooked

    @contextlib.contextmanager
    def hooks(self, table):
        undo = []
        for name, module_name, path in table:
            try:
                owner = importlib.import_module(module_name)
                *parents, attr = path.split(".")
                for part in parents:
                    owner = getattr(owner, part)
                original = inspect.getattr_static(owner, attr)
            except (ImportError, AttributeError):
                self.absent.add(name)
                continue
            if isinstance(original, classmethod):
                hooked = classmethod(self._wrap(name, original.__func__))
            else:
                hooked = self._wrap(name, original)
            setattr(owner, attr, hooked)
            undo.append((owner, attr, original))
        try:
            yield self
        finally:
            for owner, attr, original in reversed(undo):
                setattr(owner, attr, original)

    def self_times(self) -> Counter:
        totals = Counter()
        for name, start, end, parent in self.spans:
            totals[name] += end - start
            if parent is not None:
                totals[self.spans[parent][0]] -= end - start
        return totals

    def round_metrics(self) -> dict:
        times = self.self_times()
        c = self.counts
        metrics = {metric: times[span] for metric, span in SELF_TIMES.items()}
        extend_s = times["kernel.extend_max"]
        pairs = c["kernel.adjacency_pairs"]
        metrics.update({
            "kernel.extend_max_calls": c["kernel.extend_max_calls"],
            "kernel.nodes": c["kernel.nodes"],
            "kernel.nodes_per_s": c["kernel.nodes"] / extend_s if extend_s else 0.0,
            "kernel.adjacency_pairs": pairs,
            "kernel.edge_density": c["kernel.adjacency_edges"] / pairs if pairs else 0.0,
            "kernel.adjacency_bytes": c["kernel.adjacency_bytes"],
            "exactfield.calls": c["exactfield.calls"],
            "exactfield.max_dim": c["exactfield.max_dim"],
            "exactfield.result_bits": c["exactfield.result_bits"],
        })
        sources = {**SELF_TIMES, **COUNTS}
        for metric, span in sources.items():
            if span in self.absent:
                del metrics[metric]
        self.spans, self.counts = [], Counter()
        return metrics
