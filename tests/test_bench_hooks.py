"""The benchmark's tracing hooks name package attributes by string; a
renamed or removed target would only show up as an "absent" metric in a
traced benchmark run.  Resolve every target here the way
`perfbench/tracing.py` does (`Tracer.hooks`), so a rename fails the tests.
Then run one traced round of the `certify` and `search-deep` job lists in
process, as `perfbench/worker.py` does, and check that every job passes the
benchmark's oracle, that the round entered every hooked span it should,
and that the round's metrics are strict JSON."""

import contextlib
import importlib
import importlib.util
import inspect
import io
import json
import sys
from pathlib import Path

import pytest

from basisbound import cli, constructions

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


_tracing = _load("tracing")
_workloads = _load("workloads")
TARGETS = _tracing.HOOKS + _tracing.SETUP_HOOKS


@pytest.mark.parametrize(
    "name, module_name, path",
    TARGETS,
    ids=[f"{name}:{module}.{path}" for name, module, path in TARGETS],
)
def test_hook_target_resolves(name, module_name, path):
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    target = inspect.getattr_static(owner, attr)
    if isinstance(target, classmethod):
        target = target.__func__
    assert callable(target), (name, module_name, path)


def _traced_round(workload, workdir):
    """(tracer, names of the hooked spans entered, round metrics) of one
    traced round of the workload's jobs; each job's report must pass the
    benchmark's oracle."""
    jobs = _workloads.build_jobs(workload, 2020, workdir, constructions)
    tracer = _tracing.Tracer()
    with tracer.hooks(_tracing.HOOKS):
        for job in jobs:
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                code = cli.main(list(job.argv))
            assert _workloads.check(job, code, out.getvalue()) == ("ok", ""), job.name
    entered = {span[0] for span in tracer.spans} - {"trace.observe"}
    return tracer, entered, tracer.round_metrics()


# The hooked spans each round must enter.  A hook on a name the CLI bound
# at import time would wrap a function that is never called, and its span
# would be missing here.
ENTERED = {
    "certify": {
        "cli.main", "certifier.independence", "certifier.hamming_tight",
        "certifier.two_distance", "certifier.mod_design", "certifier.ryser",
        "families.parse", "exactfield.det", "exactfield.solve", "exactfield.inertia",
    },
    "search-deep": {
        "cli.main", "search.search_max", "search.enumerate", "kernel.adjacency",
        "kernel.extend_max", "kernel.witness",
    },
}


@pytest.mark.parametrize("workload", ["certify", "search-deep"])
def test_traced_round_metrics_are_strict_json(tmp_path, workload):
    tracer, entered, metrics = _traced_round(workload, tmp_path)
    assert entered == ENTERED[workload]
    assert not tracer.absent
    assert json.loads(json.dumps(metrics, allow_nan=False)) == metrics
    if workload == "certify":
        assert metrics["exactfield.calls"] == 7
        assert metrics["exactfield.max_dim"] == 48
        assert all(metrics[f"certifier.{name}_self_s"] > 0 for name in (
            "independence", "hamming_tight", "two_distance", "mod_design", "ryser"))
    else:
        assert metrics["kernel.nodes"] > 0
