"""The benchmark's tracing hooks name package attributes by string; a
renamed or removed target would only show up as an "absent" metric in a
traced benchmark run.  Resolve every target here the way
`perfbench/tracing.py` does (`Tracer.hooks`), so a rename fails the tests."""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

TRACING_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_tracing = _load_tracing()
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
