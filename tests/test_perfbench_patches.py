"""The benchmark's tracer wraps hqc functions at the names where callers
look them up; a refactor that moves or renames one of those lookup sites
would silently break ``perfbench/run.py --trace 1``."""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_patches():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    # dataclasses resolve their module through sys.modules while executing
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module.PATCHES


@pytest.mark.parametrize(
    "module_name, cls_name, attr", [entry[:3] for entry in load_patches()]
)
def test_lookup_site_resolves_to_callable(module_name, cls_name, attr):
    owner = importlib.import_module(module_name)
    if cls_name is not None:
        owner = getattr(owner, cls_name)
    assert callable(getattr(owner, attr))
