"""The benchmark's tracer wraps hqc functions at the names where callers
look them up, and reads its counts from what they return; a refactor that
moves or renames one of those lookup sites, or changes a return shape a
counter reads, would silently break ``perfbench/run.py --trace 1``."""

import importlib
import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from hqc import HomogenizedLaw, lj_family
from hqc.atomistic import MAX_ITER
from hqc.microhom import newton_cells

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    # dataclasses resolve their module through sys.modules while executing
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


@pytest.mark.parametrize(
    "module_name, cls_name, attr", [entry[:3] for entry in load_tracing().PATCHES]
)
def test_lookup_site_resolves_to_callable(module_name, cls_name, attr):
    owner = importlib.import_module(module_name)
    if cls_name is not None:
        owner = getattr(owner, cls_name)
    assert callable(getattr(owner, attr))


class TestMicrohomCounters:
    """The counters get the positional arguments of the wrapped call."""

    law = HomogenizedLaw(lj_family([1.0, 9.0 / 8.0], R=3))
    z = np.array([-0.05, 0.0, 0.03, 0.08])

    def test_newton_cells_counts_iterations(self):
        law, z = self.law, self.z
        args = (law.family, z, np.zeros((z.size, 2)))
        out = newton_cells(*args)
        iters = out[2]
        assert iters.dtype.kind == "i" and iters.shape == z.shape
        # a cold start is not converged, and no strain outlasts the cap
        assert iters.min() >= 1
        assert iters.max() <= MAX_ITER
        counts = load_tracing()._count_newton_cells(out, args)
        assert counts == {"micro_iters": int(iters.sum()), "max_iters": int(iters.max())}

    @pytest.mark.parametrize("z", [0.02, np.array([-0.05, 0.0, 0.03, 0.08])])
    def test_eval_strains_counts_strains(self, z):
        # HomogenizedLaw.eval_strains is wrapped on the class: args[0] is the law
        args = (self.law, z)
        out = HomogenizedLaw.eval_strains(*args)
        assert out[3].shape == (np.size(z), 2)
        assert load_tracing()._count_eval_strains(out, args) == {"strains": np.size(z)}
