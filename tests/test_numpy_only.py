"""hqc runs on numpy alone: importing it loads no scipy module, a study
loads no module that the import did not, and the atomistic Newton step
solves with scipy blocked.  scipy is imported only by the sparse fallback
for springs that are not positive definite on the zero-sum stretches.  Each check runs in a fresh
interpreter, since this one has scipy loaded (``tests/oracles.py``)."""

import json
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np

from hqc import linsolve

from oracles import stretch_springs_to_dense, zero_mean_dense_solve

SRC = Path(__file__).resolve().parents[1] / "src"

FOOTPRINT = """
import json, sys, tempfile
import hqc, hqc.cli
from hqc.config import build_config, parse_config_text

loaded = set(sys.modules)
lj_1d = "problem.kind = 1d\\ngrid.N = 256\\npotential.kind = lj\\npotential.R = 3\\n" \\
    "potential.l = 1, 1.125\\nforce.preset = sin_1d\\nforce.amplitude = 50\\n" \\
    "force.phase = 1\\nmesh.schedule = 4, 8, 16\\n"
springs_2d = "problem.kind = 2d\\ngrid.N1 = 16\\ngrid.N2 = 16\\npotential.k1 = 1\\n" \\
    "potential.k2 = 2\\npotential.k3 = 0.25\\nforce.preset = exp_sin_2d\\nmesh.t = 4, 8\\n"
with tempfile.TemporaryDirectory() as out:
    hqc.run_study(build_config(parse_config_text(lj_1d)), out_dir=out + "/1d", use_cache=False)
    hqc.run_study_2d(build_config(parse_config_text(springs_2d)), out_dir=out + "/2d")
print(json.dumps({
    "scipy": sorted(m for m in loaded if m.partition(".")[0] == "scipy"),
    "loaded_by_studies": sorted(set(sys.modules) - loaded),
}))
"""

# reads the springs and the right-hand side as JSON from stdin
SOLVE = """
import json, sys
{block}
import numpy as np
from hqc.linsolve import solve_cyclic_banded

s, rhs = (np.array(a) for a in json.load(sys.stdin))
before = sorted(m for m in sys.modules if m.partition(".")[0] == "scipy")
x = solve_cyclic_banded(s, rhs)
after = sorted(m for m in sys.modules if m.partition(".")[0] == "scipy")
print(json.dumps({{"x": x.tolist(), "scipy_before": before, "scipy_after": after}}))
"""


def run_python(code: str, stdin: str = "") -> dict:
    """The JSON that ``code`` prints, run in a fresh interpreter on ``src``."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", code],
        input=stdin,
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_import_and_studies_load_no_scipy():
    # the studies must also load nothing lazily, such as numpy.fft on the
    # first 2D solve
    out = run_python(FOOTPRINT)
    assert out["scipy"] == []
    assert out["loaded_by_studies"] == []


def test_positive_definite_band_solves_with_scipy_blocked():
    rng = np.random.default_rng(71)
    k = 10.0 ** rng.uniform(-3.0, 3.0, (3, 64))
    rhs = rng.standard_normal(64) + 2.0
    out = run_python(
        SOLVE.format(block='sys.modules["scipy"] = None'),
        json.dumps([k.tolist(), rhs.tolist()]),
    )
    J = stretch_springs_to_dense(k)
    x_ref = zero_mean_dense_solve(J, rhs)
    P = np.eye(64) - 1.0 / 64  # the spectrum on the zero-sum space
    ev = np.sort(np.abs(np.linalg.eigvalsh(P @ J @ P)))
    assert np.abs(np.array(out["x"]) - x_ref).max() <= 1e-13 * ev[-1] / ev[1] * np.abs(x_ref).max()


def test_indefinite_band_reaches_the_sparse_fallback():
    # a negative nearest-neighbour bond larger than the series of the
    # others around the ring makes the springs indefinite on the zero-sum
    # space; the fallback imports scipy on first use
    rng = np.random.default_rng(72)
    k = rng.uniform(1.0, 2.0, (2, 16))
    k[0, 5] = -40.0
    J = stretch_springs_to_dense(k)
    P = np.eye(16) - 1.0 / 16
    assert np.linalg.eigvalsh(P @ J @ P)[0] < 0.0
    rhs = rng.standard_normal(16)
    x_ref = zero_mean_dense_solve(J, rhs)

    with mock.patch("hqc.linsolve._solve_kkt_sparse", wraps=linsolve._solve_kkt_sparse) as kkt:
        x = linsolve.solve_cyclic_banded(k, rhs)
    assert kkt.call_count == 1
    assert np.abs(x - x_ref).max() <= 1e-12 * np.abs(x_ref).max()

    out = run_python(SOLVE.format(block=""), json.dumps([k.tolist(), rhs.tolist()]))
    assert out["scipy_before"] == []
    assert "scipy.sparse.linalg" in out["scipy_after"]
    assert np.abs(np.array(out["x"]) - x_ref).max() <= 1e-12 * np.abs(x_ref).max()
