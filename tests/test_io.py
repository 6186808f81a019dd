import numpy as np

from hqc import CoarseFn, LatticeFn, LatticeGrid, Mesh1D
from hqc.io import load_lattice_fn, save_coarse_fn, save_lattice_fn, save_trace_csv


def test_lattice_fn_roundtrip_exact(tmp_path):
    rng = np.random.default_rng(101)
    u = LatticeFn(LatticeGrid(24, 2), rng.standard_normal(24) * 1e7)
    path = tmp_path / "u.txt"
    save_lattice_fn(path, u)
    v = load_lattice_fn(path)
    assert v.grid == u.grid
    assert np.array_equal(v.values, u.values)  # value-exact, not approx


def test_lattice_fn_header(tmp_path):
    u = LatticeFn(LatticeGrid(4, 2), [1.0, 2.0, 3.0, 4.0])
    save_lattice_fn(tmp_path / "u.txt", u)
    first = (tmp_path / "u.txt").read_text().splitlines()[0]
    assert first == "# N=4 p=2"


def _edge_values(n):
    rng = np.random.default_rng(104)
    edges = [-0.0, 0.0, 5e-324, -5e-324, 1e308, -1e308, np.nan, np.inf, 0.1, 1.0 / 3.0]
    return np.concatenate([edges, rng.standard_normal(n) * 10.0 ** rng.uniform(-300, 300, n)])


def _fmt_each(x):
    return format(float(x), ".17g")


def test_lattice_fn_text_matches_per_value_format(tmp_path):
    values = _edge_values(200)
    u = LatticeFn(LatticeGrid(len(values)), values)
    save_lattice_fn(tmp_path / "u.txt", u)
    lines = ["# N=210 p=1"] + [_fmt_each(v) for v in values]
    assert (tmp_path / "u.txt").read_text() == "\n".join(lines) + "\n"


def test_coarse_fn_roundtrip(tmp_path):
    rng = np.random.default_rng(102)
    mesh = Mesh1D(LatticeGrid(16), np.array([2, 7, 13]))
    u = CoarseFn(mesh, rng.standard_normal(3))
    save_coarse_fn(tmp_path / "c.txt", u)
    assert (tmp_path / "c.txt").read_text().startswith("# N=16\n")
    again = np.loadtxt(tmp_path / "c.txt")  # one "node value" pair per line
    assert np.array_equal(again[:, 1], u.nodal_values)
    assert np.array_equal(again[:, 0], mesh.nodes)


def test_trace_csv(tmp_path):
    save_trace_csv(tmp_path / "t.csv", [(0, 1.5, 0.0), (1, 0.25, 1.0)])
    lines = (tmp_path / "t.csv").read_text().splitlines()
    assert lines[0] == "iter,residual_dual,step_damping"
    assert lines[1].startswith("0,1.5")
