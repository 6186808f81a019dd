"""Plain-text serialization of lattice data and run artifacts.

Lattice functions: header ``# N=<N> p=<p>`` then one value per line with
17 significant digits (round-trips are value-exact).  Coarse functions:
header ``# N=<N>`` plus one ``node value`` pair per line, nodes 1-based.
"""

from __future__ import annotations

import re
from pathlib import Path

import numpy as np

from .coarse import CoarseFn
from .lattice import LatticeFn, LatticeGrid


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def save_lattice_fn(path, u: LatticeFn) -> None:
    # one %-format over the whole tuple writes the same text as _fmt per value
    body = ("%.17g\n" * len(u.values)) % tuple(u.values.tolist())
    Path(path).write_text(f"# N={u.grid.N} p={u.grid.p}\n" + body)


def load_lattice_fn(path) -> LatticeFn:
    lines = Path(path).read_text().strip().splitlines()
    if not lines[0].startswith("#"):
        raise ValueError(f"missing header line, got {lines[0]!r}")
    head = {k: int(v) for k, v in re.findall(r"(\w+)=(-?\d+)", lines[0])}
    grid = LatticeGrid(head["N"], head.get("p", 1))
    values = np.array([float(s) for s in lines[1:]])
    return LatticeFn(grid, values)


def save_coarse_fn(path, u: CoarseFn) -> None:
    lines = [f"# N={u.mesh.grid.N}"]
    lines += [f"{int(n)} {_fmt(v)}" for n, v in zip(u.mesh.nodes, u.nodal_values)]
    Path(path).write_text("\n".join(lines) + "\n")


def save_trace_csv(path, trace, column: str = "residual_dual") -> None:
    """Newton trace rows (iteration, value, step damping), the value under ``column``."""
    lines = [f"iter,{column},step_damping"]
    lines += [f"{int(i)},{_fmt(res)},{_fmt(t)}" for i, res, t in trace]
    Path(path).write_text("\n".join(lines) + "\n")
