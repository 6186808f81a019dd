"""Convergence-study orchestration: reference solves, per-mesh rows,
CSV/SVG artifacts, and slope fitting.

A study solves the coarse problem on every mesh of the schedule, applies
the corrector, and measures the post-processed solution against a single
atomistic reference (cached on disk, keyed by the config hash).  Rows are
written in schedule order; all scientific columns are deterministic, and
wall-clock timing is off by default so that reruns with the same config
produce byte-identical CSV files (opt in with ``timing=True``).
"""

from __future__ import annotations

import hashlib
import logging
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .atomistic import AtomisticProblem, solve_atomistic
from .coarse import ForceFunctional, corrector, solve_coarse, uniform_mesh
from .config import ExperimentConfig
from .estimator import adapt_mesh, indicator_terms
from .exceptions import StabilityError
from .io import load_lattice_fn, save_lattice_fn
from .lattice import LatticeFn, LatticeGrid, seminorm
from .lattice2d import SpringModel2D, exp_sin_force, solve2d
from .microhom import HomogenizedLaw
from .potentials import (
    ground_microstructure,
    lj_family,
    nn_dominance_margin,
    quadratic_family,
)
from .svgplot import write_loglog_svg

log = logging.getLogger(__name__)

ROW_FIELDS = (
    "h_max",
    "dof",
    "err_1inf",
    "err_0inf",
    "eta_jump",
    "eta_force",
    "eta_quad",
    "eta_total",
    "newton_iters",
    "wall_ms",
)


@dataclass(frozen=True)
class StudyRow:
    h_max: float
    dof: int
    err_1inf: float
    err_0inf: float
    eta_jump: float
    eta_force: float
    eta_quad: float
    eta_total: float
    newton_iters: int
    wall_ms: float

    def csv_line(self) -> str:
        vals = [getattr(self, name) for name in ROW_FIELDS]
        return ",".join(str(int(v)) if name in ("dof", "newton_iters") else repr(float(v))
                        for name, v in zip(ROW_FIELDS, vals))


def write_rows_csv(path, rows) -> None:
    lines = [",".join(ROW_FIELDS)]
    lines += [row.csv_line() for row in rows]
    Path(path).write_text("\n".join(lines) + "\n")


def read_rows_csv(path) -> list[StudyRow]:
    lines = Path(path).read_text().strip().splitlines()
    if lines[0] != ",".join(ROW_FIELDS):
        raise ValueError(f"unexpected CSV header {lines[0]!r}")
    rows = []
    for line in lines[1:]:
        vals = line.split(",")
        kw = {}
        for name, tok in zip(ROW_FIELDS, vals):
            kw[name] = int(tok) if name in ("dof", "newton_iters") else float(tok)
        rows.append(StudyRow(**kw))
    return rows


def fit_slope(rows, column: str) -> float:
    """Least-squares slope of log(column) against log(h_max)."""
    if len(rows) < 3:
        raise ValueError("need at least 3 rows to fit a slope")
    h = np.array([row.h_max for row in rows])
    v = np.array([getattr(row, column) for row in rows])
    if np.any(h <= 0) or np.any(v <= 0):
        raise ValueError(f"nonpositive values in column {column}")
    return float(np.polyfit(np.log(h), np.log(v), 1)[0])


def build_family(cfg: ExperimentConfig):
    if cfg.potential_kind == "lj":
        return lj_family(cfg.l, cfg.R)
    return quadratic_family(cfg.k, cfg.a, cfg.R)


def sin_force(grid: LatticeGrid, amplitude: float, phase: float) -> LatticeFn:
    vals = amplitude * np.sin(phase + 2.0 * np.pi * grid.sites())
    return LatticeFn(grid, vals - vals.mean())


def microstructure_start(grid: LatticeGrid, micro) -> LatticeFn:
    """Relaxed-microstructure displacement eps * chi_*(x/eps), zero-meaned."""
    vals = grid.eps * micro.chi_star.values[grid.species()]
    return LatticeFn(grid, vals - vals.mean())


def config_hash(cfg: ExperimentConfig) -> str:
    keys = sorted(cfg.raw.items())
    blob = "\n".join(f"{k}={v}" for k, v in keys if not k.startswith(("mesh.", "output.")))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def _reference_solution(cfg, grid, family, micro, out_dir, use_cache):
    """Atomistic reference displacement (disk-cached by config hash)."""
    path = None
    if out_dir is not None:
        path = Path(out_dir) / "cache" / f"ref_{config_hash(cfg)}.txt"
        if use_cache and path.exists():
            log.info("reference loaded from %s", path)
            return load_lattice_fn(path)
    force = sin_force(grid, cfg.force_amplitude, cfg.force_phase)
    prob = AtomisticProblem(grid, family, force)
    sol = solve_atomistic(
        prob,
        u_init=microstructure_start(grid, micro),
        tol=cfg.solver_tol,
        max_iter=cfg.solver_max_iter,
    )
    if path is not None:
        path.parent.mkdir(parents=True, exist_ok=True)
        save_lattice_fn(path, sol.u)
    return sol.u


def _study_row(law, mesh, F, f, u_ref, cfg, c0_inv, clock) -> StudyRow:
    t0 = clock() if clock else 0.0
    cs = solve_coarse(law, mesh, F, tol=cfg.solver_tol, max_iter=cfg.solver_max_iter)
    uc = corrector(law, cs)
    diff = LatticeFn(mesh.grid, uc.values - u_ref.values)
    report = indicator_terms(cs.u, mesh, f, F, cfg.calibration, c0_inv)
    wall = (clock() - t0) * 1e3 if clock else 0.0
    return StudyRow(
        h_max=mesh.h_max,
        dof=mesh.n_elements,
        err_1inf=seminorm(diff, 1, np.inf),
        err_0inf=seminorm(diff, 0, np.inf),
        eta_jump=report.jump_term,
        eta_force=report.force_term,
        eta_quad=report.quadrature_term,
        eta_total=report.total,
        newton_iters=cs.iterations,
        wall_ms=wall,
    ), report


def run_study(
    cfg: ExperimentConfig,
    out_dir=None,
    use_cache: bool = True,
    timing: bool = False,
):
    """Run the 1D convergence study of a config; returns the StudyRow list.

    With an output directory, writes study.csv, study.svg and the cached
    reference solution.  Raises StabilityError when the nearest-neighbor
    dominance margin of the configured family is not positive.
    """
    grid = LatticeGrid(cfg.N, cfg.p)
    family = build_family(cfg)
    micro = ground_microstructure(family, tol=cfg.micro_tol, max_iter=cfg.micro_max_iter)
    margin = nn_dominance_margin(family, micro)
    if margin <= 0:
        raise StabilityError(f"nearest-neighbor dominance margin {margin:.3e} <= 0")
    law = HomogenizedLaw(
        family, tol=cfg.micro_tol, max_iter=cfg.micro_max_iter,
        damping_max=cfg.micro_damping_max,
    )
    c0_inv = cfg.c0_inv if cfg.c0_inv is not None else 1.0 / margin
    f = sin_force(grid, cfg.force_amplitude, cfg.force_phase)
    u_ref = _reference_solution(cfg, grid, family, micro, out_dir, use_cache)
    F = ForceFunctional(cfg.functional_kind, f)
    clock = time.perf_counter if timing else None

    if cfg.adaptive:
        rows = []
        mesh = uniform_mesh(grid, cfg.adapt_initial)
        for _ in range(cfg.adapt_steps):
            row, report = _study_row(law, mesh, F, f, u_ref, cfg, c0_inv, clock)
            rows.append(row)
            mesh = adapt_mesh(mesh, report, cfg.theta)
    else:
        rows = [
            _study_row(law, uniform_mesh(grid, m), F, f, u_ref, cfg, c0_inv, clock)[0]
            for m in cfg.mesh_schedule
        ]

    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        write_rows_csv(out / "study.csv", rows)
        _write_study_svg(out / "study.svg", rows, "1D convergence study")
    return rows


def _write_study_svg(path, rows, title):
    h = [row.h_max for row in rows]
    series = {
        name: [getattr(row, name) for row in rows]
        for name in ("err_1inf", "err_0inf", "eta_jump", "eta_force", "eta_quad", "eta_total")
    }
    write_loglog_svg(path, h, series, "h_max", title)


def run_study_2d(cfg: ExperimentConfig, out_dir=None, timing: bool = False):
    """2D study: atomistic reference once, then coarse+corrector per t."""
    model = SpringModel2D(cfg.k1, cfg.k2, cfg.k3)
    f = exp_sin_force(cfg.N1, cfg.N2, cfg.force_amplitude)
    clock = time.perf_counter if timing else None
    u_ref, _ = solve2d(model, f, "atomistic", rtol=cfg.solver_tol)
    rows = []
    for t in cfg.t_schedule:
        t0 = clock() if clock else 0.0
        u, info = solve2d(model, f, ("coarse", t), reference=u_ref, rtol=cfg.solver_tol)
        wall = (clock() - t0) * 1e3 if clock else 0.0
        rows.append(
            StudyRow(
                h_max=1.0 / t,
                dof=2 * t * t,
                err_1inf=info["err_1inf"],
                err_0inf=info["err_0inf"],
                eta_jump=0.0,
                eta_force=0.0,
                eta_quad=0.0,
                eta_total=0.0,
                newton_iters=0,  # the P1 coarse solve is direct
                wall_ms=wall,
            )
        )
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        write_rows_csv(out / "study2d.csv", rows)
        series = {name: [getattr(r, name) for r in rows] for name in ("err_1inf", "err_0inf")}
        write_loglog_svg(out / "study2d.svg", [r.h_max for r in rows], series, "h", "2D study")
    return rows
