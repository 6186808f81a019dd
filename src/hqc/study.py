"""Convergence-study orchestration: reference solves, per-mesh rows,
CSV/SVG artifacts, and slope fitting.

A study solves the coarse problem on every mesh of the schedule, applies
the corrector, and measures the post-processed solution against a single
atomistic reference.  With an output directory the reference is cached on
disk, keyed by the config hash, unless the cache is switched off; then it
is neither read nor written.  The meshes of a uniform schedule do not
depend on one another, so one Newton iteration solves them all over their
stacked elements (:func:`~hqc.coarse.solve_coarse_meshes`), every element
starting from the cell at strain 0, which the ground microstructure
solved: a study solves that cell once.  A row's ``newton_iters`` is the
step at which its mesh's merit first reached the tolerance.  When that
iteration fails, each mesh is solved alone in schedule order
(``solve_coarse``), so a study fails with the error of its first failing
mesh, as a study that solves its meshes one by one would.  An adaptive
schedule refines each mesh by its own indicators, so its meshes are
solved in order by nested iteration: each coarse solve after the first
starts from the previous row's solution, every element at the strain,
cell field and condensed cell of the old element containing its middle
site (``solve_coarse(init=...)``), and ``newton_iters`` counts the outer
iterations from that start.

No coarse row needs the reference, so every mesh is solved first and only
its coarse solution and indicator report kept: no lattice-sized field per
row.  The reference is then solved once, by Newton from the corrected
solution of the last row (the finest uniform mesh or the last adaptive
step), which the a priori estimate puts within O(h) of it, moved to local
equilibrium (``corrector(cs, f)``): with one stress per element, the
corrected solution leaves the force primitive's variation across each
element as its residual, which moving every site's strain through its
element's linearized law removes in O(N).  Each row is then built once,
from its corrected solution (``corrector(cs)``) and that field's two error
seminorms, in two buffers that every row reuses, so that no row allocates
a lattice-sized array.  A study that fails in a coarse row stops before it
solves or caches the reference.  Rows are written in schedule order; all
scientific columns are deterministic, and wall-clock timing is off by
default so that reruns with the same config produce byte-identical CSV
files (opt in with ``timing=True``; ``wall_ms`` covers a row's coarse
solve, indicators and corrector, where a row of a uniform schedule counts
the share of the batched solve in proportion to its element count).
"""

from __future__ import annotations

import hashlib
import logging
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .atomistic import AtomisticProblem, solve_atomistic
from .coarse import ForceFunctional, corrector, solve_coarse, solve_coarse_meshes, uniform_mesh
from .config import ExperimentConfig
from .estimator import adapt_mesh, indicator_terms
from .exceptions import ConfigError, SolverFailure, StabilityError
from .io import load_lattice_fn, save_lattice_fn
from .lattice import LatticeFn, LatticeGrid
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
    vals = grid.sites()
    vals *= 2.0 * np.pi
    vals += phase
    np.sin(vals, out=vals)
    vals *= amplitude
    vals -= vals.mean()
    return LatticeFn(grid, vals)


def microstructure_start(grid: LatticeGrid, chi_star: np.ndarray) -> LatticeFn:
    """Relaxed-microstructure displacement eps * chi_*(x/eps), zero-meaned."""
    vals = grid.eps * chi_star[grid.species()]
    return LatticeFn(grid, vals - vals.mean())


def setup_1d(cfg: ExperimentConfig):
    """(grid, family, ground microstructure, dominance margin, homogenized
    law, force) of a 1D config; the margin is returned, not checked (see
    :func:`require_dominance`)."""
    grid = LatticeGrid(cfg.N, cfg.p)
    family = build_family(cfg)
    law = HomogenizedLaw(family)
    chi_star = ground_microstructure(law)  # the cell at strain 0, which cold coarse solves reuse
    f = sin_force(grid, cfg.force_amplitude, cfg.force_phase)
    return grid, family, chi_star, nn_dominance_margin(family, chi_star), law, f


def require_dominance(margin: float) -> None:
    """Raise StabilityError unless the nearest-neighbor dominance margin is
    positive."""
    if margin <= 0:
        raise StabilityError(f"nearest-neighbor dominance margin {margin:.3e} <= 0")


def config_hash(cfg: ExperimentConfig) -> str:
    """Key of a config's cached reference, from its validated values: a key
    that the schema does not read, or a default written out, keys the same
    reference.  The mesh schedule counts: the reference's Newton start is
    built from the last row's solution, so its last digits depend on it."""
    blob = "\n".join(f"{k}={v!r}" for k, v in vars(cfg).items())
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def _reference_solution(cfg, family, f, cs, out_dir, use_cache):
    """Atomistic reference displacement under the force ``f`` of
    :func:`setup_1d`, solved by Newton from the corrected solution of the
    coarse solution ``cs`` moved to local equilibrium (``corrector(cs, f)``);
    with an output directory and ``use_cache``, read from and written to a
    cache file keyed by :func:`config_hash`."""
    path = None
    if out_dir is not None and use_cache:
        path = Path(out_dir) / "cache" / f"ref_{config_hash(cfg)}.txt"
        if path.exists():
            log.info("reference loaded from %s", path)
            return load_lattice_fn(path)
    prob = AtomisticProblem(f.grid, family, f)
    sol = solve_atomistic(prob, u_init=corrector(cs, f))
    if path is not None:
        path.parent.mkdir(parents=True, exist_ok=True)
        save_lattice_fn(path, sol.u)
    return sol.u


def _coarse_solves(cfg, grid, law, F, f, c0_inv, clock):
    """(coarse solution, indicator report, wall ms) of every mesh of the
    schedule: a uniform schedule's by one batched solve, whose time each
    row shares in proportion to its element count; an adaptive schedule's
    each nested in the previous one and refined by its own report."""
    def row(cs, t0, ms=0.0):
        report = indicator_terms(cs.u, f, F, cfg.calibration, c0_inv)
        return cs, report, ms + (clock() - t0) * 1e3

    if not cfg.adaptive:
        meshes = [uniform_mesh(grid, m) for m in cfg.mesh_schedule]
        t0 = clock()
        try:
            batch = solve_coarse_meshes(law, meshes, F)
        except SolverFailure:
            # meshes without an equilibrium can stall the shared step before
            # a coarser one converges onto an unstable one: solved alone, in
            # schedule order, the first failing mesh raises its own error
            batch = [solve_coarse(law, mesh, F) for mesh in meshes]
        per_element = (clock() - t0) * 1e3 / sum(cfg.mesh_schedule)
        return [row(cs, clock(), per_element * cs.u.mesh.n_elements) for cs in batch]
    solved, cs = [], None
    for i in range(cfg.adapt_steps):
        if i == 0:
            mesh = uniform_mesh(grid, cfg.adapt_initial)
        else:
            mesh = adapt_mesh(mesh, report, cfg.theta)
        t0 = clock()
        cs, report, ms = row(solve_coarse(law, mesh, F, init=cs), t0)
        solved.append((cs, report, ms))
    return solved


def _row_errors(field, u_ref, steps, eps):
    """(|d|_{1,inf}, |d|_{0,inf}) for d = field - u_ref, formed in ``field``,
    its steps but the wrapping one in ``steps``: maxima and minima, no abs."""
    field -= u_ref
    np.subtract(field[1:], field[:-1], out=steps)
    step = max(steps.max(), -steps.min(), abs(field[0] - field[-1]))
    return float(step / eps), float(max(field.max(), -field.min()))


def run_study(
    cfg: ExperimentConfig,
    out_dir=None,
    use_cache: bool = True,
    timing: bool = False,
):
    """Run the 1D convergence study of a config; returns the StudyRow list.

    Solves every coarse row first, then the atomistic reference from the
    last row's corrected solution moved to local equilibrium, then builds
    each row from its corrected solution's error against it; a failure in
    a coarse row raises before the reference is solved or cached.  With an
    output directory, writes study.csv and study.svg; with ``use_cache``
    too, it loads the reference from ``cache/`` there when a run of the
    same config left it, and writes it there otherwise.  With
    ``use_cache=False`` the cache is neither read nor written.  Raises
    ConfigError for a config without ``mesh.schedule``, StabilityError when
    the nearest-neighbor dominance margin of the configured family is not
    positive.
    """
    if not (cfg.adaptive or cfg.mesh_schedule):
        raise ConfigError("a 1D study needs mesh.schedule (node counts or adaptive)")
    grid, family, _chi_star, margin, law, f = setup_1d(cfg)
    require_dominance(margin)
    c0_inv = cfg.c0_inv if cfg.c0_inv is not None else 1.0 / margin
    F = ForceFunctional(cfg.functional_kind, f)
    clock = time.perf_counter if timing else float  # float() is 0.0: every wall_ms 0.0

    solved = _coarse_solves(cfg, grid, law, F, f, c0_inv, clock)
    u_ref = _reference_solution(cfg, family, f, solved[-1][0], out_dir, use_cache)
    field, steps = np.empty(grid.N), np.empty(grid.N - 1)  # every row's buffers
    rows = []
    for cs, report, wall in solved:
        t0 = clock()
        corrector(cs, out=field)
        wall += (clock() - t0) * 1e3
        err_1inf, err_0inf = _row_errors(field, u_ref.values, steps, grid.eps)
        rows.append(
            StudyRow(
                h_max=cs.u.mesh.h_max,
                dof=cs.u.mesh.n_elements,
                err_1inf=err_1inf,
                err_0inf=err_0inf,
                eta_jump=report.jump_term,
                eta_force=report.force_term,
                eta_quad=report.quadrature_term,
                eta_total=report.total,
                newton_iters=cs.iterations,
                wall_ms=wall,
            )
        )

    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        write_rows_csv(out / "study.csv", rows)
        series = {name: [getattr(r, name) for r in rows]
                  for name in ROW_FIELDS[2:8]}  # the errors and the indicators
        write_loglog_svg(out / "study.svg", [r.h_max for r in rows], series, "h_max",
                         "1D convergence study")
    return rows


def run_study_2d(cfg: ExperimentConfig, out_dir=None, timing: bool = False):
    """2D study: atomistic reference once, then coarse+corrector per t."""
    model = SpringModel2D(cfg.k1, cfg.k2, cfg.k3)
    f = exp_sin_force(cfg.N1, cfg.N2, cfg.force_amplitude)
    clock = time.perf_counter if timing else float  # float() is 0.0: every wall_ms 0.0
    u_ref, _ = solve2d(model, f, "atomistic")
    rows = []
    for t in cfg.t_schedule:
        t0 = clock()
        u, info = solve2d(model, f, ("coarse", t), reference=u_ref)
        wall = (clock() - t0) * 1e3
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
