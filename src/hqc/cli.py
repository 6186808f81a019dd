"""Command-line harness.

Subcommands: solve-atomistic, solve-hqc, micro, estimate, study, study2d,
check.  Exit codes: 0 success, 2 invalid configuration, 3 solver
nonconvergence, 4 failed stability check.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

import numpy as np

from . import io as hio
from .atomistic import AtomisticProblem, solve_atomistic
from .coarse import ForceFunctional, corrector, solve_coarse, uniform_mesh
from .config import load_experiment_config
from .estimator import estimate_constants, indicator_terms
from .exceptions import ConfigError, DomainError, SolverFailure, StabilityError
from .study import (
    microstructure_start,
    require_dominance,
    run_study,
    run_study_2d,
    setup_1d,
)

ENV_OUT = "HQC_OUT"


def _out_dir(args) -> Path:
    out = args.out or os.environ.get(ENV_OUT) or "out"
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def cmd_solve_atomistic(cfg, args) -> int:
    grid, family, chi, margin, _law, f = setup_1d(cfg)
    require_dominance(margin)
    prob = AtomisticProblem(grid, family, f)
    sol = solve_atomistic(prob, u_init=microstructure_start(grid, chi))
    out = _out_dir(args)
    hio.save_lattice_fn(out / "atomistic.txt", sol.u)
    hio.save_trace_csv(out / "atomistic_trace.csv", sol.trace)
    print(f"atomistic solve: {sol.iterations} iterations, residual {sol.residual_dual:.3e}")
    print(f"wrote {out / 'atomistic.txt'}")
    return 0


def _first_mesh(cfg, grid):
    """Mesh of solve-hqc and estimate: the schedule's first, or without a
    node-count schedule ``mesh.initial`` nodes."""
    nodes = cfg.mesh_schedule[0] if cfg.mesh_schedule else cfg.adapt_initial
    try:
        return uniform_mesh(grid, nodes)
    except ValueError as exc:  # schedule entries were checked by build_config
        raise ConfigError(f"mesh.initial: {exc}") from exc


def cmd_solve_hqc(cfg, args) -> int:
    grid, _family, _chi, margin, law, f = setup_1d(cfg)
    require_dominance(margin)
    mesh = _first_mesh(cfg, grid)
    F = ForceFunctional(cfg.functional_kind, f)
    cs = solve_coarse(law, mesh, F)
    uc = corrector(cs)
    out = _out_dir(args)
    hio.save_coarse_fn(out / "hqc_nodal.txt", cs.u)
    hio.save_lattice_fn(out / "hqc_corrected.txt", uc)
    hio.save_trace_csv(out / "hqc_trace.csv", cs.trace, "merit")  # not the dual norm
    print(f"hqc solve on {mesh.n_elements} nodes: {cs.iterations} iterations, "
          f"residual {cs.residual_dual:.3e}")
    print(f"wrote {out / 'hqc_corrected.txt'}")
    return 0


def cmd_micro(cfg, args) -> int:
    _grid, _family, _chi, margin, law, _f = setup_1d(cfg)
    require_dominance(margin)
    z_lo, z_hi, count = cfg.micro_z_lo, cfg.micro_z_hi, cfg.micro_z_count
    table = law.tabulate(np.linspace(z_lo, z_hi, count))
    out = _out_dir(args)
    lines = ["z,phi0,dphi0,d2phi0"]
    lines += [",".join(repr(float(v)) for v in row) for row in table]
    (out / "micro.csv").write_text("\n".join(lines) + "\n")
    print(f"tabulated homogenized law on [{z_lo}, {z_hi}] ({count} points)")
    print(f"wrote {out / 'micro.csv'}")
    return 0


def cmd_estimate(cfg, args) -> int:
    grid, _family, _chi, margin, law, f = setup_1d(cfg)
    require_dominance(margin)
    c0_inv = cfg.c0_inv if cfg.c0_inv is not None else 1.0 / margin
    mesh = _first_mesh(cfg, grid)
    F = ForceFunctional(cfg.functional_kind, f)
    cs = solve_coarse(law, mesh, F)
    report = indicator_terms(cs.u, f, F, cfg.calibration, c0_inv)
    out = _out_dir(args)
    text = report.CSV_HEADER + "\n" + report.csv_row(mesh.h_max) + "\n"
    (out / "estimate.csv").write_text(text)
    print(text.strip())
    return 0


def cmd_study(cfg, args) -> int:
    rows = run_study(
        cfg, out_dir=_out_dir(args), use_cache=not args.no_cache, timing=args.timing,
    )
    for row in rows:
        print(f"nodes={row.dof:5d}  h={row.h_max:.6g}  err_1inf={row.err_1inf:.6g}  "
              f"eta_total={row.eta_total:.6g}")
    return 0


def cmd_study2d(cfg, args) -> int:
    rows = run_study_2d(cfg, out_dir=_out_dir(args), timing=args.timing)
    for row in rows:
        print(f"t={round(1 / row.h_max):4d}  h={row.h_max:.6g}  err_1inf={row.err_1inf:.6g}")
    return 0


def cmd_check(cfg, args) -> int:
    _grid, family, chi, margin, _law, _f = setup_1d(cfg)
    print(f"ground microstructure: chi_* = {np.array2string(chi, precision=8)}")
    print(f"  micro deformation strictly increasing: min(1 + D chi) = "
          f"{float((1 + np.roll(chi, -1) - chi).min()):.6g}")
    print(f"  ||chi_*||_inf = {np.abs(chi).max():.6g} <= (p-1)/2 = {(family.p - 1) / 2}")
    c11, c0_lower = estimate_constants(family, chi)
    print(f"nearest-neighbor dominance margin: {margin:.6g}")
    print(f"sampled Lipschitz surrogate C11 = {c11:.6g}, c0 lower bound = {c0_lower:.6g}")
    require_dominance(margin)
    print("stability checks passed")
    return 0


_COMMANDS = {
    "solve-atomistic": cmd_solve_atomistic,
    "solve-hqc": cmd_solve_hqc,
    "micro": cmd_micro,
    "estimate": cmd_estimate,
    "study": cmd_study,
    "study2d": cmd_study2d,
    "check": cmd_check,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hqc",
        description="Homogenized quasicontinuum solvers for multilattice chains",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        cp = sub.add_parser(name)
        cp.add_argument("--config", required=True, help="key-value config file")
        cp.add_argument("--out", default=None, help=f"output directory (default ${ENV_OUT} or ./out)")
        if name == "study":
            cp.add_argument("--no-cache", action="store_true",
                            help="neither read nor write the cached atomistic reference")
        if name in ("study", "study2d"):
            cp.add_argument("--timing", action="store_true",
                            help="record wall-clock times in CSV rows")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_experiment_config(args.config)
        needs_2d = args.command == "study2d"
        if needs_2d != (cfg.kind == "2d"):
            raise ConfigError(f"command {args.command} needs problem.kind = "
                              f"{'2d' if needs_2d else '1d'}")
        return _COMMANDS[args.command](cfg, args)
    except (ConfigError, FileNotFoundError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (SolverFailure, DomainError) as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 3
    except StabilityError as exc:
        print(f"stability check failed: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
