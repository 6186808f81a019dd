import functools
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from hqc import (
    ConfigError,
    ForceFunctional,
    HomogenizedLaw,
    StudyRow,
    build_config,
    corrector,
    fit_slope,
    ground_microstructure,
    read_rows_csv,
    run_study,
    solve_atomistic,
    solve_coarse,
    uniform_mesh,
)
from hqc.cli import main
from hqc.config import parse_config, parse_config_text
from hqc.exceptions import SolverFailure
from hqc.study import build_family, microstructure_start, write_rows_csv

BASE_1D = """
problem.kind = 1d
grid.N = 256
potential.kind = lj
potential.R = 3
potential.l = 1, 1.125
force.preset = sin_1d
force.amplitude = 50
force.phase = 1
force.functional = exact_summation
mesh.schedule = 4, 8, 16, 32
"""
SCHEDULE = "mesh.schedule = 4, 8, 16, 32\n"

BASE_2D = """
problem.kind = 2d
grid.N1 = 32
grid.N2 = 32
potential.k1 = 1
potential.k2 = 2
potential.k3 = 0.25
force.preset = exp_sin_2d
mesh.t = 4, 8
"""


def cfg_1d(extra=""):
    return build_config(parse_config_text(BASE_1D + extra))


class TestConfig:
    def test_parse_key_values(self):
        m = parse_config_text("a.b = 1  # comment\n\n# full comment\nc = x y\n")
        assert m == {"a.b": "1", "c": "x y"}

    def test_missing_equals(self):
        with pytest.raises(ConfigError):
            parse_config_text("just a line\n")

    def test_valid_1d(self):
        cfg = cfg_1d()
        assert cfg.N == 256 and cfg.p == 2 and cfg.R == 3
        assert cfg.mesh_schedule == [4, 8, 16, 32]

    def test_bad_mesh_divisor(self):
        with pytest.raises(ConfigError):
            cfg_1d("mesh.schedule = 3\n")

    def test_bad_period(self):
        with pytest.raises(ConfigError):
            build_config(parse_config_text(BASE_1D.replace("grid.N = 256", "grid.N = 255")))

    @pytest.mark.parametrize("key", ["micro.tol", "solver.tol"])
    def test_tolerances_must_be_positive(self, key):
        # the coarse solve measures cell residuals in units of solver.tol / micro.tol
        with pytest.raises(ConfigError, match="must be positive"):
            cfg_1d(f"{key} = 0\n")

    def test_unknown_kind(self):
        with pytest.raises(ConfigError):
            build_config({"problem.kind": "3d"})

    def test_adaptive_block(self):
        cfg = cfg_1d("mesh.schedule = adaptive\nmesh.theta = 0.4\nmesh.steps = 3\nmesh.initial = 8\n")
        assert cfg.adaptive and cfg.theta == 0.4 and cfg.adapt_steps == 3

    def test_2d_config(self):
        cfg = build_config(parse_config_text(BASE_2D))
        assert cfg.kind == "2d" and cfg.N1 == 32 and cfg.t_schedule == [4, 8]

    def test_2d_config_without_force_preset(self, tmp_path):
        text = BASE_2D.replace("force.preset = exp_sin_2d\n", "")
        assert "force.preset" not in text
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text(text)
        assert main(["study2d", "--config", str(cfgfile), "--out", str(tmp_path / "out")]) == 0

    def test_2d_t_must_divide(self):
        with pytest.raises(ConfigError):
            build_config(parse_config_text(BASE_2D.replace("mesh.t = 4, 8", "mesh.t = 5")))


class TestRows:
    def test_csv_roundtrip_value_exact(self, tmp_path):
        rows = [
            StudyRow(0.25, 4, 1.0 / 3.0, 2e-7, 0.1, 0.2, 0.0, 0.3, 5, 12.5),
            StudyRow(0.125, 8, 1.7e-2, 1e-8, 0.05, 0.1, 0.0, 0.15, 6, 8.25),
        ]
        write_rows_csv(tmp_path / "rows.csv", rows)
        again = read_rows_csv(tmp_path / "rows.csv")
        assert again == rows

    def test_fit_slope_exact_orders(self):
        hs = [0.5, 0.25, 0.125, 0.0625]
        rows1 = [StudyRow(h, 1, 3.0 * h, h, 0, 0, 0, 0, 1, 0) for h in hs]
        rows2 = [StudyRow(h, 1, 3.0 * h * h, h, 0, 0, 0, 0, 1, 0) for h in hs]
        assert fit_slope(rows1, "err_1inf") == pytest.approx(1.0, abs=1e-12)
        assert fit_slope(rows2, "err_1inf") == pytest.approx(2.0, abs=1e-12)

    def test_fit_slope_validation(self):
        rows = [StudyRow(0.5, 1, 1.0, 1, 0, 0, 0, 0, 1, 0)] * 2
        with pytest.raises(ValueError):
            fit_slope(rows, "err_1inf")
        rows = [StudyRow(h, 1, 0.0, 1, 0, 0, 0, 0, 1, 0) for h in (0.5, 0.25, 0.125)]
        with pytest.raises(ValueError):
            fit_slope(rows, "err_1inf")


class TestRunStudy:
    def test_deterministic_rerun_byte_identical(self, tmp_path):
        cfg = cfg_1d()
        out1 = tmp_path / "a"
        out2 = tmp_path / "b"
        run_study(cfg, out_dir=out1)
        run_study(cfg, out_dir=out2)
        assert (out1 / "study.csv").read_bytes() == (out2 / "study.csv").read_bytes()
        assert (out1 / "study.svg").exists()

    def test_reference_cache_reused(self, tmp_path):
        cfg = cfg_1d()
        rows1 = run_study(cfg, out_dir=tmp_path)
        cached = list((tmp_path / "cache").glob("ref_*.txt"))
        assert len(cached) == 1
        rows2 = run_study(cfg, out_dir=tmp_path)
        assert rows1 == rows2

    def test_exact_summation_quadrature_column_zero(self, tmp_path):
        rows = run_study(cfg_1d(), out_dir=tmp_path)
        assert all(row.eta_quad == 0.0 for row in rows)
        assert all(r1.h_max > r2.h_max for r1, r2 in zip(rows, rows[1:]))

    def test_adaptive_schedule_runs(self):
        cfg = cfg_1d("mesh.schedule = adaptive\nmesh.theta = 0.5\nmesh.steps = 4\nmesh.initial = 4\n")
        rows = run_study(cfg)
        assert len(rows) == 4
        assert all(a.h_max >= b.h_max for a, b in zip(rows, rows[1:]))
        assert rows[-1].eta_jump < rows[0].eta_jump

    @pytest.mark.parametrize(
        "extra", ["", "mesh.schedule = adaptive\nmesh.steps = 4\nmesh.initial = 4\n"]
    )
    def test_each_row_starts_from_the_previous_solution(self, monkeypatch, extra):
        import hqc.study

        calls = []

        def recording(*args, init=None, **kw):
            cs = solve_coarse(*args, init=init, **kw)
            calls.append((init, cs))
            return cs

        monkeypatch.setattr(hqc.study, "solve_coarse", recording)
        rows = run_study(cfg_1d(extra))
        assert calls[0][0] is None
        assert all(init is prev for (init, _), (_, prev) in zip(calls[1:], calls))
        assert [row.newton_iters for row in rows] == [cs.iterations for _, cs in calls]

    def test_stability_gate(self):
        from hqc.exceptions import StabilityError

        bad = BASE_1D.replace("potential.kind = lj", "potential.kind = quadratic")
        bad = bad.replace("potential.l = 1, 1.125", "potential.k = 1, 1\npotential.a = 1.1, -1.1")
        with pytest.raises(StabilityError):
            run_study(build_config(parse_config_text(bad)))

    def test_coarse_failure_stops_before_reference(self, tmp_path, monkeypatch):
        import hqc.study

        reference = mock.Mock(side_effect=solve_atomistic)
        monkeypatch.setattr(hqc.study, "solve_atomistic", reference)
        with pytest.raises(SolverFailure, match="coarse Newton"):
            run_study(cfg_1d("solver.max_iter = 1\n"), out_dir=tmp_path)
        reference.assert_not_called()
        assert not (tmp_path / "cache").exists()


LJ_1D = Path(__file__).parents[1] / "configs" / "lj_1d.cfg"


def solve_lj_1d_study(N, phase):
    """The lj_1d chain at N sites and force phase ``phase``, on the shipped
    mesh schedule or, at N = 65536, on the benchmark's 16, 64, 256: the
    config, every corrected solution of the study, and the arguments and
    result of its one reference solve."""
    import hqc.study

    mapping = parse_config(LJ_1D)
    mapping.update({"grid.N": str(N), "force.phase": repr(phase)})
    if N == 65536:
        mapping["mesh.schedule"] = "16, 64, 256"
    cfg = build_config(mapping)
    corrected, solves = [], []

    def recording_corrector(*args):
        corrected.append(corrector(*args))
        return corrected[-1]

    def recording_solve(prob, **kw):
        solves.append((prob, kw, solve_atomistic(prob, **kw)))
        return solves[-1][2]

    with mock.patch.object(hqc.study, "corrector", recording_corrector), mock.patch.object(
        hqc.study, "solve_atomistic", recording_solve
    ):
        rows = run_study(cfg)
    assert len(corrected) == len(rows) and len(solves) == 1
    return cfg, corrected, solves[0]


@pytest.fixture(scope="module")
def lj_1d_reference():
    """``solve_lj_1d_study``, each case solved once for the module."""
    return functools.cache(solve_lj_1d_study)


def max_rel_diff(u, v):
    return np.abs(u.values - v.values).max() / np.abs(v.values).max()


@pytest.mark.parametrize("phase", [1.0, 2.3, 4.7])
@pytest.mark.parametrize("N", [1024, 4096, 65536])
class TestReferenceStart:
    """The reference is solved from the last row's corrected solution; it
    must reach the equilibrium that the cold start reaches."""

    def test_starts_from_last_corrector_in_at_most_3_steps(self, lj_1d_reference, N, phase):
        _cfg, corrected, (_prob, kw, sol) = lj_1d_reference(N, phase)
        assert np.array_equal(kw["u_init"].values, corrected[-1].values)
        assert sol.iterations <= 3

    def test_agrees_with_cold_start(self, lj_1d_reference, N, phase):
        cfg, _corrected, (prob, _kw, sol) = lj_1d_reference(N, phase)
        micro = ground_microstructure(prob.family, tol=cfg.micro_tol)
        cold = solve_atomistic(
            prob, u_init=microstructure_start(prob.grid, micro), tol=cfg.solver_tol
        )
        assert max_rel_diff(sol.u, cold.u) <= 1e-12
        assert sol.iterations <= cold.iterations
        # the worst start: the corrected solution of one cold 4-node row
        law = HomogenizedLaw(build_family(cfg), tol=cfg.micro_tol)
        F = ForceFunctional(cfg.functional_kind, prob.force)
        cs = solve_coarse(law, uniform_mesh(prob.grid, 4), F, tol=cfg.solver_tol)
        rough = solve_atomistic(prob, u_init=corrector(law, cs), tol=cfg.solver_tol)
        assert max_rel_diff(rough.u, cold.u) <= 1e-12
        assert rough.iterations <= cold.iterations


class TestCli:
    def write_cfg(self, tmp_path, text):
        path = tmp_path / "run.cfg"
        path.write_text(text)
        return str(path)

    def test_invalid_config_exit_2(self, tmp_path, capsys):
        cfgfile = self.write_cfg(tmp_path, "problem.kind = 7d\n")
        assert main(["check", "--config", cfgfile]) == 2

    @pytest.mark.parametrize(
        "old, new",
        [
            ("potential.R = 3", "potential.R = 0"),
            ("potential.l = 1, 1.125", "potential.l = 1, 0"),
            ("potential.kind = lj\npotential.R = 3\npotential.l = 1, 1.125",
             "potential.kind = quadratic\npotential.R = 0\npotential.k = 1, 2"),
            ("potential.kind = lj\npotential.R = 3\npotential.l = 1, 1.125",
             "potential.kind = quadratic\npotential.R = 1\npotential.k = 1, -2"),
        ],
        ids=["lj_R0", "lj_l_nonpositive", "quadratic_R0", "quadratic_k_nonpositive"],
    )
    def test_invalid_potential_exit_2(self, tmp_path, old, new):
        assert old in BASE_1D
        cfgfile = self.write_cfg(tmp_path, BASE_1D.replace(old, new))
        assert main(["solve-hqc", "--config", cfgfile, "--out", str(tmp_path / "out")]) == 2

    @pytest.mark.parametrize(
        "command, drop, add",
        [
            ("check", "", "grid.N = 0"),
            ("study", "", "mesh.schedule = adaptive\nmesh.initial = 0"),
            ("study", "", "mesh.schedule = adaptive\nmesh.initial = 1"),
            ("study", "", "mesh.schedule = adaptive\nmesh.steps = 0"),
            ("solve-hqc", SCHEDULE, "mesh.initial = 1"),
            ("estimate", SCHEDULE, "mesh.initial = 3"),
            ("study", SCHEDULE, ""),
            ("micro", "", "micro.z_count = 0"),
            ("micro", "", "micro.z_count = -1"),
            ("micro", "", "micro.max_iter = -1"),
            ("solve-atomistic", "", "solver.max_iter = -1"),
        ],
        ids=[
            "grid_N0", "adaptive_initial0", "adaptive_initial1", "adaptive_steps0",
            "fallback_initial1", "fallback_initial_not_divisor", "study_without_schedule",
            "z_count0", "z_count_negative", "micro_max_iter_negative",
            "solver_max_iter_negative",
        ],
    )
    def test_out_of_range_count_exit_2(self, tmp_path, capsys, command, drop, add):
        assert drop in BASE_1D
        cfgfile = self.write_cfg(tmp_path, BASE_1D.replace(drop, "") + add + "\n")
        assert main([command, "--config", cfgfile, "--out", str(tmp_path / "out")]) == 2
        assert "config error" in capsys.readouterr().err

    def test_inadmissible_micro_strain_names_the_cells(self, tmp_path, capsys):
        cfgfile = self.write_cfg(tmp_path, BASE_1D + "micro.z_lo = -1.2\n")
        assert main(["micro", "--config", cfgfile, "--out", str(tmp_path / "out")]) == 3
        err = capsys.readouterr().err
        assert "cells at strains -1.2 to 0.05 Newton: inadmissible start: " in err

    def test_invalid_micro_grid_exit_2(self, tmp_path):
        cfgfile = self.write_cfg(tmp_path, BASE_1D + "micro.z_lo = abc\n")
        assert main(["micro", "--config", cfgfile, "--out", str(tmp_path / "out")]) == 2

    @pytest.mark.parametrize(
        "command, flag",
        [(c, "--no-cache") for c in ("solve-atomistic", "solve-hqc", "micro", "estimate",
                                      "study2d", "check")]
        + [(c, "--timing") for c in ("solve-atomistic", "solve-hqc", "micro", "estimate",
                                    "check")],
    )
    def test_flag_not_read_by_command_exit_2(self, tmp_path, capsys, command, flag):
        # only study reads --no-cache, and only study and study2d read --timing
        cfgfile = self.write_cfg(tmp_path, BASE_1D)
        with pytest.raises(SystemExit) as exc:
            main([command, "--config", cfgfile, flag])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err

    def test_missing_file_exit_2(self):
        assert main(["study", "--config", "/nonexistent.cfg"]) == 2

    def test_check_passes(self, tmp_path, capsys):
        cfgfile = self.write_cfg(tmp_path, BASE_1D)
        assert main(["check", "--config", cfgfile, "--out", str(tmp_path / "out")]) == 0
        assert "dominance margin" in capsys.readouterr().out

    def test_stability_exit_4(self, tmp_path):
        text = BASE_1D.replace("potential.kind = lj", "potential.kind = quadratic")
        text = text.replace("potential.l = 1, 1.125", "potential.k = 1, 1\npotential.a = 1.1, -1.1")
        cfgfile = self.write_cfg(tmp_path, text)
        assert main(["check", "--config", cfgfile, "--out", str(tmp_path / "out")]) == 4

    def test_unstable_coarse_equilibrium_exit_4(self, tmp_path, capsys):
        text = (Path(__file__).parents[1] / "configs" / "lj_1d.cfg").read_text()
        assert "force.amplitude = 50\n" in text
        cfgfile = self.write_cfg(tmp_path, text.replace("amplitude = 50", "amplitude = 170"))
        assert main(["solve-hqc", "--config", cfgfile, "--out", str(tmp_path / "out")]) == 4
        assert "stability check failed" in capsys.readouterr().err

    def test_saddle_cell_exit_4(self, tmp_path, capsys):
        # this family passes the dominance check, but at strain 0.05, the top
        # of the default micro grid, the converged cell is a saddle
        text = BASE_1D.replace("potential.l = 1, 1.125", "potential.l = 0.92, 0.94")
        cfgfile = self.write_cfg(tmp_path, text)
        assert main(["check", "--config", cfgfile, "--out", str(tmp_path / "out")]) == 0
        assert main(["micro", "--config", cfgfile, "--out", str(tmp_path / "out")]) == 4
        err = capsys.readouterr().err
        assert "indefinite reduced cell Hessian: cell 20 has strain 0.05 " in err

    def test_solver_failure_exit_3(self, tmp_path):
        cfgfile = self.write_cfg(tmp_path, BASE_1D + "solver.max_iter = 1\n")
        assert main(["solve-atomistic", "--config", cfgfile, "--out", str(tmp_path / "out")]) == 3

    def test_study_writes_artifacts(self, tmp_path):
        cfgfile = self.write_cfg(tmp_path, BASE_1D)
        out = tmp_path / "out"
        assert main(["study", "--config", cfgfile, "--out", str(out)]) == 0
        assert (out / "study.csv").exists()
        assert (out / "study.svg").exists()
        rows = read_rows_csv(out / "study.csv")
        assert len(rows) == 4
        assert all(row.wall_ms == 0.0 for row in rows)  # timing off by default

    def test_study_2d_smoke(self, tmp_path):
        cfgfile = self.write_cfg(tmp_path, BASE_2D)
        out = tmp_path / "out"
        assert main(["study2d", "--config", cfgfile, "--out", str(out)]) == 0
        rows = read_rows_csv(out / "study2d.csv")
        assert len(rows) == 2 and rows[0].err_1inf > rows[1].err_1inf
        assert all(row.newton_iters == 0 for row in rows)  # the P1 solve is direct

    def test_command_kind_mismatch(self, tmp_path):
        cfgfile = self.write_cfg(tmp_path, BASE_2D)
        assert main(["study", "--config", cfgfile]) == 2

    def test_solve_and_micro_outputs(self, tmp_path):
        from hqc.io import load_lattice_fn

        cfgfile = self.write_cfg(tmp_path, BASE_1D)
        out = tmp_path / "out"
        assert main(["solve-atomistic", "--config", cfgfile, "--out", str(out)]) == 0
        u = load_lattice_fn(out / "atomistic.txt")
        assert u.grid.N == 256
        assert (out / "atomistic_trace.csv").exists()
        assert main(["solve-hqc", "--config", cfgfile, "--out", str(out)]) == 0
        assert (out / "hqc_corrected.txt").exists()
        assert main(["micro", "--config", cfgfile, "--out", str(out)]) == 0
        assert (out / "micro.csv").read_text().startswith("z,phi0,dphi0,d2phi0")
        assert main(["estimate", "--config", cfgfile, "--out", str(out)]) == 0
        assert (out / "estimate.csv").read_text().startswith("h_max,")

    def test_env_var_output_dir(self, tmp_path, monkeypatch):
        cfgfile = self.write_cfg(tmp_path, BASE_1D)
        target = tmp_path / "envout"
        monkeypatch.setenv("HQC_OUT", str(target))
        monkeypatch.chdir(tmp_path)
        assert main(["estimate", "--config", cfgfile]) == 0
        assert (target / "estimate.csv").exists()
