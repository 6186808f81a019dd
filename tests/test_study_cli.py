import numpy as np
import pytest

from hqc import ConfigError, StudyRow, build_config, fit_slope, read_rows_csv, run_study
from hqc.cli import main
from hqc.config import parse_config_text
from hqc.study import write_rows_csv

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

    def test_unknown_kind(self):
        with pytest.raises(ConfigError):
            build_config({"problem.kind": "3d"})

    def test_adaptive_block(self):
        cfg = cfg_1d("mesh.schedule = adaptive\nmesh.theta = 0.4\nmesh.steps = 3\nmesh.initial = 8\n")
        assert cfg.adaptive and cfg.theta == 0.4 and cfg.adapt_steps == 3

    def test_2d_config(self):
        cfg = build_config(parse_config_text(BASE_2D))
        assert cfg.kind == "2d" and cfg.N1 == 32 and cfg.t_schedule == [4, 8]

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

    def test_stability_gate(self):
        from hqc.exceptions import StabilityError

        bad = BASE_1D.replace("potential.kind = lj", "potential.kind = quadratic")
        bad = bad.replace("potential.l = 1, 1.125", "potential.k = 1, 1\npotential.a = 1.1, -1.1")
        with pytest.raises(StabilityError):
            run_study(build_config(parse_config_text(bad)))


class TestCli:
    def write_cfg(self, tmp_path, text):
        path = tmp_path / "run.cfg"
        path.write_text(text)
        return str(path)

    def test_invalid_config_exit_2(self, tmp_path, capsys):
        cfgfile = self.write_cfg(tmp_path, "problem.kind = 7d\n")
        assert main(["check", "--config", cfgfile]) == 2

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
