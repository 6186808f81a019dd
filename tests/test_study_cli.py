import dataclasses
import functools
import re
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from hqc import (
    ConfigError,
    ForceFunctional,
    HomogenizedLaw,
    LatticeFn,
    LatticeGrid,
    StudyRow,
    adapt_mesh,
    build_config,
    corrector,
    fit_slope,
    ground_microstructure,
    run_study,
    seminorm,
    solve_atomistic,
    solve_coarse,
    solve_coarse_meshes,
    uniform_mesh,
)
from hqc.cli import main
from hqc.config import parse_config, parse_config_text
from hqc.exceptions import StabilityError
from hqc.io import save_lattice_fn
from hqc.study import (
    build_family,
    config_hash,
    microstructure_start,
    sin_force,
    write_rows_csv,
)

from oracles import read_rows_csv

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
ADAPTIVE_4 = "mesh.schedule = adaptive\nmesh.steps = 4\nmesh.initial = 4\n"

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

    @pytest.mark.parametrize(
        "kind, line",
        [
            ("1d", "force.amplitude = nan"),
            ("1d", "force.phase = inf"),
            ("1d", "micro.z_lo = -inf"),
            ("1d", "potential.l = 1, nan"),
            ("1d", "mesh.schedule = 4, inf"),
            ("1d", "estimator.calibration = nan"),
            ("1d", "estimator.c0_inv = inf"),
            ("1d", "estimator.calibration = -1"),
            ("1d", "estimator.c0_inv = -1"),
            ("2d", "potential.k1 = nan"),
            ("2d", "force.amplitude = inf"),
        ],
    )
    def test_non_finite_or_negative_value(self, kind, line):
        base = BASE_1D if kind == "1d" else BASE_2D
        with pytest.raises(ConfigError, match="finite|must be >= 0"):
            build_config(parse_config_text(base + line + "\n"))

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

    def test_unread_keys_warn(self, tmp_path, capsys):
        # a misspelt key runs at the default amplitude, but not silently
        assert cfg_1d("force.amplitud = 120\nmesh.theta = 0.4\n").force_amplitude == 50.0
        err = capsys.readouterr().err.splitlines()
        assert err == [
            "config warning: key 'force.amplitud' is not read",
            "config warning: key 'mesh.theta' is not read",  # read by adaptive schedules only
        ]
        for base in (BASE_1D, BASE_2D, LJ_1D.read_text()):
            build_config(parse_config_text(base))
            assert capsys.readouterr().err == ""
        # the command's exit code and artifacts do not change
        for name, extra in (("plain", ""), ("typo", "force.amplitud = 120\n")):
            cfgfile = tmp_path / f"{name}.cfg"
            cfgfile.write_text(BASE_1D + extra)
            assert main(["study", "--config", str(cfgfile), "--out", str(tmp_path / name)]) == 0
        assert "'force.amplitud'" in capsys.readouterr().err
        assert (tmp_path / "plain/study.csv").read_text() == (tmp_path / "typo/study.csv").read_text()


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


def traced_peak(fn) -> int:
    """Peak traced memory, in bytes, of the call fn()."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestRunStudy:
    def test_deterministic_rerun_byte_identical(self, tmp_path):
        cfg = cfg_1d()
        out1 = tmp_path / "a"
        out2 = tmp_path / "b"
        run_study(cfg, out_dir=out1)
        run_study(cfg, out_dir=out2)
        assert (out1 / "study.csv").read_bytes() == (out2 / "study.csv").read_bytes()
        assert (out1 / "study.svg").exists()

    def test_reference_cache_reused(self, tmp_path, monkeypatch):
        import hqc.study

        cfg = cfg_1d()
        rows1 = run_study(cfg, out_dir=tmp_path)
        cached = list((tmp_path / "cache").glob("ref_*.txt"))
        assert len(cached) == 1
        reference = mock.Mock(side_effect=solve_atomistic)
        monkeypatch.setattr(hqc.study, "solve_atomistic", reference)
        rows2 = run_study(cfg, out_dir=tmp_path)
        reference.assert_not_called()
        assert rows1 == rows2

    def test_cache_key_includes_the_schedule(self, tmp_path):
        for cfg in (cfg_1d("mesh.schedule = 4, 8, 16\n"), cfg_1d()):
            assert run_study(cfg, out_dir=tmp_path) == run_study(cfg)
        assert len(list((tmp_path / "cache").glob("ref_*.txt"))) == 2

    def test_cache_key_is_the_validated_values(self, capsys):
        # a key that the schema does not read, or a default written out, keys
        # the shipped config's reference; a value that the study reads does not
        text = (Path(__file__).parents[1] / "configs" / "lj_1d.cfg").read_text()
        shipped = config_hash(build_config(parse_config_text(text)))
        for same in (text + "output.note = rerun\n",
                     text + "mesh.initial = 4\nestimator.calibration = 1\n",
                     text.replace("force.amplitude = 50", "force.amplitude = 5e1")):
            assert config_hash(build_config(parse_config_text(same))) == shipped
        assert "'output.note' is not read" in capsys.readouterr().err
        other = text.replace("force.phase = 1", "force.phase = 1.5")
        assert config_hash(build_config(parse_config_text(other))) != shipped

    def test_no_cache_writes_only_the_study(self, tmp_path, monkeypatch):
        import hqc.study

        cfg = cfg_1d()
        run_study(cfg, out_dir=tmp_path / "cached")
        fresh = run_study(cfg)
        save, load = mock.Mock(), mock.Mock()
        monkeypatch.setattr(hqc.study, "save_lattice_fn", save)
        monkeypatch.setattr(hqc.study, "load_lattice_fn", load)
        out = tmp_path / "nocache"
        assert run_study(cfg, out_dir=out, use_cache=False) == fresh
        save.assert_not_called()
        load.assert_not_called()
        assert sorted(p.name for p in out.iterdir()) == ["study.csv", "study.svg"]
        csv = (out / "study.csv").read_bytes()
        assert csv == (tmp_path / "cached" / "study.csv").read_bytes()

    def test_no_cache_ignores_a_planted_reference(self, tmp_path):
        cfg = cfg_1d()
        fresh = run_study(cfg)
        path = tmp_path / "cache" / f"ref_{config_hash(cfg)}.txt"
        path.parent.mkdir()
        save_lattice_fn(path, LatticeFn(LatticeGrid(cfg.N, cfg.p), np.zeros(cfg.N)))
        assert run_study(cfg, out_dir=tmp_path, use_cache=False) == fresh
        # the plant sits where a cached run reads its reference
        assert run_study(cfg, out_dir=tmp_path) != fresh

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

    def test_adaptive_study_adapts_between_its_steps(self, monkeypatch):
        # the mesh adapted after the last step would be read by nothing
        import hqc.study

        adapt = mock.Mock(side_effect=adapt_mesh)
        monkeypatch.setattr(hqc.study, "adapt_mesh", adapt)
        assert len(run_study(cfg_1d(ADAPTIVE_4))) == 4
        assert adapt.call_count == 3

    @pytest.mark.parametrize("extra", ["", ADAPTIVE_4])
    def test_timing_fills_only_wall_ms(self, extra):
        cfg = cfg_1d(extra)
        timed = run_study(cfg, timing=True)
        assert all(np.isfinite(row.wall_ms) and row.wall_ms > 0 for row in timed)
        assert [dataclasses.replace(row, wall_ms=0.0) for row in timed] == run_study(cfg)

    def test_rows_keep_no_lattice_field(self):
        # rows keep their coarse solutions, not their corrected fields,
        # through the reference solve: four more rows raise the peak by
        # less than half a lattice vector
        N = 65536
        mapping = parse_config(LJ_1D)
        mapping["grid.N"] = str(N)
        peaks = []
        for schedule in ("16, 32, 64, 128, 256", "256"):
            mapping["mesh.schedule"] = schedule
            cfg = build_config(mapping)
            tracemalloc.start()
            try:
                run_study(cfg, use_cache=False)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[0] <= peaks[1] + 0.5 * 8 * N

    def test_row_peak_at_65536_sites(self):
        # a row, the corrector into the row buffer and both errors, takes at
        # most 2 lattice vectors beyond the buffers, and the reference's
        # start, corrector(cs, f), its field and at most 2 temporaries
        from hqc.study import _row_errors, setup_1d

        N = 65536
        mapping = parse_config(LJ_1D)
        mapping.update({"grid.N": str(N), "mesh.schedule": "256"})
        cfg = build_config(mapping)
        grid, _family, _micro, _margin, law, f = setup_1d(cfg)
        F = ForceFunctional(cfg.functional_kind, f)
        (cs,) = solve_coarse_meshes(law, [uniform_mesh(grid, 256)], F)
        start = []
        assert traced_peak(lambda: start.append(corrector(cs, f))) <= 3 * 8 * N + 2**14
        field, steps = np.empty(N), np.empty(N - 1)

        def row():
            corrector(cs, out=field)
            _row_errors(field, start[0].values, steps, grid.eps)

        assert traced_peak(row) <= 2 * 8 * N

    def test_study_peak_at_65536_sites(self):
        # the benchmark's lj_1d_fine sizes: the atomistic reference sets the
        # peak, 16.38 lattice vectors, and no row may raise it.  The study is
        # traced the second time, so that the first one's imports, caches and
        # compiled code, some 0.02 vectors, do not count
        N = 65536
        mapping = parse_config(LJ_1D)
        mapping.update({"grid.N": str(N), "mesh.schedule": "16, 64, 256"})
        cfg = build_config(mapping)
        run_study(cfg, use_cache=False)
        assert traced_peak(lambda: run_study(cfg, use_cache=False)) / (8 * N) <= 16.39

    @pytest.mark.parametrize("extra", ["", ADAPTIVE_4])
    def test_row_errors_are_the_seminorms(self, monkeypatch, extra):
        # a row's errors, formed in its reused buffers, are seminorm's on a
        # fresh difference bit for bit: at N = 256 the division by eps is
        # exact, and it commutes with the max anyway
        import hqc.study

        rowed, refs = [], []

        def recording_corrector(cs, f=None, out=None):
            if f is None:
                rowed.append(cs)
            return corrector(cs, f, out)

        def recording_solve(prob, **kw):
            refs.append(solve_atomistic(prob, **kw))
            return refs[-1]

        monkeypatch.setattr(hqc.study, "corrector", recording_corrector)
        monkeypatch.setattr(hqc.study, "solve_atomistic", recording_solve)
        rows = run_study(cfg_1d(extra), use_cache=False)
        (ref,) = refs
        assert len(rowed) == len(rows)
        for row, cs in zip(rows, rowed):
            diff = LatticeFn(ref.u.grid, corrector(cs).values - ref.u.values)
            assert row.err_1inf == seminorm(diff, 1, np.inf)
            assert row.err_0inf == seminorm(diff, 0, np.inf)

    @pytest.mark.parametrize("extra", ["", ADAPTIVE_4])
    def test_each_row_starts_from_the_previous_solution(self, monkeypatch, extra):
        # an adaptive study nests each solve in the previous one; a uniform
        # study solves all its meshes in one batched call
        import hqc.study

        calls, batches = [], []

        def recording(*args, init=None, **kw):
            cs = solve_coarse(*args, init=init, **kw)
            calls.append((init, cs))
            return cs

        def batching(*args):
            batches.append(solve_coarse_meshes(*args))
            return batches[-1]

        monkeypatch.setattr(hqc.study, "solve_coarse", recording)
        monkeypatch.setattr(hqc.study, "solve_coarse_meshes", batching)
        rows = run_study(cfg_1d(extra))
        if extra:
            assert not batches
            assert calls[0][0] is None
            assert all(init is prev for (init, _), (_, prev) in zip(calls[1:], calls))
            solutions = [cs for _, cs in calls]
        else:
            assert not calls and len(batches) == 1
            solutions = batches[0]
        assert [row.newton_iters for row in rows] == [cs.iterations for cs in solutions]

    def test_one_strain_0_cell_solve(self, monkeypatch):
        # the ground microstructure and the batched cold start share one
        # cell solve, and the batch evaluates its trial points and nothing else
        import hqc.coarse
        import hqc.microhom
        import hqc.study
        from hqc.microhom import condense_cells, newton_cells

        solves, evaluations, batches = [], [], []

        def solving(family, z, chi0):
            solves.append(np.array(z))
            return newton_cells(family, z, chi0)

        def condensing(*args):
            evaluations.append(args)
            return condense_cells(*args)

        def batching(*args):
            batches.append(solve_coarse_meshes(*args))
            return batches[-1]

        monkeypatch.setattr(hqc.microhom, "newton_cells", solving)
        monkeypatch.setattr(hqc.coarse, "condense_cells", condensing)
        monkeypatch.setattr(hqc.study, "solve_coarse_meshes", batching)
        run_study(build_config(parse_config(LJ_1D)), use_cache=False)
        assert len(solves) == 1 and np.array_equal(solves[0], [0.0])
        # a step accepted at damping t evaluated 1 + log2(1 / t) trial points
        trials = sum(1 + round(-np.log2(t)) for _it, _res, t in batches[0][0].trace[1:])
        assert len(evaluations) == trials == 7

    def test_stability_gate(self):
        bad = BASE_1D.replace("potential.kind = lj", "potential.kind = quadratic")
        bad = bad.replace("potential.l = 1, 1.125", "potential.k = 1, 1\npotential.a = 1.1, -1.1")
        with pytest.raises(StabilityError):
            run_study(build_config(parse_config_text(bad)))

    def test_coarse_failure_stops_before_reference(self, tmp_path, monkeypatch):
        import hqc.study

        reference = mock.Mock(side_effect=solve_atomistic)
        monkeypatch.setattr(hqc.study, "solve_atomistic", reference)
        # at this load the batched coarse Newton stalls, and the 8-node mesh
        # solved alone converges onto an unstable equilibrium
        with pytest.raises(StabilityError, match="^8-node mesh: unstable coarse equilibrium"):
            run_study(cfg_1d("force.amplitude = 150\n"), out_dir=tmp_path)
        reference.assert_not_called()
        assert not (tmp_path / "cache").exists()


LJ_1D = Path(__file__).parents[1] / "configs" / "lj_1d.cfg"


def solve_lj_1d_study(N, phase):
    """The lj_1d chain at N sites and force phase ``phase``, on the shipped
    mesh schedule or, at N = 65536, on the benchmark's 16, 64, 256: the
    config, the (coarse solution, force, result) of every ``corrector`` call
    of the study, and the arguments and result of its one reference solve."""
    import hqc.study

    mapping = parse_config(LJ_1D)
    mapping.update({"grid.N": str(N), "force.phase": repr(phase)})
    if N == 65536:
        mapping["mesh.schedule"] = "16, 64, 256"
    cfg = build_config(mapping)
    corrected, solves = [], []

    def recording_corrector(cs, f=None, out=None):
        corrected.append((cs, f, corrector(cs, f, out)))
        return corrected[-1][2]

    def recording_solve(prob, **kw):
        solves.append((prob, kw, solve_atomistic(prob, **kw)))
        return solves[-1][2]

    with mock.patch.object(hqc.study, "corrector", recording_corrector), mock.patch.object(
        hqc.study, "solve_atomistic", recording_solve
    ):
        rows = run_study(cfg)
    # the reference start, with the force, then one call per row
    assert len(corrected) == len(rows) + 1 and len(solves) == 1
    assert corrected[0][1] is not None
    assert all(f is None for _cs, f, _uc in corrected[1:])
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
    """The reference is solved from the last row's corrected solution moved
    to local equilibrium; it must reach the equilibrium that the cold start
    reaches."""

    def test_starts_from_last_corrector_in_at_most_3_steps(self, lj_1d_reference, N, phase):
        # the start is equilibrated, and takes at most 2 steps; the last
        # corrected solution itself took 3 at N = 65536
        cfg, corrected, (prob, kw, sol) = lj_1d_reference(N, phase)
        assert kw["u_init"] is corrected[0][2]
        start = corrector(corrected[-1][0], prob.force)
        assert np.array_equal(kw["u_init"].values, start.values)
        assert sol.iterations <= 2
        # the reference takes the study's own force, which is the config's
        f = sin_force(prob.grid, cfg.force_amplitude, cfg.force_phase)
        assert np.array_equal(prob.force.values, f.values)

    def test_agrees_with_cold_start(self, lj_1d_reference, N, phase):
        cfg, _corrected, (prob, _kw, sol) = lj_1d_reference(N, phase)
        micro = ground_microstructure(HomogenizedLaw(prob.family))
        cold = solve_atomistic(prob, u_init=microstructure_start(prob.grid, micro))
        assert max_rel_diff(sol.u, cold.u) <= 1e-12
        assert sol.iterations <= cold.iterations
        # the worst start: the corrected solution of one cold 4-node row
        law = HomogenizedLaw(build_family(cfg))
        F = ForceFunctional(cfg.functional_kind, prob.force)
        cs = solve_coarse(law, uniform_mesh(prob.grid, 4), F)
        rough = solve_atomistic(prob, u_init=corrector(cs))
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
        ],
        ids=[
            "grid_N0", "adaptive_initial0", "adaptive_initial1", "adaptive_steps0",
            "fallback_initial1", "fallback_initial_not_divisor", "study_without_schedule",
            "z_count0", "z_count_negative",
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

    def test_unstable_coarse_mesh_stops_the_study_exit_4(self, tmp_path, capsys):
        # the finer meshes, which have no equilibrium, stall the batched
        # iteration before the 4-node mesh converges onto its unstable branch
        text = (Path(__file__).parents[1] / "configs" / "lj_1d.cfg").read_text()
        cfgfile = self.write_cfg(tmp_path, text.replace("amplitude = 50", "amplitude = 170"))
        assert main(["study", "--config", cfgfile, "--out", str(tmp_path / "out")]) == 4
        err = capsys.readouterr().err
        assert "stability check failed: 4-node mesh: unstable coarse equilibrium" in err

    def test_saddle_cell_exit_4(self, tmp_path, capsys):
        # this family passes the dominance check, but at strain 0.05, the top
        # of the default micro grid, the converged cell is a saddle
        text = BASE_1D.replace("potential.l = 1, 1.125", "potential.l = 0.92, 0.94")
        cfgfile = self.write_cfg(tmp_path, text)
        assert main(["check", "--config", cfgfile, "--out", str(tmp_path / "out")]) == 0
        assert main(["micro", "--config", cfgfile, "--out", str(tmp_path / "out")]) == 4
        err = capsys.readouterr().err
        assert "indefinite reduced cell Hessian: cell 20 has strain 0.05 " in err

    def test_solver_failure_exit_3(self, tmp_path, capsys):
        # no equilibrium the atomistic Newton reaches from the microstructure
        cfgfile = self.write_cfg(tmp_path, BASE_1D + "force.amplitude = 200\n")
        assert main(["solve-atomistic", "--config", cfgfile, "--out", str(tmp_path / "out")]) == 3
        assert "atomistic Newton stalled" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command", ["solve-atomistic", "solve-hqc", "micro", "estimate", "study", "check"]
    )
    def test_non_finite_force_exit_2(self, tmp_path, capsys, command):
        # a nan force made every residual nan, which no Newton loop rejected
        cfgfile = self.write_cfg(tmp_path, BASE_1D + "force.amplitude = nan\n")
        assert main([command, "--config", cfgfile, "--out", str(tmp_path / "out")]) == 2
        assert "expected a finite number, got 'nan'" in capsys.readouterr().err

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

    def test_study_2d_prints_mesh_t(self, tmp_path, capsys):
        # 1 / (1 / 93) is 92.99999999999999, so truncating h_max back to t
        # prints 92 (and 185 for 186)
        text = BASE_2D.replace("grid.N1 = 32\ngrid.N2 = 32", "grid.N1 = 186\ngrid.N2 = 186")
        cfgfile = self.write_cfg(tmp_path, text.replace("mesh.t = 4, 8", "mesh.t = 2, 93, 186"))
        assert main(["study2d", "--config", cfgfile, "--out", str(tmp_path / "out")]) == 0
        printed = re.findall(r"^t=\s*(\d+) ", capsys.readouterr().out, re.MULTILINE)
        assert printed == ["2", "93", "186"]

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

    def test_trace_headers(self, tmp_path):
        # the coarse trace holds the merit, the larger of the dual norm and
        # the scaled worst cell residual; the atomistic one the dual norm
        cfgfile = self.write_cfg(tmp_path, BASE_1D)
        out = tmp_path / "out"
        assert main(["solve-atomistic", "--config", cfgfile, "--out", str(out)]) == 0
        assert main(["solve-hqc", "--config", cfgfile, "--out", str(out)]) == 0
        atomistic = (out / "atomistic_trace.csv").read_text().splitlines()
        coarse = (out / "hqc_trace.csv").read_text().splitlines()
        assert atomistic[0] == "iter,residual_dual,step_damping"
        assert coarse[0] == "iter,merit,step_damping"
        assert float(coarse[-1].split(",")[1]) <= 1e-10

    def test_env_var_output_dir(self, tmp_path, monkeypatch):
        cfgfile = self.write_cfg(tmp_path, BASE_1D)
        target = tmp_path / "envout"
        monkeypatch.setenv("HQC_OUT", str(target))
        monkeypatch.chdir(tmp_path)
        assert main(["estimate", "--config", cfgfile]) == 0
        assert (target / "estimate.csv").exists()
