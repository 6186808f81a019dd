"""Benchmark of hqc convergence studies, run through the public API.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload lj_1d --seed 0 --seconds 25 --trace 0

A run starts one study after another, each in a fresh process (so the
atomistic reference is cold and no ``HomogenizedLaw`` is shared) writing to
a fresh output directory under ``.bench_tmp/``, until ``--seconds`` have
passed.  Study k of a run forces the chain with the k-th value of a
golden-ratio sequence started at a point drawn from ``--seed``: the force
phase in [0, 2 pi) for the 1D workloads, the amplitude in [5, 15] for 2D.
Seed 0 starts at the shipped value.  Every study is checked:

* its row count, and that every scientific column is finite;
* the seed-commit CSV in ``expected/``, for seed 0's first study and, since
  the 2D problem is linear in the amplitude, for every 2D study with the
  error columns scaled by amplitude / 10 (relative tolerance ``RTOL``);
* the convergence slope of ``err_1inf``: in [0.85, 1.15] against h_max
  (acceptance criterion 1) or, for the adaptive run, against 1 / nodes;
  at least 0.85 in 2D (criterion 8).

An operation is one reference solve or one study row; a crashed study
fails all of its operations, a failed slope check all of its rows.

With ``--trace 0`` the end-to-end metrics are medians over the run's
studies (or set-ups), except ``err_final_per_amp``, a mean.  On a shared
2-vCPU host the machine's speed drifts between regimes up to 1.6x apart
that last from seconds to minutes, and wall times follow it, so runs of
the same code minutes apart differ by more than any bound a regression
check could use.  So each study process times a fixed probe
(``child.probe_host``: a pure interpreter loop of about 0.09 s) just
before and just after its study, a set-up-only process once after set-up,
and ``setup_s`` and ``study_norm_s`` are the medians over the run of
set-up or study time / the process's mean probe time, times
``PROBE_REF_S``: the time at the host speed where the probe takes
``PROBE_REF_S``.  A change to hqc moves them as it moves the wall times,
while most of the host's drift cancels.  The wall-time medians, the
fastest study, the probe median and every sample are in the info line.

With ``--trace 1`` the run alternates traced and untraced studies,
starting with a traced one, and reports the layers of the fastest traced
study (``tracing.py``), whose self times add up to its ``trace.study_s``;
``trace.overhead_s`` is that minus the fastest untraced study time.

Metric names and units come from ``BENCHMARK.json``.  A line
``{"info": ...}`` with machine, sizes and samples precedes the result,
which is the last line of standard output.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
RTOL = 1e-6
ATOL = 1e-12
MIN_SETUPS = 5
#: a round figure near the median of ``child.probe_host`` on the reference
#: host (BASELINE.md), so that normalised times read as seconds on that host
PROBE_REF_S = 0.1
#: a run ends within this many seconds even if a study hangs
HARD_LIMIT_S = 170.0
SCIENTIFIC = ("h_max", "dof", "err_1inf", "err_0inf", "eta_jump", "eta_force", "eta_quad", "eta_total")


@dataclass(frozen=True)
class Workload:
    config: str
    overrides: dict
    rows: int
    #: config key the seed varies, its range, and its value in the shipped config
    varied: str
    lo: float
    hi: float
    shipped: float
    #: error columns scale linearly with the varied value (linear problem)
    linear: bool = False
    #: slope check: abscissa ("h_max" or "inv_dof") and band
    slope_x: str = "h_max"
    slope_band: tuple = (0.85, 1.15)


PHASE = dict(varied="force.phase", lo=0.0, hi=2.0 * math.pi, shipped=1.0)
WORKLOADS = {
    "lj_1d": Workload("lj_1d.cfg", {}, 9, **PHASE),
    "lj_1d_adaptive": Workload(
        "lj_1d_adaptive.cfg", {"grid.N": "4096", "mesh.steps": "14"}, 14,
        slope_x="inv_dof", **PHASE,
    ),
    # N = 65536: at N = 262144 the seed's atomistic Newton stalls at its
    # residual floor (1.5e-10 > tol) for some phases; see BASELINE.md.
    "lj_1d_fine": Workload(
        "lj_1d.cfg", {"grid.N": "65536", "mesh.schedule": "16, 64, 256"}, 3, **PHASE
    ),
    # N = 128 instead of the shipped 256: see BASELINE.md, "Workload sizes".
    "springs_2d": Workload(
        "springs_2d.cfg", {"grid.N1": "128", "grid.N2": "128"}, 5,
        varied="force.amplitude", lo=5.0, hi=15.0, shipped=10.0,
        linear=True, slope_band=(0.85, math.inf),
    ),
}


def varied_values(wl: Workload, seed: int):
    """Value of the varied key for study k = 0, 1, ...; None keeps the shipped one."""
    span = wl.hi - wl.lo
    u0 = (wl.shipped - wl.lo) / span if seed == 0 else random.Random(seed).random()
    for k in itertools.count():
        yield None if (seed == 0 and k == 0) else wl.lo + span * ((u0 + k * GOLDEN) % 1.0)


def run_child(wl: Workload, value, tmp_root: Path, trace: bool, setup_only: bool, timeout: float):
    out_dir = Path(tempfile.mkdtemp(dir=tmp_root))
    overrides = dict(wl.overrides)
    if value is not None:
        overrides[wl.varied] = repr(value)
    spec = {
        "config": str(ROOT / "configs" / wl.config),
        "overrides": overrides,
        "out": str(out_dir),
        "trace": trace,
        "setup_only": setup_only,
    }
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), TMPDIR=str(tmp_root))
    spec["spawned"] = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), json.dumps(spec)],
            capture_output=True, text=True, env=env, timeout=max(timeout, 1.0),
        )
    except subprocess.TimeoutExpired:
        return None, f"timed out after {timeout:.0f} s"
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    if proc.returncode != 0:
        return None, (proc.stderr.strip().splitlines() or ["no output"])[-1]
    return json.loads(proc.stdout.strip().splitlines()[-1]), None


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= ATOL + RTOL * abs(b)


def _slope(rows, x_kind) -> float:
    x = [math.log(r["h_max"] if x_kind == "h_max" else 1.0 / r["dof"]) for r in rows]
    y = [math.log(r["err_1inf"]) for r in rows]
    return statistics.linear_regression(x, y).slope


def check_rows(name: str, wl: Workload, value, rows):
    """Number of failed rows and the reasons."""
    if len(rows) != wl.rows:
        return wl.rows, [f"{len(rows)} rows, expected {wl.rows}"]
    bad, why = set(), []
    for i, row in enumerate(rows):
        if not all(math.isfinite(row[c]) for c in SCIENTIFIC):
            bad.add(i)
            why.append(f"row {i}: non-finite value")
    if value is None or wl.linear:
        scale = 1.0 if value is None else value / wl.shipped
        expected = read_expected(name)
        for i, (row, ref) in enumerate(zip(rows, expected)):
            for c in SCIENTIFIC:
                want = ref[c] * scale if c.startswith(("err_", "eta_")) else ref[c]
                if not _close(row[c], want):
                    bad.add(i)
                    why.append(f"row {i}: {c} = {row[c]!r}, expected {want!r}")
    if not bad:
        slope = _slope(rows, wl.slope_x)
        lo, hi = wl.slope_band
        if not lo <= slope <= hi:
            return wl.rows, [f"err_1inf slope {slope:.4f} outside [{lo}, {hi}]"]
    return len(bad), why


def read_expected(name: str):
    lines = (HERE / "expected" / f"{name}.csv").read_text().split()
    header = lines[0].split(",")
    return [dict(zip(header, map(float, line.split(",")))) for line in lines[1:]]


def machine_info() -> dict:
    import numpy
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # on SIGTERM, unwind: subprocess.run kills and reaps the running study
    signal.signal(signal.SIGTERM, lambda signum, _frame: sys.exit(128 + signum))

    bench_file = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "hqc" / "__init__.py").is_file() or not bench_file.is_file():
        print(f"{ROOT} lacks src/hqc or BENCHMARK.json", file=sys.stderr)
        return 2
    bench = json.loads(bench_file.read_text())
    why = next(w["why"] for w in bench["workloads"] if w["name"] == args.workload)
    wl = WORKLOADS[args.workload]
    trace = bool(args.trace)

    tmp_root = ROOT / ".bench_tmp"
    tmp_root.mkdir(exist_ok=True)
    tmp_root = Path(tempfile.mkdtemp(dir=tmp_root))
    studies, setups, failures = [], [], []
    attempted = failed = 0
    try:
        started = time.monotonic()
        deadline = started + args.seconds
        draws = varied_values(wl, args.seed)
        min_studies = 2 if trace else 1  # a traced run needs an untraced study too
        for k in itertools.count():
            if k >= min_studies and time.monotonic() >= deadline:
                break
            value = next(draws)
            traced = trace and k % 2 == 0
            result, error = run_child(
                wl, value, tmp_root, traced, False, started + HARD_LIMIT_S - time.monotonic()
            )
            attempted += 1 + wl.rows
            shown = wl.shipped if value is None else value
            label = f"study {k} ({wl.varied}={shown})"
            if result is None:
                failed += 1 + wl.rows
                failures.append(f"{label}: {error}")
                continue
            setups.append(result)
            n_bad, why_bad = check_rows(args.workload, wl, value, result["rows"])
            failed += n_bad
            failures += [f"{label}: {w}" for w in why_bad]
            result["traced"] = traced
            result["value"] = shown
            studies.append(result)
        while setups and len(setups) < MIN_SETUPS:
            result, error = run_child(
                wl, None, tmp_root, False, True, started + HARD_LIMIT_S - time.monotonic()
            )
            if result is None:
                failures.append(f"set-up: {error}")
                break
            setups.append(result)
    finally:
        shutil.rmtree(tmp_root, ignore_errors=True)
        try:
            tmp_root.parent.rmdir()
        except OSError:
            pass

    plain = [s for s in studies if not s["traced"]]
    traced_runs = [s for s in studies if s["traced"]]
    if not plain or (trace and not traced_runs):
        print("no study completed: " + "; ".join(failures[-3:]), file=sys.stderr)
        return 1

    med = statistics.median
    fastest = min(plain, key=lambda s: s["study_s"])
    if trace:
        best = min(traced_runs, key=lambda s: s["layers"]["study.run_study.s"])
        layers = dict(best["layers"])
        layers["setup.import_s"] = med([s["import_s"] for s in setups])
        layers["trace.study_s"] = best["layers"]["study.run_study.s"]
        layers["trace.overhead_s"] = layers["trace.study_s"] - fastest["study_s"]
        wanted = bench["per_layer"]
        values = {m["name"]: layers.get(m["name"], 0.0) for m in wanted}
    else:
        wanted = bench["end_to_end"]
        values = {
            "setup_s": PROBE_REF_S * med([s["setup_s"] / s["probe_s"] for s in setups]),
            "study_norm_s": PROBE_REF_S * med([s["study_s"] / s["probe_s"] for s in plain]),
            "peak_rss_mb": med([s["peak_rss_mb"] for s in plain]),
            # a mean: the error takes a few plateau values over the phase,
            # between which a median of the run's studies would jump
            "err_final_per_amp": statistics.fmean(
                s["rows"][-1]["err_1inf"] / s["amplitude"] for s in plain
            ),
            "ok_frac": 1.0 - failed / attempted,
        }
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}

    info = {
        "workload": args.workload,
        "why": why,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine_info(),
        "sizes": studies[0]["sizes"] | {"overrides": wl.overrides, "varied": wl.varied},
        "studies": len(plain),
        "traced_studies": len(traced_runs),
        "setups": len(setups),
        "study_s_median": med([s["study_s"] for s in plain]),
        "study_s_fastest": fastest["study_s"],
        "probe_s_median": med([s["probe_s"] for s in plain]),
        "study_s_samples": [round(s["study_s"], 4) for s in plain],
        "probe_s_samples": [round(s["probe_s"], 4) for s in plain],
        "setup_s_median": med([s["setup_s"] for s in setups]),
        "setup_s_samples": [round(s["setup_s"], 4) for s in setups],
        "varied_values": [s["value"] for s in studies],
        "failed_frac": failed / attempted,
        "failures": failures[:20],
    }
    if trace:
        info["strains_solved"] = best["layers"].get("microhom.eval_strains.strains", 0)
    print(json.dumps({"info": info}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
