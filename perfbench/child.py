"""One benchmark study in a fresh process.

Usage: ``python child.py '<json spec>'`` with ``src`` of the checkout on
PYTHONPATH.  The spec names the shipped config, the keys that override it,
the output directory, whether to trace, whether to stop after set-up, and
``spawned``: the parent's ``time.monotonic()`` just before it started this
process, so that set-up time covers interpreter start-up too.  A study is
bracketed by two runs of ``probe_host``, and a bare set-up is followed by
one.  Prints one JSON line.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import resource
import sys
import time

#: iterations of the host probe, 0.08-0.10 s on the reference host
PROBE_LOOP = 800_000


def probe_host() -> float:
    """Seconds that a fixed interpreter loop takes now.

    On a shared host the machine's speed drifts by up to 1.6x over minutes,
    and set-up and study times follow it.  Timed in the study's own process,
    next to the study, the probe follows the study's speed more closely than
    in the parent process.  It touches neither NumPy nor BLAS, so that it
    changes neither the study's peak RSS nor its BLAS state.
    """
    t = time.perf_counter()
    acc = 0
    for i in range(PROBE_LOOP):
        acc += i * i % 7
    return time.perf_counter() - t


def main() -> None:
    spec = json.loads(sys.argv[1])
    t0 = time.perf_counter()
    from hqc.config import build_config, parse_config
    from hqc.study import run_study, run_study_2d

    import_s = time.perf_counter() - t0
    mapping = parse_config(spec["config"])
    mapping.update(spec["overrides"])
    cfg = build_config(mapping)
    out = {
        "setup_s": time.monotonic() - spec["spawned"],
        "import_s": import_s,
        "amplitude": cfg.force_amplitude,
    }
    if cfg.kind == "2d":
        out["sizes"] = {"N1": cfg.N1, "N2": cfg.N2, "t": cfg.t_schedule}
    else:
        meshes = cfg.mesh_schedule or {"adaptive_initial": cfg.adapt_initial, "steps": cfg.adapt_steps}
        out["sizes"] = {"N": cfg.N, "R": cfg.R, "p": cfg.p, "meshes": meshes}
    if not spec["setup_only"]:
        if cfg.kind == "2d":
            study = functools.partial(run_study_2d, cfg, out_dir=spec["out"])
        else:
            study = functools.partial(run_study, cfg, out_dir=spec["out"], use_cache=False)
        tracer = None
        if spec["trace"]:
            from tracing import Tracer

            tracer = Tracer()
            tracer.install()
            study = tracer.wrap("study.run_study", study)
        probe_before = probe_host()
        t = time.perf_counter()
        rows = study()
        out["study_s"] = time.perf_counter() - t
        out["probe_s"] = 0.5 * (probe_before + probe_host())
        out["rows"] = [dataclasses.asdict(row) for row in rows]
        if tracer is not None:
            layers = tracer.metrics()
            layers["linsolve.kkt_fallbacks"] = layers.get("linsolve._solve_kkt_sparse.calls", 0)
            layers["estimator.final_nodes"] = rows[-1].dof if cfg.kind == "1d" else 0
            out["layers"] = layers
    else:
        out["probe_s"] = probe_host()
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(out))


if __name__ == "__main__":
    main()
