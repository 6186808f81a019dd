"""Flat key-value experiment configuration.

Config files hold one ``section.key = value`` assignment per line; ``#``
starts a comment.  Lists are comma separated.  The full key schema is
documented in the README.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from .exceptions import ConfigError

_DEFAULTS = {
    "problem.kind": "1d",
    "force.functional": "exact_summation",
    "micro.tol": "1e-12",
    "micro.max_iter": "60",
    "micro.z_lo": "-0.05",
    "micro.z_hi": "0.05",
    "micro.z_count": "21",
    "solver.tol": "1e-10",
    "solver.max_iter": "60",
    "estimator.calibration": "1.0",
    "mesh.theta": "0.5",
    "mesh.steps": "6",
    "mesh.initial": "4",
}


def parse_config_text(text: str) -> dict:
    out = {}
    for ln, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {ln}: expected 'key = value', got {raw!r}")
        key, value = line.split("=", 1)
        out[key.strip()] = value.strip()
    return out


def parse_config(path) -> dict:
    return parse_config_text(Path(path).read_text())


def _floats(s: str):
    return [float(tok) for tok in s.replace(",", " ").split()]


def _ints(s: str):
    vals = _floats(s)
    if any(v != int(v) for v in vals):
        raise ConfigError(f"expected integers, got {s!r}")
    return [int(v) for v in vals]


@dataclass
class ExperimentConfig:
    kind: str
    raw: dict = field(repr=False)

    # 1d
    N: int = 0
    potential_kind: str = "lj"
    R: int = 1
    l: list = field(default_factory=list)
    k: list = field(default_factory=list)
    a: list = field(default_factory=list)
    force_amplitude: float = 50.0
    force_phase: float = 1.0
    functional_kind: str = "exact_summation"
    mesh_schedule: list = field(default_factory=list)
    adaptive: bool = False
    theta: float = 0.5
    adapt_steps: int = 6
    adapt_initial: int = 4
    # 2d
    N1: int = 0
    N2: int = 0
    k1: float = 1.0
    k2: float = 2.0
    k3: float = 0.25
    t_schedule: list = field(default_factory=list)
    # shared
    micro_tol: float = 1e-12
    micro_max_iter: int = 60
    micro_z_lo: float = -0.05
    micro_z_hi: float = 0.05
    micro_z_count: int = 21
    solver_tol: float = 1e-10
    solver_max_iter: int = 60
    calibration: float = 1.0
    c0_inv: float | None = None

    @property
    def p(self) -> int:
        if self.potential_kind == "lj":
            return len(self.l)
        return len(self.k)


def build_config(mapping: dict) -> ExperimentConfig:
    """Validate a raw key-value mapping against the schema."""
    m = dict(_DEFAULTS)
    m.update(mapping)
    try:
        kind = m["problem.kind"]
        if kind not in ("1d", "2d"):
            raise ConfigError(f"problem.kind must be 1d or 2d, got {kind!r}")
        cfg = ExperimentConfig(kind=kind, raw=dict(mapping))
        cfg.micro_tol = float(m["micro.tol"])
        cfg.micro_max_iter = int(m["micro.max_iter"])
        cfg.micro_z_lo = float(m["micro.z_lo"])
        cfg.micro_z_hi = float(m["micro.z_hi"])
        cfg.micro_z_count = int(m["micro.z_count"])
        cfg.solver_tol = float(m["solver.tol"])
        cfg.solver_max_iter = int(m["solver.max_iter"])
        if not (cfg.micro_tol > 0 and cfg.solver_tol > 0):
            raise ConfigError("micro.tol and solver.tol must be positive")
        if min(cfg.micro_max_iter, cfg.solver_max_iter) < 0:
            raise ConfigError("micro.max_iter and solver.max_iter must be >= 0")
        if cfg.micro_z_count < 1:
            raise ConfigError(f"micro.z_count must be >= 1, got {cfg.micro_z_count}")
        cfg.calibration = float(m["estimator.calibration"])
        if "estimator.c0_inv" in m:
            cfg.c0_inv = float(m["estimator.c0_inv"])
        if kind == "1d":
            _build_1d(cfg, m)
        else:
            _build_2d(cfg, m)
        return cfg
    except ConfigError:
        raise
    except (KeyError, ValueError, IndexError) as exc:
        raise ConfigError(f"invalid configuration: {exc}") from exc


def _build_1d(cfg: ExperimentConfig, m: dict) -> None:
    cfg.N = int(m["grid.N"])
    cfg.potential_kind = m.get("potential.kind", "lj")
    cfg.R = int(m.get("potential.R", "1"))
    if cfg.R < 1:
        raise ConfigError(f"potential.R must be >= 1, got {cfg.R}")
    if cfg.potential_kind == "lj":
        cfg.l = _floats(m["potential.l"])
        if any(v <= 0 for v in cfg.l):
            raise ConfigError("potential.l entries must be positive")
    elif cfg.potential_kind == "quadratic":
        cfg.k = _floats(m["potential.k"])
        cfg.a = _floats(m.get("potential.a", ",".join("0" for _ in cfg.k)))
        if len(cfg.a) != len(cfg.k):
            raise ConfigError("potential.k and potential.a lengths differ")
        if any(v <= 0 for v in cfg.k):
            raise ConfigError("potential.k entries must be positive")
    else:
        raise ConfigError(f"unknown potential.kind {cfg.potential_kind!r}")
    preset = m.get("force.preset", "sin_1d")
    if preset != "sin_1d":
        raise ConfigError(f"unknown 1d force preset {preset!r}")
    cfg.force_amplitude = float(m.get("force.amplitude", "50"))
    cfg.force_phase = float(m.get("force.phase", "1"))
    cfg.functional_kind = m["force.functional"]
    if cfg.functional_kind not in ("exact_summation", "node_lumped"):
        raise ConfigError(f"unknown force.functional {cfg.functional_kind!r}")
    if cfg.p < 1 or cfg.N < 2 or cfg.N % cfg.p != 0:
        raise ConfigError(f"grid.N={cfg.N} must be a multiple >= 2 of the period p={cfg.p}")
    cfg.adapt_initial = int(m["mesh.initial"])
    sched = m.get("mesh.schedule", "")
    if sched == "adaptive":
        cfg.adaptive = True
        cfg.theta = float(m["mesh.theta"])
        cfg.adapt_steps = int(m["mesh.steps"])
        if not 0.0 < cfg.theta <= 1.0:
            raise ConfigError("mesh.theta must be in (0, 1]")
        if cfg.adapt_steps < 1:
            raise ConfigError(f"mesh.steps must be >= 1, got {cfg.adapt_steps}")
        if cfg.adapt_initial < 2 or cfg.N % cfg.adapt_initial != 0:
            raise ConfigError("mesh.initial must be >= 2 and divide grid.N")
    else:
        cfg.mesh_schedule = _ints(sched) if sched else []
        for nodes in cfg.mesh_schedule:
            if nodes < 2 or cfg.N % nodes != 0:
                raise ConfigError(f"mesh node count {nodes} must be >= 2 and divide grid.N")


def _build_2d(cfg: ExperimentConfig, m: dict) -> None:
    cfg.N1 = int(m["grid.N1"])
    cfg.N2 = int(m.get("grid.N2", m["grid.N1"]))
    if cfg.N1 != cfg.N2:
        raise ConfigError("the 2d study expects a square grid (grid.N1 == grid.N2)")
    if cfg.N1 % 2:
        raise ConfigError("grid sizes must be even (microstructure period (2,2))")
    cfg.k1 = float(m.get("potential.k1", "1"))
    cfg.k2 = float(m.get("potential.k2", "2"))
    cfg.k3 = float(m.get("potential.k3", "0.25"))
    if min(cfg.k1, cfg.k2, cfg.k3) <= 0:
        raise ConfigError("spring stiffnesses must be positive")
    preset = m.get("force.preset", "exp_sin_2d")
    if preset not in ("exp_sin_2d",):
        raise ConfigError(f"unknown 2d force preset {preset!r}")
    cfg.force_amplitude = float(m.get("force.amplitude", "10"))
    cfg.t_schedule = _ints(m["mesh.t"])
    for t in cfg.t_schedule:
        if t < 2 or cfg.N1 % t != 0:
            raise ConfigError(f"mesh.t entry {t} must be >= 2 and divide grid.N1")


def load_experiment_config(path) -> ExperimentConfig:
    return build_config(parse_config(path))
