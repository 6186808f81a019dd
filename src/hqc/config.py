"""Flat key-value experiment configuration.

Config files hold one ``section.key = value`` assignment per line; ``#``
starts a comment.  Lists are comma separated.  The full key schema is
documented in the README; a key that the schema does not read is named in
a warning on standard error.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from pathlib import Path

from .exceptions import ConfigError


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


def _float(s: str) -> float:
    v = float(s)
    if not math.isfinite(v):
        raise ConfigError(f"expected a finite number, got {s!r}")
    return v


def _floats(s: str):
    return [_float(tok) for tok in s.replace(",", " ").split()]


def _ints(s: str):
    vals = _floats(s)
    if any(v != int(v) for v in vals):
        raise ConfigError(f"expected integers, got {s!r}")
    return [int(v) for v in vals]


class _ReadKeys(dict):
    """A raw key-value mapping that records every key looked up in it."""

    def __init__(self, mapping):
        super().__init__(mapping)
        self.read = set()

    def __getitem__(self, key):
        self.read.add(key)
        return super().__getitem__(key)

    def get(self, key, default=None):
        self.read.add(key)
        return super().get(key, default)


def _get(m: dict, key: str, default, read=_float):
    """``read(m[key])``, or ``default`` when the key is absent."""
    return read(m[key]) if key in m else default


@dataclass
class ExperimentConfig:
    """A validated config; every field default is the default of its key."""

    kind: str = "1d"

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
    micro_z_lo: float = -0.05
    micro_z_hi: float = 0.05
    micro_z_count: int = 21
    calibration: float = 1.0
    c0_inv: float | None = None

    @property
    def p(self) -> int:
        if self.potential_kind == "lj":
            return len(self.l)
        return len(self.k)


def build_config(mapping: dict) -> ExperimentConfig:
    """Validate a raw key-value mapping against the schema; each key that
    the schema does not read is named in a warning on standard error."""
    mapping = _ReadKeys(mapping)
    try:
        cfg = ExperimentConfig()
        cfg.kind = mapping.get("problem.kind", cfg.kind)
        if cfg.kind not in ("1d", "2d"):
            raise ConfigError(f"problem.kind must be 1d or 2d, got {cfg.kind!r}")
        cfg.micro_z_lo = _get(mapping, "micro.z_lo", cfg.micro_z_lo)
        cfg.micro_z_hi = _get(mapping, "micro.z_hi", cfg.micro_z_hi)
        cfg.micro_z_count = _get(mapping, "micro.z_count", cfg.micro_z_count, int)
        if cfg.micro_z_count < 1:
            raise ConfigError(f"micro.z_count must be >= 1, got {cfg.micro_z_count}")
        cfg.calibration = _get(mapping, "estimator.calibration", cfg.calibration)
        cfg.c0_inv = _get(mapping, "estimator.c0_inv", cfg.c0_inv)
        if cfg.calibration < 0 or (cfg.c0_inv is not None and cfg.c0_inv < 0):
            raise ConfigError("estimator.calibration and estimator.c0_inv must be >= 0")
        if cfg.kind == "1d":
            _build_1d(cfg, mapping)
        else:
            _build_2d(cfg, mapping)
        for key in sorted(mapping.keys() - mapping.read):
            print(f"config warning: key {key!r} is not read", file=sys.stderr)
        return cfg
    except ConfigError:
        raise
    except (KeyError, ValueError, IndexError) as exc:
        raise ConfigError(f"invalid configuration: {exc}") from exc


def _build_1d(cfg: ExperimentConfig, m: dict) -> None:
    cfg.N = int(m["grid.N"])
    cfg.potential_kind = m.get("potential.kind", cfg.potential_kind)
    cfg.R = _get(m, "potential.R", cfg.R, int)
    if cfg.R < 1:
        raise ConfigError(f"potential.R must be >= 1, got {cfg.R}")
    if cfg.potential_kind == "lj":
        cfg.l = _floats(m["potential.l"])
        if any(v <= 0 for v in cfg.l):
            raise ConfigError("potential.l entries must be positive")
    elif cfg.potential_kind == "quadratic":
        cfg.k = _floats(m["potential.k"])
        cfg.a = _get(m, "potential.a", [0.0] * len(cfg.k), _floats)
        if len(cfg.a) != len(cfg.k):
            raise ConfigError("potential.k and potential.a lengths differ")
        if any(v <= 0 for v in cfg.k):
            raise ConfigError("potential.k entries must be positive")
    else:
        raise ConfigError(f"unknown potential.kind {cfg.potential_kind!r}")
    preset = m.get("force.preset", "sin_1d")
    if preset != "sin_1d":
        raise ConfigError(f"unknown 1d force preset {preset!r}")
    cfg.force_amplitude = _get(m, "force.amplitude", cfg.force_amplitude)
    cfg.force_phase = _get(m, "force.phase", cfg.force_phase)
    cfg.functional_kind = m.get("force.functional", cfg.functional_kind)
    if cfg.functional_kind not in ("exact_summation", "node_lumped"):
        raise ConfigError(f"unknown force.functional {cfg.functional_kind!r}")
    if cfg.p < 1 or cfg.N < 2 or cfg.N % cfg.p != 0:
        raise ConfigError(f"grid.N={cfg.N} must be a multiple >= 2 of the period p={cfg.p}")
    cfg.adapt_initial = _get(m, "mesh.initial", cfg.adapt_initial, int)
    sched = m.get("mesh.schedule", "")
    if sched == "adaptive":
        cfg.adaptive = True
        cfg.theta = _get(m, "mesh.theta", cfg.theta)
        cfg.adapt_steps = _get(m, "mesh.steps", cfg.adapt_steps, int)
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
    cfg.k1 = _get(m, "potential.k1", cfg.k1)
    cfg.k2 = _get(m, "potential.k2", cfg.k2)
    cfg.k3 = _get(m, "potential.k3", cfg.k3)
    if min(cfg.k1, cfg.k2, cfg.k3) <= 0:
        raise ConfigError("spring stiffnesses must be positive")
    preset = m.get("force.preset", "exp_sin_2d")
    if preset not in ("exp_sin_2d",):
        raise ConfigError(f"unknown 2d force preset {preset!r}")
    cfg.force_amplitude = _get(m, "force.amplitude", 10.0)
    cfg.t_schedule = _ints(m["mesh.t"])
    for t in cfg.t_schedule:
        if t < 2 or cfg.N1 % t != 0:
            raise ConfigError(f"mesh.t entry {t} must be >= 2 and divide grid.N1")


def load_experiment_config(path) -> ExperimentConfig:
    return build_config(parse_config(path))
