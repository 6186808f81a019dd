"""In-memory spans around the hqc entry points that a study calls.

The study and solver modules bind their callees by name (``from .coarse
import solve_coarse``), so a wrapper has to replace the name where it is
looked up, not where it is defined: ``PATCHES`` lists those lookup sites.
Each span records its name, start, end and parent; self time is the span's
duration minus the durations of its children.  Counts come from the values
the calls return; written bytes from the size of the file written.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np


def _damped(trace) -> int:
    """Newton steps whose accepted damping factor was below one."""
    return sum(1 for it, _res, t in trace if it > 0 and t < 1.0)


def _count_eval_strains(out, args):
    return {"strains": int(np.size(args[1]))}


def _count_newton_cells(out, args):
    iters = out[2]
    return {"micro_iters": int(iters.sum()), "max_iters": int(iters.max(initial=0))}


def _count_solve_coarse(out, args):
    return {
        "newton_iters": out.iterations,
        "damped_steps": _damped(out.trace),
        "M": int(args[1].n_elements),
    }


def _count_solve_atomistic(out, args):
    return {
        "newton_iters": out.iterations,
        "damped_steps": _damped(out.trace),
        "final_residual": out.residual_dual,
    }


def _count_save_lattice_fn(out, args):
    return {"bytes": Path(args[0]).stat().st_size}


def _count_solve_atomistic_2d(out, args):
    return {"cg_iters": int(out[1])}


#: (lookup module, class or None, attribute, counter); the span is named
#: "<defining module>.<attribute>", so its prefix is the layer.
PATCHES = (
    ("hqc.study", None, "solve_coarse", _count_solve_coarse),
    ("hqc.study", None, "corrector", None),
    ("hqc.study", None, "solve_atomistic", _count_solve_atomistic),
    ("hqc.study", None, "indicator_terms", None),
    ("hqc.study", None, "adapt_mesh", None),
    ("hqc.study", None, "save_lattice_fn", _count_save_lattice_fn),
    ("hqc.study", None, "ground_microstructure", None),
    ("hqc.study", None, "solve2d", None),
    ("hqc.atomistic", None, "solve_cyclic_banded", None),
    ("hqc.linsolve", None, "_solve_kkt_sparse", None),
    ("hqc.microhom", "HomogenizedLaw", "eval_strains", _count_eval_strains),
    ("hqc.microhom", None, "newton_cells", _count_newton_cells),
    ("hqc.lattice2d", None, "solve_atomistic_2d", _count_solve_atomistic_2d),
    ("hqc.lattice2d", None, "solve_coarse_2d", None),
    ("hqc.lattice2d", None, "homogenize2d", None),
)


@dataclass
class Span:
    name: str
    start: float
    parent: int
    end: float = 0.0
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans in memory; ``install`` wraps every entry of PATCHES."""

    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[int] = []

    def wrap(self, name, fn, counter=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, time.perf_counter(), self._open[-1] if self._open else -1)
            self._open.append(len(self.spans))
            self.spans.append(span)
            try:
                out = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._open.pop()
            if counter is not None:
                span.counts = counter(out, args)
            return out

        return traced

    def install(self):
        for module_name, cls_name, attr, counter in PATCHES:
            module = importlib.import_module(module_name)
            owner = getattr(module, cls_name) if cls_name else module
            fn = getattr(owner, attr)
            layer = fn.__module__.rsplit(".", 1)[-1]
            setattr(owner, attr, self.wrap(f"{layer}.{attr}", fn, counter))

    def metrics(self) -> dict:
        """Per-span-name and per-layer totals of one traced study.

        ``<name>.s`` is total time, ``<name>.self_s`` time not covered by
        child spans, ``<layer>.self_s`` the sum over the layer's spans, and
        each counter is summed (``max_iters`` and ``final_residual`` take
        the maximum).  ``trace.self_sum_s`` adds every self time, so it
        equals the root span's duration when the spans nest properly.
        """
        child_time = defaultdict(float)
        for span in self.spans:
            if span.parent >= 0:
                child_time[span.parent] += span.duration
        out = defaultdict(float)
        for i, span in enumerate(self.spans):
            self_s = span.duration - child_time[i]
            layer = span.name.split(".", 1)[0]
            out[f"{span.name}.s"] += span.duration
            out[f"{span.name}.calls"] += 1
            out[f"{span.name}.self_s"] += self_s
            out[f"{layer}.self_s"] += self_s
            out["trace.self_sum_s"] += self_s
            for key, value in span.counts.items():
                if key == "M":
                    out[f"{span.name}.s.M{value}"] += span.duration
                    out[f"{span.name}.self_s.M{value}"] += self_s
                elif key in ("max_iters", "final_residual"):
                    out[f"{span.name}.{key}"] = max(out[f"{span.name}.{key}"], value)
                else:
                    out[f"{span.name}.{key}"] += value
        out["trace.spans"] = len(self.spans)
        return dict(out)
