"""In-memory span recorder and the hooks that feed it from cmclab.

A span records a name, start and end (``time.perf_counter`` seconds), the
id of the span that was open when it started, and a run id (the index of
the timed pass, or ``"setup"``).  Spans stay in memory until the run ends;
:func:`layer_metrics` then folds one run id into per-layer numbers.

Hooks go where a name is looked up at call time, so that no caller is
missed:

* methods and cached properties are replaced on their class
  (``SurfaceGeometry.__init__``, the function under ``operator_matrices``,
  ``SphericalGrid.synthesize_values``, ...), which covers every module that
  imported ``compute_geometry`` and friends by name;
* a module-level function (``solve_cmc``, ``resample``, ...) is rebound in
  the module that defines it and in every ``cmclab`` module that imported
  it by name, found by object identity.

:func:`install` returns a function that puts every original back.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from functools import cached_property, wraps

import numpy as np


@dataclass(frozen=True)
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    run_id: object


class Tracer:
    """Collects spans and counts while ``run_id`` is set; passes through otherwise."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict = defaultdict(int)  # (run_id, name) -> amount
        self.run_id = None
        self._stack: list[tuple[int, str]] = []  # open spans, innermost last
        self._next_id = 0

    def current(self) -> str | None:
        """Name of the innermost open span."""
        return self._stack[-1][1] if self._stack else None

    def call(self, name: str, fn, *args, **kwargs):
        if self.run_id is None:
            return fn(*args, **kwargs)
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1][0] if self._stack else None
        self._stack.append((sid, name))
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append(Span(sid, name, start, end, parent, self.run_id))

    def count(self, name: str, amount=1):
        if self.run_id is not None:
            self.counts[(self.run_id, name)] += amount


def install(tracer: Tracer):
    """Wrap the cmclab layer boundaries; returns the function that undoes it."""
    from cmclab import cli, cmc, models, physics, sphere, surfaces

    undo = []

    def wrap(func, name, before, after):
        @wraps(func)
        def wrapper(*args, **kwargs):
            if before is not None and tracer.run_id is not None:
                before(*args, **kwargs)
            result = tracer.call(name, func, *args, **kwargs) if name else func(*args, **kwargs)
            if after is not None and tracer.run_id is not None:
                after(result)
            return result

        return wrapper

    def on_class(cls, attr, name, before=None, after=None):
        original = cls.__dict__[attr]
        if isinstance(original, cached_property):
            replacement = cached_property(wrap(original.func, name, before, after))
            replacement.__set_name__(cls, attr)
        else:
            replacement = wrap(original, name, before, after)
        setattr(cls, attr, replacement)
        undo.append(lambda: setattr(cls, attr, original))

    def on_function(module, attr, name, before=None, after=None):
        original = getattr(module, attr)
        wrapper = wrap(original, name, before, after)
        for mod in [m for key, m in sys.modules.items() if key == "cmclab" or key.startswith("cmclab.")]:
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)
                    undo.append(lambda mod=mod, key=key: setattr(mod, key, original))

    def count_points(model, x, *args, **kwargs):
        tracer.count("models.points", np.size(x) // 3)

    def count_assembly(geometry):
        n, N = geometry.grid.n_nodes, geometry.grid.n_coeffs
        # four dense products of (n x N) blocks: R1'R1, R2'R2, (B wV)'B, F'F
        tracer.count("surfaces.assemble_flops", 8 * n * N * N)

    def count_solve_operator(*args, **kwargs):
        tracer.count("surfaces.solve_operator_calls")
        if tracer.current() == "cmc.solve":
            tracer.count("cmc.fallback_steps")

    def count_recenter(*args, **kwargs):
        if tracer.current() == "cmc.solve":
            tracer.count("cmc.recenters")

    def count_velocity(*args, **kwargs):
        if tracer.current() == "physics.flow":
            tracer.count("physics.velocity_evals")

    def count_newton(leaf):
        tracer.count("cmc.newton_iters", leaf.iterations)

    on_class(sphere.SphericalGrid, "synthesize_values", "sphere.synth")
    on_class(sphere.SphericalGrid, "analyze_values", "sphere.analyze")
    on_class(sphere.SphericalGrid, "basis_matrices", "sphere.basis")
    for attr in ("metric", "metric_deriv", "metric_deriv2"):
        on_class(models.MetricModel, attr, "models.metric", before=count_points)
    on_class(surfaces.SurfaceGeometry, "__init__", "surfaces.geometry")
    on_class(surfaces.SurfaceGeometry, "operator_matrices", "surfaces.assemble", before=count_assembly)
    on_class(surfaces.SurfaceGeometry, "operator_eigensystem", "surfaces.eigen")
    on_class(surfaces.SurfaceGeometry, "solve_operator", None, before=count_solve_operator)
    on_function(models, "ricci", "models.ricci")
    on_function(surfaces, "low_eigenpairs", "surfaces.eigen")
    on_function(surfaces, "resample", "surfaces.resample", before=count_recenter)
    on_function(cmc, "solve_cmc", "cmc.solve", after=count_newton)
    on_function(physics, "quasi_local_momentum", "physics.momentum", before=count_velocity)
    on_function(physics, "solve_lapse", "physics.lapse")
    on_function(physics, "artificial_flow_integrate", "physics.flow")
    on_function(cli, "run_experiment", "cli.run")

    def uninstall():
        while undo:
            undo.pop()()

    return uninstall


def span_totals(spans, run_id):
    """Per-name self time, inclusive time and call count for one run id.

    Self time is a span's duration minus the time its direct children
    cover.  Inclusive time and calls count only the outermost span of a
    name, so a name nested in itself is not counted twice.
    """
    own = [s for s in spans if s.run_id == run_id]
    by_id = {s.id: s for s in own}
    child_time = defaultdict(float)
    for s in own:
        if s.parent is not None:
            child_time[s.parent] += s.end - s.start
    self_s = defaultdict(float)
    inclusive_s = defaultdict(float)
    calls = defaultdict(int)
    for s in own:
        duration = s.end - s.start
        self_s[s.name] += duration - child_time[s.id]
        parent = by_id.get(s.parent)
        while parent is not None and parent.name != s.name:
            parent = by_id.get(parent.parent)
        if parent is None:
            inclusive_s[s.name] += duration
            calls[s.name] += 1
    return self_s, inclusive_s, calls


def layer_metrics(tracer: Tracer, run_id) -> dict:
    """The per-layer metrics of one traced pass (names as in BENCHMARK.json).

    Every ``_s`` metric is self time except ``cmc.solve_s`` and
    ``physics.flow_s``, which are inclusive.
    """
    self_s, inclusive_s, calls = span_totals(tracer.spans, run_id)

    def count(name):
        return tracer.counts.get((run_id, name), 0)

    return {
        "sphere.synth_calls": calls["sphere.synth"],
        "sphere.synth_s": self_s["sphere.synth"],
        "sphere.analyze_calls": calls["sphere.analyze"],
        "sphere.analyze_s": self_s["sphere.analyze"],
        "models.metric_s": self_s["models.metric"],
        "models.ricci_s": self_s["models.ricci"],
        "models.ricci_calls": calls["models.ricci"],
        "models.points": count("models.points"),
        "surfaces.geometry_s": self_s["surfaces.geometry"],
        "surfaces.geometry_calls": calls["surfaces.geometry"],
        "surfaces.assemble_s": self_s["surfaces.assemble"],
        "surfaces.assemble_calls": calls["surfaces.assemble"],
        "surfaces.assemble_flops": count("surfaces.assemble_flops"),
        "surfaces.eigen_s": self_s["surfaces.eigen"],
        "surfaces.eigen_calls": calls["surfaces.eigen"],
        "surfaces.solve_operator_calls": count("surfaces.solve_operator_calls"),
        "surfaces.resample_s": self_s["surfaces.resample"],
        "surfaces.resample_calls": calls["surfaces.resample"],
        "cmc.solve_s": inclusive_s["cmc.solve"],
        "cmc.self_s": self_s["cmc.solve"],
        "cmc.newton_iters": count("cmc.newton_iters"),
        "cmc.recenters": count("cmc.recenters"),
        "cmc.fallback_steps": count("cmc.fallback_steps"),
        "physics.momentum_s": self_s["physics.momentum"],
        "physics.lapse_s": self_s["physics.lapse"],
        "physics.flow_s": inclusive_s["physics.flow"],
        "physics.velocity_evals": count("physics.velocity_evals"),
        "cli.self_s": self_s["cli.run"],
    }
