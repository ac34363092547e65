"""Public names: every ``__all__`` entry resolves and takes no optional geometry,
and the benchmark's hooks still attach."""

import importlib
import importlib.util
import inspect
import pkgutil
import sys
from pathlib import Path

import pytest

import cmclab

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
MODULES = sorted(info.name for info in pkgutil.iter_modules(cmclab.__path__))


@pytest.mark.parametrize("name", ["cmclab"] + [f"cmclab.{m}" for m in MODULES])
def test_all_entries_resolve(name):
    module = importlib.import_module(name)
    for entry in getattr(module, "__all__", ()):
        getattr(module, entry)


@pytest.mark.parametrize("name", ["cmclab"] + [f"cmclab.{m}" for m in MODULES])
def test_no_public_callable_takes_an_optional_geometry(name):
    """On-surface functions take the geometry they evaluate on; none rebuilds a missing one."""
    module = importlib.import_module(name)
    for entry in getattr(module, "__all__", ()):
        obj = getattr(module, entry)
        if callable(obj):
            geometry = inspect.signature(obj).parameters.get("geometry")
            assert geometry is None or geometry.default is not None, f"{name}.{entry}"


def test_benchmark_tracer_installs_and_uninstalls(monkeypatch):
    """The benchmark wraps cmclab names by lookup; a renamed hook target raises here."""
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, spans)  # dataclasses resolve it by name
    spec.loader.exec_module(spans)
    from cmclab import cmc, surfaces

    geometry_init = surfaces.SurfaceGeometry.__dict__["__init__"]
    eigensystem = surfaces.SurfaceGeometry.__dict__["operator_eigensystem"]
    solve_cmc = cmc.solve_cmc
    ricci = surfaces.ricci  # the name SurfaceGeometry calls; the models.ricci span hooks it
    tracer = spans.Tracer()
    uninstall = spans.install(tracer)
    try:
        assert surfaces.SurfaceGeometry.__dict__["__init__"] is not geometry_init
        assert surfaces.SurfaceGeometry.__dict__["operator_eigensystem"] is not eigensystem
        assert cmc.solve_cmc is not solve_cmc
        assert surfaces.ricci is not ricci

        # Ricci is built on the first read of the potential, still under its span
        def ricci_spans():
            return sum(span.name == "models.ricci" for span in tracer.spans)

        tracer.run_id = 0
        model = cmclab.perturbed_schwarzschild(1.0, 0.5, 0.1, "odd")
        sphere = cmclab.SurfaceEmbedding.round_sphere(cmclab.build_grid(8), 16.0)
        geometry = surfaces.compute_geometry(sphere, model)
        assert ricci_spans() == 0
        geometry.potential
        assert ricci_spans() == 1
        geometry.potential
        assert ricci_spans() == 1
    finally:
        uninstall()
    assert surfaces.SurfaceGeometry.__dict__["__init__"] is geometry_init
    assert surfaces.SurfaceGeometry.__dict__["operator_eigensystem"] is eigensystem
    assert cmc.solve_cmc is solve_cmc
    assert surfaces.ricci is ricci
