"""Smoke test of the benchmark harness at reduced band limits.

Run from the root of the checkout::

    python3 -m pytest -q perfbench
"""

import dataclasses
import json
import sys
from pathlib import Path

import pytest

import run

sys.path.insert(0, str(run.SRC))

import spans  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())

SMALL = {
    "newton-L34": dict(band_limit=12),
    "study-L24": dict(band_limit=10),
    "flow-L16": dict(band_limit=8, tau_steps=2),
}


def small(name):
    return dataclasses.replace(workloads.WORKLOADS[name], **SMALL[name])


def test_benchmark_workloads_exist():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("name", list(SMALL))
@pytest.mark.parametrize("trace", [False, True])
def test_every_metric_emitted_with_its_unit(name, trace):
    result = run.measure(small(name), seed=3, seconds=0.0, trace=trace)
    expected = BENCHMARK["per_layer"] if trace else BENCHMARK["end_to_end"]
    assert result["correct"], result["details"]["failures"]
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert {m["name"]: m["unit"] for m in expected} == {
        name: metric["unit"] for name, metric in result["metrics"].items()
    }
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], int if metric["unit"] in ("count", "flop", "bytes") else float)


@pytest.mark.parametrize("name", list(SMALL))
def test_child_spans_lie_inside_parents(name):
    from cmclab.surfaces import SurfaceGeometry

    workload = small(name)
    config = workloads.setup(workload, workloads.raw_config(workload, 5, str(run.OUT / "smoke")))
    original_init = SurfaceGeometry.__init__
    tracer = spans.Tracer()
    uninstall = spans.install(tracer)
    try:
        tracer.run_id = 0
        workloads.run_pass(workload, config)
    finally:
        tracer.run_id = None
        uninstall()
    assert SurfaceGeometry.__init__ is original_init
    by_id = {s.id: s for s in tracer.spans}
    assert {"cmc.solve", "surfaces.geometry", "surfaces.assemble", "sphere.synth"} <= {
        s.name for s in tracer.spans
    }
    for s in tracer.spans:
        assert s.start <= s.end
        if s.parent is not None:
            parent = by_id[s.parent]
            assert parent.start <= s.start and s.end <= parent.end, (s, parent)
    self_s, inclusive_s, _ = spans.span_totals(tracer.spans, 0)
    assert all(v >= -1e-9 for v in self_s.values())
    assert inclusive_s["cmc.solve"] >= self_s["cmc.solve"]
