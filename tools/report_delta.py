#!/usr/bin/env python3
"""Compare the cli reports of two cmclab source trees, stage by stage.

Usage, from anywhere::

    python3 tools/report_delta.py OLD NEW [--stages foliate,momentum] [--band-limit 24]
        [--newton-tol 1e-10] [--exempt residual,newton_residuals] [--keep DIR] [--json FILE]

``OLD`` and ``NEW`` are source trees (directories holding ``src/cmclab``)
or directories of manifests written earlier with ``--keep``.  For a source
tree, every requested stage runs in a fresh interpreter that imports that
tree's ``src`` at one BLAS thread.  The stages share one config: the
odd-perturbed, translated model with extrinsic curvature of the report
gate, at sigma = 16, 32, 64 and the given band limit and ``newton_tol``.  The
``acceptance`` stage runs with the cli defaults, because its criteria fix
their own models.

For each stage the tool prints:

* the worst field-scaled delta ``|new - old| / max|field|`` over every
  float, where a field is a manifest path with its list indices dropped
  and ``max|field|`` runs over the old values of that field.  Floats of a
  field that has a key named in ``--exempt`` (say ``residual``, which
  exempts ``/reports/foliate/leaves/*/residual``) are left out of it;
* every integer, string, boolean, null or list length that differs, and
  every field present on one side only, with its number of values.

``timings`` and the echo of the config are left out.  The exit status is 0
when the two sides agree exactly, exempt floats aside, else 1.
``--keep DIR`` stores the manifests of both sides under ``DIR/old`` and
``DIR/new``; ``--json FILE`` writes the summary as JSON, with the worst
delta of every float field, exempt or not, under ``fields``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path

STAGES = ("foliate", "centers", "adm-center", "momentum", "eigen", "evolve", "artificial", "study", "acceptance")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
IGNORED = ("/timings", "/config")
SIGMAS = [16.0, 32.0, 64.0]
MODEL = {
    "kind": "perturbed",
    "m": 1.0,
    "epsilon": 0.5,
    "A": 0.1,
    "shape": "odd",
    "a": [0.21, -0.13, 0.37],
    "B": 1.0,
    "b": [0.6, 0.0, 0.8],
}
RUNNER = """
import sys
sys.path.insert(0, sys.argv[1])
from cmclab.cli import main
sys.exit(main(sys.argv[2:]))
"""


def config_text(band_limit: int, newton_tol: float) -> str:
    config = {
        "model": MODEL,
        "run": {"sigmas": SIGMAS, "band_limit": band_limit},
        "solver": {"newton_tol": newton_tol},
    }
    return json.dumps(config)  # JSON is YAML


def run_stages(tree: Path, stages, config_path: Path, out: Path) -> None:
    """Run each stage of ``tree`` in its own interpreter; manifests go to ``out/<stage>.json``."""
    env = dict(os.environ, **{var: "1" for var in THREAD_VARS})
    env.pop("PYTHONPATH", None)
    out.mkdir(parents=True, exist_ok=True)
    for stage in stages:
        args = [stage, "--log", "quiet", "--out", str(out / stage)]
        if stage != "acceptance":
            args += ["--config", str(config_path)]
        done = subprocess.run(
            [sys.executable, "-c", RUNNER, str(tree / "src"), *args], env=env, capture_output=True, text=True
        )
        if not (out / f"{stage}.json").is_file():
            raise SystemExit(f"{tree}: stage {stage} wrote no manifest (exit {done.returncode}):\n{done.stderr}")


def flatten(value, path="", out=None):
    """``{path: leaf}`` over nested dicts and lists; list lengths are leaves too."""
    out = {} if out is None else out
    if path in IGNORED:
        return out
    if isinstance(value, dict):
        for key, item in value.items():
            flatten(item, f"{path}/{key}", out)
    elif isinstance(value, list):
        out[path + "/{len}"] = len(value)
        for i, item in enumerate(value):
            flatten(item, f"{path}/{i}", out)
    else:
        out[path] = value
    return out


def field_of(path: str) -> str:
    return re.sub(r"/\d+(?=/|$)", "/*", path)


def compare(old: dict, new: dict, exempt=()) -> dict:
    """Worst field-scaled float delta and every other mismatch between two manifests.

    Fields with a key in ``exempt`` are left out of ``worst_delta``; ``fields``
    maps every float field of ``old`` to its worst delta.
    """
    a, b = flatten(old), flatten(new)
    scale: dict = {}
    for path, value in a.items():
        if isinstance(value, float):
            key = field_of(path)
            scale[key] = max(scale.get(key, 0.0), abs(value))
    fields = dict.fromkeys(scale, 0.0)
    worst, worst_path, mismatches, one_sided = 0.0, None, [], Counter()
    for path in sorted(set(a) | set(b)):
        if path not in a or path not in b:
            one_sided[field_of(path), "old" if path in a else "new"] += 1
            continue
        x, y = a[path], b[path]
        if isinstance(x, float) and isinstance(y, float):
            if x == y or (math.isnan(x) and math.isnan(y)):
                continue
            key = field_of(path)
            delta = abs(y - x) / scale[key] if scale[key] > 0 else abs(y - x)
            if not delta <= fields[key]:  # NaN or inf on one side counts as worst
                fields[key] = delta
            if not delta <= worst and set(exempt).isdisjoint(key.split("/")):
                worst, worst_path = delta, path
        elif type(x) is not type(y) or x != y:
            mismatches.append(f"{path}: {x!r} -> {y!r}")
    mismatches += [f"{field}: only in {side} ({n} values)" for (field, side), n in one_sided.items()]
    return {"worst_delta": worst, "worst_path": worst_path, "mismatches": mismatches, "fields": fields}


def manifests(source: Path, stages, config_path: Path, scratch: Path) -> Path:
    """The directory holding ``<stage>.json`` for ``source``, running the stages if it is a tree."""
    if (source / "src" / "cmclab" / "__init__.py").is_file():
        run_stages(source, stages, config_path, scratch)
        return scratch
    return source


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old", type=Path)
    parser.add_argument("new", type=Path)
    parser.add_argument("--stages", default=",".join(STAGES))
    parser.add_argument("--band-limit", type=int, default=24)
    parser.add_argument("--newton-tol", type=float, default=1e-10)
    parser.add_argument("--exempt", default="", help="comma-separated field keys left out of the worst delta")
    parser.add_argument("--keep", type=Path, default=None)
    parser.add_argument("--json", type=Path, default=None)
    args = parser.parse_args(argv)
    stages = [s for s in args.stages.split(",") if s]
    exempt = [key for key in args.exempt.split(",") if key]
    unknown = sorted(set(stages) - set(STAGES))
    if unknown:
        parser.error(f"unknown stages {unknown}; choose from {list(STAGES)}")

    with tempfile.TemporaryDirectory(prefix="report-delta-") as tmp:
        root = args.keep if args.keep is not None else Path(tmp)
        config_path = root / "config.yaml"
        root.mkdir(parents=True, exist_ok=True)
        config_path.write_text(config_text(args.band_limit, args.newton_tol))
        old_dir = manifests(args.old.resolve(), stages, config_path, root / "old")
        new_dir = manifests(args.new.resolve(), stages, config_path, root / "new")
        summary = {}
        for stage in stages:
            old, new = (json.loads((d / f"{stage}.json").read_text()) for d in (old_dir, new_dir))
            row = compare(old, new, exempt)
            row["status"] = [old["status"].get(stage), new["status"].get(stage)]
            row["csv_identical"] = (old_dir / f"{stage}.csv").read_bytes() == (new_dir / f"{stage}.csv").read_bytes()
            summary[stage] = row

    failed = False
    for stage, row in summary.items():
        print(
            f"{stage:<11} worst {row['worst_delta']:.3e} at {row['worst_path']}  "
            f"status {row['status'][0]} / {row['status'][1]}  csv {'identical' if row['csv_identical'] else 'differs'}"
        )
        for line in row["mismatches"]:
            print(f"    mismatch {line}")
        failed |= bool(row["mismatches"]) or row["worst_delta"] != 0.0
    if args.json is not None:
        args.json.write_text(json.dumps(summary, indent=1) + "\n")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
