"""Experiment configuration: YAML schema, validation, model construction.

One structured config file drives every subcommand; scalar values can be
overridden from the command line.  Unknown keys are rejected with a
suggestion, range errors name the offending key.
"""

from __future__ import annotations

import difflib
from dataclasses import dataclass, field
from pathlib import Path

import yaml

from .cmc import SolverConfig
from .errors import ConfigurationError
from .models import (
    InitialDataModel,
    MetricModel,
    euclidean,
    perturbed_schwarzschild,
    schwarzschild,
    synthetic_data,
    time_symmetric_data,
    translated,
    interpolated,
)

__all__ = ["ExperimentConfig", "parse_config", "config_from_dict"]

_MODEL_KEYS = {
    "kind": "model family: schwarzschild | euclidean | perturbed",
    "m": "mass (> 0 except euclidean)",
    "a": "translation 3-vector, applied last",
    "tau": "interpolation parameter toward the Schwarzschild reference",
    "epsilon": "perturbation decay rate (> 0)",
    "delta": "extrinsic-curvature decay exponent in (0, 1]",
    "A": "perturbation amplitude",
    "B": "extrinsic-curvature amplitude (0 = time-symmetric)",
    "b": "extrinsic-curvature direction 3-vector",
    "shape": "perturbation shape: even | odd",
}
_RUN_KEYS = {"sigmas", "band_limit", "out"}
_SOLVER_KEYS = {
    "newton_tol",
    "max_newton",
    "compute_eigenvalues",
}
_ADM_KEYS = {"radii"}
_ARTIFICIAL_KEYS = {"tau_steps"}
_TOP_KEYS = {"model", "run", "solver", "adm", "artificial"}

_KINDS = ("schwarzschild", "euclidean", "perturbed")


_ALIASES = {
    "mass": "m",
    "amplitude": "A",
    "direction": "b",
    "translation": "a",
    "eps": "epsilon",
    "bandlimit": "band_limit",
    "sigma": "sigmas",
}


def _reject_unknown(section: str, given: dict, allowed) -> None:
    if not isinstance(given, dict):
        raise ConfigurationError(f"{section} section must be a mapping")
    for key in given:
        if key not in allowed:
            candidates = list(allowed) + [a for a in _ALIASES if _ALIASES[a] in allowed]
            hint = difflib.get_close_matches(key, candidates, n=1, cutoff=0.5)
            suggestion = _ALIASES.get(hint[0], hint[0]) if hint else None
            suffix = f"; did you mean {suggestion!r}?" if suggestion else ""
            raise ConfigurationError(f"unknown key {section}.{key!r}{suffix}")


def _require_range(section, key, value, check, description):
    if not check(value):
        raise ConfigurationError(f"{section}.{key} = {value!r} out of range ({description})")


def _typed(section, key, value, kind, many=False):
    """``value`` as ``kind``, or as a list of ``kind`` if ``many``; a failed or lossy conversion names the key."""
    items = list(value) if many and isinstance(value, (list, tuple)) else [value]
    try:
        converted = [kind(v) for v in items]
    except (TypeError, ValueError):
        converted = None
    shaped = not many or isinstance(value, (list, tuple))
    if converted is None or not shaped or (kind in (int, bool) and converted != items):
        what = f"list of {kind.__name__}" if many else kind.__name__
        raise ConfigurationError(f"{section}.{key} = {value!r} is not a valid {what}")
    return converted if many else converted[0]


@dataclass
class ExperimentConfig:
    """Validated experiment parameters."""

    model_spec: dict
    sigmas: list = field(default_factory=lambda: [8.0, 16.0, 32.0])
    band_limit: int = 32
    out: str = "cmclab-run"
    solver_overrides: dict = field(default_factory=dict)
    adm_radii: list = field(default_factory=lambda: [32.0, 64.0, 128.0, 256.0])
    tau_steps: int = 20

    def solver_config(self) -> SolverConfig:
        return SolverConfig(band_limit=self.band_limit, **self.solver_overrides)

    def build_model(self) -> MetricModel:
        spec = self.model_spec
        kind = spec.get("kind", "schwarzschild")
        if kind == "schwarzschild":
            model = schwarzschild(float(spec.get("m", 1.0)))
        elif kind == "euclidean":
            model = euclidean()
        elif kind == "perturbed":
            model = perturbed_schwarzschild(
                float(spec.get("m", 1.0)),
                float(spec.get("epsilon", 1.0)),
                float(spec.get("A", 0.0)),
                spec.get("shape", "even"),
            )
        else:  # pragma: no cover - guarded in validation
            raise ConfigurationError(f"unknown model.kind {kind!r}")
        if "tau" in spec:
            model = interpolated(model, float(spec["tau"]))
        if "a" in spec:
            model = translated(model, [float(v) for v in spec["a"]])
        return model

    def build_data(self, model: MetricModel | None = None) -> InitialDataModel:
        model = model if model is not None else self.build_model()
        spec = self.model_spec
        B = float(spec.get("B", 0.0))
        if B == 0.0:
            return time_symmetric_data(model)
        return synthetic_data(
            model,
            delta=float(spec.get("delta", 1.0)),
            amplitude=B,
            direction=[float(v) for v in spec.get("b", (1.0, 0.0, 0.0))],
        )

    def to_record(self) -> dict:
        return {
            "model": dict(self.model_spec),
            "run": {"sigmas": list(self.sigmas), "band_limit": self.band_limit, "out": self.out},
            "solver": dict(self.solver_overrides),
            "adm": {"radii": list(self.adm_radii)},
            "artificial": {"tau_steps": self.tau_steps},
        }


def _validate_model_spec(spec: dict) -> dict:
    _reject_unknown("model", spec, _MODEL_KEYS)
    kind = spec.get("kind", "schwarzschild")
    if kind not in _KINDS:
        hint = difflib.get_close_matches(str(kind), _KINDS, n=1)
        suffix = f"; did you mean {hint[0]!r}?" if hint else ""
        raise ConfigurationError(f"model.kind = {kind!r} not recognized{suffix}")
    number = {k: _typed("model", k, spec[k], float) for k in ("m", "tau", "epsilon", "delta", "A", "B") if k in spec}
    if "m" in spec and kind != "euclidean":
        _require_range("model", "m", number["m"], lambda v: v > 0, "mass must be positive")
    if "epsilon" in spec:
        _require_range("model", "epsilon", number["epsilon"], lambda v: v > 0, "decay rate must be positive")
    if "delta" in spec:
        _require_range("model", "delta", number["delta"], lambda v: 0 < v <= 1, "must lie in (0, 1]")
    if "tau" in spec:
        _require_range("model", "tau", number["tau"], lambda v: 0 <= v <= 1, "must lie in [0, 1]")
    if "shape" in spec and spec["shape"] not in ("even", "odd"):
        raise ConfigurationError(f"model.shape = {spec['shape']!r}; choose 'even' or 'odd'")
    for key in ("a", "b"):
        if key in spec and len(_typed("model", key, spec[key], float, many=True)) != 3:
            raise ConfigurationError(f"model.{key} must be a 3-vector")
    return dict(spec)


def config_from_dict(raw: dict) -> ExperimentConfig:
    """Validate a parsed mapping into an :class:`ExperimentConfig`."""
    if not isinstance(raw, dict):
        raise ConfigurationError("top level of the config must be a mapping")
    _reject_unknown("top level", raw, _TOP_KEYS)
    model_spec = _validate_model_spec(raw.get("model", {"kind": "schwarzschild", "m": 1.0}))

    cfg = ExperimentConfig(model_spec=model_spec)

    run = raw.get("run", {})
    _reject_unknown("run", run, _RUN_KEYS)
    if "sigmas" in run:
        sigmas = _typed("run", "sigmas", run["sigmas"], float, many=True)
        _require_range("run", "sigmas", sigmas, lambda v: all(x > 0 for x in v), "positive radii")
        cfg.sigmas = sigmas
    if "band_limit" in run:
        cfg.band_limit = _typed("run", "band_limit", run["band_limit"], int)
        _require_range("run", "band_limit", cfg.band_limit, lambda v: v >= 4, "band limit >= 4")
    if "out" in run:
        cfg.out = str(run["out"])

    solver = raw.get("solver", {})
    _reject_unknown("solver", solver, _SOLVER_KEYS)
    cfg.solver_overrides = {k: _typed("solver", k, v, type(getattr(SolverConfig(), k))) for k, v in solver.items()}
    cfg.solver_config()  # range checks name the offending solver field

    adm = raw.get("adm", {})
    _reject_unknown("adm", adm, _ADM_KEYS)
    if "radii" in adm:
        radii = _typed("adm", "radii", adm["radii"], float, many=True)
        _require_range("adm", "radii", radii, lambda v: all(x > 0 for x in v), "positive radii")
        cfg.adm_radii = radii

    art = raw.get("artificial", {})
    _reject_unknown("artificial", art, _ARTIFICIAL_KEYS)
    if "tau_steps" in art:
        cfg.tau_steps = _typed("artificial", "tau_steps", art["tau_steps"], int)
        _require_range("artificial", "tau_steps", cfg.tau_steps, lambda v: v >= 1, ">= 1")

    return cfg


def parse_config(path) -> ExperimentConfig:
    """Load and validate a YAML config file."""
    p = Path(path)
    if not p.exists():
        raise ConfigurationError(f"config file {p} does not exist")
    try:
        raw = yaml.safe_load(p.read_text())
    except yaml.YAMLError as exc:
        raise ConfigurationError(f"malformed YAML in {p}: {exc}") from exc
    if raw is None:
        raw = {}
    return config_from_dict(raw)
