"""The benchmark's workloads: inputs from a seed, set-up, one pass, oracle checks.

Every workload drives cmclab through its public functions only.  The seed
draws the model translation ``a`` and, where the workload has extrinsic
curvature, its direction ``b``; everything else is fixed, so the same seed
gives the same inputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from cmclab import cli
from cmclab.cmc import solve_foliation, target_mean_curvature
from cmclab.config import config_from_dict
from cmclab.errors import CmcLabError
from cmclab.sphere import build_grid
from cmclab.surfaces import compute_geometry

MASS = 1.0
NEWTON_TOL = 1e-10
#: largest allowed relative distance of a degree-one eigenvalue from 6m/sigma^3
EIGEN_TOLERANCE = 0.1
#: velocity evaluations per classical RK4 step
RK4_STAGES = 4


@dataclass(frozen=True)
class Workload:
    """One set of inputs; ``stage`` names the entry point a pass calls."""

    name: str
    stage: str  # "foliate" (solve_foliation) | "study" | "artificial" (cli stages)
    band_limit: int
    sigmas: tuple
    extrinsic: bool = False
    tau_steps: int = 20

    @property
    def ops_per_pass(self) -> int:
        """Leaves per pass, or RK4 velocity evaluations for the flow."""
        if self.stage == "artificial":
            return len(self.sigmas) * self.tau_steps * RK4_STAGES
        return len(self.sigmas)


WORKLOADS = {
    w.name: w
    for w in (
        # dense assembly, dense Newton solve and the shift-invert eigsh branch
        # (L > 32); L = 34 keeps a pass short enough for several per run
        Workload("newton-L34", "foliate", 34, (32.0, 64.0)),
        # Newton solves plus full eigh (evolution law, radial lapse) and the
        # dense low_eigenpairs branch, through the cli layer
        Workload("study-L24", "study", 24, (16.0, 32.0, 64.0, 128.0), extrinsic=True),
        # SurfaceGeometry builds with Ricci and the momentum density; little assembly
        Workload("flow-L16", "artificial", 16, (16.0, 32.0, 64.0, 128.0)),
    )
}


def raw_config(workload: Workload, seed: int, out: str) -> dict:
    """The experiment config of one run, as the YAML file would hold it."""
    rng = np.random.default_rng(seed)
    model = {
        "kind": "perturbed",
        "m": MASS,
        "epsilon": 0.5,
        "A": 0.1,
        "shape": "odd",
        "a": [float(v) for v in rng.uniform(-0.5, 0.5, size=3)],
    }
    if workload.extrinsic:
        b = rng.normal(size=3)
        model.update(B=1.0, b=[float(v) for v in b / np.linalg.norm(b)])
    return {
        "model": model,
        "run": {"sigmas": list(workload.sigmas), "band_limit": workload.band_limit, "out": out},
        "solver": {"newton_tol": NEWTON_TOL, "compute_eigenvalues": True},
        "artificial": {"tau_steps": workload.tau_steps},
    }


def setup(workload: Workload, raw: dict):
    """Config validation plus a fresh grid and ``basis_matrices()`` build.

    Clears the shared grid cache first, so every call pays the full build;
    the grid it leaves cached is the one the passes use.
    """
    config = config_from_dict(raw)
    config.build_model()
    build_grid.cache_clear()
    build_grid(workload.band_limit).basis_matrices()
    return config


def basis_bytes(workload: Workload) -> int:
    """Computed size of the three dense basis matrices the set-up builds."""
    grid = build_grid(workload.band_limit)
    return 3 * grid.n_nodes * grid.n_coeffs * np.dtype(float).itemsize


def run_pass(workload: Workload, config):
    """One timed pass; returns what :func:`check` needs, or the error raised."""
    try:
        if workload.stage == "foliate":
            model = config.build_model()
            return model, solve_foliation(model, config.sigmas, config.solver_config())
        return cli.run_experiment(workload.stage, config)
    except CmcLabError as exc:
        return exc


def check(workload: Workload, config, outcome) -> list[str]:
    """Oracle checks of one pass; returns one message per failed operation."""
    if isinstance(outcome, CmcLabError):
        return [f"raised {type(outcome).__name__}: {outcome}"] * workload.ops_per_pass
    if workload.stage == "foliate":
        return _check_foliation(config, *outcome)
    manifest, status = outcome
    problems = []
    if status != 0 or manifest["status"].get(workload.stage) != "ok":
        problems.append(f"stage {workload.stage} status {status}: {manifest['status']}")
    if workload.stage == "artificial":
        for flow in manifest["reports"]["artificial"]["flows"]:
            if not np.all(np.isfinite(flow["centers"])):
                problems.append(f"non-finite center path at sigma {flow['sigma']}")
    return ["; ".join(problems)] * workload.ops_per_pass if problems else []


def _check_foliation(config, model, result) -> list[str]:
    """Per-leaf oracles: fresh residual, eigenvalue law, nesting."""
    failed = {float(f["sigma"]): f"solver failure: {f['error']}" for f in result.failures}
    previous = None
    for leaf in result.leaves:
        sigma = leaf.sigma
        geo = compute_geometry(leaf.surface, model)
        residual = np.abs(geo.mean_curvature - target_mean_curvature(sigma, model.mass)).max() * sigma**2
        reference = 6.0 * model.mass / sigma**3
        lams = np.asarray(leaf.eigenvalues)
        if not residual <= config.solver_config().newton_tol:
            failed[sigma] = f"fresh residual {residual:.3e} above newton_tol"
        elif np.abs(lams / reference - 1.0).max() > EIGEN_TOLERANCE:
            failed[sigma] = f"eigenvalues {lams} not within 10% of 6m/sigma^3 = {reference:.4e}"
        elif previous is not None and lams.max() >= previous.min():
            failed[sigma] = "degree-one eigenvalues do not shrink with sigma"
        previous = lams
    if result.nested is not True and len(result.leaves) > 1:
        for leaf in result.leaves:
            failed.setdefault(leaf.sigma, "leaves are not nested")
    return [f"sigma {s:g}: {msg}" for s, msg in sorted(failed.items())]
