"""Command-line runner: experiment orchestration and report emission.

Every subcommand reads one YAML config (scalar keys overridable by flags),
executes its pipeline, and writes a JSON manifest plus a CSV table under
the output prefix.  All report numbers and CSV rows are deterministic for
a fixed config; wall-clock timings live in a separate manifest field and
are the only nondeterministic entries.  The manifest's ``environment``
record names the BLAS library and the thread-count variables in force.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__
from .acceptance import run_acceptance
from .cmc import SolverConfig, solve_cmc, solve_foliation
from .config import ExperimentConfig, config_from_dict, parse_config
from .errors import CmcLabError, ConfigurationError
from .fits import fit_decay_exponent, richardson_extrapolate
from .physics import (
    adm_center_integral,
    artificial_flow_integrate,
    center_growth,
    cmc_adm_center_report,
    eigenvalue_deviation,
    eigenvalue_law,
    evolution_law,
    evolution_residual,
    quasi_local_momentum,
    radial_lapse_deviation,
)

_log = logging.getLogger(__name__)

#: thread-count variables recorded in the manifest (``CMCLAB_THREADS`` sets the others)
THREAD_VARS = ("CMCLAB_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

SUBCOMMANDS = (
    "foliate",
    "centers",
    "adm-center",
    "momentum",
    "eigen",
    "evolve",
    "artificial",
    "study",
    "acceptance",
)


def _fmt(value) -> str:
    """Shortest round-trip decimal; identical runs give identical bytes."""
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def write_csv(path: Path, header, rows) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    path.write_text("\n".join(lines) + "\n")


def _solver(config: ExperimentConfig, eigenvalues: bool) -> SolverConfig:
    """The configured solver, computing eigenvalues exactly when the stage reports them."""
    return replace(config.solver_config(), compute_eigenvalues=eigenvalues)


def _leaves_for(config: ExperimentConfig, model, eigenvalues: bool):
    result = solve_foliation(model, config.sigmas, _solver(config, eigenvalues))
    if result.failures:
        raise CmcLabError(f"foliation failures: {result.failures}")
    return result


# ---------------------------------------------------------------------------
# stages
# ---------------------------------------------------------------------------


def stage_foliate(config: ExperimentConfig):
    model = config.build_model()
    result = solve_foliation(model, config.sigmas, config.solver_config())
    header = [
        "sigma",
        "areaRadius",
        "z1",
        "z2",
        "z3",
        "residual",
        "iterations",
        "lambda1",
        "lambda2",
        "lambda3",
    ]
    rows = []
    for leaf in result.leaves:
        eig = leaf.eigenvalues if leaf.eigenvalues is not None else ("", "", "")
        rows.append(
            [leaf.sigma, leaf.area_radius, *leaf.center, leaf.residual, leaf.iterations, *eig]
        )
    report = {
        "model": result.model_name,
        "nested": result.nested,
        "failures": result.failures,
        "leaves": [leaf.to_record() for leaf in result.leaves],
    }
    ok = not result.failures
    return report, header, rows, ok


def stage_centers(config: ExperimentConfig):
    model = config.build_model()
    solver = _solver(config, eigenvalues=False)
    leaves = [solve_cmc(model, sigma, solver) for sigma in config.sigmas]
    report = cmc_adm_center_report(leaves, adm_radii=config.adm_radii)
    header = ["sigma", "z1", "z2", "z3", "formula1", "formula2", "formula3", "gap"]
    rows = []
    for sigma, z, f, gap in zip(report.sigmas, report.cmc_centers, report.leaf_formula_centers, report.gaps):
        rows.append([sigma, *z, *f, gap])
    return report.to_record(), header, rows, True


def stage_adm_center(config: ExperimentConfig):
    model = config.build_model()
    centers = np.array([adm_center_integral(model, r) for r in config.adm_radii])
    extrap = richardson_extrapolate(config.adm_radii, centers)
    header = ["radius", "z1", "z2", "z3"]
    rows = [[r, *z] for r, z in zip(config.adm_radii, centers)]
    report = {
        "radii": list(config.adm_radii),
        "centers": centers.tolist(),
        "extrapolation": extrap.to_record(),
    }
    return report, header, rows, True


def stage_momentum(config: ExperimentConfig):
    model = config.build_model()
    data = config.build_data(model)
    result = _leaves_for(config, model, eigenvalues=False)
    header = ["sigma", "p1", "p2", "p3", "c1", "c2", "c3", "total1", "total2", "total3"]
    rows, records = [], []
    for leaf in result.leaves:
        rep = quasi_local_momentum(leaf.geometry, data, leaf.sigma)
        rows.append([leaf.sigma, *rep.quasi_local, *rep.correction, *rep.pseudo_momentum])
        records.append(rep.to_record())
    return {"momenta": records}, header, rows, True


def stage_eigen(config: ExperimentConfig):
    model = config.build_model()
    result = _leaves_for(config, model, eigenvalues=True)
    header = ["sigma", "lambda1", "lambda2", "lambda3", "reference", "maxRelDeviation"]
    rows, records = [], []
    for leaf in result.leaves:
        lams = list(leaf.eigenvalues)
        ref = 6.0 * model.mass / leaf.sigma**3 if model.mass > 0 else 0.0
        dev = eigenvalue_deviation(leaf) if ref else float("nan")
        rows.append([leaf.sigma, *lams, ref, dev])
        records.append({"sigma": leaf.sigma, "eigenvalues": lams, "reference": ref})
    return {"eigen": records}, header, rows, True


def stage_evolve(config: ExperimentConfig):
    model = config.build_model()
    data = config.build_data(model)
    result = _leaves_for(config, model, eigenvalues=False)
    reports = [evolution_residual(leaf, data) for leaf in result.leaves]
    residuals = [r.residual for r in reports]
    fit = (
        fit_decay_exponent(config.sigmas, residuals)
        if len(config.sigmas) >= 2 and max(residuals) > 0
        else None
    )
    exponent = fit.exponent if fit else float("inf")
    header = ["sigma", "v1", "v2", "v3", "p1", "p2", "p3", "residual", "fittedExponent"]
    rows = [
        [r.sigma, *r.center_velocity, *r.prediction, r.residual, exponent] for r in reports
    ]
    report = {
        "reports": [r.to_record() for r in reports],
        "decay_fit": fit.to_record() if fit else None,
    }
    return report, header, rows, True


def stage_artificial(config: ExperimentConfig):
    model = config.build_model()
    solver = _solver(config, eigenvalues=False)
    header = ["sigma", "tau", "z1", "z2", "z3"]
    rows, records = [], []
    for sigma in config.sigmas:
        flow = artificial_flow_integrate(
            model,
            sigma,
            tau_steps=config.tau_steps,
            kbar_factor=config.kbar_factor,
            band_limit=min(config.band_limit, 16),
        )
        for tau, z in zip(flow.taus, flow.centers):
            rows.append([sigma, tau, *z])
        leaf = solve_cmc(model, sigma, solver)
        gap = float(np.linalg.norm(flow.endpoint - leaf.center))
        rec = flow.to_record()
        rec["cmc_center"] = leaf.center.tolist()
        rec["endpoint_gap"] = gap
        records.append(rec)
    return {"flows": records}, header, rows, True


def stage_study(config: ExperimentConfig):
    """Convergence study: all sigma-decay fits with their gates."""
    model = config.build_model()
    data = config.build_data(model)
    leaves = _leaves_for(config, model, eigenvalues=True).leaves
    eps = model.decay.epsilon
    # the kbar exponent configures the data set; the metric's decay class does not carry it
    delta = float(config.model_spec.get("delta", 1.0))

    def row(quantity, claim, sign=1.0, vanished=float("inf")):
        if claim.fit is None:  # zero at solver accuracy
            return [quantity, vanished, 0.0, True]
        return [quantity, sign * claim.fit.exponent, claim.fit.residual, claim.passed]

    rows = []
    if model.mass > 0:
        rows.append(row("eigenvalue_deviation", eigenvalue_law(leaves, lambda fit, devs: devs[-1] < devs[0])))
    evolution = evolution_law(leaves, data, lambda fit, _: fit.exponent >= min(eps, delta) - 0.3)
    rows.append(row("evolution_residual", evolution))
    growth = center_growth(leaves, lambda fit, _: -fit.exponent <= (1.0 - eps) + 0.1)
    rows.append(row("center_growth", growth, -1.0, 0.0))  # the growth; 0.0 for centers at the origin
    # the radial lapse deviation is non-monotone in the pre-asymptotic
    # regime; the gate is boundedness, the exponent is informational
    rows.append(row("radial_lapse_deviation", radial_lapse_deviation(leaves, lambda _, devs: max(devs) <= 0.5)))

    header = ["quantity", "exponent", "fitResidual", "passed"]
    report = {"rows": [dict(zip(["quantity", "exponent", "fit_residual", "passed"], r)) for r in rows]}
    return report, header, rows, all(r[-1] for r in rows)


def stage_acceptance(config: ExperimentConfig):
    results = run_acceptance(band_limit=config.band_limit, verbose=True)
    header = ["criterion", "name", "passed"]
    rows = [[r.index, r.name, r.passed] for r in results]
    report = {"criteria": [r.to_record() for r in results]}
    return report, header, rows, all(r.passed for r in results)


_STAGES = {
    "foliate": stage_foliate,
    "centers": stage_centers,
    "adm-center": stage_adm_center,
    "momentum": stage_momentum,
    "eigen": stage_eigen,
    "evolve": stage_evolve,
    "artificial": stage_artificial,
    "study": stage_study,
    "acceptance": stage_acceptance,
}


def environment_record() -> dict:
    """The BLAS library numpy was built with and the thread variables as this process sees them."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"blas": blas.get("name"), "threads": {var: os.environ.get(var) for var in THREAD_VARS}}


def run_experiment(command: str, config: ExperimentConfig) -> tuple[dict, int]:
    """Execute one subcommand; returns (manifest, exit_status)."""
    manifest = {
        "tool": "cmclab",
        "version": __version__,
        "command": command,
        "config": config.to_record(),
        "environment": environment_record(),
        "reports": {},
        "status": {},
        "timings": {},
    }
    t0 = time.perf_counter()
    try:
        report, header, rows, ok = _STAGES[command](config)
        manifest["reports"][command] = report
        manifest["status"][command] = "ok" if ok else "failed-gate"
    except CmcLabError as exc:
        manifest["status"][command] = f"error: {exc}"
        ok = False
        header, rows = ["error"], [[str(exc)]]
    manifest["timings"][command] = round(time.perf_counter() - t0, 3)

    out = Path(config.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    json_path = Path(str(out) + ".json")
    csv_path = Path(str(out) + ".csv")
    json_path.write_text(json.dumps(manifest, indent=1, sort_keys=True) + "\n")
    write_csv(csv_path, header, rows)
    _log.info("wrote %s and %s", json_path, csv_path)
    return manifest, 0 if ok else 1


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def _csv_floats(text):
    return [float(v) for v in text.split(",") if v]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cmclab",
        description="CMC foliation laboratory for asymptotically Schwarzschildean metrics",
    )
    parser.add_argument("--version", action="version", version=f"cmclab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in SUBCOMMANDS:
        p = sub.add_parser(name, help=f"run the {name} pipeline")
        p.add_argument("--config", type=str, default=None, help="YAML config file")
        p.add_argument("--model", type=str, default=None, help="model kind override")
        p.add_argument("--mass", type=float, default=None, help="model mass override")
        p.add_argument("--sigma", type=_csv_floats, default=None, help="sigma schedule, comma separated")
        p.add_argument("--bandlimit", type=int, default=None, help="spectral band limit")
        p.add_argument("--out", type=str, default=None, help="output prefix for .json/.csv")
        p.add_argument(
            "--log", choices=("quiet", "normal", "debug"), default="normal", help="verbosity"
        )
        if name == "adm-center":
            p.add_argument("--radii", type=_csv_floats, default=None, help="dyadic radii")
        if name == "artificial":
            p.add_argument("--tau-steps", type=int, default=None)
            p.add_argument("--kbar-factor", type=float, default=None)
    return parser


def _apply_overrides(config: ExperimentConfig, args) -> ExperimentConfig:
    if args.model is not None:
        config.model_spec["kind"] = args.model
    if args.mass is not None:
        config.model_spec["m"] = args.mass
    if args.sigma is not None:
        config.sigmas = args.sigma
    if args.bandlimit is not None:
        config.band_limit = args.bandlimit
    if args.out is not None:
        config.out = args.out
    if getattr(args, "radii", None) is not None:
        config.adm_radii = args.radii
    if getattr(args, "tau_steps", None) is not None:
        config.tau_steps = args.tau_steps
    if getattr(args, "kbar_factor", None) is not None:
        config.kbar_factor = args.kbar_factor
    # re-validate after overrides
    return config_from_dict(config.to_record())


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    level = {"quiet": logging.WARNING, "normal": logging.INFO, "debug": logging.DEBUG}[args.log]
    logging.basicConfig(level=level, format="%(levelname)s %(name)s: %(message)s")
    try:
        config = parse_config(args.config) if args.config else config_from_dict({})
        config = _apply_overrides(config, args)
    except ConfigurationError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    _, status = run_experiment(args.command, config)
    return status


if __name__ == "__main__":
    sys.exit(main())
