"""Newton solver for prescribed-mean-curvature leaves and their sweeps.

Each leaf solves ``H(surface) = -2/sigma + 4m/sigma^2`` as a radial graph.
The Newton update solves the stability operator in weak form,
``L u = H_target - H`` (:meth:`SurfaceGeometry.weak_solve`), for the normal
speed ``u``.  A radial displacement ``drho * N`` moves the surface with
normal speed ``g(N, nu) drho`` (``(1 + m/2r)^2 drho`` on a centred
Schwarzschild sphere), so the radial field takes the step ``u / g(N, nu)``
and the iteration converges quadratically.  On the round Euclidean sphere
it reduces to the classic 1-D iteration on ``r -> -2/r``.  After every
step whose centroid has left the parametrization center, the surface is
resampled about that centroid; the loop stops at the first convergence
check that finds both the residual and the centroid within tolerance.

The one Newton loop runs on two band limits (nested iteration): first on
the ``_COARSE_BAND_LIMIT`` grid, where a geometry build costs a fraction of
one at the full band limit, then on the full grid from the coarse iterate,
whose coefficients are padded exactly.  Leaves are smooth enough that the
padded iterate usually meets the full-grid tolerance at its first check.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, DivergenceError, DomainError, SolverError
from .models import MetricModel
from .sphere import ScalarField, build_grid
from .surfaces import (
    SurfaceEmbedding,
    SurfaceGeometry,
    compute_geometry,
    euclidean_center,
    low_eigenpairs,
    resample,
    w1inf_norm,
)

_log = logging.getLogger(__name__)

#: a leaf's centroid lies this close to its parametrization center, relative
#: to sigma; a Newton iterate whose centroid is farther away is resampled
_CANONICAL_CENTER_TOL = 1e-9
#: continuation floor: leaves need sigma >= this factor times the mass
_SIGMA_FLOOR_FACTOR = 8.0
#: band limit of a leaf's first Newton pass; its iterate, padded to the full
#: band limit, starts the Newton pass there
_COARSE_BAND_LIMIT = 8
#: consecutive residual increases that abort a Newton loop
_DIVERGENCE_PATIENCE = 3

__all__ = [
    "SolverConfig",
    "CmcLeaf",
    "FoliationResult",
    "RadialLapse",
    "target_mean_curvature",
    "solve_cmc",
    "solve_foliation",
    "solve_radial_lapse",
]


@dataclass(frozen=True)
class SolverConfig:
    """Newton parameters.

    ``newton_tol`` bounds the scaled residual ``||H - H_sigma||_inf *
    sigma^2``; ``max_newton`` caps the Newton steps of a leaf, at both band
    limits together;
    ``compute_eigenvalues`` asks :func:`solve_cmc` for the three lowest
    stability eigenvalues of each leaf.  Every Newton iterate whose centroid
    lies farther than ``_CANONICAL_CENTER_TOL * sigma`` from its
    parametrization center is resampled about the centroid, so the
    published representation has its parametrization center on the
    Euclidean centroid.
    """

    band_limit: int = 32
    newton_tol: float = 1e-10
    max_newton: int = 30
    compute_eigenvalues: bool = True

    def __post_init__(self):
        for name, ok, description in (
            ("newton_tol", self.newton_tol > 0, "must be positive"),
            ("max_newton", self.max_newton >= 1, "must be >= 1"),
        ):
            if not ok:
                value = getattr(self, name)
                raise ConfigurationError(f"solver.{name} = {value!r} out of range ({description})")


@dataclass(frozen=True)
class CmcLeaf:
    """One solved leaf with its diagnostics.

    ``geometry`` is the :class:`SurfaceGeometry` of ``surface`` in the
    ambient the leaf was solved in, as built by the final Newton
    convergence check; every on-surface quantity of the leaf (momentum,
    lapses, eigenpairs) is evaluated on it.  It is left out of the record,
    of comparisons and of the repr.  ``newton_residuals`` is the scaled
    residual ``||H - H_sigma||_inf * sigma^2`` of every Newton convergence
    check, in order, and ``newton_band_limits`` the band limit of each
    check; its last entry is ``residual``, at the full band limit.  A Newton
    step separates consecutive checks at one band limit; the handover from
    the coarse grid to the full one takes no step.  ``iterations`` counts
    the Newton steps at both band limits and ``krylov_iterations`` holds the
    GMRES iteration count of each, in order.  ``recenters`` counts the
    iterates resampled about their centroid.
    """

    sigma: float
    surface: SurfaceEmbedding
    residual: float
    iterations: int
    center: np.ndarray
    geometry: SurfaceGeometry = field(repr=False, compare=False)
    eigenvalues: tuple | None = None
    newton_residuals: tuple = ()
    recenters: int = 0
    newton_band_limits: tuple = ()
    krylov_iterations: tuple = ()

    @property
    def area_radius(self) -> float:
        """``sqrt(area / 4 pi)`` in the ambient-induced measure."""
        return self.geometry.sigma_scale

    def to_record(self) -> dict:
        rec = {
            "sigma": self.sigma,
            "residual": self.residual,
            "iterations": self.iterations,
            "recenters": self.recenters,
            "newton_residuals": list(self.newton_residuals),
            "newton_band_limits": list(self.newton_band_limits),
            "krylov_iterations": list(self.krylov_iterations),
            "center": self.center.tolist(),
            "area_radius": self.area_radius,
            "surface": self.surface.to_record(),
        }
        if self.eigenvalues is not None:
            rec["eigenvalues"] = list(self.eigenvalues)
        return rec


@dataclass
class FoliationResult:
    """Ordered family of solved leaves plus failure markers."""

    model_name: str
    leaves: list = field(default_factory=list)
    failures: list = field(default_factory=list)
    nested: bool | None = None

    @property
    def sigmas(self):
        return [leaf.sigma for leaf in self.leaves]


def target_mean_curvature(sigma: float, mass: float) -> float:
    """Prescribed leaf mean curvature ``-2/sigma + 4m/sigma^2``."""
    if sigma <= 4.0 * mass:
        raise ConfigurationError(
            f"mean-curvature radius {sigma} must exceed 4m = {4.0 * mass}"
        )
    return -2.0 / sigma + 4.0 * mass / sigma**2


def solve_cmc(
    model: MetricModel,
    sigma: float,
    config: SolverConfig | None = None,
    initial: SurfaceEmbedding | None = None,
) -> CmcLeaf:
    """Solve for the leaf of mean curvature ``-2/sigma + 4m/sigma^2``.

    The returned surface is re-centered: its parametrization center agrees
    with its Euclidean coordinate centroid to ``_CANONICAL_CENTER_TOL *
    sigma``.  The leaf carries the geometry and, as its center, the
    centroid of the final convergence check.  Each Newton step solves
    ``L u = H_target - H`` for the normal speed ``u`` and moves the radial
    field by ``u / g(N, nu)``, the radial displacement of that normal speed.

    The loop first runs on the band limit ``min(L, _COARSE_BAND_LIMIT)``,
    from the round sphere or from ``initial`` truncated to it, with the same
    step and re-centering.  That coarse pass stops at the first check that
    is converged and centered, or whose residual is not below the previous
    check's (re-centering an L = 8 graph leaves a truncation floor of about
    1e-10-1e-7), or when the ``max_newton`` steps are spent, and hands its
    last decreasing iterate to the full band limit ``L``; a coarse pass that
    raises :class:`SolverError` or :class:`DomainError`, or takes no
    decreasing step, hands over the start itself.  The coarse pass never
    raises.  At ``L`` the loop runs with the divergence guard, with
    ``max_newton`` capping the steps of both passes together, until the
    residual is within ``newton_tol`` and the centroid within
    ``_CANONICAL_CENTER_TOL * sigma``; eigenvalues are computed on the final
    full-band-limit geometry.
    """
    config = config or SolverConfig()
    floor = _SIGMA_FLOOR_FACTOR * model.mass
    if sigma < floor:
        raise ConfigurationError(
            f"sigma = {sigma} below the continuation floor {floor} = "
            f"{_SIGMA_FLOOR_FACTOR:g} * m"
        )
    grid = build_grid(config.band_limit)
    h_target = target_mean_curvature(sigma, model.mass)
    if initial is not None:
        start = initial.on_grid(grid)
    else:
        start = SurfaceEmbedding.round_sphere(grid, sigma, model.exclusion_center)
    surface = start.on_grid(build_grid(min(config.band_limit, _COARSE_BAND_LIMIT)))

    center_tol = _CANONICAL_CENTER_TOL * sigma
    history, band_limits, krylov_counts = [], [], []
    recenters = 0
    # the coarse pass's last decreasing iterate and its previous check's residual
    handover, last = start, np.inf
    previous = np.inf
    increases = 0
    while True:
        level = surface.grid
        coarse = level is not grid
        try:
            geo = compute_geometry(surface, model)
            residual_field = h_target - geo.mean_curvature
            residual = float(np.abs(residual_field).max() * sigma**2)
            history.append(residual)
            band_limits.append(level.band_limit)
            z = euclidean_center(surface)
            converged = residual <= config.newton_tol and np.linalg.norm(z - surface.center) <= center_tol
            step = len(krylov_counts)
            if coarse:  # a rise ends the coarse pass before the divergence guard sees it
                if residual < last < np.inf:
                    handover = surface
                if converged or residual >= last or step == config.max_newton:
                    surface, previous = handover.on_grid(grid), np.inf
                    continue
                last = residual
            if converged:
                _log.debug("newton sigma=%g L=%d iter=%d residual=%.3e", sigma, grid.band_limit, step, residual)
                break
            if step == config.max_newton:
                raise SolverError(
                    f"Newton did not reach tolerance {config.newton_tol:.1e} in "
                    f"{config.max_newton} iterations (residual {residual:.3e})"
                )
            if residual > previous * (1.0 + 1e-12):
                increases += 1
                if increases >= _DIVERGENCE_PATIENCE:
                    raise DivergenceError(
                        f"residual increased {increases} consecutive steps "
                        f"(now {residual:.3e})"
                    )
            else:
                increases = 0
            previous = residual
            u, krylov = geo.weak_solve(residual_field)
            krylov_counts.append(krylov)
            _log.debug(
                "newton sigma=%g L=%d iter=%d residual=%.3e krylov=%d",
                sigma, level.band_limit, step, residual, krylov,
            )
            # g(N, nu): the normal speed of a unit radial step, positive on star-shaped surfaces
            speed = np.einsum("ni,ni->n", geo.normal_flat, level.directions)
            du = level.analyze_values(level.synthesize_values(u) / speed)
            surface = surface.with_radius(surface.rho_coeffs + du)
            z = euclidean_center(surface)
            if np.linalg.norm(z - surface.center) > center_tol:
                surface = resample(surface, z)
                recenters += 1
                previous = np.inf  # resampling perturbs the residual benignly
                increases = 0
        except (SolverError, DomainError, ConfigurationError):  # the last: a radial field <= 0
            if not coarse:
                raise
            # a failed coarse pass leaves the leaf to the full grid from its start
            surface, previous = start, np.inf

    eigenvalues = None
    if config.compute_eigenvalues:
        pairs = low_eigenpairs(geo, n=3)
        eigenvalues = tuple(lam for lam, _ in pairs)
    return CmcLeaf(
        sigma=float(sigma),
        surface=surface,
        residual=residual,
        iterations=len(krylov_counts),
        center=z,
        geometry=geo,
        eigenvalues=eigenvalues,
        newton_residuals=tuple(history),
        recenters=recenters,
        newton_band_limits=tuple(band_limits),
        krylov_iterations=tuple(krylov_counts),
    )


def solve_foliation(model: MetricModel, sigmas, config: SolverConfig | None = None) -> FoliationResult:
    """Solve every leaf of a strictly increasing sigma schedule.

    Each leaf is :func:`solve_cmc` from the round sphere, so it depends on
    ``(model, sigma, config)`` alone, not on the other sigmas of the
    schedule.  A leaf that fails is recorded in ``failures`` and does not
    stop the sweep; ``nested`` checks consecutive solved leaves.
    """
    config = config or SolverConfig()
    sigmas = [float(s) for s in sigmas]
    if any(b <= a for a, b in zip(sigmas, sigmas[1:])):
        raise ConfigurationError("sigma schedule must be strictly increasing")
    result = FoliationResult(model_name=model.name)
    for sigma in sigmas:
        try:
            result.leaves.append(solve_cmc(model, sigma, config))
        except (SolverError, ConfigurationError, DomainError) as exc:
            result.failures.append({"sigma": sigma, "kind": type(exc).__name__, "error": str(exc)})
    result.nested = _check_nested(result.leaves) if len(result.leaves) > 1 else None
    return result


def _check_nested(leaves) -> bool:
    """Pairwise nestedness: ``|p - c| < rho_out((p - c) / |p - c|)`` at every inner node ``p``.

    ``c`` is the outer leaf's center, about which its radial graph is
    star-shaped by construction, so no pair of leaves raises.
    """
    for inner, outer in zip(leaves, leaves[1:]):
        v = inner.surface.positions - outer.surface.center
        r = np.linalg.norm(v, axis=1)
        if np.any(r >= outer.surface.grid.evaluate(outer.surface.rho_coeffs, v / r[:, None])):
            return False
    return True


@dataclass(frozen=True)
class RadialLapse:
    """Lapse ``u`` of the foliation flow in the sigma direction.

    ``deviation_w1inf`` is ``||u - 1||_{W^{1,inf}}`` at scale sigma
    (:func:`w1inf_norm`), the quantity the paper keeps small.
    """

    field: ScalarField
    deviation_w1inf: float


def solve_radial_lapse(leaf: CmcLeaf) -> RadialLapse:
    """Solve ``L u = d(H_sigma)/d(sigma)`` on a solved leaf.

    Runs on ``leaf.geometry`` and takes the mass ``m`` from its model.  The
    right-hand side is the constant ``2/sigma^2 - 8m/sigma^3``; the
    degree-one near-kernel carries the center drift of the foliation and
    is resolved exactly by :meth:`SurfaceGeometry.solve_operator` (the
    matrix-free solve's l <= 1 block; a flat ambient's kernel is deflated).
    Returns ``u`` with ``||u - 1||_{W^{1,inf}}`` at scale sigma.
    """
    geo = leaf.geometry
    sigma = leaf.sigma
    rhs = (2.0 / sigma**2 - 8.0 * geo.model.mass / sigma**3) * np.ones(geo.grid.n_nodes)
    u = geo.solve_operator(rhs)
    return RadialLapse(
        field=ScalarField(geo.grid, u),
        deviation_w1inf=w1inf_norm(geo, u - 1.0, sigma),
    )
