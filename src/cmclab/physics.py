"""Centers of mass, quasi-local momenta, the leaf evolution law, and the claims.

Conventions shared by every operation here:

* ``Pi = tr(kbar) g - kbar`` is contracted as a (0,2)-tensor,
  ``Pi(nu, e_i) = nu^a Pi_{a i}`` with ``e_i`` the coordinate frame.
* ``nu_i`` written next to scalars (the degree-one projections
  ``3 avg(nu_i w)`` and the momentum-density correction
  ``sigma nu_i J(nu)``) means the Cartesian coordinate components of the
  outward unit normal vector.
* Averages over a leaf use the ambient-induced measure; only the
  momentum-density correction of :func:`quasi_local_momentum` uses the
  Euclidean-induced one.
* Every on-surface function takes the leaf's :class:`SurfaceGeometry`
  first (a solved leaf carries it as ``leaf.geometry``).  The geometry's
  model is the ambient metric; an initial data set ``data`` supplies only
  the extrinsic curvature ``kbar`` and the lapse of its slicing, so it must
  be built on that same ambient.
* The data are evaluated once per node set: :func:`data_record` holds the
  :class:`DataFields` of one evaluation with ``tr kbar`` and the normal
  momentum density ``J(nu)`` on the geometry's nodes and is cached on the
  geometry for that data set, so the momentum integrals, the lapse source
  and the evolution law read one evaluation.  A flow velocity builds its sphere's
  metric and its record from one evaluation of the artificial data.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, ModelError
from .fits import DecayFit, RichardsonResult, fit_decay_exponent, richardson_extrapolate
from .models import (
    DataFields,
    InitialDataModel,
    MetricModel,
    artificial_data,
    normal_momentum_density,
)
from .sphere import ScalarField, build_grid
from .surfaces import (
    SurfaceEmbedding,
    SurfaceGeometry,
    surface_divergence,
    w1inf_norm,
)
from .cmc import _CANONICAL_CENTER_TOL, CmcLeaf, solve_radial_lapse

__all__ = [
    "MomentumReport",
    "EvolutionReport",
    "CenterReport",
    "Claim",
    "ArtificialFlowResult",
    "DataRecord",
    "data_record",
    "quasi_local_momentum",
    "adm_center_integral",
    "lapse_rhs",
    "solve_lapse",
    "center_velocity_from_lapse",
    "evolution_residual",
    "artificial_flow_integrate",
    "cmc_adm_center_report",
    "eigenvalue_deviation",
    "eigenvalue_law",
    "evolution_law",
    "center_growth",
    "radial_lapse_deviation",
]

EIGHT_PI = 8.0 * np.pi
_ADM_BAND_LIMIT = 16  # quadrature band limit of the flux-integral sphere


@dataclass(frozen=True)
class MomentumReport:
    """Quasi-local momentum integrals of one leaf (no 1/m prefactor).

    ``quasi_local`` uses the standard ADM momentum flux integrand
    ``(kbar - tr(kbar) g)(nu, e_i)``; with this orientation the evolution
    law ``center velocity = pseudo momentum / m`` holds with the
    positive-mass convention (verified against finite-difference center
    motion, see the evolution tests).
    """

    sigma: float
    quasi_local: np.ndarray  # (1/8pi) int (kbar - tr(kbar) g)(nu, e_i) dmu
    correction: np.ndarray  # (1/8pi) int sigma nu_i J(nu) dmu
    quasi_local_trace_part: np.ndarray  # -tr(kbar) g contribution, for inspection
    quasi_local_kbar_part: np.ndarray  # +kbar contribution, for inspection

    @property
    def pseudo_momentum(self) -> np.ndarray:
        return self.quasi_local + self.correction

    def to_record(self):
        return {
            "sigma": self.sigma,
            "quasi_local": self.quasi_local.tolist(),
            "correction": self.correction.tolist(),
            "pseudo_momentum": self.pseudo_momentum.tolist(),
            "trace_part": self.quasi_local_trace_part.tolist(),
            "kbar_part": self.quasi_local_kbar_part.tolist(),
        }


@dataclass(frozen=True)
class DataRecord:
    """An initial data set on the nodes of one geometry, evaluated once.

    ``fields`` are the :class:`DataFields` of one
    :meth:`InitialDataModel.evaluate`; ``trace = g^ab kbar_ab`` and the
    normal momentum density ``J(nu)`` ``(n,)``, the only part of ``J`` the
    momentum integrals and the lapse source read, are assembled with the
    geometry's metric inverse, metric derivative and normal
    (:func:`~cmclab.models.normal_momentum_density`, no Christoffel symbols).
    """

    fields: DataFields
    trace: np.ndarray
    normal_momentum: np.ndarray


def data_record(geometry: SurfaceGeometry, data: InitialDataModel) -> DataRecord:
    """The record of ``data`` on the nodes of ``geometry``, built on first use.

    It is cached on the geometry (``geometry.data_cache``) for that data set,
    so the momentum integrals, the lapse source and the evolution law read
    one evaluation.
    """
    cached = geometry.data_cache
    if cached is not None and cached[0] is data:
        return cached[1]
    return _record(geometry, data, data.evaluate(geometry.positions))


def _record(geometry: SurfaceGeometry, data: InitialDataModel, fields: DataFields) -> DataRecord:
    """Assemble and cache the record of ``data`` from its ``fields`` at the geometry's nodes."""
    geo = geometry
    kb = fields.kbar
    record = DataRecord(
        fields=fields,
        trace=np.einsum("nab,nab->n", geo.gbar_inv, kb),
        normal_momentum=normal_momentum_density(geo.gbar_inv, geo.dgbar, kb, fields.kbar_deriv, geo.normal),
    )
    geo.data_cache = (data, record)
    return record


def quasi_local_momentum(
    geometry: SurfaceGeometry, data: InitialDataModel, sigma: float
) -> MomentumReport:
    """Surface momentum flux plus its slow-decay correction on ``geometry``.

    The flux part integrates ``(kbar - tr(kbar) g)(nu, e_i)`` (the
    standard ADM momentum density) against the ambient measure; the
    correction ``(1/8pi) int sigma nu_i J(nu)`` compensates for momentum
    density that decays too slowly for the flux alone.  The correction is
    a coordinate-sphere comparison term over the Euclidean-induced
    measure (the ambient one differs inside the evolution law's own error
    budget, but the Euclidean choice makes the residual decay cleanly).
    Both pieces are reported separately and neither carries the 1/m.
    ``sigma`` scales the correction: the leaf index of a solved leaf, the
    radius of a coordinate sphere.
    """
    geo = geometry
    sigma = float(sigma)
    rec = data_record(geo, data)
    nu = geo.normal
    w = geo.weights_induced
    w_corr = geo.weights_euclidean
    trace_term = rec.trace[:, None] * geo.normal_flat  # tr(kbar) g(nu, e_i)
    kbar_term = np.einsum("nai,na->ni", rec.fields.kbar, nu)
    p_trace = -(w[:, None] * trace_term).sum(axis=0) / EIGHT_PI
    p_kbar = (w[:, None] * kbar_term).sum(axis=0) / EIGHT_PI
    correction = sigma * (w_corr[:, None] * (rec.normal_momentum[:, None] * nu)).sum(axis=0) / EIGHT_PI
    return MomentumReport(
        sigma=sigma,
        quasi_local=p_trace + p_kbar,
        correction=correction,
        quasi_local_trace_part=p_trace,
        quasi_local_kbar_part=p_kbar,
    )


def adm_center_integral(model: MetricModel, radius: float, center=(0.0, 0.0, 0.0)) -> np.ndarray:
    """Flux-integral center estimate over the Euclidean sphere of ``radius``.

    Integrand (indices lowered with the Euclidean metric, outward unit
    normal ``n = x/r`` contracting the free derivative index)::

        x_i (d_j g_jk - d_k g_jj) n^k - (g_ij x^j / r - g_jj x_i / r)

    integrated with the Euclidean measure and scaled by ``1/(16 pi m)``.
    With ``center`` the sphere and the coordinate moment are taken about
    that point, which makes the estimate exactly translation-equivariant
    for testing; the ADM definition itself is the default ``center = 0``.
    """
    if model.mass <= 0:
        raise ModelError("the center integral needs a positive-mass model")
    grid = build_grid(_ADM_BAND_LIMIT)
    center = np.asarray(center, dtype=float).reshape(3)
    N = grid.directions
    x = center + radius * N
    g, dg = model.jet(x, 1)
    div_term = np.einsum("njjk,nk->n", dg, N) - np.einsum("nkjj,nk->n", dg, N)
    vec = (
        radius * N * div_term[:, None]
        - np.einsum("nij,nj->ni", g, N)
        + np.einsum("njj,ni->ni", g, N)
    )
    integral = (grid.weights[:, None] * vec).sum(axis=0) * radius**2
    return center + integral / (16.0 * np.pi * model.mass)


def lapse_rhs(geometry: SurfaceGeometry, data: InitialDataModel) -> ScalarField:
    """Source of the evolution lapse equation on the surface of ``geometry``.

    Assembles ``alpha (div kbar_nu - J(nu) - <k, kbar>) - (D_nu alpha)
    (tr kbar - kbar(nu, nu)) + 2 kbar(nu, grad alpha)`` with ``kbar_nu`` the
    tangential part of ``kbar(nu, .)``, the divergence taken on the surface,
    and ``grad alpha`` the tangential gradient of the lapse.  It is
    ``-d_t H`` of the fixed surface while the slice evolves by
    ``d_t g = -2 alpha kbar`` with zero shift (the convention of
    :func:`artificial_data`, where ``kbar = -(1/2) d_tau g``); the normal
    lapse derivative multiplies the surface trace ``tr_Sigma kbar``.  The
    data are read from :func:`data_record`.
    """
    geo = geometry
    rec = data_record(geo, data)
    kb, alpha, dalpha = rec.fields.kbar, rec.fields.lapse, rec.fields.lapse_deriv
    nu = geo.normal
    t = geo.tangents
    ainv = geo.induced_inv

    omega = np.einsum("nab,na,nIb->nI", kb, nu, t)  # tangential one-form kbar_nu
    X = np.einsum("nIJ,nI,nJa->na", ainv, omega, t)  # raised, ambient components
    div_knu = surface_divergence(geo, X)

    kb_surf = np.einsum("nab,nIa,nJb->nIJ", kb, t, t)
    k_dot_kbar = np.einsum("nIJ,nKL,nIK,nJL->n", ainv, ainv, geo.second_fund, kb_surf)

    # tr_Sigma kbar = tr kbar - kbar(nu, nu)
    surface_trace = rec.trace - np.einsum("nab,na,nb->n", kb, nu, nu)
    d_nu_alpha = np.einsum("na,na->n", dalpha, nu)
    grad_alpha_amb = np.einsum("nab,nb->na", geo.gbar_inv, dalpha)
    grad_alpha_tan = grad_alpha_amb - d_nu_alpha[:, None] * nu
    kbar_nu_grad = np.einsum("nab,na,nb->n", kb, nu, grad_alpha_tan)

    values = alpha * (div_knu - rec.normal_momentum - k_dot_kbar) - d_nu_alpha * surface_trace + 2.0 * kbar_nu_grad
    return ScalarField(geo.grid, values)


def solve_lapse(geometry: SurfaceGeometry, data: InitialDataModel) -> ScalarField:
    """Solve the evolution lapse equation ``L w = lapse_rhs`` on ``geometry``.

    The near-kernel (degree-one) components carry the translation signal,
    amplified by about ``sigma^3 / 6m``; :meth:`SurfaceGeometry.solve_operator`
    resolves them exactly with the matrix-free solve's l <= 1 block.  In a
    flat ambient, where translations are an exact kernel, a right-hand side
    that loads a kernel mode (a degree-one source) raises
    :class:`SolvabilityError`.
    """
    rhs = lapse_rhs(geometry, data)
    w = geometry.solve_operator(rhs.values, check_kernel_load=True)
    return ScalarField(geometry.grid, w)


def center_velocity_from_lapse(geometry: SurfaceGeometry, w: ScalarField) -> np.ndarray:
    """Translation speed ``3 avg(nu_i w)`` of the surface moved with normal speed ``w``."""
    weights = geometry.weights_induced
    nu_avg = (weights[:, None] * (w.values[:, None] * geometry.normal)).sum(axis=0)
    return 3.0 * nu_avg / weights.sum()


@dataclass(frozen=True)
class EvolutionReport:
    """Both sides of the leaf evolution law and their gap."""

    sigma: float
    lapse: ScalarField
    center_velocity: np.ndarray
    prediction: np.ndarray  # pseudo-momentum / m
    momentum: MomentumReport
    lapse_w1inf: float

    @property
    def residual(self) -> float:
        return float(np.abs(self.center_velocity - self.prediction).max())

    def to_record(self):
        return {
            "sigma": self.sigma,
            "center_velocity": self.center_velocity.tolist(),
            "prediction": self.prediction.tolist(),
            "residual": self.residual,
            "lapse_w1inf": self.lapse_w1inf,
            "momentum": self.momentum.to_record(),
        }


def evolution_residual(leaf: CmcLeaf, data: InitialDataModel) -> EvolutionReport:
    """Check ``3 avg(nu_i w) = pseudo-momentum / m`` on one solved leaf.

    Evaluated on ``leaf.geometry`` at ``sigma = leaf.sigma``; ``m`` is the
    mass of the geometry's model.
    """
    geo = leaf.geometry
    m = geo.model.mass
    if m <= 0:
        raise ModelError("evolution law needs a positive mass")
    w = solve_lapse(geo, data)
    velocity = center_velocity_from_lapse(geo, w)
    momentum = quasi_local_momentum(geo, data, leaf.sigma)
    return EvolutionReport(
        sigma=momentum.sigma,
        lapse=w,
        center_velocity=velocity,
        prediction=momentum.pseudo_momentum / m,
        momentum=momentum,
        lapse_w1inf=w1inf_norm(geo, w.values, momentum.sigma),
    )


@dataclass(frozen=True)
class ArtificialFlowResult:
    """Integrated center path of the interpolation flow."""

    sigma: float
    taus: np.ndarray
    centers: np.ndarray  # (len(taus), 3)

    @property
    def endpoint(self) -> np.ndarray:
        return self.centers[-1]

    def to_record(self):
        return {
            "sigma": self.sigma,
            "taus": self.taus.tolist(),
            "centers": self.centers.tolist(),
            "endpoint": self.endpoint.tolist(),
        }


def artificial_flow_integrate(
    model: MetricModel,
    sigma: float,
    tau_steps: int = 20,
    band_limit: int = 16,
    anchor=None,
) -> ArtificialFlowResult:
    """Integrate the center ODE of the metric-interpolation flow.

    Starting at ``tau = 0`` from the anchor of the interpolation (the
    Schwarzschild end, whose leaves are concentric there), the center
    moves with the instantaneous velocity ``pseudo-momentum / m``
    evaluated on the Euclidean sphere ``S^2_sigma(z(tau))`` inside the
    interpolated metric, with the slice data of :func:`artificial_data`;
    classical RK4 with fixed step.  ``anchor`` defaults to the model's
    exclusion center, which makes the flow exactly translation-equivariant.
    """
    if tau_steps < 1:
        raise ConfigurationError("need at least one integration step")
    grid = build_grid(band_limit)
    m = model.mass
    if m <= 0:
        raise ModelError("artificial flow needs a positive-mass model")
    anchor = np.asarray(
        anchor if anchor is not None else model.exclusion_center, dtype=float
    ).reshape(3)

    # every stage's sphere is this one translated, so they share its chart
    origin_sphere = SurfaceEmbedding.round_sphere(grid, sigma)

    def velocity(tau: float, z: np.ndarray) -> np.ndarray:
        # one evaluation of the data gives the sphere's metric and the data record
        data = artificial_data(model, tau, anchor=anchor)
        sphere = origin_sphere.translate(z)
        fields = data.evaluate(sphere.positions)
        geo = SurfaceGeometry(sphere, data.base, (fields.metric, fields.metric_deriv))
        _record(geo, data, fields)
        return quasi_local_momentum(geo, data, sigma).pseudo_momentum / m

    h = 1.0 / tau_steps
    taus = np.linspace(0.0, 1.0, tau_steps + 1)
    centers = np.zeros((tau_steps + 1, 3))
    centers[0] = anchor
    z = anchor.copy()
    for k in range(tau_steps):
        t0 = taus[k]
        k1 = velocity(t0, z)
        k2 = velocity(t0 + 0.5 * h, z + 0.5 * h * k1)
        k3 = velocity(t0 + 0.5 * h, z + 0.5 * h * k2)
        k4 = velocity(t0 + h, z + h * k3)
        z = z + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        centers[k + 1] = z
    return ArtificialFlowResult(sigma=float(sigma), taus=taus, centers=centers)


@dataclass(frozen=True)
class CenterReport:
    """CMC centers against the flux-integral center estimates."""

    sigmas: np.ndarray
    cmc_centers: np.ndarray  # (n, 3)
    leaf_formula_centers: np.ndarray  # (n, 3) flux integral at each sigma
    adm_radii: np.ndarray
    adm_centers: np.ndarray  # (k, 3) flux integral at each radius
    extrapolation: RichardsonResult
    gaps: np.ndarray  # (n,) |cmc - leaf formula|
    gap_fit: DecayFit  # decay of the gaps

    def to_record(self):
        return {
            "sigmas": self.sigmas.tolist(),
            "cmc_centers": self.cmc_centers.tolist(),
            "leaf_formula_centers": self.leaf_formula_centers.tolist(),
            "adm_radii": self.adm_radii.tolist(),
            "adm_centers": self.adm_centers.tolist(),
            "extrapolation": self.extrapolation.to_record(),
            "gap_fit": self.gap_fit.to_record(),
            "largest_sigma_gap": float(self.gaps[-1]),
        }


def cmc_adm_center_report(leaves, adm_radii=(32.0, 64.0, 128.0, 256.0)) -> CenterReport:
    """Compare the centers of solved ``leaves`` (one ambient) with the flux-integral center estimates.

    The integral runs at each leaf scale, whose gaps' decay is fitted, and over the dyadic ``adm_radii``.
    """
    model = leaves[0].geometry.model
    sigmas = np.asarray([leaf.sigma for leaf in leaves])
    cmc = np.array([leaf.center for leaf in leaves])
    formula = np.array([adm_center_integral(model, s) for s in sigmas])
    adm_radii = np.asarray([float(r) for r in adm_radii])
    adm = np.array([adm_center_integral(model, r) for r in adm_radii])
    gaps = np.linalg.norm(cmc - formula, axis=1)
    return CenterReport(
        sigmas=sigmas,
        cmc_centers=cmc,
        leaf_formula_centers=formula,
        adm_radii=adm_radii,
        adm_centers=adm,
        extrapolation=richardson_extrapolate(adm_radii, adm),
        gaps=gaps,
        gap_fit=fit_decay_exponent(sigmas, np.maximum(gaps, 1e-300)),
    )


@dataclass(frozen=True)
class Claim:
    """One value per leaf, their decay fit over sigma, and the verdict of the caller's ``gate(fit, values)``.

    ``fit`` is ``None``, and the claim passes, when every value is zero at solver accuracy.
    """

    values: list
    fit: DecayFit | None
    passed: bool


def _claim(leaves, values, gate, floor=lambda sigma: 1e-13) -> Claim:
    """Fit ``values`` over sigma and gate the fit, unless each value is within ``floor(sigma)``."""
    sigmas = [leaf.sigma for leaf in leaves]
    if all(v <= floor(s) for v, s in zip(values, sigmas)):
        return Claim(values, None, True)
    fit = fit_decay_exponent(sigmas, values)
    return Claim(values, fit, bool(gate(fit, values)))


def eigenvalue_deviation(leaf: CmcLeaf) -> float:
    """``max |lambda sigma^3 / 6m - 1|`` over the leaf's ``eigenvalues``, ``m`` the mass of its ambient."""
    reference = 6.0 * leaf.geometry.model.mass / leaf.sigma**3
    return max(abs(lam / reference - 1.0) for lam in leaf.eigenvalues)


def eigenvalue_law(leaves, gate) -> Claim:
    """``lambda = 6m / sigma^3``: the :func:`eigenvalue_deviation` of each leaf."""
    return _claim(leaves, [eigenvalue_deviation(leaf) for leaf in leaves], gate)


def evolution_law(leaves, data: InitialDataModel, gate) -> Claim:
    """``center velocity = P/m``: the :func:`evolution_residual` of each leaf."""
    return _claim(leaves, [evolution_residual(leaf, data).residual for leaf in leaves], gate)


def center_growth(leaves, gate) -> Claim:
    """``|z - c|`` of each leaf center ``z``, ``c`` the exclusion center of its ambient, which a translation moves too.

    Zero within ``_CANONICAL_CENTER_TOL * sigma``; growth is minus the fitted exponent.
    """
    values = [float(np.linalg.norm(leaf.center - leaf.geometry.model.exclusion_center)) for leaf in leaves]
    return _claim(leaves, values, gate, floor=lambda sigma: _CANONICAL_CENTER_TOL * sigma)


def radial_lapse_deviation(leaves, gate) -> Claim:
    """``||u - 1||_{W^{1,inf}}`` of each leaf's foliation lapse (:func:`solve_radial_lapse`)."""
    return _claim(leaves, [solve_radial_lapse(leaf).deviation_w1inf for leaf in leaves], gate)
