"""Momentum, centers, the lapse equation, and the evolution law."""

import json
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from cmclab.errors import ModelError, SolvabilityError
from cmclab.models import (
    InitialDataModel,
    MetricModel,
    artificial_data,
    euclidean,
    perturbed_schwarzschild,
    schwarzschild,
    synthetic_data,
    time_symmetric_data,
    translated,
)
from cmclab.cmc import SolverConfig, solve_cmc, solve_foliation, solve_radial_lapse
from cmclab.fits import fit_decay_exponent
from cmclab.physics import (
    adm_center_integral,
    artificial_flow_integrate,
    center_velocity_from_lapse,
    evolution_residual,
    lapse_rhs,
    quasi_local_momentum,
    solve_lapse,
)
from cmclab.sphere import ScalarField, SphericalGrid, build_grid
from cmclab.surfaces import (
    SurfaceEmbedding,
    SurfaceGeometry,
    compute_geometry,
    euclidean_center,
    low_eigenpairs,
)

CFG = SolverConfig(band_limit=16, compute_eigenvalues=False)
M = 1.0


@pytest.fixture(scope="module")
def schw_leaf16():
    return solve_cmc(schwarzschild(M), 16.0, CFG)


@pytest.fixture(scope="module")
def synthetic16():
    return synthetic_data(schwarzschild(M), delta=1.0, amplitude=1.0, direction=(1, 0, 0))


def test_momentum_vanishes_for_time_symmetric(schw_leaf16):
    data = time_symmetric_data(schwarzschild(M))
    rep = quasi_local_momentum(schw_leaf16.geometry, data, schw_leaf16.sigma)
    assert np.abs(rep.quasi_local).max() < 1e-14
    assert np.abs(rep.correction).max() < 1e-14


def test_momentum_pure_trace_kbar_nearly_cancels(schw_leaf16):
    """kbar = c g gives flux integrand -2c g(nu) whose sphere average vanishes."""
    base = schwarzschild(M)
    c = 0.3
    fields = time_symmetric_data(base)._fields

    def pure_trace(x):
        return replace(fields(x), kbar=c * base._g(x), kbar_deriv=c * base._dg(x))

    data = InitialDataModel(base, pure_trace)
    rep = quasi_local_momentum(schw_leaf16.geometry, data, schw_leaf16.sigma)
    # scale: the integrand magnitude is ~2c over area ~4 pi sigma^2 / 8 pi
    assert np.abs(rep.quasi_local).max() < 1e-3 * c * schw_leaf16.sigma**2


def test_momentum_flat_space_closed_form(synthetic16):
    """Flux -> +B/3 b and correction -> -B/3 b as sigma grows (flat limit)."""
    sigmas = [32.0, 64.0, 128.0]
    flux_err, corr_err = [], []
    for s in sigmas:
        leaf = solve_cmc(schwarzschild(M), s, CFG)
        rep = quasi_local_momentum(leaf.geometry, synthetic16, leaf.sigma)
        flux_err.append(abs(rep.quasi_local[0] - 1.0 / 3.0))
        corr_err.append(abs(rep.correction[0] + 1.0 / 3.0))
        assert np.abs(rep.quasi_local[1:]).max() < 1e-12
    assert flux_err[-1] < flux_err[0]
    assert corr_err[-1] < corr_err[0]
    assert flux_err[-1] < 0.02 and corr_err[-1] < 0.02


def test_momentum_matches_fine_quadrature(synthetic16):
    leaf = solve_cmc(schwarzschild(M), 16.0, CFG)
    rep = quasi_local_momentum(leaf.geometry, synthetic16, leaf.sigma)
    fine = build_grid(4 * leaf.surface.grid.band_limit)
    refined = SurfaceEmbedding(fine, leaf.surface.center, _pad(leaf.surface, fine))
    geo_fine = compute_geometry(refined, synthetic16.base)
    rep_fine = quasi_local_momentum(geo_fine, synthetic16, leaf.sigma)
    assert np.abs(rep.quasi_local - rep_fine.quasi_local).max() < 1e-6
    assert np.abs(rep.correction - rep_fine.correction).max() < 1e-6


def _pad(surface, fine):
    coeffs = np.zeros(fine.n_coeffs)
    coeffs[: surface.grid.n_coeffs] = surface.rho_coeffs
    return coeffs


def test_momentum_linarity_in_kbar(schw_leaf16):
    base = schwarzschild(M)
    d1 = synthetic_data(base, delta=1.0, amplitude=1.0)
    d2 = synthetic_data(base, delta=1.0, amplitude=2.0)
    r1 = quasi_local_momentum(schw_leaf16.geometry, d1, schw_leaf16.sigma)
    r2 = quasi_local_momentum(schw_leaf16.geometry, d2, schw_leaf16.sigma)
    assert np.allclose(r2.quasi_local, 2.0 * r1.quasi_local, rtol=1e-10, atol=1e-14)
    assert np.allclose(r2.correction, 2.0 * r1.correction, rtol=1e-10, atol=1e-14)


def test_adm_center_schwarzschild_is_origin():
    for rho in (16.0, 64.0):
        z = adm_center_integral(schwarzschild(M), rho)
        assert np.abs(z).max() < 1e-12


def test_adm_center_translated_tends_to_offset():
    a = np.array([2.0, 0.0, 0.0])
    model = translated(schwarzschild(M), a)
    gaps = [np.linalg.norm(adm_center_integral(model, rho) - a) for rho in (64.0, 128.0, 256.0)]
    assert gaps[2] < gaps[0]
    assert gaps[2] < 0.02


def test_adm_center_exact_equivariance_with_centered_domain():
    model = perturbed_schwarzschild(M, 0.5, 0.1, "odd")
    a = np.array([5.0, 0.0, 0.0])
    z0 = adm_center_integral(model, 32.0)
    z1 = adm_center_integral(translated(model, a), 32.0, center=a)
    assert np.abs(z1 - (z0 + a)).max() < 1e-10


def test_adm_leaf_formula_matches_odd_model_closed_form():
    """Leading order of the flux center on the odd model: A(2+eps)/(6m) s^(1-eps)."""
    eps, A = 0.5, 0.1
    model = perturbed_schwarzschild(M, eps, A, "odd")
    for s in (32.0, 128.0):
        z = adm_center_integral(model, s)
        expect = A * (2 + eps) / (6 * M) * s ** (1 - eps)
        assert z[0] == pytest.approx(expect, rel=1e-6)
        assert abs(z[1]) < 1e-12 and abs(z[2]) < 1e-12


def test_lapse_rhs_zero_for_time_symmetric(schw_leaf16):
    data = time_symmetric_data(schwarzschild(M))
    rhs = lapse_rhs(schw_leaf16.geometry, data)
    assert np.abs(rhs.values).max() == 0.0


def test_lapse_rhs_scaling(synthetic16):
    """||rhs||_inf decays like 1/sigma^(2+min(eps,delta))."""
    sigmas = [16.0, 32.0, 64.0]
    norms = []
    for s in sigmas:
        leaf = solve_cmc(schwarzschild(M), s, CFG)
        norms.append(np.abs(lapse_rhs(leaf.geometry, synthetic16).values).max())
    fit = fit_decay_exponent(sigmas, norms)
    assert fit.exponent >= 2.7  # 2 + min(eps, delta) = 3 up to curvature corrections
    assert fit.residual < 0.1


def test_solve_lapse_zero_rhs_gives_zero(schw_leaf16):
    data = time_symmetric_data(schwarzschild(M))
    w = solve_lapse(schw_leaf16.geometry, data)
    assert np.abs(w.values).max() == 0.0


def test_solve_lapse_eigen_identity(schw_leaf16):
    """L w = lambda_op f for an eigenpair returns w = f.

    `low_eigenpairs` reports the positive-Laplacian convention, so the
    operator eigenvalue is the negative of the reported one.
    """
    geo = schw_leaf16.geometry
    lam_report, f = low_eigenpairs(geo, n=1)[0]
    rhs = -lam_report * f.values
    w = geo.solve_operator(rhs)
    assert np.abs(w - f.values).max() < 1e-8 * np.abs(f.values).max()


def test_solve_lapse_flat_degree_one_source_raises():
    flat = euclidean()
    grid = build_grid(12)
    sphere = SurfaceEmbedding.round_sphere(grid, 8.0)
    geo = compute_geometry(sphere, flat)
    with pytest.raises(SolvabilityError):
        geo.solve_operator(grid.directions[:, 0], check_kernel_load=True)


def test_lapse_growth_bound(synthetic16):
    """||w||_{W^1,inf} grows no faster than sigma^(1 - min(eps, delta))."""
    sigmas = [16.0, 32.0, 64.0]
    norms = []
    for s in sigmas:
        leaf = solve_cmc(schwarzschild(M), s, CFG)
        norms.append(evolution_residual(leaf, synthetic16).lapse_w1inf)
    fit = fit_decay_exponent(sigmas, norms)
    growth = -fit.exponent
    assert growth <= (1.0 - 1.0) + 0.2  # eps = delta = 1 for this family


def test_center_velocity_constant_lapse_is_zero(schw_leaf16):
    grid = schw_leaf16.surface.grid
    w = ScalarField(grid, np.ones(grid.n_nodes))
    v = center_velocity_from_lapse(schw_leaf16.geometry, w)
    assert np.abs(v).max() < 1e-4  # near-round leaf: average of nu is small


def test_center_velocity_unit_mode_on_euclidean_sphere():
    grid = build_grid(12)
    sphere = SurfaceEmbedding.round_sphere(grid, 5.0)
    geo = compute_geometry(sphere, euclidean())
    w = ScalarField(grid, grid.directions[:, 0])
    v = center_velocity_from_lapse(geo, w)
    assert np.allclose(v, [1.0, 0.0, 0.0], atol=1e-12)


def test_center_velocity_matches_deformation_oracle():
    """3 avg(nu w) tracks the finite-difference motion of the centroid."""
    model = schwarzschild(M)
    leaf = solve_cmc(model, 16.0, CFG)
    geo = leaf.geometry
    grid = leaf.surface.grid
    rng = np.random.default_rng(3)
    c = np.zeros(grid.n_coeffs)
    c[grid.coeff_l <= 4] = rng.standard_normal(int((grid.coeff_l <= 4).sum()))
    w = grid.synthesize_values(c)
    w /= np.abs(w).max()
    v = center_velocity_from_lapse(geo, ScalarField(grid, w))
    # deform with normal speed w: radial speed = w / gbar(N, nu)
    proj = np.einsum("ni,nij,nj->n", grid.directions, geo.gbar, geo.normal)
    h = 1e-4
    bumped = SurfaceEmbedding.from_radial_values(
        grid, leaf.surface.radius_values + h * w / proj, leaf.surface.center
    )
    v_fd = (euclidean_center(bumped) - euclidean_center(leaf.surface)) / h
    w_l2 = np.sqrt(geo.integrate(w**2))
    tol = 5.0 * w_l2 / leaf.sigma**2 + 100.0 * h
    assert np.abs(v - v_fd).max() < tol


def test_evolution_residual_time_symmetric_is_tiny(schw_leaf16):
    data = time_symmetric_data(schwarzschild(M))
    rep = evolution_residual(schw_leaf16, data)
    assert rep.residual <= 1e-8


def test_evolution_residual_decays(synthetic16):
    sigmas = [16.0, 32.0, 64.0]
    res = [
        evolution_residual(solve_cmc(schwarzschild(M), s, CFG), synthetic16).residual
        for s in sigmas
    ]
    fit = fit_decay_exponent(sigmas, res)
    assert fit.exponent >= 0.7
    assert res[-1] < res[0]


def test_evolution_sides_scale_linearly_with_kbar():
    base = schwarzschild(M)
    leaf = solve_cmc(base, 16.0, CFG)
    reps = [
        evolution_residual(leaf, synthetic_data(base, delta=1.0, amplitude=b))
        for b in (1.0, 2.0)
    ]
    assert np.allclose(
        reps[1].center_velocity, 2.0 * reps[0].center_velocity, rtol=0.01, atol=1e-12
    )
    assert np.allclose(reps[1].prediction, 2.0 * reps[0].prediction, rtol=0.01, atol=1e-12)


def test_artificial_flow_schwarzschild_stays_at_origin():
    res = artificial_flow_integrate(schwarzschild(M), 16.0, tau_steps=8, band_limit=12)
    assert np.abs(res.centers).max() == 0.0


def test_artificial_flow_recovers_translated_center():
    """Flow endpoint approaches the true center a, with the definitional
    slice curvature factor 1/2; the proof-text factor 2 overshoots by 4.

    The interpolation is anchored at the origin so that the flow really
    has to travel from 0 to the translated center.
    """
    a = np.array([1.0, 0.0, 0.0])
    origin = np.zeros(3)
    model = translated(schwarzschild(M), a)
    res = artificial_flow_integrate(model, 16.0, tau_steps=12, band_limit=12, anchor=origin)
    assert np.linalg.norm(res.endpoint - a) < 0.05
    res_far = artificial_flow_integrate(model, 32.0, tau_steps=12, band_limit=12, anchor=origin)
    assert np.linalg.norm(res_far.endpoint - a) < np.linalg.norm(res.endpoint - a)
    variant = artificial_flow_integrate(
        model, 16.0, tau_steps=12, kbar_factor=2.0, band_limit=12, anchor=origin
    )
    assert np.linalg.norm(variant.endpoint - a) > 10 * np.linalg.norm(res.endpoint - a)


def test_artificial_flow_step_halving():
    model = perturbed_schwarzschild(M, 0.5, 0.1, "odd")
    z20 = artificial_flow_integrate(model, 16.0, tau_steps=20, band_limit=12).endpoint
    z40 = artificial_flow_integrate(model, 16.0, tau_steps=40, band_limit=12).endpoint
    assert np.linalg.norm(z40 - z20) <= 1e-8


def test_artificial_flow_translation_equivariance():
    """With the default anchor the whole flow path shifts by exactly a."""
    model = perturbed_schwarzschild(M, 0.5, 0.1, "odd")
    a = np.array([5.0, 0.0, 0.0])
    base = artificial_flow_integrate(model, 16.0, tau_steps=10, band_limit=12)
    moved = artificial_flow_integrate(translated(model, a), 16.0, tau_steps=10, band_limit=12)
    assert np.abs(moved.centers - (base.centers + a)).max() < 1e-8


def test_center_report_converges_on_translated_model():
    from cmclab.physics import cmc_adm_center_report

    a = np.array([2.0, 0.0, 0.0])
    model = translated(schwarzschild(M), a)
    config = SolverConfig(band_limit=12, compute_eigenvalues=False)
    leaves = [solve_cmc(model, sigma, config) for sigma in (10.0, 16.0)]
    report = cmc_adm_center_report(leaves, adm_radii=[32.0, 64.0, 128.0, 256.0])
    assert report.extrapolation.converged
    assert np.linalg.norm(report.extrapolation.limit - a) < 1e-3
    assert np.abs(report.cmc_centers - a).max() < 1e-8
    rec = report.to_record()
    assert rec["extrapolation"]["converged"] is True


def test_center_report_flags_divergent_adm_sweep():
    from cmclab.physics import cmc_adm_center_report

    model = perturbed_schwarzschild(M, 0.5, 0.1, "odd")
    config = SolverConfig(band_limit=12, compute_eigenvalues=False)
    leaves = [solve_cmc(model, sigma, config) for sigma in (10.0, 16.0)]
    report = cmc_adm_center_report(leaves, adm_radii=[32.0, 64.0, 128.0, 256.0])
    assert not report.extrapolation.converged  # centers drift like sigma^(1/2)


def test_claims_gate_their_fit_unless_the_values_vanish():
    """A claim fits its per-leaf values over sigma and hands the gate that fit and the values;
    values that vanish at solver accuracy are not fitted, skip the gate and pass."""
    from cmclab.physics import center_growth, eigenvalue_law, evolution_law

    model = schwarzschild(M)
    leaves = [solve_cmc(model, sigma, SolverConfig(band_limit=12)) for sigma in (16.0, 32.0, 64.0)]
    seen = []

    def gate(fit, values):
        seen.append((fit, values))
        return False

    data = synthetic_data(model, delta=1.0, amplitude=1.0, direction=(1.0, 0.0, 0.0))
    claim = evolution_law(leaves, data, gate)
    assert claim.values == [evolution_residual(leaf, data).residual for leaf in leaves]
    assert claim.fit == fit_decay_exponent([16.0, 32.0, 64.0], claim.values)
    assert claim.passed is False and seen == [(claim.fit, claim.values)]
    seen.clear()
    # time-symmetric data move nothing, and Schwarzschild leaves are centered at the origin
    for vanished in (evolution_law(leaves, time_symmetric_data(model), gate), center_growth(leaves, gate)):
        assert vanished.fit is None and vanished.passed is True and max(vanished.values) <= 1e-9
    assert seen == []
    claim = eigenvalue_law(leaves, lambda fit, devs: devs[-1] < devs[0])
    deviations = [max(abs(lam * leaf.sigma**3 / (6 * M) - 1) for lam in leaf.eigenvalues) for leaf in leaves]
    assert claim.values == pytest.approx(deviations, rel=1e-12)
    assert claim.passed is True


def test_lapse_rhs_matches_metric_variation_oracle():
    """-(d/dtau) H(fixed surface; interpolated metric) equals the assembled
    right-hand side with the definitional slice curvature (gS - g)/2."""
    from cmclab.models import artificial_data, interpolated

    a = np.array([1.0, 0.0, 0.0])
    model = translated(schwarzschild(M), a)
    grid = build_grid(12)
    surf = SurfaceEmbedding.round_sphere(grid, 16.0, (0.3, 0.0, 0.0))
    tau0, dtau = 0.5, 1e-5
    origin = np.zeros(3)
    Hp = compute_geometry(surf, interpolated(model, tau0 + dtau, anchor=origin)).mean_curvature
    Hm = compute_geometry(surf, interpolated(model, tau0 - dtau, anchor=origin)).mean_curvature
    dH = (Hp - Hm) / (2 * dtau)
    data = artificial_data(model, tau0, factor=0.5, anchor=origin)
    rhs = lapse_rhs(compute_geometry(surf, data.base), data)
    assert np.abs(rhs.values + dH).max() < 1e-8 * np.abs(dH).max()


def evolved_slice(data, t):
    """The first-order evolved slice ``g - 2 t alpha kbar`` (zero shift) as a metric model.

    ``g`` and ``dg`` come from one evaluation of the data per call; ``d2g`` stays the
    base model's, which feeds only the Newton Jacobian.
    """
    base = data.base

    def g(x):
        f = data.evaluate(x)
        return base._g(x) - 2.0 * t * f.lapse[..., None, None] * f.kbar

    def dg(x):
        f = data.evaluate(x)
        d_alpha_kbar = f.lapse_deriv[..., :, None, None] * f.kbar[..., None, :, :]
        return base._dg(x) - 2.0 * t * (d_alpha_kbar + f.lapse[..., None, None, None] * f.kbar_deriv)

    return replace(base, name=f"evolved({base.name}, t={t:g})", _g=g, _dg=dg)


def radial_angular_lapse(data):
    """``data`` with the lapse ``1 + 0.3 x1 / r + 4 / r``, which has radial and angular parts."""

    def fields(x):
        r = np.linalg.norm(x, axis=-1)
        alpha = 1.0 + 0.3 * x[..., 0] / r + 4.0 / r
        r = r[..., None]
        e1 = np.eye(3)[0]
        dalpha = 0.3 * (e1 / r - x[..., 0:1] * x / r**3) - 4.0 * x / r**3
        return replace(data._fields(x), lapse=alpha, lapse_deriv=dalpha)

    return replace(data, _fields=fields)


@pytest.mark.parametrize("lapse", ["schwarzschild", "radial-angular"])
@pytest.mark.parametrize("sigma", [16.0, 64.0])
def test_lapse_rhs_matches_evolved_slice_variation(sigma, lapse):
    """``lapse_rhs`` is ``-d_t H`` of the fixed leaf while the slice evolves by ``-2 alpha kbar``.

    Central differences of the mean curvature in ``g -+ 2 h alpha kbar``, with a lapse
    that has a normal derivative, so the ``(D_nu alpha) tr_Sigma kbar`` term is tested; a
    source with ``tr kbar`` in its place overshoots about threefold.  The step is
    h = 1e-3: the difference is round-off bound below it (at sigma = 64 the error is
    5e-8, against 7e-7 at h = 1e-4 and 7e-9 at h = 1e-2).
    """
    base = schwarzschild(M)
    data = synthetic_data(base, delta=1.0, amplitude=1.0, direction=(0.6, 0.0, 0.8))
    if lapse == "radial-angular":
        data = radial_angular_lapse(data)
    leaf = solve_cmc(base, sigma, SolverConfig(band_limit=32, compute_eigenvalues=False))
    h = 1e-3
    Hp, Hm = (compute_geometry(leaf.surface, evolved_slice(data, t)).mean_curvature for t in (h, -h))
    minus_dH = -(Hp - Hm) / (2.0 * h)
    rhs = lapse_rhs(leaf.geometry, data).values
    assert np.abs(rhs - minus_dH).max() <= 1e-6 * np.abs(minus_dH).max()


@pytest.mark.parametrize("sigma", [16.0, 32.0, 64.0])
@pytest.mark.parametrize("ambient", ["schwarzschild", "odd"])
def test_lapse_velocity_matches_time_oracle(ambient, sigma):
    """``center_velocity_from_lapse`` is the coordinate velocity of the leaf in the evolving slice.

    The oracle solves the leaf in ``g -+ 2 h alpha kbar`` (h = 1e-3, warm-started from
    the leaf) and differences the centers, sharing nothing with ``lapse_rhs``.  On
    odd-perturbed leaves the Newton tolerance sets the floor.
    """
    model = schwarzschild(M) if ambient == "schwarzschild" else perturbed_schwarzschild(M, 0.5, 0.1, "odd")
    data = synthetic_data(model, delta=1.0, amplitude=1.0, direction=(0.6, 0.0, 0.8))
    config = SolverConfig(band_limit=16, compute_eigenvalues=False)
    leaf = solve_cmc(model, sigma, config)
    h = 1e-3
    zp, zm = (solve_cmc(evolved_slice(data, t), sigma, config, initial=leaf.surface).center for t in (h, -h))
    oracle = (zp - zm) / (2.0 * h)
    velocity = center_velocity_from_lapse(leaf.geometry, solve_lapse(leaf.geometry, data))
    bound = 1e-7 if ambient == "schwarzschild" else 1e-4
    assert np.linalg.norm(velocity - oracle) <= bound * np.linalg.norm(oracle)


def test_each_ambient_tensor_is_evaluated_once(monkeypatch):
    """A geometry evaluates g and dg once and d2g only when the potential is first read.

    The momentum and lapse sources reuse the geometry's tensors and evaluate nothing;
    they build neither ``|k|^2`` nor the trace-free part of ``k``.  The momentum
    flux builds no second fundamental form either; the lapse source does.
    """
    calls = Counter()

    def counted(name, method):
        def wrapper(self, x):
            calls[name] += 1
            return method(self, x)

        return wrapper

    for name in ("metric", "metric_deriv", "metric_deriv2"):
        monkeypatch.setattr(MetricModel, name, counted(name, getattr(MetricModel, name)))
    model = perturbed_schwarzschild(M, 0.5, 0.1, "odd")
    data = synthetic_data(model, delta=1.0, amplitude=1.0, direction=(0.6, 0.0, 0.8))
    sphere = SurfaceEmbedding.round_sphere(build_grid(8), 16.0, (0.2, -0.1, 0.3))
    geo = compute_geometry(sphere, model)
    assert calls == {"metric": 1, "metric_deriv": 1}
    calls.clear()
    quasi_local_momentum(geo, data, geo.sigma_scale)
    assert not {"second_derivs", "second_fund", "mean_curvature"} & vars(geo).keys()
    lapse_rhs(geo, data)
    assert "second_fund" in vars(geo)
    assert not calls
    assert "k_norm2" not in vars(geo) and "trace_free" not in vars(geo)
    geo.potential
    assert calls == {"metric_deriv2": 1}
    assert "k_norm2" in vars(geo) and "trace_free" not in vars(geo)
    calls.clear()
    geo.potential
    quasi_local_momentum(geo, data, geo.sigma_scale)
    lapse_rhs(geo, data)
    assert not calls


def counter_of(calls):
    """``counted(name, fn)`` wraps ``fn`` to add one to ``calls[name]`` per call."""

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    return counted


def test_flow_velocity_evaluates_each_reference_once(monkeypatch):
    """One flow velocity evaluates the model's ``g`` and ``dg``, the anchored ``gS`` and ``dgS``
    and the domain check once each: the sphere's metric and ``kbar`` share that evaluation."""
    from cmclab import models, physics

    calls = Counter()
    counted = counter_of(calls)
    odd = perturbed_schwarzschild(M, 0.5, 0.1, "odd")
    model = translated(replace(odd, _g=counted("g", odd._g), _dg=counted("dg", odd._dg)), (0.2, -0.1, 0.3))
    evaluators = models._schwarzschild_evaluators

    def counted_reference(mass):
        gs, dgs, *rest = evaluators(mass)
        return (counted("gS", gs), counted("dgS", dgs), *rest)

    monkeypatch.setattr(models, "_schwarzschild_evaluators", counted_reference)
    monkeypatch.setattr(MetricModel, "_check_domain", counted("domain", MetricModel._check_domain))
    monkeypatch.setattr(physics, "quasi_local_momentum", counted("velocity", physics.quasi_local_momentum))
    flow = artificial_flow_integrate(model, 32.0, tau_steps=1, band_limit=8)
    assert np.all(np.isfinite(flow.centers))
    n = calls["velocity"]
    assert n == 4  # the four stages of one RK4 step
    assert calls == {"velocity": n, "g": n, "dg": n, "gS": n, "dgS": n, "domain": n}


def test_evolution_residual_evaluates_the_data_once(monkeypatch):
    """One ``evolution_residual`` evaluates the data's fields, the momentum density and the
    domain check once each; the record stays on the leaf geometry for that data set."""
    from cmclab import physics

    model = perturbed_schwarzschild(M, 0.5, 0.1, "odd")
    leaf = solve_cmc(model, 32.0, CFG)
    leaf.geometry.potential  # the ambient's d2g, which the lapse solve reads once
    calls = Counter()
    counted = counter_of(calls)
    data = synthetic_data(model, delta=1.0, amplitude=1.0, direction=(0.6, 0.0, 0.8))
    data = replace(data, _fields=counted("fields", data._fields))
    monkeypatch.setattr(physics, "momentum_density", counted("momentum_density", physics.momentum_density))
    monkeypatch.setattr(MetricModel, "_check_domain", counted("domain", MetricModel._check_domain))
    report = evolution_residual(leaf, data)
    once = {"fields": 1, "momentum_density": 1, "domain": 1}
    assert calls == once
    quasi_local_momentum(leaf.geometry, data, leaf.sigma)
    lapse_rhs(leaf.geometry, data)
    assert calls == once
    # another data set on the same leaf gets its own record; the first is then rebuilt
    evolution_residual(leaf, synthetic_data(model, delta=1.0, amplitude=2.0))
    again = evolution_residual(leaf, data)
    assert calls == {"fields": 2, "momentum_density": 3, "domain": 3}
    assert np.array_equal(again.center_velocity, report.center_velocity)
    assert np.array_equal(again.prediction, report.prediction)


def test_artificial_flow_builds_no_ricci_tensor(monkeypatch):
    """Flow velocities integrate momenta on round spheres; none reads the stability potential.

    Nor the second fundamental form: the flow synthesizes ``rho``, ``rho_theta`` and
    ``rho_phi`` once for its sphere at the origin, and each velocity synthesizes only
    ``rho`` for the positivity check of the translated sphere, which shares the chart.
    """
    from cmclab import physics, surfaces

    calls = Counter()

    def counting(module, name):
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    counting(surfaces, "ricci")
    counting(physics, "quasi_local_momentum")
    counting(SphericalGrid, "synthesize_values")
    model = perturbed_schwarzschild(M, 0.5, 0.1, "odd")
    flow = artificial_flow_integrate(model, 32.0, tau_steps=1, band_limit=8)
    assert np.all(np.isfinite(flow.centers))
    assert calls["ricci"] == 0
    assert calls["quasi_local_momentum"] == 4  # the four stages of one RK4 step
    assert calls["synthesize_values"] == 3 + calls["quasi_local_momentum"]


def test_translated_flow_sphere_shares_its_chart_and_matches_a_fresh_sphere():
    """``translate`` hands over the chart; the moved sphere is a fresh ``round_sphere`` bit for bit.

    The flow builds its sphere once at the origin and translates it to each
    stage's center, so every velocity must equal the one of a sphere built there.
    """
    grid = build_grid(12)
    model = perturbed_schwarzschild(M, 0.5, 0.1, "odd")
    data = artificial_data(model, 0.5, anchor=model.exclusion_center)
    origin = SurfaceEmbedding.round_sphere(grid, 32.0)
    for z in ([0.31, -0.17, 0.52], [-2.5, 1.25, 0.0]):
        moved = origin.translate(z)
        assert moved.chart is origin.chart
        assert np.array_equal(moved.center, z)
        fresh = SurfaceEmbedding.round_sphere(grid, 32.0, z)
        assert np.array_equal(moved.positions, fresh.positions)
        a, b = compute_geometry(moved, data.base), compute_geometry(fresh, data.base)
        for name in ("weights_induced", "weights_euclidean", "normal"):
            assert np.array_equal(getattr(a, name), getattr(b, name)), name
        assert np.array_equal(
            quasi_local_momentum(a, data, 32.0).pseudo_momentum,
            quasi_local_momentum(b, data, 32.0).pseudo_momentum,
        )


@pytest.mark.parametrize("ambient", ["odd", "flat"])
def test_on_surface_physics_reuses_the_leaf_geometry(ambient, monkeypatch):
    """A solved leaf carries its converged geometry, and no on-surface function rebuilds it.

    The kept geometry equals a fresh build bit for bit and stays out of the leaf's record.
    """
    if ambient == "odd":
        model = perturbed_schwarzschild(M, 0.5, 0.1, "odd")
        data = synthetic_data(model, delta=1.0, amplitude=1.0, direction=(0.6, 0.0, 0.8))
        sigmas = [16.0, 32.0]
    else:
        model = euclidean()
        data = time_symmetric_data(model)
        sigmas = [4.0, 8.0]
    result = solve_foliation(model, sigmas, SolverConfig(band_limit=12))
    assert result.sigmas == sigmas
    fresh = [compute_geometry(leaf.surface, model) for leaf in result.leaves]

    def refuse(*args, **kwargs):
        raise AssertionError("a SurfaceGeometry was rebuilt")

    monkeypatch.setattr(SurfaceGeometry, "__init__", refuse)
    for leaf, geo in zip(result.leaves, fresh):
        for name in ("mean_curvature", "weights_induced", "normal"):
            assert np.array_equal(getattr(leaf.geometry, name), getattr(geo, name))
        assert leaf.area_radius == geo.sigma_scale
        record = leaf.to_record()
        assert "geometry" not in record
        json.dumps(record)
        if model.mass > 0:
            evolution_residual(leaf, data)
        else:  # the evolution law needs a mass; the lapse solve still runs
            with pytest.raises(ModelError):
                evolution_residual(leaf, data)
            solve_lapse(leaf.geometry, data)
        solve_radial_lapse(leaf)
        quasi_local_momentum(leaf.geometry, data, leaf.sigma)
        low_eigenpairs(leaf.geometry)
