"""CMC solver: oracle radii, equivariance, sweeps, radial lapse."""

import dataclasses
import logging
import re
import types

import numpy as np
import pytest
from scipy.optimize import brentq

from cmclab.errors import ConfigurationError, DomainError, SolverError
from cmclab.models import euclidean, perturbed_schwarzschild, schwarzschild, translated
from cmclab.sphere import build_grid
from cmclab.cmc import (
    _CANONICAL_CENTER_TOL,
    _COARSE_BAND_LIMIT,
    SolverConfig,
    _check_nested,
    solve_cmc,
    solve_foliation,
    solve_radial_lapse,
    target_mean_curvature,
)
from cmclab.surfaces import SurfaceEmbedding, SurfaceGeometry, compute_geometry, euclidean_center, resample


def schwarzschild_sphere_H(m, r):
    phi = 1.0 + m / (2.0 * r)
    return -(phi**-2) * (2.0 / r - 2.0 * m / (r**2 * phi))


def oracle_radius(m, sigma):
    """1-D bisection root of the conformal-sphere curvature, to 1e-12."""
    return brentq(
        lambda r: schwarzschild_sphere_H(m, r) - target_mean_curvature(sigma, m),
        0.5 * sigma,
        2.0 * sigma,
        xtol=1e-13,
        rtol=1e-15,
    )


CFG = SolverConfig(band_limit=16, compute_eigenvalues=False)


def radial_speed(geo):
    """``g(N, nu)``: the normal speed of a unit radial step of the graph."""
    return np.einsum("ni,ni->n", geo.normal_flat, geo.grid.directions)


def newton_step(surface, model, h_target):
    """One Newton update through ``SurfaceGeometry.weak_solve``.

    Returns the updated surface and the residual field ``h_target - H`` of
    the input surface.
    """
    geo = compute_geometry(surface, model)
    residual = h_target - geo.mean_curvature
    u, _ = geo.weak_solve(residual)
    du = geo.grid.analyze_values(geo.grid.synthesize_values(u) / radial_speed(geo))
    return surface.with_radius(surface.rho_coeffs + du), residual


def test_target_mean_curvature_values():
    assert target_mean_curvature(10.0, 1.0) == pytest.approx(-0.16, abs=1e-15)
    assert target_mean_curvature(2.0, 0.0) == pytest.approx(-1.0, abs=1e-15)
    assert -1e-3 < target_mean_curvature(1e4, 1.0) < 0
    with pytest.raises(ConfigurationError):
        target_mean_curvature(3.9, 1.0)


def test_newton_step_on_exact_leaf_is_identity():
    grid = build_grid(12)
    sigma = 6.0
    s = SurfaceEmbedding.round_sphere(grid, sigma)
    new, residual = newton_step(s, euclidean(), -2.0 / sigma)
    assert np.abs(residual).max() * sigma**2 < 1e-12
    assert np.abs(new.radius_values - sigma).max() < 1e-12


def test_newton_step_matches_1d_newton():
    """On a Euclidean sphere the weak-form step is the scalar Newton step."""
    grid = build_grid(12)
    sigma, h = 100.0, 0.01
    r0 = sigma + h
    s = SurfaceEmbedding.round_sphere(grid, r0)
    new, _ = newton_step(s, euclidean(), -2.0 / sigma)
    r1_scalar = r0 + r0 * (sigma - r0) / sigma  # Newton on r -> -2/r
    rho = new.radius_values
    assert np.abs(rho - r1_scalar).max() < 1e-8
    assert np.abs(rho - sigma).max() < 2e-6  # lands at sigma - h^2/sigma


def test_solve_cmc_matches_bisection_oracle():
    m, sigma = 1.0, 10.0
    leaf = solve_cmc(schwarzschild(m), sigma, CFG)
    rstar = oracle_radius(m, sigma)
    rho = leaf.surface.radius_values
    assert rstar == pytest.approx(10.3205692885, abs=1e-6)
    assert abs(rho.mean() - rstar) / rstar < 1e-8
    assert (rho.max() - rho.min()) / rho.mean() < 1e-8  # concentric coordinate sphere
    assert leaf.residual <= CFG.newton_tol


def test_solve_cmc_translation_equivariance():
    m, sigma = 1.0, 10.0
    a = np.array([5.0, 0.0, 0.0])
    base = solve_cmc(schwarzschild(m), sigma, CFG)
    shifted = solve_cmc(translated(schwarzschild(m), a), sigma, CFG)
    assert np.abs(shifted.center - (base.center + a)).max() < 1e-8
    assert np.abs(shifted.surface.radius_values - base.surface.radius_values).max() < 1e-8


def test_solve_cmc_initial_guess_independence():
    model = perturbed_schwarzschild(1.0, 0.5, 0.1, "odd")
    sigma = 12.0
    grid = build_grid(CFG.band_limit)
    leaves = []
    for factor in (0.95, 1.0, 1.05):
        init = SurfaceEmbedding.round_sphere(grid, factor * sigma)
        leaves.append(solve_cmc(model, sigma, CFG, initial=init))
    for leaf in leaves[1:]:
        assert np.abs(leaf.surface.radius_values - leaves[0].surface.radius_values).max() < 1e-8
        assert np.abs(leaf.center - leaves[0].center).max() < 1e-8


def test_solve_cmc_perturbed_center_growth_bound():
    model = perturbed_schwarzschild(1.0, 0.5, 0.1, "odd")
    leaf = solve_cmc(model, 16.0, CFG)
    assert leaf.residual <= CFG.newton_tol
    assert np.linalg.norm(leaf.center) <= 5.0 * 16.0**0.5


def test_sigma_floor_enforced():
    with pytest.raises(ConfigurationError):
        solve_cmc(schwarzschild(1.0), 6.0, CFG)


def test_solver_error_when_iteration_budget_too_small():
    tiny = SolverConfig(band_limit=8, max_newton=1, compute_eigenvalues=False)
    grid = build_grid(8)
    init = SurfaceEmbedding.round_sphere(grid, 14.0)
    with pytest.raises(SolverError):
        solve_cmc(schwarzschild(1.0), 10.0, tiny, initial=init)


def test_solve_foliation_schwarzschild():
    result = solve_foliation(schwarzschild(1.0), [8.0, 16.0, 32.0], CFG)
    assert len(result.leaves) == 3
    assert not result.failures
    radii = [leaf.surface.radius_values.mean() for leaf in result.leaves]
    for sigma, r in zip([8.0, 16.0, 32.0], radii):
        assert abs(r - oracle_radius(1.0, sigma)) / r < 1e-8
    assert radii[0] < radii[1] < radii[2]
    assert result.nested is True


@pytest.mark.parametrize("band_limit", [16, 24, 32])
def test_large_sigma_sweep_reaches_krylov_tolerance(band_limit):
    """Leaves up to sigma = 8192 m: the l = 1 conditioning (~ sigma / 3m) sets
    the preconditioned residual's round-off floor, and the Krylov tolerance follows it."""
    config = SolverConfig(band_limit=band_limit, compute_eigenvalues=False)
    result = solve_foliation(schwarzschild(1.0), [16.0, 1024.0, 8192.0], config)
    assert not result.failures
    assert [leaf.sigma for leaf in result.leaves] == [16.0, 1024.0, 8192.0]
    assert all(leaf.residual <= config.newton_tol for leaf in result.leaves)


def test_cold_solve_at_very_large_sigma():
    """A round-sphere start at sigma = 16384 m, where cond(block) is about 5500."""
    config = SolverConfig(band_limit=16, compute_eigenvalues=False)
    leaf = solve_cmc(schwarzschild(1.0), 16384.0, config)
    assert leaf.residual <= config.newton_tol


def test_solve_foliation_empty_and_partial():
    assert solve_foliation(schwarzschild(1.0), [], CFG).leaves == []
    tiny = SolverConfig(band_limit=8, max_newton=2, compute_eigenvalues=False)
    result = solve_foliation(schwarzschild(1.0), [8.0, 16.0], tiny)
    assert len(result.leaves) + len(result.failures) == 2
    if result.failures:
        assert "sigma" in result.failures[0]


def test_domain_error_is_a_per_leaf_failure():
    """A leaf inside the exclusion ball fails alone; the sweep goes on."""
    model = dataclasses.replace(schwarzschild(1.0), r_min=10.0)
    result = solve_foliation(model, [8.0, 16.0, 32.0], CFG)
    assert [f["sigma"] for f in result.failures] == [8.0]
    assert result.failures[0]["kind"] == "DomainError"
    assert result.sigmas == [16.0, 32.0]
    tiny = SolverConfig(band_limit=8, max_newton=1, compute_eigenvalues=False)
    failures = solve_foliation(schwarzschild(1.0), [8.0], tiny).failures
    assert [f["kind"] for f in failures] == ["SolverError"]


def test_indefinite_ambient_metric_is_a_domain_error_leaf():
    """A leaf where the metric is not positive definite fails as a DomainError.

    The large odd perturbation makes ``g = ((1 + 1/16)^4 - 40 * 8 / 8^2.5) delta``
    negative definite at ``x = (-8, 0, 0)`` on the sigma = 8 start sphere.
    """
    model = perturbed_schwarzschild(1.0, 0.5, 40.0, "odd")
    config = SolverConfig(band_limit=12, compute_eigenvalues=False)
    failures = solve_foliation(model, [8.0], config).failures
    assert [(f["sigma"], f["kind"]) for f in failures] == [(8.0, "DomainError")]
    assert "not positive definite" in failures[0]["error"]


def test_newton_debug_line_reports_krylov_iterations(caplog):
    """Every Newton step, positive mass or flat, at either band limit, logs its GMRES iteration count.

    ``krylov_iterations`` holds the same counts, one per step, in its record too.
    """
    cases = [
        (perturbed_schwarzschild(1.0, 0.5, 0.1, "odd"), 16.0, None),
        (euclidean(), 4.0, SurfaceEmbedding.round_sphere(build_grid(16), 3.0)),
    ]
    for model, sigma, initial in cases:
        caplog.clear()
        with caplog.at_level(logging.DEBUG, logger="cmclab.cmc"):
            leaf = solve_cmc(model, sigma, CFG, initial=initial)
        steps = [r.getMessage() for r in caplog.records if "krylov=" in r.getMessage()]
        assert leaf.iterations > 0 and len(steps) == leaf.iterations
        for line in steps:
            assert re.search(r"krylov=\d+$", line), line
        logged = [int(line.rsplit("krylov=", 1)[1]) for line in steps]
        assert logged == list(leaf.krylov_iterations) == leaf.to_record()["krylov_iterations"]


def test_foliation_nested_on_perturbed_model():
    model = perturbed_schwarzschild(1.0, 0.5, 0.1, "odd")
    result = solve_foliation(model, [10.0, 14.0], SolverConfig(band_limit=12, compute_eigenvalues=False))
    assert result.nested is True


@pytest.mark.parametrize(
    "outer_center, outer_radius, nested",
    [
        ((0.0, 0.0, 0.0), 1.5, True),
        ((0.3, -0.2, 0.1), 1.5, True),
        ((0.6, 0.0, 0.0), 1.5, False),
        ((10.0, 0.0, 0.0), 2.0, False),
    ],
    ids=["concentric", "offset", "crossing", "disjoint"],
)
def test_check_nested_pairs(outer_center, outer_radius, nested):
    """Disjoint leaves are not nested, and the check does not raise on them."""
    grid = build_grid(12)
    c = np.zeros(grid.n_coeffs)
    c[grid.coeff_index(2, 1)] = 0.05
    inner = SurfaceEmbedding.round_sphere(grid, 1.0)
    inner = inner.with_radius(inner.rho_coeffs + c)
    outer = SurfaceEmbedding.round_sphere(grid, outer_radius, outer_center)
    leaves = [types.SimpleNamespace(surface=inner), types.SimpleNamespace(surface=outer)]
    assert _check_nested(leaves) is nested


def test_foliation_requires_increasing_schedule():
    with pytest.raises(ConfigurationError):
        solve_foliation(schwarzschild(1.0), [16.0, 8.0], CFG)


def test_radial_lapse_near_one_plus_m_over_sigma():
    m, sigma = 1.0, 16.0
    leaf = solve_cmc(schwarzschild(m), sigma, CFG)
    lapse = solve_radial_lapse(leaf)
    u = lapse.field.values
    assert np.abs(u - (1.0 + m / sigma)).max() <= 0.1
    assert lapse.deviation_w1inf <= 0.2


def test_radial_lapse_matches_bisection_oracle():
    """On exact Schwarzschild, u equals phi^2 dr/dsigma of the 1-D root."""
    m = 1.0
    model = schwarzschild(m)
    for sigma in (16.0, 32.0):
        leaf = solve_cmc(model, sigma, CFG)
        u = solve_radial_lapse(leaf).field.values
        h = 1e-5
        rp, rm = oracle_radius(m, sigma + h), oracle_radius(m, sigma - h)
        r0 = oracle_radius(m, sigma)
        expected = (1.0 + m / (2.0 * r0)) ** 2 * (rp - rm) / (2.0 * h)
        assert np.abs(u - expected).max() < 1e-5


def test_radial_lapse_flat_limit_is_one():
    leaf = solve_cmc(euclidean(), 8.0, CFG)
    lapse = solve_radial_lapse(leaf)
    assert np.abs(lapse.field.values - 1.0).max() < 1e-10


def test_radial_lapse_matches_leaf_finite_difference():
    """u agrees with the normal-speed finite difference of neighboring leaves."""
    m, sigma, h = 1.0, 12.0, 0.05
    model = schwarzschild(m)
    cfg = SolverConfig(band_limit=12, compute_eigenvalues=False)
    leaf = solve_cmc(model, sigma, cfg)
    plus = solve_cmc(model, sigma + h, cfg)
    minus = solve_cmc(model, sigma - h, cfg)
    drho = (plus.surface.radius_values - minus.surface.radius_values) / (2 * h)
    geo = leaf.geometry
    # normal speed = radial speed * gbar(N, nu)
    proj = np.einsum("ni,nij,nj->n", geo.grid.directions, geo.gbar, geo.normal)
    fd_u = drho * proj
    u = solve_radial_lapse(leaf).field.values
    assert np.abs(fd_u - u).max() < 5.0 * h


def test_converged_H_error_drops_with_band_limit():
    """Curvature error at the discrete fixed point scales like truncation.

    Each solve is driven past its stopping tolerance with extra Newton
    steps so the fine-grid error shows the band-limit floor, not the
    stopping criterion.
    """
    model = perturbed_schwarzschild(1.0, 0.6, 0.45, "odd")
    sigma = 10.0
    h_target = target_mean_curvature(sigma, model.mass)
    fine = build_grid(24)
    errors = []
    for L in (8, 16):
        cfg = SolverConfig(band_limit=L, newton_tol=1e-5, compute_eigenvalues=False)
        surface = solve_cmc(model, sigma, cfg).surface
        for _ in range(12):
            surface, _ = newton_step(surface, model, h_target)
        refined = surface.on_grid(fine)
        H = compute_geometry(refined, model).mean_curvature
        errors.append(np.abs(H - h_target).max() * sigma**2)
    assert errors[0] / errors[1] >= 10.0


def test_leaf_area_and_trace_free_bounds():
    """| |Sigma| - 4 pi sigma^2 | <= C sigma and ||ktf||_inf <= C'/sigma^2.

    The fitted constants are reported against loose caps; on the exact
    Schwarzschild family the trace-free part is zero to round-off, so the
    second bound is exercised on a perturbed model.
    """
    model = schwarzschild(1.0)
    area_consts = []
    for sigma in (8.0, 16.0, 32.0):
        geo = solve_cmc(model, sigma, CFG).geometry
        area_consts.append(abs(geo.area - 4 * np.pi * sigma**2) / sigma)
        ktf_inf = np.sqrt(np.maximum(geo.trace_free_norm2, 0)).max()
        assert ktf_inf <= 1e-10 / sigma**2 + 1e-12  # round spheres are umbilic
    assert max(area_consts) <= 60.0
    assert area_consts[0] == pytest.approx(area_consts[-1], rel=0.5)  # O(sigma) scaling

    odd = perturbed_schwarzschild(1.0, 0.5, 0.1, "odd")
    consts = []
    for sigma in (8.0, 16.0, 32.0):
        geo = solve_cmc(odd, sigma, CFG).geometry
        consts.append(np.sqrt(np.maximum(geo.trace_free_norm2, 0)).max() * sigma**2)
    assert max(consts) <= 10.0


QUADRATIC_MODEL = translated(perturbed_schwarzschild(1.0, 0.5, 0.1, "odd"), (0.3, -0.2, 0.1))


@pytest.fixture(scope="module")
def cold_leaves():
    """Cold (round-sphere start) leaves of the translated odd model at L = 16."""
    return {sigma: solve_cmc(QUADRATIC_MODEL, sigma, CFG) for sigma in (16.0, 32.0)}


def test_cold_solve_converges_quadratically(cold_leaves):
    """The radial step ``u / g(N, nu)`` is the Newton step: a few iterations per leaf.

    Adding the normal speed ``u`` itself to the radial field misses by about
    ``m / sigma`` and converged linearly (8 and 7 iterations here).
    """
    for sigma, leaf in cold_leaves.items():
        assert leaf.residual <= CFG.newton_tol
        assert leaf.iterations <= 4, (sigma, leaf.iterations)


def traced_solve(monkeypatch, *args, **kwargs):
    """``solve_cmc`` with its resample calls: ``(leaf, recentered, resamples)``.

    ``recentered`` holds the index ``k`` of every Newton step, the one
    between convergence checks ``k`` and ``k + 1``, that resampled its iterate.
    """
    from cmclab import cmc

    events = []

    def record(name, fn):
        def wrapper(*a, **k):
            events.append(name)
            return fn(*a, **k)

        return wrapper

    with monkeypatch.context() as mp:
        mp.setattr(cmc, "compute_geometry", record("geometry", cmc.compute_geometry))
        mp.setattr(cmc, "resample", record("resample", cmc.resample))
        leaf = solve_cmc(*args, **kwargs)
    recentered, step = set(), -1
    for name in events:
        if name == "geometry":
            step += 1
        else:
            recentered.add(step)
    return leaf, recentered, events.count("resample")


def test_newton_residual_history_is_quadratic(cold_leaves, monkeypatch):
    """``newton_residuals`` holds every convergence check, one Newton step apart at each band limit; each step squares the residual.

    The checks run on the coarse grid first, then on the full one; the
    handover between the two takes no step, and the quadratic bound holds
    between checks at one band limit.  Here every coarse pass ends
    converged, so its last check is not a stalled one.  Measured ratios
    ``r_{k+1} / r_k^2`` lie in 0.005-0.7 at sigma = 16-64; below ``floor``
    the residual is round-off.  A step that resamples its iterate about the
    centroid also carries the resampling noise, and is held to
    ``newton_tol`` instead.  The Schwarzschild leaf is never resampled.
    """
    C, floor = 2.0, 1e-12
    kinds = set()
    for model, sigma in ((QUADRATIC_MODEL, 16.0), (QUADRATIC_MODEL, 32.0), (schwarzschild(1.0), 32.0)):
        leaf, recentered, _ = traced_solve(monkeypatch, model, sigma, CFG)
        if model is QUADRATIC_MODEL:
            assert leaf.newton_residuals == cold_leaves[sigma].newton_residuals
        history, band_limits = leaf.newton_residuals, leaf.newton_band_limits
        assert history[-1] == leaf.residual <= CFG.newton_tol
        passes = [L for k, L in enumerate(band_limits) if k == 0 or band_limits[k - 1] != L]
        assert passes == [_COARSE_BAND_LIMIT, CFG.band_limit]
        assert len(history) - len(passes) == leaf.iterations
        for k, (r, r_next) in enumerate(zip(history, history[1:])):
            if band_limits[k] != band_limits[k + 1]:
                continue
            kinds.add(k in recentered)
            bound = CFG.newton_tol if k in recentered else floor
            assert r_next <= max(C * r**2, bound), (sigma, k, history)
        record = leaf.to_record()
        assert record["newton_residuals"] == list(history)
        assert record["newton_band_limits"] == list(band_limits)
        assert record["iterations"] == leaf.iterations
    assert kinds == {True, False}


def test_leaf_center_is_the_centroid_on_the_parametrization_center(cold_leaves):
    """Cold, swept and off-center-started leaves: ``center`` is the centroid, within ``_CANONICAL_CENTER_TOL * sigma`` of the grid center.

    The off-center start is a solved leaf parametrized about a point 0.01 sigma
    from its centroid.  Its residual (about 1e-10, resampling noise) already
    meets a ``newton_tol`` of 1e-8, so only the centroid check keeps the loop
    from returning it as it is.
    """
    swept = solve_foliation(QUADRATIC_MODEL, [16.0, 32.0, 64.0], CFG).leaves
    loose = dataclasses.replace(CFG, newton_tol=1e-8)
    shifted = []
    for sigma, cold in cold_leaves.items():
        initial = resample(cold.surface, cold.surface.center + [0.01 * sigma, 0.0, 0.0])
        shifted.append(solve_cmc(QUADRATIC_MODEL, sigma, loose, initial=initial))
        assert shifted[-1].newton_residuals[0] <= loose.newton_tol
    for leaf in list(cold_leaves.values()) + swept + shifted:
        assert np.array_equal(leaf.center, euclidean_center(leaf.surface))
        assert np.linalg.norm(leaf.center - leaf.surface.center) <= _CANONICAL_CENTER_TOL * leaf.sigma


def test_recenters_counts_the_resampled_iterates(cold_leaves, monkeypatch):
    """Schwarzschild leaves are never resampled; cold translated odd leaves are, once per resample call."""
    for leaf in solve_foliation(schwarzschild(1.0), [8.0, 16.0, 32.0], CFG).leaves:
        assert leaf.recenters == 0
    for sigma, cold in cold_leaves.items():
        assert cold.recenters >= 1
        leaf, _, resamples = traced_solve(monkeypatch, QUADRATIC_MODEL, sigma, CFG)
        assert leaf.recenters == resamples == cold.recenters
        assert leaf.to_record()["recenters"] == resamples


def test_divergence_guard_fails_the_leaf(monkeypatch):
    """Newton steps of the wrong sign raise the residual; three increases in a row fail each leaf."""
    weak_solve = SurfaceGeometry.weak_solve

    def backwards(self, rhs_values, check_kernel_load=False):
        u, krylov = weak_solve(self, rhs_values, check_kernel_load)
        return -u, krylov

    monkeypatch.setattr(SurfaceGeometry, "weak_solve", backwards)
    config = SolverConfig(band_limit=12, compute_eigenvalues=False)
    failures = solve_foliation(schwarzschild(1.0), [16.0, 32.0], config).failures
    assert [(f["sigma"], f["kind"]) for f in failures] == [(16.0, "DivergenceError"), (32.0, "DivergenceError")]
    assert all("residual increased 3 consecutive steps" in f["error"] for f in failures)


def test_max_newton_caps_the_steps_of_a_leaf():
    """A cold odd-perturbed leaf at sigma = 32 takes 3 Newton steps: a cap of 2 fails it, 3 suffices."""
    model = perturbed_schwarzschild(1.0, 0.5, 0.1, "odd")
    with pytest.raises(SolverError, match="in 2 iterations"):
        solve_cmc(model, 32.0, dataclasses.replace(CFG, max_newton=2))
    leaf = solve_cmc(model, 32.0, dataclasses.replace(CFG, max_newton=3))
    assert leaf.iterations == 3 and leaf.residual <= CFG.newton_tol


def test_newton_jacobian_matches_finite_differences(cold_leaves):
    """Central differences of ``H`` along the radial step ``u / g(N, nu)`` give ``L u``.

    The error falls by 4 when ``h`` halves (second order).  The radial step
    ``u`` itself misses ``L u`` by about ``m / sigma`` (3.1e-2 at sigma = 32,
    6.3e-2 at sigma = 16), whatever ``h``.
    """
    for sigma, leaf in cold_leaves.items():
        geo, grid = leaf.geometry, leaf.geometry.grid
        rng = np.random.default_rng(5)
        c = np.zeros(grid.n_coeffs)
        low = grid.coeff_l <= 6
        c[low] = rng.standard_normal(int(low.sum()))
        u = grid.synthesize_values(c)
        u /= np.abs(u).max()
        Lu = geo.apply_operator(u)
        rho = leaf.surface.radius_values

        def rel_error(step, h):
            def H(values):
                bumped = SurfaceEmbedding.from_radial_values(grid, values, leaf.surface.center)
                return compute_geometry(bumped, QUADRATIC_MODEL).mean_curvature

            fd = (H(rho + h * step) - H(rho - h * step)) / (2.0 * h)
            return np.abs(fd - Lu).max() / np.abs(Lu).max()

        e1, e2 = rel_error(u / radial_speed(geo), 1e-2), rel_error(u / radial_speed(geo), 5e-3)
        assert e1 <= 1e-5 and e2 <= 2.5e-6
        assert 3.0 <= e1 / e2 <= 5.0
        miss = rel_error(u, 5e-3)
        assert 0.5 * sigma ** -1 <= miss <= 2.0 * sigma ** -1


HANDOVER_SIGMAS = [8.0, 10.0, 12.0, 16.0]


@pytest.mark.parametrize("band_limit", [16, 34])
@pytest.mark.parametrize("amplitude", [0.5, 1.0])
def test_coarse_pass_hands_strongly_perturbed_leaves_to_the_full_grid(amplitude, band_limit):
    """Strong odd perturbations, far off center: every leaf meets the full-band-limit contract.

    There the coarse residual stalls at 1e-10-1e-8, the truncation error of
    re-centering an L = 8 graph, so the coarse pass must stop at the stall
    and hand over its last decreasing iterate, not raise.
    """
    model = translated(perturbed_schwarzschild(1.0, 0.5, amplitude, "odd"), (0.3, -0.2, 0.4))
    config = SolverConfig(band_limit=band_limit, compute_eigenvalues=False)
    result = solve_foliation(model, HANDOVER_SIGMAS, config)
    assert not result.failures
    assert result.sigmas == HANDOVER_SIGMAS and result.nested is True
    h_target = {sigma: target_mean_curvature(sigma, model.mass) for sigma in HANDOVER_SIGMAS}
    for leaf in result.leaves:
        assert leaf.surface.grid.band_limit == leaf.newton_band_limits[-1] == band_limit
        assert leaf.newton_band_limits[0] == _COARSE_BAND_LIMIT
        assert leaf.residual <= config.newton_tol
        fresh = compute_geometry(leaf.surface, model).mean_curvature
        assert np.abs(fresh - h_target[leaf.sigma]).max() * leaf.sigma**2 == leaf.residual
        assert np.linalg.norm(leaf.center - leaf.surface.center) <= _CANONICAL_CENTER_TOL * leaf.sigma


@pytest.mark.parametrize("error", [SolverError, DomainError])
def test_failed_coarse_pass_hands_over_the_start(cold_leaves, monkeypatch, error):
    """A coarse pass that raises leaves the leaf to the full grid from its own start: cold and warm."""
    weak_solve = SurfaceGeometry.weak_solve

    def refuse_coarse(self, rhs_values, check_kernel_load=False):
        if self.grid.band_limit == _COARSE_BAND_LIMIT:
            raise error("refused on the coarse grid")
        return weak_solve(self, rhs_values, check_kernel_load)

    monkeypatch.setattr(SurfaceGeometry, "weak_solve", refuse_coarse)
    grid = build_grid(CFG.band_limit)
    cold = SurfaceEmbedding.round_sphere(grid, 32.0, QUADRATIC_MODEL.exclusion_center)
    warm = cold_leaves[16.0].surface
    warm = SurfaceEmbedding(grid, warm.center, 2.0 * warm.rho_coeffs)
    h_target = target_mean_curvature(32.0, QUADRATIC_MODEL.mass)
    for initial in (None, warm):
        leaf = solve_cmc(QUADRATIC_MODEL, 32.0, CFG, initial=initial)
        assert leaf.newton_band_limits[0] == _COARSE_BAND_LIMIT
        assert set(leaf.newton_band_limits[1:]) == {CFG.band_limit}
        assert leaf.iterations == len(leaf.newton_residuals) - 2 == len(leaf.krylov_iterations)
        start = compute_geometry(cold if initial is None else initial, QUADRATIC_MODEL)
        assert leaf.newton_residuals[1] == np.abs(h_target - start.mean_curvature).max() * 32.0**2
        assert leaf.residual <= CFG.newton_tol
        assert np.linalg.norm(leaf.center - leaf.surface.center) <= _CANONICAL_CENTER_TOL * 32.0


#: the odd-perturbed, translated model of the report gate (tools/report_delta.py)
REPORT_GATE_MODEL = translated(perturbed_schwarzschild(1.0, 0.5, 0.1, "odd"), (0.21, -0.13, 0.37))


def test_sweep_checks_each_leaf_once_at_the_full_band_limit(monkeypatch):
    """The padded coarse leaf already meets ``newton_tol`` at L = 24: one full-grid geometry per leaf."""
    from cmclab import cmc

    built = []

    def record(surface, model):
        built.append(surface.grid.band_limit)
        return compute_geometry(surface, model)

    monkeypatch.setattr(cmc, "compute_geometry", record)
    config = SolverConfig(band_limit=24, compute_eigenvalues=False)
    result = solve_foliation(REPORT_GATE_MODEL, [16.0, 32.0, 64.0], config)
    assert result.sigmas == [16.0, 32.0, 64.0]
    assert built.count(24) == len(result.leaves) == 3
    for leaf in result.leaves:
        assert leaf.newton_band_limits.count(24) == 1
        assert leaf.to_record()["newton_band_limits"] == list(leaf.newton_band_limits)
        assert leaf.residual <= config.newton_tol


def test_leaf_does_not_depend_on_its_schedule():
    """A sweep's last leaf, a one-leaf sweep and a lone solve at the same sigma give the same record."""
    records = [
        solve_foliation(REPORT_GATE_MODEL, [16.0, 32.0, 64.0], CFG).leaves[-1].to_record(),
        solve_foliation(REPORT_GATE_MODEL, [64.0], CFG).leaves[0].to_record(),
        solve_cmc(REPORT_GATE_MODEL, 64.0, CFG).to_record(),
    ]
    assert records[0] == records[1] == records[2]
