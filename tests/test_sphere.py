"""Grid, transform, and differential-operator checks on the unit sphere."""

import numpy as np
import pytest
from scipy.special import sph_harm_y_all
from hypothesis import given, settings
from hypothesis import strategies as st

from cmclab.errors import ConfigurationError, GridMismatchError
from cmclab.models import euclidean
from cmclab.sphere import DEGREE_ONE_SCALE, FOUR_PI, ScalarField, _legendre_tables, build_grid
from cmclab.surfaces import SurfaceEmbedding, compute_geometry


def unit_coeffs(grid, l, m):
    c = np.zeros(grid.n_coeffs)
    c[grid.coeff_index(l, m)] = 1.0
    return c


def low_modes(grid, values):
    """Mean and Cartesian degree-one components ``(f0, a)`` of ``f = f0 + a . n + ...``."""
    c = grid.analyze_values(values)
    f0 = c[grid.coeff_index(0, 0)] / np.sqrt(FOUR_PI)
    a = np.array([c[grid.coeff_index(1, m)] for m in (1, -1, 0)]) / DEGREE_ONE_SCALE
    return float(f0), a


def test_grid_node_count_and_weight_sum():
    grid = build_grid(4)
    assert grid.n_nodes == 50
    assert grid.weights.sum() == pytest.approx(FOUR_PI, rel=1e-14)
    assert build_grid(32).n_nodes == 2178


def test_grid_rejects_small_band_limit():
    with pytest.raises(ConfigurationError):
        build_grid(3)


def test_quadrature_kills_harmonics_up_to_twice_band_limit():
    """The product rule integrates Y_lm exactly for l <= 2L."""
    grid = build_grid(8)
    L2 = 2 * grid.band_limit
    Q, _, _ = _legendre_tables(L2, grid.cos_theta, derivatives=False)
    for l, m in [(1, 0), (5, 3), (11, -7), (16, 16), (16, 0), (13, -1)]:
        tab = Q[abs(m), l]
        if m == 0:
            vals = np.repeat(tab, grid.n_phi)
        elif m > 0:
            vals = np.sqrt(2) * np.repeat(tab, grid.n_phi) * np.cos(m * grid.node_phi)
        else:
            vals = np.sqrt(2) * np.repeat(tab, grid.n_phi) * np.sin(-m * grid.node_phi)
        assert abs(grid.integrate_values(vals)) < 1e-12


def test_analyze_single_harmonic():
    grid = build_grid(6)
    c = grid.analyze_values(grid.synthesize_values(unit_coeffs(grid, 2, 1)))
    expected = unit_coeffs(grid, 2, 1)
    assert np.allclose(c, expected, atol=1e-13)


def test_constant_field_coefficient():
    grid = build_grid(5)
    c = grid.analyze_values(np.ones(grid.n_nodes))
    assert c[0] == pytest.approx(np.sqrt(FOUR_PI), rel=1e-14)
    assert np.max(np.abs(c[1:])) < 1e-14


def test_round_trip_random_band_limited():
    grid = build_grid(16)
    rng = np.random.default_rng(7)
    c = rng.standard_normal(grid.n_coeffs)
    f = grid.synthesize_values(c)
    err = np.abs(grid.analyze_values(f) - c).max() / np.abs(c).max()
    assert err < 1e-12


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=4, max_value=12), st.integers(min_value=0, max_value=2**32 - 1))
def test_round_trip_property(L, seed):
    grid = build_grid(L)
    c = np.random.default_rng(seed).standard_normal(grid.n_coeffs)
    back = grid.analyze_values(grid.synthesize_values(c))
    assert np.abs(back - c).max() <= 1e-12 * max(1.0, np.abs(c).max())


def test_parseval():
    grid = build_grid(12)
    rng = np.random.default_rng(3)
    c = rng.standard_normal(grid.n_coeffs)
    f = grid.synthesize_values(c)
    lhs = np.sum(c**2)
    rhs = grid.integrate_values(f**2)
    assert lhs == pytest.approx(rhs, rel=1e-10)


def test_integrate_examples():
    grid = build_grid(8)
    assert grid.integrate_values(np.ones(grid.n_nodes)) == pytest.approx(FOUR_PI, rel=1e-14)
    nu1 = grid.directions[:, 0]
    assert grid.integrate_values(nu1**2) == pytest.approx(FOUR_PI / 3, rel=1e-13)
    y32 = grid.synthesize_values(unit_coeffs(grid, 3, 2))
    assert abs(grid.integrate_values(y32)) < 1e-13


def test_integrate_weighted_and_grid_mismatch():
    grid = build_grid(6)
    f = np.ones(grid.n_nodes)
    w = grid.directions[:, 2] ** 2
    assert grid.integrate_values(f * w) == pytest.approx(FOUR_PI / 3, rel=1e-13)


def test_node_level_laplacian_matches_eigenvalue():
    """Chart second derivatives reproduce Delta Y = -l(l+1) Y at the nodes."""
    grid = build_grid(10)
    st_nodes = np.repeat(grid.sin_theta, grid.n_phi)
    ct_nodes = np.repeat(grid.cos_theta, grid.n_phi)
    for l, m in [(3, 2), (6, -4), (10, 10), (5, 0)]:
        c = unit_coeffs(grid, l, m)
        f = grid.synthesize_values(c)
        ftt = grid.synthesize_values(c, dtheta=2)
        ft = grid.synthesize_values(c, dtheta=1)
        fpp = grid.synthesize_values(c, dphi=2)
        lap = ftt + (ct_nodes / st_nodes) * ft + fpp / st_nodes**2
        assert np.abs(lap + l * (l + 1.0) * f).max() < 1e-9 * (1 + l * (l + 1.0))


def test_mixed_derivative_against_analytic_field():
    """d2/(dtheta dphi) of band-limited fields matches closed forms."""
    grid = build_grid(8)
    th, ph = grid.node_theta, grid.node_phi
    cases = [
        (np.sin(th) * np.cos(ph), np.cos(th) * -np.sin(ph)),
        (np.cos(th) * np.sin(th) * np.cos(ph), np.cos(2 * th) * -np.sin(ph)),
    ]
    for f, expected in cases:
        mixed = grid.synthesize_values(grid.analyze_values(f), dtheta=1, dphi=1)
        assert np.abs(mixed - expected).max() < 1e-11


def tangential_gradient(geo, values):
    """Surface gradient ``a^IJ d_J f t_I`` of a node scalar in ambient components (n, 3)."""
    df = geo.chart_derivs(values)
    return np.einsum("nIJ,nJ,nIa->na", geo.induced_inv, df, geo.tangents)


def test_tangential_gradient_norm_and_tangency():
    grid = build_grid(10)
    geo = compute_geometry(SurfaceEmbedding.round_sphere(grid, 1.0), euclidean())
    for l, m in [(1, 1), (4, -3), (6, 0)]:
        grad = tangential_gradient(geo, grid.synthesize_values(unit_coeffs(grid, l, m)))
        norm2 = grid.integrate_values(np.sum(grad**2, axis=1))
        assert norm2 == pytest.approx(l * (l + 1.0), rel=1e-11)
        radial = np.abs(np.sum(grad * grid.directions, axis=1)).max()
        assert radial < 1e-12 * (1 + np.abs(grad).max())


def test_project_low_modes_examples():
    grid = build_grid(8)
    nu = grid.directions
    f0, a = low_modes(grid, 5.0 + nu[:, 2])
    assert f0 == pytest.approx(5.0, abs=1e-13)
    assert np.allclose(a, [0, 0, 1], atol=1e-13)

    y20 = grid.synthesize_values(unit_coeffs(grid, 2, 0))
    f0, a = low_modes(grid, y20)
    assert abs(f0) < 1e-14
    assert np.allclose(a, 0, atol=1e-14)

    f0, a = low_modes(grid, nu[:, 0] + 2 * nu[:, 1])
    assert abs(f0) < 1e-14
    assert np.allclose(a, [1, 2, 0], atol=1e-13)


def test_projection_remainder_orthogonal():
    grid = build_grid(9)
    rng = np.random.default_rng(5)
    f = grid.synthesize_values(rng.standard_normal(grid.n_coeffs))
    f0, a = low_modes(grid, f)
    rem = f - f0 - grid.directions @ a
    assert abs(grid.integrate_values(rem)) < 1e-12 * (1 + np.abs(f).max())
    for i in range(3):
        assert abs(grid.integrate_values(rem * grid.directions[:, i])) < 1e-12 * (
            1 + np.abs(f).max()
        )


def test_evaluate_matches_grid_synthesis():
    grid = build_grid(7)
    rng = np.random.default_rng(13)
    c = rng.standard_normal(grid.n_coeffs)
    f = grid.synthesize_values(c)
    vals = grid.evaluate(c, grid.directions)
    assert np.abs(vals - f).max() < 1e-11 * np.abs(f).max()


def legendre_table_evaluate(grid, coeffs, directions):
    """Reference: a Legendre table at the points times cos/sin(m phi) from arctan2."""
    ct = np.clip(directions[:, 2], -1.0, 1.0)
    phi = np.arctan2(directions[:, 1], directions[:, 0])
    Q, _, _ = _legendre_tables(grid.band_limit, ct, derivatives=False)  # [m, l, p]
    l, m = grid.coeff_l, grid.coeff_m
    angle = np.abs(m)[:, None] * phi
    trig = np.where(m[:, None] > 0, np.sqrt(2.0) * np.cos(angle), np.sqrt(2.0) * np.sin(angle))
    trig[m == 0] = 1.0
    return coeffs @ (Q[np.abs(m), l] * trig)


@pytest.mark.parametrize("band_limit", [8, 16, 34, 64])
def test_evaluate_matches_legendre_table_reference(band_limit):
    """Random directions, the exact poles and the phi = 0 seam, to 1e-13 relative."""
    grid = build_grid(band_limit)
    rng = np.random.default_rng(band_limit)
    c = rng.standard_normal(grid.n_coeffs)
    random = rng.standard_normal((300, 3))
    random /= np.linalg.norm(random, axis=1)[:, None]
    theta = np.linspace(0.05, 3.1, 9)
    seam = np.stack([np.sin(theta), np.zeros_like(theta), np.cos(theta)], axis=1)
    d = np.vstack([random, [[0, 0, 1.0], [0, 0, -1.0]], seam])
    ref = legendre_table_evaluate(grid, c, d)
    assert np.abs(grid.evaluate(c, d) - ref).max() <= 1e-13 * np.abs(ref).max()
    f = grid.synthesize_values(c)
    assert np.abs(grid.evaluate(c, grid.directions) - f).max() <= 1e-13 * np.abs(f).max()


def test_scalar_field_validation():
    grid = build_grid(5)
    with pytest.raises(GridMismatchError):
        ScalarField(grid, np.ones(3))
    bad = np.ones(grid.n_nodes)
    bad[0] = np.nan
    with pytest.raises(ConfigurationError):
        ScalarField(grid, bad)


@pytest.mark.parametrize("dtheta,dphi", [(0, 0), (1, 0), (0, 1), (1, 1)])
def test_adjoint_transform_is_transpose_of_synthesis(dtheta, dphi):
    """<synth(c, dtheta, dphi), g> = <c, adjoint(g, dtheta, dphi)> for random c, g."""
    grid = build_grid(12)
    rng = np.random.default_rng(dtheta + 2 * dphi)
    c = rng.standard_normal(grid.n_coeffs)
    g = rng.standard_normal(grid.n_nodes)
    lhs = grid.synthesize_values(c, dtheta=dtheta, dphi=dphi) @ g
    rhs = c @ grid.adjoint_values(g, dtheta=dtheta, dphi=dphi)
    assert lhs == pytest.approx(rhs, rel=1e-12)


def test_adjoint_transform_matches_basis_matrices():
    grid = build_grid(10)
    B, Bt, Bp = grid.basis_matrices()
    g = np.random.default_rng(5).standard_normal(grid.n_nodes)
    for (dtheta, dphi), mat in (((0, 0), B), ((1, 0), Bt), ((0, 1), Bp)):
        ref = mat.T @ g
        got = grid.adjoint_values(g, dtheta=dtheta, dphi=dphi)
        assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()
    with pytest.raises(GridMismatchError):
        grid.adjoint_values(g[:-1])
    with pytest.raises(ConfigurationError):
        grid.adjoint_values(g, dtheta=2, dphi=1)


DERIVATIVE_ORDERS = [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]


def scipy_basis(grid, nodes):
    """Reference ``{(dtheta, dphi): D Y_a(node)}`` of shape ``(n_coeffs, len(nodes))`` from scipy.

    ``sph_harm_y_all`` (the complex ``sph_harm_y`` family, Condon-Shortley phase) in the
    lab's real convention: real part for m >= 0, imaginary part for m < 0, times
    ``(-1)^|m| sqrt(2)`` for m != 0.  No code of :mod:`cmclab.sphere` enters.
    """
    L = grid.band_limit
    y, grad, hess = sph_harm_y_all(L, L, grid.node_theta[nodes], grid.node_phi[nodes], diff_n=2)
    parts = [y, grad[..., 0], grad[..., 1], hess[..., 0, 0], hess[..., 0, 1], hess[..., 1, 1]]
    l, m = grid.coeff_l, grid.coeff_m
    scale = np.where(m == 0, 1.0, (-1.0) ** np.abs(m) * np.sqrt(2.0))[:, None]
    return {
        order: scale * np.where((m >= 0)[:, None], z[l, np.abs(m)].real, z[l, np.abs(m)].imag)
        for order, z in zip(DERIVATIVE_ORDERS, parts)
    }


@pytest.mark.parametrize("band_limit", [8, 24, 48])
def test_transforms_match_scipy_spherical_harmonics(band_limit):
    """Synthesis and its adjoint for every derivative order, against scipy at a node subset."""
    grid = build_grid(band_limit)
    rng = np.random.default_rng(band_limit)
    nodes = np.sort(rng.choice(grid.n_nodes, min(grid.n_nodes, 120), replace=False))
    basis = scipy_basis(grid, nodes)
    c = rng.standard_normal(grid.n_coeffs)
    v = np.zeros(grid.n_nodes)
    v[nodes] = rng.standard_normal(nodes.size)
    for (dtheta, dphi), B in basis.items():
        ref = c @ B
        got = grid.synthesize_values(c, dtheta=dtheta, dphi=dphi)[nodes]
        assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()
        # <adjoint(v), c> = <v, synth(c)> with v supported on the subset, slot by slot
        ref = B @ v[nodes]
        got = grid.adjoint_values(v, dtheta=dtheta, dphi=dphi)
        assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()
