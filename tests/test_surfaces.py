"""Surface geometry: fundamental forms, stability operator, norms, centers."""

import numpy as np
import pytest
import scipy.linalg

from cmclab.cmc import (
    CmcLeaf,
    SolverConfig,
    solve_cmc,
    solve_foliation,
    solve_radial_lapse,
    target_mean_curvature,
)
from cmclab.errors import ConfigurationError, ResolutionWarning, SolvabilityError, SolverError
from cmclab.models import (
    InitialDataModel,
    euclidean,
    perturbed_schwarzschild,
    schwarzschild,
    synthetic_data,
)
from cmclab.physics import center_velocity_from_lapse, lapse_rhs, solve_lapse
from cmclab.sphere import ScalarField, SphericalGrid, build_grid
from cmclab.surfaces import (
    SurfaceEmbedding,
    SurfaceGeometry,
    compute_geometry,
    euclidean_center,
    low_eigenpairs,
    resample,
    surface_divergence,
    w1inf_norm,
)


def schwarzschild_sphere_H(m, r):
    """Closed-form mean curvature of the coordinate r-sphere, conformal oracle."""
    phi = 1.0 + m / (2.0 * r)
    return -(phi**-2) * (2.0 / r - 2.0 * m / (r**2 * phi))


@pytest.fixture(scope="module")
def grid16():
    return build_grid(16)


def test_euclidean_round_sphere_geometry(grid16):
    s = SurfaceEmbedding.round_sphere(grid16, 2.0)
    geo = compute_geometry(s, euclidean())
    assert np.abs(geo.mean_curvature + 1.0).max() < 1e-12
    assert np.abs(geo.trace_free).max() < 1e-12
    assert geo.area == pytest.approx(16 * np.pi, rel=1e-12)
    # unit outward normal
    norms = np.einsum("ni,nij,nj->n", geo.normal, geo.gbar, geo.normal)
    assert np.abs(norms - 1).max() < 1e-10
    assert np.all(np.einsum("ni,ni->n", geo.normal, geo.positions - s.center) > 0)


def test_doubling_radius_halves_curvature(grid16):
    flat = euclidean()
    h1 = compute_geometry(SurfaceEmbedding.round_sphere(grid16, 3.0), flat).mean_curvature
    h2 = compute_geometry(SurfaceEmbedding.round_sphere(grid16, 6.0), flat).mean_curvature
    assert np.abs(h2 - 0.5 * h1).max() < 1e-13


def test_schwarzschild_coordinate_sphere_curvature(grid16):
    s = SurfaceEmbedding.round_sphere(grid16, 10.0)
    geo = compute_geometry(s, schwarzschild(1.0))
    expected = schwarzschild_sphere_H(1.0, 10.0)
    assert expected == pytest.approx(-0.164129, abs=1e-6)
    assert np.abs(geo.mean_curvature - expected).max() < 1e-12
    assert np.abs(np.einsum("nIJ,nIJ->n", geo.induced_inv, geo.trace_free)).max() < 1e-10


def test_nonround_surface_tracefree_part(grid16):
    rho = 5.0 * (1.0 + 0.05 * grid16.synthesize_values(
        np.eye(grid16.n_coeffs)[grid16.coeff_index(2, 0)]
    ))
    s = SurfaceEmbedding.from_radial_values(grid16, rho)
    geo = compute_geometry(s, euclidean())
    assert np.abs(np.einsum("nIJ,nIJ->n", geo.induced_inv, geo.trace_free)).max() < 1e-10
    assert geo.trace_free_norm2.max() > 1e-6  # genuinely non-umbilic


def test_stability_operator_on_constants_and_translations(grid16):
    sigma = 4.0
    geo = compute_geometry(SurfaceEmbedding.round_sphere(grid16, sigma), euclidean())
    Lf = geo.apply_operator(np.ones(grid16.n_nodes))
    assert np.abs(Lf - 2.0 / sigma**2).max() < 1e-12
    Lnu = geo.apply_operator(grid16.directions[:, 0])
    assert np.abs(Lnu).max() < 1e-10


def test_stability_operator_degree_one_schwarzschild():
    """Degree-1 modes are near-kernel with |value| ~ 6m/sigma^3.

    The operator (graph-H linearization with H(round sigma-sphere) = -2/sigma)
    maps degree-one modes to about -(6m/sigma^3) times themselves (the
    spectral convention of `low_eigenpairs` reports the cluster positively).
    """
    grid = build_grid(16)
    m, r = 1.0, 10.0
    s = SurfaceEmbedding.round_sphere(grid, r)
    geo = compute_geometry(s, schwarzschild(m))
    f = grid.directions[:, 2]
    Lf = geo.apply_operator(f)
    # mean-curvature radius of this sphere: solve H = -2/s + 4m/s^2
    H = geo.mean_curvature.mean()
    sig = (-2.0 - np.sqrt(4.0 + 16.0 * m * H)) / (2.0 * H)
    lam = geo.integrate(f * Lf) / geo.integrate(f**2)
    # exact-background eigenvalue carries a (1 - 3m/sigma) correction
    assert lam == pytest.approx(-6.0 * m / sig**3 * (1.0 - 3.0 * m / sig), rel=0.05)


def test_self_adjointness(grid16):
    rho = 7.0 * (1 + 0.03 * grid16.directions[:, 0] - 0.02 * grid16.directions[:, 2] ** 2)
    s = SurfaceEmbedding.from_radial_values(grid16, rho)
    model = schwarzschild(1.0)
    geo = compute_geometry(s, model)
    rng = np.random.default_rng(0)
    cf, ch = np.zeros(grid16.n_coeffs), np.zeros(grid16.n_coeffs)
    low = grid16.coeff_l <= 10  # keep fields resolved
    cf[low] = rng.standard_normal(low.sum())
    ch[low] = rng.standard_normal(low.sum())
    f = grid16.synthesize_values(cf)
    h = grid16.synthesize_values(ch)
    Lf = geo.apply_operator(f)
    Lh = geo.apply_operator(h)
    lhs = geo.integrate(f * Lh)
    rhs = geo.integrate(Lf * h)
    scale = max(abs(lhs), abs(rhs), 1e-30)
    assert abs(lhs - rhs) / scale < 1e-8


def test_low_eigenpairs_euclidean_zero_modes(grid16):
    s = SurfaceEmbedding.round_sphere(grid16, 5.0)
    pairs = low_eigenpairs(compute_geometry(s, euclidean()), n=3)
    for lam, field in pairs:
        assert abs(lam) < 1e-8
        # eigenfields live in the degree-one space
        c = grid16.analyze_values(field.values)
        energy = np.sum(c**2)
        deg1 = np.sum(c[grid16.coeff_l == 1] ** 2)
        assert deg1 > 0.99 * energy


def test_low_eigenpairs_schwarzschild_cluster():
    grid = build_grid(16)
    m = 1.0
    s = SurfaceEmbedding.round_sphere(grid, 32.0)
    geo = compute_geometry(s, schwarzschild(m))
    H = geo.mean_curvature.mean()
    sig = (-2.0 - np.sqrt(4.0 + 16.0 * m * H)) / (2.0 * H)
    expect = 6.0 * m / sig**3 * (1.0 - 3.0 * m / sig)
    pairs = low_eigenpairs(geo, n=3)
    for lam, field in pairs:
        assert lam == pytest.approx(expect, rel=0.01)
        c = grid.analyze_values(field.values)
        deg1 = np.sum(c[grid.coeff_l == 1] ** 2)
        assert deg1 >= 0.95 * np.sum(c**2)


def test_low_eigenpairs_orthonormal(grid16):
    s = SurfaceEmbedding.round_sphere(grid16, 12.0)
    model = schwarzschild(1.0)
    geo = compute_geometry(s, model)
    pairs = low_eigenpairs(geo, n=4)
    for i, (_, fi) in enumerate(pairs):
        for j, (_, fj) in enumerate(pairs):
            ip = geo.integrate(fi.values * fj.values)
            assert ip == pytest.approx(1.0 if i == j else 0.0, abs=1e-9)


@pytest.mark.parametrize("ambient", [euclidean, lambda: schwarzschild(1.0)], ids=["flat", "mass"])
@pytest.mark.parametrize("n", [0, -1, 11])
def test_eigenpair_count_limit(grid16, n, ambient):
    s = SurfaceEmbedding.round_sphere(grid16, 5.0)
    with pytest.raises(ConfigurationError):
        low_eigenpairs(compute_geometry(s, ambient()), n=n)


def perturbed_sphere(grid, sigma, seed=1):
    """Round sphere of radius sigma with small random degree 1..6 bumps."""
    s = SurfaceEmbedding.round_sphere(grid, sigma)
    c = s.rho_coeffs.copy()
    bumps = (grid.coeff_l >= 1) & (grid.coeff_l <= 6)
    c[bumps] += 1e-3 * sigma * np.random.default_rng(seed).standard_normal(bumps.sum())
    return s.with_radius(c)


def dense_galerkin(geo):
    """Oracle: the Galerkin matrices assembled here from the dense basis."""
    B, Bt, Bp = geo.grid.basis_matrices()
    w = geo.weights_induced
    inv = geo.induced_inv
    A = (
        -Bt.T @ ((w * inv[:, 0, 0])[:, None] * Bt)
        - Bt.T @ ((w * inv[:, 0, 1])[:, None] * Bp)
        - Bp.T @ ((w * inv[:, 0, 1])[:, None] * Bt)
        - Bp.T @ ((w * inv[:, 1, 1])[:, None] * Bp)
        + B.T @ ((w * geo.potential)[:, None] * B)
    )
    M = B.T @ (w[:, None] * B)
    return 0.5 * (A + A.T), 0.5 * (M + M.T)


@pytest.mark.parametrize("band_limit", [16, 32])
def test_matrix_free_operator_matches_dense_oracle(band_limit):
    """Matvec, one Newton correction and matrix-free eigenvalues against dense A."""
    grid = build_grid(band_limit)
    model = perturbed_schwarzschild(1.0, 0.5, 0.1, "odd")
    sigma = 32.0
    s = perturbed_sphere(grid, sigma)
    geo = compute_geometry(s, model)
    A, M = dense_galerkin(geo)

    c = np.random.default_rng(2).standard_normal(grid.n_coeffs)
    ref = A @ c
    assert np.linalg.norm(geo.galerkin_apply(c) - ref) <= 1e-12 * np.linalg.norm(ref)
    ref = M @ c
    assert np.linalg.norm(geo.mass_apply(c) - ref) <= 1e-12 * np.linalg.norm(ref)

    residual = target_mean_curvature(sigma, model.mass) - geo.mean_curvature
    u, krylov = geo.weak_solve(residual)
    assert krylov is not None  # the Krylov path, not the eigenbasis fallback
    B, _, _ = grid.basis_matrices()
    ref = scipy.linalg.solve(A, B.T @ (geo.weights_induced * residual))
    assert np.linalg.norm(u - ref) <= 1e-12 * np.linalg.norm(ref)

    vals = scipy.linalg.eigh(A, M, eigvals_only=True)
    dense = np.sort(-vals[np.argsort(np.abs(vals))[:3]])
    pairs = low_eigenpairs(geo, n=3)
    matrix_free = np.sort([lam for lam, _ in pairs])
    assert np.abs(matrix_free / dense - 1.0).max() <= 1e-10


def test_low_block_is_quadrature_without_operator_applies(monkeypatch):
    """The l <= 1 block makes no operator apply and equals four unit-vector applies."""
    grid = build_grid(16)
    geo = compute_geometry(perturbed_sphere(grid, 32.0), perturbed_schwarzschild(1.0, 0.5, 0.1, "odd"))
    apply = SurfaceGeometry.galerkin_apply
    calls = []

    def counting(self, coeffs):
        calls.append(coeffs)
        return apply(self, coeffs)

    monkeypatch.setattr(SurfaceGeometry, "galerkin_apply", counting)
    block = geo._low_block
    assert calls == []
    # oracle: the symmetrised l <= 1 rows of the operator applied to the four unit vectors
    unit = np.array([apply(geo, e)[:4] for e in np.eye(4, grid.n_coeffs)]).T
    oracle = 0.5 * (unit + unit.T)
    assert np.abs(block - oracle).max() <= 1e-13 * np.abs(oracle).max()


@pytest.mark.parametrize("band_limit", [16, 32])
def test_matrix_free_lapse_solves_match_dense_eigenbasis_oracle(band_limit, monkeypatch):
    """Positive mass: operator, evolution-lapse and radial-lapse solves against dense eigh."""
    grid = build_grid(band_limit)
    model = perturbed_schwarzschild(1.0, 0.5, 0.1, "odd")
    sigma = 32.0
    s = perturbed_sphere(grid, sigma)
    geo = compute_geometry(s, model)
    A, M = dense_galerkin(geo)
    vals, vecs = scipy.linalg.eigh(A, M)
    B, _, _ = grid.basis_matrices()

    def oracle(rhs):
        load = vecs.T @ (B.T @ (geo.weights_induced * rhs))
        return grid.synthesize_values(vecs @ (load / vals))

    def assert_close(u, ref):
        assert np.linalg.norm(u - ref) <= 1e-10 * np.linalg.norm(ref)

    rhs = grid.synthesize_values(np.random.default_rng(4).standard_normal(grid.n_coeffs))
    assert_close(geo.solve_operator(rhs), oracle(rhs))

    data = synthetic_data(model, delta=1.0, amplitude=1.0, direction=(0.6, 0.0, 0.8))
    w = solve_lapse(geo, data)
    w_ref = ScalarField(grid, oracle(lapse_rhs(geo, data).values))
    assert_close(w.values, w_ref.values)
    velocity = center_velocity_from_lapse(geo, w)
    velocity_ref = center_velocity_from_lapse(geo, w_ref)
    assert np.linalg.norm(velocity - velocity_ref) <= 1e-10 * np.linalg.norm(velocity_ref)

    leaf = CmcLeaf(
        sigma=sigma,
        surface=s,
        residual=0.0,
        iterations=0,
        center=euclidean_center(s),
        geometry=geo,
    )
    u = solve_radial_lapse(leaf).field.values
    assert_close(u, oracle(np.full(grid.n_nodes, 2.0 / sigma**2 - 8.0 * model.mass / sigma**3)))
    # none of these solves assembled the dense matrices
    assert "operator_matrices" not in vars(geo)

    def krylov_failure(self, load):
        raise SolverError("forced")

    # a Krylov failure has no fallback: it propagates, and a sweep records the leaf
    monkeypatch.setattr(SurfaceGeometry, "galerkin_solve", krylov_failure)
    with pytest.raises(SolverError, match="forced"):
        compute_geometry(s, model).solve_operator(rhs)
    result = solve_foliation(model, [16.0], SolverConfig(band_limit=12))
    assert result.leaves == []
    assert [(f["sigma"], f["kind"], f["error"]) for f in result.failures] == [
        (16.0, "SolverError", "forced")
    ]


@pytest.mark.parametrize("band_limit", [12, 16, 32])
def test_flat_weak_solve_matches_dense_eigenbasis_oracle(band_limit):
    """Flat ambient: the deflated Krylov solve is the eigenbasis's minimal-norm solution.

    Round, translated-round and off-center-parametrised spheres carry the
    three translation modes as an exact kernel; both solves drop the load on
    it.  The matrix-free eigenpairs report that kernel.
    """
    grid = build_grid(band_limit)
    model = euclidean()
    B, _, _ = grid.basis_matrices()
    c = np.zeros(grid.n_coeffs)
    low = grid.coeff_l <= 6
    c[low] = np.random.default_rng(5).standard_normal(low.sum())
    loads = [np.ones(grid.n_nodes), grid.synthesize_values(c)]
    sphere = SurfaceEmbedding.round_sphere(grid, 5.0)
    for s in (sphere, sphere.translate((1.0, -2.0, 0.5)), resample(sphere, (1.5, 0.0, 0.0))):
        geo = compute_geometry(s, model)
        sigma2 = geo.sigma_scale**2
        vals, vecs = scipy.linalg.eigh(*dense_galerkin(geo))
        kernel = np.abs(vals) * sigma2 <= 1e-10
        assert kernel.sum() == 3
        for rhs in loads:
            load = vecs.T @ (B.T @ (geo.weights_induced * rhs))
            ref = vecs @ np.where(kernel, 0.0, load / np.where(kernel, 1.0, vals))
            u, _ = geo.weak_solve(rhs)
            assert np.linalg.norm(u - ref) <= 1e-12 * np.linalg.norm(ref)
        for lam, _ in low_eigenpairs(geo, n=3):
            assert abs(lam) * sigma2 <= 1e-12


def test_runtime_paths_read_no_dense_matrix(monkeypatch):
    """Newton steps, eigenpairs, both lapse solves and ``apply_operator`` stay matrix-free."""

    def refuse(*args):
        raise AssertionError("a runtime path read a dense matrix")

    monkeypatch.setattr(SphericalGrid, "basis_matrices", refuse)
    monkeypatch.setattr(SurfaceGeometry, "operator_matrices", property(refuse))
    monkeypatch.setattr(SurfaceGeometry, "operator_eigensystem", property(refuse))
    config = SolverConfig(band_limit=12)
    flat = euclidean()
    leaf = solve_cmc(flat, 4.0, config, initial=SurfaceEmbedding.round_sphere(build_grid(12), 3.0))
    assert leaf.iterations > 0
    assert max(abs(lam) for lam in leaf.eigenvalues) * leaf.sigma**2 <= 1e-12
    assert abs(solve_radial_lapse(leaf).field.values - 1.0).max() < 1e-12
    geo = leaf.geometry
    # a degree-one source loads the flat translation modes
    with pytest.raises(SolvabilityError):
        geo.solve_operator(geo.grid.directions[:, 0], check_kernel_load=True)
    # kbar = delta with a tilted lapse does not: the degree-one parts of its source,
    # -alpha <k, kbar> = -alpha H and -(D_nu alpha) tr_Sigma kbar, cancel
    tilted = InitialDataModel(
        base=flat,
        _kbar=lambda x: np.broadcast_to(np.eye(3), x.shape[:-1] + (3, 3)),
        _dkbar=lambda x: np.zeros(x.shape[:-1] + (3, 3, 3)),
        _alpha=lambda x: 1.0 + 0.1 * x[..., 0],
        _dalpha=lambda x: np.broadcast_to([0.1, 0.0, 0.0], x.shape),
    )
    assert np.all(np.isfinite(solve_lapse(geo, tilted).values))
    assert np.abs(geo.apply_operator(np.ones(geo.grid.n_nodes)) - 2.0 / leaf.sigma**2).max() < 1e-12

    model = perturbed_schwarzschild(1.0, 0.5, 0.1, "odd")
    leaf = solve_cmc(model, 16.0, config)
    assert leaf.iterations > 0 and len(leaf.eigenvalues) == 3
    solve_radial_lapse(leaf)
    data = synthetic_data(model, delta=1.0, amplitude=1.0, direction=(0.6, 0.0, 0.8))
    solve_lapse(leaf.geometry, data)
    leaf.geometry.apply_operator(leaf.surface.radius_values)


@pytest.mark.parametrize("n", [1, 3, 4, 10])
def test_matrix_free_eigenpairs_match_dense_eigensystem(n):
    """Positive mass: the matrix-free LOBPCG eigenpairs span the dense eigenspace."""
    grid = build_grid(16)
    model = perturbed_schwarzschild(1.0, 0.5, 0.1, "odd")
    s = perturbed_sphere(grid, 24.0, seed=3)
    geo = compute_geometry(s, model)
    sparse = low_eigenpairs(geo, n=n)
    assert len(sparse) == n
    assert "operator_matrices" not in vars(geo) and "operator_eigensystem" not in vars(geo)
    vals, vecs = geo.operator_eigensystem
    order = np.argsort(np.abs(vals), kind="stable")[:n]
    assert np.allclose([lam for lam, _ in sparse], -vals[order], rtol=1e-10, atol=0)
    # same eigenspace: the principal angles between the spans vanish
    span_dense = np.stack([grid.synthesize_values(vecs[:, i]) for i in order], axis=1)
    span_sparse = np.stack([field.values for _, field in sparse], axis=1)
    assert scipy.linalg.subspace_angles(span_dense, span_sparse).max() < 1e-8
    for i, (_, fi) in enumerate(sparse):
        for j, (_, fj) in enumerate(sparse):
            assert geo.integrate(fi.values * fj.values) == pytest.approx(float(i == j), abs=1e-9)


@pytest.mark.parametrize("sigma", [2048.0, 4096.0])
def test_large_sigma_eigenpairs_are_matrix_free(sigma):
    """Where a Krylov-inverted eigensolve stalls on round-off, LOBPCG still answers without eigh."""
    m = 1.0
    model = schwarzschild(m)
    leaf = solve_cmc(model, sigma, SolverConfig(band_limit=16))
    expect = 6.0 * m / sigma**3 * (1.0 - 3.0 * m / sigma)
    assert len(leaf.eigenvalues) == 3
    for lam in leaf.eigenvalues:
        assert lam == pytest.approx(expect, rel=0.01)
    geo = compute_geometry(leaf.surface, model)
    pairs = low_eigenpairs(geo, n=3)
    assert tuple(lam for lam, _ in pairs) == leaf.eigenvalues
    assert "operator_matrices" not in vars(geo) and "operator_eigensystem" not in vars(geo)


def test_unconverged_eigenpairs_raise_and_fail_the_leaf(monkeypatch):
    """An eigensolve that misses its residual bound raises; a sweep records it per leaf."""
    from cmclab import surfaces

    monkeypatch.setattr(surfaces, "_LOBPCG_ITERATIONS", 1)
    model = perturbed_schwarzschild(1.0, 0.5, 0.1, "odd")
    s = perturbed_sphere(build_grid(12), 24.0, seed=3)
    with pytest.raises(SolverError, match="did not converge"):
        low_eigenpairs(compute_geometry(s, model), n=3)
    # the sigma = 8 leaf needs more than one iteration, the sigma = 16 leaf does not
    result = solve_foliation(model, [8.0, 16.0], SolverConfig(band_limit=12))
    assert [(f["sigma"], f["kind"]) for f in result.failures] == [(8.0, "SolverError")]
    assert "LOBPCG" in result.failures[0]["error"]
    assert [leaf.sigma for leaf in result.leaves] == [16.0]


def test_euclidean_center_round_and_even(grid16):
    s = SurfaceEmbedding.round_sphere(grid16, 2.0, (1.0, 2.0, 3.0))
    assert np.allclose(euclidean_center(s), [1, 2, 3], atol=1e-13)
    c = np.zeros(grid16.n_coeffs)
    c[grid16.coeff_index(2, 0)] = 1.0
    rho = 6.0 + 0.6 * grid16.synthesize_values(c)
    even = SurfaceEmbedding.from_radial_values(grid16, rho)
    assert np.abs(euclidean_center(even)).max() < 1e-10


def test_euclidean_center_bump_against_fine_quadrature(grid16):
    sigma = 6.0
    rho = sigma * (1.0 + 0.05 * grid16.directions[:, 2])
    s = SurfaceEmbedding.from_radial_values(grid16, rho)
    z = euclidean_center(s)
    assert z[2] > 0
    fine = build_grid(4 * grid16.band_limit)
    pad = np.zeros(fine.n_coeffs)
    for l in range(grid16.band_limit + 1):
        for m in range(-l, l + 1):
            pad[fine.coeff_index(l, m)] = s.rho_coeffs[grid16.coeff_index(l, m)]
    z_fine = euclidean_center(SurfaceEmbedding(fine, s.center, pad))
    assert np.allclose(z, z_fine, atol=1e-10)


def test_euclidean_center_translation_equivariance(grid16):
    rng = np.random.default_rng(2)
    c = np.zeros(grid16.n_coeffs)
    low = grid16.coeff_l <= 5
    c[low] = 0.05 * rng.standard_normal(low.sum())
    c[0] = 8.0 * np.sqrt(4 * np.pi)
    s = SurfaceEmbedding(grid16, np.zeros(3), c)
    a = np.array([3.7, -1.2, 0.4])
    z0 = euclidean_center(s)
    z1 = euclidean_center(s.translate(a))
    assert np.abs(z1 - (z0 + a)).max() < 1e-12


def test_euclidean_center_reads_the_chart(grid16, monkeypatch):
    """The centroid takes rho_theta and rho_phi from the surface's chart, which the next
    geometry build of that surface reuses: the pair costs no synthesis beyond the build."""
    rng = np.random.default_rng(5)
    c = np.zeros(grid16.n_coeffs)
    low = grid16.coeff_l <= 5
    c[low] = 0.05 * rng.standard_normal(low.sum())
    c[0] = 8.0 * np.sqrt(4 * np.pi)
    model = schwarzschild(1.0)
    calls = []
    synthesize = SphericalGrid.synthesize_values

    def counting(self, *args, **kwargs):
        calls.append(kwargs)
        return synthesize(self, *args, **kwargs)

    monkeypatch.setattr(SphericalGrid, "synthesize_values", counting)
    counts = []
    for with_center in (False, True):
        s = SurfaceEmbedding(grid16, (0.3, -0.2, 0.1), c)
        calls.clear()
        if with_center:
            euclidean_center(s)
        compute_geometry(s, model)
        counts.append(len(calls))
    assert counts[1] == counts[0]
    calls.clear()
    euclidean_center(s)
    assert calls == []
    # the chart holds the very syntheses the centroid used to make itself
    assert np.array_equal(s.chart.rho_theta, synthesize(grid16, c, dtheta=1))
    assert np.array_equal(s.chart.rho_phi, synthesize(grid16, c, dphi=1))


def test_sobolev_norm_round_sphere_examples(grid16):
    """Closed forms of the W^{1,inf} norm on a Euclidean sigma-sphere.

    ``|grad nu_1| = sqrt(1 - nu_1^2) / sigma``, so at scale sigma the norm of
    ``nu_1`` is ``max|nu_1| + max sqrt(1 - nu_1^2)`` over the nodes.
    """
    sigma = 3.0
    s = SurfaceEmbedding.round_sphere(grid16, sigma)
    geo = compute_geometry(s, euclidean())
    one = np.ones(grid16.n_nodes)
    assert w1inf_norm(geo, one, sigma) == pytest.approx(1.0, rel=1e-12)
    nu1 = grid16.directions[:, 0]
    expected = np.abs(nu1).max() + np.sqrt(1.0 - nu1**2).max()
    assert w1inf_norm(geo, nu1, sigma) == pytest.approx(expected, rel=1e-12)


def test_surface_divergence_integrates_to_zero(grid16):
    rho = 6.0 * (1 + 0.05 * grid16.directions[:, 1])
    s = SurfaceEmbedding.from_radial_values(grid16, rho)
    geo = compute_geometry(s, schwarzschild(1.0))
    rng = np.random.default_rng(4)
    for _ in range(3):
        ambient = rng.standard_normal(3) + geo.positions @ rng.standard_normal((3, 3)) * 0.05
        # tangential projection with respect to the ambient metric
        normal_part = np.einsum("ni,nij,nj->n", geo.normal, geo.gbar, ambient)
        X = ambient - normal_part[:, None] * geo.normal
        total = geo.integrate(surface_divergence(geo, X))
        assert abs(total) < 1e-7 * (1 + np.abs(X).max()) * geo.area


def test_linearization_consistency():
    """H(graph of rho + h u) - H(rho) matches h L(normal part) to O(h^2)."""
    grid = build_grid(16)
    m, r = 1.0, 10.0
    model = schwarzschild(m)
    s = SurfaceEmbedding.round_sphere(grid, r)
    geo = compute_geometry(s, model)
    rng = np.random.default_rng(8)
    c = np.zeros(grid.n_coeffs)
    low = grid.coeff_l <= 6
    c[low] = rng.standard_normal(low.sum())
    u = grid.synthesize_values(c)
    u /= np.abs(u).max()
    phi2 = (1.0 + m / (2.0 * r)) ** 2
    Lf = geo.apply_operator(phi2 * u)  # normal speed of radial bump u is phi^2 u

    def h_error(h):
        bumped = SurfaceEmbedding.from_radial_values(grid, r + h * u)
        Hb = compute_geometry(bumped, model).mean_curvature
        return np.abs((Hb - geo.mean_curvature) / h - Lf).max()

    e1, e2 = h_error(1e-3), h_error(5e-4)
    order = np.log2(e1 / e2) / np.log2(2.0)
    assert order >= 0.9


def test_resample_preserves_surface(grid16):
    rho = 5.0 * (1 + 0.06 * grid16.directions[:, 0] - 0.03 * grid16.directions[:, 2])
    s = SurfaceEmbedding.from_radial_values(grid16, rho, center=(1.0, 0.0, 0.0))
    moved = resample(s, (1.4, 0.2, -0.1))
    assert np.allclose(moved.center, [1.4, 0.2, -0.1])
    # the point set is unchanged: centers agree and a round trip returns rho
    assert np.abs(euclidean_center(moved) - euclidean_center(s)).max() < 1e-9
    back = resample(moved, s.center)
    assert np.abs(back.radius_values - s.radius_values).max() < 1e-9


@pytest.mark.parametrize("near_pole", [False, True], ids=["oblique", "near-pole"])
def test_resample_round_trip_at_high_band_limit(near_pole):
    """L = 48, a shift of 0.05 sigma; one center sends a target ray within 1e-8 rad of the pole."""
    grid = build_grid(48)
    sigma = 5.0
    N = grid.directions
    rho = sigma * (1 + 0.06 * N[:, 0] - 0.03 * N[:, 2] + 0.02 * N[:, 0] * N[:, 1])
    s = SurfaceEmbedding.from_radial_values(grid, rho)
    if near_pole:
        # the ray from the new center along the first node (phi = 0) meets the
        # surface 5e-9 sigma off the north-pole point of the old parametrization
        top = s.grid.evaluate(s.rho_coeffs, np.array([[0.0, 0.0, 1.0]]))[0]
        shift = top * (np.array([0.0, 0.0, 1.0]) - N[0] / N[0, 2]) + [0.0, 5e-9 * sigma, 0.0]
    else:
        shift = 0.05 * sigma * np.array([0.6, -0.48, 0.64])
    assert np.linalg.norm(shift) == pytest.approx(0.05 * sigma, rel=0.1)
    moved = resample(s, shift)
    if near_pole:
        q = moved.positions - s.center
        assert np.min(np.arctan2(np.hypot(q[:, 0], q[:, 1]), np.abs(q[:, 2]))) < 1e-8
    back = resample(moved, s.center)
    assert np.abs(back.radius_values - s.radius_values).max() < 1e-9


def test_resolution_warning_on_rough_field(grid16):
    s = SurfaceEmbedding.round_sphere(grid16, 5.0)
    geo = compute_geometry(s, euclidean())
    c = np.zeros(grid16.n_coeffs)
    c[grid16.coeff_index(grid16.band_limit, 3)] = 1.0
    c[0] = 1.0
    rough = grid16.synthesize_values(c)
    with pytest.warns(ResolutionWarning):
        geo.apply_operator(rough)


def test_positive_radius_required(grid16):
    with pytest.raises(ConfigurationError):
        SurfaceEmbedding.from_radial_values(grid16, 0.1 + grid16.directions[:, 2])


from hypothesis import given, settings
from hypothesis import strategies as st


@settings(max_examples=15, deadline=None)
@given(st.lists(st.floats(-50.0, 50.0), min_size=3, max_size=3))
def test_euclidean_center_equivariance_property(shift):
    """Translating any surface translates its centroid exactly."""
    grid = build_grid(8)
    rng = np.random.default_rng(0)
    c = np.zeros(grid.n_coeffs)
    low = grid.coeff_l <= 4
    c[low] = 0.08 * rng.standard_normal(low.sum())
    c[0] = 9.0 * np.sqrt(4 * np.pi)
    s = SurfaceEmbedding(grid, np.zeros(3), c)
    a = np.asarray(shift)
    z0 = euclidean_center(s)
    z1 = euclidean_center(s.translate(a))
    assert np.abs(z1 - (z0 + a)).max() < 1e-10 * (1 + np.abs(a).max())


class RippledMetric:
    """``g(x) = g0 + s sin(w . x)`` with random symmetric ``g0``, ``s``: anisotropic, not conformally flat."""

    def __init__(self, rng):
        a = 0.5 * rng.standard_normal((3, 3))
        self.g0 = a @ a.T + np.eye(3)
        s = rng.standard_normal((3, 3))
        self.s = 0.05 * (s + s.T)
        self.w = 0.3 * rng.standard_normal(3)

    def metric(self, x):
        return self.g0 + np.sin(x @ self.w)[:, None, None] * self.s

    def metric_deriv(self, x):
        return np.cos(x @ self.w)[:, None, None, None] * self.w[:, None, None] * self.s


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**32 - 1), st.floats(0.0, 0.15), st.lists(st.floats(-3.0, 3.0), min_size=3, max_size=3))
def test_area_elements_and_normal_match_the_induced_metric_determinants(seed, bump, center):
    """``|n|^2`` and ``det gbar * n gbar^-1 n`` equal ``det(t t^T)`` and ``det(t gbar t^T)``.

    On random star-shaped band-limited graphs in an anisotropic metric; ``nu``
    equals ``gbar^-1 n`` divided by its ``gbar``-norm ``sqrt(nu gbar nu)``.
    """
    rng = np.random.default_rng(seed)
    grid = build_grid(8)
    c = np.zeros(grid.n_coeffs)
    low = (grid.coeff_l >= 1) & (grid.coeff_l <= 4)
    c[low] = bump * rng.standard_normal(low.sum()) / np.sqrt(low.sum())
    c[0] = np.sqrt(4 * np.pi)
    surface = SurfaceEmbedding(grid, np.asarray(center), 5.0 * c)
    field = RippledMetric(rng)
    x = surface.positions
    g = field.metric(x)
    geo = SurfaceGeometry(surface, None, (g, field.metric_deriv(x)))

    t = geo.tangents
    sin_t = np.repeat(grid.sin_theta, grid.n_phi)

    def area_weights(a):
        return grid.weights * np.sqrt(a[:, 0, 0] * a[:, 1, 1] - a[:, 0, 1] ** 2) / sin_t

    t_T = np.swapaxes(t, 1, 2)
    assert np.abs(geo.weights_induced / area_weights(t @ g @ t_T) - 1.0).max() <= 1e-13
    assert np.abs(geo.weights_euclidean / area_weights(t @ t_T) - 1.0).max() <= 1e-13
    nu = np.einsum("nij,nj->ni", np.linalg.inv(g), np.cross(t[:, 0], t[:, 1]))
    nu /= np.sqrt(np.einsum("ni,nij,nj->n", nu, g, nu))[:, None]
    assert np.abs(geo.normal - nu).max() <= 1e-13 * np.abs(nu).max()


def test_lazy_fields_equal_the_eager_formulas_bit_for_bit(grid16):
    """``tangents``, ``induced``, ``induced_inv`` and ``normal_flat`` are built on first read, by the eager formulas."""
    model = perturbed_schwarzschild(1.0, 0.5, 0.1, "odd")
    rng = np.random.default_rng(31)
    c = np.zeros(grid16.n_coeffs)
    c[1:16] = 0.3 * rng.standard_normal(15)
    c[0] = 7.0 * np.sqrt(4 * np.pi)
    surface = SurfaceEmbedding(grid16, np.array([0.4, -0.2, 0.3]), c)
    geo = SurfaceGeometry(surface, model)
    lazy = ("tangents", "induced", "induced_inv", "normal_flat")
    assert not set(lazy) & set(vars(geo))

    rho = grid16.synthesize_values(c)
    rho_t, rho_p = grid16.synthesize_values(c, dtheta=1), grid16.synthesize_values(c, dphi=1)
    N = grid16.directions
    t_th = rho_t[:, None] * N + rho[:, None] * grid16.d_dir_dtheta
    t_ph = rho_p[:, None] * N + rho[:, None] * grid16.d_dir_dphi
    tangents = np.stack([t_th, t_ph], axis=1)
    a = tangents @ geo.gbar @ np.swapaxes(tangents, 1, 2)
    inv = np.empty_like(a)
    inv[:, 0, 0] = a[:, 1, 1]
    inv[:, 1, 1] = a[:, 0, 0]
    inv[:, 0, 1] = inv[:, 1, 0] = -a[:, 0, 1]
    inv = inv / (a[:, 0, 0] * a[:, 1, 1] - a[:, 0, 1] ** 2)[:, None, None]
    assert np.array_equal(geo.tangents, tangents)
    assert np.array_equal(geo.induced, a)
    assert np.array_equal(geo.induced_inv, inv)
    assert np.array_equal(geo.normal_flat, np.einsum("nij,nj->ni", geo.gbar, geo.normal))


def test_flow_velocities_never_read_the_induced_metric(monkeypatch):
    """The momentum flux reads the normal and the area elements, never ``induced``, its inverse or the tangents."""
    from cmclab.physics import artificial_flow_integrate

    reads = {}
    for name in ("tangents", "induced", "induced_inv"):
        build = SurfaceGeometry.__dict__[name].func

        def counted(self, build=build, name=name):
            reads[name] = reads.get(name, 0) + 1
            return build(self)

        monkeypatch.setattr(SurfaceGeometry, name, property(counted))
    flow = artificial_flow_integrate(perturbed_schwarzschild(1.0, 0.5, 0.1, "odd"), 32.0, tau_steps=2, band_limit=8)
    assert np.all(np.isfinite(flow.centers))
    assert reads == {}
    # the counters are live: the mean curvature reads all three
    compute_geometry(SurfaceEmbedding.round_sphere(build_grid(8), 32.0), euclidean()).mean_curvature
    assert set(reads) == {"tangents", "induced", "induced_inv"}
