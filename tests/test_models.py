"""Metric models: analytic derivative cross-checks and constraint densities."""

from collections import Counter
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from cmclab import models
from cmclab.errors import DomainError, ModelError
from cmclab.models import (
    DecayClass,
    artificial_data,
    christoffel,
    energy_density,
    euclidean,
    interpolated,
    momentum_density,
    normal_momentum_density,
    perturbed_schwarzschild,
    ricci,
    scalar_curvature,
    schwarzschild,
    synthetic_data,
    time_symmetric_data,
    translated,
    verify_decay,
    _christoffel_from,
)


def ricci_at(model, x):
    ginv = models._inverse_metric(model.metric(x))
    dg = model.metric_deriv(x)
    return ricci(ginv, dg, model.metric_deriv2(x), _christoffel_from(ginv, dg))


def momentum_density_at(data, x):
    g = data.base.metric(x)
    ginv = np.linalg.inv(g)
    dg = data.base.metric_deriv(x)
    fields = data.evaluate(x)
    return momentum_density(g, ginv, dg, _christoffel_from(ginv, dg), fields.kbar, fields.kbar_deriv)


def sample_points(rng, n=100, rmin=5.0, rmax=40.0):
    dirs = rng.standard_normal((n, 3))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    return dirs * rng.uniform(rmin, rmax, size=(n, 1))


def fd_metric_deriv(model, x, h):
    out = np.empty(x.shape[:-1] + (3, 3, 3))
    for k in range(3):
        e = np.zeros(3)
        e[k] = h
        out[..., k, :, :] = (model.metric(x + e) - model.metric(x - e)) / (2 * h)
    return out


def fd_metric_deriv2(model, x, h):
    out = np.empty(x.shape[:-1] + (3, 3, 3, 3))
    for l in range(3):
        e = np.zeros(3)
        e[l] = h
        out[..., l, :, :, :] = (
            model.metric_deriv(x + e) - model.metric_deriv(x - e)
        ) / (2 * h)
    return out


ALL_MODELS = [
    schwarzschild(1.0),
    schwarzschild(0.3),
    perturbed_schwarzschild(1.0, 0.5, 1.0, "even"),
    perturbed_schwarzschild(1.0, 0.5, 0.1, "odd"),
    translated(schwarzschild(1.0), (5.0, -2.0, 1.0)),
    interpolated(perturbed_schwarzschild(1.0, 0.5, 0.1, "odd"), 0.35),
    euclidean(),
    # compositions: each layer passes the order through to the jets below it
    translated(interpolated(perturbed_schwarzschild(1.0, 0.5, 0.3, "even"), 0.6), (0.3, -0.2, 0.1)),
    interpolated(translated(perturbed_schwarzschild(1.0, 0.5, 0.1, "odd"), (0.5, 0.2, -0.4)), 0.35),
    translated(translated(perturbed_schwarzschild(1.0, 0.5, 0.1, "odd"), (0.5, 0.2, -0.4)), (-1.0, 0.0, 2.0)),
]


def same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


def test_schwarzschild_metric_value():
    model = schwarzschild(1.0)
    g = model.metric(np.array([10.0, 0.0, 0.0]))
    assert g[0, 0] == pytest.approx(1.05**4, rel=1e-14)
    assert g[0, 0] == pytest.approx(1.21550625, rel=1e-9)
    assert np.allclose(g, g[0, 0] * np.eye(3))


def test_small_mass_limit_is_euclidean():
    flat = euclidean()
    x = np.array([3.0, 4.0, 0.0])
    assert np.allclose(flat.metric(x), np.eye(3))
    assert np.allclose(flat.metric_deriv(x), 0)
    assert time_symmetric_data(flat).evaluate(x).lapse == pytest.approx(1.0)


def test_schwarzschild_rejects_nonpositive_mass():
    with pytest.raises(ModelError):
        schwarzschild(0.0)
    with pytest.raises(ModelError):
        schwarzschild(-1.0)


def test_exclusion_radius():
    model = schwarzschild(1.0)
    with pytest.raises(DomainError):
        model.metric(np.array([1.0, 0.0, 0.0]))
    shifted = translated(model, (10.0, 0.0, 0.0))
    with pytest.raises(DomainError):
        shifted.metric(np.array([11.0, 0.0, 0.0]))
    shifted.metric(np.array([1.0, 0.0, 0.0]))  # far from shifted center: fine


@pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: m.name)
def test_analytic_first_derivatives_match_fd(model):
    rng = np.random.default_rng(1)
    x = sample_points(rng, n=100, rmin=6.0 + np.linalg.norm(model.exclusion_center))
    h = 1e-4 * np.linalg.norm(x, axis=-1).mean()
    fd = fd_metric_deriv(model, x, h)
    an = model.metric_deriv(x)
    scale = np.abs(fd).max()
    assert np.abs(an - fd).max() < 1e-6 * max(scale, 1e-3)


@pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: m.name)
def test_jet_orders_and_accessors_agree_bit_for_bit(model):
    """``jet(x, 1)`` is the first two parts of ``jet(x, 2)``, and each accessor reads one part."""
    x = sample_points(np.random.default_rng(3), n=50, rmin=6.0 + np.linalg.norm(model.exclusion_center))
    g, dg = model.jet(x, 1)
    g2, dg2, d2g = model.jet(x, 2)
    assert (g.shape, dg.shape, d2g.shape) == ((50, 3, 3), (50, 3, 3, 3), (50, 3, 3, 3, 3))
    assert same_bits(g, g2) and same_bits(dg, dg2)
    for got, want in zip((model.metric(x), model.metric_deriv(x), model.metric_deriv2(x)), (g, dg, d2g)):
        assert same_bits(got, want)


@pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: m.name)
def test_analytic_second_derivatives_match_fd(model):
    rng = np.random.default_rng(2)
    x = sample_points(rng, n=100, rmin=6.0 + np.linalg.norm(model.exclusion_center))
    h = 1e-4 * np.linalg.norm(x, axis=-1).mean()
    fd = fd_metric_deriv2(model, x, h)
    an = model.metric_deriv2(x)
    scale = np.abs(fd).max()
    assert np.abs(an - fd).max() < 1e-6 * max(scale, 1e-3)


def test_translated_evaluates_base_at_shifted_point():
    base = schwarzschild(1.0)
    model = translated(base, (5.0, 0.0, 0.0))
    x = np.array([15.0, 0.0, 0.0])
    assert np.allclose(model.metric(x), base.metric(np.array([10.0, 0.0, 0.0])))
    assert np.allclose(model.metric_deriv(x), base.metric_deriv(np.array([10.0, 0.0, 0.0])))


def test_interpolated_is_affine_and_matches_endpoints():
    base = perturbed_schwarzschild(1.0, 0.5, 0.3, "even")
    gs = schwarzschild(1.0)
    x = sample_points(np.random.default_rng(3), n=20)
    tau = 0.37
    mid = interpolated(base, tau)
    expect = (1 - tau) * gs.metric(x) + tau * base.metric(x)
    assert np.allclose(mid.metric(x), expect, atol=1e-15)
    assert np.array_equal(interpolated(base, 0.0).metric(x), gs.metric(x))
    assert np.array_equal(interpolated(base, 1.0).metric(x), base.metric(x))
    with pytest.raises(ModelError):
        interpolated(base, 1.2)


def test_perturbation_values():
    even = perturbed_schwarzschild(1.0, 0.5, 1.0, "even")
    x = np.array([10.0, 0.0, 0.0])
    p11 = even.metric(x)[0, 0] - schwarzschild(1.0).metric(x)[0, 0]
    assert p11 == pytest.approx(10.0**-1.5, rel=1e-12)
    assert perturbed_schwarzschild(1.0, 0.5, 0.0, "odd").metric(x)[0, 0] == pytest.approx(
        schwarzschild(1.0).metric(x)[0, 0]
    )
    with pytest.raises(ModelError):
        perturbed_schwarzschild(1.0, 0.5, 1.0, "wiggly")


def test_euclidean_curvature_vanishes():
    flat = euclidean()
    x = sample_points(np.random.default_rng(4), n=10)
    assert np.abs(christoffel(flat, x)).max() == 0.0
    assert np.abs(ricci_at(flat, x)).max() == 0.0


def test_schwarzschild_is_scalar_flat():
    model = schwarzschild(1.0)
    x = sample_points(np.random.default_rng(5), n=50)
    assert np.abs(scalar_curvature(model, x)).max() < 1e-10


def test_ricci_matches_fd_of_christoffel():
    """Ricci from analytic d2g agrees with a FD assembly of Gamma."""
    model = perturbed_schwarzschild(1.0, 0.5, 0.2, "odd")
    x = np.array([[9.0, 3.0, -4.0], [12.0, -1.0, 2.0]])

    def fd_ricci(h):
        dgamma = np.empty((len(x), 3, 3, 3, 3))
        for m in range(3):
            e = np.zeros(3)
            e[m] = h
            dgamma[:, m] = (christoffel(model, x + e) - christoffel(model, x - e)) / (2 * h)
        gamma = christoffel(model, x)
        t1 = np.einsum("...kkij->...ij", dgamma)
        t2 = np.einsum("...ikkj->...ij", dgamma)
        t3 = np.einsum("...kkl,...lij->...ij", gamma, gamma)
        t4 = np.einsum("...kil,...lkj->...ij", gamma, gamma)
        return t1 - t2 + t3 - t4

    exact = ricci_at(model, x)
    err1 = np.abs(fd_ricci(1e-2) - exact).max()
    err2 = np.abs(fd_ricci(5e-3) - exact).max()
    assert err1 < 1e-6
    assert err1 / err2 > 3.0  # O(h^2) convergence of the oracle


def einsum_christoffel(ginv, dg):
    """Reference: ``Gamma^k_ij = (1/2) g^kl (d_i g_lj + d_j g_li - d_l g_ij)`` by einsum."""
    return 0.5 * np.einsum("...kl,...lij->...kij", ginv, models._index_combination(dg))


def einsum_ricci(ginv, dg, d2g, gamma):
    """Reference: ``d_m Gamma^k_ij`` as a 5-index array, then the four einsum traces."""
    dginv = -np.einsum("...ka,...mab,...bl->...mkl", ginv, dg, ginv)
    d2t = (
        np.einsum("...milj->...mlij", d2g) + np.einsum("...mjli->...mlij", d2g) - d2g
    )
    dgamma = 0.5 * (
        np.einsum("...mkl,...lij->...mkij", dginv, models._index_combination(dg))
        + np.einsum("...kl,...mlij->...mkij", ginv, d2t)
    )
    return (
        np.einsum("...kkij->...ij", dgamma)
        - np.einsum("...ikkj->...ij", dgamma)
        + np.einsum("...kkl,...lij->...ij", gamma, gamma)
        - np.einsum("...kil,...lkj->...ij", gamma, gamma)
    )


def random_metric_jets(rng, n):
    """SPD ``g``, ``dg`` symmetric in (i, j), ``d2g`` symmetric in both index pairs."""
    a = rng.standard_normal((n, 3, 3))
    g = a @ np.swapaxes(a, -1, -2) + 3.0 * np.eye(3)
    d = rng.standard_normal((n, 3, 3, 3))
    e = rng.standard_normal((n, 3, 3, 3, 3))
    e = e + np.swapaxes(e, -1, -2)
    return g, d + np.swapaxes(d, -1, -2), e + np.swapaxes(e, -4, -3)


def test_ricci_and_christoffel_match_einsum_references():
    """The batched products agree with the einsum formulas on general symmetric jets."""
    g, dg, d2g = random_metric_jets(np.random.default_rng(21), 50)
    ginv = np.linalg.inv(g)
    gamma = models._christoffel_from(ginv, dg)
    reference = einsum_christoffel(ginv, dg)
    assert np.abs(gamma - reference).max() <= 1e-13 * np.abs(reference).max()
    reference = einsum_ricci(ginv, dg, d2g, gamma)
    assert np.abs(ricci(ginv, dg, d2g, gamma) - reference).max() <= 1e-13 * np.abs(reference).max()
    # leading axes pass through: one point, and a (2, 25) stack
    one = ricci(ginv[7], dg[7], d2g[7], gamma[7])
    assert np.abs(one - reference[7]).max() <= 1e-13 * np.abs(reference).max()
    stacked = ricci(*(t.reshape((2, 25) + t.shape[1:]) for t in (ginv, dg, d2g, gamma)))
    assert np.abs(stacked.reshape(reference.shape) - reference).max() <= 1e-13 * np.abs(reference).max()


class AnisotropicMetric:
    """``g(x) = g0 + g1 . x + (1/2) x . g2 . x + s sin(w . x)``, a metric that is not conformally flat.

    ``g1[k]``, ``g2[k, l]`` and ``s`` are random symmetric 3x3 matrices, so
    first and second derivatives are closed-form and carry no index symmetry
    beyond that of a metric jet.  Points may be stacked along leading axes.
    """

    def __init__(self, rng):
        def sym(t):
            return 0.5 * (t + np.swapaxes(t, -1, -2))

        a = rng.standard_normal((3, 3))
        self.g0 = a @ a.T + 3.0 * np.eye(3)
        self.g1 = 0.1 * sym(rng.standard_normal((3, 3, 3)))
        g2 = sym(rng.standard_normal((3, 3, 3, 3)))
        self.g2 = 0.02 * (g2 + np.swapaxes(g2, 0, 1))
        self.s = 0.2 * sym(rng.standard_normal((3, 3)))
        self.w = rng.standard_normal(3)

    def metric(self, x):
        phase = np.sin(x @ self.w)[..., None, None]
        return (
            self.g0
            + np.einsum("...k,kij->...ij", x, self.g1)
            + 0.5 * np.einsum("...k,...l,klij->...ij", x, x, self.g2)
            + phase * self.s
        )

    def metric_deriv(self, x):
        phase = np.cos(x @ self.w)[..., None, None, None]
        return self.g1 + np.einsum("...l,klij->...kij", x, self.g2) + phase * self.w[:, None, None] * self.s

    def metric_deriv2(self, x):
        phase = -np.sin(x @ self.w)[..., None, None, None, None]
        return self.g2 + phase * np.multiply.outer(np.outer(self.w, self.w), self.s)


class AnisotropicData:
    """``kbar(x) = k0 + k1 . x + c cos(u . x)`` on an :class:`AnisotropicMetric`.

    ``k0``, ``k1[m]`` and ``c`` are random symmetric 3x3 matrices drawn after
    the metric's, so ``kbar`` shares no principal frame with ``g``.
    """

    def __init__(self, rng):
        def sym(t):
            return 0.5 * (t + np.swapaxes(t, -1, -2))

        self.base = AnisotropicMetric(rng)
        self.k0 = sym(rng.standard_normal((3, 3)))
        self.k1 = 0.3 * sym(rng.standard_normal((3, 3, 3)))
        self.c = 0.5 * sym(rng.standard_normal((3, 3)))
        self.u = rng.standard_normal(3)

    def evaluate(self, x):
        return SimpleNamespace(
            kbar=self.k0 + np.einsum("...m,mij->...ij", x, self.k1) + np.cos(x @ self.u)[..., None, None] * self.c,
            kbar_deriv=self.k1 - np.sin(x @ self.u)[..., None, None, None] * self.u[:, None, None] * self.c,
        )


def test_ricci_matches_fd_of_christoffel_on_anisotropic_metric():
    """Ricci from analytic d2g agrees with an FD assembly of Gamma off conformal flatness."""
    field = AnisotropicMetric(np.random.default_rng(22))
    x = np.array([0.3, -0.2, 0.4])

    def gamma_at(y):
        return models._christoffel_from(models._inverse_metric(field.metric(y)), field.metric_deriv(y))

    # closed-form derivatives: the jets agree with FD of the lower orders
    h = 1e-5
    steps = h * np.eye(3)
    fd_dg = np.array([(field.metric(x + e) - field.metric(x - e)) / (2 * h) for e in steps])
    fd_d2g = np.array([(field.metric_deriv(x + e) - field.metric_deriv(x - e)) / (2 * h) for e in steps])
    assert np.abs(fd_dg - field.metric_deriv(x)).max() < 1e-8
    assert np.abs(fd_d2g - field.metric_deriv2(x)).max() < 1e-8

    def fd_ricci(h):
        dgamma = np.array([(gamma_at(x + e) - gamma_at(x - e)) / (2 * h) for e in h * np.eye(3)])
        gamma = gamma_at(x)
        return (
            np.einsum("kkij->ij", dgamma)
            - np.einsum("ikkj->ij", dgamma)
            + np.einsum("kkl,lij->ij", gamma, gamma)
            - np.einsum("kil,lkj->ij", gamma, gamma)
        )

    ginv = models._inverse_metric(field.metric(x))
    exact = ricci(ginv, field.metric_deriv(x), field.metric_deriv2(x), gamma_at(x))
    err1 = np.abs(fd_ricci(1e-2) - exact).max()
    err2 = np.abs(fd_ricci(5e-3) - exact).max()
    assert err1 < 1e-4 * np.abs(exact).max()
    assert err1 / err2 > 3.0  # O(h^2) convergence of the oracle


def test_inverse_metric_matches_linalg_inv():
    """The cofactor inverse agrees with LAPACK on SPD stacks and on model metrics."""
    g, _, _ = random_metric_jets(np.random.default_rng(23), 200)
    metrics = [g] + [m.metric(sample_points(np.random.default_rng(24), n=200, rmin=12.0)) for m in ALL_MODELS]
    for stack in metrics:
        reference = np.linalg.inv(stack)
        inv = models._inverse_metric(stack)
        assert np.abs(inv - reference).max() <= 1e-14 * np.abs(reference).max()
        assert np.array_equal(inv, np.swapaxes(inv, -1, -2))
    assert np.array_equal(models._inverse_metric(g[0]), models._inverse_metric(g)[0])


@pytest.mark.parametrize(
    "g",
    [
        # each case fails one leading minor only: the other two are positive
        np.diag([-1.0, -1.0, 1.0]),  # g_00 < 0
        np.array([[1.0, 2.0, 0.0], [2.0, 1.0, 0.0], [0.0, 0.0, -1.0]]),  # g_00 g_11 - g_01^2 < 0
        np.diag([1.0, 1.0, 0.0]),  # det g = 0
    ],
    ids=["g00", "minor2", "det"],
)
def test_inverse_metric_rejects_indefinite_metrics(g):
    stack = np.stack([np.eye(3), g, 2.0 * np.eye(3)])
    with pytest.raises(DomainError, match="1 of 3 points"):
        models._inverse_metric(stack)


def random_tensor_stack(rng, n):
    """Random SPD metrics with symmetric ``dg``, ``kbar`` and ``dkbar``, sharing no frame with ``g``."""
    a = rng.standard_normal((n, 3, 3))
    g = np.einsum("nij,nkj->nik", a, a) + 3.0 * np.eye(3)

    def sym(t):
        return t + np.swapaxes(t, -1, -2)

    dg = sym(rng.standard_normal((n, 3, 3, 3)))
    kb = sym(rng.standard_normal((n, 3, 3)))
    dkb = sym(rng.standard_normal((n, 3, 3, 3)))
    return g, np.linalg.inv(g), dg, kb, dkb


def test_momentum_density_matches_three_operand_contractions():
    """The connection terms, contracted two at a time, agree with the plain three-operand sums."""
    g, ginv, dg, kb, dkb = random_tensor_stack(np.random.default_rng(12), 6)
    gamma = _christoffel_from(ginv, dg)
    hbar = np.einsum("...ab,...ab->...", ginv, kb)
    dginv = -np.einsum("...ka,...mab,...bl->...mkl", ginv, dg, ginv)
    dhbar = np.einsum("...mab,...ab->...m", dginv, kb) + np.einsum("...ab,...mab->...m", ginv, dkb)
    pi = hbar[..., None, None] * g - kb
    dpi = dhbar[..., :, None, None] * g[..., None, :, :] + hbar[..., None, None, None] * dg - dkb
    reference = (
        np.einsum("...jk,...jki->...i", ginv, dpi)
        - np.einsum("...jk,...ljk,...li->...i", ginv, gamma, pi)
        - np.einsum("...jk,...lji,...kl->...i", ginv, gamma, pi)
    )
    J = momentum_density(g, ginv, dg, gamma, kb, dkb)
    assert np.abs(J - reference).max() <= 1e-14 * np.abs(reference).max()


def normal_momentum_density_at(data, x, nu):
    g = data.base.metric(x)
    fields = data.evaluate(x)
    return normal_momentum_density(np.linalg.inv(g), data.base.metric_deriv(x), fields.kbar, fields.kbar_deriv, nu)


@pytest.mark.parametrize("seed", [12, 13, 14])
def test_normal_momentum_density_is_the_momentum_density_along_nu(seed):
    """``J(nu)`` from first derivatives equals ``J . nu`` where ``g^-1`` and ``kbar`` do not commute.

    Random SPD stacks share no frame between ``g`` and ``kbar``, so a slip in the
    order of ``u = g^-1 kbar nu`` (for example ``kbar g^-1 nu``) shows here although
    it cancels on every conformally flat model.  Extra leading axes pass through.
    """
    rng = np.random.default_rng(seed)
    g, ginv, dg, kb, dkb = random_tensor_stack(rng, 50)
    nu = rng.standard_normal((50, 3))
    expect = np.einsum("ni,ni->n", momentum_density(g, ginv, dg, _christoffel_from(ginv, dg), kb, dkb), nu)
    got = normal_momentum_density(ginv, dg, kb, dkb, nu)
    assert got.shape == (50,)
    assert np.abs(got - expect).max() <= 1e-14 * np.abs(expect).max()
    stacked = normal_momentum_density(*(a.reshape((5, 10) + a.shape[1:]) for a in (ginv, dg, kb, dkb, nu)))
    assert np.array_equal(stacked, got.reshape(5, 10))


def test_normal_momentum_density_matches_full_vector_on_anisotropic_data():
    data = AnisotropicData(np.random.default_rng(26))
    rng = np.random.default_rng(27)
    x = rng.uniform(-0.6, 0.6, size=(40, 3))
    nu = rng.standard_normal((40, 3))
    expect = np.einsum("ni,ni->n", momentum_density_at(data, x), nu)
    assert np.abs(normal_momentum_density_at(data, x, nu) - expect).max() <= 1e-14 * np.abs(expect).max()


def test_time_symmetric_data_has_zero_momentum_density():
    data = time_symmetric_data(schwarzschild(1.0))
    x = sample_points(np.random.default_rng(6), n=10)
    assert np.abs(momentum_density_at(data, x)).max() == 0.0
    assert np.abs(normal_momentum_density_at(data, x, x / np.linalg.norm(x, axis=-1, keepdims=True))).max() == 0.0
    assert np.abs(energy_density(data, x)).max() < 1e-10  # vacuum slice


def test_synthetic_kbar_values_and_homogeneity():
    data = synthetic_data(schwarzschild(1.0), delta=1.0, amplitude=1.0, direction=(1, 0, 0))
    x = np.array([10.0, 0.0, 0.0])
    kb = data.evaluate(x).kbar
    assert kb[0, 0] == pytest.approx(0.02, rel=1e-13)
    assert np.allclose(kb, kb.T)
    y = np.array([4.0, 7.0, -3.0])
    k1, k2 = data.evaluate(y).kbar, data.evaluate(2 * y).kbar
    mask = np.abs(k1) > 1e-12
    assert np.allclose(k2[mask] / k1[mask], 2.0 ** -(1 + 1.0), rtol=1e-12)


def test_synthetic_kbar_derivative_matches_fd():
    data = synthetic_data(schwarzschild(1.0), delta=0.7, amplitude=0.5, direction=(0.3, -1.2, 0.4))
    x = sample_points(np.random.default_rng(7), n=30)
    h = 1e-4 * np.linalg.norm(x, axis=-1).mean()
    fd = np.empty(x.shape[:-1] + (3, 3, 3))
    for l in range(3):
        e = np.zeros(3)
        e[l] = h
        fd[..., l, :, :] = (data.evaluate(x + e).kbar - data.evaluate(x - e).kbar) / (2 * h)
    assert np.abs(data.evaluate(x).kbar_deriv - fd).max() < 1e-8


def assert_momentum_density_matches_fd_divergence(data, x, h):
    """J from analytic derivatives agrees with an FD assembly at steps ``h`` and ``h/2``."""
    model = data.base

    def pi_at(y):
        g = model.metric(y)
        kb = data.evaluate(y).kbar
        hbar = np.einsum("...ab,...ab->...", np.linalg.inv(g), kb)
        return hbar[..., None, None] * g - kb

    def fd_div(h):
        dpi = np.empty((len(x), 3, 3, 3))
        dg = np.empty((len(x), 3, 3, 3))
        for j in range(3):
            e = np.zeros(3)
            e[j] = h
            dpi[:, j] = (pi_at(x + e) - pi_at(x - e)) / (2 * h)
            dg[:, j] = (model.metric(x + e) - model.metric(x - e)) / (2 * h)
        g = model.metric(x)
        ginv = np.linalg.inv(g)
        gamma = _christoffel_from(ginv, dg)
        pi = pi_at(x)
        return (
            np.einsum("...jk,...jki->...i", ginv, dpi)
            - np.einsum("...jk,...ljk,...li->...i", ginv, gamma, pi)
            - np.einsum("...jk,...lji,...kl->...i", ginv, gamma, pi)
        )

    # the normal form along fixed unit vectors is held to the same FD divergence
    nu = np.random.default_rng(28).standard_normal(x.shape)
    nu /= np.linalg.norm(nu, axis=-1, keepdims=True)
    fd = [fd_div(h), fd_div(h / 2)]
    checks = [
        (momentum_density_at(data, x), fd),
        (normal_momentum_density_at(data, x, nu), [np.einsum("ni,ni->n", d, nu) for d in fd]),
    ]
    for exact, (coarse, fine) in checks:
        err1 = np.abs(coarse - exact).max()
        err2 = np.abs(fine - exact).max()
        assert err1 < 1e-7
        assert err1 / err2 > 3.0


def test_momentum_density_matches_fd_divergence():
    """J from analytic derivatives agrees with an independent FD assembly."""
    data = synthetic_data(schwarzschild(1.0), delta=1.0, amplitude=1.0)
    assert_momentum_density_matches_fd_divergence(data, np.array([[10.0, 2.0, -1.0], [8.0, -5.0, 3.0]]), 1e-2)


def test_momentum_density_matches_fd_divergence_on_anisotropic_metric():
    """The same oracle off conformal flatness, where index-order slips against ``g^-1`` do not cancel.

    The field varies on unit scales, so the steps are smaller than at ``|x| ~ 10``.
    """
    data = AnisotropicData(np.random.default_rng(25))
    assert_momentum_density_matches_fd_divergence(data, np.array([[0.3, -0.2, 0.4], [-0.5, 0.1, 0.2]]), 1e-4)


def test_interpolated_metric_evaluates_each_end_once(monkeypatch):
    """``gS + tau (g - gS)`` calls the reference jet and the model jet once each, at the order read."""
    calls = Counter()

    def counted(name, jet):
        def wrapper(x, order):
            calls[f"{name}{order}"] += 1
            return jet(x, order)

        return wrapper

    reference = models._anchored_schwarzschild_jet
    monkeypatch.setattr(
        models, "_anchored_schwarzschild_jet", lambda mass, anchor: counted("reference", reference(mass, anchor))
    )
    model = perturbed_schwarzschild(1.0, 0.5, 0.1, "odd")
    mixed = interpolated(replace(model, _jet=counted("model", model._jet)), 0.35)
    x = sample_points(np.random.default_rng(9), n=4)
    for order, evaluate in zip((1, 1, 2), (mixed.metric, mixed.metric_deriv, mixed.metric_deriv2)):
        calls.clear()
        evaluate(x)
        assert calls == {f"model{order}": 1, f"reference{order}": 1}


def test_artificial_data_on_schwarzschild_is_trivial():
    data = artificial_data(schwarzschild(1.0), tau=0.5)
    x = sample_points(np.random.default_rng(8), n=5)
    assert np.abs(data.evaluate(x).kbar).max() == 0.0
    assert np.abs(data.evaluate(x).kbar_deriv).max() == 0.0
    assert np.all(data.evaluate(x).lapse == 1.0)


def test_artificial_data_factor_and_metric():
    model = perturbed_schwarzschild(1.0, 0.5, 0.1, "odd")
    x = np.array([12.0, 1.0, 0.0])
    gs = schwarzschild(1.0)
    for factor in (0.5, 2.0):
        data = artificial_data(model, tau=0.6, factor=factor)
        expect = factor * (gs.metric(x) - model.metric(x))
        assert np.allclose(data.evaluate(x).kbar, expect, atol=1e-15)
    tau = 0.6
    ambient = data.base.metric(x)
    assert np.allclose(ambient, gs.metric(x) + tau * (model.metric(x) - gs.metric(x)))


@pytest.mark.parametrize("anchor", [None, (0.0, 0.0, 0.0), (0.5, 0.2, -0.4)])
def test_artificial_joint_evaluation_equals_interpolated_bits(anchor):
    """One joint evaluation gives ``interpolated(model, tau)``'s metric and derivative and
    ``factor (gS - g)`` with its derivative, bit for bit, at random exterior points."""
    model = translated(perturbed_schwarzschild(1.0, 0.5, 0.1, "odd"), (0.21, -0.13, 0.37))
    x = model.exclusion_center + sample_points(np.random.default_rng(18), n=200, rmin=8.0, rmax=300.0)
    reference = translated(schwarzschild(1.0), model.exclusion_center if anchor is None else anchor)
    for tau, factor in ((0.35, 0.5), (0.8, 2.0)):
        fields = artificial_data(model, tau, factor=factor, anchor=anchor).evaluate(x)
        ambient = interpolated(model, tau, anchor=anchor)
        assert np.array_equal(fields.metric, ambient.metric(x))
        assert np.array_equal(fields.metric_deriv, ambient.metric_deriv(x))
        assert np.array_equal(fields.kbar, factor * (reference.metric(x) - model.metric(x)))
        assert np.array_equal(fields.kbar_deriv, factor * (reference.metric_deriv(x) - model.metric_deriv(x)))
        assert np.all(fields.lapse == 1.0) and np.all(fields.lapse_deriv == 0.0)


def test_decay_validator_schwarzschild_zero():
    report = verify_decay(schwarzschild(1.0))
    top = max(v for orders in report.constants.values() for v in orders.values())
    assert top == 0.0
    assert report.passed


def test_decay_validator_measures_even_amplitude():
    model = perturbed_schwarzschild(1.0, 0.5, 1.0, "even")
    report = verify_decay(model, radii=(16, 32, 64, 128, 256))
    c0 = report.constants["metric"][0]
    assert 0.5 <= c0 <= 2.0  # = A within factor 2
    assert abs(report.fitted_exponents["metric"] - 1.5) < 0.05
    assert report.passed


def test_decay_validator_flags_optimistic_rate():
    model = perturbed_schwarzschild(1.0, 0.5, 1.0, "even")
    optimistic = DecayClass(epsilon=1.0, constant=model.decay.constant)
    report = verify_decay(model, optimistic, radii=(16, 32, 64, 128, 256))
    assert report.growing
    assert not report.passed


def test_synthetic_data_rejects_bad_delta():
    with pytest.raises(ModelError):
        synthetic_data(schwarzschild(1.0), delta=1.5, amplitude=1.0)
    with pytest.raises(ModelError):
        synthetic_data(schwarzschild(1.0), delta=0.0, amplitude=1.0)


def test_decay_validator_on_initial_data():
    data = synthetic_data(schwarzschild(1.0), delta=0.8, amplitude=0.5)
    report = verify_decay(data, DecayClass(epsilon=1.0, delta=0.8), radii=(16, 32, 64, 128))
    assert "kbar" in report.constants
    assert 0 in report.constants["kbar"] and 1 in report.constants["kbar"]
    # weighted kbar sups stay bounded across radii for the matching delta
    w = report.per_radius["kbar"]["weighted"]
    assert max(w) <= 2.0 * min(w)
    assert abs(report.fitted_exponents["kbar"] - (1 + 0.8)) < 0.05
    # the Schwarzschild lapse is attached, so the lapse difference vanishes
    assert report.constants["lapse"][0] == 0.0
    assert report.constants["lapse"][1] == 0.0


def test_synthetic_data_zero_amplitude_is_time_symmetric():
    data = synthetic_data(schwarzschild(1.0), delta=1.0, amplitude=0.0)
    x = np.array([[10.0, 0.0, 0.0]])
    assert np.abs(data.evaluate(x).kbar).max() == 0.0
    assert np.abs(data.evaluate(x).kbar_deriv).max() == 0.0


@pytest.mark.parametrize(
    "make",
    [time_symmetric_data, lambda base: synthetic_data(base, delta=0.8, amplitude=0.5, direction=(0.6, 0.0, 0.8))],
    ids=["time-symmetric", "synthetic"],
)
def test_data_lapse_is_static_schwarzschild_about_the_moved_center(make):
    """On a moved base the lapse is ``(1 - 2m/r) / (1 + 2m/r)`` with ``r = |x - a|``, and its
    gradient matches central differences with step ``1e-4 r``; flat data have the unit lapse."""
    a = np.array([0.7, -0.4, 1.1])
    base = translated(interpolated(perturbed_schwarzschild(1.0, 0.5, 0.1, "odd"), 0.4), a)
    data = make(base)
    x = a + sample_points(np.random.default_rng(24), n=60, rmin=8.0, rmax=200.0)
    fields = data.evaluate(x)
    r = np.linalg.norm(x - a, axis=-1)
    m = base.mass
    np.testing.assert_allclose(fields.lapse, (1.0 - 2.0 * m / r) / (1.0 + 2.0 * m / r), rtol=1e-15)
    h = 1e-4 * r
    step = h[:, None, None] * np.eye(3)  # step[n, k] = h_n e_k
    fd = (data.evaluate(x[:, None, :] + step).lapse - data.evaluate(x[:, None, :] - step).lapse) / (2.0 * h[:, None])
    error = np.abs(fd - fields.lapse_deriv).max(axis=1) / np.linalg.norm(fields.lapse_deriv, axis=1)
    assert error.max() <= 1e-7

    flat = make(euclidean()).evaluate(x)
    assert np.all(flat.lapse == 1.0) and np.all(flat.lapse_deriv == 0.0)


# The term-by-term metric formulas the conformal evaluators replaced: every additive
# term builds its own full (n, 3, 3[, 3[, 3]]) array, and the arrays are then added.


def _expanded_schwarzschild(m, x):
    r = np.linalg.norm(x, axis=-1)
    g = (1.0 + m / (2.0 * r))[..., None, None] ** 4 * np.eye(3)
    r = r[..., None]
    phi = 1.0 + m / (2.0 * r)
    dphi = -(m / 2.0) * x / r**3
    dg = (4.0 * phi**3 * dphi)[..., :, None, None] * np.eye(3)
    phi = phi[..., None]
    d2phi = -(m / 2.0) * (
        np.eye(3) / r[..., None] ** 3 - 3.0 * x[..., :, None] * x[..., None, :] / r[..., None] ** 5
    )
    coef = 12.0 * phi**2 * dphi[..., :, None] * dphi[..., None, :] + 4.0 * phi**3 * d2phi
    return g, dg, coef[..., :, :, None, None] * np.eye(3)


def _expanded_perturbation(epsilon, A, shape, x):
    ID3, e1 = np.eye(3), np.eye(3)[0]
    r = np.linalg.norm(x, axis=-1)
    r1, r2 = r[..., None], r[..., None, None]
    xx = x[..., :, None] * x[..., None, :]
    if shape == "even":
        p = A * r ** -(1.0 + epsilon)
        dp = -A * (1.0 + epsilon) * x * r1 ** -(3.0 + epsilon)
        d2p = -A * (1.0 + epsilon) * (ID3 * r2 ** -(3.0 + epsilon) - (3.0 + epsilon) * xx * r2 ** -(5.0 + epsilon))
    else:
        x1 = x[..., 0][..., None, None]
        p = A * x[..., 0] * r ** -(2.0 + epsilon)
        dp = A * (e1 * r1 ** -(2.0 + epsilon) - (2.0 + epsilon) * x[..., 0:1] * x * r1 ** -(4.0 + epsilon))
        d2p = A * (
            -(2.0 + epsilon) * (e1[:, None] * x[..., None, :] + x[..., :, None] * e1[None, :] + x1 * ID3)
            * r2 ** -(4.0 + epsilon)
            + (2.0 + epsilon) * (4.0 + epsilon) * x1 * xx * r2 ** -(6.0 + epsilon)
        )
    return p[..., None, None] * ID3, dp[..., :, None, None] * ID3, d2p[..., :, :, None, None] * ID3


def _expanded_perturbed(m, epsilon, A, shape, x):
    return tuple(a + b for a, b in zip(_expanded_schwarzschild(m, x), _expanded_perturbation(epsilon, A, shape, x)))


@pytest.mark.parametrize(
    "model, reference",
    [
        (schwarzschild(1.0), lambda x: _expanded_schwarzschild(1.0, x)),
        (euclidean(), lambda x: _expanded_schwarzschild(0.0, x)),
        (perturbed_schwarzschild(1.0, 0.5, 0.3, "even"), lambda x: _expanded_perturbed(1.0, 0.5, 0.3, "even", x)),
        (perturbed_schwarzschild(1.0, 0.5, 0.1, "odd"), lambda x: _expanded_perturbed(1.0, 0.5, 0.1, "odd", x)),
        (
            translated(perturbed_schwarzschild(1.0, 0.5, 0.1, "odd"), (0.3, -0.2, 0.1)),
            lambda x: _expanded_perturbed(1.0, 0.5, 0.1, "odd", x - np.array([0.3, -0.2, 0.1])),
        ),
        (
            interpolated(perturbed_schwarzschild(1.0, 0.5, 0.1, "odd"), 0.35),
            lambda x: tuple(
                s + 0.35 * (p - s)
                for s, p in zip(_expanded_schwarzschild(1.0, x), _expanded_perturbed(1.0, 0.5, 0.1, "odd", x))
            ),
        ),
    ],
    ids=["schwarzschild", "euclidean", "even", "odd", "translated", "interpolated"],
)
def test_conformal_evaluators_equal_term_by_term_expansion(model, reference):
    """Adding the scalar factors before one diagonal expansion gives the same arrays.

    The expansion writes each factor into the diagonal of a zero array, so the
    arrays equal the term-by-term ``_ID3`` products and sums exactly (up to the
    sign of exact zeros).
    """
    x = sample_points(np.random.default_rng(17), n=200, rmin=5.0, rmax=200.0)
    expected = reference(x)
    for evaluate, want in zip((model.metric, model.metric_deriv, model.metric_deriv2), expected):
        got = evaluate(x)
        assert got.shape == want.shape
        assert np.array_equal(got, want)
