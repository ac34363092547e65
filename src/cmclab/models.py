"""Analytic ambient 3-metrics and initial data sets.

Every model supplies closed-form evaluators for the metric and its first
and second coordinate derivatives on ``|x| > r_min`` (finite differences
appear only in tests).  An initial data set attaches, in one evaluator of
its :class:`DataFields`, a symmetric two-tensor ``kbar`` with first
derivatives and the lapse of its slicing: the static Schwarzschild lapse
about the base's exclusion center, or the unit lapse of
:func:`artificial_data`.  The energy and momentum densities are *defined*
through the constraint equations

    2*rho = S - |kbar|^2 + (tr kbar)^2,      J = div(tr(kbar) g - kbar),

so every model is a valid data set by construction.

Array conventions (vectorized over leading axes):

* points ``x``: shape ``(..., 3)``
* metric ``g``: ``(..., 3, 3)``
* first derivatives ``dg[..., k, i, j] = d_k g_ij``
* second derivatives ``d2g[..., l, k, i, j] = d_l d_k g_ij``
* ``kbar`` like ``g``; ``dkbar`` like ``dg``; lapse scalar ``(...,)`` with
  gradient ``(..., 3)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Sequence

import numpy as np

from .errors import DomainError, ModelError
from .sphere import build_grid

__all__ = [
    "DecayClass",
    "MetricModel",
    "InitialDataModel",
    "DataFields",
    "DecayReport",
    "euclidean",
    "schwarzschild",
    "translated",
    "interpolated",
    "perturbed_schwarzschild",
    "synthetic_data",
    "time_symmetric_data",
    "artificial_data",
    "christoffel",
    "ricci",
    "scalar_curvature",
    "momentum_density",
    "energy_density",
    "verify_decay",
]

_ID3 = np.eye(3)


@dataclass(frozen=True)
class DecayClass:
    """Decay order bookkeeping: ``|d^g (g - gS)| <= constant / r^(1+|g|+epsilon)``.

    ``delta`` is the extrinsic-curvature exponent of the matching data set
    (``|d^g kbar| <= c / r^(1+|g|+delta)``).
    """

    epsilon: float
    delta: float = 1.0
    constant: float | None = None

    def __post_init__(self):
        if self.epsilon <= 0:
            raise ModelError(f"decay rate epsilon must be positive, got {self.epsilon}")
        if not (0 < self.delta <= 1 + self.epsilon):
            raise ModelError(f"delta must lie in (0, 1 + epsilon], got {self.delta}")
        if self.constant is not None and self.constant < 0:
            raise ModelError("decay constant must be nonnegative")


@dataclass(frozen=True)
class MetricModel:
    """Ambient Riemannian 3-metric with analytic derivatives.

    Evaluation is restricted to the exterior of the exclusion ball
    (center ``exclusion_center``, radius ``r_min``), which keeps surface
    computations in the asymptotic regime and away from the isotropic
    coordinate singularity.
    """

    name: str
    mass: float
    r_min: float
    decay: DecayClass
    exclusion_center: np.ndarray = field(default_factory=lambda: np.zeros(3))
    _g: Callable = None
    _dg: Callable = None
    _d2g: Callable = None

    def _check_domain(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.shape[-1] != 3:
            raise ModelError(f"points must have shape (..., 3), got {x.shape}")
        r = np.linalg.norm(x - self.exclusion_center, axis=-1)
        if np.any(r <= self.r_min):
            raise DomainError(
                f"point at radius {r.min():.3g} inside exclusion radius {self.r_min:.3g} "
                f"of model '{self.name}'"
            )
        return x

    def metric(self, x) -> np.ndarray:
        return self._g(self._check_domain(x))

    def metric_deriv(self, x) -> np.ndarray:
        return self._dg(self._check_domain(x))

    def metric_deriv2(self, x) -> np.ndarray:
        return self._d2g(self._check_domain(x))


@dataclass(frozen=True)
class DataFields:
    """An initial data set's tensors at one set of points, from one evaluation.

    ``metric`` and ``metric_deriv`` are the base metric and its first
    derivatives when the data set evaluates them together with ``kbar``
    (:func:`artificial_data`), else ``None``.
    """

    kbar: np.ndarray
    kbar_deriv: np.ndarray
    lapse: np.ndarray
    lapse_deriv: np.ndarray
    metric: np.ndarray | None = None
    metric_deriv: np.ndarray | None = None


@dataclass(frozen=True)
class InitialDataModel:
    """Initial data set: base metric plus one evaluator ``_fields(x) -> DataFields``."""

    base: MetricModel
    _fields: Callable

    def evaluate(self, x) -> DataFields:
        """Every field of the data set at ``x``, after one domain check."""
        return self._fields(self.base._check_domain(x))


# ---------------------------------------------------------------------------
# model constructors
# ---------------------------------------------------------------------------


def _conformal(psi, dpsi, d2psi):
    """The ``g``/``dg``/``d2g`` evaluators of the conformally flat metric ``psi(x) delta_ij``.

    ``psi``, ``dpsi`` and ``d2psi`` give the scalar factor, its gradient
    ``(..., 3)`` and its Hessian ``(..., 3, 3)``; each evaluator expands its
    scalar array against ``_ID3`` once.
    """

    def g(x):
        return psi(x)[..., None, None] * _ID3

    def dg(x):
        return dpsi(x)[..., :, None, None] * _ID3

    def d2g(x):
        return d2psi(x)[..., :, :, None, None] * _ID3

    return g, dg, d2g


def _schwarzschild_factors(m: float):
    """Conformal factor ``phi^4``, ``phi = 1 + m/2r``, with its gradient and Hessian."""

    def psi(x):
        r = np.linalg.norm(x, axis=-1)
        return (1.0 + m / (2.0 * r)) ** 4

    def dpsi(x):
        r = np.linalg.norm(x, axis=-1)[..., None]
        phi = 1.0 + m / (2.0 * r)
        dphi = -(m / 2.0) * x / r**3
        return 4.0 * phi**3 * dphi

    def d2psi(x):
        r = np.linalg.norm(x, axis=-1)[..., None]
        phi = (1.0 + m / (2.0 * r))[..., None]
        dphi = -(m / 2.0) * x / r**3
        d2phi = -(m / 2.0) * (
            _ID3 / r[..., None] ** 3
            - 3.0 * x[..., :, None] * x[..., None, :] / r[..., None] ** 5
        )
        return 12.0 * phi**2 * dphi[..., :, None] * dphi[..., None, :] + 4.0 * phi**3 * d2phi

    return psi, dpsi, d2psi


def _schwarzschild_evaluators(m: float):
    return _conformal(*_schwarzschild_factors(m))


def _static_lapse(m: float, center, x):
    """The static Schwarzschild lapse ``(1 - 2m/r) / (1 + 2m/r)``, ``r = |x - center|``, and its gradient."""
    d = x - center
    r = np.linalg.norm(d, axis=-1)
    alpha = (1.0 - 2.0 * m / r) / (1.0 + 2.0 * m / r)
    r = r[..., None]
    return alpha, (4.0 * m / (r + 2.0 * m) ** 2) * d / r


def schwarzschild(m: float) -> MetricModel:
    """Conformally flat Schwarzschild timeslice ``(1 + m/2r)^4 * euclidean``."""
    if m <= 0:
        raise ModelError(f"Schwarzschild mass must be positive, got {m}")
    g, dg, d2g = _schwarzschild_evaluators(m)
    return MetricModel(
        name=f"schwarzschild(m={m:g})",
        mass=m,
        r_min=max(4.0 * m, 1.0),
        decay=DecayClass(epsilon=1.0, constant=0.0),
        _g=g,
        _dg=dg,
        _d2g=d2g,
    )


def euclidean() -> MetricModel:
    """Flat ambient space; the zero-mass limit used in oracle tests."""
    g, dg, d2g = _schwarzschild_evaluators(0.0)
    return MetricModel(
        name="euclidean",
        mass=0.0,
        r_min=0.0,
        decay=DecayClass(epsilon=1.0, constant=0.0),
        _g=g,
        _dg=dg,
        _d2g=d2g,
    )


def translated(model: MetricModel, a: Sequence[float]) -> MetricModel:
    """The same geometry expressed in coordinates shifted by ``a``."""
    a = np.asarray(a, dtype=float).reshape(3)

    def shift(fn):
        return lambda x: fn(np.asarray(x, dtype=float) - a)

    return replace(
        model,
        name=f"translated({model.name}, a={a.tolist()})",
        exclusion_center=model.exclusion_center + a,
        _g=shift(model._g),
        _dg=shift(model._dg),
        _d2g=shift(model._d2g),
    )


def _anchored_schwarzschild_evaluators(mass: float, anchor: np.ndarray):
    fns = _schwarzschild_evaluators(mass)
    if np.all(anchor == 0):
        return fns
    return tuple((lambda f: (lambda x: f(np.asarray(x, dtype=float) - anchor)))(f) for f in fns)


def _affine(a, b, tau):
    """``a + tau * (b - a)``: the interpolation of :func:`interpolated` and :func:`artificial_data`."""
    return a + tau * (b - a)


def interpolated(model: MetricModel, tau: float, anchor=None) -> MetricModel:
    """Affine interpolation ``gS + tau * (g - gS)`` toward Schwarzschild.

    ``tau = 0`` is the Schwarzschild metric of the model's mass, ``tau = 1``
    the model itself.  The Schwarzschild reference is centered at
    ``anchor`` (default: the model's exclusion center, so translated models
    interpolate toward a translated reference and the family is
    translation-equivariant).
    """
    if not (0.0 <= tau <= 1.0):
        raise ModelError(f"interpolation parameter must lie in [0, 1], got {tau}")
    anchor = np.asarray(
        anchor if anchor is not None else model.exclusion_center, dtype=float
    ).reshape(3)
    gs, dgs, d2gs = _anchored_schwarzschild_evaluators(model.mass, anchor)

    def mix(fa, fb):
        return lambda x: _affine(fa(x), fb(x), tau)

    return replace(
        model,
        name=f"interpolated({model.name}, tau={tau:g})",
        _g=mix(gs, model._g),
        _dg=mix(dgs, model._dg),
        _d2g=mix(d2gs, model._d2g),
    )


_PERTURBATION_SHAPES = ("even", "odd")


def perturbed_schwarzschild(
    m: float, epsilon: float, amplitude: float, shape: str = "even"
) -> MetricModel:
    """Schwarzschild plus a closed-form decaying perturbation.

    Shapes: ``"even"`` adds ``A * delta_ij / r^(1+eps)`` (parity even, keeps
    all centers at the origin); ``"odd"`` adds ``A * x1 * delta_ij / r^(2+eps)``
    (parity odd, drives the centers along the x-axis).
    """
    if shape not in _PERTURBATION_SHAPES:
        raise ModelError(f"unknown perturbation shape {shape!r}; choose from {_PERTURBATION_SHAPES}")
    if epsilon <= 0:
        raise ModelError("perturbation decay epsilon must be positive")
    base = schwarzschild(m)
    A = float(amplitude)

    # each shape is ``p(x) delta_ij``: the scalar p, its gradient and its Hessian
    if shape == "even":

        def p(x):
            r = np.linalg.norm(x, axis=-1)
            return A * r ** -(1.0 + epsilon)

        def dp(x):
            r = np.linalg.norm(x, axis=-1)[..., None]
            return -A * (1.0 + epsilon) * x * r ** -(3.0 + epsilon)

        def d2p(x):
            r = np.linalg.norm(x, axis=-1)[..., None, None]
            xx = x[..., :, None] * x[..., None, :]
            return -A * (1.0 + epsilon) * (
                _ID3 * r ** -(3.0 + epsilon) - (3.0 + epsilon) * xx * r ** -(5.0 + epsilon)
            )

        # order-by-order sup of r^(1+|g|+eps)|d^g p| over directions
        cbar = A * max(1.0, 1.0 + epsilon, (1.0 + epsilon) * (4.0 + epsilon))
    else:

        def p(x):
            r = np.linalg.norm(x, axis=-1)
            return A * x[..., 0] * r ** -(2.0 + epsilon)

        def dp(x):
            r = np.linalg.norm(x, axis=-1)[..., None]
            e1 = _ID3[0]
            return A * (e1 * r ** -(2.0 + epsilon) - (2.0 + epsilon) * x[..., 0:1] * x * r ** -(4.0 + epsilon))

        def d2p(x):
            r = np.linalg.norm(x, axis=-1)[..., None, None]
            e1 = _ID3[0]
            x1 = x[..., 0][..., None, None]
            xx = x[..., :, None] * x[..., None, :]
            e1x = e1[:, None] * x[..., None, :]
            xe1 = x[..., :, None] * e1[None, :]
            return A * (
                -(2.0 + epsilon) * (e1x + xe1 + x1 * _ID3) * r ** -(4.0 + epsilon)
                + (2.0 + epsilon) * (4.0 + epsilon) * x1 * xx * r ** -(6.0 + epsilon)
            )

        cbar = A * max(1.0, 3.0 + epsilon, (2.0 + epsilon) * (7.0 + epsilon))

    def add(fa, fb):
        return lambda x: fa(x) + fb(x)

    # the factors add before the single expansion to (..., 3, 3[, 3[, 3]]) arrays
    g, dg, d2g = _conformal(*map(add, _schwarzschild_factors(m), (p, dp, d2p)))

    return replace(
        base,
        name=f"perturbed(m={m:g}, eps={epsilon:g}, A={A:g}, {shape})",
        decay=DecayClass(epsilon=epsilon, constant=cbar),
        _g=g,
        _dg=dg,
        _d2g=d2g,
    )


def time_symmetric_data(base: MetricModel) -> InitialDataModel:
    """Data with vanishing extrinsic curvature (momentum-free) and the static lapse of ``base``."""

    def fields(x):
        lapse = _static_lapse(base.mass, base.exclusion_center, x)
        return DataFields(np.zeros(x.shape[:-1] + (3, 3)), np.zeros(x.shape[:-1] + (3, 3, 3)), *lapse)

    return InitialDataModel(base, fields)


def synthetic_data(
    base: MetricModel, delta: float, amplitude: float, direction: Sequence[float] = (1.0, 0.0, 0.0)
) -> InitialDataModel:
    """Closed-form extrinsic curvature ``B (b_i x_j + b_j x_i) / r^(2+delta)``.

    Decays like ``r^-(1+delta)``; the lapse is the static Schwarzschild one
    of the base mass about its exclusion center, so the data satisfy the
    declared decay class with any ``delta`` in ``(0, 1]``.
    """
    if not (0.0 < delta <= 1.0):
        raise ModelError(f"kbar decay exponent delta must lie in (0, 1], got {delta}")
    B = float(amplitude)
    if B == 0.0:
        return time_symmetric_data(base)
    b = np.asarray(direction, dtype=float).reshape(3)
    nb = np.linalg.norm(b)
    if nb == 0:
        raise ModelError("direction must be a nonzero vector")
    b = b / nb

    # dlin[l, i, j] = d_l (b_i x_j + b_j x_i) = b_i delta_jl + b_j delta_il
    dlin = _ID3[:, None, :] * b[None, :, None] + _ID3[:, :, None] * b[None, None, :]

    def fields(x):
        r = np.linalg.norm(x, axis=-1)[..., None, None]
        bx = b[:, None] * x[..., None, :] + x[..., :, None] * b[None, :]
        decay = r ** -(2.0 + delta)
        dkb = B * (
            dlin * decay[..., None]
            - (2.0 + delta) * x[..., :, None, None] * bx[..., None, :, :] * r[..., None] ** -(4.0 + delta)
        )
        return DataFields(B * bx * decay, dkb, *_static_lapse(base.mass, base.exclusion_center, x))

    return InitialDataModel(base, fields)


def artificial_data(
    model: MetricModel, tau: float, factor: float = 0.5, anchor=None
) -> InitialDataModel:
    """Slice data of the artificial product spacetime at interpolation time ``tau``.

    The ambient metric is ``interpolated(model, tau)``; the slice extrinsic
    curvature is ``factor * (gS - g)`` with unit lapse.  ``factor = 0.5`` is
    the definitional value ``-(1/2) d_tau g_tau``; ``factor = 2.0`` is kept
    as a diagnostic variant (see the decay/center comparison reports).  One
    joint evaluation of ``g``, ``dg``, ``gS`` and ``dgS`` gives both the
    ambient metric with its derivative (bit for bit those of
    :func:`interpolated`) and ``kbar`` with its derivative.
    """
    anchor = np.asarray(
        anchor if anchor is not None else model.exclusion_center, dtype=float
    ).reshape(3)
    ambient = interpolated(model, tau, anchor=anchor)
    gs, dgs, _ = _anchored_schwarzschild_evaluators(model.mass, anchor)

    def fields(x):
        a, b = gs(x), model._g(x)
        da, db = dgs(x), model._dg(x)
        return DataFields(
            kbar=factor * (a - b),
            kbar_deriv=factor * (da - db),
            lapse=np.ones(x.shape[:-1]),
            lapse_deriv=np.zeros(x.shape),
            metric=_affine(a, b, tau),
            metric_deriv=_affine(da, db, tau),
        )

    return InitialDataModel(ambient, fields)


# ---------------------------------------------------------------------------
# curvature assembly
# ---------------------------------------------------------------------------


def _index_combination(dg):
    """``t[..., l, i, j] = d_i g_lj + d_j g_li - d_l g_ij``; leading axes pass through."""
    return np.einsum("...ilj->...lij", dg) + np.einsum("...jli->...lij", dg) - dg


def _inverse_and_det(g):
    """Cofactor inverse and determinant of a stack of symmetric 3x3 metrics.

    Raises :class:`DomainError` unless every metric is positive definite:
    its leading minors ``g_00``, ``g_00 g_11 - g_01^2`` and ``det g`` must be positive.
    """
    (a, b, c), (_, d, e), (_, _, f) = np.moveaxis(g, (-2, -1), (0, 1))
    cof = np.stack([d * f - e * e, c * e - b * f, b * e - c * d, a * f - c * c, b * c - a * e, a * d - b * b])
    det = a * cof[0] + b * cof[1] + c * cof[2]
    bad = ~((a > 0) & (cof[5] > 0) & (det > 0))
    if np.any(bad):
        raise DomainError(f"metric not positive definite at {np.count_nonzero(bad)} of {bad.size} points")
    return np.moveaxis(cof[[0, 1, 2, 1, 3, 4, 2, 4, 5]] / det, 0, -1).reshape(g.shape), det


def _inverse_metric(g):
    """Cofactor inverse of a stack of symmetric 3x3 metrics (see :func:`_inverse_and_det`)."""
    return _inverse_and_det(g)[0]


def _christoffel_from(ginv, dg):
    """``Gamma^k_ij = (1/2) g^kl t_lij`` as one batched ``(3, 3) @ (3, 9)`` product."""
    t = _index_combination(dg)
    return 0.5 * (ginv @ t.reshape(t.shape[:-2] + (9,))).reshape(t.shape)


def christoffel(model: MetricModel, x) -> np.ndarray:
    """Christoffel symbols ``Gamma[..., k, i, j] = Gamma^k_ij``."""
    return _christoffel_from(_inverse_metric(model.metric(x)), model.metric_deriv(x))


def ricci(ginv, dg, d2g, gamma) -> np.ndarray:
    """Ricci tensor from ``g^-1``, ``dg``, ``d2g`` and ``Gamma`` at the same points.

    ``R_ij = d_k Gamma^k_ij - d_i Gamma^k_kj + Gamma^k_kl Gamma^l_ij - Gamma^k_il Gamma^l_kj``,
    each sum a batched 3x3 product.  From ``2 d_m Gamma^k_ij = d_m g^kl t_lij + g^kl d_m t_lij``
    (``t`` of :func:`_index_combination`) and ``d_m g^kl = -g^ka d_m g_ab g^bl``, the two traces are
    ``2 d_k Gamma^k_ij = -2 e_b Gamma^b_ij + A_ij + A_ji - B_ij`` and
    ``2 d_i Gamma^k_kj = -2 d_i g_ab (g^-1 Gamma)^ab_j + C_ij``, with ``e_b = g^ka d_k g_ab``,
    ``(g^-1 Gamma)^ab_j = g^ak Gamma^b_kj``, ``A_ij = g^kl d_i d_k g_lj``,
    ``B_ij = g^kl d_k d_l g_ij`` and ``C_ij = g^kl d_i d_j g_kl``; neither ``d g^-1`` nor
    ``t`` is built.
    """
    lead = ginv.shape[:-2]

    def mat(a, *shape):
        return a.reshape(lead + shape)

    gi, d2 = mat(ginv, 1, 9), mat(d2g, 9, 9)
    A = mat(gi[..., None, :, :] @ mat(d2g, 3, 9, 3), 3, 3)
    B, C = mat(gi @ d2, 3, 3), mat(d2 @ mat(ginv, 9, 1), 3, 3)
    # swapped[..., i, k, l] = Gamma^k_il, so Gamma^k_il Gamma^l_kj is a (3, 9) @ (9, 3) product
    swapped = np.ascontiguousarray(np.swapaxes(gamma, -3, -2))
    v = np.einsum("...kkl->...l", gamma)[..., None, :]  # Gamma^k_kl
    e = gi @ mat(dg, 9, 3)  # e_b = g^ka d_k g_ab
    ginv_gamma = mat(ginv @ mat(swapped, 3, 9), 9, 3)  # (g^-1 Gamma)^ab_j
    linear = mat((v - e) @ mat(gamma, 3, 9), 3, 3) + mat(dg, 3, 9) @ ginv_gamma
    return 0.5 * (A + np.swapaxes(A, -1, -2) - B - C) + linear - mat(swapped, 3, 9) @ mat(swapped, 9, 3)


def scalar_curvature(model: MetricModel, x) -> np.ndarray:
    ginv = _inverse_metric(model.metric(x))
    dg = model.metric_deriv(x)
    ric = ricci(ginv, dg, model.metric_deriv2(x), _christoffel_from(ginv, dg))
    return np.einsum("...ij,...ij->...", ginv, ric)


def momentum_density(g, ginv, dg, gamma, kb, dkb) -> np.ndarray:
    """Constraint momentum density ``J_i = (div(tr(kbar) g - kbar))_i``.

    Takes the metric, its inverse, ``dg`` and ``Gamma`` with ``kbar`` and
    ``dkbar``, all at the same points.  With ``pi = hbar g - kbar``,
    ``J_i = g^jk d_j pi_ki - (g^jk Gamma^l_jk) pi_li - (g^-1 pi)^j_l Gamma^l_ji``,
    each sum one two-operand contraction.  No ``d pi`` array is built:
    ``g^jk d_j pi_ki = d_i hbar + g^jk (hbar d_j g_ki - d_j kbar_ki)`` and
    ``d_m hbar = g^ab d_m kbar_ab - (g^-1 kbar g^-1)^ab d_m g_ab``.
    """
    hbar = np.einsum("...ab,...ab->...", ginv, kb)
    dhbar = np.einsum("...mab,...ab->...m", dkb, ginv) - np.einsum("...mab,...ab->...m", dg, ginv @ kb @ ginv)
    div = np.einsum("...jk,...jki->...i", ginv, hbar[..., None, None, None] * dg - dkb)
    pi = hbar[..., None, None] * g - kb
    v = np.einsum("...ljk,...jk->...l", gamma, ginv)  # v^l = g^jk Gamma^l_jk
    # (g^-1 pi)^j_l Gamma^l_ji = (pi g^-1)_lj Gamma^l_ji
    connection = np.einsum("...l,...li->...i", v, pi) + np.einsum("...lj,...lji->...i", pi @ ginv, gamma)
    return dhbar + div - connection


def energy_density(data: InitialDataModel, x) -> np.ndarray:
    """Constraint energy density ``2 rho = S - |kbar|^2 + (tr kbar)^2``."""
    model = data.base
    ginv = _inverse_metric(model.metric(x))
    kb = data.evaluate(x).kbar
    hbar = np.einsum("...ab,...ab->...", ginv, kb)
    ksq = np.einsum("...ac,...bd,...ab,...cd->...", ginv, ginv, kb, kb)
    return 0.5 * (scalar_curvature(model, x) - ksq + hbar**2)


# ---------------------------------------------------------------------------
# decay validation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DecayReport:
    """Measured decay constants of a model or data set.

    ``constants[quantity][order]`` is ``max_r sup_dir r^(1+order+rate) *
    |d^order difference|`` with the rate appropriate for the quantity;
    ``per_radius`` holds the radius-resolved sups of the zeroth order for
    exponent fitting.
    """

    radii: tuple
    constants: dict
    per_radius: dict
    fitted_exponents: dict
    declared_constant: float | None
    passed: bool
    growing: bool


def verify_decay(
    target: MetricModel | InitialDataModel,
    decay: DecayClass | None = None,
    radii: Sequence[float] = (16.0, 32.0, 64.0, 128.0, 256.0),
) -> DecayReport:
    """Measure asymptotic decay against a declared class.

    Samples ``r^(1+|order|+rate) |d^order (quantity - reference)|`` on a
    fixed direction set for orders 0..2 (metric) and 0..1 (kbar, lapse) and
    reports the sups; ``passed`` checks them against the declared constant
    when one is given.  A monotone factor >2 growth of the order-0 sup from
    the smallest to the largest radius marks the report as ``growing``
    (declared rate too optimistic).
    """
    radii = tuple(float(r) for r in radii)
    if any(b <= a for a, b in zip(radii, radii[1:])):
        raise ModelError("sample radii must be strictly increasing")
    if isinstance(target, InitialDataModel):
        data, model = target, target.base
    else:
        data, model = None, target
    if decay is None:
        decay = model.decay
    eps, delta = decay.epsilon, decay.delta
    dirs = build_grid(8).directions

    gs, dgs, d2gs = _schwarzschild_evaluators(model.mass)
    per_radius: dict = {}
    constants: dict = {}

    def record(quantity, order, rate, sups):
        weighted = [r ** (1.0 + order + rate) * s for r, s in zip(radii, sups)]
        constants.setdefault(quantity, {})[order] = max(weighted)
        if order == 0:
            per_radius[quantity] = {"sup": tuple(sups), "weighted": tuple(weighted)}

    def sup_abs(arr):
        flat = arr.reshape(arr.shape[0], -1)
        return np.abs(flat).max()

    diffs0, diffs1, diffs2 = [], [], []
    for r in radii:
        pts = r * dirs
        diffs0.append(sup_abs(model.metric(pts) - gs(pts)))
        diffs1.append(sup_abs(model.metric_deriv(pts) - dgs(pts)))
        diffs2.append(sup_abs(model.metric_deriv2(pts) - d2gs(pts)))
    record("metric", 0, eps, diffs0)
    record("metric", 1, eps, diffs1)
    record("metric", 2, eps, diffs2)

    if data is not None:
        k0, k1, a0, a1 = [], [], [], []
        for r in radii:
            pts = r * dirs
            fields = data.evaluate(pts)
            alpha, dalpha = _static_lapse(model.mass, 0.0, pts)
            k0.append(sup_abs(fields.kbar))
            k1.append(sup_abs(fields.kbar_deriv))
            a0.append(sup_abs(fields.lapse - alpha))
            a1.append(sup_abs(fields.lapse_deriv - dalpha))
        record("kbar", 0, delta, k0)
        record("kbar", 1, delta, k1)
        record("lapse", 0, eps - delta, a0)
        record("lapse", 1, eps - delta, a1)

    fitted = {}
    for quantity, row in per_radius.items():
        sups = np.asarray(row["sup"])
        if np.all(sups > 0):
            slope = np.polyfit(np.log(radii), np.log(sups), 1)[0]
            fitted[quantity] = -slope  # measured decay exponent 1 + rate
        else:
            fitted[quantity] = np.inf

    growing = False
    for row in per_radius.values():
        w = row["weighted"]
        if w[-1] > 2.0 * max(w[0], 1e-300) and w[0] > 0:
            growing = True

    declared = decay.constant
    if declared is None:
        passed = not growing
    else:
        top = max(v for orders in constants.values() for v in orders.values())
        passed = top <= max(declared, 1e-12) and not growing
    return DecayReport(
        radii=radii,
        constants=constants,
        per_radius=per_radius,
        fitted_exponents=fitted,
        declared_constant=declared,
        passed=passed,
        growing=growing,
    )
