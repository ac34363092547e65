"""Analytic ambient 3-metrics and initial data sets.

Every model supplies one closed-form evaluator, its jet: the metric with
its first and, on request, second coordinate derivatives on ``|x| > r_min``,
sharing the radius and its powers across orders (finite differences
appear only in tests).  An initial data set attaches, in one evaluator of
its :class:`DataFields`, a symmetric two-tensor ``kbar`` with first
derivatives and the lapse of its slicing: the static Schwarzschild lapse
about the base's exclusion center, or the unit lapse of
:func:`artificial_data`.  The energy and momentum densities are *defined*
through the constraint equations

    2*rho = S - |kbar|^2 + (tr kbar)^2,      J = div(tr(kbar) g - kbar),

so every model is a valid data set by construction.  Surface integrals read
only ``J(nu)``, which :func:`normal_momentum_density` builds from first
derivatives without Christoffel symbols; :func:`momentum_density` is the
full vector, kept as the constraint oracle.

Array conventions (vectorized over leading axes):

* points ``x``: shape ``(..., 3)``
* metric ``g``: ``(..., 3, 3)``
* first derivatives ``dg[..., k, i, j] = d_k g_ij``
* second derivatives ``d2g[..., l, k, i, j] = d_l d_k g_ij``
* the jet ``MetricModel.jet(x, order)``: ``(g, dg)`` for ``order = 1``,
  ``(g, dg, d2g)`` for ``order = 2``; the first two parts are the same
  bits at either order
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
    "normal_momentum_density",
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

    One evaluator, the jet ``_jet(x, order)``, returns ``(g, dg)`` for
    ``order = 1`` and ``(g, dg, d2g)`` for ``order = 2``; ``metric``,
    ``metric_deriv`` and ``metric_deriv2`` read one part of it.  Evaluation
    is restricted to the exterior of the exclusion ball (center
    ``exclusion_center``, radius ``r_min``), which keeps surface
    computations in the asymptotic regime and away from the isotropic
    coordinate singularity.
    """

    name: str
    mass: float
    r_min: float
    decay: DecayClass
    exclusion_center: np.ndarray = field(default_factory=lambda: np.zeros(3))
    _jet: Callable = None

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

    def jet(self, x, order: int) -> tuple:
        """``(g, dg)`` at ``x`` for ``order = 1``, ``(g, dg, d2g)`` for ``order = 2``, from one evaluation."""
        return self._jet(self._check_domain(x), order)

    def metric(self, x) -> np.ndarray:
        return self.jet(x, 1)[0]

    def metric_deriv(self, x) -> np.ndarray:
        return self.jet(x, 1)[1]

    def metric_deriv2(self, x) -> np.ndarray:
        return self.jet(x, 2)[2]


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


def _expand(s):
    """``s[..., None, None] * delta_ij``, written into the diagonal of a zero array."""
    out = np.zeros(s.shape + (9,))
    out[..., ::4] = s[..., None]
    return out.reshape(s.shape + (3, 3))


def _conformal(*factors):
    """The jet of the conformally flat metric ``(sum of factors)(x) delta_ij``.

    Each factor jet ``f(x, r, order)`` returns the scalar factor, its
    gradient ``(..., 3)`` and, for ``order = 2``, its Hessian
    ``(..., 3, 3)``, given ``r = |x|``; the factors add before one
    expansion per order.
    """

    def jet(x, order):
        r = np.linalg.norm(x, axis=-1)
        terms = zip(*(f(x, r, order) for f in factors))  # per order, one term per factor
        return tuple(_expand(sum(rest, first)) for first, *rest in terms)

    return jet


def _schwarzschild_factor(m: float):
    """Conformal factor ``phi^4``, ``phi = 1 + m/2r``, with its gradient and Hessian."""

    def factor(x, r, order):
        phi = 1.0 + m / (2.0 * r)
        r1, phi1 = r[..., None], phi[..., None]
        r3 = r1**3
        dphi = -(m / 2.0) * x / r3
        parts = [phi**4, 4.0 * phi1**3 * dphi]
        if order > 1:
            phi2 = phi1[..., None]
            d2phi = -(m / 2.0) * (
                _ID3 / r3[..., None] - 3.0 * x[..., :, None] * x[..., None, :] / r1[..., None] ** 5
            )
            parts.append(12.0 * phi2**2 * dphi[..., :, None] * dphi[..., None, :] + 4.0 * phi2**3 * d2phi)
        return parts

    return factor


def _schwarzschild_jet(m: float):
    return _conformal(_schwarzschild_factor(m))


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
    return MetricModel(
        name=f"schwarzschild(m={m:g})",
        mass=m,
        r_min=max(4.0 * m, 1.0),
        decay=DecayClass(epsilon=1.0, constant=0.0),
        _jet=_schwarzschild_jet(m),
    )


def euclidean() -> MetricModel:
    """Flat ambient space; the zero-mass limit used in oracle tests."""
    return MetricModel(
        name="euclidean",
        mass=0.0,
        r_min=0.0,
        decay=DecayClass(epsilon=1.0, constant=0.0),
        _jet=_schwarzschild_jet(0.0),
    )


def _shifted(jet, a):
    """``jet`` evaluated at ``x - a``."""
    return lambda x, order: jet(np.asarray(x, dtype=float) - a, order)


def translated(model: MetricModel, a: Sequence[float]) -> MetricModel:
    """The same geometry expressed in coordinates shifted by ``a``."""
    a = np.asarray(a, dtype=float).reshape(3)
    return replace(
        model,
        name=f"translated({model.name}, a={a.tolist()})",
        exclusion_center=model.exclusion_center + a,
        _jet=_shifted(model._jet, a),
    )


def _anchored_schwarzschild_jet(mass: float, anchor: np.ndarray):
    jet = _schwarzschild_jet(mass)
    return jet if np.all(anchor == 0) else _shifted(jet, anchor)


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
    reference, jet = _anchored_schwarzschild_jet(model.mass, anchor), model._jet

    def mixed(x, order):
        return tuple(a + tau * (b - a) for a, b in zip(reference(x, order), jet(x, order)))

    return replace(model, name=f"interpolated({model.name}, tau={tau:g})", _jet=mixed)


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

    # each shape is ``p(x) delta_ij``: a factor jet of the scalar p, its gradient and its Hessian
    if shape == "even":

        def perturbation(x, r, order):
            r3 = r ** -(3.0 + epsilon)
            parts = [A * r ** -(1.0 + epsilon), -A * (1.0 + epsilon) * x * r3[..., None]]
            if order > 1:
                xx = x[..., :, None] * x[..., None, :]
                r5 = (r ** -(5.0 + epsilon))[..., None, None]
                parts.append(-A * (1.0 + epsilon) * (_ID3 * r3[..., None, None] - (3.0 + epsilon) * xx * r5))
            return parts

        # order-by-order sup of r^(1+|g|+eps)|d^g p| over directions
        cbar = A * max(1.0, 1.0 + epsilon, (1.0 + epsilon) * (4.0 + epsilon))
    else:

        def perturbation(x, r, order):
            e1, x1 = _ID3[0], x[..., 0]
            r2, r4 = r ** -(2.0 + epsilon), r ** -(4.0 + epsilon)
            parts = [
                A * x1 * r2,
                A * (e1 * r2[..., None] - (2.0 + epsilon) * x[..., 0:1] * x * r4[..., None]),
            ]
            if order > 1:
                x11 = x1[..., None, None]
                xx = x[..., :, None] * x[..., None, :]
                e1x = e1[:, None] * x[..., None, :]
                xe1 = x[..., :, None] * e1[None, :]
                r6 = (r ** -(6.0 + epsilon))[..., None, None]
                parts.append(
                    A * (
                        -(2.0 + epsilon) * (e1x + xe1 + x11 * _ID3) * r4[..., None, None]
                        + (2.0 + epsilon) * (4.0 + epsilon) * x11 * xx * r6
                    )
                )
            return parts

        cbar = A * max(1.0, 3.0 + epsilon, (2.0 + epsilon) * (7.0 + epsilon))

    return replace(
        base,
        name=f"perturbed(m={m:g}, eps={epsilon:g}, A={A:g}, {shape})",
        decay=DecayClass(epsilon=epsilon, constant=cbar),
        _jet=_conformal(_schwarzschild_factor(m), perturbation),
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
    """Closed-form extrinsic curvature ``B (b_i y_j + b_j y_i) / r^(2+delta)``, ``y = x - c``, ``r = |y|``.

    Decays like ``r^-(1+delta)``; the lapse is the static Schwarzschild one
    of the base mass about ``c``, the base's exclusion center, so the data
    satisfy the declared decay class with any ``delta`` in ``(0, 1]`` and
    move with a translation of the base.
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
        y = x - base.exclusion_center
        r = np.linalg.norm(y, axis=-1)[..., None, None]
        by = b[:, None] * y[..., None, :] + y[..., :, None] * b[None, :]
        decay = r ** -(2.0 + delta)
        dkb = B * (
            dlin * decay[..., None]
            - (2.0 + delta) * y[..., :, None, None] * by[..., None, :, :] * r[..., None] ** -(4.0 + delta)
        )
        return DataFields(B * by * decay, dkb, *_static_lapse(base.mass, base.exclusion_center, x))

    return InitialDataModel(base, fields)


def artificial_data(model: MetricModel, tau: float, anchor=None) -> InitialDataModel:
    """Slice data of the artificial product spacetime at interpolation time ``tau``.

    The ambient metric is ``interpolated(model, tau)``; the slice extrinsic
    curvature is ``(gS - g) / 2 = -(1/2) d_tau g_tau``, the one the
    evolution ``d_tau g = -2 kbar`` with unit lapse defines.  One jet of
    ``g`` and one of ``gS`` give both the ambient metric with its derivative
    (bit for bit those of :func:`interpolated`) and ``kbar`` with its
    derivative, through the one difference ``g - gS``.
    """
    anchor = np.asarray(
        anchor if anchor is not None else model.exclusion_center, dtype=float
    ).reshape(3)
    ambient = interpolated(model, tau, anchor=anchor)
    reference = _anchored_schwarzschild_jet(model.mass, anchor)

    def fields(x):
        (a, da), (b, db) = reference(x, 1), model._jet(x, 1)
        d, dd = b - a, db - da
        return DataFields(
            kbar=-0.5 * d,
            kbar_deriv=-0.5 * dd,
            lapse=np.ones(x.shape[:-1]),
            lapse_deriv=np.zeros(x.shape),
            metric=a + tau * d,
            metric_deriv=da + tau * dd,
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
    g, dg = model.jet(x, 1)
    return _christoffel_from(_inverse_metric(g), dg)


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
    g, dg, d2g = model.jet(x, 2)
    ginv = _inverse_metric(g)
    ric = ricci(ginv, dg, d2g, _christoffel_from(ginv, dg))
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


def normal_momentum_density(ginv, dg, kb, dkb, nu) -> np.ndarray:
    """``J(nu) = nu^i J_i`` of :func:`momentum_density`, without Christoffel symbols.

    ``Gamma^l_ji pi^j_l = (1/2) pi^jm d_i g_jm`` and ``Gamma^j_jl = (1/2) c_l``
    turn the divergence into first derivatives, and the ``tr kbar`` terms
    cancel: ``J(nu) = nu . (F - f - R/2) + u . (e - c/2)`` with
    ``u = g^-1 kbar nu``, ``M = g^-1 kbar g^-1``, ``F_m = g^ab d_m kbar_ab``,
    ``f_b = g^ja d_j kbar_ab``, ``e_b = g^ja d_j g_ab``, ``c_m = g^ab d_m g_ab``
    and ``R_m = M^ab d_m g_ab``.  The contractions run with the points on
    the last axis, so each is one pass over the points.
    """
    lead = nu.shape[:-1]

    def points_last(a):
        tail = a.shape[len(lead):]
        return np.ascontiguousarray(a.reshape(-1, np.prod(tail, dtype=int)).T).reshape(tail + (-1,))

    G, K, dK, dG, v = map(points_last, (ginv, kb, dkb, dg, nu))
    gk = np.einsum("abn,bcn->acn", G, K)
    u = np.einsum("acn,cn->an", gk, v)
    M = np.einsum("acn,cdn->adn", gk, G)
    F, c, R = (np.einsum("mabn,abn->mn", d, w) for d, w in ((dK, G), (dG, G), (dG, M)))
    f, e = (np.einsum("jabn,jan->bn", d, G) for d in (dK, dG))
    return np.sum(v * (F - f - 0.5 * R) + u * (e - 0.5 * c), axis=0).reshape(lead)


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

    reference = _schwarzschild_jet(model.mass)
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

    diffs = []  # per radius, the sups of orders 0, 1 and 2
    for r in radii:
        pts = r * dirs
        diffs.append([sup_abs(a - b) for a, b in zip(model.jet(pts, 2), reference(pts, 2))])
    for order, sups in enumerate(zip(*diffs)):
        record("metric", order, eps, sups)

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
