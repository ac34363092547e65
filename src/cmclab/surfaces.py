"""Differential geometry of radial-graph closed surfaces in an ambient metric.

A surface is the graph ``x(theta, phi) = center + rho(theta, phi) * N`` over
the unit sphere, with a positive band-limited radial field.  All tensor
fields on the surface are stored componentwise in the ambient Cartesian
frame (tangential operators act via projection), which avoids the
coordinate singularities of raw (theta, phi) components at the poles.

Sign convention: ``k(X, Y) = <nabla_X Y, nu>`` with outward unit normal
``nu``, so the Euclidean round sphere of radius ``r`` has mean curvature
``H = -2/r``.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np
import scipy.linalg

from .errors import (
    ConfigurationError,
    GridMismatchError,
    ResolutionWarning,
    SolvabilityError,
    SolverError,
)
from .models import MetricModel, _christoffel_from, _inverse_and_det, ricci
from .sphere import ScalarField, SphericalGrid

__all__ = [
    "SurfaceEmbedding",
    "SurfaceGeometry",
    "compute_geometry",
    "euclidean_center",
    "low_eigenpairs",
    "resample",
    "surface_divergence",
    "w1inf_norm",
]

#: fraction of spectral energy allowed in the top two degrees before a
#: resolution warning is emitted
_TAIL_ENERGY_LIMIT = 0.01
#: relative tolerance of the preconditioned Krylov solve.  The residual it
#: bounds is the explicit preconditioned one, ``|P(b - A x)| / |P b|``, whose
#: round-off floor grows with the near-kernel conditioning of the l = 1 modes:
#: up to ``0.72 eps cond(block)`` measured for the deflated 4x4 block the
#: preconditioner inverts (``cond ~ sigma / 3m`` with positive mass).  So the
#: tolerance is ``max(_KRYLOV_RTOL, _KRYLOV_FLOOR * eps * cond(block))``, which
#: stays at ``_KRYLOV_RTOL`` below ``sigma ~ 340 m``
_KRYLOV_RTOL = 1e-13
_KRYLOV_FLOOR = 4.0
#: GMRES restart length and cycle limit (the preconditioned iteration
#: needs about 10 steps, independent of the band limit)
_KRYLOV_RESTART = 40
_KRYLOV_CYCLES = 5
#: LOBPCG iteration limit (converged leaves need a few iterations)
_LOBPCG_ITERATIONS = 40
#: eigenpair residual bound ``|A x - lambda M x| * sigma^2`` (scale-invariant)
_EIGEN_TOL = 1e-9
#: eigenpairs with ``|lambda| * sigma^2`` at most this are exact kernel (the
#: translation modes of a flat-ambient CMC surface measure below 1e-13)
_KERNEL_TOL = 1e-10
#: relative residual of the CG mass solve in :meth:`SurfaceGeometry.apply_operator`
_MASS_RTOL = 1e-14
#: iteration limit and relative step tolerance of the ray intersection in
#: :func:`resample`
_RESAMPLE_MAX_ITER = 60
_RESAMPLE_TOL = 1e-13


class SurfaceChart(NamedTuple):
    """Chart fields of a radial graph, shape (n,) or (n, 3); see :attr:`SurfaceEmbedding.chart`."""

    rho_theta: np.ndarray
    rho_phi: np.ndarray
    tangents: np.ndarray  # (n, 2, 3): t_theta, t_phi
    conormal: np.ndarray  # t_theta x t_phi
    conormal_norm2: np.ndarray  # |t_theta x t_phi|^2 = det(t t^T)


@dataclass(frozen=True)
class SurfaceEmbedding:
    """Star-shaped closed surface: center plus radial graph coefficients.

    The canonical representation is spectral (``rho_coeffs``); node values
    are synthesized on demand, and :meth:`to_record` writes the coefficients
    as they are.
    ``radius_values`` and ``positions`` are built on first read, and so is
    the :attr:`chart`, which depends on ``(grid, rho_coeffs)`` only:
    :meth:`translate` hands it to the moved surface.
    """

    grid: SphericalGrid
    center: np.ndarray
    rho_coeffs: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.center, dtype=float).reshape(3)
        rc = np.asarray(self.rho_coeffs, dtype=float)
        if rc.shape != (self.grid.n_coeffs,):
            raise GridMismatchError(
                f"expected {self.grid.n_coeffs} radial coefficients, got {rc.shape}"
            )
        object.__setattr__(self, "center", c)
        object.__setattr__(self, "rho_coeffs", rc)
        if self.radius_values.min() <= 0:
            raise ConfigurationError("radial field must be positive everywhere")

    @classmethod
    def round_sphere(cls, grid: SphericalGrid, radius: float, center=(0.0, 0.0, 0.0)):
        if radius <= 0:
            raise ConfigurationError(f"sphere radius must be positive, got {radius}")
        coeffs = np.zeros(grid.n_coeffs)
        coeffs[0] = radius * np.sqrt(4.0 * np.pi)
        return cls(grid, np.asarray(center, dtype=float), coeffs)

    @classmethod
    def from_radial_values(cls, grid: SphericalGrid, values: np.ndarray, center=(0.0, 0.0, 0.0)):
        return cls(grid, np.asarray(center, dtype=float), grid.analyze_values(values))

    @cached_property
    def radius_values(self) -> np.ndarray:
        return self.grid.synthesize_values(self.rho_coeffs)

    @cached_property
    def positions(self) -> np.ndarray:
        return self.center + self.radius_values[:, None] * self.grid.directions

    @cached_property
    def chart(self) -> SurfaceChart:
        """``rho_theta``, ``rho_phi``, the tangents ``t_I = d_I (rho N)`` and the conormal.

        Translation-invariant: it is the same for every center.
        """
        grid, c, rho = self.grid, self.rho_coeffs, self.radius_values
        rho_t = grid.synthesize_values(c, dtheta=1)
        rho_p = grid.synthesize_values(c, dphi=1)
        N = grid.directions
        t_th = rho_t[:, None] * N + rho[:, None] * grid.d_dir_dtheta
        t_ph = rho_p[:, None] * N + rho[:, None] * grid.d_dir_dphi
        n = np.cross(t_th, t_ph)
        return SurfaceChart(rho_t, rho_p, np.stack([t_th, t_ph], axis=1), n, np.einsum("ni,ni->n", n, n))

    def translate(self, a) -> "SurfaceEmbedding":
        """The same graph about ``center + a``; it shares this surface's :attr:`chart`."""
        moved = SurfaceEmbedding(self.grid, self.center + np.asarray(a, dtype=float), self.rho_coeffs)
        moved.__dict__["chart"] = self.chart
        return moved

    def with_radius(self, coeffs: np.ndarray) -> "SurfaceEmbedding":
        return SurfaceEmbedding(self.grid, self.center, coeffs)

    def on_grid(self, grid: SphericalGrid) -> "SurfaceEmbedding":
        """The radial graph at another band limit, about the same center.

        The flat coefficient layout is degree-major, so padding with zeros
        (or truncating) is an exact band-limited restatement.
        """
        if grid is self.grid:
            return self
        coeffs = np.zeros(grid.n_coeffs)
        n = min(grid.n_coeffs, self.grid.n_coeffs)
        coeffs[:n] = self.rho_coeffs[:n]
        return SurfaceEmbedding(grid, self.center, coeffs)

    # -- serialization ----------------------------------------------------

    def to_record(self) -> dict:
        return {
            "center": self.center.tolist(),
            "band_limit": self.grid.band_limit,
            "rho_coeffs": self.rho_coeffs.tolist(),
        }


class SurfaceGeometry:
    """First/second fundamental forms and derived fields of one embedding.

    Instances are computed once by :func:`compute_geometry` and treated as
    immutable.  The constructor builds what every reader needs: the
    positions, the ambient metric ``gbar`` and its derivative (one
    :meth:`MetricModel.jet`), its inverse, the outward unit normal ``nu``,
    both area elements (``weights_induced``, ``weights_euclidean``),
    ``area`` and ``sigma_scale``.  The area elements come from the
    surface's conormal ``n = t_theta x t_phi``
    (:attr:`SurfaceEmbedding.chart`): ``det(t t^T) = |n|^2`` and
    ``det(t gbar t^T) = det gbar * n gbar^-1 n``, and ``nu`` is
    ``gbar^-1 n`` normalised.  The ambient Christoffel symbols
    ``gamma_bar`` are built on first read (by ``second_fund``,
    ``Ric(nu, nu)`` and :func:`surface_divergence`; the momentum integrals
    never read them), and so are the ``tangents``, the induced metric
    ``a = t gbar t^T`` (``induced``), its inverse, ``normal_flat``,
    ``second_fund`` (``k``), ``mean_curvature``, ``|k|^2``, the trace-free
    part of ``k``, ``Ric(nu, nu)``, the stability potential, the l <= 1
    Galerkin block and the operator's exact kernel, each cached; so is the
    record of the initial data read on the nodes (``data_cache``).  No
    solve reads the dense (test-oracle) matrices.
    """

    def __init__(self, surface: SurfaceEmbedding, model: MetricModel, metric=None):
        """``metric``: ``(g, dg)`` of ``model`` already evaluated at the surface's nodes, if any."""
        grid = surface.grid
        self.surface = surface
        self.model = model
        self.grid = grid
        chart = surface.chart
        self.positions = x = surface.positions

        self.gbar, self.dgbar = metric if metric is not None else model.jet(x, 1)
        self.gbar_inv, det_g = _inverse_and_det(self.gbar)

        # with the conormal n = t_theta x t_phi: det(t gbar t^T) = det gbar * n gbar^-1 n
        nu = np.einsum("nij,nj->ni", self.gbar_inv, chart.conormal)
        n_nu = np.einsum("ni,ni->n", chart.conormal, nu)
        det_a = det_g * n_nu
        if det_a.min() <= 0:
            raise SolverError("induced metric degenerate: surface parametrization broke down")
        sin_t = np.repeat(grid.sin_theta, grid.n_phi)
        self.weights_induced = grid.weights * np.sqrt(det_a) / sin_t
        self.weights_euclidean = grid.weights * np.sqrt(chart.conormal_norm2) / sin_t
        self.area = float(self.weights_induced.sum())
        self.sigma_scale = float(np.sqrt(self.area / (4.0 * np.pi)))

        # outward unit normal: gbar^-1 n has gbar-norm^2 n gbar^-1 n
        nu /= np.sqrt(n_nu)[:, None]
        outward = np.einsum("ni,ni->n", nu, x - surface.center)
        if np.mean(outward) < 0:
            nu, outward = -nu, -outward
        if np.any(outward <= 0):
            raise SolverError("normal orientation inconsistent: surface not star-shaped")
        self.normal = nu
        #: ``(data, record)`` of the last initial data set read on these nodes
        #: (:func:`cmclab.physics.data_record`)
        self.data_cache = None

    @cached_property
    def gamma_bar(self) -> np.ndarray:
        """Ambient Christoffel symbols ``Gamma^k_ij`` at the nodes, shape (n, 3, 3, 3)."""
        return _christoffel_from(self.gbar_inv, self.dgbar)

    @cached_property
    def tangents(self) -> np.ndarray:
        """Chart tangents ``t_I``, shape (n, 2, 3), from the surface's :attr:`~SurfaceEmbedding.chart`."""
        return self.surface.chart.tangents

    @cached_property
    def induced(self) -> np.ndarray:
        """Induced metric ``a_IJ = t_I gbar t_J`` in the (theta, phi) chart, shape (n, 2, 2)."""
        t = self.tangents
        return t @ self.gbar @ np.swapaxes(t, 1, 2)

    @cached_property
    def induced_inv(self) -> np.ndarray:
        """``a^IJ`` by the 2x2 cofactor formula."""
        a = self.induced
        inv = np.empty_like(a)
        inv[:, 0, 0] = a[:, 1, 1]
        inv[:, 1, 1] = a[:, 0, 0]
        inv[:, 0, 1] = inv[:, 1, 0] = -a[:, 0, 1]
        return inv / (a[:, 0, 0] * a[:, 1, 1] - a[:, 0, 1] ** 2)[:, None, None]

    @cached_property
    def normal_flat(self) -> np.ndarray:
        """The normal's covector ``gbar nu``."""
        return np.einsum("nij,nj->ni", self.gbar, self.normal)

    @cached_property
    def second_derivs(self) -> np.ndarray:
        """Chart second derivatives ``x_IJ`` of the positions, shape (n, 2, 2, 3)."""
        grid, c, chart = self.grid, self.surface.rho_coeffs, self.surface.chart
        rho, rho_t, rho_p = self.surface.radius_values, chart.rho_theta, chart.rho_phi
        rho_tt = grid.synthesize_values(c, dtheta=2)
        rho_tp = grid.synthesize_values(c, dtheta=1, dphi=1)
        rho_pp = grid.synthesize_values(c, dphi=2)
        N = grid.directions
        Nt, Np = grid.d_dir_dtheta, grid.d_dir_dphi
        Ntt, Ntp, Npp = grid.d2_dir_dtheta2, grid.d2_dir_dthetadphi, grid.d2_dir_dphi2
        x_tt = rho_tt[:, None] * N + 2 * rho_t[:, None] * Nt + rho[:, None] * Ntt
        x_tp = rho_tp[:, None] * N + rho_t[:, None] * Np + rho_p[:, None] * Nt + rho[:, None] * Ntp
        x_pp = rho_pp[:, None] * N + 2 * rho_p[:, None] * Np + rho[:, None] * Npp
        return np.stack([np.stack([x_tt, x_tp], axis=1), np.stack([x_tp, x_pp], axis=1)], axis=1)

    @cached_property
    def second_fund(self) -> np.ndarray:
        """``k_IJ = (x_IJ + Gamma(t_I, t_J)) . nu_flat`` with ``Gamma(t_I, t_J)^k = t_I Gamma^k t_J^T``."""
        t = self.tangents
        gamma_t = np.moveaxis(t[:, None] @ self.gamma_bar @ np.swapaxes(t, 1, 2)[:, None], 1, -1)
        return np.einsum("nIJk,nk->nIJ", self.second_derivs + gamma_t, self.normal_flat)

    @cached_property
    def mean_curvature(self) -> np.ndarray:
        """``H = a^IJ k_IJ``."""
        return np.einsum("nIJ,nIJ->n", self.induced_inv, self.second_fund)

    @cached_property
    def trace_free(self) -> np.ndarray:
        """Trace-free second fundamental form ``k - (H/2) a`` in chart components."""
        return self.second_fund - 0.5 * self.mean_curvature[:, None, None] * self.induced

    @cached_property
    def k_norm2(self) -> np.ndarray:
        """``|k|^2 = a^IK a^JL k_IJ k_KL``."""
        return self._norm2(self.second_fund)

    @cached_property
    def trace_free_norm2(self) -> np.ndarray:
        return self._norm2(self.trace_free)

    def _norm2(self, b: np.ndarray) -> np.ndarray:
        """``a^IK a^JL b_IJ b_KL``: the sum of ``(a^-1 b) * (b a^-1)`` over both indices."""
        ainv = self.induced_inv
        return np.sum((ainv @ b) * (b @ ainv), axis=(1, 2))

    @cached_property
    def ric_normal(self) -> np.ndarray:
        """``Ric(nu, nu)``; evaluates the second metric derivatives on first use.

        Only the stability operator reads it, so geometries that serve the
        mean curvature or the momentum integrals never build Ricci.
        """
        d2g = self.model.metric_deriv2(self.positions)
        ric = ricci(self.gbar_inv, self.dgbar, d2g, self.gamma_bar)
        return np.einsum("nij,ni,nj->n", ric, self.normal, self.normal)

    @cached_property
    def potential(self) -> np.ndarray:
        """Stability-operator potential ``|k|^2 + Ric(nu, nu)``."""
        return self.k_norm2 + self.ric_normal

    # -- chart calculus ----------------------------------------------------

    def chart_derivs(self, values: np.ndarray) -> np.ndarray:
        """Spectral (theta, phi) derivatives of a node scalar, shape (n, 2)."""
        c = self.grid.analyze_values(values)
        return np.stack(
            [self.grid.synthesize_values(c, dtheta=1), self.grid.synthesize_values(c, dphi=1)],
            axis=1,
        )

    def integrate(self, values: np.ndarray) -> float:
        """``int values dmu`` over the ambient-induced measure."""
        return float(self.weights_induced @ values)

    # -- weak-form operator -------------------------------------------------

    @cached_property
    def _galerkin_weights(self):
        """Pointwise weights ``w a^IJ`` and ``w V`` of the Galerkin forms."""
        w = self.weights_induced
        inv = self.induced_inv
        return w * inv[:, 0, 0], w * inv[:, 0, 1], w * inv[:, 1, 1], w * self.potential

    def galerkin_apply(self, coeffs: np.ndarray) -> np.ndarray:
        """``A @ coeffs`` for the Galerkin matrix ``A`` of :attr:`operator_matrices`.

        Matrix-free: synthesizes ``f, f_theta, f_phi``, weights them
        pointwise and applies the transposed transforms, at O(L^3) cost
        instead of the O(L^6) assembly.
        """
        g = self.grid
        W11, W12, W22, wV = self._galerkin_weights
        f = g.synthesize_values(coeffs)
        ft = g.synthesize_values(coeffs, dtheta=1)
        fp = g.synthesize_values(coeffs, dphi=1)
        return (
            g.adjoint_values(wV * f)
            - g.adjoint_values(W11 * ft + W12 * fp, dtheta=1)
            - g.adjoint_values(W12 * ft + W22 * fp, dphi=1)
        )

    def mass_apply(self, coeffs: np.ndarray) -> np.ndarray:
        """``M @ coeffs`` for the L2(dmu) mass matrix, matrix-free."""
        g = self.grid
        return g.adjoint_values(self.weights_induced * g.synthesize_values(coeffs))

    @cached_property
    def _low_block(self) -> np.ndarray:
        """The symmetrised 4x4 Galerkin block on degrees l <= 1, by quadrature.

        ``Y^T (wV Y) - Y_theta^T (W11 Y_theta + W12 Y_phi) - Y_phi^T (W12 Y_theta + W22 Y_phi)``
        over the grid's :attr:`~SphericalGrid.low_degree_basis`; no operator apply.
        """
        Y, Yt, Yp = self.grid.low_degree_basis
        W11, W12, W22, wV = (w[:, None] for w in self._galerkin_weights)
        block = Y.T @ (wV * Y) - Yt.T @ (W11 * Yt + W12 * Yp) - Yp.T @ (W12 * Yt + W22 * Yp)
        return 0.5 * (block + block.T)

    @cached_property
    def _kernel(self):
        """``(K, M K)``: M-orthonormal pairs with ``|lambda| sigma^2 <= _KERNEL_TOL``.

        In a flat ambient, the translation modes of a CMC surface.  With
        positive mass (degree-one cluster near ``6m/sigma^3``) it is empty
        and no eigensolve runs.
        """
        n = self.grid.n_coeffs
        K = np.zeros((n, 0))
        if self.model.mass <= 0.0:
            lams, vecs = _low_pairs(self, 3)
            K = vecs[:, np.abs(lams) * self.sigma_scale**2 <= _KERNEL_TOL]
        return K, np.array([self.mass_apply(k) for k in K.T]).reshape(K.shape[1], n).T

    def galerkin_solve(self, load: np.ndarray) -> tuple[np.ndarray, int]:
        """Solve ``A u = load`` by preconditioned GMRES; returns ``(u, iterations)``.

        GMRES solves the deflated system ``(A - (4/sigma^2) MK (MK)^T) u =
        load - MK K^T load`` for the exact kernel ``K`` (:attr:`_kernel`,
        empty with positive mass): the kernel moves to the round-sphere l = 2
        value, its load is dropped and ``u`` has no kernel component.  The
        left preconditioner inverts ``diag(2 - l(l+1))``, the Galerkin matrix
        of every Euclidean round sphere, on l >= 2 and the exact deflated
        4x4 block on degrees l <= 1, which hold the near-kernel translation
        modes.  The relative tolerance rises above ``_KRYLOV_RTOL`` with that
        block's condition number, which sets the round-off floor of the
        preconditioned residual.  Raises :class:`SolverError` unless GMRES
        converges, so a caller never receives an unconverged solution.
        """
        import scipy.sparse.linalg as spla

        n = self.grid.n_coeffs
        K, MK = self._kernel
        shift = -4.0 / self.sigma_scale**2
        block = self._low_block + shift * (MK[:4] @ MK[:4].T)
        try:
            block_inv = np.linalg.inv(block)
        except np.linalg.LinAlgError as exc:
            raise SolverError(f"degree <= 1 Galerkin block is singular: {exc}") from exc
        rtol = max(_KRYLOV_RTOL, _KRYLOV_FLOOR * np.finfo(float).eps * np.linalg.cond(block))
        l = self.grid.coeff_l[4:]
        inverses = (block_inv, 1.0 / (2.0 - l * (l + 1.0)))

        def matvec(c):
            return _block_diagonal(inverses, self.galerkin_apply(c) + shift * (MK @ (MK.T @ c)))

        iterations = 0

        def count(_):
            nonlocal iterations
            iterations += 1

        u, info = spla.gmres(
            spla.LinearOperator((n, n), matvec=matvec, dtype=float),
            _block_diagonal(inverses, load - MK @ (K.T @ load)),
            rtol=rtol,
            atol=0.0,
            restart=_KRYLOV_RESTART,
            maxiter=_KRYLOV_CYCLES,
            callback=count,
            callback_type="pr_norm",
        )
        if info != 0 or not np.all(np.isfinite(u)):
            raise SolverError(f"Krylov solve did not converge in {iterations} iterations")
        return u, iterations

    @cached_property
    def operator_matrices(self):
        """Dense Galerkin matrices (A, M) of the stability operator (test oracle).

        ``A[a, b] = -int <grad Y_a, grad Y_b> dmu + int V Y_a Y_b dmu`` and
        ``M`` is the L2(dmu) mass matrix, both over the spherical-harmonic
        basis of the surface's grid.
        """
        B, Bt, Bp = self.grid.basis_matrices()
        w = self.weights_induced
        W11, W12, W22, wV = self._galerkin_weights
        l11 = np.sqrt(W11)
        l21 = W12 / l11
        l22 = np.sqrt(np.maximum(W22 - l21**2, 0.0))
        R1 = l11[:, None] * Bt + l21[:, None] * Bp
        R2 = l22[:, None] * Bp
        A = -(R1.T @ R1) - (R2.T @ R2) + (B * wV[:, None]).T @ B
        F = np.sqrt(w)[:, None] * B
        M = F.T @ F
        A = 0.5 * (A + A.T)
        M = 0.5 * (M + M.T)
        return A, M

    @cached_property
    def operator_eigensystem(self):
        """Full generalized eigendecomposition, ascending (test oracle)."""
        A, M = self.operator_matrices
        vals, vecs = scipy.linalg.eigh(A, M)
        return vals, vecs

    def apply_operator(self, values: np.ndarray) -> np.ndarray:
        """Node values of ``L f`` for node values of ``f``: ``M^-1 A c``, with CG on ``M``."""
        import scipy.sparse.linalg as spla

        c = self.grid.analyze_values(values)
        self._check_tail(c)
        n = self.grid.n_coeffs
        M = spla.LinearOperator((n, n), matvec=self.mass_apply, dtype=float)
        u, info = spla.cg(M, self.galerkin_apply(c), rtol=_MASS_RTOL, atol=0.0)
        if info != 0:
            raise SolverError(f"mass-matrix CG solve did not converge (info={info})")
        return self.grid.synthesize_values(u)

    def weak_solve(
        self, rhs_values: np.ndarray, check_kernel_load: bool = False
    ) -> tuple[np.ndarray, int]:
        """Solve ``L u = rhs`` in weak form; returns ``(coeffs, krylov_iterations)``.

        The load ``adjoint_values(weights_induced * rhs)`` is solved once by
        :meth:`galerkin_solve`; its :class:`SolverError` propagates.  With
        ``check_kernel_load`` a right-hand side carrying a meaningful load on
        an exact kernel mode raises :class:`SolvabilityError` (e.g. degree-one
        sources in a flat ambient).  Newton stepping leaves the check off
        because the flat-space translation modes are pure gauge there.
        """
        load = self.grid.adjoint_values(self.weights_induced * rhs_values)
        if check_kernel_load:
            K, _ = self._kernel
            # loads are bounded by ||rhs||_{L^2(dmu)} for M-orthonormal modes
            rhs_scale = np.sqrt(self.integrate(rhs_values**2))
            bad = np.abs(K.T @ load).max(initial=0.0)
            if bad > 1e-8 * rhs_scale:
                raise SolvabilityError(
                    "right-hand side loads an exactly degenerate mode "
                    f"(|load| = {bad:.3e}, ||rhs|| = {rhs_scale:.3e})"
                )
        return self.galerkin_solve(load)

    def solve_operator(self, rhs_values: np.ndarray, check_kernel_load: bool = False) -> np.ndarray:
        """Node values of the :meth:`weak_solve` solution of ``L u = rhs``."""
        u, _ = self.weak_solve(rhs_values, check_kernel_load)
        return self.grid.synthesize_values(u)

    def _check_tail(self, coeffs: np.ndarray):
        l = self.grid.coeff_l
        total = float(np.sum(coeffs**2))
        if total == 0:
            return
        tail = float(np.sum(coeffs[l >= self.grid.band_limit - 1] ** 2))
        if tail > _TAIL_ENERGY_LIMIT * total:
            warnings.warn(
                f"spectral tail holds {100 * tail / total:.1f}% of the field energy; "
                f"band limit L={self.grid.band_limit} may be too low",
                ResolutionWarning,
                stacklevel=3,
            )


def compute_geometry(surface: SurfaceEmbedding, model: MetricModel) -> SurfaceGeometry:
    """All fundamental forms of ``surface`` inside ``model``."""
    return SurfaceGeometry(surface, model)


def euclidean_center(surface: SurfaceEmbedding) -> np.ndarray:
    """Coordinate centroid ``(int x dH^2) / (int dH^2)`` of the surface.

    The measure is the Euclidean-induced one (the convention of the ADM
    comparison).  Exactly translation-equivariant.
    """
    grid, chart = surface.grid, surface.chart
    rho, rho_t, rho_p = surface.radius_values, chart.rho_theta, chart.rho_phi
    sin_t = np.repeat(grid.sin_theta, grid.n_phi)
    # |t_theta x t_phi| for a radial graph over the round sphere
    jac = rho * np.sqrt((rho**2 + rho_t**2) * sin_t**2 + rho_p**2) / sin_t
    w = grid.weights * jac
    offsets = rho[:, None] * grid.directions
    return surface.center + (w @ offsets) / w.sum()


def _block_diagonal(inverses, r: np.ndarray) -> np.ndarray:
    """Apply ``(block_inv, diag_inv)``: a 4x4 block on degrees l <= 1, a diagonal above."""
    block_inv, diag_inv = inverses
    r = np.ravel(r)
    return np.concatenate([block_inv @ r[:4], diag_inv * r[4:]])


def _low_pairs(geo: SurfaceGeometry, n: int):
    """``(lambdas, coeffs)`` of the n smallest-|lambda| pairs of ``-A x = lambda M x``.

    Sorted by ``|lambda|``, with M-orthonormal coefficient columns.  See
    :func:`low_eigenpairs`.
    """
    import scipy.sparse.linalg as spla

    grid = geo.grid
    w, V = np.linalg.eigh(geo._low_block)
    l = grid.coeff_l[4:]
    spd_inverse = ((V / np.abs(w)) @ V.T, 1.0 / np.abs(2.0 - l * (l + 1.0)))
    # scipy passes (N, 1) columns to matvec; the transforms take flat vectors
    shape = (grid.n_coeffs, grid.n_coeffs)
    A = spla.LinearOperator(shape, lambda c: -geo.galerkin_apply(np.ravel(c)), dtype=float)
    M = spla.LinearOperator(shape, lambda c: geo.mass_apply(np.ravel(c)), dtype=float)
    P = spla.LinearOperator(shape, lambda r: _block_diagonal(spd_inverse, r), dtype=float)
    start = np.eye(shape[0], np.count_nonzero(grid.coeff_l <= grid.coeff_l[n]))
    tol = _EIGEN_TOL / geo.sigma_scale**2
    lams, vecs = spla.lobpcg(
        A, start, B=M, M=P, tol=tol, maxiter=_LOBPCG_ITERATIONS, largest=False
    )
    keep = np.argsort(np.abs(lams), kind="stable")[:n]
    residual = max(np.linalg.norm(A @ vecs[:, i] - lams[i] * (M @ vecs[:, i])) for i in keep)
    if not residual <= tol:
        raise SolverError(f"LOBPCG did not converge: residual {residual:.3e} > {tol:.3e}")
    return lams[keep], vecs[:, keep]


def low_eigenpairs(geometry: SurfaceGeometry, n: int = 3):
    """The n smallest-|lambda| eigenpairs of the stability operator of ``geometry``.

    Eigenvalues are reported in the positive-Laplacian spectral convention
    ``L f = -lambda f`` (so the degree-one cluster of a mass-m leaf sits
    near ``+6m/sigma^3``, and higher modes of a Euclidean sphere are
    positive).  For every ambient: one matrix-free LOBPCG solve (Knyazev
    2001) of ``-A x = lambda M x``, preconditioned by the SPD inverse
    ``|block|^-1`` of the l <= 1 Galerkin block and ``|2 - l(l+1)|^-1``
    above.  It starts from the unit vectors of all degrees up to that of
    the n-th pair (no cluster is split; reruns give the same bits) and
    raises :class:`SolverError` unless every returned pair has
    ``|A x - lambda M x| <= _EIGEN_TOL / sigma^2``.  On a flat CMC sphere
    the degree-one pairs are the exact kernel.  Eigenfields are
    L2(dmu)-orthonormal.
    """
    if not 1 <= n <= 10:
        raise ConfigurationError(f"low_eigenpairs supports 1 to 10 pairs, got n={n}")
    lams, vecs = _low_pairs(geometry, n)
    return [
        (float(lam), ScalarField(geometry.grid, geometry.grid.synthesize_values(v)))
        for lam, v in zip(lams, vecs.T)
    ]


def surface_divergence(geometry: SurfaceGeometry, vector: np.ndarray) -> np.ndarray:
    """Surface divergence of a tangential vector field in ambient components."""
    dX = np.stack(
        [geometry.chart_derivs(vector[:, k]) for k in range(3)], axis=2
    )  # (n, 2, 3): d_I X^k
    covar = dX + np.einsum(
        "nkab,nIa,nb->nIk", geometry.gamma_bar, geometry.tangents, vector
    )
    return np.einsum("nIJ,nIk,nkl,nJl->n", geometry.induced_inv, covar, geometry.gbar, geometry.tangents)


def w1inf_norm(geometry: SurfaceGeometry, values: np.ndarray, scale: float) -> float:
    """Scale-invariant ``W^{1,inf}`` norm ``sup|f| + scale * sup|grad f|`` of a node scalar.

    ``|grad f|^2 = a^IJ d_I f d_J f`` in the induced metric, with the chart
    derivatives of :meth:`SurfaceGeometry.chart_derivs`.  The lab reports it
    for the radial lapse deviation ``u - 1`` and the evolution lapse ``w``,
    both at ``scale = sigma``.
    """
    df = geometry.chart_derivs(values)
    grad_norm = np.sqrt(np.maximum(np.einsum("nIJ,nI,nJ->n", geometry.induced_inv, df, df), 0.0))
    return float(np.abs(values).max()) + float(scale) * float(grad_norm.max())


def resample(surface: SurfaceEmbedding, new_center) -> SurfaceEmbedding:
    """Re-express the same point set as a radial graph about a new center.

    Solves per direction for the intersection of the ray from
    ``new_center`` with the surface; requires the surface to remain
    star-shaped about the new center.
    """
    grid = surface.grid
    new_center = np.asarray(new_center, dtype=float).reshape(3)
    d = new_center - surface.center
    if np.all(d == 0):
        return surface
    N = grid.directions
    rho_scale = float(surface.radius_values.mean())
    t = np.full(grid.n_nodes, rho_scale)
    for _ in range(_RESAMPLE_MAX_ITER):
        q = d[None, :] + t[:, None] * N
        q /= np.linalg.norm(q, axis=1)[:, None]
        rho_target = surface.grid.evaluate(surface.rho_coeffs, q)
        # positive root of |d + t N| = rho_target
        dN = N @ d
        disc = dN**2 + rho_target**2 - d @ d
        if np.any(disc <= 0):
            raise SolverError("surface is not star-shaped about the requested center")
        t_new = -dN + np.sqrt(disc)
        shift = np.abs(t_new - t).max()
        t = t_new
        if shift < _RESAMPLE_TOL * rho_scale:
            break
    else:
        raise SolverError("resampling fixed point did not converge")
    return SurfaceEmbedding.from_radial_values(grid, t, new_center)
