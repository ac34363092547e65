"""Band-limited scalar and vector calculus on the unit sphere.

The grid couples Gauss-Legendre colatitude nodes with equispaced longitudes,
so the product quadrature integrates every spherical harmonic up to degree
``2 * band_limit`` exactly and the forward/backward transforms are separable:
one m-batched matrix product with the Legendre tables in colatitude and one
product with a cached ``[cos(m phi); sin(m phi)]`` table (not an FFT) in
longitude, both at BLAS speed.  Analysis is the adjoint of synthesis applied
to quadrature-weighted values, with its longitude sums taken by FFT.

Conventions
-----------
* Real orthonormal spherical harmonics without the Condon-Shortley phase::

      Y_{l,0}  = Q_{l,0}(theta)
      Y_{l,m}  = sqrt(2) * Q_{l,m}(theta) * cos(m*phi)   (m > 0)
      Y_{l,-m} = sqrt(2) * Q_{l,m}(theta) * sin(m*phi)   (m > 0)

  with ``integral(Y_{lm} * Y_{l'm'}) = delta_{ll'} delta_{mm'}`` over the
  unit sphere.  In particular ``Y_{0,0} = 1/sqrt(4*pi)`` and the Cartesian
  direction components satisfy ``n_x = sqrt(4*pi/3) * Y_{1,1}``,
  ``n_y = sqrt(4*pi/3) * Y_{1,-1}``, ``n_z = sqrt(4*pi/3) * Y_{1,0}``.
* Coefficients are stored flat with slot ``l*l + l + m`` for degree ``l``
  and order ``m`` (the ordering documented in the CLI report schema).
* Node ordering is colatitude-major: node ``j * n_phi + k`` sits at
  ``(theta_j, phi_k)`` with ``theta`` increasing from the north pole.
  Gauss-Legendre nodes are interior, so ``sin(theta) > 0`` everywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np
from scipy.special import roots_legendre

from .errors import ConfigurationError, GridMismatchError

__all__ = ["SphericalGrid", "ScalarField", "build_grid"]

FOUR_PI = 4.0 * np.pi
#: ``n_i = DEGREE_ONE_SCALE * Y_{1,*}`` for the Cartesian direction fields.
DEGREE_ONE_SCALE = np.sqrt(FOUR_PI / 3.0)


def _legendre_tables(band_limit: int, cos_theta: np.ndarray, derivatives: bool = True):
    """Orthonormalized associated Legendre values and theta-derivatives.

    Returns three arrays of shape ``(L+1, L+1, n_theta)`` indexed
    ``[m, l, j]`` holding ``Q_{lm}``, ``dQ_{lm}/dtheta`` and
    ``d^2Q_{lm}/dtheta^2`` at ``theta_j`` (zero for ``l < m``).  The
    recurrences are the standard stable ones for fully normalized
    functions; the derivative relations divide by ``sin(theta)``, which is
    safe because the nodes exclude the poles.  With ``derivatives=False``
    the two derivative tables are returned as ``None``.
    """
    L = band_limit
    x = np.asarray(cos_theta, dtype=float)
    s = np.sqrt(1.0 - x * x)
    nt = x.size

    Q = np.zeros((L + 1, L + 1, nt))
    Q[0, 0] = 1.0 / np.sqrt(FOUR_PI)
    for m in range(1, L + 1):
        Q[m, m] = Q[m - 1, m - 1] * s * np.sqrt((2 * m + 1) / (2.0 * m))
    for m in range(L + 1):
        if m + 1 <= L:
            Q[m, m + 1] = np.sqrt(2 * m + 3.0) * x * Q[m, m]
        for l in range(m + 2, L + 1):
            a = np.sqrt((4.0 * l * l - 1.0) / (l * l - m * m))
            b = np.sqrt(((l - 1.0) ** 2 - m * m) / (4.0 * (l - 1.0) ** 2 - 1.0))
            Q[m, l] = a * (x * Q[m, l - 1] - b * Q[m, l - 2])
    if not derivatives:
        return Q, None, None

    # dQ/dtheta = (l*x*Q_{l} - e_{lm}*Q_{l-1}) / sin(theta)
    dQ = np.zeros_like(Q)
    d2Q = np.zeros_like(Q)
    for m in range(L + 1):
        for l in range(m, L + 1):
            e = np.sqrt((l * l - m * m) * (2.0 * l + 1.0) / (2.0 * l - 1.0)) if l > 0 else 0.0
            prev = Q[m, l - 1] if l - 1 >= m else 0.0
            dQ[m, l] = (l * x * Q[m, l] - e * prev) / s
        for l in range(m, L + 1):
            e = np.sqrt((l * l - m * m) * (2.0 * l + 1.0) / (2.0 * l - 1.0)) if l > 0 else 0.0
            dprev = dQ[m, l - 1] if l - 1 >= m else 0.0
            d2Q[m, l] = (-l * s * Q[m, l] + l * x * dQ[m, l] - e * dprev) / s - (x / s) * dQ[m, l]
    return Q, dQ, d2Q


def _powers(w: np.ndarray, n: int) -> np.ndarray:
    """``[Re w^k; Im w^k]`` for ``k = 0..n`` by cumulative product, shape ``(2(n+1), p)``."""
    w_k = np.empty((n + 1, w.size), dtype=complex)
    w_k[0] = 1.0
    for k in range(1, n + 1):
        np.multiply(w_k[k - 1], w, out=w_k[k])
    return np.concatenate([w_k.real, w_k.imag])


class SphericalGrid:
    """Quadrature grid and transform plans for one band limit.

    Grids are immutable; use :func:`build_grid` to obtain shared, cached
    instances.
    """

    def __init__(self, band_limit: int):
        if band_limit < 4:
            raise ConfigurationError(f"band limit must be >= 4, got {band_limit}")
        L = int(band_limit)
        self.band_limit = L
        self.n_theta = L + 1
        self.n_phi = 2 * L + 2
        self.n_nodes = self.n_theta * self.n_phi
        self.n_coeffs = (L + 1) ** 2

        xs, ws = roots_legendre(self.n_theta)
        # colatitude increasing from the north pole => cos(theta) decreasing
        self.cos_theta = xs[::-1].copy()
        self.sin_theta = np.sqrt(1.0 - self.cos_theta**2)
        self.theta = np.arccos(self.cos_theta)
        self.gl_weights = ws[::-1].copy()
        self.phi = 2.0 * np.pi * np.arange(self.n_phi) / self.n_phi
        #: per-node quadrature weights for the round measure, summing to 4*pi
        self.weights = np.repeat(self.gl_weights * (2.0 * np.pi / self.n_phi), self.n_phi)

        self._tables = _legendre_tables(L, self.cos_theta)  # Q, dQ, d2Q as [m, l, j]
        # rows [cos(m phi); sin(m phi)] and their first and second phi-derivatives
        m = np.arange(L + 1)[:, None]
        cos, sin = np.cos(m * self.phi), np.sin(m * self.phi)
        self._trig = tuple(
            np.vstack(rows) for rows in ((cos, sin), (-m * sin, m * cos), (-m * m * cos, -m * m * sin))
        )
        self.coeff_l = np.repeat(np.arange(L + 1), 2 * np.arange(L + 1) + 1)
        self.coeff_m = np.concatenate([np.arange(-l, l + 1) for l in range(L + 1)])
        # gather of the flat coefficients into [m, l, cos/sin] blocks; the scale
        # is sqrt(2) for m > 0, 1 for m = 0 and 0 for l < m and the (m = 0, sin) slot
        ms, ls = np.meshgrid(m[:, 0], m[:, 0], indexing="ij")
        valid = np.stack([ms <= ls, (ms <= ls) & (ms > 0)], axis=-1)
        self._gather = np.where(valid, np.stack([ls * ls + ls + ms, ls * ls + ls - ms], axis=-1), 0)
        self._gather_scale = valid * np.where(ms > 0, np.sqrt(2.0), 1.0)[..., None]
        # its inverse: the block position of every flat slot
        self._scatter = np.empty(self.n_coeffs, dtype=int)
        positions = np.flatnonzero(valid)
        self._scatter[self._gather.ravel()[positions]] = positions

        # node-level theta/phi and Cartesian directions with derivatives
        th = np.repeat(self.theta, self.n_phi)
        ph = np.tile(self.phi, self.n_theta)
        self.node_theta = th
        self.node_phi = ph
        st, ct = np.sin(th), np.cos(th)
        sp, cp = np.sin(ph), np.cos(ph)
        self.directions = np.stack([st * cp, st * sp, ct], axis=1)
        self.d_dir_dtheta = np.stack([ct * cp, ct * sp, -st], axis=1)
        self.d_dir_dphi = np.stack([-st * sp, st * cp, np.zeros_like(st)], axis=1)
        self.d2_dir_dtheta2 = -self.directions
        self.d2_dir_dthetadphi = np.stack([-ct * sp, ct * cp, np.zeros_like(st)], axis=1)
        self.d2_dir_dphi2 = np.stack([-st * cp, -st * sp, np.zeros_like(st)], axis=1)

    # -- transforms ------------------------------------------------------

    def coeff_index(self, l: int, m: int) -> int:
        """Flat slot of the (l, m) coefficient."""
        if not (0 <= l <= self.band_limit and -l <= m <= l):
            raise ConfigurationError(f"invalid harmonic index (l={l}, m={m})")
        return l * l + l + m

    def analyze_values(self, values: np.ndarray) -> np.ndarray:
        """Forward transform of node values to flat coefficients.

        The product quadrature ``c_a = sum_n w_n values[n] Y_a(node n)``, i.e.
        :meth:`adjoint_values` of the weighted values, with the longitude sums
        ``sum_k g(phi_k) [cos; sin](m phi_k)`` taken by one real FFT: its
        round-off on the m > 0 rows of a constant is 10-60 times below that of
        the table product (L = 16-48), and derivatives amplify those rows.
        """
        G = np.asarray(values, dtype=float).reshape(self.n_theta, self.n_phi)
        F = np.fft.rfft(G, axis=1)[:, : self.band_limit + 1]
        w = self.gl_weights * (2.0 * np.pi / self.n_phi)
        return self._legendre_scatter(np.concatenate([F.real, -F.imag], axis=1) * w[:, None], 0)

    def _legendre_scatter(self, rows: np.ndarray, dtheta: int) -> np.ndarray:
        """Flat coefficients from per-colatitude rows ``[A | B]``: m-batched Legendre product, scatter."""
        C = self._tables[dtheta] @ rows.reshape(self.n_theta, 2, -1).transpose(2, 0, 1)
        return (C * self._gather_scale).ravel()[self._scatter]

    @staticmethod
    def _check_derivatives(dtheta: int, dphi: int):
        if dtheta + dphi > 2 or dtheta < 0 or dphi < 0:
            raise ConfigurationError("supported derivatives: dtheta + dphi <= 2")

    def synthesize_values(self, coeffs: np.ndarray, dtheta: int = 0, dphi: int = 0) -> np.ndarray:
        """Backward transform; optional theta/phi derivatives up to total order 2.

        Gathers the coefficients into ``[m, l, cos/sin]`` blocks, contracts
        each order's Legendre table by one m-batched product to the rows
        ``A_m(theta_j), B_m(theta_j)``, and sums ``A_m cos(m phi) + B_m
        sin(m phi)`` (or its phi-derivative) by one ``[A | B] @ [cos; sin]``
        product.
        """
        self._check_derivatives(dtheta, dphi)
        coeffs = np.asarray(coeffs, dtype=float)
        if coeffs.shape != (self.n_coeffs,):
            raise GridMismatchError(
                f"coefficient vector of length {coeffs.size} does not match L={self.band_limit}"
            )
        AB = self._tables[dtheta].transpose(0, 2, 1) @ (coeffs[self._gather] * self._gather_scale)
        AB = AB.transpose(1, 2, 0).reshape(self.n_theta, -1)  # [j, (cos/sin, m)]
        return (AB @ self._trig[dphi]).reshape(self.n_nodes)

    def adjoint_values(self, values: np.ndarray, dtheta: int = 0, dphi: int = 0) -> np.ndarray:
        """Transpose of :meth:`synthesize_values` for the same derivative orders.

        Slot ``a`` of the result is ``sum_n values[n] * D Y_a(node n)`` with
        ``D`` the requested chart derivative: no quadrature weights enter, so
        ``adjoint_values(w * g)`` is the Galerkin load ``B^T (w g)`` of
        :meth:`basis_matrices`.  It reverses the synthesis steps: the
        ``[cos; sin]`` table product per colatitude, the m-batched Legendre
        product, then the scatter into the flat slots; O(L^3) like the
        forward transform.
        """
        self._check_derivatives(dtheta, dphi)
        values = np.asarray(values, dtype=float)
        if values.shape != (self.n_nodes,):
            raise GridMismatchError(
                f"expected {self.n_nodes} node values, got shape {values.shape}"
            )
        return self._legendre_scatter(values.reshape(self.n_theta, self.n_phi) @ self._trig[dphi].T, dtheta)

    @cached_property
    def _theta_fourier(self) -> np.ndarray:
        """theta-Fourier table ``T`` of every ``Q_{lm}``, shape ``(m, L+1, l)``.

        ``Q_{lm}(theta) = sum_{k<=L} T[m, k, l] cos(k theta)`` for even ``m`` and
        ``sum_{k<=L} T[m, k, l] sin(k theta)`` for odd ``m`` (double Fourier
        sphere), from samples at ``L + 2`` equispaced colatitudes in ``[0, pi]``
        mirrored by ``Q_{lm}(2 pi - theta) = (-1)^m Q_{lm}(theta)``.
        """
        L = self.band_limit
        Q, _, _ = _legendre_tables(L, np.cos(np.pi * np.arange(L + 2) / (L + 1)), derivatives=False)
        Q = Q.transpose(0, 2, 1)  # [m, j, l]
        odd = (np.arange(L + 1) % 2 == 1)[:, None, None]
        circle = np.concatenate([Q, np.where(odd, -Q, Q)[:, L:0:-1]], axis=1)
        X = np.fft.rfft(circle, axis=1)[:, : L + 1] / (L + 1)
        X[:, 0] *= 0.5
        return np.where(odd, -X.imag, X.real)

    def evaluate(self, coeffs: np.ndarray, directions: np.ndarray) -> np.ndarray:
        """Evaluate a coefficient vector at unit direction vectors ``(p, 3)`` (resampling).

        No Legendre table at the points: the cached :attr:`_theta_fourier`
        table gives each order's theta-Fourier series, whose ``cos/sin(k theta)``
        and ``e^{i m phi}`` are powers of ``z + i sqrt(x^2 + y^2)`` and
        ``(x + i y) / sqrt(x^2 + y^2)`` (1 at the poles).  One
        ``(L+1, L+1) @ (L+1, p)`` product per parity of ``m`` sums the cosine
        series of the even orders and the sine series of the odd ones.
        O(L^3 + p L^2).
        """
        L = self.band_limit
        x, y, z = np.atleast_2d(np.asarray(directions, dtype=float)).T
        F = self._theta_fourier @ (coeffs[self._gather] * self._gather_scale)  # (m, k, cos/sin)
        s = np.sqrt(x * x + y * y)  # sin(theta)
        u = np.divide(x + 1j * y, s, out=np.ones(s.size, dtype=complex), where=s > 0)
        theta = _powers(z + 1j * s, L).reshape(2, L + 1, -1)  # [cos/sin, k, p]
        phi = _powers(u, L).reshape(2, L + 1, -1)  # [cos/sin, m, p]
        # value = sum_m A_m cos(m phi) + B_m sin(m phi); A, B of one parity per product
        return sum(
            np.einsum("cmp,cmp->p", F[parity::2].transpose(2, 0, 1) @ theta[parity], phi[:, parity::2])
            for parity in (0, 1)
        )

    @cached_property
    def low_degree_basis(self) -> np.ndarray:
        """Values, theta- and phi-derivatives of the l <= 1 harmonics, shape ``(3, n_nodes, 4)``.

        Columns are the flat slots 0-3: ``Y_{0,0} = 1/sqrt(4 pi)`` and
        ``Y_{1,-1}, Y_{1,0}, Y_{1,1} = (n_y, n_z, n_x) / DEGREE_ONE_SCALE``.
        """
        ones = np.zeros((3, self.n_nodes, 1))
        ones[0] = 1.0 / np.sqrt(FOUR_PI)
        n = np.stack([self.directions, self.d_dir_dtheta, self.d_dir_dphi])[..., [1, 2, 0]]
        return np.concatenate([ones, n / DEGREE_ONE_SCALE], axis=2)

    def integrate_values(self, values: np.ndarray) -> float:
        """Quadrature of node values against the round measure."""
        return float(self.weights @ np.asarray(values, dtype=float))

    # -- dense basis matrices (test oracle) -------------------------------

    def basis_matrices(self):
        """Node-value and chart-derivative matrices of all basis functions.

        Returns ``(B, Bt, Bp)`` of shape ``(n_nodes, n_coeffs)`` with the
        values, theta-derivatives and phi-derivatives of every ``Y_{lm}``.
        Built lazily and cached.  A test oracle for the transforms and the
        dense Galerkin assembly; no solve reads it.
        """
        cached = getattr(self, "_basis_cache", None)
        if cached is not None:
            return cached
        n, N = self.n_nodes, self.n_coeffs
        B = np.empty((n, N))
        Bt = np.empty((n, N))
        Bp = np.empty((n, N))
        e = np.zeros(N)
        for a in range(N):
            e[a] = 1.0
            B[:, a] = self.synthesize_values(e)
            Bt[:, a] = self.synthesize_values(e, dtheta=1)
            Bp[:, a] = self.synthesize_values(e, dphi=1)
            e[a] = 0.0
        self._basis_cache = (B, Bt, Bp)
        return self._basis_cache

    def __repr__(self):
        return f"SphericalGrid(L={self.band_limit}, nodes={self.n_nodes})"


@lru_cache(maxsize=None)
def build_grid(band_limit: int) -> SphericalGrid:
    """Shared grid instance for the given band limit (L >= 4)."""
    return SphericalGrid(band_limit)


@dataclass(frozen=True)
class ScalarField:
    """Real scalar samples on a :class:`SphericalGrid`."""

    grid: SphericalGrid
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.shape != (self.grid.n_nodes,):
            raise GridMismatchError(
                f"expected {self.grid.n_nodes} node values, got shape {v.shape}"
            )
        if not np.all(np.isfinite(v)):
            raise ConfigurationError("scalar field contains non-finite values")
        object.__setattr__(self, "values", v)
