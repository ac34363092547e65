"""Band-limited scalar and vector calculus on the unit sphere.

The grid couples Gauss-Legendre colatitude nodes with equispaced longitudes,
so the product quadrature integrates every spherical harmonic up to degree
``2 * band_limit`` exactly and the forward/backward transforms are separable
(FFT in longitude, small dense Legendre contractions in colatitude).

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

        self._Q, self._dQ, self._d2Q = _legendre_tables(L, self.cos_theta)
        m = np.arange(L + 1)
        self._cos_table = np.cos(np.outer(m, self.phi))
        self._sin_table = np.sin(np.outer(m, self.phi))
        # scatter maps between the flat coefficient layout and (l, m) blocks
        ls, ms = np.meshgrid(np.arange(L + 1), np.arange(L + 1), indexing="ij")
        self.coeff_l = np.repeat(np.arange(L + 1), 2 * np.arange(L + 1) + 1)
        self.coeff_m = np.concatenate([np.arange(-l, l + 1) for l in range(L + 1)])
        self._mask_lm = (ms <= ls).astype(float)  # [l, m]
        # (l, m) pairs of the cosine and sine blocks with their flat slots
        self._tril = np.tril_indices(L + 1)
        tl, tm = self._tril
        self._flat_cos = tl * tl + tl + tm
        pos = tm > 0
        self._sin_lm = (tl[pos], tm[pos])
        self._flat_sin = tl[pos] * tl[pos] + tl[pos] - tm[pos]
        idx = ls * ls + ls + ms
        self._idx_cos = np.where(ms <= ls, idx, 0)
        self._idx_sin = np.where((ms <= ls) & (ms > 0), ls * ls + ls - ms, 0)
        self._sin_valid = ((ms <= ls) & (ms > 0)).astype(float)
        scale = np.full(L + 1, np.sqrt(2.0))
        scale[0] = 1.0
        self._m_scale = scale  # sqrt(2) for m != 0

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

    def _fourier_coeffs(self, values: np.ndarray):
        """Per-colatitude cosine/sine coefficients A_m, B_m of the rows."""
        G = np.asarray(values, dtype=float).reshape(self.n_theta, self.n_phi)
        F = np.fft.rfft(G, axis=1)
        L = self.band_limit
        A = 2.0 * F.real[:, : L + 1] / self.n_phi
        A[:, 0] *= 0.5
        B = -2.0 * F.imag[:, : L + 1] / self.n_phi
        return A, B

    def analyze_values(self, values: np.ndarray) -> np.ndarray:
        """Forward transform of node values to flat coefficients."""
        A, B = self._fourier_coeffs(values)
        QW = self._Q * self.gl_weights  # [m, l, j]
        # c[l, m] blocks; phi-integral contributes pi (2*pi for m = 0)
        Ccos = np.einsum("mlj,jm->lm", QW, A) * (np.pi * np.sqrt(2.0))
        Ccos[:, 0] *= np.sqrt(2.0)  # undo sqrt(2), apply 2*pi instead of pi
        Csin = np.einsum("mlj,jm->lm", QW, B) * (np.pi * np.sqrt(2.0))
        return self._flatten(Ccos, Csin)

    def _flatten(self, Ccos: np.ndarray, Csin: np.ndarray) -> np.ndarray:
        """Gather ``[l, m]`` cosine/sine blocks into the flat ``l*l + l + m`` layout."""
        coeffs = np.empty(self.n_coeffs)
        coeffs[self._flat_cos] = Ccos[self._tril]
        coeffs[self._flat_sin] = Csin[self._sin_lm]
        return coeffs

    @staticmethod
    def _check_derivatives(dtheta: int, dphi: int):
        if dtheta + dphi > 2 or dtheta < 0 or dphi < 0:
            raise ConfigurationError("supported derivatives: dtheta + dphi <= 2")

    def synthesize_values(self, coeffs: np.ndarray, dtheta: int = 0, dphi: int = 0) -> np.ndarray:
        """Backward transform; optional theta/phi derivatives up to total order 2."""
        self._check_derivatives(dtheta, dphi)
        coeffs = np.asarray(coeffs, dtype=float)
        if coeffs.shape != (self.n_coeffs,):
            raise GridMismatchError(
                f"coefficient vector of length {coeffs.size} does not match L={self.band_limit}"
            )
        T = (self._Q, self._dQ, self._d2Q)[dtheta]
        Ccos = coeffs[self._idx_cos] * self._mask_lm * self._m_scale
        Csin = coeffs[self._idx_sin] * self._sin_valid * self._m_scale
        A = np.einsum("mlj,lm->jm", T, Ccos)
        B = np.einsum("mlj,lm->jm", T, Csin)
        m = np.arange(self.band_limit + 1)
        if dphi == 1:
            A, B = B * m, -A * m
        elif dphi == 2:
            A, B = -A * m * m, -B * m * m
        G = A @ self._cos_table + B @ self._sin_table
        return G.reshape(self.n_nodes)

    def adjoint_values(self, values: np.ndarray, dtheta: int = 0, dphi: int = 0) -> np.ndarray:
        """Transpose of :meth:`synthesize_values` for the same derivative orders.

        Slot ``a`` of the result is ``sum_n values[n] * D Y_a(node n)`` with
        ``D`` the requested chart derivative: no quadrature weights enter, so
        ``adjoint_values(w * g)`` is the Galerkin load ``B^T (w g)`` of
        :meth:`basis_matrices`.  It reverses the synthesis steps: cos/sin
        table contraction per colatitude, Legendre-table contraction, then a
        scatter into the flat slots; O(L^3) like the forward transform.
        """
        self._check_derivatives(dtheta, dphi)
        values = np.asarray(values, dtype=float)
        if values.shape != (self.n_nodes,):
            raise GridMismatchError(
                f"expected {self.n_nodes} node values, got shape {values.shape}"
            )
        G = values.reshape(self.n_theta, self.n_phi)
        A = G @ self._cos_table.T  # [j, m]
        B = G @ self._sin_table.T
        m = np.arange(self.band_limit + 1)
        if dphi == 1:
            A, B = -B * m, A * m
        elif dphi == 2:
            A, B = -A * m * m, -B * m * m
        T = (self._Q, self._dQ, self._d2Q)[dtheta]
        Ccos = np.einsum("mlj,jm->lm", T, A) * self._m_scale
        Csin = np.einsum("mlj,jm->lm", T, B) * self._m_scale
        return self._flatten(Ccos, Csin)

    @cached_property
    def _theta_fourier(self) -> np.ndarray:
        """theta-Fourier table ``T`` of every ``Q_{lm}``, shape ``(m, 2(L+1), l)``.

        ``Q_{lm}(theta) = sum_{k<=L} T[m, k, l] cos(k theta) + T[m, L+1+k, l] sin(k theta)``
        (double Fourier sphere), from samples at ``L + 2`` equispaced colatitudes
        in ``[0, pi]`` mirrored by ``Q_{lm}(2 pi - theta) = (-1)^m Q_{lm}(theta)``.
        """
        L = self.band_limit
        Q, _, _ = _legendre_tables(L, np.cos(np.pi * np.arange(L + 2) / (L + 1)), derivatives=False)
        Q = Q.transpose(0, 2, 1)  # [m, j, l]
        parity = (-1.0) ** np.arange(L + 1)[:, None, None]
        circle = np.concatenate([Q, parity * Q[:, L:0:-1]], axis=1)
        X = np.fft.rfft(circle, axis=1)[:, : L + 1] / (L + 1)
        X[:, 0] *= 0.5
        return np.concatenate([X.real, -X.imag], axis=1)

    def evaluate(self, coeffs: np.ndarray, directions: np.ndarray) -> np.ndarray:
        """Evaluate a coefficient vector at unit direction vectors ``(p, 3)`` (resampling).

        No Legendre table at the points: the cached :attr:`_theta_fourier`
        table gives each order's theta-Fourier series, whose ``cos/sin(k theta)``
        and ``e^{i m phi}`` are powers of ``z + i sqrt(x^2 + y^2)`` and
        ``(x + i y) / sqrt(x^2 + y^2)`` (1 at the poles); one
        ``(2(L+1), 2(L+1)) @ (2(L+1), p)`` product sums them.  O(L^3 + p L^2).
        """
        L = self.band_limit
        x, y, z = np.atleast_2d(np.asarray(directions, dtype=float)).T
        Ccos = coeffs[self._idx_cos] * self._mask_lm * self._m_scale
        Csin = coeffs[self._idx_sin] * self._sin_valid * self._m_scale
        F = self._theta_fourier @ np.stack([Ccos.T, Csin.T], axis=2)  # (m, 2(L+1), cos/sin)
        s = np.sqrt(x * x + y * y)  # sin(theta)
        u = np.divide(x + 1j * y, s, out=np.ones(s.size, dtype=complex), where=s > 0)
        # rows [A_0..A_L, B_0..B_L]: value = sum_m A_m cos(m phi) + B_m sin(m phi)
        AB = F.transpose(2, 0, 1).reshape(2 * L + 2, 2 * L + 2) @ _powers(z + 1j * s, L)
        return np.sum(AB * _powers(u, L), axis=0)

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
