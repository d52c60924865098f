"""Grids, differential operators, Poisson inversion and quadrature.

Two domain types are supported:

* :class:`TorusGrid` - a doubly periodic rectangle sampled uniformly.  All
  differential operators are spectral (trigonometric collocation), so the
  Laplacian is exact for band-limited fields and the zero-mean Poisson solve
  inverts it exactly.
* :class:`PlaneGrid` - a truncated plane square ``[-R, R]^2`` with uniform
  spacing and homogeneous Dirichlet data on the boundary ring; the Laplacian
  is the standard second-order 5-point stencil.

Each grid also exposes the eigenbasis of its own Laplacian: ``modal_forward``
and ``modal_inverse`` map fields to mode coefficients and back, and
``laplacian_eigenvalues`` gives the eigenvalue of ``-laplacian`` per mode in
the same layout (Fourier modes on the torus, the sine modes of the interior
nodes on the plane).  Operators with constant coefficients are diagonal there.

Scalar fields are plain ``float64`` arrays of shape ``(nx, ny)`` (torus) or
``(n, n)`` (plane), laid out row-major with node ``(i, j)`` at
``(i*dx, j*dy)`` resp. ``(-R + i*h, -R + j*h)``.  Reductions use numpy's
pairwise summation, so results are deterministic for a fixed grid.

Buffers: operators that take ``out=`` write their result there and return
it; without ``out`` they return a new array.  Either way the result belongs
to the caller.  A torus grid also owns one private complex scratch spectrum
(``workspace.spec``) that all its transforms pass through.  It holds nothing
between calls and is never returned, so results never alias it; it also
makes a torus grid unsafe to share between threads.  The plane's sine
transforms allocate their interior-sized intermediate product per call
instead: kept on the grid it would stay resident next to the
preconditioner's buffers and raise the peak memory of a plane solve.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import NonZeroMeanRhs

# largest |mean(rhs)| the zero-mean Poisson solve accepts, relative to the
# field magnitude: callers project the mean out, so a mean above quadrature
# roundoff means the right-hand side was built wrong
POISSON_MEAN_TOL = 1e-10


@dataclass(frozen=True)
class SpectralWorkspace:
    """Cached wavenumber tables and scratch for one torus grid (rfft2 layout).

    ``neg_k2`` is -|k|^2, the symbol of the Laplacian.  Entry ``[0, 0]`` is
    the mean (k = 0) mode; ``neg_k2_safe`` replaces it by -1.0 so divisions
    stay finite while the mode is zeroed explicitly.  ``k2`` and ``k2_safe``
    are their negations, built on each access.  ``spec`` is the complex
    scratch spectrum every transform passes through; it never leaves a call.
    """

    shape: tuple
    neg_k2: np.ndarray
    neg_k2_safe: np.ndarray
    spec: np.ndarray

    @property
    def k2(self) -> np.ndarray:
        return -self.neg_k2

    @property
    def k2_safe(self) -> np.ndarray:
        return -self.neg_k2_safe


@dataclass(frozen=True)
class TorusGrid:
    """Uniform sampling of a doubly periodic rectangle of side lengths Lx, Ly."""

    Lx: float
    Ly: float
    nx: int
    ny: int

    def __post_init__(self):
        if not (self.Lx > 0.0 and self.Ly > 0.0):
            raise ValueError("cell lengths must be positive")
        if self.nx < 8 or self.ny < 8:
            raise ValueError("need at least 8 samples per axis")
        if self.nx % 2 or self.ny % 2:
            raise ValueError("sample counts must be even")

    @property
    def dx(self):
        return self.Lx / self.nx

    @property
    def dy(self):
        return self.Ly / self.ny

    @property
    def area(self):
        return self.Lx * self.Ly

    @property
    def shape(self):
        return (self.nx, self.ny)

    @cached_property
    def workspace(self) -> SpectralWorkspace:
        kx = 2.0 * np.pi * np.fft.fftfreq(self.nx, d=self.dx)
        ky = 2.0 * np.pi * np.fft.rfftfreq(self.ny, d=self.dy)
        neg_k2 = -(kx[:, None] ** 2 + ky[None, :] ** 2)
        neg_k2_safe = neg_k2.copy()
        neg_k2_safe[0, 0] = -1.0
        spec = np.empty(neg_k2.shape, dtype=complex)
        return SpectralWorkspace(self.shape, neg_k2, neg_k2_safe, spec)

    def axes(self):
        x = np.arange(self.nx) * self.dx
        y = np.arange(self.ny) * self.dy
        return x, y

    def nodes(self):
        x, y = self.axes()
        return np.meshgrid(x, y, indexing="ij")

    # -- operators ---------------------------------------------------------

    def laplacian(self, values: np.ndarray, out: np.ndarray = None) -> np.ndarray:
        """Spectral Laplacian (multiplication by -|k|^2 in transform space)."""
        ws = self.workspace
        spec = np.fft.rfft2(values, out=ws.spec)
        np.multiply(ws.neg_k2, spec, out=spec)
        return self._inverse(spec, out)

    def poisson_solve_zero_mean(self, rhs: np.ndarray, out: np.ndarray = None) -> np.ndarray:
        """Unique zero-mean U with laplacian(U) = rhs - mean(rhs).

        Raises :class:`NonZeroMeanRhs` when |mean(rhs)| exceeds
        ``POISSON_MEAN_TOL`` relative to the field magnitude.  ``out`` may be
        ``rhs`` itself.
        """
        scale = max(float(rhs.max()), -float(rhs.min()))
        m = float(rhs.mean())
        if abs(m) > POISSON_MEAN_TOL * (scale + 1e-300):
            raise NonZeroMeanRhs(
                f"rhs mean {m:.3e} exceeds {POISSON_MEAN_TOL:.1e} relative tolerance"
            )
        ws = self.workspace
        spec = np.fft.rfft2(rhs, out=ws.spec)
        spec /= ws.neg_k2_safe
        spec[0, 0] = 0.0
        return self._inverse(spec, out)

    def _inverse(self, coeffs: np.ndarray, out: np.ndarray = None) -> np.ndarray:
        # irfft2 as its two 1-D passes, the complex one through the scratch
        # spectrum (bitwise equal to np.fft.irfft2(coeffs, s=self.shape))
        spec = np.fft.ifft(coeffs, axis=0, out=self.workspace.spec)
        return np.fft.irfft(spec, n=self.ny, axis=1, out=out)

    # -- Laplacian eigenbasis ------------------------------------------------

    def modal_forward(self, values: np.ndarray, out: np.ndarray = None) -> np.ndarray:
        """Fourier coefficients of ``values`` (rfft2 layout)."""
        return np.fft.rfft2(values, out=out)

    def modal_inverse(self, coeffs: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Write the field with Fourier coefficients ``coeffs`` to ``out``."""
        return self._inverse(coeffs, out)

    def laplacian_eigenvalues(self) -> np.ndarray:
        """|k|^2, the eigenvalue of ``-laplacian`` per Fourier mode."""
        return self.workspace.k2

    # -- reductions ----------------------------------------------------------

    def integrate(self, values: np.ndarray) -> float:
        return float(values.sum()) * self.dx * self.dy

    def inner(self, a: np.ndarray, b: np.ndarray) -> float:
        return float((a * b).sum()) * self.dx * self.dy

    def norm_l2(self, values: np.ndarray) -> float:
        return float(np.sqrt(self.inner(values, values)))

    def norm_sup(self, values: np.ndarray) -> float:
        return float(np.max(np.abs(values)))


@dataclass(frozen=True)
class PlaneGrid:
    """Uniform n x n sampling of the square [-R, R]^2, boundary nodes included."""

    R: float
    n: int

    def __post_init__(self):
        if not self.R > 0.0:
            raise ValueError("half-width R must be positive")
        if self.n < 16:
            raise ValueError("need at least 16 samples per axis")

    @property
    def h(self):
        return 2.0 * self.R / (self.n - 1)

    @property
    def area(self):
        return (2.0 * self.R) ** 2

    @property
    def shape(self):
        return (self.n, self.n)

    def axes(self):
        x = -self.R + np.arange(self.n) * self.h
        return x, x

    def nodes(self):
        x, y = self.axes()
        return np.meshgrid(x, y, indexing="ij")

    @cached_property
    def trapezoid_weights(self) -> np.ndarray:
        w1 = np.full(self.n, self.h)
        w1[0] *= 0.5
        w1[-1] *= 0.5
        return w1[:, None] * w1[None, :]

    @cached_property
    def sine_basis(self) -> np.ndarray:
        """Orthonormal DST-I matrix of the n - 2 interior nodes per axis.

        Column k samples sin(pi k j / (n - 1)) at the interior nodes j; the
        matrix is symmetric and its own inverse.
        """
        k = np.arange(1, self.n - 1)
        return np.sqrt(2.0 / (self.n - 1)) * np.sin(np.pi * np.outer(k, k) / (self.n - 1))

    # -- operators ---------------------------------------------------------

    def laplacian(self, values: np.ndarray, out: np.ndarray = None) -> np.ndarray:
        """5-point Laplacian; ghost nodes outside the grid hold zero (Dirichlet).

        Neighbours are summed into one output in a fixed order (up, down,
        left, right, then the centre term), so results are bitwise stable.
        ``out`` must not overlap ``values``.
        """
        if out is None:
            out = np.empty_like(values)
        out[0] = 0.0
        out[1:] = values[:-1]
        out[:-1] += values[1:]
        out[:, 1:] += values[:, :-1]
        out[:, :-1] += values[:, 1:]
        out -= 4.0 * values
        out /= self.h * self.h
        return out

    # -- Laplacian eigenbasis ------------------------------------------------
    #
    # The sine modes of the interior nodes diagonalize the 5-point Laplacian
    # with zero ghost values.  The transforms are the dense products S @ x @ S
    # with S = sine_basis; they cost O(n^3) per call, against O(n^2 log n) for
    # an FFT-based DST-I, but at the sizes solved here they are faster: the
    # FFT length 2(n - 1) has a large prime factor whenever n - 1 does, and
    # BLAS products do not care.  At n = 384 (FFT length 766 = 2 * 383) the two
    # products take about 5 ms against 17-20 ms for scipy.fft.dstn, with one
    # BLAS thread on a 2-vCPU x86_64 Xeon virtual machine.

    def modal_forward(self, values: np.ndarray, out: np.ndarray = None) -> np.ndarray:
        """Sine coefficients of the interior of ``values``, shape (n-2, n-2)."""
        s = self.sine_basis
        return np.matmul(s @ values[1:-1, 1:-1], s, out=out)

    def modal_inverse(self, coeffs: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Write the field with sine coefficients ``coeffs`` to ``out``.

        The boundary ring of ``out`` is set to zero.
        """
        s = self.sine_basis
        np.matmul(s @ coeffs, s, out=out[1:-1, 1:-1])
        out[0, :] = out[-1, :] = 0.0
        out[:, 0] = out[:, -1] = 0.0
        return out

    def laplacian_eigenvalues(self) -> np.ndarray:
        """Eigenvalue of ``-laplacian`` per sine mode, shape (n-2, n-2).

        (4 / h^2) (sin^2(pi k / (2 (n - 1))) + sin^2(pi l / (2 (n - 1)))).
        """
        s2 = (2.0 / self.h * np.sin(0.5 * np.pi * np.arange(1, self.n - 1) / (self.n - 1))) ** 2
        return s2[:, None] + s2[None, :]

    # -- reductions ----------------------------------------------------------

    def integrate(self, values: np.ndarray) -> float:
        return float((values * self.trapezoid_weights).sum())

    def inner(self, a: np.ndarray, b: np.ndarray) -> float:
        return float((a * b * self.trapezoid_weights).sum())

    def norm_l2(self, values: np.ndarray) -> float:
        return float(np.sqrt(self.inner(values, values)))

    def norm_sup(self, values: np.ndarray) -> float:
        return float(np.max(np.abs(values)))


def random_smooth_field(grid, rng: np.random.Generator, amplitude: float = 0.5) -> np.ndarray:
    """Band-limited random field, used for property tests and probe initials.

    Torus fields are low-pass filtered white noise; plane fields additionally
    vanish on the boundary ring (Dirichlet states).
    """
    if isinstance(grid, TorusGrid):
        noise = rng.standard_normal(grid.shape)
        ws = grid.workspace
        kc2 = (6.0 * 2.0 * np.pi / min(grid.Lx, grid.Ly)) ** 2
        fhat = np.fft.rfft2(noise) * np.exp(ws.neg_k2 / kc2)
        field = np.fft.irfft2(fhat, s=grid.shape)
    else:
        noise = rng.standard_normal(grid.shape)
        x, _ = grid.axes()
        window = np.sin(np.pi * (x + grid.R) / (2.0 * grid.R))
        kern = np.exp(-0.5 * (np.arange(-4, 5) / 1.5) ** 2)
        kern /= kern.sum()
        for axis in (0, 1):
            noise = np.apply_along_axis(lambda m: np.convolve(m, kern, mode="same"), axis, noise)
        field = noise * (window[:, None] * window[None, :]) ** 2
        field[0, :] = field[-1, :] = 0.0
        field[:, 0] = field[:, -1] = 0.0
    sup = np.max(np.abs(field))
    if sup > 0:
        field *= amplitude / sup
    return field
