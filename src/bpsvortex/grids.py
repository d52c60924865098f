"""Grids, differential operators, Poisson inversion and quadrature.

Two domain types are supported:

* :class:`TorusGrid` - a doubly periodic rectangle sampled uniformly.
* :class:`PlaneGrid` - a truncated plane square ``[-R, R]^2`` with uniform
  spacing and homogeneous Dirichlet data on the boundary ring.

Both are spectral: each grid exposes the eigenbasis of its Laplacian, and
``laplacian`` and ``modal_dirichlet`` are written once, for both, through it.
``modal_forward`` and ``modal_inverse`` map fields to mode coefficients and
back, ``laplacian_eigenvalues`` gives the eigenvalue of ``-laplacian`` per
mode in the same layout (|k|^2 over the Fourier modes on the torus,
(pi k / 2R)^2 + (pi l / 2R)^2 over the sine modes of the interior nodes on
the plane), and ``modal_inner`` is the pairing ``inner`` of the fields,
computed from their coefficients.  Operators with constant coefficients are
diagonal there, the Laplacian is exact for sums of the modes, and on the
torus the zero-mean Poisson solve inverts it exactly.  ``to_modes`` and
``from_modes`` transform a stacked pair of fields, such as a state,
``laplacians`` gives the pair's Laplacians from its coefficients (one
inverse transform per field), and ``pointwise_product(coeffs, weights,
out)`` is the pair kernel of the Hessian products: the coefficients of
weights[k] times field k of the pair with coefficients ``coeffs``.  On the
torus every pair operator is one pass over the stack: ``modal_forward`` is
one ``rfft2`` over the last two axes and ``modal_inverse`` one ``ifft`` plus
one ``irfft``, for one field or a stack alike, so a pair costs the FFT calls
of one field (three per ``pointwise_product``), and each 1-D line is
computed as it is for a single field, bit for bit.  The plane transforms
one field at a time (dense products, which gain nothing from stacking),
and its ``pointwise_product`` goes through one physical field per call.
Transform counts stay per field: a stacked call transforms two.
The coarse levels are written once as well, from each grid's ``_halved``,
``_top_third``, ``_coarse_blocks`` and ``_count`` (see
:class:`_Eigenbasis`): ``resolves(length)`` says whether a grid resolves a
core of that length by three nodes (3 * spacing <= length),
``coarsest(tau)`` is the coarsest grid of the halving chain that still
resolves a core of scale tau (length sqrt(tau)), each grid's own
``resolving_level()`` is the grid with two thirds of its intervals per
axis, and ``spectral_tail(coeffs)`` reads from a level's coefficients how
much of a field sits in the top third of its band.  ``prolong`` zero-pads the
coefficients (of a field or a pair) of any coarser grid of the same domain
onto this one, nested or not, exact for fields band-limited there, and
``restrict`` truncates them back; no transform.  Solvers start a cold solve
on the coarse level, and a sweep's warm rows continue there; the level rule
is :func:`bpsvortex.newton.solve_levels`.
Each grid also owns its boundary: ``zero_boundary`` zeroes the plane's
Dirichlet ring (a no-op on the torus) and ``interior`` views the nodes that
carry an equation.  Next to ``integrate`` and the L^2 pairing ``inner``, each
grid gives the Dirichlet form int |grad v|^2 dA of a field from its mode
coefficients, ``modal_dirichlet(modal_forward(v))``, which equals
``-inner(v, laplacian(v))`` on both grids (on the plane for fields that
vanish on the boundary ring).

Scalar fields are plain ``float64`` arrays of shape ``(nx, ny)`` (torus) or
``(n, n)`` (plane), laid out row-major with node ``(i, j)`` at
``(i*dx, j*dy)`` resp. ``(-R + i*h, -R + j*h)``.  Reductions use numpy's
pairwise summation, so results are deterministic for a fixed grid.
The plane's sine transforms compute in the dtype of their field (the input
of ``modal_forward``, the output of ``modal_inverse``) and round
coefficients of another dtype at the boundary: float32 fields go through a
float32 copy of the sine basis.  A grid's ``product_dtype`` is the field
dtype in which the energy's Hessian products run their pointwise part:
float32 on the plane, whose dense transforms then cost half (about 2e-8
relative error in the product, below the accuracy Newton's CG asks of it;
see :mod:`bpsvortex.energy`), and float64 on the torus, whose FFTs gain
nothing from single precision.

Buffers: ``laplacian`` and ``laplacians`` return new arrays.  The other
operators write their result to ``out=`` and return it; where ``out`` is
optional, they return a new array without it.  Either way the result belongs
to the caller.  No operator writes to the grid: a grid holds its parameters
and read-only tables cached on first use (wave numbers, sine bases), so one
grid serves every level, sweep row and thread.  Every scratch array belongs
to its call.  A torus inverse transform makes its complex spectrum, and the
zero-mean Poisson solve one spectrum that its forward transform, its
division and its complex inverse pass all write in place.  The plane's
sine transforms allocate one interior-sized intermediate per call (two for
a forward transform into coefficients of another dtype, and its Dirichlet
forms their coefficients; its Laplacians scale each field's coefficients
into the interior of their output).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import NonZeroMeanRhs

# largest |mean(rhs)| the zero-mean Poisson solve accepts, relative to the
# field magnitude: callers project the mean out, so a mean above quadrature
# roundoff means the right-hand side was built wrong
POISSON_MEAN_TOL = 1e-10


class _Eigenbasis:
    """The operators both grids apply through the eigenbasis of their Laplacian.

    A grid gives ``modal_forward``, ``modal_inverse``, ``modal_inner``,
    ``_neg_k2`` (-K, the symbol of the Laplacian, per mode),
    ``_mode_dtype``, the type of its coefficients, and ``product_dtype``,
    the type of the fields in the Hessian products.  The pair operators here
    go field by field; a grid whose transforms take a stack (the torus)
    overrides them with one pass over it.  For the coarse levels a grid
    gives ``_halved()``, its next halving level (``None`` where the chain
    ends), ``resolving_level()``, the level with two thirds of its
    intervals per axis, ``_top_third``, the slices of the coefficient rows
    and of the columns whose mode number is at least two thirds of the
    largest, ``_coarse_blocks(coarse)``, pairs (index here, index on
    ``coarse``) of the coefficients both have, and ``_count``, the factor a
    mode's coefficient grows with (nx * ny on the torus, n - 1 on the
    plane).  No operator writes to the grid: its scratch belongs to the call.
    """

    def laplacian(self, values: np.ndarray) -> np.ndarray:
        """Spectral Laplacian: the mode coefficients of ``values`` times -K, brought back.

        Exact for sums of the grid's modes.  On the plane only the interior
        nodes are read, and the result vanishes on the boundary ring.  The
        coefficients are a new array of the call, scaled in place.
        """
        coeffs = self.modal_forward(values)
        return self.modal_inverse(np.multiply(self._neg_k2, coeffs, out=coeffs))

    def laplacians(self, modes: np.ndarray) -> np.ndarray:
        """The stacked Laplacians of the pair of fields with mode coefficients ``modes``.

        A new pair: -K ``modes``, broadcast over the pair, brought back by
        ``from_modes``.
        """
        return self.from_modes(self._neg_k2 * modes)

    def pointwise_product(self, coeffs: np.ndarray, weights: np.ndarray,
                          out: np.ndarray) -> np.ndarray:
        """Write to ``out`` the coefficients of ``weights`` times the pair with coefficients ``coeffs``.

        Slice k of ``out`` holds those of weights[k] fields(coeffs)[k]; the
        fields are in the dtype of ``weights``.  One inverse and one forward
        transform per field, through one physical field made per call;
        ``out`` may be ``coeffs``.
        """
        field = np.empty(self.shape, weights.dtype)
        for c, w, o in zip(coeffs, weights, out):
            self.modal_inverse(c, out=field)
            np.multiply(field, w, out=field)
            self.modal_forward(field, out=o)
        return out

    def modal_dirichlet(self, coeffs: np.ndarray) -> float:
        """int |grad v|^2 dA of the field v with mode coefficients ``coeffs``.

        It equals -inner(v, laplacian(v)), on the plane for v zero on the
        ring.  Parseval, with no transform: ``-modal_inner(v_hat, -K v_hat)``.
        """
        return -self.modal_inner(coeffs, self._neg_k2 * coeffs)

    def to_modes(self, pair: np.ndarray, out: np.ndarray = None) -> np.ndarray:
        """Mode coefficients of a stacked pair of fields (:meth:`modal_forward` per field)."""
        if out is None:
            out = self.empty_modes()
        self.modal_forward(pair[0], out=out[0])
        self.modal_forward(pair[1], out=out[1])
        return out

    def from_modes(self, coeffs: np.ndarray, out: np.ndarray = None) -> np.ndarray:
        """The stacked pair of fields with mode coefficients ``coeffs`` (:meth:`modal_inverse`)."""
        if out is None:
            out = np.empty((2,) + self.shape)
        self.modal_inverse(coeffs[0], out=out[0])
        self.modal_inverse(coeffs[1], out=out[1])
        return out

    def empty_modes(self) -> np.ndarray:
        """Uninitialized coefficients of a stacked pair of fields.

        Complex on the torus (rfft2 layout), real on the plane.
        """
        return np.empty((2,) + self._neg_k2.shape, self._mode_dtype)

    def laplacian_eigenvalues(self) -> np.ndarray:
        """K, the eigenvalue of ``-laplacian`` per mode, in the coefficient layout.

        A new array: |k|^2 on the torus, (pi k / 2R)^2 + (pi l / 2R)^2 on the
        plane, with k, l from ``sine_modes``.
        """
        return -self._neg_k2

    # -- coarse levels -------------------------------------------------------

    def resolves(self, length: float) -> bool:
        """Whether three node spacings fit in ``length``: the grid resolves a core that long."""
        return 3.0 * self._spacing <= length

    def coarsest(self, tau: float):
        """The coarsest level of the ``_halved`` chain that ``resolves(sqrt(tau))``, or ``None``."""
        level, best = self._halved(), None
        while level is not None and level.resolves(math.sqrt(tau)):
            best, level = level, level._halved()
        return best

    def prolong(self, coarse, coeffs: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Write the coefficients here of the interpolant of a ``coarse`` field.

        ``coeffs`` (one field or a stack) are its coefficients on ``coarse``,
        any coarser grid of the same domain: a halving level, the resolving
        level, or a level between them, nested or not.  Each moves to its
        mode's place here, rescaled by ``_count``; the other modes are zero.
        No transform.  Exact for sums of the coarse modes, on the torus
        without the coarse Nyquist row and column, which are dropped.
        """
        out[...] = 0.0
        for here, there in self._coarse_blocks(coarse):
            out[here] = coeffs[there]
        out *= self._count / coarse._count
        return out

    def spectral_tail(self, coeffs: np.ndarray) -> float:
        """How much of the coefficients ``coeffs`` (one field or a stack) sit at the top of the band.

        The largest |coefficient| among the modes whose number is at least
        two thirds of the grid's largest in either axis, over the largest
        |coefficient| of all (0 for zero ``coeffs``); no transform.  The
        square band, not the disc K >= (4/9) K_max, which misses the modes
        near an axis, such as (2 k_max / 3, 1).
        """
        rows, cols = self._top_third
        mags = np.abs(coeffs)
        # the largest |coefficient| of each row and of each column
        by_row, by_col = mags.max(axis=-1), mags.max(axis=-2)
        del mags
        top = float(by_row.max())
        if top == 0.0:
            return 0.0
        high = max([float(by_row[..., s].max()) for s in rows]
                   + [float(by_col[..., s].max()) for s in cols])
        return high / top

    def restrict(self, coarse, coeffs: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Write to ``out`` the ``coarse`` coefficients of this grid's modes that ``coarse`` has.

        ``prolong`` run backwards, for any coarser grid of the same domain:
        ``coeffs`` (one field or a stack) are truncated to the coarse modes
        (the torus's coarse Nyquist row and column zero) and rescaled; no
        transform.  It undoes ``prolong`` to roundoff.
        """
        out[...] = 0.0
        for here, there in self._coarse_blocks(coarse):
            out[there] = coeffs[here]
        out *= coarse._count / self._count
        return out


@dataclass(frozen=True)
class TorusGrid(_Eigenbasis):
    """Uniform sampling of a doubly periodic rectangle of side lengths Lx, Ly."""

    Lx: float
    Ly: float
    nx: int
    ny: int

    _mode_dtype = complex
    product_dtype = np.float64

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
    def _spacing(self):
        return max(self.dx, self.dy)

    @property
    def shape(self):
        return (self.nx, self.ny)

    @cached_property
    def _neg_k2(self) -> np.ndarray:
        # -|k|^2, the symbol of the Laplacian, in the rfft2 layout; entry
        # [0, 0] is the mean (k = 0) mode
        kx = 2.0 * np.pi * np.fft.fftfreq(self.nx, d=self.dx)
        ky = 2.0 * np.pi * np.fft.rfftfreq(self.ny, d=self.dy)
        return -(kx[:, None] ** 2 + ky[None, :] ** 2)

    def axes(self):
        x = np.arange(self.nx) * self.dx
        y = np.arange(self.ny) * self.dy
        return x, y

    # -- operators ---------------------------------------------------------

    def poisson_solve_zero_mean(self, rhs: np.ndarray, out: np.ndarray = None) -> np.ndarray:
        """Unique zero-mean U with laplacian(U) = rhs - mean(rhs).

        Raises :class:`NonZeroMeanRhs` when |mean(rhs)| exceeds
        ``POISSON_MEAN_TOL`` relative to the field magnitude.  ``out`` may be
        ``rhs`` itself.  One spectrum of the call takes the forward
        transform, the division and the complex inverse pass, in place.
        """
        scale = max(float(rhs.max()), -float(rhs.min()))
        m = float(rhs.mean())
        if abs(m) > POISSON_MEAN_TOL * (scale + 1e-300):
            raise NonZeroMeanRhs(
                f"rhs mean {m:.3e} exceeds {POISSON_MEAN_TOL:.1e} relative tolerance"
            )
        neg_k2 = self._neg_k2
        spec = self.modal_forward(rhs, out=np.empty(neg_k2.shape, complex))
        # every mode but the mean one, which the solve sets to zero
        spec[0, 1:] /= neg_k2[0, 1:]
        spec[1:] /= neg_k2[1:]
        spec[0, 0] = 0.0
        # modal_inverse's two passes, the complex one in place
        return np.fft.irfft(np.fft.ifft(spec, axis=-2, out=spec), n=self.ny, axis=-1, out=out)

    # -- Laplacian eigenbasis ------------------------------------------------

    def modal_forward(self, values: np.ndarray, out: np.ndarray = None) -> np.ndarray:
        """Fourier coefficients of ``values``, one field or a stack (rfft2 layout).

        One ``rfft2`` over the last two axes, whatever the stack.
        """
        return np.fft.rfft2(values, out=out)

    def modal_inverse(self, coeffs: np.ndarray, out: np.ndarray = None) -> np.ndarray:
        """The field, or stack of fields, with Fourier coefficients ``coeffs`` (written to ``out``).

        irfft2 as its two 1-D passes over the last two axes, bitwise equal
        to ``np.fft.irfft2(coeffs, s=self.shape)`` per field.  The complex
        pass writes a new spectrum of the call; ``coeffs`` is only read.
        """
        return np.fft.irfft(np.fft.ifft(coeffs, axis=-2), n=self.ny, axis=-1, out=out)

    def modal_inner(self, a: np.ndarray, b: np.ndarray) -> float:
        """``inner`` of the fields with Fourier coefficients ``a`` and ``b``.

        Parseval in the rfft2 layout: a column of modes stands for itself and
        its mirror image, so it counts twice, except column 0 and the Nyquist
        column, which are their own mirrors.  Summed over float views of the
        coefficients, without temporaries.  ``a`` and ``b`` may be stacked,
        like a state.
        """
        width = 2 * (self.ny // 2 + 1)
        af, bf = a.view(float).reshape(-1, width), b.view(float).reshape(-1, width)
        # real and imaginary parts of column 0 and of the Nyquist column
        once = sum(float(np.dot(af[:, i], bf[:, i])) for i in (0, 1, -2, -1))
        total = 2.0 * float(np.vdot(af, bf)) - once
        return total * self.dx * self.dy / (self.nx * self.ny)

    # -- pairs: one transform pass per stack ---------------------------------

    def to_modes(self, pair: np.ndarray, out: np.ndarray = None) -> np.ndarray:
        """Fourier coefficients of a stacked pair of fields, in one stacked ``modal_forward``."""
        return self.modal_forward(pair, out=out)

    def from_modes(self, coeffs: np.ndarray, out: np.ndarray = None) -> np.ndarray:
        """The stacked pair of fields with Fourier coefficients ``coeffs``, in one ``modal_inverse``."""
        return self.modal_inverse(coeffs, out=out)

    def pointwise_product(self, coeffs: np.ndarray, weights: np.ndarray,
                          out: np.ndarray) -> np.ndarray:
        """Write to ``out`` the coefficients of ``weights`` times the pair with coefficients ``coeffs``.

        The stacked pair of fields (one ``modal_inverse``), multiplied by
        ``weights`` in place and taken forward (one ``modal_forward``): three
        FFT calls per pair.  ``out`` may be ``coeffs``.
        """
        fields = self.modal_inverse(coeffs)
        fields *= weights
        return self.modal_forward(fields, out=out)

    # -- coarse levels -------------------------------------------------------

    @property
    def _count(self):
        return self.nx * self.ny

    def _halved(self):
        # both sample counts halved, while both halves stay even and at least 8
        halves = self.nx % 4 == 0 and self.ny % 4 == 0 and min(self.nx, self.ny) >= 16
        return TorusGrid(self.Lx, self.Ly, self.nx // 2, self.ny // 2) if halves else None

    def resolving_level(self):
        """The resolving level: this grid's domain with two thirds of its intervals per axis.

        An even 2 round(n / 3) samples per axis (64 for 96), at least 8 for
        n >= 12; always finer than ``coarsest``, which halves at least once.
        """
        return TorusGrid(self.Lx, self.Ly, 2 * round(self.nx / 3), 2 * round(self.ny / 3))

    @property
    def _top_third(self):
        # |kx| >= nx / 3: one block of rows around the Nyquist row (rfft2
        # rows hold kx = 0 .. nx/2, then -nx/2 + 1 .. -1); ky >= ny / 3
        kx, ky = -(-self.nx // 3), -(-self.ny // 3)
        return [np.s_[kx:self.nx - kx + 1]], [np.s_[ky:]]

    def _coarse_blocks(self, coarse: "TorusGrid"):
        # the rfft2 rows of the non-negative and of the negative frequencies,
        # without the coarse Nyquist row and column
        hx, hy = coarse.nx // 2, coarse.ny // 2
        low = np.s_[..., :hx, :hy]
        return (low, low), (np.s_[..., self.nx - hx + 1:, :hy], np.s_[..., hx + 1:, :hy])

    # -- boundary ------------------------------------------------------------

    def zero_boundary(self, values: np.ndarray) -> np.ndarray:
        """``values`` unchanged: a periodic grid has no boundary."""
        return values

    def interior(self, values: np.ndarray) -> np.ndarray:
        """``values`` itself: every node carries an equation."""
        return values

    # -- reductions ----------------------------------------------------------

    def integrate(self, values: np.ndarray) -> float:
        return float(values.sum()) * self.dx * self.dy

    def inner(self, a: np.ndarray, b: np.ndarray) -> float:
        return float((a * b).sum()) * self.dx * self.dy


@dataclass(frozen=True)
class PlaneGrid(_Eigenbasis):
    """Uniform n x n sampling of the square [-R, R]^2, boundary nodes included."""

    R: float
    n: int

    _mode_dtype = float
    product_dtype = np.float32

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
    def _spacing(self):
        return self.h

    @property
    def shape(self):
        return (self.n, self.n)

    def axes(self):
        x = -self.R + np.arange(self.n) * self.h
        return x, x

    # -- Laplacian eigenbasis ------------------------------------------------
    #
    # The sine modes sin(pi k (x + R) / 2R) sin(pi l (y + R) / 2R), sampled at
    # the interior nodes, are the Dirichlet eigenfunctions of the Laplacian on
    # the square, with eigenvalues -(pi k / 2R)^2 - (pi l / 2R)^2.  The
    # transforms are dense products with the orthonormal DST-I matrix
    # S[k, j] = sqrt(2 / N) sin(pi k j / N) (symmetric and its own inverse),
    # folded: with N = n - 1 and interior nodes
    # j = 1 .. N - 1, S[k, N - j] = (-1)^(k + 1) S[k, j], so odd modes see
    # x_j + x_{N-j} and even modes x_j - x_{N-j} (an odd n has a middle node
    # j = N / 2, which enters the odd modes only).  Per axis that leaves two
    # products of half the size, with the blocks of ``_folded_basis``, and
    # half the flops of S @ x @ S.  Coefficients are kept in that block
    # layout per axis: odd modes 1, 3, 5, ... first, then even modes 2, 4, ...
    # (``sine_modes``).  Dense products still beat an FFT-based DST-I at the
    # sizes solved here: the FFT length 2(n - 1) has a large prime factor
    # whenever n - 1 does, and BLAS products do not care.  At n = 384 (FFT
    # length 766 = 2 * 383), with one BLAS thread on a 2-vCPU x86_64 Xeon
    # virtual machine, an unfolded 2-D transform took about 5 ms against
    # 17-20 ms for scipy.fft.dstn, and a folded one takes about 4 ms against
    # 6 ms unfolded on the same host.  Each transform allocates one
    # interior-sized intermediate and writes every other stage into its
    # output.  A float32 field runs the same products in sgemm, at about
    # half the time of dgemm (n = 384: 1.7 ms against 3.1 ms per forward
    # transform on the same host).

    @cached_property
    def sine_modes(self) -> np.ndarray:
        """Mode number k of each coefficient row (and column): odd, then even."""
        return np.r_[1:self.n - 1:2, 2:self.n - 1:2]

    @cached_property
    def _folded_basis(self):
        # rows of S at the odd and at the even modes, restricted to
        # the nodes j = 1 .. ceil((n - 2) / 2) resp. 1 .. (n - 2) // 2
        odd, even = (self.n - 1) // 2, (self.n - 2) // 2
        k = self.sine_modes
        j = np.arange(1, odd + 1)
        s = np.sqrt(2.0 / (self.n - 1)) * np.sin(np.pi * np.outer(k, j) / (self.n - 1))
        return s[:odd], np.ascontiguousarray(s[odd:, :even])

    @cached_property
    def _folded_basis_single(self):
        # the blocks of _folded_basis rounded to float32, for the transforms
        # of float32 fields (the Hessian products, ``product_dtype``)
        return tuple(s.astype(np.float32) for s in self._folded_basis)

    def _basis(self, dtype):
        return self._folded_basis_single if dtype == np.float32 else self._folded_basis

    def _fold(self, x, out):
        # rows j of x and N - j summed into the odd rows of out, subtracted
        # into the even ones; the middle row of an odd n is copied
        odd, even = (self.n - 1) // 2, (self.n - 2) // 2
        top, mirror = x[:even], x[::-1][:even]
        np.add(top, mirror, out=out[:even])
        out[even:odd] = x[even:odd]
        np.subtract(top, mirror, out=out[odd:])

    def _unfold(self, y, out):
        # the transpose of _fold: out_j = y_odd + y_even and
        # out_{N-j} = y_odd - y_even; the middle row of an odd n is copied
        odd, even = (self.n - 1) // 2, (self.n - 2) // 2
        np.add(y[:even], y[odd:], out=out[:even])
        out[even:odd] = y[even:odd]
        np.subtract(y[:even], y[odd:], out=out[::-1][:even])

    def modal_forward(self, values: np.ndarray, out: np.ndarray = None) -> np.ndarray:
        """Sine coefficients of the interior of ``values``, shape (n-2, n-2).

        Rows and columns follow ``sine_modes``.  Computed in the dtype of
        the field ``values`` (float64, or float32 for the Hessian products);
        an ``out`` of another dtype receives the result rounded to it.
        """
        s_odd, s_even = self._basis(values.dtype)
        odd = s_odd.shape[0]
        if out is None:
            out = np.empty((self.n - 2, self.n - 2), values.dtype)
        res = out if out.dtype == values.dtype else np.empty(out.shape, values.dtype)
        t = np.empty_like(res)
        self._fold(values[1:-1, 1:-1], t)
        np.matmul(s_odd, t[:odd], out=res[:odd])
        np.matmul(s_even, t[odd:], out=res[odd:])
        self._fold(res.T, t.T)
        np.matmul(t[:, :odd], s_odd.T, out=res[:, :odd])
        np.matmul(t[:, odd:], s_even.T, out=res[:, odd:])
        if res is not out:
            out[...] = res
        return out

    def modal_inverse(self, coeffs: np.ndarray, out: np.ndarray = None) -> np.ndarray:
        """The field with sine coefficients ``coeffs`` (written to ``out``).

        Its boundary ring is zero.  Computed in the dtype of the field:
        that of ``out`` when given (float64, or float32 for the Hessian
        products; ``coeffs`` of another dtype are rounded to it first),
        else that of ``coeffs``.  ``coeffs`` may be the interior of ``out``:
        it is read in full before ``out`` is written.
        """
        if out is None:
            out = np.empty(self.shape, coeffs.dtype)
        s_odd, s_even = self._basis(out.dtype)
        odd = s_odd.shape[0]
        x = out[1:-1, 1:-1]
        if coeffs.dtype != out.dtype:
            x[...] = coeffs
            coeffs = x
        t = np.empty(x.shape, out.dtype)
        np.matmul(coeffs[:, :odd], s_odd, out=t[:, :odd])
        np.matmul(coeffs[:, odd:], s_even, out=t[:, odd:])
        self._unfold(t.T, x.T)
        np.matmul(s_odd.T, x[:odd], out=t[:odd])
        np.matmul(s_even.T, x[odd:], out=t[odd:])
        self._unfold(t, x)
        return self.zero_boundary(out)

    def modal_inner(self, a: np.ndarray, b: np.ndarray) -> float:
        """``inner`` of the fields with sine coefficients ``a`` and ``b``.

        The sine modes are orthonormal, so this is the plain sum of products
        times h^2.  ``a`` and ``b`` may be stacked, like a state.
        """
        return float(np.vdot(a, b)) * self.h ** 2

    def laplacians(self, modes: np.ndarray) -> np.ndarray:
        """The stacked Laplacians of the pair of fields with sine coefficients ``modes``.

        A new pair, field by field: -K times a field's coefficients goes
        straight into the interior of its output field, which
        ``modal_inverse`` then transforms in place, so no pair-sized -K
        ``modes`` is made.
        """
        out = np.empty((2,) + self.shape)
        for coeffs, field in zip(modes, out):
            self.modal_inverse(np.multiply(self._neg_k2, coeffs, out=self.interior(field)),
                               out=field)
        return out

    @cached_property
    def _neg_k2(self) -> np.ndarray:
        # -(pi k / 2R)^2 - (pi l / 2R)^2, the symbol of the Laplacian, over
        # the sine modes in the coefficient layout
        k2 = (0.5 * np.pi / self.R * self.sine_modes) ** 2
        return -(k2[:, None] + k2[None, :])

    # -- coarse levels -------------------------------------------------------

    @property
    def _count(self):
        return self.n - 1

    def _halved(self):
        # the n - 1 intervals halved (rounding down), while 16 nodes are left
        n = (self.n + 1) // 2
        return PlaneGrid(self.R, n) if n >= 16 else None

    def resolving_level(self):
        """The resolving level: this grid's domain with two thirds of its intervals per axis.

        round(2 (n - 1) / 3) intervals (256 nodes for 384; 2 (n - 1) / 3 is
        never halfway); always finer than ``coarsest``, which halves at
        least once.
        """
        return PlaneGrid(self.R, round(2 * (self.n - 1) / 3) + 1)

    @property
    def _top_third(self):
        # modes k >= ceil(2 k_max / 3), k_max = n - 2: the end of the odd
        # block (k = 2 i + 1) and the end of the even block (k = 2 j + 2)
        top, odd = -(-2 * (self.n - 2) // 3), (self.n - 1) // 2
        band = [np.s_[top // 2:odd], np.s_[odd + (top - 1) // 2:]]
        return band, band

    def _coarse_blocks(self, coarse: "PlaneGrid"):
        # each coarse coefficient row (and column) goes to the place of its
        # mode number in this grid's ``sine_modes``
        rows = np.empty(self.n - 1, dtype=int)
        rows[self.sine_modes] = np.arange(self.n - 2)
        rows = rows[coarse.sine_modes]
        return (((...,) + np.ix_(rows, rows), ...),)

    # -- boundary ------------------------------------------------------------

    def zero_boundary(self, values: np.ndarray) -> np.ndarray:
        """Set the Dirichlet boundary ring of ``values`` to zero, in place.

        ``values`` is one field or a stack of fields, such as a state.
        """
        values[..., 0, :] = values[..., -1, :] = 0.0
        values[..., :, 0] = values[..., :, -1] = 0.0
        return values

    def interior(self, values: np.ndarray) -> np.ndarray:
        """View of the interior nodes, where the equations are imposed."""
        return values[1:-1, 1:-1]

    # -- reductions ----------------------------------------------------------

    def integrate(self, values: np.ndarray) -> float:
        """Trapezoid rule: h^2 per node, halved on each edge of the boundary ring.

        Halving is exact, so the products equal those of ``values`` with the
        tensor-product weights bit for bit, and no n x n weight table is held.
        """
        out = values * (self.h * self.h)
        out[0] *= 0.5
        out[-1] *= 0.5
        out[:, 0] *= 0.5
        out[:, -1] *= 0.5
        return float(out.sum())

    def inner(self, a: np.ndarray, b: np.ndarray) -> float:
        """L^2 pairing with the cell measure h^2.

        For fields that vanish on the boundary ring this is the pairing in
        which the energy gradient is the exact first variation.
        """
        return float((a * b).sum()) * self.h ** 2

