"""Hot numeric kernels: numba-jitted implementations with pure-numpy fallbacks.

The jitted path is the default whenever numba imports cleanly.  Setting the
environment variable ``BPSVORTEX_PURE_NUMPY=1`` (before import) selects the
numpy implementations instead; ``benchmarks/bench_kernels.py`` times the two
paths against each other.  Both paths are deterministic for a fixed input.
"""

from __future__ import annotations

import os

import numpy as np

_FORCE_NUMPY = os.environ.get("BPSVORTEX_PURE_NUMPY", "").strip().lower() in {
    "1",
    "true",
    "yes",
    "on",
}

NUMBA_ENABLED = False
if not _FORCE_NUMPY:
    try:
        from numba import njit

        NUMBA_ENABLED = True
    except ImportError:  # pragma: no cover - numba is a declared dependency
        pass


# ---------------------------------------------------------------------------
# numpy reference implementations
# ---------------------------------------------------------------------------

def _plane_laplacian_numpy(v, h, boundary):
    # 5-point stencil; ghost nodes outside the grid carry the constant value.
    # Neighbours are summed into one output in the order up, down, left,
    # right, then the centre term, with no padded copy.
    out = np.empty_like(v)
    out[0] = boundary
    out[1:] = v[:-1]
    out[:-1] += v[1:]
    out[-1] += boundary
    out[:, 1:] += v[:, :-1]
    out[:, 0] += boundary
    out[:, :-1] += v[:, 1:]
    out[:, -1] += boundary
    out -= 4.0 * v
    out /= h * h
    return out


def _bump_sum_numpy(x, y, cx, cy, tau):
    # sum over centres (cx, cy) of 4*tau / (tau + r^2)^2; centres include
    # periodic images when the caller periodizes.
    acc = np.zeros((x.size, y.size))
    X = x[:, None]
    Y = y[None, :]
    for k in range(cx.size):
        r2 = (X - cx[k]) ** 2 + (Y - cy[k]) ** 2
        acc += 4.0 * tau / (tau + r2) ** 2
    return acc


def _log_factors_numpy(x, y, cx, cy, tau):
    # product of r^2/(r^2+tau) over centres plus the clamped log of the same
    # product; the product form is exact (0.0) at nodes coinciding with a centre.
    X = x[:, None]
    Y = y[None, :]
    prod = np.ones((x.size, y.size))
    logsum = np.zeros((x.size, y.size))
    for k in range(cx.size):
        r2 = (X - cx[k]) ** 2 + (Y - cy[k]) ** 2
        fac = r2 / (r2 + tau)
        prod *= fac
        logsum += np.where(fac > 0.0, np.log(np.maximum(fac, 1e-320)), -750.0)
    return prod, np.maximum(logsum, -700.0)


def _radial_bin_numpy(r, w, edges):
    sums, _ = np.histogram(r, bins=edges, weights=w)
    counts, _ = np.histogram(r, bins=edges)
    return sums, counts


# ---------------------------------------------------------------------------
# numba implementations (same semantics, loop form)
# ---------------------------------------------------------------------------

if NUMBA_ENABLED:

    @njit(cache=True)
    def _plane_laplacian_numba(v, h, boundary):
        n0, n1 = v.shape
        out = np.empty_like(v)
        h2 = h * h
        for i in range(n0):
            for j in range(n1):
                c = v[i, j]
                a = v[i - 1, j] if i > 0 else boundary
                b = v[i + 1, j] if i < n0 - 1 else boundary
                d = v[i, j - 1] if j > 0 else boundary
                e = v[i, j + 1] if j < n1 - 1 else boundary
                out[i, j] = (a + b + d + e - 4.0 * c) / h2
        return out

    @njit(cache=True)
    def _bump_sum_numba(x, y, cx, cy, tau):
        acc = np.zeros((x.size, y.size))
        for k in range(cx.size):
            for i in range(x.size):
                dx2 = (x[i] - cx[k]) ** 2
                for j in range(y.size):
                    r2 = dx2 + (y[j] - cy[k]) ** 2
                    acc[i, j] += 4.0 * tau / (tau + r2) ** 2
        return acc

    @njit(cache=True)
    def _log_factors_numba(x, y, cx, cy, tau):
        prod = np.ones((x.size, y.size))
        logsum = np.zeros((x.size, y.size))
        for k in range(cx.size):
            for i in range(x.size):
                dx2 = (x[i] - cx[k]) ** 2
                for j in range(y.size):
                    r2 = dx2 + (y[j] - cy[k]) ** 2
                    fac = r2 / (r2 + tau)
                    prod[i, j] *= fac
                    if fac > 0.0:
                        logsum[i, j] += np.log(max(fac, 1e-320))
                    else:
                        logsum[i, j] += -750.0
        return prod, np.maximum(logsum, -700.0)

    @njit(cache=True)
    def _radial_bin_numba(r, w, edges):
        nb = edges.size - 1
        sums = np.zeros(nb)
        counts = np.zeros(nb, dtype=np.int64)
        for i in range(r.size):
            ri = r[i]
            if ri < edges[0] or ri > edges[nb]:
                continue
            # edges are uniform; direct index, clamped for the right endpoint
            k = int((ri - edges[0]) / (edges[nb] - edges[0]) * nb)
            if k == nb:
                k = nb - 1
            sums[k] += w[i]
            counts[k] += 1
        return sums, counts

    plane_laplacian = _plane_laplacian_numba
    bump_sum = _bump_sum_numba
    log_factors = _log_factors_numba
    radial_bin = _radial_bin_numba
else:
    plane_laplacian = _plane_laplacian_numpy
    bump_sum = _bump_sum_numpy
    log_factors = _log_factors_numpy
    radial_bin = _radial_bin_numpy
