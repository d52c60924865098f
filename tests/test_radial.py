"""An independent reference: n coincident vortices on the plane, in one dimension.

n vortices at the origin give a radially symmetric solution.  With
u(r) = s0 and e^v = r^{2n} e^w (v = v0 + s1 - s0 of the plane state),
u and w are smooth, even functions of r that solve

    u'' + u'/r = lam (2 e^u - r^{2n} e^w - 1),
    w'' + w'/r = lam (3 r^{2n} e^w - 2 e^u - 1),

with the plane's Dirichlet values u(R) = 0, w(R) = -2n ln R at r = R
(the background v0 vanishes there in float64).  A Chebyshev collocation of
that system shares no code with the package: it checks the plane solver
against an answer it did not compute itself.  The disk of radius R and the
square [-R, R]^2 truncate the far field differently, so the two agree to
the decay scale e^{-sqrt(2 lam) R} of the fields, as the plane and the large
torus do in criterion 14.
"""

import math

import numpy as np
import pytest

import bpsvortex as bv

LAM = 4.0


def chebyshev_matrix(N):
    """Nodes cos(pi j / N), j = 0..N, and the differentiation matrix on [-1, 1].

    Trefethen, Spectral Methods in MATLAB (2000), program cheb.
    """
    x = np.cos(np.pi * np.arange(N + 1) / N)
    c = np.ones(N + 1)
    c[0] = c[-1] = 2.0
    c *= (-1.0) ** np.arange(N + 1)
    d = np.outer(c, 1.0 / c) / (x[:, None] - x[None, :] + np.eye(N + 1))
    d -= np.diag(d.sum(axis=1))
    return x, d


def radial_reference(n, lam, R, N=241):
    """Chebyshev coefficients on [-R, R] of the even extensions of u and w.

    Collocation at the N + 1 Chebyshev points of [-R, R], N odd, for even
    functions: the differentiation matrices are folded onto the (N + 1)/2
    points in (0, R], so r = 0 is no node and regularity there is built in.
    That leaves 120 unknowns per field for N = 241.  The points cluster at
    +-R and the origin's spacing is pi R / N, so the cores need that many:
    at N = 121 the R = 8 reference was 4e-6 off its own N = 401 solution.
    Dense Newton starts from u = 0 and the profile
    e^w = ((1 - e^{-lam r^2}) / r^2)^n of n cores of size 1/sqrt(lam); at
    lam = 4 every step from it shrinks quadratically for n <= 4, R <= 12.  It stops at its roundoff floor: at the first step that
    fails to halve the one before.  Returns ``(coeffs_u, coeffs_w,
    last_step)``, the coefficients for ``np.polynomial.chebyshev.chebval``
    at r / R and the sup norm of the last step.
    """
    x, d = chebyshev_matrix(N)
    d /= R
    half = (N + 1) // 2

    def fold(a):  # f(-r) = f(r): the column of -r_j adds to that of r_j
        return a[:half, :half] + a[:half, :N - half:-1]

    r = R * x[:half]
    lap = fold(d @ d) + fold(d) / r[:, None]
    lap_in = lap[1:, 1:]
    r2n = r ** (2 * n)
    u = np.zeros(half)
    w = n * np.log(-np.expm1(-lam * r * r) / (r * r))
    w[0] = -2.0 * n * math.log(R)  # r_0 = R: the Dirichlet value
    previous = math.inf
    for _ in range(50):
        eu, ew = np.exp(u[1:]), r2n[1:] * np.exp(w[1:])
        residual = np.concatenate([lap[1:] @ u - lam * (2.0 * eu - ew - 1.0),
                                   lap[1:] @ w - lam * (3.0 * ew - 2.0 * eu - 1.0)])
        jacobian = np.block([[lap_in - np.diag(2.0 * lam * eu), np.diag(lam * ew)],
                             [np.diag(2.0 * lam * eu), lap_in - np.diag(3.0 * lam * ew)]])
        step = np.linalg.solve(jacobian, -residual)
        u[1:] += step[:half - 1]
        w[1:] += step[half - 1:]
        size = float(np.max(np.abs(step)))
        if size > 0.5 * previous:
            break
        previous = size
    else:
        raise RuntimeError("radial Newton did not reach its roundoff floor in 50 steps")
    # interpolation coefficients from the values at all N + 1 points
    k = np.arange(N + 1)
    weights = np.ones(N + 1)
    weights[0] = weights[-1] = 0.5
    basis = np.cos(np.pi * np.outer(k, k) / N) * weights

    def coefficients(f):
        a = (2.0 / N) * basis @ np.concatenate([f, f[::-1]])
        a[0] /= 2.0
        a[-1] /= 2.0
        return a

    return coefficients(u), coefficients(w), size


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("R", [4, 6])
def test_coincident_vortices_match_the_radial_reference(n, R):
    coeffs_u, coeffs_w, last_step = radial_reference(n, LAM, float(R))
    assert last_step <= 1e-11  # the floor it stopped at is roundoff
    grid = bv.PlaneGrid(float(R), 16 * R + 1)
    params = bv.PhysicalParams(lam=LAM)
    cfg = bv.VortexConfig(phi_zeros=((0.0, 0.0),) * n)
    bg = bv.build_background(cfg, grid, params)
    sol = bv.solve("plane", "base", cfg, grid, params, background=bg)
    assert sol.converged
    X, Y = grid.nodes()
    r = np.hypot(X, Y)
    near = (r > 0.0) & (r <= 0.5 * R)  # the origin is a node, where v = -inf
    u = (bg.u0 + sol.state[0])[near]
    w = (bg.v0 + sol.state[1] - sol.state[0])[near] - 2.0 * n * np.log(r[near])
    rho = r[near] / R
    diff = max(float(np.max(np.abs(u - np.polynomial.chebyshev.chebval(rho, coeffs_u)))),
               float(np.max(np.abs(w - np.polynomial.chebyshev.chebval(rho, coeffs_w)))))
    assert diff <= 10.0 * math.exp(-math.sqrt(2.0 * LAM) * R)
