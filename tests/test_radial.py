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

from conftest import nodes, radial_reference

LAM = 4.0


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
    X, Y = nodes(grid)
    r = np.hypot(X, Y)
    near = (r > 0.0) & (r <= 0.5 * R)  # the origin is a node, where v = -inf
    u = (bg.u0 + sol.state[0])[near]
    w = (bg.v0 + sol.state[1] - sol.state[0])[near] - 2.0 * n * np.log(r[near])
    rho = r[near] / R
    diff = max(float(np.max(np.abs(u - np.polynomial.chebyshev.chebval(rho, coeffs_u)))),
               float(np.max(np.abs(w - np.polynomial.chebyshev.chebval(rho, coeffs_w)))))
    assert diff <= 10.0 * math.exp(-math.sqrt(2.0 * LAM) * R)
