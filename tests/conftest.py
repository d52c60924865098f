import math
from collections import Counter

import numpy as np
import pytest

import bpsvortex as bv
from bpsvortex.energy import EnergyModel, _exp_pair

L20 = math.sqrt(20.0)


@pytest.fixture(scope="session")
def torus_small():
    return bv.TorusGrid(2.0, 3.0, 32, 48)


@pytest.fixture(scope="session")
def torus_32():
    return bv.TorusGrid(L20, L20, 32, 32)


@pytest.fixture(scope="session")
def plane_32():
    return bv.PlaneGrid(6.0, 32)


@pytest.fixture(scope="session")
def torus_criterion_setup():
    """lambda=1, |Omega|=20, n=2 on 128^2: the workhorse configuration."""
    grid = bv.TorusGrid(L20, L20, 128, 128)
    params = bv.PhysicalParams(lam=1.0)
    cfg = bv.VortexConfig(phi_zeros=((0.3 * L20, 0.4 * L20), (0.7 * L20, 0.6 * L20)))
    bg = bv.build_background(cfg, grid, params)
    return grid, params, cfg, bg


@pytest.fixture(scope="session")
def torus_criterion_solution(torus_criterion_setup):
    # from an explicit zero start, so that the whole cold Newton trajectory
    # runs on this grid (a solve without init starts on its coarse level)
    grid, params, cfg, bg = torus_criterion_setup
    sol = bv.solve("torus", "base", cfg, grid, params, background=bg,
                   init=np.zeros((2,) + grid.shape))
    assert sol.converged
    return sol


def nodes(grid):
    """The node coordinates (X, Y) of ``grid``, each of the grid's shape."""
    x, y = grid.axes()
    return np.meshgrid(x, y, indexing="ij")


def random_smooth_field(grid, rng: np.random.Generator, amplitude: float = 0.5) -> np.ndarray:
    """Smooth random field of sup norm ``amplitude`` (property tests, probe initials).

    White noise taken to the grid's Laplacian eigenbasis, damped there by
    exp(-K / kc^2) with K = ``laplacian_eigenvalues()`` and kc = 2 pi * 6 / L
    (six waves across the shortest side L of the domain), and brought back.
    Plane fields are sums of sine modes, so they vanish on the boundary ring
    (Dirichlet states).
    """
    side = min(grid.Lx, grid.Ly) if isinstance(grid, bv.TorusGrid) else 2.0 * grid.R
    kc2 = (6.0 * 2.0 * np.pi / side) ** 2
    coeffs = grid.modal_forward(rng.standard_normal(grid.shape))
    coeffs *= np.exp(-grid.laplacian_eigenvalues() / kc2)
    field = grid.modal_inverse(coeffs, out=np.empty(grid.shape))
    sup = np.max(np.abs(field))
    if sup > 0:
        field *= amplitude / sup
    return field


def random_state(grid, seed, amplitude=0.5):
    rng = np.random.default_rng(seed)
    return np.stack([random_smooth_field(grid, rng, amplitude),
                     random_smooth_field(grid, rng, amplitude)])


# sup norm of each random initial field of the uniqueness probe: an O(1)
# start away from the solution, small enough to stay far from overflow
PROBE_AMPLITUDE = 0.5


def uniqueness_probe(bg, params, seeds: int, settings=None) -> float:
    """Largest pairwise sup-distance between solves from random states (seeds 0, 1, ...)."""
    model = EnergyModel(bg, params)
    states = []
    for k in range(seeds):
        rng = np.random.default_rng(k)
        init = np.stack([random_smooth_field(bg.grid, rng, PROBE_AMPLITUDE),
                         random_smooth_field(bg.grid, rng, PROBE_AMPLITUDE)])
        sol = bv.minimize(model, settings or bv.SolverSettings(), init=init)
        if not sol.converged:
            raise RuntimeError(f"probe solve {k} failed: {sol.message}")
        states.append(sol.state)
    spread = 0.0
    for i in range(len(states)):
        for j in range(i + 1, len(states)):
            spread = max(spread, float(np.max(np.abs(states[i] - states[j]))))
    return spread


def hessian_apply(model, state, direction):
    """The Hessian of ``model``'s energy at ``state`` times ``direction``, from the formula.

    The reference that ``EnergyModel.hessian_operator`` is checked against.
    """
    grid, lam = model.grid, model.params.lam
    eU, eV = _exp_pair(state, model.bg)
    d0, d1 = direction[0], direction[1]
    h0 = -grid.laplacian(d0) + (2.0 * lam * eU + lam * eV) * d0 - lam * eV * d1
    h1 = -0.5 * grid.laplacian(d1) + lam * eV * (d1 - d0)
    return np.stack([grid.zero_boundary(h0), grid.zero_boundary(h1)])


def count_hessian_applies(monkeypatch):
    """Count every Hessian apply of every EnergyModel; returns a one-item list."""
    applies = [0]
    make_operator = EnergyModel.hessian_operator

    def counting_operator(self, lin):
        apply_h = make_operator(self, lin)

        def counted(d):
            applies[0] += 1
            return apply_h(d)

        return counted

    monkeypatch.setattr(EnergyModel, "hessian_operator", counting_operator)
    return applies


@pytest.fixture
def count_transforms(monkeypatch):
    """Count the modal transforms of both grids, per field; returns a ``Counter``.

    Keys are ``("forward" | "inverse", grid.shape)``: each call of
    ``modal_forward`` or ``modal_inverse``, whoever makes it, adds the
    number of fields it transforms, the product of the leading axes of its
    input (1 for one field, 2 for a stacked pair).
    """
    counts = Counter()
    for cls in (bv.TorusGrid, bv.PlaneGrid):
        for kind in ("forward", "inverse"):
            def counted(self, data, *args, _fn=getattr(cls, "modal_" + kind), _kind=kind,
                        **kwargs):
                counts[_kind, self.shape] += math.prod(data.shape[:-2])
                return _fn(self, data, *args, **kwargs)

            monkeypatch.setattr(cls, "modal_" + kind, counted)
    return counts


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

    u and w are the radial profiles of ``n`` coincident vortices at the
    origin of the plane, u = s0 and e^v = r^{2n} e^w, with the plane's
    Dirichlet values at r = R (the system is stated in tests/test_radial.py).

    Collocation at the N + 1 Chebyshev points of [-R, R], N odd, for even
    functions: the differentiation matrices are folded onto the (N + 1)/2
    points in (0, R], so r = 0 is no node and regularity there is built in.
    That leaves 120 unknowns per field for N = 241.  The points cluster at
    +-R and the origin's spacing is pi R / N, so the cores need that many:
    at N = 121 the R = 8 reference was 4e-6 off its own N = 401 solution.
    Dense Newton starts from u = 0 and the profile
    e^w = ((1 - e^{-lam r^2}) / r^2)^n of n cores of size 1/sqrt(lam); at
    lam = 4 every step from it shrinks quadratically for n <= 4, R <= 12.
    It stops at its roundoff floor: at the first step that fails to halve
    the one before.  Returns ``(coeffs_u, coeffs_w,
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
