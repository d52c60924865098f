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


def random_state(grid, seed, amplitude=0.5):
    rng = np.random.default_rng(seed)
    return np.stack([bv.random_smooth_field(grid, rng, amplitude),
                     bv.random_smooth_field(grid, rng, amplitude)])


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
