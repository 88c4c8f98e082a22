"""Runs shared by more than one test module."""

import numpy as np
import pytest

from solidyn.grids import Field, Grid
from solidyn.pair import PairState, product_pair, run_pair
from solidyn.potentials import PhysicalParams, Potentials
from solidyn.soliton import (GaussonParams, SolitonState, gausson_init,
                             run_coupled)


def single_and_product_runs(n, length, b, psi1, start, node, dt, steps,
                            potential):
    """The 1D coupled run of pilot `psi1` (samples on `Grid(n, length)`)
    and soliton start `start`, and particle 1's product pair run that must
    have its bits: (single, run, z2_node).

    The partner is uniform and pinned on grid node `node`, and its rest
    energy is absorbed into a flat (pure-gauge) potential, so every float
    op along the particle-1 path, under `potential`, coincides with
    `single`.  Both runs start the guidance point at the soliton's
    computed center and take `steps` steps of `dt`.
    """
    params = PhysicalParams(omega0=1.0, charge=1.0)
    g1 = Grid(n, length)
    g2 = Grid((n, n), (length, length))

    def soliton(center):
        u = gausson_init(GaussonParams(b, 1.0, center=(center,)), g1, 1.0)
        return SolitonState(u, params, b, 1.0, coupling_mode="dbb")

    single = run_coupled(Field(g1, psi1.copy()), soliton(start), params,
                         potential, dt=dt, steps=steps)
    gauge = Potentials(1, scalar=lambda t, c: -1.0 + 0.0 * c[0],
                       scalar_gradient=lambda t, c: (0.0,))
    pair = product_pair(psi1, np.ones(n, complex), g2, (1.0, 1.0), 1.0,
                        (potential, gauge))
    z2_node = float(g2.axes[1][node])
    u1 = soliton(start)
    state = PairState(u1=u1, u2=soliton(z2_node),
                      z=[float(u1.center[0]), z2_node])
    run, = run_pair(pair, [state], dt=dt, steps=steps)
    return single, run, z2_node


@pytest.fixture(scope="session")
def product_pair_run():
    """`single_and_product_runs` of a free packet of width 1 at the origin
    and the start -0.6745 (where the computed center is the start itself):
    300 steps of dt = 1e-3 on N = 256 (256^2 for the pair), partner on
    node 160 (x2 = 2.5)."""
    x = Grid(256, 20.0).axes[0]
    with pytest.warns(UserWarning, match="not well separated"):
        return single_and_product_runs(
            256, 20.0, 25.0, np.exp(-x**2 / 4).astype(complex), -0.6745, 160,
            1e-3, 300, Potentials.free(1))
