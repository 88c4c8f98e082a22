"""Runs shared by more than one test module."""

import numpy as np
import pytest

from solidyn.grids import Field, Grid
from solidyn.pair import PairState, product_pair, run_pair
from solidyn.potentials import PhysicalParams, Potentials
from solidyn.soliton import (GaussonParams, SolitonState, gausson_init,
                             run_coupled)


@pytest.fixture(scope="session")
def product_pair_run():
    """The product pair run whose particle-1 path must have the bits of the
    plain 1D coupled run: (single, run, z2_node).

    The partner is uniform and pinned on a grid node, and its rest energy
    is absorbed into a flat (pure-gauge) potential, so every float op along
    the particle-1 path coincides with `single`, the 1D coupled run from
    the same start.  Both runs take 300 steps of dt = 1e-3 on N = 256
    (256^2 for the pair).
    """
    params = PhysicalParams(omega0=1.0, charge=1.0)
    g1 = Grid(256, 20.0)
    g2 = Grid((256, 256), (20.0, 20.0))
    x = g1.axes[0]
    psi1 = np.exp(-x**2 / 4).astype(complex)
    b, start = 25.0, -0.6745

    def soliton(center):
        u = gausson_init(GaussonParams(b, 1.0, center=(center,)), g1, 1.0)
        return SolitonState(u, params, b, 1.0, coupling_mode="dbb")

    with pytest.warns(UserWarning, match="not well separated"):
        single = run_coupled(Field(g1, psi1.copy()), soliton(start), params,
                             Potentials.free(1), dt=1e-3, steps=300)
    gauge = Potentials(1, scalar=lambda t, c: -1.0 + 0.0 * c[0],
                       scalar_gradient=lambda t, c: (0.0,))
    pair = product_pair(psi1, np.ones(256, complex), g2, (1.0, 1.0), 1.0,
                        (Potentials.free(1), gauge))
    z2_node = float(g2.axes[1][160])
    state = PairState(u1=soliton(start), u2=soliton(2.5), z=[start, z2_node])
    run, = run_pair(pair, [state], dt=1e-3, steps=300)
    return single, run, z2_node
