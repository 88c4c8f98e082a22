"""Workloads: which shipped configs each one runs, and how shortened.

Each config is shortened to a fixed ``run.t_final`` that still passes every
summary check.  The three workloads split the costs that trade off in
solidyn: FFT-bound wave steps, interpolation-bound trajectories, and
per-call Python overhead on small grids.  The equivariance ensemble is a
part of ``small_grid_1d`` rather than a workload of its own, so that three
workloads share the run time and each runs longer.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Part:
    """One ``solidyn run`` of a shipped config at a shortened length."""

    config: str               # file name under configs/
    t_final: float
    evolutions: int = 1       # solver evolutions the scenario performs
    snapshots: int = 0        # --snapshots EVERY_K (0: none)


@dataclass(frozen=True)
class Workload:
    parts: tuple
    # step function -> FFT-floor grid it runs on, for the floor table
    floors: dict
    # modules expected to hold the largest summed self time
    expected_top: tuple


WORKLOADS = {
    # Pilot step, Madelung extraction, coupled nls_step and one-point RK4
    # each step: the paper's tracking run.  Below t_final 4 the
    # classical_reference_gap_cells check fails (0.71 < 3 at 2.0).
    "coupled_1d": Workload(
        parts=(Part("double_slit_dbb.yaml", 4.0),),
        floors={"schrodinger.ls_step": "1d_2048",
                "soliton.nls_step": "1d_2048"},
        expected_top=("grids", "trajectories")),
    # 2-D FFT and full-grid exp bound; the only user of the pair module
    # (two entangled and two product runs).
    "pair_2d": Workload(
        parts=(Part("entangled_pair.yaml", 0.4, evolutions=4),),
        floors={"pair.ls2_step": "2d_256x256",
                "soliton.nls_step": "1d_256"},
        expected_top=("stepping", "pair")),
    # Small grids where per-call overhead dominates: classical-mode soliton
    # with SLDN1 snapshots, Klein-Gordon leapfrog, then 2000 trajectories
    # over a fully stored Madelung history (interpolation and memory bound,
    # no soliton; the largest peak RSS of any workload).
    "small_grid_1d": Workload(
        parts=(Part("harmonic_trap.yaml", 16.5, snapshots=1000),
               Part("kg_tachyon.yaml", 10.0),
               Part("equivariance.yaml", 2.0)),
        floors={"soliton.nls_step": "1d_256",
                "kleingordon.lkg_step": "1d_512",
                "schrodinger.ls_step": "1d_512"},
        expected_top=("soliton", "kleingordon")),
}

# Traced layer functions: <module>.<function> or <module>.<Class>.<method>.
LAYERS = (
    "stepping.strang_step", "stepping.kinetic_multiplier",
    "schrodinger.ls_step", "schrodinger.madelung_extract",
    "schrodinger.evolve_schrodinger",
    "grids.Grid.interpolate", "trajectories.guided_velocity",
    "trajectories.advance_positions", "trajectories.FlowHistory.check",
    "trajectories.FlowHistory.proximity_flags",
    "trajectories.FlowHistory.append", "trajectories.integrate_flow",
    "grids.Grid.derivative", "grids.Grid.second_derivative",
    "grids.Grid.integrate", "grids.Grid.boundary_mass_fraction",
    "pair.pair_step", "pair.ls2_step", "pair.pair_velocity_fields",
    "pair.conditional_q", "pair.run_pair",
    "soliton.nls_step", "soliton.soliton_center",
    "soliton.phase_harmony_residual", "soliton.run_classical",
    "soliton.run_coupled",
    "kleingordon.lkg_step", "kleingordon.kg_madelung",
    "kleingordon.evolve_kg", "kleingordon.kg_bohm_trajectory",
    # ehrenfest_report and cancellation_integrals are left out: only the
    # uniform_field and free_gausson scenarios call them, and neither runs.
    "diagnostics.conservation_report", "diagnostics.equivariance_distance",
    "snapshots.write_csv", "snapshots.write_snapshot",
    "scenarios.parse_config", "scenarios.run_scenario",
)

FFT_FLOOR_GRIDS = {
    "1d_256": (256,), "1d_512": (512,), "1d_2048": (2048,),
    "2d_256x256": (256, 256),
}
