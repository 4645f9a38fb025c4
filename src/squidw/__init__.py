"""Shortcut-to-adiabaticity W-state preparation in a cavity-coupled qubit register.

The package is organized around five layers:

* :mod:`squidw.state_space`    collective single-excitation basis and Hamiltonians
* :mod:`squidw.pulse_design`   schedules, corrected controls, fitted and two-tone pulses
* :mod:`squidw.dressed_frames` adiabatic/dressed frame transforms and the
  off-diagonal cancellation check
* :mod:`squidw.dynamics`       fixed-step integrators for closed and open dynamics
* :mod:`squidw.experiments`    reproducible study drivers with CSV/JSON output

``squidw.cli`` wires everything into the ``squidw`` console command.
"""

from .dressed_frames import (
    adiabatic_hamiltonian,
    dressed_picture_hamiltonian,
    dressing_transform,
    verify_cancellation,
)
from .dynamics import (
    ConvergenceError,
    NoiseModel,
    TimeGrid,
    Trajectory,
    fidelity,
    lindblad_operators,
    node_times,
    propagate_lindblad,
    propagate_schrodinger,
)
from .experiments import (
    CODE_VERSION,
    ResultRecord,
    RunSpec,
    SweepSpec,
    build_schedule,
    evaluate_point,
    run_points,
    run_sweep,
)
from .pulse_design import (
    DressedControls,
    GaussianComponent,
    PulseSchedule,
    ScheduleParams,
    correction_gains,
    dressed_pulses,
    gaussian_fit_pulses,
    intermediate_population_bound,
    modified_controls,
    schedule_angles,
    stirap_pulses,
)
from .state_space import (
    DIM,
    GROUND,
    LEVELS,
    CouplingConfig,
    basis_state,
    cavity_hamiltonian,
    dark_state,
    drive_hamiltonian,
    effective_eigenframe,
    effective_hamiltonian,
    excitation_operator,
    w_state,
)

__version__ = CODE_VERSION

__all__ = [
    "DIM",
    "GROUND",
    "LEVELS",
    "CouplingConfig",
    "ConvergenceError",
    "DressedControls",
    "GaussianComponent",
    "NoiseModel",
    "PulseSchedule",
    "ResultRecord",
    "RunSpec",
    "ScheduleParams",
    "SweepSpec",
    "TimeGrid",
    "Trajectory",
    "adiabatic_hamiltonian",
    "basis_state",
    "build_schedule",
    "cavity_hamiltonian",
    "correction_gains",
    "dark_state",
    "dressed_picture_hamiltonian",
    "dressed_pulses",
    "dressing_transform",
    "drive_hamiltonian",
    "evaluate_point",
    "effective_eigenframe",
    "effective_hamiltonian",
    "excitation_operator",
    "fidelity",
    "gaussian_fit_pulses",
    "intermediate_population_bound",
    "lindblad_operators",
    "modified_controls",
    "node_times",
    "propagate_lindblad",
    "propagate_schrodinger",
    "run_points",
    "run_sweep",
    "schedule_angles",
    "stirap_pulses",
    "verify_cancellation",
    "w_state",
    "__version__",
]
