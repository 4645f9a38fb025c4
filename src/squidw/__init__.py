"""Shortcut-to-adiabaticity W-state preparation in a cavity-coupled qubit register.

The package is organized around five layers:

* :mod:`squidw.state_space`    collective single-excitation basis and Hamiltonians
* :mod:`squidw.pulse_design`   schedules, corrected controls, fitted and two-tone pulses
* :mod:`squidw.dressed_frames` dressing transform and the off-diagonal cancellation check
* :mod:`squidw.dynamics`       fixed-step integrators for closed and open dynamics
* :mod:`squidw.experiments`    `RunSpec`, the run builder and the reproduce targets

``squidw.cli`` wires everything into the ``squidw`` console command. The
names below are the ones README documents.
"""

from .dynamics import (
    TimeGrid,
    lindblad_operators,
    node_times,
    propagate_lindblad,
    propagate_schrodinger,
)
from .experiments import CODE_VERSION, RunSpec, run_points

__version__ = CODE_VERSION

__all__ = [
    "RunSpec",
    "TimeGrid",
    "lindblad_operators",
    "node_times",
    "propagate_lindblad",
    "propagate_schrodinger",
    "run_points",
    "__version__",
]
