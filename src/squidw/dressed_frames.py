"""Frame transformations behind the corrected controls.

The three-level effective model (basis psi1, phi0, W) is first rotated into
the frame of its instantaneous eigenstates, where the Hamiltonian becomes
H_ad = Omega M_z + theta_dot M_y with spin-1 matrices M. A second rotation
V = exp(i mu M_x) defines the dressed basis. Adding the correction
H_co = g_x M_x + g_z M_z with

    g_x = mu_dot,    g_z = -Omega - theta_dot / tan(mu)

makes the dressed-picture Hamiltonian

    H_V(t) = V (H_ad + H_co) V^dag - i V dV^dag/dt = -(theta_dot / sin mu) M_z

exactly diagonal, so the dressed states are followed without any adiabaticity
requirement. verify_cancellation() measures the off-diagonal residuals on a
grid; the CLI's `verify` command judges them against the bound its check
sets (experiments.CHECKS). dressed_state() is the state the effective model
then follows exactly, the oracle verify judges its integrator against.
"""

from __future__ import annotations

import math

import numpy as np

from .pulse_design import ScheduleParams, correction_gains, schedule_angles
from .state_space import PSI1, basis_state, dark_state, w_state

_INV_SQRT2 = 1.0 / math.sqrt(2.0)

# Spin-1 matrices in the (0, +, -) eigenframe ordering.
M_X = _INV_SQRT2 * np.array(
    [[0, -1, 1], [-1, 0, 0], [1, 0, 0]], dtype=complex
)
M_Y = _INV_SQRT2 * np.array(
    [[0, -1j, -1j], [1j, 0, 0], [1j, 0, 0]], dtype=complex
)
M_Z = np.diag([0.0, 1.0, -1.0]).astype(complex)

SPIN1 = (M_X, M_Y, M_Z)


def _per_time(x) -> np.ndarray:
    """A value, or one value per time, shaped to scale (..., 3, 3) matrices."""
    return np.asarray(x, dtype=float)[..., None, None]


def dressing_matrix(mu) -> np.ndarray:
    """exp(i mu M_x) in closed form; one 3x3 matrix per angle of an array.

    M_x^3 = M_x, so the exponential truncates to
    I + i sin(mu) M_x + (cos(mu) - 1) M_x^2.
    """
    mu = _per_time(mu)
    return np.eye(3, dtype=complex) + 1j * np.sin(mu) * M_X + (np.cos(mu) - 1.0) * (M_X @ M_X)


def dressing_transform(t: float, params: ScheduleParams) -> np.ndarray:
    """V(t) = exp(i mu(t) M_x); identity at both endpoints."""
    _, _, mu, _ = schedule_angles(t, params)
    return dressing_matrix(mu)


def dressed_state(t, params: ScheduleParams) -> np.ndarray:
    """The exact state of the effective model under the corrected controls
    from |psi1>, one row per time of t, shape (len(t), 10):

        cos mu (cos theta |psi1> + sin theta |W>) + i sin mu |phi0>

    (Baksic, Ribeiro and Clerk, PRL 116, 230503 (2016)); |psi1> at t = 0 and
    |W> at T, with |<phi0|psi>|^2 = sin^2 mu on the way.
    """
    theta, _, mu, _ = schedule_angles(t, params)
    theta, mu = theta[..., None], mu[..., None]
    dark = np.cos(theta) * basis_state(PSI1) + np.sin(theta) * w_state()
    return np.cos(mu) * dark + 1j * np.sin(mu) * dark_state()


def dressed_picture_hamiltonian(t, params: ScheduleParams) -> np.ndarray:
    """Hamiltonian seen by the dressed states at time t under the designed
    gains (correction_gains); one 3x3 matrix per time of an array.

    Assembles V (H_ad + H_co) V^dag - i V dV^dag/dt. The derivative term is
    -mu_dot M_x since V commutes with M_x.
    """
    _, theta_dot, mu, mu_dot = schedule_angles(t, params)
    gx, opz = correction_gains(t, params)
    core = _per_time(opz) * M_Z + _per_time(theta_dot) * M_Y + _per_time(gx) * M_X
    v = dressing_matrix(mu)
    return v @ core @ v.conj().swapaxes(-1, -2) - _per_time(mu_dot) * M_X


_CANCELLATION_GRID = 100  # the interior times at which verify_cancellation samples H_V


def verify_cancellation(params: ScheduleParams = ScheduleParams()) -> dict:
    """The worst off-diagonal residuals of H_V over _CANCELLATION_GRID interior times.

    Residuals are normalized by the local drive magnitude Omega_tilde. The
    (0,+) and (0,-) couplings should vanish; the (+,-) element is reported as
    well (it is structurally zero here since neither M_x nor M_y connects the
    +/- pair). The whole grid is evaluated at once.
    """
    ts = np.arange(1, _CANCELLATION_GRID + 1) * params.T / (_CANCELLATION_GRID + 1)
    gx, opz = correction_gains(ts, params)
    hv = dressed_picture_hamiltonian(ts, params)
    scale = np.maximum(np.hypot(gx, opz), 1e-30)
    res_0p, res_0m, res_pm = (np.abs(hv[:, i, j]) / scale for i, j in ((0, 1), (0, 2), (1, 2)))
    return {
        "max_offdiag_0p": float(res_0p.max()),
        "max_offdiag_0m": float(res_0m.max()),
        "max_offdiag_pm": float(res_pm.max()),
    }
