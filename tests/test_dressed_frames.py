"""Frame algebra: spin-1 structure, the dressing rotation, and cancellation."""

import math

import numpy as np
import pytest
from scipy.linalg import expm

from squidw.dressed_frames import (
    M_X,
    M_Y,
    M_Z,
    SPIN1,
    dressed_picture_hamiltonian,
    dressing_matrix,
    dressing_transform,
    verify_cancellation,
)
from squidw.pulse_design import ScheduleParams, correction_gains, schedule_angles
from squidw.state_space import effective_eigenframe, effective_hamiltonian


def _frame(theta):
    """10x3 isometry whose columns are the eigenframe states (0, +, -)."""
    return np.column_stack(effective_eigenframe(theta))


def test_spin1_commutators():
    assert np.max(np.abs(M_X @ M_Y - M_Y @ M_X - 1j * M_Z)) < 1e-15
    assert np.max(np.abs(M_Y @ M_Z - M_Z @ M_Y - 1j * M_X)) < 1e-15
    assert np.max(np.abs(M_Z @ M_X - M_X @ M_Z - 1j * M_Y)) < 1e-15


def test_spin1_structure():
    for m in SPIN1:
        assert np.max(np.abs(m - m.conj().T)) == 0.0
        eigs = np.sort(np.linalg.eigvalsh(m))
        assert np.max(np.abs(eigs - np.array([-1.0, 0.0, 1.0]))) < 1e-14
    # M_x^3 = M_x is what makes the closed-form exponential work
    assert np.max(np.abs(M_X @ M_X @ M_X - M_X)) < 1e-15


@pytest.mark.parametrize("mu", [-1.2, -0.3, 0.0, 0.17, 0.5, 1.4])
def test_dressing_matrix_is_matrix_exponential(mu):
    v = dressing_matrix(mu)
    assert np.max(np.abs(v - expm(1j * mu * M_X))) < 1e-12
    # unitarity
    assert np.max(np.abs(v @ v.conj().T - np.eye(3))) < 1e-14
    # series oracle
    series = np.eye(3, dtype=complex)
    term = np.eye(3, dtype=complex)
    for n in range(1, 30):
        term = term @ (1j * mu * M_X) / n
        series = series + term
    assert np.max(np.abs(v - series)) < 1e-12


def test_dressing_transform_endpoints_are_identity():
    p = ScheduleParams(A=0.5)
    for t in (0.0, p.T):
        assert np.max(np.abs(dressing_transform(t, p) - np.eye(3))) < 1e-10
    # mid-protocol it is a genuine rotation
    assert np.max(np.abs(dressing_transform(0.5, p) - np.eye(3))) > 0.1


def test_frame_isometry_orthonormal():
    for theta in (0.0, 0.3, math.pi / 4, 1.2, math.pi / 2):
        u = _frame(theta)
        assert u.shape == (10, 3)
        assert np.max(np.abs(u.conj().T @ u - np.eye(3))) < 1e-14


def test_eigenframe_transform_reproduces_adiabatic_hamiltonian():
    """U^dag H_eff U - i U^dag dU/dt must equal Omega M_z + theta_dot M_y."""
    p = ScheduleParams()
    rng = np.random.default_rng(23)
    for t in rng.uniform(0.05, 0.95, size=20):
        theta, theta_dot, _, _ = schedule_angles(t, p)
        omega = 5.0 + 2.0 * math.sin(3.0 * t)  # any Omega(t)
        h_eff = effective_hamiltonian(omega * math.cos(theta), omega * math.sin(theta))
        u = _frame(theta)
        dt = 1e-6
        tp, tm = schedule_angles(t + dt, p)[0], schedule_angles(t - dt, p)[0]
        du = (_frame(tp) - _frame(tm)) / (2.0 * dt)
        transformed = u.conj().T @ h_eff @ u - 1j * (u.conj().T @ du)
        expected = omega * M_Z + theta_dot * M_Y
        assert np.max(np.abs(transformed - expected)) < 1e-5


def test_adiabatic_hamiltonian_spectrum():
    """Omega M_z + theta_dot M_y has the eigenvalues 0 and +-hypot(Omega, theta_dot)."""
    p = ScheduleParams()
    for t in (0.2, 0.5, 0.8):
        _, theta_dot, _, _ = schedule_angles(t, p)
        h = 7.0 * M_Z + theta_dot * M_Y
        eigs = np.sort(np.linalg.eigvalsh(h))
        gap = math.hypot(7.0, theta_dot)
        assert np.max(np.abs(eigs - np.array([-gap, 0.0, gap]))) < 1e-12


def test_dressed_picture_hamiltonian_is_diagonal():
    """With the designed gains the dressed Hamiltonian is -(theta_dot/sin mu) M_z."""
    p = ScheduleParams(A=0.5)
    ts = (0.1, 0.25, 0.5, 0.66, 0.9)
    # one 3x3 matrix per time of an array, each the scalar form's
    at_once = dressed_picture_hamiltonian(np.array(ts), p)
    for t, hv_array in zip(ts, at_once):
        _, theta_dot, mu, _ = schedule_angles(t, p)
        hv = dressed_picture_hamiltonian(t, p)
        expected = -(theta_dot / math.sin(mu)) * M_Z
        assert np.max(np.abs(hv - expected)) < 1e-10 * max(abs(theta_dot / math.sin(mu)), 1.0)
        assert np.max(np.abs(hv_array - hv)) < 1e-13


def test_verify_cancellation_passes_for_designed_gains():
    for a in (0.3, 0.5):
        report = verify_cancellation(ScheduleParams(A=a), n_grid=100)
        assert report["passed"]
        assert report["max_offdiag_0p"] < 1e-6
        assert report["max_offdiag_0m"] < 1e-6
        # the +/- coupling never appears in the first place
        assert report["max_offdiag_pm"] < 1e-12
        assert report["n_grid"] == 100
        assert 0.0 < report["worst_time"] < 1.0


def test_verify_cancellation_detects_sabotage():
    report = verify_cancellation(ScheduleParams(A=0.5), n_grid=100, zero_gx=True)
    assert not report["passed"]
    assert max(report["max_offdiag_0p"], report["max_offdiag_0m"]) > 1e-2


def test_gain_overrides_break_diagonality():
    p = ScheduleParams()
    t = 0.3
    designed = dressed_picture_hamiltonian(t, p)
    gx, opz = correction_gains(t, p)
    off = dressed_picture_hamiltonian(t, p, g_x=gx * 0.5)
    assert np.max(np.abs(designed - np.diag(np.diag(designed)))) < 1e-12
    assert np.max(np.abs(off - np.diag(np.diag(off)))) > 1e-3
    # explicit designed values reproduce the default path
    same = dressed_picture_hamiltonian(t, p, g_x=gx, omega_plus_gz=opz)
    assert np.max(np.abs(same - designed)) == 0.0
