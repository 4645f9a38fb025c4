"""Collective-basis construction checked against a full tensor-product oracle.

The ten-state model is a restriction of the 162-dimensional product space
(four three-level systems times a two-level cavity mode). Every Hamiltonian
and jump operator built on the small space must agree with the full-space
operator compressed through the embedding isometry, and the small space must
be dynamically closed.
"""

import math

import numpy as np
import pytest

from squidw.dynamics import NoiseModel, lindblad_operators
from squidw.state_space import (
    DIM,
    GROUND,
    LEVELS,
    PSI1,
    PSI2,
    PSI3,
    PSI4,
    PSI5,
    PSI6,
    PSI7,
    PSI8,
    PSI9,
    CouplingConfig,
    basis_state,
    cavity_hamiltonian,
    dark_state,
    drive_hamiltonian,
    effective_eigenframe,
    effective_hamiltonian,
    w_state,
)

# Total-excitation counter: 1 on the nine excited states, 0 on GROUND.
EXCITATIONS = np.diag([1.0] * 9 + [0.0])

# ---------------------------------------------------------------------------
# full-space oracle

_QUTRIT = {"0": 0, "1": 1, "e": 2}
_NQ = 4
_FULL = 3**_NQ * 2  # 162


def _full_index(labels) -> int:
    idx = 0
    for k in range(_NQ):
        idx = idx * 3 + _QUTRIT[labels[k]]
    return idx * 2 + labels[4]


def _embedding() -> np.ndarray:
    e = np.zeros((_FULL, DIM))
    for j, labels in enumerate(LEVELS):
        e[_full_index(labels), j] = 1.0
    return e


def _qubit_op(k: int, op3: np.ndarray) -> np.ndarray:
    mats = [np.eye(3, dtype=complex)] * _NQ + [np.eye(2, dtype=complex)]
    mats[k] = op3
    out = mats[0]
    for m in mats[1:]:
        out = np.kron(out, m)
    return out


def _cavity_op(op2: np.ndarray) -> np.ndarray:
    out = np.eye(3, dtype=complex)
    for _ in range(_NQ - 1):
        out = np.kron(out, np.eye(3, dtype=complex))
    return np.kron(out, op2)


def _lower(frm: str, to: str) -> np.ndarray:
    m = np.zeros((3, 3), dtype=complex)
    m[_QUTRIT[to], _QUTRIT[frm]] = 1.0
    return m


_A_PHOTON = np.array([[0, 1], [0, 0]], dtype=complex)  # |0ph><1ph|


def _full_cavity_hamiltonian(g: float) -> np.ndarray:
    h = np.zeros((_FULL, _FULL), dtype=complex)
    couplings = (g, g, g, math.sqrt(3.0) * g)
    for k in range(_NQ):
        term = couplings[k] * (_qubit_op(k, _lower("0", "e")) @ _cavity_op(_A_PHOTON))
        h += term + term.conj().T
    return h


def _full_drive_hamiltonian(omega) -> np.ndarray:
    h = np.zeros((_FULL, _FULL), dtype=complex)
    for k in range(_NQ):
        term = omega[k] * _qubit_op(k, _lower("1", "e"))
        h += term + term.conj().T
    return h


def _full_lindblad_operators(noise: NoiseModel) -> list:
    ops = []
    sg = math.sqrt(noise.gamma)
    for k in range(_NQ):
        ops.append(sg * _qubit_op(k, _lower("e", "1")))
    for k in range(_NQ):
        ops.append(sg * _qubit_op(k, _lower("e", "0")))
    sp = math.sqrt(noise.gamma_phi / 2.0)
    for level in ("1", "0"):
        for k in range(_NQ):
            proj = np.diag([0.0, 0.0, 1.0]) - np.diag(
                [1.0 if lab == level else 0.0 for lab in ("0", "1", "e")]
            )
            ops.append(sp * _qubit_op(k, proj.astype(complex)))
    ops.append(math.sqrt(noise.kappa) * _cavity_op(_A_PHOTON))
    return ops


E = _embedding()
PERP = np.eye(_FULL) - E @ E.T


def test_embedding_is_isometry():
    assert np.array_equal(E.T @ E, np.eye(DIM))
    assert len({_full_index(lv) for lv in LEVELS}) == DIM


@pytest.mark.parametrize("g", [1.0, 7.3, 30.0])
def test_cavity_hamiltonian_matches_full_space(g):
    h10 = cavity_hamiltonian(CouplingConfig(g=g))
    h_full = _full_cavity_hamiltonian(g)
    assert np.max(np.abs(h_full @ E - E @ h10)) < 1e-12
    # the ten-state space is invariant: nothing leaks out
    assert np.max(np.abs(PERP @ h_full @ E)) < 1e-12


def test_drive_hamiltonian_matches_full_space():
    rng = np.random.default_rng(7)
    for _ in range(5):
        omega = rng.normal(size=4) * 10.0
        h10 = drive_hamiltonian(omega)
        h_full = _full_drive_hamiltonian(omega)
        assert np.max(np.abs(h_full @ E - E @ h10)) < 1e-12
        assert np.max(np.abs(PERP @ h_full @ E)) < 1e-12


def test_lindblad_operators_match_full_space():
    noise = NoiseModel(kappa=1.1, gamma=0.3, gamma_phi=0.7)
    small = lindblad_operators(noise)
    full = _full_lindblad_operators(noise)
    assert len(small) == len(full) == 17
    for l10, lf in zip(small, full):
        assert np.max(np.abs(lf @ E - E @ l10)) < 1e-12


def test_excitation_operator_matches_full_counter():
    count = np.zeros((_FULL, _FULL), dtype=complex)
    for k in range(_NQ):
        count += _qubit_op(k, np.diag([0.0, 1.0, 1.0]).astype(complex))
    count += _cavity_op(np.diag([0.0, 1.0]).astype(complex))
    assert np.max(np.abs(E.T @ count @ E - EXCITATIONS)) < 1e-12
    h = _full_cavity_hamiltonian(4.2) + _full_drive_hamiltonian([1.0, 2.0, 3.0, 4.0])
    assert np.max(np.abs(count @ h - h @ count)) == 0.0


def test_excitation_conserved_by_model_hamiltonians():
    n_op = EXCITATIONS
    rng = np.random.default_rng(3)
    for _ in range(20):
        h = cavity_hamiltonian(CouplingConfig(g=rng.uniform(1, 50))) + drive_hamiltonian(
            rng.normal(size=4) * 8
        )
        assert np.max(np.abs(n_op @ h - h @ n_op)) == 0.0


# ---------------------------------------------------------------------------
# algebraic structure on the small space


def test_cavity_block_spectrum():
    g = 11.0
    h = cavity_hamiltonian(CouplingConfig(g=g))
    block = h[PSI2 : PSI6 + 1, PSI2 : PSI6 + 1]
    eigs = np.sort(np.linalg.eigvalsh(block))
    expected = np.sort([-math.sqrt(6) * g, 0.0, 0.0, 0.0, math.sqrt(6) * g])
    assert np.max(np.abs(eigs - expected)) < 1e-12 * g
    # rows and columns outside the coupled block are all zero
    mask = np.ones(DIM, dtype=bool)
    mask[PSI2 : PSI6 + 1] = False
    assert np.max(np.abs(h[mask])) == 0.0
    assert np.max(np.abs(h[:, mask])) == 0.0


def test_dark_state_is_cavity_null_vector():
    phi0 = dark_state()
    h = cavity_hamiltonian(CouplingConfig(g=17.0))
    assert abs(np.linalg.norm(phi0) - 1.0) < 1e-15
    assert np.max(np.abs(h @ phi0)) < 1e-14
    assert phi0[PSI3] == 0.0  # no photon component
    assert phi0[PSI2].real < 0 < phi0[PSI4].real


def test_bright_partner_state():
    # (psi2 + sqrt(2) psi3 + varsigma)/2 is the +sqrt(6) g eigenvector
    g = 5.0
    h = cavity_hamiltonian(CouplingConfig(g=g))
    phi1 = np.zeros(DIM, dtype=complex)
    phi1[PSI2] = 0.5
    phi1[PSI3] = math.sqrt(2.0) / 2.0
    phi1[[PSI4, PSI5, PSI6]] = 0.5 / math.sqrt(3.0)
    assert abs(np.linalg.norm(phi1) - 1.0) < 1e-15
    assert np.max(np.abs(h @ phi1 - math.sqrt(6.0) * g * phi1)) < 1e-12
    assert abs(np.vdot(dark_state(), phi1)) < 1e-15


def test_w_state_components():
    w = w_state()
    assert abs(np.linalg.norm(w) - 1.0) < 1e-15
    assert np.allclose(w[[PSI7, PSI8, PSI9]], 1.0 / math.sqrt(3.0))
    assert np.max(np.abs(np.delete(w, [PSI7, PSI8, PSI9]))) == 0.0


def test_effective_hamiltonian_action():
    omega_a, omega_b = 3.7, -1.9
    h = effective_hamiltonian(omega_a, omega_b)
    assert np.max(np.abs(h - h.conj().T)) == 0.0
    phi0 = dark_state()
    assert np.max(np.abs(h @ phi0 - (omega_a * w_state() - omega_b * basis_state(PSI1)))) < 1e-14
    assert np.max(np.abs(h @ basis_state(PSI3))) == 0.0  # photon state untouched


def test_effective_eigenframe_diagonalizes():
    rng = np.random.default_rng(5)
    for _ in range(20):
        omega_a, omega_b = rng.normal(size=2) * 6
        omega = math.hypot(omega_a, omega_b)
        theta = math.atan2(omega_b, omega_a)
        zero, plus, minus = effective_eigenframe(theta)
        h = effective_hamiltonian(omega_a, omega_b)
        assert np.max(np.abs(h @ zero)) < 1e-12 * max(omega, 1.0)
        assert np.max(np.abs(h @ plus - omega * plus)) < 1e-12 * max(omega, 1.0)
        assert np.max(np.abs(h @ minus + omega * minus)) < 1e-12 * max(omega, 1.0)
        frame = np.column_stack([zero, plus, minus])
        assert np.max(np.abs(frame.conj().T @ frame - np.eye(3))) < 1e-14


def test_eigenframe_endpoints_rotate_initial_into_target():
    zero0, _, _ = effective_eigenframe(0.0)
    zero1, _, _ = effective_eigenframe(math.pi / 2.0)
    assert np.max(np.abs(zero0 - basis_state(PSI1))) < 1e-15
    assert np.max(np.abs(zero1 - w_state())) < 1e-15


def test_validation_rejects_bad_inputs():
    with pytest.raises(ValueError):
        CouplingConfig(g=0.0)
    with pytest.raises(ValueError):
        CouplingConfig(g=-3.0)
    with pytest.raises(ValueError):
        CouplingConfig(g=1.0, T=0.0)
    with pytest.raises(ValueError):
        drive_hamiltonian([1.0, 2.0, 3.0])
    with pytest.raises(ValueError):
        drive_hamiltonian([1.0, 2.0, np.inf, 4.0])


def test_coupling_ratio():
    cfg = CouplingConfig(g=12.0)
    assert cfg.g4 == pytest.approx(12.0 * math.sqrt(3.0), rel=1e-15)
    h = cavity_hamiltonian(cfg)
    assert h[PSI2, PSI3].real == pytest.approx(cfg.g4)
    assert h[PSI4, PSI3].real == pytest.approx(12.0)
