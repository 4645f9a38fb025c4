"""Integrators checked against matrix exponentials, a superoperator oracle,
and analytic decay laws."""

import math
import os
import subprocess
import sys

import numpy as np
import pytest
import reference_kernels
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm
from single_point import one_point

import squidw
from squidw.dynamics import (
    EIG_TOL,
    MAX_FRAMES,
    ConvergenceError,
    NoiseModel,
    TRACE_TOL,
    TimeGrid,
    _dissipator_tables,
    _frame_indices,
    fidelity,
    lindblad_operators,
    node_times,
    propagate_lindblad,
    propagate_schrodinger,
)
from squidw.pulse_design import (
    ScheduleParams,
    dressed_pulses,
    gaussian_fit_pulses,
    stirap_pulses,
)
from squidw.state_space import (
    DIM,
    GROUND,
    PSI1,
    PSI2,
    PSI3,
    PSI4,
    PSI5,
    PSI7,
    PSI8,
    CouplingConfig,
    basis_state,
    cavity_hamiltonian,
    drive_hamiltonian,
    w_state,
)


def _gaussian_h(g: float):
    hc = cavity_hamiltonian(CouplingConfig(g=g))
    sch = gaussian_fit_pulses(ScheduleParams())
    return lambda t: hc + drive_hamiltonian(sch.qubit_amplitudes(t))


def _random_density(rng) -> np.ndarray:
    a = rng.normal(size=(DIM, DIM)) + 1j * rng.normal(size=(DIM, DIM))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


# ---------------------------------------------------------------------------
# jump operator structure


def test_lindblad_operator_count_and_order():
    noise = NoiseModel(kappa=2.0, gamma=1.0, gamma_phi=0.5)
    ops = lindblad_operators(noise)
    assert len(ops) == 17
    sg = math.sqrt(1.0)
    # decays |e> -> |1>: qubit 1 sends PSI4 to PSI7, qubit 4 sends PSI2 to PSI1
    assert ops[0][PSI7, PSI4] == sg and np.count_nonzero(ops[0]) == 1
    assert ops[3][PSI1, PSI2] == sg
    # decays |e> -> |0>: everything lands in GROUND
    assert ops[4][GROUND, PSI4] == sg
    assert ops[7][GROUND, PSI2] == sg
    # cavity loss comes last
    assert ops[16][GROUND, PSI3] == pytest.approx(math.sqrt(2.0))
    assert np.count_nonzero(ops[16]) == 1


def test_dephasing_operators_are_balanced_diagonals():
    noise = NoiseModel(gamma_phi=0.5)
    ops = lindblad_operators(noise)
    sp = math.sqrt(0.25)
    d_e1_q1 = np.real(np.diag(ops[8]))  # e/1 dephasing on qubit 1
    assert d_e1_q1[PSI4] == pytest.approx(sp)
    assert d_e1_q1[PSI7] == pytest.approx(-sp)
    assert d_e1_q1[GROUND] == 0.0
    d_e0_q1 = np.real(np.diag(ops[12]))  # e/0 dephasing on qubit 1
    assert d_e0_q1[PSI4] == pytest.approx(sp)
    assert d_e0_q1[PSI7] == 0.0
    assert d_e0_q1[GROUND] == pytest.approx(-sp)
    # zero-rate models still give 17 well-formed (zero) operators
    assert all(np.max(np.abs(op)) == 0.0 for op in lindblad_operators(NoiseModel()))


# ---------------------------------------------------------------------------
# batched call contract


def test_batched_propagators_keep_the_call_contract():
    """One call integrates the batch: one Trajectory with the integer step
    count, per-point endpoint diagnostics, and h_fn called exactly once per
    RK4 node, in increasing k = 0, 1, ..., 2n."""
    grid = TimeGrid(120)
    sch = gaussian_fit_pulses(ScheduleParams())
    hc = np.stack([cavity_hamiltonian(CouplingConfig(g=g)) for g in (5.0, 10.0, 20.0)])
    nodes = node_times(grid.n_steps, 1.0)
    calls = []

    def h_fn(k):
        calls.append(k)
        return hc + drive_hamiltonian(sch.qubit_amplitudes(nodes[k]))

    psi0 = np.tile(basis_state(PSI1), (3, 1))
    traj = propagate_schrodinger(h_fn, psi0, grid)
    n = grid.n_steps
    assert calls == list(range(2 * n + 1))
    assert type(traj.n_steps) is int and traj.n_steps == n
    assert traj.final_state.shape == (3, DIM) and traj.drift.shape == (3,)
    assert traj.min_eigenvalue is None
    for b in range(3):
        alone = propagate_schrodinger(lambda k: h_fn(k)[b : b + 1], psi0[b : b + 1], grid)
        assert np.array_equal(alone.final_state[0], traj.final_state[b])
        assert alone.drift[0] == traj.drift[b]

    calls.clear()
    noises = [NoiseModel(kappa=k, gamma_phi=0.1) for k in (0.5, 1.0, 2.0)]
    rho0 = np.tile(np.outer(psi0[0], psi0[0].conj()), (3, 1, 1))
    traj = propagate_lindblad(h_fn, noises, rho0, grid, n_frames=4)
    assert calls == list(range(2 * n + 1))
    assert type(traj.n_steps) is int and traj.n_steps == n
    assert traj.final_state.shape == (3, DIM, DIM)
    assert traj.drift.shape == traj.min_eigenvalue.shape == (3,)
    assert traj.states.shape == (3, 4, DIM, DIM) and traj.fidelities.shape == (3, 4)
    one = traj.point(1)
    assert isinstance(one.drift, float) and isinstance(one.min_eigenvalue, float)
    assert np.array_equal(one.final_state, traj.final_state[1])
    # more cavity loss, less photon population left at the end
    photon = traj.final_state[:, PSI3, PSI3].real
    assert photon[0] > photon[1] > photon[2]


def test_h_fn_may_overwrite_the_array_it_returned():
    """The propagators use each H before the next h_fn call, so an h_fn that
    rewrites one buffer in place gives the same bytes as one that returns a
    fresh array each call, on a batch of mixed durations and frame counts."""
    grid = TimeGrid(150)
    durations = np.array([1.0, 0.9, 1.1])
    sch = gaussian_fit_pulses(ScheduleParams())
    hc = np.stack([cavity_hamiltonian(CouplingConfig(g=g)) for g in (10.0, 20.0, 30.0)])
    nodes = [node_times(grid.n_steps, d) for d in durations]

    def fresh(k):
        return hc + np.stack([drive_hamiltonian(sch.qubit_amplitudes(t[k])) for t in nodes])

    buffer = np.empty_like(hc)

    def in_place(k):
        buffer[...] = fresh(k)
        return buffer

    psi0 = np.tile(basis_state(PSI1), (3, 1))
    rho0 = np.tile(np.outer(psi0[0], psi0[0].conj()), (3, 1, 1))
    noises = [NoiseModel(kappa=k, gamma=0.2, gamma_phi=0.1) for k in (0.5, 1.0, 2.0)]
    for propagate, args in ((propagate_schrodinger, (psi0,)), (propagate_lindblad, (noises, rho0))):
        a, b = (
            propagate(h_fn, *args, grid, duration=durations, n_frames=[2, 5, 11])
            for h_fn in (fresh, in_place)
        )
        assert np.array_equal(a.final_state, b.final_state)
        assert np.array_equal(a.drift, b.drift)
        if a.min_eigenvalue is not None:
            assert np.array_equal(a.min_eigenvalue, b.min_eigenvalue)
        for sa, sb in zip(a.states, b.states):
            assert np.array_equal(sa, sb)


def test_in_place_stepping_leaves_inputs_frames_and_results_alone():
    """The state is advanced in place, so check that it never aliases what
    the caller gave or got: the initial state is untouched, a frame stored
    mid-run is the exact final state of a run stopped there (later steps do
    not overwrite it), and a second call leaves the first one's result as
    it was."""
    sch = gaussian_fit_pulses(ScheduleParams())
    hc = np.stack([cavity_hamiltonian(CouplingConfig(g=g)) for g in (10.0, 30.0)])
    # 200 steps over 1.0 and 100 over 0.5 share h = 0.005 and nodes k h / 2
    nodes = node_times(200, 1.0)

    def h_fn(k):
        return hc + drive_hamiltonian(sch.qubit_amplitudes(nodes[k]))

    psi0 = np.tile(basis_state(PSI1), (2, 1))
    rho0 = np.tile(np.outer(psi0[0], psi0[0].conj()), (2, 1, 1))
    noises = [NoiseModel(kappa=k, gamma=0.2, gamma_phi=0.1) for k in (0.5, 1.0)]
    for propagate, state0, pre in ((propagate_schrodinger, psi0, ()), (propagate_lindblad, rho0, (noises,))):
        given_state = state0.copy()
        full = propagate(h_fn, *pre, state0, TimeGrid(200), duration=1.0, n_frames=3)
        assert np.array_equal(state0, given_state)
        kept = full.final_state.tobytes(), full.states.tobytes()
        half = propagate(h_fn, *pre, state0, TimeGrid(100), duration=0.5)
        assert full.times[0, 1] == half.times[0, -1] == 0.5
        assert full.states[:, 1].tobytes() == half.final_state.tobytes()
        assert (full.final_state.tobytes(), full.states.tobytes()) == kept


@pytest.mark.parametrize("bad_node", [1, 2 * 57 + 1, 2 * 120])
def test_every_node_passes_the_float64_check(bad_node):
    """An h_fn that turns complex mid-run is refused at that node, an odd
    one or the last, by both propagators: the check is not made on node 0
    alone."""
    grid = TimeGrid(120)
    hc = cavity_hamiltonian(CouplingConfig(g=10.0))[None]
    h_fn = lambda k: hc.astype(complex) if k == bad_node else hc
    psi0 = basis_state(PSI1)[None]
    rho0 = np.outer(psi0[0], psi0[0].conj())[None]
    with pytest.raises(ValueError, match="float64"):
        propagate_schrodinger(h_fn, psi0, grid)
    with pytest.raises(ValueError, match="float64"):
        propagate_lindblad(h_fn, [NoiseModel(kappa=0.5)], rho0, grid)


# ---------------------------------------------------------------------------
# closed-system propagation


def test_no_drive_leaves_initial_state_alone():
    hc = cavity_hamiltonian(CouplingConfig(g=30.0))
    traj = one_point(propagate_schrodinger, lambda t: hc, basis_state(PSI1), TimeGrid(500))
    assert abs(abs(traj.final_state[PSI1]) - 1.0) < 1e-12
    assert fidelity(traj.final_state) < 1e-24


def test_rk4_matches_piecewise_matrix_exponential():
    segments, per_seg = 10, 400
    hc = cavity_hamiltonian(CouplingConfig(g=30.0))
    sch = gaussian_fit_pulses(ScheduleParams())
    seg_h = [
        hc + drive_hamiltonian(sch.qubit_amplitudes((i + 0.5) / segments))
        for i in range(segments)
    ]
    psi_exact = basis_state(PSI1)
    psi_rk = basis_state(PSI1)
    for h in seg_h:
        psi_exact = expm(-1j * h / segments) @ psi_exact
        psi_rk = one_point(
            propagate_schrodinger,
            lambda t, h=h: h,
            psi_rk,
            TimeGrid(per_seg),
            duration=1.0 / segments,
        ).final_state
    assert np.max(np.abs(psi_rk - psi_exact)) < 1e-8


def test_rk4_is_fourth_order():
    h_fn = _gaussian_h(5.0)
    ref = one_point(propagate_schrodinger, h_fn, basis_state(PSI1), TimeGrid(6400)).final_state
    errs = [
        np.linalg.norm(
            one_point(propagate_schrodinger, h_fn, basis_state(PSI1), TimeGrid(n)).final_state - ref
        )
        for n in (200, 400)
    ]
    assert 13.0 < errs[0] / errs[1] < 19.0


def test_a_diverged_point_is_a_convergence_failure_that_names_it():
    """At g = 1e5 a 100-step run overflows to inf and then nan. Both
    propagators raise ConvergenceError naming that point of the batch: each
    stops at the first stored frame that is not finite, before a gate or
    eigvalsh sees it."""
    grid = TimeGrid(100)
    hc = np.stack([cavity_hamiltonian(CouplingConfig(g=g)) for g in (1.0, 1e5)])
    psi0 = np.tile(basis_state(PSI4), (2, 1))  # a state the cavity couples
    rho0 = np.tile(np.outer(psi0[0], psi0[0].conj()), (2, 1, 1))
    runs = (
        (propagate_schrodinger, (psi0,)),
        (propagate_lindblad, ([NoiseModel(), NoiseModel()], rho0)),
        (propagate_lindblad, ([NoiseModel(kappa=1.0)] * 2, rho0)),
    )
    for propagate, args in runs:
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ConvergenceError, match=r"\(batch point 1\)") as raised:
                propagate(lambda k: hc, *args, grid, n_frames=5)
        assert raised.value.point == 1
    # the finite point alone passes
    propagate_schrodinger(lambda k: hc[:1], psi0[:1], grid)


def test_a_run_that_fails_a_gate_is_not_packaged(monkeypatch):
    """The gates run before the trajectory is packaged, so a failed run
    takes no fidelity of its frames: neither a diverged closed batch nor a
    finite open run whose trace drifted."""
    calls = []
    monkeypatch.setattr(squidw.dynamics, "fidelity", lambda state: calls.append(state))
    grid = TimeGrid(100)
    hc = np.stack([cavity_hamiltonian(CouplingConfig(g=g)) for g in (1.0, 1e5)])
    psi0 = np.tile(basis_state(PSI4), (2, 1))
    hc_stiff, sch = cavity_hamiltonian(CouplingConfig(g=150.0)), stirap_pulses(50.0)
    stiff = lambda t: hc_stiff + drive_hamiltonian(sch.qubit_amplitudes(t))
    rho0 = np.outer(basis_state(PSI1), basis_state(PSI1)).astype(complex)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(ConvergenceError, match="not finite"):
            propagate_schrodinger(lambda k: hc, psi0, grid, n_frames=5)
        with pytest.raises(ConvergenceError, match="trace drift"):
            one_point(propagate_lindblad, stiff, NoiseModel(kappa=1.0), rho0, grid, n_frames=5)
    assert calls == []


def test_schrodinger_norm_gate_trips_on_stiff_underresolved_run():
    hc = cavity_hamiltonian(CouplingConfig(g=150.0))
    sch = stirap_pulses(50.0)
    h_fn = lambda t: hc + drive_hamiltonian(sch.qubit_amplitudes(t))
    with pytest.raises(ConvergenceError):
        one_point(propagate_schrodinger, h_fn, basis_state(PSI1), TimeGrid(100))


def test_permutation_symmetry_of_closed_dynamics():
    traj = one_point(propagate_schrodinger, _gaussian_h(30.0), basis_state(PSI1), TimeGrid(2000))
    psi = traj.final_state
    for a, b in ((PSI4, PSI5), (PSI7, PSI8)):
        swapped = psi.copy()
        swapped[[a, b]] = swapped[[b, a]]
        # qubits 1-3 are driven identically, so swapping any pair is a symmetry
        assert np.max(np.abs(swapped - psi)) < 1e-9


def test_trajectory_frames_and_populations():
    traj = one_point(
        propagate_schrodinger, _gaussian_h(30.0), basis_state(PSI1), TimeGrid(1000), n_frames=101
    )
    assert len(traj.states) == 101
    assert traj.times[0] == 0.0 and traj.times[-1] == pytest.approx(1.0)
    assert np.all(np.diff(traj.times) > 0)
    pops = traj.populations
    assert pops.shape == (101, DIM)
    assert np.max(np.abs(pops.sum(axis=1) - 1.0)) < 1e-9
    assert traj.fidelities[0] == pytest.approx(0.0, abs=1e-30)
    assert traj.fidelities[-1] > 0.99
    big = one_point(
        propagate_schrodinger, _gaussian_h(10.0), basis_state(PSI1), TimeGrid(1000), n_frames=5000
    )
    assert len(big.states) <= MAX_FRAMES


def test_frame_indices_match_np_unique():
    # rounded linspace is nondecreasing, so dropping consecutive repeats is np.unique
    for n_steps in (100, 101, 333, 1000, 2000):
        for n_frames in (0, 2, 3, 7, 201, 401, n_steps, n_steps + 1, MAX_FRAMES, 5000):
            capped = min(max(n_frames, 2), MAX_FRAMES, n_steps + 1)
            expected = np.unique(np.linspace(0, n_steps, capped).round().astype(int))
            got = _frame_indices(n_steps, n_frames)
            assert got.dtype == expected.dtype
            assert np.array_equal(got, expected), (n_steps, n_frames)


def test_integrating_does_not_import_numpy_ma():
    # np.unique imports numpy.ma (milliseconds and megabytes) on its first call
    script = (
        "import sys\n"
        "from squidw.experiments import RunSpec, run_points\n"
        "run_points([RunSpec(g=10.0, n_steps=100, n_frames=7)])\n"
        "sys.exit('numpy.ma' in sys.modules)\n"
    )
    src = os.path.dirname(os.path.dirname(squidw.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr or "numpy.ma was imported"


def test_schrodinger_input_validation():
    with pytest.raises(ValueError):
        one_point(propagate_schrodinger, _gaussian_h(10.0), 2.0 * basis_state(PSI1), TimeGrid(100))
    complex_h = lambda t: _gaussian_h(10.0)(t).astype(complex)
    with pytest.raises(ValueError, match="float64"):
        one_point(propagate_schrodinger, complex_h, basis_state(PSI1), TimeGrid(100))
    with pytest.raises(ValueError):
        TimeGrid(50)
    with pytest.raises(ValueError):
        NoiseModel(kappa=-1.0)


# ---------------------------------------------------------------------------
# open-system propagation


def test_zero_noise_master_equation_matches_schrodinger():
    h_fn = _gaussian_h(30.0)
    psi0 = basis_state(PSI1)
    traj_s = one_point(propagate_schrodinger, h_fn, psi0, TimeGrid(2000))
    rho0 = np.outer(psi0, psi0.conj())
    traj_l = one_point(propagate_lindblad, h_fn, NoiseModel(), rho0, TimeGrid(2000))
    assert abs(fidelity(traj_s.final_state) - fidelity(traj_l.final_state)) < 1e-7
    pure = np.outer(traj_s.final_state, traj_s.final_state.conj())
    assert np.max(np.abs(traj_l.final_state - pure)) < 1e-7


def test_cavity_decay_follows_exponential_law():
    kappa = 0.8
    rho0 = np.outer(basis_state(PSI3), basis_state(PSI3).conj())
    traj = one_point(
        propagate_lindblad, lambda t: np.zeros((DIM, DIM)), NoiseModel(kappa=kappa), rho0, TimeGrid(1000)
    )
    p3 = traj.final_state[PSI3, PSI3].real
    pg = traj.final_state[GROUND, GROUND].real
    assert p3 == pytest.approx(math.exp(-kappa), abs=1e-10)
    assert pg == pytest.approx(1.0 - math.exp(-kappa), abs=1e-10)


def test_fast_dissipator_matches_superoperator_oracle():
    """The tabulated gain/scatter path must equal the canonical Lindblad form."""
    rng = np.random.default_rng(42)
    noise = NoiseModel(kappa=0.9, gamma=0.4, gamma_phi=0.6)
    ops = lindblad_operators(noise)
    # the propagators take real symmetric H, the form of the model's Hamiltonians
    h = rng.normal(size=(DIM, DIM))
    h = h + h.T

    # full 100x100 superoperator acting on row-major vec(rho)
    eye = np.eye(DIM)
    sup = -1j * (np.kron(h, eye) - np.kron(eye, h.T))
    for L in ops:
        ldl = L.conj().T @ L
        sup += np.kron(L, L.conj()) - 0.5 * (np.kron(ldl, eye) + np.kron(eye, ldl.T))

    rho0 = _random_density(rng)
    duration, n = 0.3, 200
    traj = one_point(propagate_lindblad, lambda t: h, noise, rho0, TimeGrid(n), duration=duration)

    vec = rho0.reshape(-1)
    dt = duration / n
    for _ in range(n):
        k1 = sup @ vec
        k2 = sup @ (vec + 0.5 * dt * k1)
        k3 = sup @ (vec + 0.5 * dt * k2)
        k4 = sup @ (vec + dt * k3)
        vec = vec + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    assert np.max(np.abs(traj.final_state - vec.reshape(DIM, DIM))) < 1e-10


def test_packed_kernel_matches_complex_reference_on_a_general_state():
    """On the model's runs each entry of rho is in practice purely real or
    purely imaginary, which would hide a mistake in packing rho as
    M = Re rho + Im rho. Here the real and imaginary parts of rho0 overlap
    and H(t) is a random real symmetric matrix that changes in time."""
    rng = np.random.default_rng(7)
    h0, h1, h2 = (a + a.T for a in rng.normal(size=(3, DIM, DIM)))

    def h_of_t(t):
        return h0 + math.cos(3.0 * t) * h1 + t * h2

    noise = NoiseModel(kappa=0.9, gamma=0.4, gamma_phi=0.6)
    rho0 = _random_density(rng)
    assert np.all(((rho0.real != 0) & (rho0.imag != 0)) | np.eye(DIM, dtype=bool))
    duration, n = 0.7, 300
    traj = one_point(
        propagate_lindblad, h_of_t, noise, rho0, TimeGrid(n), duration=duration, n_frames=31
    )
    ref = reference_kernels.lindblad_final(h_of_t, lindblad_operators(noise), rho0, n, duration)
    assert np.max(np.abs(traj.final_state - ref)) <= 1e-12
    assert len(traj.states) == 31
    for rho in traj.states:
        assert np.array_equal(rho, rho.conj().T)


def test_dissipator_tables_apply_the_canonical_dissipator():
    """For random rates, zeros included, the tables act on any rho as
    gain o rho + diag(S diag rho), which equals the canonical
    sum_L L rho L^dag - {L^dag L, rho}/2 over the 17 matrices of
    lindblad_operators: the two forms are written from one noise model."""
    rng = np.random.default_rng(11)
    rates = rng.exponential(size=(40, 3)) * (rng.random((40, 3)) < 0.6)
    for kappa, gamma, gamma_phi in [(0.0, 0.0, 0.0), *rates]:
        noise = NoiseModel(kappa=kappa, gamma=gamma, gamma_phi=gamma_phi)
        gain, scatter = _dissipator_tables(noise)
        rho = _random_density(rng)
        tabulated = gain * rho + np.diag(scatter @ np.diag(rho))
        canonical = reference_kernels.dissipator(lindblad_operators(noise), rho)
        assert np.max(np.abs(tabulated - canonical)) <= 1e-14


def test_dissipator_tables_split():
    gain, scatter = _dissipator_tables(NoiseModel(kappa=1.0, gamma=1.0, gamma_phi=1.0))
    # scatter rows: PSI4 loses gamma into PSI7 and gamma into GROUND
    assert scatter[PSI7, PSI4] == pytest.approx(1.0)
    assert scatter[GROUND, PSI4] == pytest.approx(1.0)
    # populations only move through decay: the dephasing pieces cancel on the
    # diagonal, leaving gain_ii = -(total decay rate out of i)
    assert gain[PSI4, PSI4] == pytest.approx(-2.0)
    assert gain[PSI3, PSI3] == pytest.approx(-1.0)  # cavity loss only
    assert gain[GROUND, GROUND] == pytest.approx(0.0)
    assert np.max(np.abs(gain - gain.T)) == 0.0


def test_open_run_preserves_trace_hermiticity_positivity():
    h_fn = _gaussian_h(30.0)
    noise = NoiseModel(kappa=0.033 * 30, gamma=0.0073 * 30, gamma_phi=0.001 * 30)
    rho0 = np.outer(basis_state(PSI1), basis_state(PSI1).conj())
    traj = one_point(propagate_lindblad, h_fn, noise, rho0, TimeGrid(2000), n_frames=51)
    assert traj.drift < 1e-10
    assert traj.min_eigenvalue is not None and traj.min_eigenvalue > EIG_TOL
    for rho in traj.states:
        # exactly: the real-H commutator keeps every RK4 stage Hermitian
        assert np.array_equal(rho, rho.conj().T)
        assert abs(np.trace(rho).real - 1.0) < 1e-9


_FLAVORS = {
    "gaussian": gaussian_fit_pulses(ScheduleParams()),
    "stirap": stirap_pulses(10.0),
    "dressed": dressed_pulses(ScheduleParams()),
}
_RATES = st.floats(min_value=0.0, max_value=2.0)


@st.composite
def _open_point(draw):
    """Rates, a flavor and a coupling for one open point."""
    noise = NoiseModel(kappa=draw(_RATES), gamma=draw(_RATES), gamma_phi=draw(_RATES))
    return noise, draw(st.sampled_from(sorted(_FLAVORS))), draw(st.floats(min_value=1.0, max_value=30.0))


def test_open_runs_keep_trace_hermiticity_positivity_under_random_rates():
    """Any rates, flavors and couplings drawn, each point of a 400-step batch
    keeps its trace within TRACE_TOL, stores exactly Hermitian frames, and
    keeps its smallest stored eigenvalue at or above EIG_TOL. (At 200 steps
    RK4 itself breaks positivity: the noiseless dressed run at g = 19 ends
    at eigenvalue -1.07e-6, and 400 steps leave -1.5e-7 at g = 30.)"""
    grid = TimeGrid(400)
    nodes = node_times(grid.n_steps, 1.0)
    drives = {
        name: np.stack([drive_hamiltonian(w) for w in sch.qubit_amplitudes(nodes).T])
        for name, sch in _FLAVORS.items()
    }

    @settings(max_examples=10, derandomize=True, deadline=None, database=None)
    @given(st.lists(_open_point(), min_size=1, max_size=3), st.integers(2, 21))
    def check(points, n_frames):
        h = np.stack([cavity_hamiltonian(CouplingConfig(g=g)) + drives[f] for _, f, g in points], axis=1)
        rho0 = np.tile(np.outer(basis_state(PSI1), basis_state(PSI1).conj()), (len(points), 1, 1))
        noises = [noise for noise, _, _ in points]
        traj = propagate_lindblad(h.__getitem__, noises, rho0, grid, n_frames=n_frames)
        assert np.all(traj.drift <= TRACE_TOL)
        assert np.all(traj.min_eigenvalue >= EIG_TOL)
        for b in range(len(points)):
            states = traj.point(b).states
            assert np.array_equal(states, states.conj().swapaxes(-1, -2))
            assert np.all(np.abs(np.trace(states, axis1=1, axis2=2).real - 1.0) <= TRACE_TOL)
            assert np.linalg.eigvalsh(states).min() >= EIG_TOL

    check()


def test_permutation_symmetry_of_open_dynamics():
    noise = NoiseModel(kappa=0.1, gamma=0.05, gamma_phi=0.02)
    rho0 = np.outer(basis_state(PSI1), basis_state(PSI1).conj())
    traj = one_point(propagate_lindblad, _gaussian_h(30.0), noise, rho0, TimeGrid(1000))
    rho = traj.final_state
    perm = list(range(DIM))
    perm[PSI4], perm[PSI5] = perm[PSI5], perm[PSI4]
    perm[PSI7], perm[PSI8] = perm[PSI8], perm[PSI7]
    p = np.eye(DIM)[perm]
    assert np.max(np.abs(p @ rho @ p.T - rho)) < 1e-9


def test_lindblad_input_validation():
    noise = NoiseModel()
    good = np.outer(basis_state(PSI1), basis_state(PSI1).conj())
    with pytest.raises(ValueError):
        one_point(propagate_lindblad, lambda t: np.zeros((DIM, DIM)), noise, 2.0 * good, TimeGrid(100))
    skew = good.copy()
    skew[0, 1] = 0.5
    with pytest.raises(ValueError):
        one_point(propagate_lindblad, lambda t: np.zeros((DIM, DIM)), noise, skew, TimeGrid(100))
    with pytest.raises(ValueError):
        one_point(propagate_lindblad, lambda t: np.zeros((DIM, DIM)), noise, np.eye(4), TimeGrid(100))
    with pytest.raises(ValueError, match="float64"):
        one_point(propagate_lindblad, lambda t: np.zeros((DIM, DIM), dtype=complex), noise, good, TimeGrid(100))
    with pytest.raises(ValueError, match="one NoiseModel per point"):
        propagate_lindblad(lambda k: np.zeros((2, DIM, DIM)), [noise], np.stack([good, good]), TimeGrid(100))
    # Hermitian to 1e-11 is accepted, and symmetrized once on entry
    skew[0, 1] = 1e-11
    traj = one_point(propagate_lindblad, lambda t: np.zeros((DIM, DIM)), noise, skew, TimeGrid(100))
    assert np.array_equal(traj.states[0], traj.states[0].conj().T)


# ---------------------------------------------------------------------------
# observables


def test_fidelity_forms_agree():
    rng = np.random.default_rng(9)
    psi = rng.normal(size=DIM) + 1j * rng.normal(size=DIM)
    psi /= np.linalg.norm(psi)
    rho = np.outer(psi, psi.conj())
    assert fidelity(psi) == pytest.approx(fidelity(rho), abs=1e-14)
    target = basis_state(PSI1)
    assert fidelity(psi, target) == pytest.approx(abs(psi[PSI1]) ** 2, abs=1e-14)
    assert fidelity(w_state()) == pytest.approx(1.0, abs=1e-15)
