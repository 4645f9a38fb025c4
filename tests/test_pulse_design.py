"""Waveform design checked against finite differences and closed forms."""

import math

import numpy as np
import pytest

from squidw.pulse_design import (
    GAUSSIAN_FIT_A,
    GAUSSIAN_FIT_B,
    GUARD_BAND,
    GaussianComponent,
    ScheduleParams,
    correction_gains,
    dressed_pulses,
    gaussian_fit_pulses,
    intermediate_population_bound,
    modified_controls,
    scaled,
    schedule_angles,
    stirap_pulses,
    with_duration,
)


def _fd(fn, t, h=1e-6):
    return (fn(t + h) - fn(t - h)) / (2.0 * h)


def test_angle_derivatives_match_finite_differences():
    p = ScheduleParams(T=1.0, A=0.5)
    theta_of = lambda t: schedule_angles(t, p)[0]
    mu_of = lambda t: schedule_angles(t, p)[2]
    rng = np.random.default_rng(11)
    for t in rng.uniform(0.01, 0.99, size=50):
        _, theta_dot, _, mu_dot = schedule_angles(t, p)
        assert theta_dot == pytest.approx(_fd(theta_of, t), abs=1e-6)
        assert mu_dot == pytest.approx(_fd(mu_of, t), abs=1e-6)


def test_angle_derivatives_scale_with_duration():
    # reparameterizing T leaves angles invariant in t/T and scales rates by 1/T
    p1 = ScheduleParams(T=1.0)
    p2 = ScheduleParams(T=2.5)
    for x in (0.1, 0.37, 0.5, 0.82):
        a1 = schedule_angles(x, p1)
        a2 = schedule_angles(2.5 * x, p2)
        assert a2[0] == pytest.approx(a1[0], rel=1e-14)
        assert a2[2] == pytest.approx(a1[2], rel=1e-14)
        assert a2[1] == pytest.approx(a1[1] / 2.5, rel=1e-13)
        assert a2[3] == pytest.approx(a1[3] / 2.5, rel=1e-13)


def test_schedule_boundary_values():
    p = ScheduleParams()
    theta0, theta_dot0, mu0, mu_dot0 = schedule_angles(0.0, p)
    thetaT, theta_dotT, muT, mu_dotT = schedule_angles(p.T, p)
    assert theta0 == 0.0
    assert thetaT == pytest.approx(math.pi / 2.0, abs=1e-14)
    assert abs(theta_dot0) < 1e-14 and abs(theta_dotT) < 1e-14
    assert abs(mu0) < 1e-14 and abs(muT) < 1e-14
    assert abs(mu_dot0) < 1e-14 and abs(mu_dotT) < 1e-13
    with pytest.raises(ValueError):
        schedule_angles(-0.01, p)
    with pytest.raises(ValueError):
        schedule_angles(1.01, p)


def test_midpoint_closed_forms():
    p = ScheduleParams(A=0.5)
    theta, theta_dot, mu, mu_dot = schedule_angles(0.5, p)
    assert theta == pytest.approx(math.pi / 4.0, abs=1e-14)
    assert theta_dot == pytest.approx(4.0 * math.pi / 3.0, rel=1e-14)
    assert mu == pytest.approx(0.5, rel=1e-14)
    assert abs(mu_dot) < 1e-14
    ctrl = modified_controls(0.5, p)
    omega_mid = 4.0 * math.pi / (3.0 * math.tan(0.5))
    assert ctrl.omega_tilde == pytest.approx(omega_mid, rel=1e-12)
    assert ctrl.theta_tilde == pytest.approx(math.pi / 4.0, abs=1e-12)
    assert ctrl.omega_a == pytest.approx(ctrl.omega_b, rel=1e-12)
    assert ctrl.omega_a == pytest.approx(omega_mid / math.sqrt(2.0), rel=1e-12)


def test_correction_gains_do_not_depend_on_bare_amplitude():
    """g_x = mu_dot and Omega + g_z = -theta_dot / tan(mu): with xi = eta = 0
    the bare amplitude Omega cancels out of the corrected drive."""
    p = ScheduleParams()
    for t in (0.13, 0.5, 0.77):
        _, theta_dot, mu, mu_dot = schedule_angles(t, p)
        g_x, omega_plus_gz = correction_gains(t, p)
        assert g_x == mu_dot
        assert omega_plus_gz == pytest.approx(-theta_dot / math.tan(mu), rel=1e-14)


def test_guard_band_suppresses_endpoint_singularity():
    p = ScheduleParams()
    for t in (0.0, 1e-9, p.T - 1e-9, p.T):
        gx, opz = correction_gains(t, p)
        assert math.isfinite(gx) and math.isfinite(opz)
        assert opz == 0.0
    # just inside the band the ratio is tiny but finite
    gx, opz = correction_gains(1e-4, p)
    assert math.isfinite(opz) and abs(opz) < 1e-5


def test_array_controls_match_scalar_controls():
    """Every control takes an array of times and agrees elementwise with its
    scalar form, endpoints and guard band included, without dividing by
    tan 0 or raising any floating-point warning on the way."""
    p = ScheduleParams(T=1.3, A=0.4)
    eps = GUARD_BAND * p.T
    ts = np.concatenate(
        [np.linspace(0.0, p.T, 257), [0.5 * eps, eps, p.T - eps, p.T - 0.5 * eps, p.T]]
    )
    with np.errstate(all="raise"):
        angles = schedule_angles(ts, p)
        gains = correction_gains(ts, p)
        controls = modified_controls(ts, p)
        envelopes = dressed_pulses(p).envelopes(ts)
        for i, t in enumerate(ts):
            for array, scalar in (
                (angles, schedule_angles(t, p)),
                (gains, correction_gains(t, p)),
            ):
                np.testing.assert_allclose([a[i] for a in array], scalar, rtol=0, atol=1e-13)
            c = modified_controls(t, p)
            fields = ("theta_tilde", "omega_tilde", "omega_a", "omega_b")
            np.testing.assert_allclose(
                [getattr(controls, f)[i] for f in fields],
                [getattr(c, f) for f in fields],
                rtol=0,
                atol=1e-13,
            )
            np.testing.assert_allclose(envelopes[i], [c.omega_a, c.omega_b], rtol=0, atol=1e-13)
    assert np.all(gains[1][ts < eps] == 0.0) and np.all(gains[1][ts > p.T - eps] == 0.0)
    for bad in (np.array([0.2, -1e-9]), np.array([0.2, p.T + 1e-9]), np.array([[0.1], [np.nan]])):
        for fn in (schedule_angles, correction_gains, modified_controls):
            with pytest.raises(ValueError):
                fn(bad, p)
    # the schedule itself is defined everywhere: 0 outside [0, T]
    outside = np.array([-1.0, -1e-12, p.T + 1e-12, 2.0 * p.T])
    with np.errstate(all="raise"):
        assert np.all(dressed_pulses(p).envelopes(outside) == 0.0)
    assert dressed_pulses(p).channel_a(-0.1) == 0.0


def test_modified_controls_mirror_symmetry():
    p = ScheduleParams()
    for t in (0.08, 0.21, 0.33, 0.45):
        c1 = modified_controls(t, p)
        c2 = modified_controls(p.T - t, p)
        assert c1.omega_a == pytest.approx(c2.omega_b, rel=1e-10, abs=1e-12)
        assert c1.omega_b == pytest.approx(c2.omega_a, rel=1e-10, abs=1e-12)
        assert c1.omega_tilde == pytest.approx(c2.omega_tilde, rel=1e-10)


def test_dressed_channel_a_peaks_before_channel_b():
    sch = dressed_pulses(ScheduleParams())
    ts = np.linspace(0.0, 1.0, 2001)
    a, b = sch.channel_a(ts), sch.channel_b(ts)
    assert ts[np.argmax(a)] < 0.5 < ts[np.argmax(b)]
    # mirror pair: b is a reflected in t -> T - t
    assert np.max(np.abs(a - b[::-1])) < 1e-8
    assert sch.peak_amplitude == pytest.approx(8.733, abs=0.01)


def test_intermediate_population_bound_profile():
    p = ScheduleParams(A=0.5)
    assert intermediate_population_bound(0.0, p) == 0.0
    assert intermediate_population_bound(1.0, p) == pytest.approx(0.0, abs=1e-28)
    assert intermediate_population_bound(0.5, p) == pytest.approx(math.sin(0.5) ** 2, rel=1e-14)
    ts = np.linspace(0, 1, 101)
    vals = [intermediate_population_bound(t, p) for t in ts]
    assert max(vals) <= math.sin(0.5) ** 2 + 1e-15


def test_gaussian_component_form_and_validation():
    c = GaussianComponent(amplitude=2.0, center=0.3, width=0.1)
    assert c(0.3, 1.0) == pytest.approx(2.0)
    assert c(0.4, 1.0) == pytest.approx(2.0 * math.exp(-1.0), rel=1e-14)
    # scale-invariant in T: same shape when t and T stretch together
    assert c(0.6, 2.0) == pytest.approx(c(0.3, 1.0) / 2.0, rel=1e-14)
    with pytest.raises(ValueError):
        GaussianComponent(amplitude=0.0, center=0.3, width=0.1)
    with pytest.raises(ValueError):
        GaussianComponent(amplitude=1.0, center=0.3, width=-0.1)


def test_published_fit_constants():
    amps = [c.amplitude for c in GAUSSIAN_FIT_A]
    assert amps == [6.226, 1.332]
    assert [c.center for c in GAUSSIAN_FIT_A] == [0.4033, 0.7605]
    assert [c.width for c in GAUSSIAN_FIT_A] == [0.2214, 0.1971]
    # channel b mirrors channel a's centers about T/2
    for ca, cb in zip(GAUSSIAN_FIT_A, GAUSSIAN_FIT_B):
        assert cb.center == pytest.approx(1.0 - ca.center, abs=5e-4)
        assert cb.amplitude == ca.amplitude


def test_gaussian_fit_tracks_exact_controls():
    p = ScheduleParams(A=0.5)
    exact = dressed_pulses(p)
    fit = gaussian_fit_pulses(p)
    ts = np.linspace(0.0, 1.0, 801)
    for chan_exact, chan_fit in (
        (exact.channel_a, fit.channel_a),
        (exact.channel_b, fit.channel_b),
    ):
        dev = chan_fit(ts) - chan_exact(ts)
        assert np.max(np.abs(dev)) < 0.35
        assert math.sqrt(np.mean(dev**2)) < 0.15
    assert fit.peak_amplitude == pytest.approx(8.878, abs=0.02)


def test_boundary_suppression_per_flavor():
    p = ScheduleParams()
    exact = dressed_pulses(p)
    for chan in (exact.channel_a, exact.channel_b):
        assert abs(chan(0.0)) < 1e-12 and abs(chan(1.0)) < 1e-12
    fit = gaussian_fit_pulses(p)
    for chan in (fit.channel_a, fit.channel_b):
        assert abs(chan(0.0)) < 0.35
        assert abs(chan(1.0)) < 0.35
    stirap = stirap_pulses(50.0, params=p)
    for chan in (stirap.channel_a, stirap.channel_b):
        assert abs(chan(0.0)) < 0.05 * 50.0
        assert abs(chan(1.0)) < 0.05 * 50.0


def test_stirap_counterintuitive_ordering():
    sch = stirap_pulses(9.8)
    ts = np.linspace(0.0, 1.0, 4001)
    a = np.array([sch.channel_a(t) for t in ts])
    b = np.array([sch.channel_b(t) for t in ts])
    assert ts[np.argmax(a)] == pytest.approx(0.35, abs=1e-3)
    assert ts[np.argmax(b)] == pytest.approx(0.65, abs=1e-3)
    assert a.max() == pytest.approx(9.8, rel=1e-6)
    # per-qubit amplitude carries the sqrt(2) channel factor
    amps = sch.qubit_amplitudes(0.35)
    assert amps[0] == pytest.approx(math.sqrt(2.0) * sch.channel_a(0.35), rel=1e-15)
    assert amps[3] == pytest.approx(math.sqrt(2.0) * sch.channel_b(0.35), rel=1e-15)
    with pytest.raises(ValueError):
        stirap_pulses(0.0)
    with pytest.raises(ValueError):
        stirap_pulses(-5.0)


def test_qubit_amplitudes_share_channel_a():
    sch = gaussian_fit_pulses()
    amps = sch.qubit_amplitudes(0.4)
    assert amps[0] == amps[1] == amps[2]
    assert amps[0] == pytest.approx(math.sqrt(2.0) * sch.channel_a(0.4), rel=1e-15)


def test_scaled_and_with_duration():
    base = gaussian_fit_pulses()
    louder = scaled(base, 1.1)
    for t in (0.0, 0.3, 0.9):
        assert louder.channel_a(t) == pytest.approx(1.1 * base.channel_a(t), rel=1e-15)
        assert louder.channel_b(t) == pytest.approx(1.1 * base.channel_b(t), rel=1e-15)
    shorter = with_duration(base, 0.9)
    assert shorter.duration == 0.9
    # waveforms unchanged, only the run window moved
    assert shorter.channel_a(0.5) == base.channel_a(0.5)
    with pytest.raises(ValueError):
        with_duration(base, 0.0)


def test_schedule_params_validation():
    with pytest.raises(ValueError):
        ScheduleParams(T=-1.0)
    with pytest.raises(ValueError):
        ScheduleParams(A=0.0)
    with pytest.raises(ValueError):
        ScheduleParams(A=math.pi / 2.0)
