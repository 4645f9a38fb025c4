"""Control waveform design: schedules, corrected drives, Gaussian fits, STIRAP.

The transfer |psi1> -> |W> is steered by two channel envelopes, Omega_a on the
branch shared by qubits 1-3 and Omega_b on the qubit-4 branch. Per-qubit Rabi
amplitudes are sqrt(2) times the channel envelopes for every flavor (the
collective matrix elements absorb the factor).

Three flavors are provided:

* "dressed":  exact corrected controls Omega_tilde_a/b derived from the
  schedule angles below; zero at both endpoints, shortcut is exact.
* "gaussian": two-component Gaussian fits to the dressed controls, the form
  an arbitrary-waveform generator would be programmed with.
* "stirap":   the counterintuitive Gaussian pair used as the baseline for
  comparisons.

Angles are dimensionless, amplitudes are multiples of 1/T.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, NamedTuple

import numpy as np

# Endpoint guard band (fraction of T). Inside it the singular ratio
# theta_dot/tan(mu) is replaced by its analytic limit 0 (theta_dot ~ t^4
# while tan mu ~ t^2, so the ratio vanishes as t^2).
GUARD_BAND = 1e-6

_SQRT2 = math.sqrt(2.0)


@dataclass(frozen=True)
class ScheduleParams:
    """Protocol duration and the dressing-amplitude knob A.

    A sets the peak of the tilt angle mu; larger A lowers the drive power
    needed but raises the transient population outside the dark subspace
    (bounded by sin^2 A).
    """

    T: float = 1.0
    A: float = 0.5

    def __post_init__(self) -> None:
        if not (self.T > 0 and math.isfinite(self.T)):
            raise ValueError(f"duration T must be positive, got {self.T}")
        if not (0.0 < self.A < math.pi / 2):
            raise ValueError(f"A must lie in (0, pi/2), got {self.A}")


def _times(t, params: ScheduleParams) -> np.ndarray:
    """t as a float array, every entry checked to lie in [0, T]."""
    t = np.asarray(t, dtype=float)
    outside = ~((t >= 0.0) & (t <= params.T))
    if outside.any():
        raise ValueError(f"t={t[outside].flat[0]} outside [0, {params.T}]")
    return t


def schedule_angles(t, params: ScheduleParams) -> tuple:
    """Mixing angle theta, tilt angle mu, and their analytic time derivatives.

    theta ramps 0 -> pi/2 with vanishing first and higher derivatives at the
    endpoints (theta_dot = (4 pi / 3T) sin^4(pi t / T)); mu opens and closes a
    dressing window, mu = (A/2)(1 - cos(2 pi t / T)). t is a time or an array
    of times in [0, T]; each angle has the shape of t.
    """
    T, A = params.T, params.A
    x = _times(t, params) / T
    theta = np.pi * x / 2.0 - np.sin(2.0 * np.pi * x) / 3.0 + np.sin(4.0 * np.pi * x) / 24.0
    theta_dot = (4.0 * np.pi / (3.0 * T)) * np.sin(np.pi * x) ** 4
    mu = 0.5 * A * (1.0 - np.cos(2.0 * np.pi * x))
    mu_dot = (np.pi * A / T) * np.sin(2.0 * np.pi * x)
    return theta, theta_dot, mu, mu_dot


def correction_gains(t, params: ScheduleParams) -> tuple:
    """Gains (g_x, Omega + g_z) that cancel the nonadiabatic couplings.

    With the auxiliary angles xi = eta = 0 the gains are g_x = mu_dot and
    g_z = -Omega - theta_dot / tan(mu), so Omega + g_z = -theta_dot / tan(mu):
    the original amplitude Omega drops out of the drive, and the construction
    of Baksic, Ribeiro and Clerk (PRL 116, 230503) leaves it free. t is a time
    or an array of times; each gain has its shape.
    """
    t = _times(t, params)
    _, theta_dot, mu, mu_dot = schedule_angles(t, params)
    eps = GUARD_BAND * params.T
    # Divide only outside the guard band, where tan(mu) > 0; inside it the
    # ratio is its analytic limit 0 at both endpoints.
    inside = (t >= eps) & (t <= params.T - eps)
    ratio = np.zeros(t.shape)
    ratio[inside] = theta_dot[inside] / np.tan(mu[inside])
    return mu_dot, -ratio


def modified_controls(t, params: ScheduleParams) -> np.ndarray:
    """Exact corrected channel envelopes (Omega_a, Omega_b) at time t, shape
    (2,), or at every time of an array, shape np.shape(t) + (2,).

    Omega_tilde = hypot(g_x, Omega + g_z) and theta_tilde = theta +
    atan2(g_x, -(Omega + g_z)); the two-argument form keeps the correction
    angle in (-pi/2, pi/2) since -(Omega+g_z) = theta_dot/tan(mu) >= 0.
    Channel envelopes are Omega_a = Omega_tilde cos(theta_tilde) on qubits 1-3
    and Omega_b = Omega_tilde sin(theta_tilde) on qubit 4.
    """
    theta, _, _, _ = schedule_angles(t, params)
    g_x, omega_plus_gz = correction_gains(t, params)
    omega_tilde = np.hypot(g_x, omega_plus_gz)
    theta_tilde = theta + np.arctan2(g_x, -omega_plus_gz)
    return np.stack([omega_tilde * np.cos(theta_tilde), omega_tilde * np.sin(theta_tilde)], -1)


def intermediate_population_bound(t, params: ScheduleParams):
    """Population outside the dark subspace at time t, sin^2 mu(t)."""
    _, _, mu, _ = schedule_angles(t, params)
    return np.sin(mu) ** 2


class GaussianComponent(NamedTuple):
    """One Gaussian pulse component: amplitude * exp(-((t-center)/width)^2)."""

    amplitude: float  # units 1/T
    center: float  # fraction of T
    width: float  # fraction of T


# Two-component fits to the exact dressed controls (A = 0.5). Channel a drives
# qubits 1-3 and peaks early; channel b drives qubit 4 and is its mirror image.
GAUSSIAN_FIT_A = (
    GaussianComponent(amplitude=6.226, center=0.4033, width=0.2214),
    GaussianComponent(amplitude=1.332, center=0.7605, width=0.1971),
)
GAUSSIAN_FIT_B = (
    GaussianComponent(amplitude=6.226, center=0.5970, width=0.2214),
    GaussianComponent(amplitude=1.332, center=0.2395, width=0.1971),
)


@dataclass(frozen=True)
class PulseSchedule:
    """A complete set of drive waveforms: both channel envelopes from one call.

    envelope(t) takes a 1-d float array of times and returns the envelopes
    (a, b) as shape (len(t), 2): channel a feeds qubits 1-3 and channel b
    qubit 4, each multiplied by sqrt(2) to give per-qubit Rabi amplitudes.
    The envelope is defined for all t (flavors with a natural support window
    return 0 outside it), so a schedule can be evaluated past its nominal
    duration when a run is deliberately cut short or overextended.
    """

    duration: float
    envelope: Callable[[np.ndarray], np.ndarray]

    def qubit_amplitudes(self, t) -> np.ndarray:
        """Per-qubit Rabi amplitudes (q1, q2, q3, q4) at t, shape (4,), or at
        every time of an array, shape (4, len(t))."""
        a, b = _SQRT2 * self.envelopes(t).T
        return np.array([a, a, a, b])

    def envelopes(self, ts) -> np.ndarray:
        """Channel envelopes (a, b) at a time, shape (2,), or at every time
        of an array, shape (len(ts), 2). One time is sampled as an array of
        one, since numpy's scalar arithmetic may round differently."""
        ts = np.asarray(ts, dtype=float)
        return self.envelope(ts.reshape(-1)).reshape(ts.shape + (2,))

    @property
    def peak_amplitude(self) -> float:
        """Max per-qubit Rabi amplitude over a dense grid (units 1/T)."""
        ts = np.linspace(0.0, self.duration, 2001)
        return float(_SQRT2 * np.max(np.abs(self.envelopes(ts))))


def dressed_pulses(params: ScheduleParams = ScheduleParams()) -> PulseSchedule:
    """Exact corrected controls as a schedule; zero outside [0, T]."""

    def envelope(t):
        out = np.zeros((len(t), 2))
        inside = (t >= 0.0) & (t <= params.T)
        out[inside] = modified_controls(t[inside], params)
        return out

    return PulseSchedule(params.T, envelope)


def gaussian_fit_pulses(params: ScheduleParams = ScheduleParams()) -> PulseSchedule:
    """Two-component Gaussian approximations of the dressed controls."""
    T, fits = params.T, (GAUSSIAN_FIT_A, GAUSSIAN_FIT_B)

    def channel(t, fit):
        return sum((a / T) * np.exp(-(((t - c * T) / (w * T)) ** 2)) for a, c, w in fit)

    return PulseSchedule(T, lambda t: np.stack([channel(t, f) for f in fits], -1))


def stirap_pulses(omega0: float, params: ScheduleParams = ScheduleParams()) -> PulseSchedule:
    """Counterintuitive Gaussian pair of width 0.2 T.

    The channel on the initially empty branch (qubits 1-3) peaks first at
    0.35 T, the qubit-4 channel at 0.65 T. omega0 is the channel peak.
    """
    if not (omega0 > 0 and math.isfinite(omega0)):
        raise ValueError(f"omega0 must be positive, got {omega0}")
    t0, tc = 0.15 * params.T, 0.20 * params.T
    peaks = np.array([0.5 * params.T - t0, 0.5 * params.T + t0])
    return PulseSchedule(params.T, lambda t: omega0 * np.exp(-(((t[:, None] - peaks) / tc) ** 2)))


def scaled(schedule: PulseSchedule, factor: float) -> PulseSchedule:
    """Same waveforms with every amplitude multiplied by `factor`."""
    envelope = schedule.envelope
    return replace(schedule, envelope=lambda t: factor * envelope(t))
