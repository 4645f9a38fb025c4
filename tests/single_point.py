"""Runs one point through a batched propagator, for tests that give H as a
function of time."""

import numpy as np

from squidw.dynamics import node_times


def one_point(propagate, h_of_t, *args, duration=1.0, n_frames=2):
    """`propagate` on a single point, without a batch axis.

    h_of_t(t) returns one 10x10 H; it is evaluated at the RK4 nodes that the
    propagator asks for. args are the propagator's positional arguments
    after h_fn, for one point: (psi0, n_steps) or (noise, rho0, n_steps).
    """
    *noise, state0, n_steps = args
    nodes = node_times(n_steps, duration)
    traj = propagate(
        lambda k: np.asarray(h_of_t(nodes[k]))[None],
        *[[n] for n in noise],
        np.asarray(state0)[None],
        n_steps,
        duration=duration,
        n_frames=n_frames,
    )
    return traj.point(0)

