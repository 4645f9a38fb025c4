"""Runs one point through a batched propagator, for tests that give H as a
function of time."""

import numpy as np

from squidw.dynamics import node_times


def one_point(propagate, h_of_t, *args, duration=1.0, n_frames=2):
    """`propagate` on a single point, without a batch axis.

    h_of_t(t) returns one 10x10 H; it is evaluated at the RK4 nodes that the
    propagator asks for. args are the propagator's positional arguments
    after h_fn, for one point: (psi0, grid) or (lindblads, rho0, grid).
    """
    *operators, state0, grid = args
    nodes = node_times(grid.n_steps, duration)
    traj = propagate(
        lambda k: np.asarray(h_of_t(nodes[k]))[None],
        *[[ops] for ops in operators],
        np.asarray(state0)[None],
        grid,
        duration=duration,
        n_frames=n_frames,
    )
    return traj.point(0)
