"""Runs one point through a batched propagator, for tests that give H as a
function of time."""

import numpy as np

from squidw.dynamics import node_times


def one_point(propagate, h_of_t, *args, duration=1.0, n_frames=2):
    """`propagate` on a single point, without a batch axis.

    h_of_t(t) returns one 10x10 H; it is evaluated at the RK4 nodes that the
    propagator asks for. args are the propagator's positional arguments
    after h_fn, for one point: (psi0, grid) or (noise, rho0, grid).
    """
    *noise, state0, grid = args
    nodes = node_times(grid.n_steps, duration)
    traj = propagate(
        lambda k: np.asarray(h_of_t(nodes[k]))[None],
        *[[n] for n in noise],
        np.asarray(state0)[None],
        grid,
        duration=duration,
        n_frames=n_frames,
    )
    return traj.point(0)


def sampled_once(h_at_nodes, n_steps, duration=1.0):
    """An h_of_t for one_point whose H is built once for every RK4 node.

    h_at_nodes(ts) returns one H per time of the array ts, so drives whose
    controls take an array of times are sampled in one call; the nodes are
    those one_point asks for at n_steps and duration.
    """
    nodes = node_times(n_steps, duration)
    return dict(zip(nodes, h_at_nodes(nodes))).__getitem__
