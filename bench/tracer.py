"""Span tracing from outside the program.

The benchmark times each layer of squidw by replacing public module
attributes (functions such as ``squidw.experiments.drive_hamiltonian`` or the
method ``PulseSchedule.qubit_amplitudes``) with timing wrappers, and puts the
originals back afterwards. Per-step functions run thousands of times per
point, so spans are not stored one by one: each (parent, name) pair keeps a
call count, its total time and the time of its wrapped children.
"""

from __future__ import annotations

import functools
import multiprocessing
import os
import time
from collections import defaultdict


class Tracer:
    """Aggregated spans keyed by (parent name, name), plus named counters."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self._stack: list[list] = []  # [name, start, time spent in children]
        self.spans: dict[tuple, list] = {}  # (parent, name) -> [calls, total, child]
        self.counts: defaultdict[str, float] = defaultdict(float)

    def enter(self, name: str) -> None:
        self._stack.append([name, self.clock(), 0.0])

    def exit(self) -> None:
        name, start, child = self._stack.pop()
        elapsed = self.clock() - start
        parent = self._stack[-1][0] if self._stack else None
        if self._stack:
            self._stack[-1][2] += elapsed
        agg = self.spans.setdefault((parent, name), [0, 0.0, 0.0])
        agg[0] += 1
        agg[1] += elapsed
        agg[2] += child

    def wrap(self, name: str, fn, after=None):
        """fn inside a span; after(result, args, kwargs) runs on success."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.exit()
            if after is not None:
                after(result, args, kwargs)
            return result

        return traced

    def calls(self, name: str) -> int:
        return sum(v[0] for (_, n), v in self.spans.items() if n == name)

    def total_s(self, name: str) -> float:
        return sum(v[1] for (_, n), v in self.spans.items() if n == name)

    def self_s(self, name: str) -> float:
        """Total time of the span minus the time its wrapped children cover."""
        return sum(v[1] - v[2] for (_, n), v in self.spans.items() if n == name)

    def calls_under(self, name: str, parents) -> int:
        return sum(v[0] for (p, n), v in self.spans.items() if n == name and p in parents)


class Patcher:
    """Replaces attributes and restores every original on exit, newest first."""

    def __init__(self):
        self._saved: list[tuple] = []

    def set(self, owner, attr: str, value) -> None:
        if isinstance(owner, dict):
            self._saved.append((owner, attr, owner[attr]))
            owner[attr] = value
        else:
            self._saved.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, value)

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self.restore()


PROPAGATORS = ("dynamics.propagate_schrodinger", "dynamics.propagate_lindblad")
H_BUILD = "state_space.h_build"


def instrument(tracer: Tracer, patcher: Patcher) -> None:
    """Wrap every layer boundary that the workloads cross.

    Each function is wrapped in every module that looks it up by name, so a
    call is timed once, by whichever module made it. Attributes that a later
    version of squidw no longer has are skipped; their metrics read zero.
    """
    from squidw import cli, dressed_frames, experiments, pulse_design, state_space

    def wrap(owner, attr: str, name: str, after=None) -> None:
        target = owner if isinstance(owner, dict) else owner.__dict__
        if attr in target:
            patcher.set(owner, attr, tracer.wrap(name, target[attr], after))

    wrap(pulse_design.PulseSchedule, "qubit_amplitudes", "pulse_design.qubit_amplitudes")
    for mod in (pulse_design, experiments):
        wrap(mod, "modified_controls", "pulse_design.modified_controls")
    for mod in (state_space, experiments, cli):
        wrap(mod, "drive_hamiltonian", "state_space.drive_hamiltonian")

    def propagator(name: str, fn):
        @functools.wraps(fn)
        def traced(h_fn, *args, **kwargs):
            tracer.enter(name)
            try:
                traj = fn(tracer.wrap(H_BUILD, h_fn), *args, **kwargs)
            finally:
                tracer.exit()
            tracer.counts[f"{name}.steps"] += getattr(traj, "n_steps", 0)
            return traj

        return traced

    for mod in (experiments, cli):
        for name in PROPAGATORS:
            attr = name.split(".")[1]
            if attr in mod.__dict__:
                patcher.set(mod, attr, propagator(name, mod.__dict__[attr]))

    def count_bytes(_result, args, kwargs) -> None:
        path = kwargs["path"] if "path" in kwargs else args[0]
        tracer.counts["experiments.write_csv.bytes"] += os.path.getsize(path)

    wrap(experiments, "evaluate_point", "experiments.evaluate_point")
    wrap(experiments, "write_csv", "experiments.write_csv", after=count_bytes)
    wrap(experiments, "write_meta", "experiments.write_meta")
    wrap(multiprocessing, "Pool", "experiments.pool")

    for target in list(getattr(cli, "_REPRODUCERS", {})):
        wrap(cli._REPRODUCERS, target, f"cli.reproduce.{target}")
    wrap(cli, "main", "cli")
    for mod in (dressed_frames, cli):
        wrap(mod, "verify_cancellation", "dressed_frames.verify_cancellation")
        wrap(mod, "dressing_transform", "dressed_frames.dressing_transform")
