"""The benchmark's four workloads, each driven through squidw's public entry
points: the ``experiments.run_*`` drivers and ``cli.main`` / the ``squidw``
command. Every pass writes into its own directory and returns the final
fidelity of every point it produced, so the caller can check them.

Closed loop, one client: each pass starts after the previous one ended.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import os
import random
import re
import resource
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from tracer import Patcher

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"
FULL_STEPS = 2000
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def program_env() -> dict:
    """Environment for squidw subprocesses: checkout sources, BLAS on one thread."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    env.update({var: "1" for var in BLAS_THREAD_VARS})
    return env


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def cpu_seconds() -> float:
    """User + system CPU of this process and of every child it has waited for."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


@dataclass
class PassResult:
    """One pass of a workload."""

    started: float  # time.perf_counter() when the timed block began
    wall_s: float
    points: list  # (key, final fidelity) for every point the pass produced
    checks_passed: int
    digest: str  # sha256 of everything the pass wrote (files, or stdout for verify)
    cpu_s: float
    error: str | None = None  # set when the pass as a whole failed


def digest_dir(path: Path) -> str:
    h = hashlib.sha256()
    for f in sorted(path.iterdir()):
        h.update(f.name.encode() + b"\0" + f.read_bytes() + b"\0")
    return h.hexdigest()


@contextlib.contextmanager
def _timed():
    """Yields a dict that receives start, wall_s and cpu_s of the block."""
    box = {}
    cpu0, box["start"] = cpu_seconds(), time.perf_counter()
    try:
        yield box
    finally:
        box["wall_s"] = time.perf_counter() - box["start"]
        box["cpu_s"] = cpu_seconds() - cpu0


class Workload:
    name = ""
    runs_in_subprocess = False  # timed passes run as a fresh process

    def timed_pass(self, workdir: Path, probe=None) -> PassResult:
        """A pass as measured for the end-to-end metrics (tracing off).

        `probe` is the running contention.ContentionProbe; work in this
        process needs nothing from it.
        """
        return self.in_process_pass(workdir)

    def in_process_pass(self, workdir: Path) -> PassResult:
        """A pass in this process, so the tracer's wrappers can see it."""
        raise NotImplementedError


class ClosedSweep(Workload):
    """experiments.run_coupling_sweep: closed gaussian points, g in a seeded order."""

    name = "closed_sweep"

    def __init__(self, seed: int, n_steps: int = FULL_STEPS, g_values=range(1, 31)):
        self.n_steps = n_steps
        self.g_values = [float(g) for g in g_values]
        random.Random(seed).shuffle(self.g_values)

    def fig3_verdicts(self, records, workdir: Path) -> int:
        """Checks that pass when the program's own fig3 reproducer judges
        these sweep records (it is handed them instead of sweeping again)."""
        from squidw import cli, experiments

        with Patcher() as patcher, contextlib.redirect_stdout(io.StringIO()):
            patcher.set(experiments, "run_coupling_sweep", lambda **_: records)
            verdicts = cli._reproduce_fig3(cli.RunConfig(n_steps=self.n_steps), str(workdir))
        return sum(1 for v in verdicts if v)

    def in_process_pass(self, workdir: Path) -> PassResult:
        from squidw import experiments

        with _timed() as t:
            records = experiments.run_coupling_sweep(
                g_values=self.g_values, outdir=str(workdir), jobs=1, n_steps=self.n_steps
            )
        return PassResult(
            started=t["start"],
            wall_s=t["wall_s"],
            points=[(f"g={r.g!r}", r.fidelity) for r in records],
            checks_passed=self.fig3_verdicts(records, workdir),
            digest=digest_dir(workdir),
            cpu_s=t["cpu_s"],
        )


class OpenTable(Workload):
    """experiments.run_reference_decoherence_table: the 17 Lindblad rows of table1."""

    name = "open_table"

    def __init__(self, seed: int, n_steps: int = FULL_STEPS):
        self.n_steps = n_steps

    def in_process_pass(self, workdir: Path) -> PassResult:
        from squidw import experiments

        with _timed() as t:
            records, comparisons = experiments.run_reference_decoherence_table(
                outdir=str(workdir), jobs=1, n_steps=self.n_steps
            )
        return PassResult(
            started=t["start"],
            wall_s=t["wall_s"],
            points=[(r.label, r.fidelity) for r in records],
            checks_passed=sum(1 for c in comparisons if c["passed"]),
            digest=digest_dir(workdir),
            cpu_s=t["cpu_s"],
        )


def _run_cli(argv: list) -> tuple[int, str]:
    from squidw import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def _steps_flag(n_steps: int) -> list:
    return [] if n_steps == FULL_STEPS else ["--steps", str(n_steps)]


class Verify(Workload):
    """`squidw verify` in process: the only workload that runs dressed_frames."""

    name = "verify"

    def __init__(self, seed: int, n_steps: int = FULL_STEPS):
        self.n_steps = n_steps

    def in_process_pass(self, workdir: Path) -> PassResult:
        from squidw import experiments

        # The effective-model fidelity is the one point verify integrates to
        # full precision; tap the driver's return value to check it.
        seen = []
        run_effective_model = experiments.run_effective_model

        def tap(*args, **kwargs):
            result = run_effective_model(*args, **kwargs)
            seen.append(result[0])
            return result

        with Patcher() as patcher:
            patcher.set(experiments, "run_effective_model", tap)
            with _timed() as t:
                code, out = _run_cli(["verify", *_steps_flag(self.n_steps)])
        return PassResult(
            started=t["start"],
            wall_s=t["wall_s"],
            points=[("effective_model", f) for f in seen],
            checks_passed=sum(1 for line in out.splitlines() if line.startswith("ok ")),
            digest=hashlib.sha256(out.encode()).hexdigest(),
            cpu_s=t["cpu_s"],
            error=None if code == 0 else f"verify exited {code}",
        )


_CHECKS_LINE = re.compile(r"^(\d+) of (\d+) reference checks pass$", re.M)


def csv_points(outdir: Path) -> list:
    """Final fidelity of every trajectory a reproduce run wrote.

    Sweep-record files (columns label, n_steps, fidelity, ...) hold one point
    per row; the fig4 population trace is one point, its last frame.
    """
    points = []
    for path in sorted(outdir.glob("*.csv")):
        with open(path, newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        if path.name == "population_trace.csv":
            points.append((f"{path.name}:final", float(rows[-1]["fidelity"])))
        elif rows and {"label", "n_steps", "fidelity"} <= rows[0].keys():
            points.extend((f"{path.name}:{r['label']}", float(r["fidelity"])) for r in rows)
    return points


class ReproduceAll(Workload):
    """`squidw reproduce all --jobs 2 -o DIR` as a fresh process."""

    name = "reproduce_all"
    runs_in_subprocess = True

    def __init__(self, seed: int, n_steps: int = FULL_STEPS, target: str = "all"):
        self.n_steps = n_steps
        self.target = target
        self.jobs = min(2, nproc())

    def _argv(self, workdir: Path, jobs: int) -> list:
        return ["reproduce", self.target, "--jobs", str(jobs), "-o", str(workdir), *_steps_flag(self.n_steps)]

    def _result(self, workdir: Path, t: dict, code: int, out: str) -> PassResult:
        found = _CHECKS_LINE.search(out)
        return PassResult(
            started=t["start"],
            wall_s=t["wall_s"],
            points=csv_points(workdir),
            checks_passed=int(found.group(1)) if found else 0,
            digest=digest_dir(workdir),
            cpu_s=t["cpu_s"],
            error=None if code == 0 and found else f"reproduce exited {code}: {out[-300:]!r}",
        )

    def timed_pass(self, workdir: Path, probe=None) -> PassResult:
        """Run the command in its own process group, which the probe pauses."""
        with _timed() as t:
            with subprocess.Popen(
                [sys.executable, "-m", "squidw.cli", *self._argv(workdir, self.jobs)],
                env=program_env(),
                stdout=subprocess.PIPE,
                stderr=subprocess.STDOUT,
                text=True,
                start_new_session=True,
            ) as proc:
                with probe.watch(proc.pid) if probe else contextlib.nullcontext():
                    out, _ = proc.communicate()
        return self._result(workdir, t, proc.returncode, out)

    def in_process_pass(self, workdir: Path, jobs: int = 1) -> PassResult:
        """Serial by default: forked pool workers would not report spans back."""
        with _timed() as t:
            code, out = _run_cli(self._argv(workdir, jobs))
        return self._result(workdir, t, code, out)


WORKLOADS = {w.name: w for w in (ClosedSweep, OpenTable, ReproduceAll, Verify)}
