"""squidw benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; squidw is imported from its src/ directory.
--trace 0 times whole passes with tracing off and prints the end-to-end
metrics; --trace 1 makes one untraced and one traced pass and prints the
per-layer metrics. The last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics. See bench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import multiprocessing
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import stats
from contention import ContentionProbe
from tracer import H_BUILD, PROPAGATORS, Patcher, Tracer, instrument
from workloads import BLAS_THREAD_VARS, SRC, WORKLOADS, PassResult, nproc, program_env

ROOT = SRC.parent
GOLDEN_PATH = Path(__file__).resolve().parent / "golden.json"

MIN_PASSES = 2  # the byte-identity check compares each pass with the one before
SETUP_REPEATS = 7

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "points_per_s": "1/s",
    "peak_rss_mb": "MB",
    "checks_passed": "count",
}

REPRODUCE_TARGETS = ("fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "table1", "table2", "realistic")


def per_layer_units() -> dict:
    units = {}
    for name, unit in (
        ("pulse_design.qubit_amplitudes.calls", "count"),
        ("pulse_design.qubit_amplitudes.self_s", "s"),
        ("pulse_design.qubit_amplitudes.us_per_call", "us"),
        ("pulse_design.modified_controls.calls", "count"),
        ("pulse_design.modified_controls.self_s", "s"),
        ("state_space.drive_hamiltonian.calls", "count"),
        ("state_space.drive_hamiltonian.self_s", "s"),
        ("state_space.drive_hamiltonian.us_per_call", "us"),
        ("state_space.h_builds_per_step", "1/step"),
    ):
        units[name] = unit
    for prop in PROPAGATORS:
        units[f"{prop}.calls"] = "count"
        units[f"{prop}.steps"] = "count"
        units[f"{prop}.self_s"] = "s"
        units[f"{prop}.us_per_step"] = "us"
        units[f"{prop}.computed_flops_per_step"] = "flop"
    units.update(
        {
            "experiments.evaluate_point.calls": "count",
            "experiments.evaluate_point.self_s": "s",
            "experiments.write_csv.calls": "count",
            "experiments.write_csv.bytes": "B",
            "experiments.write_csv.self_s": "s",
            "experiments.write_meta.calls": "count",
            "experiments.write_meta.self_s": "s",
            "experiments.pool.created": "count",
            "experiments.pool.cpu_util": "frac",
        }
    )
    units.update({f"cli.reproduce.{t}.s": "s" for t in REPRODUCE_TARGETS})
    units.update(
        {
            "cli.self_s": "s",
            "dressed_frames.verify_cancellation.calls": "count",
            "dressed_frames.verify_cancellation.self_s": "s",
            "dressed_frames.dressing_transform.calls": "count",
            "trace.overhead_frac": "frac",
        }
    )
    return units


PER_LAYER_UNITS = per_layer_units()

# Real floating-point operations of one RK4 step on the N = 10 state, counted
# from operand shapes: complex multiply-add 8, complex product 6, complex sum
# or real-times-complex 2. H(t) assembly is not included.
N = 10
COMPUTED_FLOPS_PER_STEP = {
    # 4 products H @ v (8N^2), 4 scalings by -1j (6N), 3 stage states
    # psi + c*k (4N), combination k1 + 2k2 + 2k3 + k4, times h/6, plus psi (14N).
    "dynamics.propagate_schrodinger": 4 * 8 * N**2 + 4 * 6 * N + 3 * 4 * N + 14 * N,
    # Per right-hand side: H @ r and r @ H (8N^3 each), their difference (2N^2),
    # times -1j (6N^2), gain * r (2N^2), sum (2N^2), scatter @ diag (4N^2),
    # diagonal add (2N). Then 3 stage states (4N^2 each), the combination
    # (14N^2) and the re-symmetrization (conjugate, add, halve: 5N^2).
    "dynamics.propagate_lindblad": 4 * (16 * N**3 + 16 * N**2 + 2 * N) + 3 * 4 * N**2 + 14 * N**2 + 5 * N**2,
}


def load_golden(name: str) -> dict:
    with open(GOLDEN_PATH, encoding="utf-8") as fh:
        return json.load(fh)[name]


def attempt(fn, workdir: Path):
    """Run one pass; a pass that raises becomes a failed result."""
    workdir.mkdir(parents=True)
    t0 = time.perf_counter()
    try:
        return fn(workdir)
    except Exception as exc:  # noqa: BLE001 - any program error is a failed pass
        error = f"{type(exc).__name__}: {exc}"
        return PassResult(t0, time.perf_counter() - t0, [], 0, "", 0.0, error=error)


def failures(result, expected: int, golden: dict | None, previous_digest: str | None) -> tuple[int, list]:
    """Failed points of one pass, with the reasons.

    A point fails when the pass raised or exited non-zero, when its final
    fidelity misses the golden one by more than stats.GOLDEN_TOL, or when it
    is missing. If the bytes written differ from the previous pass, every
    point fails.
    """
    if result.error:
        return expected, [result.error]
    reasons = []
    if golden is not None:
        for key, fid in result.points:
            if key not in golden or stats.golden_mismatch(fid, golden[key]):
                reasons.append(f"{key}: F={fid!r}, golden {golden.get(key)!r}")
    failed = len(reasons)
    missing = expected - len(result.points)
    if missing > 0:
        reasons.append(f"{missing} points missing")
        failed += missing
    if previous_digest is not None and result.digest != previous_digest:
        reasons.append("output bytes differ from the previous pass")
        failed = expected
    return min(failed, expected), reasons


def check_passes(results, golden: dict | None) -> tuple[int, int, list]:
    """(attempted, failed, reasons) over passes compared in order."""
    attempted = failed = 0
    reasons = []
    previous = None
    for r in results:
        expected = golden["points"] if golden else max(len(r.points), 1)
        n, why = failures(r, expected, golden["fidelity"] if golden else None, previous)
        attempted += expected
        failed += n
        reasons.extend(why)
        if not r.error:
            previous = r.digest
    return attempted, failed, reasons


def measure_setup(probe: ContentionProbe) -> tuple[float, float]:
    """perf_counter() before and after importing squidw and squidw.cli in a
    fresh interpreter (the clock is shared between processes). The
    interpreter runs in a process group of its own, which the probe pauses."""
    code = (
        "import time; t0 = time.perf_counter(); import squidw, squidw.cli; "
        "print(repr(t0), repr(time.perf_counter()))"
    )
    with subprocess.Popen(
        [sys.executable, "-c", code], env=program_env(), cwd=ROOT, stdout=subprocess.PIPE, text=True,
        start_new_session=True,
    ) as proc:
        with probe.watch(proc.pid):
            out, _ = proc.communicate()
    if proc.returncode:
        raise RuntimeError(f"importing squidw failed with exit code {proc.returncode}")
    t0, t1 = out.split()
    return float(t0), float(t1)


@contextlib.contextmanager
def pinned(enabled: bool = True):
    """Keep this process, and the threads and children it starts, on one CPU."""
    before = os.sched_getaffinity(0)
    if enabled:
        os.sched_setaffinity(0, {min(before)})
    try:
        yield
    finally:
        os.sched_setaffinity(0, before)


def end_to_end(workload, seconds: float, workdir: Path, golden: dict | None, setup_repeats: int = SETUP_REPEATS):
    with pinned(), ContentionProbe() as setup_probe:
        setup = [measure_setup(setup_probe) for _ in range(setup_repeats)]
    # The contention probe must share an in-process workload's CPU, so that
    # workload is pinned; a subprocess workload needs every CPU for its pool
    # and is paused by signals instead.
    with pinned(not workload.runs_in_subprocess), ContentionProbe() as probe:
        results = []
        start = time.perf_counter()
        while True:
            elapsed = time.perf_counter() - start
            if len(results) >= MIN_PASSES and elapsed >= seconds:
                break
            results.append(attempt(lambda d: workload.timed_pass(d, probe), workdir / f"pass{len(results)}"))
            if len(results) > 1:  # only the last pass's files are needed for the byte check
                shutil.rmtree(workdir / f"pass{len(results) - 2}")
    attempted, failed, reasons = check_passes(results, golden)
    walls = [r.wall_s for r in results]
    corrected = [probe.corrected(r.started, r.started + r.wall_s) for r in results]
    tail_label, tail_value = stats.tail(walls)
    usage = resource.getrusage(resource.RUSAGE_CHILDREN if workload.runs_in_subprocess else resource.RUSAGE_SELF)
    wall = statistics.median(corrected)
    values = {
        "setup_s": statistics.median([setup_probe.corrected(t0, t1) for t0, t1 in setup]),
        "wall_s": wall,
        "points_per_s": (attempted / len(results)) / wall,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
        "checks_passed": min(r.checks_passed for r in results),
    }
    notes = {
        "setup_s": f"median of {len(setup)} fresh imports, contention-corrected",
        "wall_s": f"median of {len(walls)} passes, contention-corrected",
        "failed_frac": failed / attempted,
        "raw_setup_s": statistics.median([t1 - t0 for t0, t1 in setup]),
        "raw_wall_s": statistics.median(walls),
        "raw_wall_s_tail": f"{tail_label} {tail_value:.6g}",
        "pass_walls_s": walls,
        "probe_floor_us": probe.floor_s() * 1e6,
    }
    return values, END_TO_END_UNITS, attempted, failed, reasons, notes


def traced(workload, workdir: Path, golden: dict | None):
    tracer = Tracer()
    with pinned(), ContentionProbe() as probe:
        untraced = attempt(workload.in_process_pass, workdir / "untraced")
        with Patcher() as patcher:
            instrument(tracer, patcher)
            with_trace = attempt(workload.in_process_pass, workdir / "traced")
    results = [untraced, with_trace]
    # Pool figures come from an untraced pass at the timed command's --jobs,
    # unpinned, with only the pool counted: forked workers cannot report spans
    # back to this process, and cpu_s includes them once the pool has joined.
    if workload.runs_in_subprocess:
        pool_tracer = Tracer()
        with Patcher() as patcher:
            patcher.set(multiprocessing, "Pool", pool_tracer.wrap("experiments.pool", multiprocessing.Pool))
            pooled = attempt(lambda d: workload.in_process_pass(d, jobs=workload.jobs), workdir / "pooled")
        results.append(pooled)
        pools, cpu_util = pool_tracer.calls("experiments.pool"), pooled.cpu_s / (pooled.wall_s * workload.jobs)
    else:
        pools, cpu_util = tracer.calls("experiments.pool"), untraced.cpu_s / untraced.wall_s
    attempted, failed, reasons = check_passes(results, golden)
    plain, slowed = (probe.corrected(r.started, r.started + r.wall_s) for r in (untraced, with_trace))
    values = layer_metrics(tracer, slowed / plain - 1.0, pools, cpu_util)
    notes = {
        "failed_frac": failed / attempted,
        "trace.overhead_frac": "contention-corrected traced over untraced pass",
        "raw_untraced_wall_s": untraced.wall_s,
        "raw_traced_wall_s": with_trace.wall_s,
    }
    return values, PER_LAYER_UNITS, attempted, failed, reasons, notes


def layer_metrics(tracer: Tracer, overhead: float, pools: int, cpu_util: float) -> dict:
    def per(value: float, count: float, scale: float = 1.0) -> float:
        return value / count * scale if count else 0.0

    v = {}
    for name in ("pulse_design.qubit_amplitudes", "state_space.drive_hamiltonian"):
        v[f"{name}.calls"] = tracer.calls(name)
        v[f"{name}.self_s"] = tracer.self_s(name)
        v[f"{name}.us_per_call"] = per(tracer.total_s(name), tracer.calls(name), 1e6)
    v["pulse_design.modified_controls.calls"] = tracer.calls("pulse_design.modified_controls")
    v["pulse_design.modified_controls.self_s"] = tracer.self_s("pulse_design.modified_controls")
    steps = sum(tracer.counts[f"{p}.steps"] for p in PROPAGATORS)
    v["state_space.h_builds_per_step"] = per(tracer.calls_under(H_BUILD, PROPAGATORS), steps)
    for prop in PROPAGATORS:
        n = tracer.counts[f"{prop}.steps"]
        v[f"{prop}.calls"] = tracer.calls(prop)
        v[f"{prop}.steps"] = int(n)
        v[f"{prop}.self_s"] = tracer.self_s(prop)
        v[f"{prop}.us_per_step"] = per(tracer.self_s(prop), n, 1e6)
        v[f"{prop}.computed_flops_per_step"] = COMPUTED_FLOPS_PER_STEP[prop]
    for name in ("experiments.evaluate_point", "experiments.write_csv", "experiments.write_meta"):
        v[f"{name}.calls"] = tracer.calls(name)
        v[f"{name}.self_s"] = tracer.self_s(name)
    v["experiments.write_csv.bytes"] = int(tracer.counts["experiments.write_csv.bytes"])
    v["experiments.pool.created"] = pools
    v["experiments.pool.cpu_util"] = cpu_util
    for target in REPRODUCE_TARGETS:
        v[f"cli.reproduce.{target}.s"] = tracer.total_s(f"cli.reproduce.{target}")
    v["cli.self_s"] = tracer.self_s("cli")
    v["dressed_frames.verify_cancellation.calls"] = tracer.calls("dressed_frames.verify_cancellation")
    v["dressed_frames.verify_cancellation.self_s"] = tracer.self_s("dressed_frames.verify_cancellation")
    v["dressed_frames.dressing_transform.calls"] = tracer.calls("dressed_frames.dressing_transform")
    v["trace.overhead_frac"] = overhead
    return v


def environment(seed: int) -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "nproc": nproc(),
        "machine": platform.machine(),
        "seed": seed,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    if not (SRC / "squidw" / "__init__.py").is_file():
        print(f"error: no squidw sources under {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2
    # Pin BLAS before numpy loads, here and in every subprocess.
    os.environ.update(program_env())
    sys.path.insert(0, str(SRC))
    import squidw

    if Path(squidw.__file__).resolve().parent != SRC / "squidw":
        print(f"error: imported squidw from {squidw.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload](args.seed)
    golden = load_golden(args.workload)
    workdir = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    try:
        if args.trace:
            values, units, attempted, failed, reasons, notes = traced(workload, workdir, golden)
        else:
            values, units, attempted, failed, reasons, notes = end_to_end(workload, args.seconds, workdir, golden)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):  # left in place while another run uses it
            workdir.parent.rmdir()

    env = environment(args.seed)
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    for name, value in values.items():
        note = notes.get(name)
        print(f"  {name:<52} {value:>14.6g} {units[name]:<6}" + (f"  ({note})" if note else ""))
    print(f"  {'failed_frac':<52} {notes['failed_frac']:>14.6g} {'frac':<6}  ({failed} of {attempted} operations)")
    for name, text in (
        ("raw_setup_s", "s       (not corrected for contention)"),
        ("raw_wall_s", "s       (median pass wall time, not corrected)"),
        ("probe_floor_us", "us      (fastest contention probe of the run)"),
    ):
        if name in notes:
            print(f"  {name:<52} {notes[name]:>14.6g} {text}")
    if "raw_wall_s_tail" in notes:
        print(f"  {'raw_wall_s_tail':<52} {notes['raw_wall_s_tail']:>21} s       (highest supported percentile, not corrected)")
    for reason in reasons[:20]:
        print(f"  FAILED {reason}")
    print("env " + json.dumps(env, sort_keys=True))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
