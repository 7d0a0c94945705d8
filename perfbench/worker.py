"""One repetition of one workload, in a fresh process.

    python3 perfbench/worker.py <workload> <seed> <trace 0|1> <out_dir>

Runs the workload's config through ``diskflow.cli.run`` from the checkout's
``src`` and prints one JSON record as the last line of standard output.  A
``DiskflowError`` or a failed correctness gate marks the repetition failed;
any other error exits non-zero.

Timing hooks, all installed from here at diskflow's own import sites:
  * ``cli.build_setup`` is wrapped so that set-up is timed as build_setup
    plus the first call that fills each factorization cache (one startup
    step and one regular step, and for the nonlinear kinds one convection
    term, all discarded);
  * the workload's step function is wrapped by a clock that stamps each step
    boundary and runs the per-step correctness gate and, every REF_EVERY
    seconds, one timing of the reference kernel; their time is taken out of
    every reported timing.
With trace 1 every public function is traced as well (see tracer.py).

Every timing is reported scaled to the nominal host speed (reference.py);
the raw timings are kept in the record under ``raw``.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import sys
from contextlib import nullcontext
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import layers  # noqa: E402
from reference import REF_EVERY, SAMPLES, Reference  # noqa: E402
from tracer import Trace, Tracer, install  # noqa: E402
from workloads import (  # noqa: E402
    WORKLOADS,
    HeatMonitor,
    LyapunovMonitor,
    check_outputs,
    kato_iterations,
    seed_factor,
    write_config,
)

# the traced run's time outside every traced call may be at most this share
# of its wall time; it is under 0.2 % when the wraps reach every import site,
# and 1.6-6 % when the marching functions are left unwrapped
UNTRACED_LIMIT = 0.01


def import_diskflow():
    """Import the package from this checkout's src, never an installed copy."""
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    # modules diskflow imports lazily; loaded here so set-up times compute only
    import numpy.polynomial.legendre  # noqa: F401
    import scipy.linalg  # noqa: F401
    import scipy.sparse  # noqa: F401

    import diskflow
    import diskflow.cli

    if os.path.dirname(os.path.dirname(os.path.abspath(diskflow.__file__))) != src:
        raise SystemExit(f"diskflow imported from {diskflow.__file__}, not from {src}")
    return diskflow


class StepClock:
    """Stand-in for a step function: stamps each call, then runs the gate
    and, every REF_EVERY seconds, one timing of the reference kernel.  The
    time of both is taken out of every timing (an "aside" span when traced).
    """

    def __init__(self, fn, monitor, reference, tracer):
        self.fn, self.monitor, self.reference, self.tracer = fn, monitor, reference, tracer
        self.ticks = []
        self.excluded = 0.0
        self.next_sample = 0.0

    def __call__(self, *args, **kwargs):
        self.ticks.append(perf_counter() - self.excluded)
        out = self.fn(*args, **kwargs)
        t0 = perf_counter()
        sample = t0 >= self.next_sample
        if self.monitor is not None or sample:
            with nullcontext() if self.tracer is None else self.tracer.span("aside"):
                if self.monitor is not None:
                    self.monitor(args, out)
                if sample:
                    self.reference.measure(1)
            t1 = perf_counter()
            self.excluded += t1 - t0
            if sample:
                self.next_sample = t1 + REF_EVERY
        return out


def warm_up(setup, fns):
    """Fill the factorization caches the run will use; results are discarded."""
    dt = float(setup["time"]["dt"])
    if setup["experiment"] == "mode-heat":
        state, params = setup["scalar_state"], setup["scalar_params"]
        fns["step"](state, params, dt, first_step=True)
        fns["step"](state, params, dt)
        return
    state = setup["state"]
    fns["step_stokes"](state, dt, first_step=True)
    fns["step_stokes"](state, dt)
    if "ns_config" in setup:
        fns["nonlinear_term"](state.decomp, state.params, setup["ns_config"])


def _blas_threads():
    """Thread count of each OpenBLAS numpy and scipy load, by library file."""
    import ctypes
    import glob

    import numpy
    import scipy

    out = {}
    for pkg in (numpy, scipy):
        for path in glob.glob(os.path.dirname(pkg.__file__) + ".libs/*openblas*"):
            lib = ctypes.CDLL(path)
            for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                        "openblas_get_num_threads64_", "openblas_get_num_threads"):
                fn = getattr(lib, sym, None)
                if fn is not None:
                    fn.argtypes, fn.restype = [], ctypes.c_int
                    out[os.path.basename(path)] = fn()
                    break
    return out


def environment():
    import hashlib
    import subprocess

    import numpy
    import scipy

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    commit = None
    if os.path.exists(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src", "diskflow")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    blas = {pkg.__name__: pkg.show_config(mode="dicts")["Build Dependencies"]["blas"]
            for pkg in (numpy, scipy)}
    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {k: f"{v.get('name')} {v.get('version')}" for k, v in blas.items()},
        "blas_threads": _blas_threads(),
        "DISKFLOW_THREADS": os.environ.get("DISKFLOW_THREADS"),
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
    }


def run_once(workload, seed, trace, out_dir):
    diskflow = import_diskflow()
    from diskflow import cli, dynbc, navier_stokes, stokes
    from diskflow.presets import get_preset

    preset = get_preset(workload.preset)
    amplitude = preset.data[workload.amplitude_key] * seed_factor(workload, seed)
    monitor = {"heat-k0": HeatMonitor, "stokes-k4": LyapunovMonitor}.get(workload.name)
    monitor = monitor() if monitor else None
    reference = Reference()  # before install: the tracer never sees it
    tracer = Tracer() if trace else None
    if tracer is not None:
        install(tracer)
    # read after tracing is installed and before the step clock: the warm-up
    # is traced in a traced run but never stamped as a step
    warm = {"step": dynbc.step, "step_stokes": stokes.step_stokes,
            "nonlinear_term": navier_stokes.nonlinear_term}
    site = sys.modules[f"diskflow.{workload.step_site[0]}"]
    clock = StepClock(getattr(site, workload.step_site[1]), monitor, reference, tracer)
    setattr(site, workload.step_site[1], clock)

    marks = {}
    build_setup = cli.build_setup

    def timed_build_setup(preset, overrides=None):
        with nullcontext() if tracer is None else tracer.span("setup"):
            t0 = perf_counter()
            setup = build_setup(preset, overrides)
            warm_up(setup, warm)
            marks["setup_s"] = perf_counter() - t0
        reference.measure()
        if tracer is not None:
            tracer.begin("run")
        marks["run_start"] = perf_counter()
        return setup

    cli.build_setup = timed_build_setup
    config = write_config(workload, amplitude, float(preset.time["dt"]), out_dir)
    failures = []
    reference.measure()
    try:
        status = cli.run(config)
    except diskflow.DiskflowError as exc:
        failures.append(f"{type(exc).__name__}: {exc}")
        status = None
    run_end = perf_counter()
    if tracer is not None and tracer.stack:
        tracer.end()
    reference.measure()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if "run_start" not in marks:
        return {"ok": False, "failures": failures}
    if status is not None:
        if status != 0:
            failures.append(f"diskflow run exited with status {status}")
        failures += check_outputs(workload, out_dir)
    if monitor is not None:
        failures += monitor.failed()
    ticks = clock.ticks
    raw = {
        "setup_s": marks["setup_s"],
        "wall_s": run_end - marks["run_start"] - clock.excluded,
        "step_ms": [1e3 * (b - a) for a, b in zip(ticks, ticks[1:])],
    }
    setup_scale = reference.scale(0, 2 * SAMPLES)  # the timings either side of set-up
    scale = reference.scale(SAMPLES, None)  # those of the run and either side of it
    record = {
        "setup_s": setup_scale * raw["setup_s"],
        "wall_s": scale * raw["wall_s"],
        "steps": len(ticks),
        "step_ms": [scale * ms for ms in raw["step_ms"]],
        "peak_rss_mb": peak_rss_mb,
        "amplitude": amplitude,
        "scale": scale,
        "setup_scale": setup_scale,
        "reference_s": reference.samples,
        "raw": raw,
        "env": environment(),
    }
    if tracer is not None:
        record.update(traced(workload, tracer, len(ticks), out_dir, status, scale, setup_scale))
        failures += record.pop("trace_failures")
    record.update(ok=not failures, failures=failures)
    return record


def traced(workload, tracer, steps, out_dir, status, scale, setup_scale):
    """Per-layer values and the trace self-check of a traced repetition.

    Two checks: the self times add up to the traced wall time (true of any
    well-nested trace, so it guards the tracer's bookkeeping, not coverage),
    and the run's own self time, the time spent outside every traced call,
    stays under UNTRACED_LIMIT of the traced wall time (this one fails when
    a wrap misses an import site the run goes through).
    """
    trace = Trace(tracer.spans)
    with open(os.path.join(out_dir, "spans.json"), "w") as fh:
        json.dump(tracer.spans, fh)
    wall = trace.roots.get("run", 0.0) - trace.total(["aside"])
    iters = kato_iterations(out_dir) if workload.name == "kato-small" and status is not None else 0
    values, failures = layers.layer_values(workload.name, trace, max(steps, 1), iters,
                                           scale, setup_scale)
    self_sum = sum(trace.self_total([n]) for n in trace.names() if n != "aside")
    if abs(self_sum - wall) > 1e-6 * wall or trace.min_self() < -1e-9:
        failures.append(f"self times sum to {self_sum:.6f} s, traced wall is {wall:.6f} s")
    untraced = trace.self_total(["run"]) / wall
    if not untraced <= UNTRACED_LIMIT:
        failures.append(f"{untraced:.1%} of the traced run lies outside every traced call")
    return {"traced_wall_s": scale * wall, "untraced_share": untraced, "layers": values,
            "trace_failures": failures}


def main(argv):
    name, seed, trace, out_dir = argv
    os.makedirs(out_dir, exist_ok=True)
    record = run_once(WORKLOADS[name], int(seed), trace == "1", out_dir)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
