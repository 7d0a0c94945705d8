"""Per-layer metrics of the traced run, each tied to the workloads it should move.

A row names a metric, its unit, the layer it belongs to, the workloads on
which a change to that layer should move an end-to-end metric, how it is
reduced from the spans, and the span names it reads.  The reported name is
``<workload>.<metric>``, one per (row, workload) pair, so every reported
number comes from a workload that calls the layer.

Reductions ("run" spans lie below the run root, "setup" spans below the
set-up root):
    mean       mean duration per call, us
    mean_self  mean self time per call, us
    per_step   calls per marched step
    calls      total calls
    setup_ms   total duration in set-up, ms
    factorize  calls in set-up and run together
    total_ms   total duration in the run, ms

Durations are scaled to the nominal host speed like every other timing
(reference.py).
"""

from __future__ import annotations

HEAT, STOKES, IMEX, KATO = "heat-k0", "stokes-k4", "imex-q32", "kato-small"
ALL = (IMEX, STOKES, KATO, HEAT)

INVERT = ("elliptic.invert_z", "elliptic.invert_order_k")
TRANSFORM = ("elliptic.z_transform", "elliptic.transform_order_k")

ROWS = (
    ("presets.build_setup.ms", "ms", "presets", ALL, "setup_ms", ("presets.build_setup",)),
    ("grid.ddr.us", "us", "grid", (IMEX, KATO), "mean", ("grid.ddr",)),
    ("grid.ddr.calls_per_step", "calls/step", "grid", (IMEX, KATO), "per_step", ("grid.ddr",)),
    ("dynbc.step.us", "us", "dynbc", (HEAT, STOKES), "mean_self", ("dynbc.step",)),
    ("dynbc.step.calls_per_step", "calls/step", "dynbc", (HEAT, STOKES), "per_step", ("dynbc.step",)),
    ("dynbc.solves_per_step", "calls/step", "dynbc", (STOKES, IMEX), "per_step", ("dynbc.solve",)),
    ("dynbc.solve.us", "us", "dynbc", (STOKES, IMEX), "mean", ("dynbc.solve",)),
    ("dynbc.factorizations", "count", "dynbc", (HEAT, STOKES), "factorize", ("dynbc.factorize",)),
    ("elliptic.invert.us", "us", "elliptic", (STOKES,), "mean", INVERT),
    ("elliptic.invert.calls_per_step", "calls/step", "elliptic", (STOKES,), "per_step", INVERT),
    ("elliptic.transform.us", "us", "elliptic", (IMEX, KATO), "mean", TRANSFORM),
    ("elliptic.transform.calls_per_step", "calls/step", "elliptic", (IMEX, KATO), "per_step", TRANSFORM),
    ("fields.reconstruct.us", "us", "fields", (IMEX, KATO), "mean", ("fields.reconstruct",)),
    ("fields.reconstruct.calls_per_step", "calls/step", "fields", (IMEX, KATO), "per_step", ("fields.reconstruct",)),
    ("fields.project_leray.self_us", "us", "fields", (IMEX,), "mean_self", ("fields.project_leray",)),
    ("fields.solves_per_step", "calls/step", "fields", (IMEX,), "per_step", ("fields.solve",)),
    ("fields.leray_factorizations", "count", "fields", (IMEX, KATO), "factorize", ("fields.factorize",)),
    ("fields.weighted_field_norm.us", "us", "fields", (KATO, IMEX), "mean", ("fields.weighted_field_norm",)),
    ("fields.weighted_field_norm.calls", "count", "fields", (KATO, IMEX), "calls", ("fields.weighted_field_norm",)),
    ("stokes.step_stokes.self_us", "us", "stokes", (STOKES,), "mean_self", ("stokes.step_stokes",)),
    ("stokes.decomp_to_sources.self_us", "us", "stokes", (IMEX,), "mean_self", ("stokes.decomp_to_sources",)),
    ("stokes.state_axpy.us", "us", "stokes", (KATO,), "mean", ("stokes.state_axpy",)),
    ("stokes.init_stokes.self_us", "us", "stokes", (KATO,), "mean_self", ("stokes.init_stokes",)),
    ("navier_stokes.nonlinear_term.self_us", "us", "navier_stokes", (IMEX,), "mean_self",
     ("navier_stokes.nonlinear_term",)),
    ("navier_stokes.step_ns.self_us", "us", "navier_stokes", (IMEX,), "mean_self", ("navier_stokes.step_ns",)),
    ("fft.calls_per_step", "calls/step", "navier_stokes", (IMEX,), "per_step", ("fft.rfft", "fft.irfft")),
    ("observe.ms", "ms", "recorders", (STOKES, HEAT), "total_ms", ("observe",)),
    ("write.ms", "ms", "recorders", (IMEX, STOKES, HEAT), "total_ms", ("write",)),
)

KATO_ITERATIONS = "navier_stokes.kato_iterations"  # read from the run's summary.txt
OVERHEAD = "trace.overhead_ratio"  # traced over untraced wall time
# rows whose value is not reduced from spans: (metric, unit, layer, workloads)
OTHER_ROWS = (
    (KATO_ITERATIONS, "count", "navier_stokes", (KATO,)),
    (OVERHEAD, "ratio", "benchmark", ALL),
)


def metric_units():
    """Every reported per-layer metric name with its unit, in table order."""
    out = {}
    for metric, unit, _, workloads, *_ in ROWS + OTHER_ROWS:
        for w in workloads:
            out[f"{w}.{metric}"] = unit
    return out


def layer_values(workload, trace, steps, kato_iterations, scale, setup_scale):
    """(values, self-check failures) of one traced repetition of a workload.

    values maps the unqualified metric name to its value for every row that
    lists this workload; durations are multiplied by scale, or in set-up by
    setup_scale.  The self-check
    fails when a layer the table ties to this workload saw no calls.
    """
    values, activity = {}, {}
    for metric, _, layer, workloads, how, names in ROWS:
        if workload not in workloads:
            continue
        tree = "setup" if how == "setup_ms" else "run"
        calls = trace.calls(names, tree)
        if how == "factorize":
            calls += trace.calls(names, "setup")
        activity[layer] = activity.get(layer, 0) + calls
        per_call = 1e6 * scale / calls if calls else 0.0
        values[metric] = {
            "mean": trace.total(names) * per_call,
            "mean_self": trace.self_total(names) * per_call,
            "per_step": calls / steps,
            "calls": calls,
            "factorize": calls,
            "setup_ms": 1e3 * setup_scale * trace.total(names, "setup"),
            "total_ms": 1e3 * scale * trace.total(names),
        }[how]
    if workload == KATO:
        values[KATO_ITERATIONS] = kato_iterations
        activity["navier_stokes"] = activity.get("navier_stokes", 0) + kato_iterations
    failures = [f"trace saw no calls into layer {layer!r}"
                for layer, n in activity.items() if n == 0]
    return values, failures
