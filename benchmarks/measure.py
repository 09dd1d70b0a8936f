"""The two kinds of run: end-to-end (untraced) and per-layer (traced).

Both run the workload's set-up, then whole passes until ``seconds`` have
gone by, then check the outputs. Units are training steps on the training
workload and images on the inference workloads; per-layer values are per
unit unless their name says otherwise.
"""

import resource
import statistics
import time
import tracemalloc
from collections import defaultdict

from saan import io_formats

import spans
import workloads as wk

MIB = 2.0 ** 20

# ops reported one by one; every other op still counts in ops.calls and ops.self_ms
TIMED_OPS = ("conv2d", "conv2d_backward", "conv2d_transpose", "conv2d_transpose_backward",
             "maxpool2", "maxpool2_backward", "relu_backward")
FORWARD_LAYER_OPS = {"ops.conv2d", "ops.conv2d_transpose", "ops.maxpool2"}
BACKWARD_LAYER_OPS = {"ops.conv2d_backward", "ops.conv2d_transpose_backward",
                      "ops.maxpool2_backward"}
# layers whose input is the image: model_backward discards their input gradient
IMAGE_INPUT_LAYERS = {f"{prefix}.{spec[0][0]}" for prefix, spec, cin in wk.ARCH.subnets()
                      if cin == 1}


def arch_layers():
    """Every conv, deconv and pool entry of the architecture, in order."""
    return [f"{prefix}.{entry[0]}" for prefix, spec, _ in wk.ARCH.subnets()
            for entry in spec if entry[1] in ("conv", "deconv", "pool")]


def subnets():
    return [prefix for prefix, _, _ in wk.ARCH.subnets()]


def per_layer_units():
    """Name -> unit of every per-layer metric, in report order."""
    units = {}
    for layer in arch_layers():
        units[f"layers.{layer}.fwd_ms"] = "ms"
        units[f"layers.{layer}.bwd_ms"] = "ms"
    for op in TIMED_OPS:
        units[f"ops.{op}.ms"] = "ms"
    units["ops.calls"] = "count"
    for op in ("conv2d", "conv2d_backward"):
        units.update({f"ops.{op}.gflop": "GFLOP", f"ops.{op}.mib": "MiB",
                      f"ops.{op}.gflop_per_s": "GFLOP/s"})
    units["ops.conv2d_backward.dropped_gx_frac"] = "fraction"
    units["ops.self_ms"] = "ms"
    units["layers.self_ms"] = "ms"
    units["network.model_forward.ms"] = "ms"
    units["network.model_backward.ms"] = "ms"
    units["network.self_ms"] = "ms"
    for prefix in subnets():
        units[f"network.{prefix}.fwd_ms"] = "ms"
        units[f"network.{prefix}.bwd_ms"] = "ms"
    units["network.model_forward.retained_mib"] = "MiB"
    units["network.model_forward.peak_mib"] = "MiB"
    for name in ("losses.total_loss.ms", "train.adam_step.ms", "train.checkpoint_ms",
                 "train.data_ms", "synth.augment.ms", "density.labels_ms",
                 "train.phase1_step_p50_ms", "train.phase2_step_p50_ms",
                 "density.gaussian_density_map.ms", "io_formats.write_ms",
                 "io_formats.read_ms", "params.load_checkpoint.ms",
                 "params.validate_inventory.ms",
                 "trace.unit_ms", "trace.overhead_ms", "trace.unattributed_ms"):
        units[name] = "ms"
    return units


# ---------------------------------------------------------- helpers

def timed_passes(wl, root, seed, manifest, params, seconds, tracer=None, between=None):
    """Whole passes until `seconds` have gone by (at least one). After each
    pass, `between(fraction of the time gone)` may return a fresh
    (manifest, params) for the passes that follow."""
    passes = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        if tracer is None:
            done = wk.run_pass(wl, root, seed, manifest, params)
        else:
            with tracer.region("bench.pass"):
                done = wk.run_pass(wl, root, seed, manifest, params, tracer)
        passes.append(done)
        if done.error:
            break
        if between is not None:
            manifest, params = between((time.perf_counter() - start) / seconds)
    return passes


def check(wl, root, seed, manifest, params, passes):
    """(attempted, failed, notes): every unit of every pass, plus one
    float64 recomputation."""
    bounds = None
    if seed == wk.DEFAULT_SEED:
        bounds = wk.reference_bounds(wl, wk.load_reference(wl.name))
    attempted = sum(p.expected for p in passes) + 1
    failed = wk.count_failures(passes, bounds)
    notes = [p.error for p in passes if p.error]
    last = passes[-1]
    if last.error:
        failed += 1
        notes.append("float64 check skipped: the last pass failed")
    else:
        ok, c32, c64 = wk.float64_agrees(wl, root, manifest,
                                         last.params if wl.kind == "train" else params, last)
        failed += not ok
        if not ok:
            notes.append(f"float64 count {c64!r} disagrees with float32 {c32!r}")
    return attempted, failed, notes


def _metric(value, unit):
    return {"value": value, "unit": unit}


# ---------------------------------------------------------- end to end

def end_to_end(wl, root, seed, seconds):
    # Set-ups are spread over the measured time, so that their median, like
    # the passes', samples the whole run and not one moment of a shared machine.
    setup_s, state = [], []

    def set_up():
        t0 = time.perf_counter()
        state[:] = wk.setup(wl, root, seed)
        setup_s.append(time.perf_counter() - t0)

    def between(fraction):
        if len(setup_s) < wk.SETUP_REPEATS and fraction * wk.SETUP_REPEATS >= len(setup_s):
            set_up()
        return state

    set_up()
    # one untimed pass first: its first-touch page faults are not steady state
    warm_up = wk.run_pass(wl, root, seed, *state)
    passes = timed_passes(wl, root, seed, *state, seconds, between=between)
    while len(setup_s) < wk.SETUP_REPEATS:
        set_up()
    manifest, params = state
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    # median pass time: single passes slowed by another tenant of the machine do not count
    pass_s = statistics.median(p.seconds for p in passes)
    attempted, failed, notes = check(wl, root, seed, manifest, params, [warm_up] + passes)
    metrics = {
        "samples_per_s": _metric(wk.samples(wl) / pass_s, "1/s"),
        "setup_s": _metric(statistics.median(setup_s), "s"),
        "peak_rss_mib": _metric(peak_rss_mib, "MiB"),
    }
    details = {"pass_s": [p.seconds for p in passes], "setup_runs_s": setup_s,
               "notes": notes}
    return attempted, failed, metrics, details


# ----------------------------------------------------------- per layer

def per_layer(wl, root, seed, seconds, spans_path):
    setup_trace = spans.Tracer()
    with setup_trace.installed(wk.TRACED_MODULES), setup_trace.region("bench.setup"):
        manifest, params = wk.setup(wl, root, seed)

    # half the time untraced, for the overhead and the step-time medians
    untraced = timed_passes(wl, root, seed, manifest, params, seconds / 2)
    tracer = spans.Tracer(unit_span="network.model_forward" if wl.kind == "infer" else None)
    with tracer.installed(wk.TRACED_MODULES):
        traced = timed_passes(wl, root, seed, manifest, params, seconds / 2, tracer)
    spans.dump(tracer.spans, spans_path)
    memory = memory_probe(wl, root, seed, manifest, params)
    attempted, failed, notes = check(wl, root, seed, manifest, params, untraced + traced)

    units = sum(p.expected for p in traced)
    untraced_unit_ms = 1e3 * sum(p.seconds for p in untraced) / sum(p.expected for p in untraced)
    metrics, accounting = layer_metrics(tracer.spans, units, setup_trace.spans)
    metrics["trace.overhead_ms"] = metrics["trace.unit_ms"] - untraced_unit_ms
    step_ms = {1: [], 2: []}
    for p in untraced:
        for phase, times in p.step_ms.items():
            step_ms[phase].extend(times)
    for phase in (1, 2):
        metrics[f"train.phase{phase}_step_p50_ms"] = (
            statistics.median(step_ms[phase]) if step_ms[phase] else 0.0)
    metrics["network.model_forward.retained_mib"] = max(r for r, _ in memory) / MIB
    metrics["network.model_forward.peak_mib"] = max(p for _, p in memory) / MIB

    unit_names = per_layer_units()
    out = {name: _metric(metrics[name], unit) for name, unit in unit_names.items()}
    details = {"units": units, "untraced_unit_ms": untraced_unit_ms,
               "self_ms_per_unit": accounting, "notes": notes}
    return attempted, failed, out, details


def memory_probe(wl, root, seed, manifest, params):
    """(retained, peak) bytes of each model_forward call in a short run
    under tracemalloc: one phase-2 epoch, or one test image."""
    probe = spans.Tracer()
    tracemalloc.start()
    try:
        with probe.installed(wk.TRACED_MODULES):
            if wl.kind == "train":
                wk.train_pass(wl, root, seed, manifest, epochs=(0, 1), run_dir="probe")
            else:
                one = io_formats.Manifest(items=manifest.split_items("test")[:1],
                                          bins=manifest.bins)
                wk.infer_pass(wl, root, one, params)
    finally:
        tracemalloc.stop()
    return probe.memory


def layer_metrics(rows, units, setup_rows):
    """Per-unit totals from the timed spans and per-set-up totals from the
    set-up spans; also the self time per module, which sums to the unit."""
    selfs = spans.self_times(rows)
    total = defaultdict(float)      # span name -> summed duration (s)
    self_by_module = defaultdict(float)
    layer_fwd, layer_bwd = defaultdict(float), defaultdict(float)
    subnet_fwd, subnet_bwd = defaultdict(float), defaultdict(float)
    flops, nbytes = defaultdict(float), defaultdict(float)
    dropped_gx = 0.0
    calls = 0
    root_time = 0.0
    for row, self_s in zip(rows, selfs):
        name, layer = row[spans.NAME], row[spans.LAYER]
        dur = row[spans.END] - row[spans.START]
        total[name] += dur
        module = name.split(".", 1)[0]
        self_by_module[module] += self_s
        if row[spans.PARENT] < 0:
            root_time += dur
        if module == "ops":
            calls += 1
        if name in FORWARD_LAYER_OPS and layer:
            layer_fwd[layer] += dur
        elif name in BACKWARD_LAYER_OPS and layer:
            layer_bwd[layer] += dur
        elif name == "layers.seq_forward":
            subnet_fwd[layer] += dur
        elif name == "layers.seq_backward":
            subnet_bwd[layer] += dur
        if name in ("ops.conv2d", "ops.conv2d_backward"):
            flops[name] += row[spans.FLOPS]
            nbytes[name] += row[spans.NBYTES]
            if layer in IMAGE_INPUT_LAYERS:
                dropped_gx += row[spans.GX_FLOPS]

    def ms(seconds):
        return 1e3 * seconds / units

    def module_total(prefix):
        return sum(t for n, t in total.items() if n.startswith(prefix))

    m = {}
    for layer in arch_layers():
        m[f"layers.{layer}.fwd_ms"] = ms(layer_fwd[layer])
        m[f"layers.{layer}.bwd_ms"] = ms(layer_bwd[layer])
    for op in TIMED_OPS:
        m[f"ops.{op}.ms"] = ms(total[f"ops.{op}"])
    m["ops.calls"] = calls / units
    for op in ("conv2d", "conv2d_backward"):
        name = f"ops.{op}"
        m[f"{name}.gflop"] = flops[name] / 1e9 / units
        m[f"{name}.mib"] = nbytes[name] / MIB / units
        m[f"{name}.gflop_per_s"] = flops[name] / 1e9 / total[name] if total[name] else 0.0
    m["ops.conv2d_backward.dropped_gx_frac"] = (
        dropped_gx / flops["ops.conv2d_backward"] if flops["ops.conv2d_backward"] else 0.0)
    m["ops.self_ms"] = ms(self_by_module["ops"])
    m["layers.self_ms"] = ms(self_by_module["layers"])
    m["network.model_forward.ms"] = ms(total["network.model_forward"])
    m["network.model_backward.ms"] = ms(total["network.model_backward"])
    m["network.self_ms"] = ms(self_by_module["network"])
    for prefix in subnets():
        m[f"network.{prefix}.fwd_ms"] = ms(subnet_fwd[prefix])
        m[f"network.{prefix}.bwd_ms"] = ms(subnet_bwd[prefix])
    m["losses.total_loss.ms"] = ms(total["losses.total_loss"])
    m["train.adam_step.ms"] = ms(total["train.adam_step"])
    m["train.checkpoint_ms"] = ms(total["params.save_checkpoint"])
    m["train.data_ms"] = ms(total["train._make_batch"])
    m["synth.augment.ms"] = ms(total["synth.augment"])
    m["density.labels_ms"] = ms(total["density.global_scale_label"]
                                + total["density.local_scale_map"])
    m["io_formats.read_ms"] = ms(module_total("io_formats.read_")
                                 + module_total("io_formats.load_"))
    m["trace.unit_ms"] = ms(root_time)
    m["trace.unattributed_ms"] = ms(self_by_module["bench"])

    # set-up layers: ms per set-up
    setup_total = defaultdict(float)
    for row in setup_rows:
        setup_total[row[spans.NAME]] += row[spans.END] - row[spans.START]
    m["density.gaussian_density_map.ms"] = 1e3 * setup_total["density.gaussian_density_map"]
    m["io_formats.write_ms"] = 1e3 * sum(t for n, t in setup_total.items()
                                         if n.startswith(("io_formats.write_", "io_formats.save_")))
    m["params.load_checkpoint.ms"] = 1e3 * setup_total["params.load_checkpoint"]
    m["params.validate_inventory.ms"] = 1e3 * setup_total["params.validate_inventory"]

    accounting = {module: ms(t) for module, t in sorted(self_by_module.items())}
    accounting["unattributed"] = accounting.pop("bench", 0.0)
    return m, accounting
