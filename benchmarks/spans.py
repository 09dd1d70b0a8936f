"""Span tracer for the benchmark's traced run.

The tracer replaces functions at the program's module boundaries with
wrappers that record a span per call: name, start, end, parent span and
the id of the step or image being processed. It patches the names the
calling module looks up, so a call made through ``train.model_forward``,
``network.seq_forward`` or ``layers.ops.conv2d`` is seen exactly where the
caller makes it. Nothing in the program is edited; ``uninstall`` puts the
original functions back.

Spans stay in memory until the run ends. A span's self time is its
duration minus the time its direct children cover.

Conv, deconv and pool calls are tagged with the layer they belong to:
conv weights by array identity against the params that ``seq_forward`` /
``seq_backward`` receive, pools by their position in the layer spec
(forward) and by the identity of the argmax array the forward pass
returned (backward). Subnet spans are tagged by prefix, and the caches
list that ``seq_forward`` returns identifies the subnet on the way back.
"""

import inspect
import time
import tracemalloc
from contextlib import contextmanager

# span row layout
NAME, START, END, PARENT, UNIT, LAYER, FLOPS, NBYTES, GX_FLOPS = range(9)

_CONV_OPS = {"ops.conv2d", "ops.conv2d_transpose"}
_CONV_BACKWARD_OPS = {"ops.conv2d_backward", "ops.conv2d_transpose_backward"}


def _span_name(fn):
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"


def boundary_functions(modules):
    """(module, attribute, function) for every program function a module
    boundary exposes: public functions defined in the package, and the
    batch builder the trainer calls once per step."""
    out = []
    for mod in modules:
        for attr, obj in sorted(vars(mod).items()):
            if not inspect.isfunction(obj) or not obj.__module__.startswith("saan."):
                continue
            if obj.__module__ in ("saan.cli", "saan.gradcheck"):
                continue
            if attr.startswith("_") and attr != "_make_batch":
                continue
            out.append((mod, attr, obj))
    return out


class Tracer:
    """Records spans for calls through patched module attributes."""

    def __init__(self, unit_span=None):
        self.spans = []
        self.unit = 0
        self.unit_span = unit_span  # a span name whose end completes one unit
        self.memory = []            # (retained, peak) bytes per model_forward under tracemalloc
        self._stack = []
        self._patched = []
        self._weights = {}          # id(weight array) -> layer name
        self._pool_names = []       # pool layers left in the running seq_forward
        self._pools = {}            # id(argmax array) -> pool layer name
        self._subnets = {}          # id(caches list) -> subnet prefix

    # ------------------------------------------------------- patching

    def install(self, modules):
        for mod, attr, fn in boundary_functions(modules):
            self._patched.append((mod, attr, fn))
            setattr(mod, attr, self._wrap(_span_name(fn), fn))

    def uninstall(self):
        for mod, attr, fn in reversed(self._patched):
            setattr(mod, attr, fn)
        self._patched = []

    @contextmanager
    def installed(self, modules):
        self.install(modules)
        try:
            yield self
        finally:
            self.uninstall()

    @contextmanager
    def region(self, name):
        """A span opened by the benchmark itself, e.g. one timed cycle."""
        row = self._open(name)
        try:
            yield
        finally:
            self._close(row)

    def _open(self, name):
        row = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1,
               self.unit, None, 0, 0, 0]
        self._stack.append(len(self.spans))
        self.spans.append(row)
        row[START] = time.perf_counter()
        return row

    def _close(self, row):
        row[END] = time.perf_counter()
        self._stack.pop()
        if row[NAME] == self.unit_span:
            self.unit += 1

    def _wrap(self, name, fn):
        tracer = self

        def traced(*args, **kwargs):
            token = tracer._before(name, args)
            row = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(row)
            tracer._after(name, row, args, result, token)
            return result

        traced.__wrapped__ = fn
        return traced

    # ------------------------------------------- layer and memory tags

    def _before(self, name, args):
        if name == "layers.seq_forward":
            _, params, _, spec = args[:4]
            self._index_weights(params)
            saved = self._pool_names
            self._pool_names = [f"{args[2]}.{e[0]}" for e in spec if e[1] == "pool"]
            return saved
        if name == "layers.seq_backward":
            self._index_weights(args[2])
        elif name == "network.model_forward" and tracemalloc.is_tracing():
            tracemalloc.reset_peak()
            return tracemalloc.get_traced_memory()[0]
        return None

    def _after(self, name, row, args, result, token):
        if name == "layers.seq_forward":
            row[LAYER] = args[2]
            self._subnets[id(result[1])] = args[2]
            self._pool_names = token
        elif name == "layers.seq_backward":
            row[LAYER] = self._subnets.get(id(args[1]))
        elif name == "network.model_forward" and token is not None:
            current, peak = tracemalloc.get_traced_memory()
            self.memory.append((current - token, peak - token))
        elif name in _CONV_OPS:
            x, w = args[0], args[1]
            row[LAYER] = self._weights.get(id(w))
            row[FLOPS], row[NBYTES] = _conv_cost(name, x, w, result)
        elif name in _CONV_BACKWARD_OPS:
            gy, x, w = args[:3]
            row[LAYER] = self._weights.get(id(w))
            row[FLOPS], row[NBYTES], row[GX_FLOPS] = _conv_backward_cost(name, gy, x, w, result)
        elif name == "ops.maxpool2":
            if self._pool_names:
                row[LAYER] = self._pool_names.pop(0)
                self._pools[id(result[1])] = row[LAYER]
        elif name == "ops.maxpool2_backward":
            row[LAYER] = self._pools.get(id(args[1]))

    def _index_weights(self, params):
        self._weights = {id(v): k[: -len(".weight")]
                         for k, v in params.items() if k.endswith(".weight")}


def _conv_cost(name, x, w, y):
    """Computed multiply-add FLOPs and minimum bytes moved of one forward
    conv or deconv: read input, weights and bias once, write the output."""
    macs_per_out = x.shape[1] * w.shape[2] * w.shape[3]
    if name == "ops.conv2d_transpose":
        # every input pixel scatters a k x k stamp per output channel
        flops = 2 * x.size * w.shape[1] * w.shape[2] * w.shape[3]
    else:
        flops = 2 * y.size * macs_per_out
    nbytes = x.itemsize * (x.size + w.size + w.shape[0 if name == "ops.conv2d" else 1] + y.size)
    return flops, nbytes


def _conv_backward_cost(name, gy, x, w, result):
    """(FLOPs, minimum bytes, FLOPs spent on the input gradient) of one
    conv backward: the weight gradient always, the input gradient only
    when it was returned."""
    gx = result[0]
    pair_flops = 2 * x.shape[0] * x.shape[2] * x.shape[3] * w.size
    if name == "ops.conv2d_transpose_backward":
        pair_flops = 2 * x.size * w.shape[1] * w.shape[2] * w.shape[3]
    gx_flops = pair_flops if gx is not None else 0
    nbytes = x.itemsize * (gy.size + x.size + w.size          # read
                           + w.size + gy.shape[1]           # weight and bias grads
                           + (x.size if gx is not None else 0))
    return pair_flops + gx_flops, nbytes, gx_flops


def self_times(spans):
    """Per-span self time: duration minus the time direct children cover."""
    child = [0.0] * len(spans)
    for row in spans:
        if row[PARENT] >= 0:
            child[row[PARENT]] += row[END] - row[START]
    return [row[END] - row[START] - c for row, c in zip(spans, child)]


def dump(spans, path):
    """Write spans as tab-separated rows (times in µs from the first span)."""
    t0 = spans[0][START] if spans else 0.0
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("index\tname\tstart_us\tend_us\tparent\tunit\tlayer\n")
        for i, row in enumerate(spans):
            fh.write(f"{i}\t{row[NAME]}\t{(row[START] - t0) * 1e6:.1f}\t"
                     f"{(row[END] - t0) * 1e6:.1f}\t{row[PARENT]}\t{row[UNIT]}\t"
                     f"{row[LAYER] or ''}\n")
