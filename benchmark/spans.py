"""Per-layer tracing from outside the library.

``instrumented`` replaces module attributes that the package looks up at
call time (``attnops.vit.gelu``, the implementation names imported into
``attnops.registry``, ``attnops.tensor_attention.matrix_exponential``, the
``as_matrix`` each module imports, ...) with wrappers that record a span
around each call, and puts the originals back on exit.  Nothing in ``src/``
changes.

Spans are folded as they close: per name, the total time, the number of
calls, and the self time, which is the span's duration minus the durations
of the spans it directly caused.  ``Tracer.take`` hands over what was
folded since the previous call, once per op.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import time
from dataclasses import dataclass, field
from statistics import median

TENSOR_FUNCTIONS = (
    "tensor_attention_linear", "tensor_attention_naive", "tensor_attention_relu",
    "tensor_attention_elem_exp", "tensor_attention_expm", "tensor_attention_masked",
    "tensor_attention_residual",
)

MATERIALIZED_BYTES = "tensor_attention.materialized_bytes"
AS_MATRIX_BYTES = "dense.as_matrix.bytes"
EXPM_ORDER_MAX = "expm.order_max"


def _count_materialized(counters, args, result):
    counters[MATERIALIZED_BYTES] = counters.get(MATERIALIZED_BYTES, 0) + result.nbytes


def _count_as_matrix(counters, args, result):
    counters[AS_MATRIX_BYTES] = counters.get(AS_MATRIX_BYTES, 0) + result.nbytes


def _expm_order(counters, args, result):
    counters[EXPM_ORDER_MAX] = max(counters.get(EXPM_ORDER_MAX, 0), result.shape[0])


# (module, attribute, span name, observer).  An attribute listed twice is
# wrapped twice, the later entry outermost.
INSTRUMENTS = (
    ("attnops.vit", "vit_init", "vit.vit_init", None),
    ("attnops.vit", "vit_forward", "vit.forward", None),
    ("attnops.vit", "layer_norm", "vit.layer_norm", None),
    ("attnops.vit", "gelu", "vit.gelu", None),
    ("attnops.vit", "registry_forward", "registry.forward", None),
    ("attnops.vit", "registry_forward", "vit.mixer", None),
    ("attnops.registry", "forward", "registry.forward", None),
    ("attnops.registry", "softmax_attention", "attention.softmax_attention", None),
    ("attnops.registry", "linear_kernel_attention", "attention.linear_kernel_attention", None),
    ("attnops.registry", "tensor_interaction", "tensor_interaction.tensor_interaction", None),
    *(("attnops.registry", fn, f"tensor_attention.{fn}", None) for fn in TENSOR_FUNCTIONS),
    ("attnops.tensor_attention", "build_tensor_operator",
     "tensor_attention.build_tensor_operator", _count_materialized),
    ("attnops.tensor_attention", "normalized_tensor_operator",
     "tensor_attention.normalized_tensor_operator", None),
    ("attnops.tensor_attention", "score_matrix", "tensor_attention.score_matrix", None),
    ("attnops.tensor_attention", "matrix_exponential", "expm.matrix_exponential", _expm_order),
    ("attnops.bench", "diag_fast", "tensor_attention.diag_fast", None),
    ("attnops.bench", "score_matrix", "tensor_attention.score_matrix", None),
    *((module, "as_matrix", "dense.as_matrix", _count_as_matrix)
      for module in ("attnops.dense", "attnops.attention", "attnops.tensor_attention",
                     "attnops.tensor_interaction", "attnops.vit")),
    ("attnops.synth", "random_inputs", "synth.random_inputs", None),
    ("attnops.synth", "random_matrix", "synth.random_matrix", None),
)

# Spans that run inside ops, reported as .ms and .calls per op.
OP_SPANS = (
    "vit.forward", "vit.layer_norm", "vit.gelu", "vit.mixer", "registry.forward",
    *(f"tensor_attention.{fn}" for fn in TENSOR_FUNCTIONS),
    "tensor_attention.build_tensor_operator", "tensor_attention.normalized_tensor_operator",
    "tensor_attention.score_matrix", "tensor_attention.diag_fast",
    "attention.softmax_attention", "attention.linear_kernel_attention",
    "tensor_interaction.tensor_interaction", "expm.matrix_exponential", "dense.as_matrix",
)
# Reported as self time: the span minus the spans it caused.
SELF_SPANS = {"vit.self": "vit.forward", "registry.self": "registry.forward"}
# Spans that run during set-up, reported as .ms per set-up.
SETUP_SPANS = ("synth.random_inputs", "synth.random_matrix", "vit.vit_init")
SUM_COUNTERS = (MATERIALIZED_BYTES, AS_MATRIX_BYTES)


@dataclass
class Snapshot:
    """What the tracer folded between two ``take`` calls."""

    totals: dict = field(default_factory=dict)  # name -> [ns, calls, self ns, failed]
    counters: dict = field(default_factory=dict)
    top_ns: int = 0  # time inside spans that no other span caused

    def ms(self, name: str) -> float:
        return self.totals.get(name, (0, 0, 0, 0))[0] / 1e6

    def calls(self, name: str) -> int:
        return self.totals.get(name, (0, 0, 0, 0))[1]

    def self_ms(self, name: str) -> float:
        return self.totals.get(name, (0, 0, 0, 0))[2] / 1e6

    def failed(self, name: str) -> int:
        return self.totals.get(name, (0, 0, 0, 0))[3]


class Tracer:
    def __init__(self, clock=time.perf_counter_ns):
        self._clock = clock
        self._stack = []  # [name, child ns] of each open span
        self._current = Snapshot()

    def wrap(self, name: str, fn, observe=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self._stack.append([name, 0])
            start = self._clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self._close(start, failed=True)
                raise
            self._close(start, failed=False)
            if observe is not None:
                observe(self._current.counters, args, result)
            return result

        return traced

    def _close(self, start: int, failed: bool) -> None:
        elapsed = self._clock() - start
        name, child_ns = self._stack.pop()
        entry = self._current.totals.setdefault(name, [0, 0, 0, 0])
        entry[0] += elapsed
        entry[1] += 1
        entry[2] += elapsed - child_ns
        entry[3] += failed
        if self._stack:
            self._stack[-1][1] += elapsed
        else:
            self._current.top_ns += elapsed

    def take(self) -> Snapshot:
        snap, self._current = self._current, Snapshot()
        return snap


@contextlib.contextmanager
def instrumented(tracer: Tracer):
    """Install the wrappers for the duration of the block.

    Yields the ``module.attribute`` names that no longer exist in the
    package; their spans read zero.
    """
    saved = []
    missing = []
    try:
        for module_name, attr, span, observe in INSTRUMENTS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr, None)
            if original is None:
                missing.append(f"{module_name}.{attr}")
                continue
            saved.append((module, attr, original))
            setattr(module, attr, tracer.wrap(span, original, observe))
        yield missing
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


def layer_metrics(ops: list, op_ns: list, setup: Snapshot) -> tuple[dict, list]:
    """Per-op medians of the traced layers, and the names whose counts varied.

    ``ops`` holds one Snapshot per traced op and ``op_ns`` that op's timed
    nanoseconds.  Call counts and byte counts must repeat exactly from op to
    op; any that do not are returned for the caller to report.
    """
    metrics = {}
    varied = []

    def exact(name, values):
        values = set(values)
        if len(values) > 1:
            varied.append(name)
        return max(values)

    for span in OP_SPANS:
        metrics[f"{span}.ms"] = median(s.ms(span) for s in ops)
        metrics[f"{span}.calls"] = exact(f"{span}.calls", (s.calls(span) for s in ops))
    for name, span in SELF_SPANS.items():
        metrics[f"{name}.ms"] = median(s.self_ms(span) for s in ops)
    metrics["registry.failed"] = sum(s.failed("registry.forward") for s in ops)
    for span in SETUP_SPANS:
        metrics[f"{span}.ms"] = setup.ms(span)
    for name in SUM_COUNTERS:
        metrics[name] = exact(name, (s.counters.get(name, 0) for s in ops))
    metrics[EXPM_ORDER_MAX] = max(s.counters.get(EXPM_ORDER_MAX, 0) for s in ops)
    metrics["trace.coverage"] = median(s.top_ns / ns for s, ns in zip(ops, op_ns))
    return metrics, varied
