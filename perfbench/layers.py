"""Per-layer tracing of aqec from outside the package.

``Tracer.install`` replaces each traced function, wherever an aqec module
holds a reference to it, with a wrapper that records a span: layer name,
start, end and the index of the enclosing span.  Spans stay in memory; the
worker writes them out when the run ends.  ``Tracer.uninstall`` puts the
original functions back, so untraced rounds run the program unchanged.

A layer's self time is its spans' duration minus the time covered by the
spans nested directly inside them.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter

# (module, function) pairs; the layer is named "<module>.<function>".
LAYERS = (
    ("cli", "main"),
    ("channels", "tensor_power"),
    ("channels", "channel_from_json"),
    ("codes", "random_code"),
    ("codes", "code_from_json"),
    ("transpose", "transpose_channel"),
    ("linalg", "inv_sqrt_on_support"),
    ("linalg", "polar_unitary_on_support"),
    ("fidelity", "worst_case_fidelity"),
    ("models", "five_qubit_recovery"),
    ("models", "leung_recovery"),
    ("conditions", "aqec_diagnostics"),
)
LAYER_NAMES = tuple(f"{mod}.{fn}" for mod, fn in LAYERS)


class Tracer:
    """Spans and counters for the traced layers of one process."""

    def __init__(self):
        self.spans: list[list] = []  # [layer, parent index, start, end]
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, layer: str, fn):
        spans, stack, counts = self.spans, self._stack, self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([layer, stack[-1] if stack else -1, time.perf_counter(), None])
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][3] = time.perf_counter()
            if layer == "fidelity.worst_case_fidelity" and result.samples:
                counts["fidelity.samples"] += result.samples
            return result

        return traced

    def install(self) -> None:
        """Wrap every traced function and count the Kraus operators of
        every channel built."""
        import aqec.channels

        modules = [m for name, m in sys.modules.items()
                   if name == "aqec" or name.startswith("aqec.")]
        for mod_name, fn_name in LAYERS:
            original = getattr(sys.modules[f"aqec.{mod_name}"], fn_name)
            wrapped = self._wrap(f"{mod_name}.{fn_name}", original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, attr, original))
                        setattr(module, attr, wrapped)

        cls = aqec.channels.QuantumChannel
        original_init = cls.__init__
        counts = self.counts

        def counting_init(channel, kraus):
            original_init(channel, kraus)
            counts["channels.kraus_ops"] += channel.n_kraus

        self._patches.append((cls, "__init__", original_init))
        cls.__init__ = counting_init

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def self_times(self, first: int, stop: int) -> tuple[dict, Counter]:
        """Self seconds and call counts per layer over spans[first:stop]."""
        spans = self.spans[first:stop]
        child_time = [0.0] * len(spans)
        for _, parent, start, end in spans:
            if parent >= first:
                child_time[parent - first] += end - start
        self_s: dict[str, float] = dict.fromkeys(LAYER_NAMES, 0.0)
        calls: Counter = Counter(dict.fromkeys(LAYER_NAMES, 0))
        for (layer, _, start, end), inner in zip(spans, child_time):
            self_s[layer] += end - start - inner
            calls[layer] += 1
        return self_s, calls
