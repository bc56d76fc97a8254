"""Per-layer tracing of a caterpillar model from outside the package.

The tracer reaches every module instance by walking ``_children()`` and
shadows its ``forward`` and ``backward`` with an instance attribute that
records a span.  ``train.AdamW.step`` and ``train.ce_label_smoothing`` are
shadowed the same way at class and module level.  Nothing under ``src/`` is
edited; ``detach()`` removes every wrapper again, so untraced ops run the
package's own code paths.

Spans are aggregated as they close: a layer's self time is its span minus
the spans of the layers it called.  Forward calls also record their input
shape, from which each op's analytic MACs are computed after the op.
"""

from __future__ import annotations

from collections import Counter
from time import perf_counter

import numpy as np

from caterpillar import Smlp, estimate_flops
from caterpillar import train as train_module

# The layers reported per class, and those of them that carry MACs.
REPORTED_CLASSES = (
    "spc.Spc",
    "smlp.Smlp",
    "blocks.MixerBlock",
    "layers.Linear",
    "layers.GELU",
    "layers.BatchNorm2d",
    "layers.LayerNorm",
    "layers.ReLU",
    "layers.Conv2d",
    "layers.AvgPool2d",
)
MAC_CLASSES = ("spc.Spc", "smlp.Smlp", "layers.Linear", "layers.Conv2d")


def class_key(module) -> str:
    """``<package module>.<class>``, e.g. ``layers.Linear``."""
    cls = type(module)
    return f"{cls.__module__.rsplit('.', 1)[-1]}.{cls.__name__}"


def walk(module):
    """The module and every descendant listed by ``_children()``, depth first."""
    yield module
    for _, child in module._children():
        yield from walk(child)


def _nbytes(value) -> int:
    if isinstance(value, np.ndarray):
        return value.nbytes
    if isinstance(value, (tuple, list)):
        return sum(_nbytes(v) for v in value)
    return 0


def retained_bytes(root) -> Counter:
    """Per class, bytes of ndarrays a module holds between calls.

    Counts every ndarray attribute, also inside tuple/list attributes, that
    is neither a Parameter nor one of the class's ``buffer_names``: that is
    what forward keeps for backward.
    """
    out = Counter()
    for module in walk(root):
        buffers = set(type(module).buffer_names)
        out[class_key(module)] += sum(
            _nbytes(v) for k, v in vars(module).items() if k not in buffers
        )
    return out


def self_macs(module, in_shape) -> int:
    """MACs a forward call performs itself rather than through its children.

    Leaves own all of their ``macs()``; Smlp owns its row and column mixing,
    while its fuse projection is a child Linear.  Other composites own none.
    """
    if isinstance(module, Smlp):
        return module.macs(in_shape) - module.fuse.macs(in_shape)
    if not module._children():
        return module.macs(in_shape)
    return 0


class Tracer:
    """Wraps one model's layers; ``attach()``/``detach()`` bracket a traced op."""

    def __init__(self, root):
        self.root = root
        self.self_s = Counter()  # "<class>.fwd" / "<class>.bwd" / function key -> s
        self.total_s = Counter()  # same keys, span including children
        self.calls = Counter()  # "<class>" -> forward calls
        self.macs = Counter()  # "<class>" -> forward MACs, children included
        self.ops = 0
        self.retained = Counter()  # "<class>" -> bytes held after one op
        self.mac_checks: list[tuple[int, int]] = []  # (attributed, estimate_flops) per op
        self._stack: list[list[float]] = []
        self._forward_calls: list[tuple[object, tuple]] = []
        self._instance_wrappers = []
        for module in walk(root):
            key = class_key(module)
            self._instance_wrappers += [
                (module, "forward", self._span(f"{key}.fwd", module.forward, module)),
                (module, "backward", self._span(f"{key}.bwd", module.backward)),
            ]
        self._originals = (train_module.AdamW.step, train_module.ce_label_smoothing)
        self._patched = (
            self._span("train.AdamW.step", train_module.AdamW.step),
            self._span("train.ce_label_smoothing", train_module.ce_label_smoothing),
        )

    def _span(self, key, fn, module=None):
        stack = self._stack
        self_s, total_s = self.self_s, self.total_s
        forward_calls = self._forward_calls

        def traced(*args, **kwargs):
            if module is not None:
                forward_calls.append((module, np.shape(args[0])))
            frame = [0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span = perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][0] += span
                self_s[key] += span - frame[0]
                total_s[key] += span

        return traced

    def attach(self) -> None:
        for module, kind, fn in self._instance_wrappers:
            vars(module)[kind] = fn
        train_module.AdamW.step, train_module.ce_label_smoothing = self._patched

    def detach(self) -> None:
        """Remove the wrappers and account the op's MACs."""
        for module, kind, _ in self._instance_wrappers:
            del vars(module)[kind]
        train_module.AdamW.step, train_module.ce_label_smoothing = self._originals
        attributed = expected = 0
        for module, shape in self._forward_calls:
            key = class_key(module)
            self.calls[key] += 1
            if key in MAC_CLASSES:
                self.macs[key] += module.macs(shape)
            attributed += self_macs(module, shape)
            if module is self.root:
                expected += estimate_flops(module, shape)[0]
        self.mac_checks.append((attributed, expected))
        self._forward_calls.clear()
        self.ops += 1

    def snapshot_retained(self) -> None:
        """Record what the layers hold now; call between ops."""
        self.retained = retained_bytes(self.root)

    def macs_reconciled(self) -> bool:
        return bool(self.mac_checks) and all(a == e > 0 for a, e in self.mac_checks)

    def per_op(self) -> dict[str, tuple[float, str]]:
        """Per-layer metrics averaged over the traced ops: name -> (value, unit).

        ``calls`` counts forward calls; ``macs`` are forward MACs including
        child layers, and ``gmacs_per_s`` divides them by the forward span.
        """
        n = self.ops
        out = {}
        for key in REPORTED_CLASSES:
            out[f"{key}.fwd_self_s"] = (self.self_s[f"{key}.fwd"] / n, "s")
            out[f"{key}.bwd_self_s"] = (self.self_s[f"{key}.bwd"] / n, "s")
            out[f"{key}.calls"] = (self.calls[key] / n, "count")
            out[f"{key}.retained_bytes"] = (self.retained[key], "B")
            if key in MAC_CLASSES:
                fwd_s = self.total_s[f"{key}.fwd"]
                out[f"{key}.macs"] = (self.macs[key] / n, "count")
                out[f"{key}.gmacs_per_s"] = (self.macs[key] / fwd_s / 1e9 if fwd_s else 0.0, "GMAC/s")
        out["train.AdamW.step_s"] = (self.self_s["train.AdamW.step"] / n, "s")
        out["train.ce_label_smoothing_s"] = (self.self_s["train.ce_label_smoothing"] / n, "s")
        return out
