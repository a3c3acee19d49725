"""Span and count recorder for the traced benchmark run.

The tracer wraps netbell's public functions from the outside: for each
function it replaces every module binding that netbell calls it through
(for example both ``netbell.fcbi.state_max`` and
``netbell.builder.state_max``) with one wrapper that records a span, and
puts the originals back when uninstalled. Nothing is patched unless a
traced run installs it, so untraced runs execute the program unchanged.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict


def _state_max_label(args, kwargs):
    matrix = args[0] if args else kwargs["matrix"]
    numeric = matrix.tag != "CHSH" or kwargs.get("force_numeric", False)
    return "fcbi.state_max[numeric]" if numeric else "fcbi.state_max[closed]"


def _evaluate_S_label(args, kwargs):
    method = kwargs.get("method", args[4] if len(args) > 4 else "factorized")
    return "evaluator.evaluate_S[tensor]" if method == "tensor" else "evaluator.evaluate_S"


# (module, function, label function or None for "module.function")
TRACED = [
    ("topology", "build_topology", None),
    ("topology", "find_leaves", None),
    ("builder", "build_inequality", None),
    ("builder", "mixed_state_bound", None),
    ("fcbi", "state_max", _state_max_label),
    ("fcbi", "sos_witness", None),
    ("qstate", "bloch_decompose", None),
    ("evaluator", "evaluate_S", _evaluate_S_label),
    ("evaluator", "check_conditions", None),
    ("analysis", "report", None),
    ("optimizer", "seesaw_network", None),
    ("optimizer", "discriminate", None),
    ("optimizer", "classical_oracle", None),
]


class Tracer:
    """Spans (label, start, end, parent index) kept in memory."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    def begin(self, label: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([label, time.perf_counter(), None, parent])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def end(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, label: str, label_fn, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = self.begin(label_fn(args, kwargs) if label_fn else label)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end(index)

        return wrapper

    # -- patching --------------------------------------------------------

    def install(self) -> None:
        netbell_modules = [
            m for name, m in list(sys.modules.items())
            if m is not None and (name == "netbell" or name.startswith("netbell."))
        ]
        for module_name, attr, label_fn in TRACED:
            home = importlib.import_module(f"netbell.{module_name}")
            original = getattr(home, attr)
            wrapper = self._wrap(f"{module_name}.{attr}", label_fn, original)
            for module in netbell_modules:
                if getattr(module, attr, None) is original:
                    self._patches.append((module, attr, original))
                    setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def reset(self) -> None:
        self.spans.clear()
        self._stack.clear()

    # -- summaries -------------------------------------------------------

    def summary(self) -> dict[str, dict]:
        """Per label: calls, total (inclusive) seconds and self seconds.

        Self time is a span's duration minus the time its direct children
        cover; spans on one thread nest, so the children never overlap.
        """
        child_time = defaultdict(float)
        for label, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, dict] = {}
        for index, (label, start, end, _) in enumerate(self.spans):
            entry = out.setdefault(label, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            entry["calls"] += 1
            entry["total_s"] += end - start
            entry["self_s"] += end - start - child_time[index]
        return out

    def durations(self, label: str) -> list[float]:
        return [end - start for name, start, end, _ in self.spans if name == label]
