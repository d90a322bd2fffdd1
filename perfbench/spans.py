"""In-memory span recorder for the traced repetition.

The benchmark does not instrument the package. It rebinds the public
functions named in `WRAPPED` in the module namespace where their callers
look them up, so `compile_program` calling `partition_rotations` through
`rotsynth.compiler` globals is seen, and so is `cli.main` calling
`rotsynth.cli.compile_program`. Each call becomes a span (name, start, end,
parent, input label) stored in flat arrays; nothing is written until the
repetition ends.
"""

from __future__ import annotations

import contextlib
import functools
import time
from array import array

import numpy as np

# (module, attribute) -> span name. A function imported into several modules
# is rebound in each, because `from .x import f` copies the binding.
WRAPPED = {
    ("compiler", "is_invertible"): "gf2.is_invertible",
    ("compiler", "invert"): "gf2.invert",
    ("cli", "parse_rotation_program"): "ir.parse",
    ("cli", "parse_circuit"): "ir.parse",
    ("compiler", "compile_program"): "compiler.compile",
    ("cli", "compile_program"): "compiler.compile",
    ("compiler", "partition_rotations"): "compiler.partition",
    ("compiler", "synthesis_gates"): "compiler.synthesis",
    ("compiler", "parallelize_block"): "compiler.parallelize",
    ("compiler", "merge_adjacent_blocks"): "compiler.merge",
    ("compiler", "hoist_permutations"): "compiler.hoist",
    ("compiler", "absorb_into_prep"): "compiler.absorb",
    ("compiler", "eliminate_tdag"): "compiler.absorb",
    ("compiler", "expand_reference"): "compiler.expand_reference",
    ("cli", "expand_reference"): "compiler.expand_reference",
    ("semantics", "phase_polynomial_of"): "semantics.poly",
    ("cli", "phase_polynomial_of"): "semantics.poly",
    ("semantics", "poly_equal"): "semantics.poly",
    ("cli", "poly_equal"): "semantics.poly",
    ("semantics", "simulate"): "semantics.simulate",
    ("cli", "simulate"): "semantics.simulate",
    ("faults", "gadgetize"): "faults.gadgetize",
    ("faults", "enumerate_single_faults"): "faults.singles",
    ("faults", "enumerate_pair_faults"): "faults.pairs",
    ("faults", "first_order_oracle"): "faults.first_order",
    ("faults", "monte_carlo_infidelity"): "faults.mc",
    ("cli", "main"): "cli.main",
}


class Recorder:
    """Spans of one process; `enabled` is off outside the measured phases."""

    def __init__(self):
        self.enabled = False
        self.label = ""
        self._names: dict[str, int] = {}
        self._labels: dict[str, int] = {}
        self._stack: list[int] = []
        self.name = array("H")
        self.span_label = array("H")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")

    def open(self, name: str) -> int:
        idx = len(self.start)
        self.name.append(self._names.setdefault(name, len(self._names)))
        self.span_label.append(self._labels.setdefault(self.label, len(self._labels)))
        self.parent.append(self._stack[-1] if self._stack else -1)
        self._stack.append(idx)
        self.end.append(0.0)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int):
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself."""
        if not self.enabled:
            yield
            return
        idx = self.open(name)
        try:
            yield
        finally:
            self.close(idx)

    def wrap(self, fn, name: str):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            idx = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(idx)

        return traced

    def install(self, modules: dict):
        for (mod, attr), name in WRAPPED.items():
            setattr(modules[mod], attr, self.wrap(getattr(modules[mod], attr), name))
        circuit = modules["ir"].Circuit
        circuit.to_json = self.wrap(circuit.to_json, "ir.serialize")

    # -- analysis ----------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        names = np.frombuffer(self.name, dtype=np.uint16).astype(np.int64)
        labels = np.frombuffer(self.span_label, dtype=np.uint16).astype(np.int64)
        parent = np.frombuffer(self.parent, dtype=np.int32).astype(np.int64)
        start = np.frombuffer(self.start, dtype=np.float64)
        dur = np.frombuffer(self.end, dtype=np.float64) - start
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        return {"name": names, "label": labels, "parent": parent, "start": start,
                "dur": dur, "self": dur - child}

    def select(self, arrays, name: str, label: str | None = None) -> np.ndarray:
        """Boolean mask of the spans called `name`, optionally under one input label."""
        if name not in self._names:
            return np.zeros(len(arrays["dur"]), dtype=bool)
        mask = arrays["name"] == self._names[name]
        if label is not None:
            mask &= arrays["label"] == self._labels.get(label, -1)
        return mask

    def save(self, path: str):
        a = self.arrays()
        np.savez(
            path,
            names=np.array(sorted(self._names, key=self._names.get)),
            labels=np.array(sorted(self._labels, key=self._labels.get)),
            name=a["name"], label=a["label"], parent=a["parent"],
            start=a["start"], end=a["start"] + a["dur"],
        )

