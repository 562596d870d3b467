"""Per-layer spans, recorded from outside the package.

The tracer wraps, for the length of a traced phase, the public functions
that one module of ``boxchain`` calls in another by name, and the public
methods of ``Stream``.  No source file of the package changes: a function
imported by name is patched in the namespace of the module that calls it
(``montecarlo.coupled_step``, ``coupling.contract``, ...), so the calls the
package makes itself go through the wrapper.

A span is timed at entry and exit and folded into per-name totals at
once: call count, inclusive time and self time (inclusive time minus the
time of the recorded spans directly inside it).  Scalar stream draws run
to millions per op, so spans are aggregated rather than kept one by one.
A call made while a span of the same name is open (``bernoulli`` calling
``random``, ``occupancy_table`` calling ``occupancy_bounds``) is not a new
span: counts are calls into a layer from outside it.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict

from boxchain import boxes, coupling, intervals, montecarlo, oracle
from boxchain.stream import Stream

# The montecarlo entry points the workloads reach.
MONTECARLO_FNS = (
    "estimate_occupancy",
    "estimate_occupancy_2d",
    "coupling_invariant_check",
    "reflection_identity_check",
    "coalescence_stats",
    "coupling_marginal_test",
)

# (owner, attribute, span name)
TARGETS = (
    [(Stream, "substream", "stream.substream")]
    + [(Stream, m, "stream.scalar") for m in ("random", "bernoulli", "randbelow", "geometric")]
    + [(Stream, m, "stream.vector") for m in ("random_array", "integers_upto", "geometric_array")]
    + [(mod, "contract", "intervals.contract") for mod in (intervals, coupling)]
    + [(mod, "expand", "intervals.expand") for mod in (intervals, coupling)]
    + [
        (montecarlo, "coupled_step", "coupling.coupled_step"),
        (montecarlo, "reflection_coupled_step", "coupling.reflection_step"),
    ]
    + [(montecarlo, f, "coupling.predicate") for f in ("classify_pair", "dominates_nonnegative", "reflect_origin")]
    + [(montecarlo, f, f"montecarlo.{f}") for f in MONTECARLO_FNS]
    + [
        (oracle, "evolve", "oracle.evolve"),
        (oracle, "contraction_pushforward", "oracle.pushforward"),
        (oracle, "expansion_pushforward", "oracle.pushforward"),
        (oracle, "occupancy_table", "oracle.occupancy"),
        (oracle, "occupancy_bounds", "oracle.occupancy"),
        (boxes, "step_rect", "boxes.step_rect"),
    ]
)


class Tracer:
    """Wraps the targets while installed and aggregates their spans."""

    def __init__(self) -> None:
        self.calls: dict[str, int] = defaultdict(int)
        self.total: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.vector_values = 0
        self.law = {"support_spans": 0, "grid_extent": 0, "lost": 0.0}
        self._stack: list[list] = []  # open spans: [name, child time]
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if stack and stack[-1][0] == name:
                return fn(*args, **kwargs)
            frame = [name, 0.0]
            stack.append(frame)
            started = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - started
                stack.pop()
                self.calls[name] += 1
                self.total[name] += elapsed
                self.self_time[name] += elapsed - frame[1]
                if stack:
                    stack[-1][1] += elapsed
            if name == "stream.vector":
                self.vector_values += result.size
            elif name == "oracle.evolve":
                self._record_law(result)
            return result

        return traced

    def _record_law(self, law) -> None:
        spans = [iv for iv in law.weights if iv is not None]
        if spans:
            extent = max(iv.right for iv in spans) - min(iv.left for iv in spans) + 1
            self.law["grid_extent"] = max(self.law["grid_extent"], extent)
        self.law["support_spans"] = max(self.law["support_spans"], len(spans))
        self.law["lost"] = max(self.law["lost"], float(law.lost))

    def __enter__(self) -> "Tracer":
        for owner, attr, name in TARGETS:
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original))
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def per_op(self, ops: int) -> dict[str, float]:
        """Span metrics per traced op; the cli and trace metrics are the caller's."""
        out: dict[str, float] = {}
        for name in ("stream.substream", "stream.scalar", "stream.vector",
                     "intervals.contract", "intervals.expand", "coupling.coupled_step",
                     "coupling.reflection_step", "coupling.predicate", "oracle.evolve",
                     "oracle.pushforward", "boxes.step_rect"):
            out[f"{name}_calls"] = self.calls[name] / ops
            out[f"{name}_s"] = self.total[name] / ops
        out["stream.vector_values"] = self.vector_values / ops
        for f in MONTECARLO_FNS:
            out[f"montecarlo.{f}_calls"] = self.calls[f"montecarlo.{f}"] / ops
            out[f"montecarlo.{f}_self_s"] = self.self_time[f"montecarlo.{f}"] / ops
        out["oracle.occupancy_s"] = self.total["oracle.occupancy"] / ops
        out.update({f"oracle.{k}": v for k, v in self.law.items()})
        return out
