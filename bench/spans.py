"""Spans around calls into povmcal's layers, recorded from outside the package.

:class:`Tracer` replaces every public function and public method of the
layer modules with a wrapper that records a span (name, start, end,
parent) and restores the originals on exit.  Nothing under ``src/`` is
edited.  :class:`SolveProbe` sits on ``recon_ml.maximize`` and
``stats.bootstrap`` in every run, traced or not: it certifies each ML solve
and counts bootstrap repetitions, and it keeps the time its certificates
take so that the caller can subtract it from the calibration time.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from array import array

import numpy as np

from checks import MONOTONE_SLACK, kkt_gap

from povmcal import recon_ml, stats

LAYERS = ("states", "detectors", "quorum", "sampler", "recon_avg", "recon_ml", "stats", "cli")
# the span of the benchmark's own certificate work
KKT_SPAN = "bench.kkt"

clock = time.perf_counter


def self_times(parent: np.ndarray, start: np.ndarray, end: np.ndarray) -> np.ndarray:
    """Each span's duration minus the time its direct children cover.

    Spans of one thread nest, so the children of a span never overlap and
    the time they cover is the sum of their durations.  ``parent`` holds
    the index of the parent span, or -1 for a root.
    """
    duration = end - start
    child = parent >= 0
    covered = np.bincount(parent[child], weights=duration[child], minlength=duration.size)
    return duration - covered


class Tracer:
    """Records a span for each call into a public function of the layers."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self._patches: list[tuple[object, str, object]] = []

    def _intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def record(self, name: str, start: float, end: float) -> None:
        """Add a finished span as a child of the span now open."""
        self.name_id.append(self._intern(name))
        self.parent.append(self._stack[-1])
        self.start.append(start)
        self.end.append(end)

    def _wrap(self, fn, name: str):
        nid = self._intern(name)
        name_id, parent, start, end, stack = (
            self.name_id, self.parent, self.start, self.end, self._stack
        )

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()

        return traced

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def __enter__(self) -> "Tracer":
        by_id = {}
        for layer in LAYERS:
            module = importlib.import_module(f"povmcal.{layer}")
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    by_id[id(obj)] = self._wrap(obj, f"{layer}.{attr}")
                elif inspect.isclass(obj):
                    for method, member in list(vars(obj).items()):
                        if method.startswith("_"):
                            continue
                        label = f"{layer}.{obj.__name__}.{method}"
                        if inspect.isfunction(member):
                            self._patch(obj, method, self._wrap(member, label))
                        elif isinstance(member, classmethod):
                            wrapped = self._wrap(member.__func__, label)
                            self._patch(obj, method, classmethod(wrapped))
        # rebind every reference, including names imported into other modules
        for name, module in list(sys.modules.items()):
            if name == "povmcal" or name.startswith("povmcal."):
                for attr, obj in list(vars(module).items()):
                    if id(obj) in by_id:
                        self._patch(module, attr, by_id[id(obj)])
        return self

    def __exit__(self, *exc) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def arrays(self):
        """(name_id, parent, start, end) as numpy arrays."""
        return (
            np.frombuffer(self.name_id, dtype=np.int32).copy(),
            np.frombuffer(self.parent, dtype=np.int32).copy(),
            np.frombuffer(self.start, dtype=np.float64).copy(),
            np.frombuffer(self.end, dtype=np.float64).copy(),
        )

    def table(self) -> dict[str, dict]:
        """Per span name: calls, total duration and total self time, in seconds.

        Durations leave out the ``bench.kkt`` spans nested at any depth
        inside a span, so that no layer's figure holds certificate work.
        """
        name_id, parent, start, end = self.arrays()
        own = self_times(parent, start, end)
        duration = end - start
        if KKT_SPAN in self._ids:
            for idx in np.flatnonzero(name_id == self._ids[KKT_SPAN]):
                up = parent[idx]
                while up >= 0:
                    duration[up] -= duration[idx]
                    up = parent[up]
        n = len(self.names)
        calls = np.bincount(name_id, minlength=n)
        total = np.bincount(name_id, weights=duration, minlength=n)
        self_s = np.bincount(name_id, weights=own, minlength=n)
        return {
            name: {"calls": int(calls[i]), "total_s": float(total[i]), "self_s": float(self_s[i])}
            for i, name in enumerate(self.names)
        }


def sweep_bytes(problem) -> int:
    """Bytes of problem data one likelihood sweep reads.

    Diagonal problems pass the response rows twice (probabilities, then
    gradient); finite problems pass the effect operators and the count
    tensor twice each.
    """
    if hasattr(problem, "responses"):
        return 2 * problem.responses.nbytes
    return 2 * (problem.effects.nbytes + problem.counts.nbytes)


class SolveProbe:
    """Certifies every ML solve and counts bootstrap repetitions.

    Install it after a :class:`Tracer` so that its certificate work is a
    ``bench.kkt`` span of its own and not part of the solve's span.
    """

    def __init__(self, tracer: Tracer | None = None):
        self.tracer = tracer
        self.solves: list[dict] = []
        self.reps = 0
        self.rep_failures = 0
        self.excluded_s = 0.0
        self._patches = []

    def __enter__(self) -> "SolveProbe":
        maximize, bootstrap = recon_ml.maximize, stats.bootstrap

        def probed_maximize(problem, init=None, **kwargs):
            t0 = clock()
            result = maximize(problem, init=init, **kwargs)
            t1 = clock()
            self.solves.append(
                {
                    "warm": init is not None,
                    "seconds": t1 - t0,
                    "iterations": int(result.iterations),
                    "converged": bool(result.converged),
                    "monotone": bool(np.all(np.diff(result.ll_trace) >= -MONOTONE_SLACK)),
                    "completeness": float(result.completeness_deviation),
                    "min_eigenvalue": float(result.min_eigenvalue),
                    "kkt_gap": kkt_gap(problem, result.povm_hat),
                    "sweep_bytes": sweep_bytes(problem),
                }
            )
            t2 = clock()
            self.excluded_s += t2 - t1
            if self.tracer is not None:
                self.tracer.record(KKT_SPAN, t1, t2)
            return result

        def probed_bootstrap(*args, **kwargs):
            report = bootstrap(*args, **kwargs)
            self.reps += report.n_repetitions
            self.rep_failures += report.n_failures
            return report

        self._patches = [(recon_ml, "maximize", maximize), (stats, "bootstrap", bootstrap)]
        recon_ml.maximize = probed_maximize
        stats.bootstrap = probed_bootstrap
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in self._patches:
            setattr(owner, attr, original)
        self._patches = []
