"""Outside-in span tracer: wraps each layer's public methods from benchmark code.

Nothing under ``src/`` knows about it. :meth:`Tracer.install` replaces
the methods listed in :func:`targets` with timing wrappers and
:meth:`Tracer.uninstall` puts the originals back. Spans are recorded only
inside a root span (:meth:`Tracer.root`), which the workload opens around
each request, so benchmark bookkeeping between requests never lands in a
layer. ``Operator.combine`` is the hot scalar call (about 10^5 per large
lookback scan), so it is counted, not timed; its time stays in the
enclosing span.

A layer's self time is the summed duration of its spans minus the time
their child spans cover. The traced wall time is the summed duration of
the root spans; the layers' self times plus ``host.unattributed`` (time
inside a root span that no layer claims) add up to it.
"""

from __future__ import annotations

import functools
import json
import time
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

_MISSING = object()


def targets() -> list[tuple[object, str, str, str | None]]:
    """``(owner, attribute, layer, span name)`` for every wrapped callable.

    A span name of ``None`` names the span after the launched kernel.
    """
    from repro.cluster.router import ClusterRouter
    from repro.core import store
    from repro.core.autotune_cache import CachedTuner
    from repro.core.executor import PlanResolver, ScanExecutor
    from repro.core.session import ScanSession
    from repro.gpusim.costmodel import CostModel
    from repro.gpusim.device import GPU
    from repro.gpusim.events import Trace
    from repro.gpusim.kernel import ExecutionEngine
    from repro.gpusim.memory import AllocationScope, DeviceArray
    from repro.interconnect.transfer import TransferEngine
    from repro.mpisim.communicator import Communicator
    from repro.primitives.operators import Operator
    from repro.serve import service
    from repro.serve.service import ScanService

    out = [
        (ScanSession, "scan", "session", "session.scan"),
        (CachedTuner, "best_single_gpu_variant", "autotune", "autotune.variant"),
        (CachedTuner, "best_k", "autotune", "autotune.best_k"),
        (ScanExecutor, "execute", "executor", "executor.execute"),
        (PlanResolver, "resolve", "executor", "executor.resolve"),
        (AllocationScope, "upload", "memory", "memory.upload"),
        (DeviceArray, "to_host", "memory", "memory.collect"),
        (GPU, "launch", "kernels", None),
        (ExecutionEngine, "run", "kernels", "kernels.body"),
        (CostModel, "kernel_time", "kernels", "kernels.cost_model"),
        (Operator, "accumulate", "operators", "operators.accumulate"),
        (service, "pad_rows_to_batch", "serve", "serve.pad"),
        (store, "spawn_replica_session", "cluster", "cluster.respawn"),
    ]
    out += [(TransferEngine, name, "transfer", f"transfer.{name}")
            for name in ("copy", "host_to_device", "device_to_host",
                         "record_dispatch")]
    out += [(Communicator, name, "mpi", f"mpi.{name}")
            for name in ("barrier", "gather", "scatter", "bcast", "allgather",
                         "send_recv", "reduce", "allreduce", "alltoall")]
    out += [(Trace, name, "trace", f"trace.{name}")
            for name in ("add", "prepend", "total_time")]
    out += [(ScanService, name, "serve", f"serve.{name}")
            for name in ("submit", "advance_to", "flush", "drain")]
    out += [(ClusterRouter, name, "cluster", f"cluster.{name}")
            for name in ("submit", "advance_to", "drain_queues")]
    return out


def counted_targets() -> list[tuple[object, str, str]]:
    """``(owner, attribute, counter name)`` for count-only wrappers."""
    from repro.primitives.operators import Operator

    return [(Operator, "combine", "operators.combine")]


def _kernel_name(args, kwargs) -> str:
    # GPU.launch(self, trace, name, phase, ...)
    return kwargs["name"] if "name" in kwargs else args[2]


class Tracer:
    """In-memory spans: ``[name, layer, start, end, parent, request, attrs]``."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        #: Every ScanResult returned by a session call inside a root span.
        self.results: list = []
        #: ``id(row array) -> request id``; lets a batch span name the
        #: requests it serves (the service pads a batch's rows right
        #: before scanning it, so the next session span is that batch).
        self.request_ids: dict[int, int] = {}
        self._stack: list[int] = []
        self._batch: list[int] | None = None
        self._saved: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------ wrapping

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for owner, attr, layer, name in targets():
            self._patch(owner, attr, self._timed(getattr(owner, attr), layer, name))
        for owner, attr, name in counted_targets():
            self._patch(owner, attr, self._counted(getattr(owner, attr), name))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            if original is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._saved.append((owner, attr, vars(owner).get(attr, _MISSING)))
        setattr(owner, attr, wrapper)

    def _timed(self, fn, layer: str, name: str | None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer._stack:
                return fn(*args, **kwargs)
            span = name or f"kernels.launch.{_kernel_name(args, kwargs)}"
            attrs = None
            if span == "serve.pad":
                attrs = {"requests": [tracer.request_ids.get(id(row), -1)
                                      for row in args[0]]}
                tracer._batch = attrs["requests"]
            elif span == "session.scan" and tracer._batch is not None:
                attrs = {"requests": tracer._batch}
                tracer._batch = None
            index = tracer._open(span, layer, attrs)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(index)
            if span == "session.scan":
                tracer.results.append(result)
            return result

        return wrapper

    def _counted(self, fn, name: str):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer._stack:
                tracer.counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # --------------------------------------------------------------- spans

    def _open(self, name: str, layer: str, attrs=None, request=None) -> int:
        parent = self._stack[-1] if self._stack else -1
        if request is None:
            request = self.spans[parent][5] if parent >= 0 else -1
        self.spans.append([name, layer, time.perf_counter(), 0.0, parent,
                           request, attrs])
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index][3] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def root(self, request: int, name: str = "request"):
        """One request (or the drain after the last one) as a root span."""
        index = self._open(name, "host", request=request)
        try:
            yield
        finally:
            self._close(index)

    # ------------------------------------------------------------ analysis

    def self_times(self) -> list[float]:
        """Each span's duration minus its direct children's durations."""
        own = [span[3] - span[2] for span in self.spans]
        for span in self.spans:
            if span[4] >= 0:
                own[span[4]] -= span[3] - span[2]
        return own

    def wall(self) -> float:
        """Traced wall time: the summed duration of the root spans."""
        return sum(span[3] - span[2] for span in self.spans if span[4] < 0)

    def layer_self(self) -> dict[str, float]:
        """Self seconds per layer. Root spans are layer ``host``, so its
        self time is the time inside a request that no layer claims."""
        totals: Counter = Counter()
        for span, own in zip(self.spans, self.self_times()):
            totals[span[1]] += own
        return dict(totals)

    def span_totals(self) -> tuple[Counter, Counter]:
        """Summed duration and call count per span name."""
        seconds: Counter = Counter()
        calls: Counter = Counter()
        for span in self.spans:
            seconds[span[0]] += span[3] - span[2]
            calls[span[0]] += 1
        return seconds, calls

    def write_chrome_trace(self, path: Path, max_spans: int = 50_000) -> None:
        """Chrome trace-event JSON of the first ``max_spans`` spans."""
        if not self.spans:
            return
        origin = self.spans[0][2]
        events = []
        for name, layer, start, end, parent, request, attrs in self.spans[:max_spans]:
            args = {"request": request}
            if attrs:
                args.update(attrs)
            events.append({
                "name": name, "cat": layer, "ph": "X", "pid": 0, "tid": 0,
                "ts": (start - origin) * 1e6, "dur": (end - start) * 1e6,
                "args": args,
            })
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"traceEvents": events,
                                    "displayTimeUnit": "ms"}))
