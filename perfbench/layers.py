"""Per-layer spans recorded from outside the program.

:class:`SpanTracer` replaces public functions and methods of the
program's layers with wrappers that time each call.  A span holds its
name, start, end, thread, the span that caused it (the caller's innermost
open span, carried across threads for prefetch jobs, pool tasks and
served queries) and the op it belongs to.  Spans are kept in memory and
written out when the run ends; :func:`layer_metrics` turns them into the
per-layer metrics.  Nothing in ``src/`` changes.
"""

from __future__ import annotations

import collections
import itertools
import json
import statistics
import threading
import time


class SpanTracer:
    def __init__(self) -> None:
        self.spans: list = []
        #: Op of spans whose thread names none: the op loop of the batch
        #: workloads runs one op at a time.
        self.op = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patched: list = []
        self._pending: "dict[tuple, collections.deque]" = collections.defaultdict(
            collections.deque
        )
        self._lock = threading.Lock()

    # -- span bookkeeping ------------------------------------------------ #

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _context(self) -> "tuple[object, int | None]":
        """(op, parent span) a span opened now on this thread gets."""
        stack = self._stack()
        parent = stack[-1] if stack else getattr(self._local, "parent", None)
        return getattr(self._local, "op", None) or self.op, parent

    def set_op(self, op, parent=None) -> None:
        """Name the op (and causing span) of this thread's next spans."""
        self._local.op = op
        self._local.parent = parent

    def call(self, name: str, fn, args, kwargs, info=None):
        op, parent = self._context()
        sid = next(self._ids)
        stack = self._stack()
        stack.append(sid)
        t0 = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            stack.pop()
        extra = info(args, result) if info is not None else None
        self.spans.append(
            (sid, parent, op, name, threading.get_ident(), t0, t1, extra)
        )
        return result

    def carry(self, fn):
        """``fn`` wrapped to run under the caller's op and span."""
        op, parent = self._context()

        def carried(*args, **kwargs):
            saved = (getattr(self._local, "op", None),
                     getattr(self._local, "parent", None))
            self.set_op(op, parent)
            try:
                return fn(*args, **kwargs)
            finally:
                self.set_op(*saved)

        return carried

    # -- patching -------------------------------------------------------- #

    def patch(self, owner, attr: str, name: str, info=None) -> None:
        raw = owner.__dict__[attr]
        self._patched.append((owner, attr, raw))
        tracer = self
        if isinstance(raw, classmethod):
            fn = raw.__func__

            def wrapped(cls, *args, **kwargs):
                return tracer.call(name, fn, (cls,) + args, kwargs, info)

            setattr(owner, attr, classmethod(wrapped))
            return
        fn = raw.__func__ if isinstance(raw, staticmethod) else raw

        def wrapped(*args, **kwargs):
            return tracer.call(name, fn, args, kwargs, info)

        setattr(
            owner, attr,
            staticmethod(wrapped) if isinstance(raw, staticmethod) else wrapped,
        )

    def replace(self, owner, attr: str, make) -> None:
        raw = owner.__dict__[attr]
        self._patched.append((owner, attr, raw))
        setattr(owner, attr, make(raw))

    def install(self) -> None:
        """Wrap the public entry points of every layer."""
        import repro.engine.gstore as gstore
        import repro.serve.service as service
        from repro.format.tiles import TiledGraph
        from repro.memory.scr import SCRScheduler
        from repro.runtime.threads import Prefetcher, WorkerPool
        from repro.serve.cache import ResultCache
        from repro.serve.queries import QUERY_TYPES
        from repro.storage.aio import AIOContext

        self.patch(TiledGraph, "from_edge_list", "format.convert")
        self.patch(TiledGraph, "ensure_checksums", "format.checksum")
        for attr in ("decode_batch", "split_run_views", "decode_run"):
            self.patch(TiledGraph, attr, "format.decode")
        self.patch(
            AIOContext, "service", "storage.service",
            info=lambda a, r: {"requests": len(a[1])},
        )
        self.patch(SCRScheduler, "split_cached", "memory.plan")
        self.patch(
            SCRScheduler, "segment_plan", "memory.plan",
            info=lambda a, r: {"batches": r.n_batches},
        )
        self.patch(SCRScheduler, "offer", "memory.offer")
        self.patch(SCRScheduler, "end_iteration", "memory.offer")
        self.patch(gstore, "select_positions", "engine.select")
        self.patch(
            gstore.GStoreEngine, "run", "engine.run",
            info=lambda a, r: {
                "iterations": r.n_iterations,
                "bytes_read": r.bytes_read,
                "bytes_from_cache": r.bytes_from_cache,
                "bytes_skipped": r.bytes_skipped,
                "io_time": r.io_time,
            },
        )
        self.patch(
            gstore, "execute_batch", "algorithms.kernel",
            info=lambda a, r: {"edges": r},
        )
        self.patch(Prefetcher, "get", "runtime.prefetch_wait")
        tracer = self

        def prefetcher_init(raw):
            def init(self_, jobs, *args, **kwargs):
                jobs = [tracer.carry(job) for job in jobs]
                return tracer.call(
                    "runtime.prefetcher", raw, (self_, jobs) + args, kwargs,
                    info=lambda a, r: {"jobs": len(a[1])},
                )
            return init

        self.replace(Prefetcher, "__init__", prefetcher_init)
        self.replace(
            WorkerPool, "submit",
            lambda raw: lambda self_, fn, *a, **k: raw(
                self_, tracer.carry(fn), *a, **k
            ),
        )

        # Serving: the client thread's op travels with the query to the
        # service worker, which picks it up at its first call, the cache
        # probe; the span from submit to that probe is the queue wait.
        def submit(raw):
            def wrapped(self_, query, *args, **kwargs):
                op, parent = tracer._context()
                with tracer._lock:
                    tracer._pending[query.cache_key()].append(
                        (op, time.perf_counter())
                    )
                return tracer.call(
                    "serve.submit", raw, (self_, query) + args, kwargs
                )
            return wrapped

        def cache_get(raw):
            def wrapped(self_, key):
                with tracer._lock:
                    pending = tracer._pending.get(key[1])
                    op, t0 = pending.popleft() if pending else (None, None)
                if t0 is not None:
                    tracer.set_op(op)
                    tracer.spans.append((
                        next(tracer._ids), None, op, "serve.wait",
                        threading.get_ident(), t0, time.perf_counter(), None,
                    ))
                return tracer.call(
                    "serve.cache_get", raw, (self_, key), {},
                    info=lambda a, r: {"hit": r is not None},
                )
            return wrapped

        self.replace(service.QueryService, "submit", submit)
        self.replace(ResultCache, "get", cache_get)
        for cls in QUERY_TYPES.values():
            self.patch(cls, "run", "serve.engine")
        self.patch(service, "payload_digest", "serve.digest")

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, raw = self._patched.pop()
            setattr(owner, attr, raw)

    def dump(self, path: str) -> None:
        keys = ("id", "parent", "op", "name", "thread", "start", "end")
        with open(path, "w") as fh:
            for span in self.spans:
                rec = dict(zip(keys, span[:7]))
                if span[7]:
                    rec.update(span[7])
                fh.write(json.dumps(rec) + "\n")


#: Per-layer metrics in report order: name -> unit.
PER_LAYER = {
    "format.convert_s": "s",
    "format.checksum_s": "s",
    "format.decode_s": "s",
    "format.decode_calls": "count",
    "storage.service_s": "s",
    "storage.requests": "count",
    "storage.read_mb": "MB",
    "storage.sim_io_s": "s",
    "memory.plan_s": "s",
    "memory.offer_s": "s",
    "memory.cache_mb": "MB",
    "memory.cache_hit_ratio": "ratio",
    "engine.select_s": "s",
    "engine.iterations": "count",
    "engine.batches": "count",
    "engine.skip_ratio": "ratio",
    "engine.run_s": "s",
    "engine.self_s": "s",
    "algorithms.kernel_s": "s",
    "algorithms.kernel_calls": "count",
    "algorithms.edges_per_call": "count",
    "runtime.prefetch_wait_s": "s",
    "runtime.prefetch_jobs": "count",
    "serve.wait_s": "s",
    "serve.engine_s": "s",
    "serve.digest_s": "s",
    "serve.cache_hit_ratio": "ratio",
    "serve.bfs.p50_ms": "ms",
    "serve.sssp.p50_ms": "ms",
    "serve.pagerank_topk.p50_ms": "ms",
    "serve.neighborhood.p50_ms": "ms",
    "serve.reachability.p50_ms": "ms",
    "serve.p90_ms": "ms",
    "traced.ops_per_s": "1/s",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans, setup_ops, timed_ops) -> dict:
    """Per-layer metrics from the spans.

    Set-up layers (conversion, checksums) are the median over set-ups;
    every other time and count is per timed op.  A name's time counts only
    its outermost spans, so nested calls of one layer are not counted
    twice.
    """
    by_id = {s[0]: s for s in spans}

    def outer(s) -> bool:
        parent = by_id.get(s[1])
        return parent is None or parent[3] != s[3]

    def total(name, ops):
        out = collections.Counter()
        for s in spans:
            if s[3] == name and s[2] in ops and outer(s):
                out[s[2]] += s[6] - s[5]
        return out

    timed = set(timed_ops)
    n_ops = max(1, len(timed_ops))

    def per_op(name) -> float:
        return sum(total(name, timed).values()) / n_ops

    def count(name) -> int:
        return sum(1 for s in spans if s[3] == name and s[2] in timed)

    def info_sum(name, key) -> float:
        return sum(
            s[7][key] for s in spans if s[3] == name and s[2] in timed and s[7]
        )

    def setup_median(name) -> float:
        per = total(name, set(setup_ops))
        return statistics.median([per.get(op, 0.0) for op in setup_ops])

    # Engine self time: a run span minus its direct children on its own
    # thread (prefetch and pool work overlaps it on other threads).
    child_time = collections.Counter()
    for s in spans:
        parent = by_id.get(s[1])
        if parent is not None and parent[3] == "engine.run" and parent[4] == s[4]:
            child_time[parent[0]] += s[6] - s[5]
    self_s = sum(
        (s[6] - s[5]) - child_time[s[0]]
        for s in spans if s[3] == "engine.run" and s[2] in timed
    )

    read = info_sum("engine.run", "bytes_read")
    cached = info_sum("engine.run", "bytes_from_cache")
    skipped = info_sum("engine.run", "bytes_skipped")
    hits = sum(1 for s in spans if s[3] == "serve.cache_get" and s[2] in timed and s[7]["hit"])
    gets = count("serve.cache_get")
    kernel_calls = count("algorithms.kernel")
    return {
        "format.convert_s": setup_median("format.convert"),
        "format.checksum_s": setup_median("format.checksum"),
        "format.decode_s": per_op("format.decode"),
        "format.decode_calls": count("format.decode") / n_ops,
        "storage.service_s": per_op("storage.service"),
        "storage.requests": info_sum("storage.service", "requests") / n_ops,
        "storage.read_mb": read / 1e6 / n_ops,
        "storage.sim_io_s": info_sum("engine.run", "io_time") / n_ops,
        "memory.plan_s": per_op("memory.plan"),
        "memory.offer_s": per_op("memory.offer"),
        "memory.cache_mb": cached / 1e6 / n_ops,
        "memory.cache_hit_ratio": _ratio(cached, read + cached),
        "engine.select_s": per_op("engine.select"),
        "engine.iterations": info_sum("engine.run", "iterations") / n_ops,
        "engine.batches": info_sum("memory.plan", "batches") / n_ops,
        "engine.skip_ratio": _ratio(skipped, skipped + read + cached),
        "engine.run_s": per_op("engine.run"),
        "engine.self_s": self_s / n_ops,
        "algorithms.kernel_s": per_op("algorithms.kernel"),
        "algorithms.kernel_calls": kernel_calls / n_ops,
        "algorithms.edges_per_call": _ratio(
            info_sum("algorithms.kernel", "edges"), kernel_calls
        ),
        "runtime.prefetch_wait_s": per_op("runtime.prefetch_wait"),
        "runtime.prefetch_jobs": info_sum("runtime.prefetcher", "jobs") / n_ops,
        "serve.wait_s": per_op("serve.wait"),
        "serve.engine_s": per_op("serve.engine"),
        "serve.digest_s": per_op("serve.digest"),
        "serve.cache_hit_ratio": _ratio(hits, gets),
    }
