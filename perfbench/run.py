"""The repository's benchmark: two workloads on the engine's default
configuration, every output checked against an independent answer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Run from the root of a checkout; the program is imported from ``src/``.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics (``layers.py``) with ``--trace 1``.
The ``host`` and ``detail`` lines before it hold no metric.  See
``perfbench/README.md`` for the workloads and what each metric means.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

import numpy as np

import checks

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
#: Scratch space for inputs, tile files and span dumps (git-ignored).
WORK = os.path.join(ROOT, ".perfbench")

WORKLOADS = ("pagerank-ooc", "serve-mix")
PR_ITERATIONS = 10
SERVE_WORKERS = 2
#: A serve-mix run issues at least this many queries, whatever --seconds.
SERVE_MIN_QUERIES = 100
#: serve-mix ``sim_s`` covers the distinct queries of this many rounds.
SERVE_SIM_ROUNDS = 20
TOPK = 10

END_TO_END = {
    "setup_s": "s",
    "medges_per_s": "Medges/s",
    "ops_per_s": "1/s",
    "p50_ms": "ms",
    "sim_s": "s",
    "peak_rss_mb": "MB",
}


@dataclasses.dataclass
class Op:
    """One timed op: a PageRank run or a served query."""

    kind: str
    latency: float
    edges: int
    sim: float = 0.0
    error: "str | None" = None


def edge_list(graph):
    """The generated input as the program's undirected edge list."""
    from repro.format.edgelist import EdgeList

    return EdgeList(
        graph["src"], graph["dst"], int(graph["n"]), directed=False
    )


class PagerankOOC:
    """PageRank, 10 iterations, on a non-resident graph (file-backed
    tiles) with a memory budget of 1/4 of the tile bytes.  Ops run one at
    a time on the benchmark's thread until their summed latency reaches
    the run length."""

    kind = "pagerank"
    #: Set-ups per run; ``setup_s`` is their median and the last one is
    #: timed.  A set-up here lasts 3-4 s (conversion, checksums, a
    #: PageRank), so three keep the run within its time.
    setups = 3

    def __init__(self, graph, ref, workdir):
        self.graph = graph
        self.ref = ref
        self.workdir = workdir
        self.engine = None

    def setup(self, k: int) -> None:
        from repro.engine.config import EngineConfig
        from repro.engine.gstore import GStoreEngine
        from repro.format.tiles import TiledGraph

        directory = os.path.join(self.workdir, f"tiles-{k}")
        TiledGraph.from_edge_list(
            edge_list(self.graph), tile_bits=int(self.graph["tile_bits"])
        ).save(directory)
        g = TiledGraph.load(directory, resident=False)
        tiles = g.storage_bytes()
        self.engine = GStoreEngine(
            g, EngineConfig(memory_bytes=tiles // 4, segment_bytes=tiles // 64)
        )
        self.run_op()

    def teardown(self) -> None:
        if self.engine is not None:
            self.engine.close()
            self.engine = None

    def timed(self, seconds: float, tracer) -> "list[Op]":
        ops: "list[Op]" = []
        busy = 0.0
        while busy < seconds or not ops:
            if tracer is not None:
                tracer.op = f"op-{len(ops)}"
            op = self.run_op()
            busy += op.latency
            ops.append(op)
        if tracer is not None:
            tracer.op = None
        return ops

    def execute(self):
        from repro.algorithms.pagerank import PageRank

        pr = PageRank(max_iterations=PR_ITERATIONS, tolerance=0.0)
        stats = self.engine.run(pr)
        return pr.result(), stats

    def run_op(self) -> Op:
        t0 = time.perf_counter()
        try:
            rank, stats = self.execute()
        except Exception:
            traceback.print_exc()
            return Op(self.kind, time.perf_counter() - t0, 0, error="raised")
        latency = time.perf_counter() - t0
        stored = int(self.ref["stored_edges"])
        error = checks.pagerank(rank, self.ref["ranks"])
        if error is None and self.engine.graph.n_edges != stored:
            error = f"{self.engine.graph.n_edges} edges stored, input has {stored}"
        return Op(self.kind, latency, stored * PR_ITERATIONS, stats.sim_elapsed, error)

    def sim_s(self, ops: "list[Op]") -> float:
        """Simulated seconds of one op (every op is alike)."""
        return ops[0].sim


class ServeMix:
    """One closed-loop client against an in-process ``QueryService``: it
    sends its next query when the last one returns.  A round is one BFS,
    SSSP, reachability and neighbourhood query on fresh roots plus the
    PageRank top-k, which is one hot key.

    The client is the benchmark's own thread.  Two client threads made
    query compute on the two service workers contend for the interpreter
    lock: throughput fell from about 10 to 6.5-8.7 qps and swung with
    whatever else ran on the machine."""

    kind = "query"
    #: Set-ups per run (see ``PagerankOOC.setups``).  The first set-up of
    #: a process also pays for imports and first-touch allocation, so
    #: five put warm set-ups on both sides of the median.
    setups = 5

    def __init__(self, graph, ref, workdir):
        self.graph = graph
        self.ref = ref
        self.engine = None
        self.service = None
        #: Simulated seconds per query cache key, recorded by the engine
        #: run (or lookup) that computed it.
        self.sim_by_key: dict = {}
        self._sim_by_ctx: dict = {}

    def setup(self, k: int) -> None:
        from repro.engine.config import EngineConfig
        from repro.engine.gstore import GStoreEngine
        from repro.format.tiles import TiledGraph
        from repro.serve import QueryService, ServiceConfig

        tg = TiledGraph.from_edge_list(
            edge_list(self.graph),
            tile_bits=int(self.graph["tile_bits"]),
            group_q=8,
        )
        tiles = tg.storage_bytes()
        self.engine = GStoreEngine(
            tg,
            EngineConfig(
                memory_bytes=max(tiles // 4, 64 * 1024),
                segment_bytes=max(tiles // 128, 16 * 1024),
            ),
        )
        run = self.engine.run

        def run_recording(algorithm, checkpoint=None, context=None):
            stats = run(algorithm, checkpoint=checkpoint, context=context)
            self._sim_by_ctx[id(context)] = stats.sim_elapsed
            return stats

        self.engine.run = run_recording
        self.service = QueryService(
            self.engine, ServiceConfig(workers=SERVE_WORKERS)
        )
        for query in self.round(0):
            self.service.execute(query)

    def teardown(self) -> None:
        if self.service is not None:
            self.service.close()
            self.engine.close()
            self.service = self.engine = None

    def round(self, r: int) -> list:
        from repro.serve import queries as q

        ref = self.ref
        sink = self
        return [
            _recorded(q.BFSQuery)(root=int(ref["bfs_roots"][r]), sink=sink),
            _recorded(q.SSSPQuery)(root=int(ref["sssp_roots"][r]), sink=sink),
            _recorded(q.ReachabilityQuery)(
                source=int(ref["reach_roots"][r]),
                target=int(ref["reach_targets"][r]),
                sink=sink,
            ),
            _recorded(q.NeighborhoodQuery)(vertex=int(ref["nbr_roots"][r]), sink=sink),
            _recorded(q.PageRankTopKQuery)(
                k=TOPK, max_iterations=PR_ITERATIONS, tolerance=0.0, sink=sink
            ),
        ]

    def record_sim(self, key, ctx) -> None:
        # Algorithm queries report RunStats.sim_elapsed; the neighbourhood
        # lookup runs no algorithm, and its only charge is its I/O.
        self.sim_by_key[key] = self._sim_by_ctx.pop(id(ctx), ctx.clock.now)

    def timed(self, seconds: float, tracer) -> "list[Op]":
        per_round = len(self.round(0))
        queries = [
            query
            for r in range(1, len(self.ref["bfs_roots"]))
            for query in self.round(r)
        ]
        ops: "list[Op]" = []
        t_start = time.perf_counter()
        for i, query in enumerate(queries):
            if i % per_round == 0 and (
                time.perf_counter() - t_start >= seconds
                and i >= SERVE_MIN_QUERIES
            ):
                break  # stop at a round boundary
            if tracer is not None:
                tracer.set_op(f"op-{i}")
            t0 = time.perf_counter()
            try:
                out = self.service.submit(query).result()
            except Exception:
                traceback.print_exc()
                out = None
            latency = time.perf_counter() - t0
            # Checked at once, so no payload outlives its query here.
            edges, error = self.verify(i % per_round, 1 + i // per_round, out)
            ops.append(Op(query.name, latency, edges, error=error))
        if tracer is not None:
            tracer.set_op(None)
        self.loop_s = time.perf_counter() - t_start
        self.queries = queries[: len(ops)]
        return ops

    def verify(self, slot: int, r: int, out) -> "tuple[int, str | None]":
        ref = self.ref
        if out is None:
            return 0, "raised"
        p = out.payload
        if slot == 0:
            return int(ref["bfs_edges"][r]), checks.bfs_depth(p["depth"], ref["depth"][r])
        if slot == 1:
            return int(ref["sssp_edges"][r]), checks.sssp_distance(
                p["distance"], ref["dist"][r]
            )
        if slot == 2:
            return int(ref["reach_edges"][r]), checks.reachability(
                p, ref["reach"][r], ref["reach_size"][r]
            )
        if slot == 3:
            lo, hi = ref["nbr_ptr"][r], ref["nbr_ptr"][r + 1]
            return int(ref["nbr_edges"][r]), checks.neighbors(
                p["neighbors"], ref["nbr"][lo:hi]
            )
        edges = int(ref["stored_edges"]) * PR_ITERATIONS
        return edges, checks.topk(p["vertices"], p["ranks"], ref["ranks"], TOPK)

    def sim_s(self, ops) -> float:
        first = self.queries[: len(self.round(0)) * SERVE_SIM_ROUNDS]
        # Distinct keys in first-seen order: a fixed order of summation,
        # so the figure repeats exactly.
        keys = dict.fromkeys(q.cache_key() for q in first)
        return sum(self.sim_by_key[key] for key in keys)


@functools.cache
def _recorded(cls):
    """``cls`` plus a ``sink`` that is told each computed query's
    simulated time.  Cache key, payload and engine path are unchanged."""

    @dataclasses.dataclass(frozen=True)
    class Recorded(cls):
        sink: object = dataclasses.field(default=None, compare=False, repr=False)

        def run(self, engine, ctx):
            payload = super().run(engine, ctx)
            self.sink.record_sim(self.cache_key(), ctx)
            return payload

    Recorded.__name__ = cls.__name__
    return Recorded


CLASSES = {
    "pagerank-ooc": PagerankOOC,
    "serve-mix": ServeMix,
}


def _hwm_mb() -> float:
    """Peak resident memory of this process so far."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


# -- host record --------------------------------------------------------- #


def _cpu_times() -> "list[int]":
    with open("/proc/stat") as fh:
        return [int(x) for x in fh.readline().split()[1:]]


def host_record(cpu_before, cpu_after) -> dict:
    delta = [b - a for a, b in zip(cpu_before, cpu_after)]
    steal = delta[7] if len(delta) > 7 else 0
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "steal_share": steal / max(1, sum(delta[:8])),
        "loadavg": list(os.getloadavg()),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


# -- one run ------------------------------------------------------------- #


def make_inputs(workload: str, seed: int, workdir: str, size: str = "full"):
    subprocess.run(
        [sys.executable, os.path.join(HERE, "inputs.py"), "--workload", workload,
         "--seed", str(seed), "--out", workdir, "--size", size],
        check=True, timeout=170,
    )
    with np.load(os.path.join(workdir, "graph.npz")) as z:
        graph = {k: z[k] for k in z.files}
    ref = {}
    for name in os.listdir(workdir):
        if name.startswith("ref_") and name.endswith(".npy"):
            path = os.path.join(workdir, name)
            array = np.load(path, mmap_mode="r")
            ref[name[4:-4]] = Rows(path) if array.ndim == 2 else np.array(array)
    return graph, ref


class Rows:
    """Rows of a 2-D reference array, read on demand: the file is mapped
    only while one row is copied out, so the answers of queries a run
    did not reach never enter its resident memory."""

    def __init__(self, path: str):
        self.path = path

    def __getitem__(self, r: int) -> np.ndarray:
        return np.array(np.load(self.path, mmap_mode="r")[r])


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    workdir = os.path.join(WORK, f"run-{os.getpid()}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    try:
        graph, ref = make_inputs(workload, seed, workdir)
        cpu0 = _cpu_times()
        tracer = None
        if trace:
            from layers import SpanTracer

            tracer = SpanTracer()
            tracer.install()
        wl = CLASSES[workload](graph, ref, workdir)
        setup_times = []
        rss_inputs = _hwm_mb()
        for k in range(wl.setups):
            if tracer is not None:
                tracer.op = f"setup-{k}"
            t0 = time.perf_counter()
            wl.setup(k)
            setup_times.append(time.perf_counter() - t0)
            if k < wl.setups - 1:
                wl.teardown()
        if tracer is not None:
            tracer.op = None
        rss_setup = _hwm_mb()
        ops = wl.timed(seconds, tracer)
        sim_s = wl.sim_s(ops)
        wl.teardown()
        peak_rss_mb = _hwm_mb()
        print("host " + json.dumps(host_record(cpu0, _cpu_times())))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = [op for op in ops if op.error is not None]
    for op in failed[:5]:
        print(f"FAILED {op.kind}: {op.error}", file=sys.stderr)
    done = [op for op in ops if op.error != "raised"]
    wall = wl.loop_s if workload == "serve-mix" else sum(op.latency for op in ops)
    latencies = [op.latency for op in ops]
    end_to_end = {
        "setup_s": statistics.median(setup_times),
        "medges_per_s": sum(op.edges for op in done) / wall / 1e6,
        "ops_per_s": len(done) / wall,
        "p50_ms": statistics.median(latencies) * 1e3,
        "sim_s": sim_s,
        "peak_rss_mb": peak_rss_mb,
    }
    # Not metrics: the pieces behind them, for reading a result.
    detail = {
        "setup_s": setup_times,
        "ops": len(ops),
        "wall_s": wall,
        "rss_mb_after_inputs_setup_run": [rss_inputs, rss_setup, peak_rss_mb],
    }
    print("detail " + json.dumps(detail))
    if trace:
        from layers import PER_LAYER, layer_metrics

        os.makedirs(WORK, exist_ok=True)
        tracer.uninstall()
        tracer.dump(os.path.join(WORK, f"spans-{workload}-seed{seed}.jsonl"))
        values = layer_metrics(
            tracer.spans,
            [f"setup-{k}" for k in range(wl.setups)],
            [f"op-{i}" for i in range(len(ops))],
        )
        values.update(serve_latencies(ops) if workload == "serve-mix" else {})
        values["traced.ops_per_s"] = end_to_end["ops_per_s"]
        metrics = {
            name: {"value": float(values.get(name, 0.0)), "unit": unit}
            for name, unit in PER_LAYER.items()
        }
    else:
        metrics = {
            name: {"value": float(end_to_end[name]), "unit": unit}
            for name, unit in END_TO_END.items()
        }
    return {
        "correct": not any(op.error not in (None, "raised") for op in ops),
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": metrics,
    }


def serve_latencies(ops: "list[Op]") -> dict:
    """Client-side latency per query type, and the 90th percentile of all
    (a run holds at least SERVE_MIN_QUERIES, so ten or more lie beyond
    it)."""
    out = {}
    for kind in ("bfs", "sssp", "pagerank_topk", "neighborhood", "reachability"):
        lat = [op.latency for op in ops if op.kind == kind]
        out[f"serve.{kind}.p50_ms"] = statistics.median(lat) * 1e3
    out["serve.p90_ms"] = statistics.quantiles(
        [op.latency for op in ops], n=10
    )[-1] * 1e3
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument(
        "--selftest", action="store_true",
        help="run each workload at a tiny size and show that every check "
        "rejects a perturbed result",
    )
    args = ap.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"error: no program source at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    if args.selftest:
        import selftest

        return selftest.main()
    if args.workload is None:
        ap.error("--workload is required")
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
