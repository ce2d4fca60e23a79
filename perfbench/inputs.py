"""Input generation and reference answers, run in a child process.

``python3 perfbench/inputs.py --workload NAME --seed N --out DIR`` writes
``DIR/graph.npz`` (the edge list the program converts) and
``DIR/ref_*.npy`` (answers computed here with ``scipy``, never with the
program).  Running this in its own process keeps generation and the
reference computations out of the benchmark process's peak memory.

Nothing here imports ``repro``: the generators and the reference
algorithms are written from their definitions, so a fault in the program
cannot make the check agree with it.
"""

from __future__ import annotations

import argparse
import os

import numpy as np
import scipy.sparse as sp
from scipy.sparse import csgraph

# -- workload sizes -------------------------------------------------------
# "full" is what the benchmark runs; "tiny" is for the check self-test.
# pagerank-ooc: R-MAT 2^17, edge factor 16 (2.09 M stored edges).
# serve-mix: R-MAT 2^14, edge factor 16, with answers precomputed for
# ``serve_rounds`` query rounds (a run stops issuing queries when they
# run out).  ``*_tile_bits`` are the conversion's tile widths.
SIZES = {
    "full": dict(pr_scale=17, pr_tile_bits=11, serve_scale=14, serve_tile_bits=10,
                 serve_rounds=160),
    "tiny": dict(pr_scale=10, pr_tile_bits=4, serve_scale=9, serve_tile_bits=5,
                 serve_rounds=3),
}
EDGE_FACTOR = 16
DAMPING = 0.85
PR_ITERATIONS = 10
#: The served graph is fixed (a service serves one graph); the seed
#: draws the query stream.  R-MAT graphs of other seeds differ in
#: diameter, which moved serve-mix sim_s by 5% between seeds.
SERVE_GRAPH_SEED = 20160102


def rmat(scale: int, edge_factor: int, rng) -> "tuple[np.ndarray, np.ndarray]":
    """R-MAT endpoints (a, b, c, d = 0.45, 0.25, 0.15, 0.15), relabelled by
    a random permutation so hubs spread over the ID space."""
    n_edges = edge_factor << scale
    src = np.zeros(n_edges, dtype=np.int64)
    dst = np.zeros(n_edges, dtype=np.int64)
    for _ in range(scale):
        u = rng.random(n_edges)
        src = (src << 1) | (u >= 0.70)
        dst = (dst << 1) | (((u >= 0.45) & (u < 0.70)) | (u >= 0.85))
    perm = rng.permutation(1 << scale)
    return perm[src].astype(np.uint32), perm[dst].astype(np.uint32)


def adjacency(n: int, src, dst) -> sp.csr_matrix:
    """Symmetric 0/1 adjacency of the simple undirected graph: no
    self-loops, one entry per vertex pair."""
    src = src.astype(np.int64)
    dst = dst.astype(np.int64)
    keep = src != dst
    src, dst = src[keep], dst[keep]
    a = sp.coo_matrix(
        (np.ones(2 * src.size), (np.concatenate([src, dst]), np.concatenate([dst, src]))),
        shape=(n, n),
    ).tocsr()
    a.data[:] = 1.0  # duplicates were summed; a pair is one edge
    return a


def pagerank(a: sp.csr_matrix, iterations: int, damping: float) -> np.ndarray:
    """Power iteration; dangling vertices spread their rank uniformly."""
    n = a.shape[0]
    deg = np.asarray(a.sum(axis=1)).ravel()
    dangling = deg == 0
    inv = np.where(dangling, 0.0, 1.0 / np.where(dangling, 1.0, deg))
    rank = np.full(n, 1.0 / n)
    for _ in range(iterations):
        acc = a @ (rank * inv)
        rank = (1.0 - damping) / n + damping * (acc + rank[dangling].sum() / n)
    return rank


def hash_weights(a: sp.csr_matrix) -> sp.csr_matrix:
    """The engine's weights for an unweighted graph: 1 + (min*2654435761
    xor max*40503) mod 16, computed in wrapping 64-bit arithmetic."""
    coo = a.tocoo()
    lo = np.minimum(coo.row, coo.col).astype(np.uint64)
    hi = np.maximum(coo.row, coo.col).astype(np.uint64)
    h = (lo * np.uint64(2654435761)) ^ (hi * np.uint64(40503))
    w = (1 + (h % np.uint64(16))).astype(np.float64)
    return sp.csr_matrix((w, (coo.row, coo.col)), shape=a.shape)


def component_edges(a: sp.csr_matrix, labels: np.ndarray) -> np.ndarray:
    """Undirected edges per component label."""
    per_vertex = np.diff(a.indptr)
    return np.bincount(labels, weights=per_vertex).astype(np.int64) // 2


def make(workload: str, seed: int, out: str, size: str = "full") -> None:
    z = SIZES[size]
    rng = np.random.default_rng(seed)
    graph: dict = {}
    ref: dict = {}
    if workload == "pagerank-ooc":
        n = 1 << z["pr_scale"]
        src, dst = rmat(z["pr_scale"], EDGE_FACTOR, rng)
        graph["tile_bits"] = z["pr_tile_bits"]
        a = adjacency(n, src, dst)
        ref["ranks"] = pagerank(a, PR_ITERATIONS, DAMPING)
        ref["stored_edges"] = a.nnz // 2
    elif workload == "serve-mix":
        n = 1 << z["serve_scale"]
        rounds = z["serve_rounds"]
        src, dst = rmat(
            z["serve_scale"], EDGE_FACTOR, np.random.default_rng(SERVE_GRAPH_SEED)
        )
        graph["tile_bits"] = z["serve_tile_bits"]
        a = adjacency(n, src, dst)
        degree = np.diff(a.indptr)
        _, labels = csgraph.connected_components(a, directed=False)
        edges = component_edges(a, labels)
        # The served graph is fixed; the seed draws the query stream.
        # Roots are distinct vertices with at least one neighbour, drawn
        # without replacement; round 0 is the warm-up.
        candidates = np.flatnonzero(degree > 0)
        roots = rng.permutation(candidates)[: 4 * (rounds + 1)]
        bfs, sssp, reach, nbr = roots.reshape(-1, 4).T
        targets = rng.choice(candidates, rounds + 1)
        ref.update(
            bfs_roots=bfs, sssp_roots=sssp, reach_roots=reach,
            reach_targets=targets, nbr_roots=nbr,
            depth=csgraph.shortest_path(
                a, directed=False, unweighted=True, indices=bfs
            ),
            dist=csgraph.dijkstra(
                hash_weights(a), directed=False, indices=sssp
            ),
            reach=labels[reach] == labels[targets],
            reach_size=np.bincount(labels)[labels[reach]],
            nbr_ptr=np.concatenate([[0], np.cumsum(degree[nbr])]),
            nbr=np.concatenate(
                [np.sort(a.indices[a.indptr[v]:a.indptr[v + 1]]) for v in nbr]
            ),
            ranks=pagerank(a, PR_ITERATIONS, DAMPING),
            stored_edges=a.nnz // 2,
            bfs_edges=edges[labels[bfs]],
            sssp_edges=edges[labels[sssp]],
            reach_edges=edges[labels[reach]],
            nbr_edges=degree[nbr],
        )
    else:
        raise SystemExit(f"unknown workload {workload!r}")
    np.savez(os.path.join(out, "graph.npz"), src=src, dst=dst, n=n, **graph)
    # One file per answer array, so the benchmark can map them and touch
    # only the rows of the queries it ran.
    for key, value in ref.items():
        np.save(os.path.join(out, f"ref_{key}.npy"), value)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--size", choices=sorted(SIZES), default="full")
    args = ap.parse_args()
    make(args.workload, args.seed, args.out, args.size)


if __name__ == "__main__":
    main()
