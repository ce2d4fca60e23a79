"""Output checks against the reference answers of ``inputs.py``.

Each check returns ``None`` when the program's output is right and a
one-line reason when it is not.  Tolerances are set by float order alone:
the engine and ``scipy`` sum the same float64 terms in different orders.
"""

from __future__ import annotations

import numpy as np

#: Relative tolerance for float results summed in a different order.
RTOL = 1e-9
#: Sentinel the engine stores for an unreached BFS depth.
UNREACHED = np.iinfo(np.uint32).max


def pagerank(rank, ref) -> "str | None":
    rank = np.asarray(rank)
    if rank.shape != ref.shape:
        return f"rank shape {rank.shape} != {ref.shape}"
    if abs(float(rank.sum()) - 1.0) > RTOL:
        return f"ranks sum to {float(rank.sum())!r}, not 1"
    if not np.allclose(rank, ref, rtol=RTOL, atol=0.0):
        bad = int(np.argmax(np.abs(rank - ref) / ref))
        return f"rank[{bad}] = {float(rank[bad])!r}, reference {float(ref[bad])!r}"
    return None


def bfs_depth(depth, ref) -> "str | None":
    """Depths must equal unweighted shortest-path lengths exactly."""
    depth = np.asarray(depth)
    if depth.shape != ref.shape:
        return f"depth shape {depth.shape} != {ref.shape}"
    got = np.where(depth == UNREACHED, np.inf, depth.astype(np.float64))
    wrong = np.flatnonzero(got != ref)
    if wrong.size:
        v = int(wrong[0])
        return f"{wrong.size} depths wrong, e.g. depth[{v}] = {got[v]}, reference {ref[v]}"
    return None


def sssp_distance(dist, ref) -> "str | None":
    dist = np.asarray(dist)
    if dist.shape != ref.shape:
        return f"distance shape {dist.shape} != {ref.shape}"
    if not np.array_equal(np.isinf(dist), np.isinf(ref)):
        return "reached set differs from the reference"
    fin = np.isfinite(ref)
    if not np.allclose(dist[fin], ref[fin], rtol=RTOL, atol=0.0):
        v = int(np.flatnonzero(fin)[np.argmax(np.abs(dist[fin] - ref[fin]))])
        return f"dist[{v}] = {float(dist[v])!r}, reference {float(ref[v])!r}"
    return None


def neighbors(got, ref) -> "str | None":
    got = np.asarray(got, dtype=np.int64)
    if not np.array_equal(got, ref):
        return f"{got.size} neighbours returned, reference has {ref.size} (or they differ)"
    return None


def reachability(payload: dict, reachable: bool, size: int) -> "str | None":
    if bool(payload["reachable"]) != bool(reachable):
        return f"reachable = {payload['reachable']}, reference {bool(reachable)}"
    if int(payload["visited_count"]) != int(size):
        return f"closure of {payload['visited_count']}, component has {int(size)}"
    return None


def topk(vertices, ranks, ref, k: int) -> "str | None":
    """The returned vertices must be a top-k set of the reference ranks
    (ties allowed) and carry their reference rank."""
    vertices = np.asarray(vertices, dtype=np.int64)
    if vertices.size != k or np.unique(vertices).size != k:
        return f"{vertices.size} vertices returned ({np.unique(vertices).size} distinct), want {k}"
    if not np.allclose(ranks, ref[vertices], rtol=RTOL, atol=0.0):
        return "returned ranks differ from the reference ranks"
    best = np.sort(ref)[::-1][:k]
    if not np.allclose(np.sort(ref[vertices])[::-1], best, rtol=RTOL, atol=0.0):
        return "returned vertices are not a top-k set of the reference ranks"
    return None
