"""Quick mode: every workload at a tiny size, then every check fed a
deliberately perturbed copy of a correct result, which it must reject.

    python3 perfbench/run.py --selftest

Exits 0 when every correct result passes and every perturbed one fails.
"""

from __future__ import annotations

import os
import shutil

import numpy as np

import checks
import run


def _perturbed(name: str, check, good, bad) -> bool:
    ok = check(good) is None
    caught = check(bad)
    print(f"selftest {name}: correct result {'passes' if ok else 'FAILS'}, "
          f"perturbed result {'rejected: ' + caught if caught else 'ACCEPTED'}")
    return ok and caught is not None


def _first_reached(values, exclude) -> int:
    """A vertex with a finite, non-zero value (so a perturbation shows)."""
    vals = np.asarray(values, dtype=np.float64)
    cand = np.flatnonzero(np.isfinite(vals) & (vals > 0) & (np.arange(vals.size) != exclude))
    return int(cand[0])


def main() -> int:
    good = True
    workdir = os.path.join(run.WORK, f"selftest-{os.getpid()}")
    try:
        for workload in run.WORKLOADS:
            shutil.rmtree(workdir, ignore_errors=True)
            os.makedirs(workdir)
            graph, ref = run.make_inputs(workload, 1, workdir, size="tiny")
            wl = run.CLASSES[workload](graph, ref, workdir)
            wl.setup(0)
            ops = wl.timed(0.0, None)
            errors = [op.error for op in ops if op.error is not None]
            print(f"selftest {workload}: {len(ops)} ops, {len(errors)} failed {errors[:3]}")
            good &= not errors
            if workload == "pagerank-ooc":
                rank, _ = wl.execute()
                ref_r = ref["ranks"]
                # Move 1e-6 of one vertex's rank to another: the sum holds.
                one = rank.copy()
                v = _first_reached(one, -1)
                one[v] -= one[v] * 1e-6
                one[_first_reached(one, v)] += rank[v] * 1e-6
                good &= _perturbed("pagerank rank moved between two vertices",
                                   lambda r: checks.pagerank(r, ref_r), rank, one)
                good &= _perturbed("pagerank ranks scaled by 1+1e-6",
                                   lambda r: checks.pagerank(r, ref_r), rank,
                                   rank * (1 + 1e-6))
            else:
                res = [wl.service.execute(q).payload for q in wl.round(1)]
                bfs, sssp, reach, nbr, top = res
                d2 = bfs["depth"].copy()
                d2[_first_reached(bfs["depth"], int(ref["bfs_roots"][1]))] += 1
                good &= _perturbed("serve bfs one depth +1",
                                   lambda d: checks.bfs_depth(d, ref["depth"][1]),
                                   bfs["depth"], d2)
                s2 = sssp["distance"].copy()
                s2[_first_reached(s2, int(ref["sssp_roots"][1]))] *= 1 + 1e-6
                good &= _perturbed("serve sssp one distance off by 1e-6",
                                   lambda d: checks.sssp_distance(d, ref["dist"][1]),
                                   sssp["distance"], s2)
                flipped = dict(reach, reachable=not reach["reachable"])
                good &= _perturbed(
                    "serve reachability flipped",
                    lambda p: checks.reachability(p, ref["reach"][1], ref["reach_size"][1]),
                    reach, flipped)
                lo, hi = ref["nbr_ptr"][1], ref["nbr_ptr"][2]
                good &= _perturbed("serve neighbourhood missing one",
                                   lambda n: checks.neighbors(n, ref["nbr"][lo:hi]),
                                   nbr["neighbors"], nbr["neighbors"][:-1])
                worst = int(np.argmin(ref["ranks"]))
                v2 = top["vertices"].copy()
                v2[-1] = worst
                r2 = top["ranks"].copy()
                r2[-1] = ref["ranks"][worst]
                good &= _perturbed(
                    "serve top-k with a low-ranked vertex",
                    lambda vr: checks.topk(vr[0], vr[1], ref["ranks"], run.TOPK),
                    (top["vertices"], top["ranks"]), (v2, r2))
            wl.teardown()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print("selftest " + ("passed" if good else "FAILED"))
    return 0 if good else 1
