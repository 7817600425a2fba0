"""Reference crossing kernel: the one-shot sort-and-sweep.

All candidate segment pairs are formed at once, the hits are ranked by
(i, j), and the crossing points are merged by the greedy loop over Python
floats.  ``measures.planar_self_intersections`` takes the candidates block
by block, so its counts and points must equal these bit for bit.  The
tests' all-pairs reference is the stronger check, but too slow for levels
of 4096 nodes; this kernel stands in for it there.
"""

import math

import numpy as np

from minann.measures import CROSSING_MERGE_TOL


def greedy_merge(points, merge_tol=CROSSING_MERGE_TOL):
    """In order, keep a point unless it is within merge_tol of a kept one."""
    merged = []
    for pt in points:
        if all(math.hypot(pt[0] - m[0], pt[1] - m[1]) > merge_tol for m in merged):
            merged.append(pt)
    return merged


def crossings_reference(xy):
    """(count, list of (x, y) tuples) of a closed polyline's crossings."""
    p = np.asarray(xy, dtype=float)
    n = len(p)
    q = np.roll(p, -1, axis=0)
    lo = np.minimum(p, q)
    hi = np.maximum(p, q)
    order = np.argsort(lo[:, 0], kind="stable")
    lo_x = lo[order, 0]
    end = np.searchsorted(lo_x, hi[order, 0] + CROSSING_MERGE_TOL, side="right")
    run = end - np.arange(n) - 1
    first = np.repeat(np.arange(n), run)
    second = first + 1 + np.arange(first.size) - np.repeat(np.cumsum(run) - run, run)
    i_idx = np.minimum(order[first], order[second])
    j_idx = np.maximum(order[first], order[second])
    keep = (j_idx - i_idx >= 2) & ~((i_idx == 0) & (j_idx == n - 1))
    keep &= lo[i_idx, 1] <= hi[j_idx, 1] + CROSSING_MERGE_TOL
    keep &= lo[j_idx, 1] <= hi[i_idx, 1] + CROSSING_MERGE_TOL
    i_idx, j_idx = i_idx[keep], j_idx[keep]

    a, b, c, d = p[i_idx], q[i_idx], p[j_idx], q[j_idx]
    ab = b - a
    cd = d - c

    def cross2(u, v):
        return u[:, 0] * v[:, 1] - u[:, 1] * v[:, 0]

    d1 = cross2(ab, c - a)
    d2 = cross2(ab, d - a)
    d3 = cross2(cd, a - c)
    d4 = cross2(cd, b - c)
    hit = (d1 * d2 < 0) & (d3 * d4 < 0)
    rank = np.lexsort((j_idx[hit], i_idx[hit]))
    d1, d2, c, cd = d1[hit][rank], d2[hit][rank], c[hit][rank], cd[hit][rank]
    s = d1 / (d1 - d2)
    xs = c[:, 0] + s * cd[:, 0]
    ys = c[:, 1] + s * cd[:, 1]
    merged = greedy_merge(list(zip(xs.tolist(), ys.tolist())))
    return len(merged), merged
