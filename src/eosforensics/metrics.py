"""Network metrics over a `graphs.DiGraph`: directed weighted clustering
(Fagiolo total variant), degree assortativity, in/out degree correlation,
connected components and weighted PageRank. Each reads the graph's
integer edge arrays; node names appear only in the results.

Clustering ignores self-loops and zero-weight edges, in the weights and in
the degrees alike, and runs one algorithm at every graph size:
degree-ordered triangle enumeration (Schank & Wagner 2005), O(m^1.5)."""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import asdict, dataclass

import numpy as np

from .errors import ConvergenceError, MetricError
from .graphs import DiGraph


@dataclass
class MetricsReport:
    clustering: float | None
    assortativity: float | None
    pearson_in_out: float | None
    scc_count: int
    largest_scc: int
    wcc_count: int
    largest_wcc: int
    node_count: int
    edge_count: int

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True)

    def to_text(self) -> str:
        def fmt(x):
            return "/" if x is None else f"{x:.4f}"

        rows = [
            ("Clustering", fmt(self.clustering)),
            ("Assortativity", fmt(self.assortativity)),
            ("Pearson", fmt(self.pearson_in_out)),
            ("# SCC", str(self.scc_count)),
            ("Largest SCC", str(self.largest_scc)),
            ("# WCC", str(self.wcc_count)),
            ("Largest WCC", str(self.largest_wcc)),
            ("# Nodes", str(self.node_count)),
            ("# Edges", str(self.edge_count)),
        ]
        width = max(len(name) for name, _ in rows)
        return "\n".join(f"{name:>{width}}  {val}" for name, val in rows)


# ---------------------------------------------------------------------------
# Clustering (Fagiolo 2007, "total" directed variant)


def clustering_coefficient(graph: DiGraph) -> float | None:
    """Average directed weighted clustering over nodes with at least one
    possible directed triangle. Self-loops and zero-weight edges are
    ignored; the other weights are normalized by their maximum. Returns
    None when no node is eligible.

    Node i scores [(S)^3]_ii / (2 * (d_tot(d_tot - 1) - 2 * d_bidir)),
    with S = What + What.T and What = cbrt(w / wmax). The numerator is
    twice the sum of s_xy * s_xz * s_yz over the triangles at i; each
    triangle is found once, from its lowest (degree, id) corner.
    """
    n = len(graph.nodes)
    kept = (graph.src != graph.dst) & (graph.weight > 0)
    if not kept.any():
        return None
    u, v, w = graph.src[kept], graph.dst[kept], graph.weight[kept]
    w_hat = np.cbrt(w / w.max())

    # Fold both directions of each node pair into one undirected pair a < b.
    key, pair = np.unique(np.minimum(u, v) * n + np.maximum(u, v), return_inverse=True)
    s = np.bincount(pair, weights=w_hat)
    a, b = np.divmod(key, n)
    both = np.bincount(pair) == 2
    d_tot = np.bincount(u, minlength=n) + np.bincount(v, minlength=n)
    d_bidir = np.bincount(a[both], minlength=n) + np.bincount(b[both], minlength=n)
    den = 2.0 * (d_tot * (d_tot - 1.0) - 2.0 * d_bidir)

    # Point each pair from its lower to its higher (degree, id) end and
    # group by the lower end; every two pairs in a group form a wedge.
    deg = np.bincount(a, minlength=n) + np.bincount(b, minlength=n)
    flip = deg[a] > deg[b]
    lo, hi = np.where(flip, b, a), np.where(flip, a, b)
    order = np.argsort(lo, kind="stable")
    src, dst, s_out = lo[order], hi[order], s[order]
    later = np.cumsum(np.bincount(src, minlength=n))[src] - np.arange(len(src)) - 1
    first = np.repeat(np.arange(len(src)), later)
    second = first + 1 + np.arange(len(first)) - np.repeat(np.cumsum(later) - later, later)

    # A wedge closes into a triangle when its two far ends form a pair.
    y, z = dst[first], dst[second]
    closing = np.minimum(y, z) * n + np.maximum(y, z)
    at = np.minimum(np.searchsorted(key, closing), len(key) - 1)
    closed = key[at] == closing
    first, second, at = first[closed], second[closed], at[closed]
    t = 2.0 * s_out[first] * s_out[second] * s[at]
    num = sum(np.bincount(c, weights=t, minlength=n)
              for c in (src[first], dst[first], dst[second]))

    eligible = den > 0
    if not eligible.any():
        return None
    return float(np.mean(num[eligible] / den[eligible]))


# ---------------------------------------------------------------------------
# Correlation metrics


def _pearson(xs, ys) -> float | None:
    n = len(xs)
    if n < 2:
        return None
    x = np.asarray(xs, dtype=np.float64)
    y = np.asarray(ys, dtype=np.float64)
    xd = x - x.mean()
    yd = y - y.mean()
    vx = float(xd @ xd)
    vy = float(yd @ yd)
    if vx == 0.0 or vy == 0.0:
        return None
    return float((xd @ yd) / math.sqrt(vx * vy))


def assortativity(graph: DiGraph) -> float | None:
    """Directed degree assortativity: Pearson correlation, over edges,
    between source out-degree and target in-degree (unweighted)."""
    return _pearson(graph.out_degrees()[graph.src], graph.in_degrees()[graph.dst])


def pearson_in_out(graph: DiGraph) -> float | None:
    """Pearson correlation, over nodes, between in-degree and out-degree."""
    return _pearson(graph.in_degrees(), graph.out_degrees())


# ---------------------------------------------------------------------------
# Components


# Rounds of SCC trimming: each is a few array passes over the edges, and
# Tarjan takes whatever is left, so the cap only bounds the trimming of
# long chains.
TRIM_ROUNDS = 16


def _sorted_components(graph: DiGraph, groups):
    """`groups` (lists of node ids) as name sets sorted by size descending,
    then by smallest member."""
    groups.sort(key=lambda c: (-len(c), min(c)))
    return [{graph.nodes[i] for i in c} for c in groups]


def strongly_connected_components(graph: DiGraph):
    """Trimming first (McLendon et al. 2005): a node with no incoming or no
    outgoing edge among the nodes left is on no cycle, so it is a component
    of its own; that takes most nodes of a shallow forest or star. Then an
    iterative Tarjan over CSR arrays of the rest, so chains of any depth are
    safe. A frame of `work` is [node id, position of its next edge in
    `indices`]."""
    n = len(graph.nodes)
    alive = np.ones(n, dtype=bool)
    kept = graph.src != graph.dst  # a self-loop makes no cycle through other nodes
    for _ in range(TRIM_ROUNDS):
        heads, tails = graph.src[kept], graph.dst[kept]
        trim = alive & ((np.bincount(heads, minlength=n) == 0)
                        | (np.bincount(tails, minlength=n) == 0))
        if not trim.any():
            break
        alive &= ~trim
        kept &= alive[graph.src] & alive[graph.dst]
    heads, tails = graph.src[kept], graph.dst[kept]
    indptr = np.concatenate(([0], np.cumsum(np.bincount(heads, minlength=n)))).tolist()
    indices = tails[np.argsort(heads, kind="stable")].tolist()
    index = np.where(alive, -1, 0).tolist()  # discovery order; trimmed nodes count as done
    low = [0] * n
    on_stack = [False] * n
    stack, work = [], []
    found = [[i] for i in np.flatnonzero(~alive).tolist()]
    order = itertools.count()

    def discover(node):
        index[node] = low[node] = next(order)
        stack.append(node)
        on_stack[node] = True
        work.append([node, indptr[node]])

    for root in np.flatnonzero(alive).tolist():
        if index[root] >= 0:
            continue
        discover(root)
        while work:
            frame = work[-1]
            node, at = frame
            end = indptr[node + 1]
            while at < end and index[indices[at]] >= 0:
                if on_stack[indices[at]]:
                    low[node] = min(low[node], index[indices[at]])
                at += 1
            frame[1] = at + 1
            if at < end:
                discover(indices[at])
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])
            if low[node] == index[node]:
                component = []
                while not component or component[-1] != node:
                    component.append(stack.pop())
                    on_stack[component[-1]] = False
                found.append(component)
    return _sorted_components(graph, found)


def weakly_connected_components(graph: DiGraph):
    """Components of the graph with its edges undirected, by pointer
    jumping: each round hooks the larger root of every edge whose ends have
    different roots to the smaller one, then points every node at its root,
    until no edge joins two roots. A root only ever points at a smaller id,
    so each component ends with its smallest node as root."""
    root = np.arange(len(graph.nodes))
    while True:
        at_src, at_dst = root[graph.src], root[graph.dst]
        apart = at_src != at_dst
        if not apart.any():
            break
        np.minimum.at(root, np.maximum(at_src, at_dst)[apart],
                      np.minimum(at_src, at_dst)[apart])
        while not np.array_equal(up := root[root], root):
            root = up
    order = np.argsort(root, kind="stable")
    cut = np.flatnonzero(root[order][1:] != root[order][:-1]) + 1
    groups = np.split(order, cut) if len(order) else []
    return _sorted_components(graph, [group.tolist() for group in groups])


def components(graph: DiGraph):
    return strongly_connected_components(graph), weakly_connected_components(graph)


# ---------------------------------------------------------------------------
# PageRank


def pagerank(graph: DiGraph, damping=0.85, tol=1e-10, max_iter=1000):
    """Weighted PageRank (Page et al. 1999) by power iteration, with the
    mass of nodes without outgoing weight spread uniformly. Stops when the
    L1 delta drops below tol; raises ConvergenceError (carrying the last
    iterate) otherwise. Returns node name -> rank."""
    if not 0.0 < damping < 1.0:
        raise MetricError(f"damping must be in (0,1): {damping}")
    n = len(graph.nodes)
    if n == 0:
        return {}
    out_weight = np.bincount(graph.src, weights=graph.weight, minlength=n)
    dangling = out_weight == 0
    live = ~dangling[graph.src]
    src, dst, weight = graph.src[live], graph.dst[live], graph.weight[live]
    src_weight = out_weight[src]
    rank = np.full(n, 1.0 / n)
    base = (1.0 - damping) / n
    for _ in range(max_iter):
        spread = base + damping * rank[dangling].sum() / n
        new = np.bincount(dst, damping * rank[src] / src_weight * weight, n) + spread
        # invariant: each step keeps the mass at 1 within 1e-9; dividing by
        # the sum then removes the float drift
        mass = new.sum()
        if not abs(mass - 1.0) < 1e-9:
            raise MetricError(f"pagerank mass drifted to {float(mass)!r}")
        new /= mass
        delta = np.abs(new - rank).sum()
        rank = new
        if delta < tol:
            return dict(zip(graph.nodes, rank.tolist()))
    raise ConvergenceError(
        f"pagerank did not converge in {max_iter} iterations",
        dict(zip(graph.nodes, rank.tolist())),
    )


def compute_metrics(graph: DiGraph) -> MetricsReport:
    sccs, wccs = components(graph)
    return MetricsReport(
        clustering=clustering_coefficient(graph),
        assortativity=assortativity(graph),
        pearson_in_out=pearson_in_out(graph),
        scc_count=len(sccs),
        largest_scc=len(sccs[0]) if sccs else 0,
        wcc_count=len(wccs),
        largest_wcc=len(wccs[0]) if wccs else 0,
        node_count=len(graph.nodes),
        edge_count=len(graph.src),
    )
