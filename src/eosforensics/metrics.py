"""Network metrics over the directed graphs: directed weighted clustering
(Fagiolo total variant), degree assortativity, in/out degree correlation,
connected components, weighted PageRank and degree rankings.

Clustering ignores self-loops and zero-weight edges, in the weights and in
the degrees alike, and runs one algorithm at every graph size:
degree-ordered triangle enumeration (Schank & Wagner 2005), O(m^1.5)."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

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
        return json.dumps(
            {
                "clustering": self.clustering,
                "assortativity": self.assortativity,
                "pearson_in_out": self.pearson_in_out,
                "scc_count": self.scc_count,
                "largest_scc": self.largest_scc,
                "wcc_count": self.wcc_count,
                "largest_wcc": self.largest_wcc,
                "node_count": self.node_count,
                "edge_count": self.edge_count,
            },
            sort_keys=True,
        )

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
    nodes = sorted(graph.nodes)
    n = len(nodes)
    index = {v: i for i, v in enumerate(nodes)}
    kept = [(index[u], index[v], w) for u, v, w in graph.edges() if u != v and w > 0]
    if not kept:
        return None
    u, v, w = (np.array(col) for col in zip(*kept))
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
    xs, ys = [], []
    for u, v, _ in graph.edges():
        xs.append(graph.out_degree(u))
        ys.append(graph.in_degree(v))
    return _pearson(xs, ys)


def pearson_in_out(graph: DiGraph) -> float | None:
    """Pearson correlation, over nodes, between in-degree and out-degree."""
    nodes = sorted(graph.nodes)
    xs = [graph.in_degree(v) for v in nodes]
    ys = [graph.out_degree(v) for v in nodes]
    return _pearson(xs, ys)


# ---------------------------------------------------------------------------
# Components


def strongly_connected_components(graph: DiGraph):
    """Iterative Tarjan; components returned sorted by size descending,
    then by smallest member."""
    index = {}
    lowlink = {}
    on_stack = set()
    stack = []
    components = []
    counter = 0

    for root in sorted(graph.nodes):
        if root in index:
            continue
        work = [(root, iter(sorted(graph.succ.get(root, ()))))]
        index[root] = lowlink[root] = counter
        counter += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            node, successors = work[-1]
            advanced = False
            for succ in successors:
                if succ not in index:
                    index[succ] = lowlink[succ] = counter
                    counter += 1
                    stack.append(succ)
                    on_stack.add(succ)
                    work.append((succ, iter(sorted(graph.succ.get(succ, ())))))
                    advanced = True
                    break
                if succ in on_stack:
                    lowlink[node] = min(lowlink[node], index[succ])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[node])
            if lowlink[node] == index[node]:
                comp = set()
                while True:
                    w = stack.pop()
                    on_stack.discard(w)
                    comp.add(w)
                    if w == node:
                        break
                components.append(comp)
    components.sort(key=lambda c: (-len(c), min(c)))
    return components


def weakly_connected_components(graph: DiGraph):
    seen = set()
    components = []
    for root in sorted(graph.nodes):
        if root in seen:
            continue
        comp = {root}
        frontier = [root]
        seen.add(root)
        while frontier:
            node = frontier.pop()
            for nb in list(graph.succ.get(node, ())) + list(graph.pred.get(node, ())):
                if nb not in seen:
                    seen.add(nb)
                    comp.add(nb)
                    frontier.append(nb)
        components.append(comp)
    components.sort(key=lambda c: (-len(c), min(c)))
    return components


def components(graph: DiGraph):
    return strongly_connected_components(graph), weakly_connected_components(graph)


# ---------------------------------------------------------------------------
# PageRank


def pagerank(graph: DiGraph, damping=0.85, tol=1e-10, max_iter=1000):
    """Weighted PageRank with uniform redistribution of dangling mass.
    Stops when the L1 delta drops below tol; raises ConvergenceError
    (carrying the last iterate) otherwise."""
    if not 0.0 < damping < 1.0:
        raise MetricError(f"damping must be in (0,1): {damping}")
    nodes = sorted(graph.nodes)
    n = len(nodes)
    if n == 0:
        return {}
    out_weight = {u: sum(graph.succ.get(u, {}).values()) for u in nodes}
    rank = {u: 1.0 / n for u in nodes}
    base = (1.0 - damping) / n
    for _ in range(max_iter):
        new = {u: 0.0 for u in nodes}
        dangling = 0.0
        for u in nodes:
            r = rank[u]
            ow = out_weight[u]
            if ow == 0:
                dangling += r
                continue
            scale = damping * r / ow
            for v, w in graph.succ[u].items():
                new[v] += scale * w
        spread = base + damping * dangling / n
        delta = 0.0
        total = 0.0
        for u in nodes:
            new[u] += spread
            total += new[u]
        # renormalize to kill drift; invariant: sums to 1 within 1e-9
        for u in nodes:
            new[u] /= total
            delta += abs(new[u] - rank[u])
        rank = new
        if delta < tol:
            mass = sum(rank.values())
            if not abs(mass - 1.0) < 1e-9:
                raise MetricError(f"pagerank mass drifted to {mass!r}")
            return rank
    raise ConvergenceError(
        f"pagerank did not converge in {max_iter} iterations", rank
    )


def top_k_by_degree(graph: DiGraph, k, direction="out"):
    """Top-k accounts by degree; ties break by name ascending."""
    if k < 1:
        raise MetricError("k must be >= 1")
    if direction == "in":
        deg = {v: graph.in_degree(v) for v in graph.nodes}
    elif direction == "out":
        deg = {v: graph.out_degree(v) for v in graph.nodes}
    elif direction == "total":
        deg = {v: graph.in_degree(v) + graph.out_degree(v) for v in graph.nodes}
    else:
        raise MetricError(f"bad direction: {direction!r}")
    ranked = sorted(deg.items(), key=lambda item: (-item[1], item[0]))
    return ranked[:k]


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
        node_count=graph.node_count(),
        edge_count=graph.edge_count(),
    )
