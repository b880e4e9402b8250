"""Metric implementations cross-checked against deliberately naive
oracles (triple loops, transitive closure, dense power iteration)."""

import math
import random
import statistics

import pytest

from eosforensics import metrics
from eosforensics.errors import ConvergenceError, MetricError
from eosforensics.graphs import DiGraph


# ---------------------------------------------------------------------------
# oracles


def oracle_clustering(graph):
    nodes = sorted(graph.nodes)
    if len(nodes) < 3:
        return None
    wmax = max((w for u, v, w in graph.edges() if u != v), default=0.0)
    if wmax == 0:
        return None

    def what(u, v):
        if u == v:
            return 0.0
        w = graph.succ.get(u, {}).get(v, 0.0)
        return (w / wmax) ** (1.0 / 3.0) if w else 0.0

    def adj(u, v):
        return 1 if u != v and graph.succ.get(u, {}).get(v) else 0

    values = []
    for i in nodes:
        d_tot = sum(adj(i, j) + adj(j, i) for j in nodes)
        d_bi = sum(adj(i, j) * adj(j, i) for j in nodes)
        den = 2.0 * (d_tot * (d_tot - 1.0) - 2.0 * d_bi)
        if den <= 0:
            continue
        num = 0.0
        for j in nodes:
            for k in nodes:
                num += (
                    (what(i, j) + what(j, i))
                    * (what(j, k) + what(k, j))
                    * (what(k, i) + what(i, k))
                )
        values.append(num / den)
    if not values:
        return None
    return sum(values) / len(values)


def oracle_assortativity(graph):
    xs, ys = [], []
    for u, targets in graph.succ.items():
        for v in targets:
            xs.append(len(graph.succ.get(u, {})))
            ys.append(len(graph.pred.get(v, {})))
    if len(xs) < 2:
        return None
    try:
        return statistics.correlation(xs, ys)
    except statistics.StatisticsError:
        return None


def oracle_pearson_in_out(graph):
    nodes = sorted(graph.nodes)
    xs = [len(graph.pred.get(v, {})) for v in nodes]
    ys = [len(graph.succ.get(v, {})) for v in nodes]
    if len(xs) < 2:
        return None
    try:
        return statistics.correlation(xs, ys)
    except statistics.StatisticsError:
        return None


def _reachable(graph, start):
    seen = {start}
    frontier = [start]
    while frontier:
        u = frontier.pop()
        for v in graph.succ.get(u, {}):
            if v not in seen:
                seen.add(v)
                frontier.append(v)
    return seen


def oracle_scc(graph):
    reach = {u: _reachable(graph, u) for u in graph.nodes}
    comps = {}
    for u in graph.nodes:
        comp = frozenset(v for v in reach[u] if u in reach[v])
        comps[comp] = None
    return set(comps)


def oracle_wcc(graph):
    parent = {u: u for u in graph.nodes}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v, _ in graph.edges():
        parent[find(u)] = find(v)
    groups = {}
    for u in graph.nodes:
        groups.setdefault(find(u), set()).add(u)
    return {frozenset(c) for c in groups.values()}


def oracle_pagerank(graph, damping=0.85, iters=2000):
    nodes = sorted(graph.nodes)
    n = len(nodes)
    if n == 0:
        return {}
    rank = dict.fromkeys(nodes, 1.0 / n)
    for _ in range(iters):
        new = dict.fromkeys(nodes, 0.0)
        dangling = 0.0
        for u in nodes:
            out = graph.succ.get(u, {})
            total = sum(out.values())
            if total == 0:
                dangling += rank[u]
                continue
            for v, w in out.items():
                new[v] += damping * rank[u] * w / total
        for u in nodes:
            new[u] += (1.0 - damping) / n + damping * dangling / n
        rank = new
    return rank


def random_graph(rng, max_nodes=50):
    n = rng.randint(2, max_nodes)
    g = DiGraph()
    names = [f"n{i}" for i in range(n)]
    for name in names:
        g.add_node(name)
    p = rng.uniform(0.02, 0.3)
    for u in names:
        for v in names:
            if u != v and rng.random() < p:
                g.add_edge(u, v, rng.choice([1.0, rng.uniform(0.1, 50.0)]))
    return g


# ---------------------------------------------------------------------------
# oracle equivalence


@pytest.mark.parametrize("seed", range(30))
def test_metrics_match_oracles(seed):
    rng = random.Random(seed)
    g = random_graph(rng, max_nodes=30)

    c = metrics.clustering_coefficient(g)
    oc = oracle_clustering(g)
    if oc is None:
        assert c is None
    else:
        assert c == pytest.approx(oc, abs=1e-8)

    a = metrics.assortativity(g)
    oa = oracle_assortativity(g)
    if oa is None:
        assert a is None
    else:
        assert a == pytest.approx(oa, abs=1e-8)

    p = metrics.pearson_in_out(g)
    op = oracle_pearson_in_out(g)
    if op is None:
        assert p is None
    else:
        assert p == pytest.approx(op, abs=1e-8)

    sccs = metrics.strongly_connected_components(g)
    assert {frozenset(c) for c in sccs} == oracle_scc(g)
    wccs = metrics.weakly_connected_components(g)
    assert {frozenset(c) for c in wccs} == oracle_wcc(g)

    pr = metrics.pagerank(g, tol=1e-12)
    opr = oracle_pagerank(g)
    for node in g.nodes:
        assert pr[node] == pytest.approx(opr[node], abs=1e-8)


def _digraph(rng, n, p):
    g = DiGraph()
    for i in range(n):
        g.add_node(f"n{i}")
    for i in range(n):
        for j in range(n):
            if i != j and rng.random() < p:
                g.add_edge(f"n{i}", f"n{j}", rng.uniform(0.1, 50.0))
    return g


def _copies(g, k):
    """k disjoint copies of g, prefixed c<copy>:"""
    out = DiGraph()
    for c in range(k):
        for node in g.nodes:
            out.add_node(f"c{c}:{node}")
        for u, v, w in g.edges():
            out.add_edge(f"c{c}:{u}", f"c{c}:{v}", w)
    return out


@pytest.mark.parametrize("self_loop", [False, True])
def test_clustering_matches_oracle_above_2048_nodes(self_loop):
    # 2,100 nodes: a self-loop must not set the weight scale at any size.
    copy = _digraph(random.Random(5), 30, 0.12)
    big = _copies(copy, 70)
    if self_loop:
        heavy = 1000.0 * max(w for _, _, w in copy.edges())
        copy.add_edge("n0", "n0", heavy)
        big.add_edge("c0:n0", "c0:n0", heavy)
    assert big.node_count() == 2100
    expected = oracle_clustering(copy)
    assert expected > 0.01
    assert metrics.clustering_coefficient(big) == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("kind", ["light_loop", "heavy_loop", "zero_edge"])
@pytest.mark.parametrize("seed", range(6))
def test_clustering_ignores_self_loops_and_zero_weights(seed, kind):
    rng = random.Random(seed)
    g = random_graph(rng, max_nodes=30)
    wmax = max((w for _, _, w in g.edges()), default=1.0)
    nodes = sorted(g.nodes)
    for u in rng.sample(nodes, max(1, len(nodes) // 4)):
        if kind == "zero_edge":
            v = rng.choice(nodes)
            if u != v and v not in g.succ[u]:
                g.add_edge(u, v, 0.0)
        else:
            g.add_edge(u, u, 1000.0 * wmax if kind == "heavy_loop" else 0.01)
    expected = oracle_clustering(g)
    got = metrics.clustering_coefficient(g)
    if expected is None:
        assert got is None
    else:
        assert got == pytest.approx(expected, abs=1e-12)


def _local_graph(rng, n, m):
    """n nodes, m edges, each to one of the next 8 nodes on a ring: many
    triangles at any size."""
    g = DiGraph()
    for i in range(n):
        g.add_node(f"n{i}")
    for _ in range(m):
        i = rng.randrange(n)
        g.add_edge(f"n{i}", f"n{(i + rng.randint(1, 8)) % n}",
                   rng.choice([1.0, rng.uniform(0.1, 50.0)]))
    return g


@pytest.mark.parametrize("seed", range(10))
def test_clustering_matches_networkx(seed):
    nx = pytest.importorskip("networkx")
    rng = random.Random(seed)
    if seed < 6:
        g = random_graph(rng, max_nodes=60)
    else:
        n = rng.randint(2100, 3000)
        g = _local_graph(rng, n, rng.randint(2 * n, 4 * n))
    ng = nx.DiGraph()
    ng.add_nodes_from(g.nodes)
    ng.add_weighted_edges_from(g.edges())
    values = nx.clustering(ng, weight="weight")
    eligible = []
    for node in g.nodes:
        out_nb, in_nb = set(g.succ[node]), set(g.pred[node])
        d_tot = len(out_nb) + len(in_nb)
        if d_tot * (d_tot - 1) - 2 * len(out_nb & in_nb) > 0:
            eligible.append(values[node])
    got = metrics.clustering_coefficient(g)
    if not eligible:
        assert got is None
    else:
        assert got == pytest.approx(math.fsum(eligible) / len(eligible), rel=1e-12)


# ---------------------------------------------------------------------------
# special cases


def _cycle(n=3, weight=1.0):
    g = DiGraph()
    for i in range(n):
        g.add_edge(f"n{i}", f"n{(i + 1) % n}", weight)
    return g


def test_three_cycle():
    g = _cycle(3)
    assert metrics.clustering_coefficient(g) == pytest.approx(0.5)
    sccs = metrics.strongly_connected_components(g)
    assert len(sccs) == 1 and len(sccs[0]) == 3
    pr = metrics.pagerank(g)
    for v in g.nodes:
        assert pr[v] == pytest.approx(1.0 / 3.0, abs=1e-9)


def test_clustering_none_without_triangles():
    g = DiGraph()
    g.add_edge("a", "b")
    assert metrics.clustering_coefficient(g) is None


def test_weight_scale_invariance():
    g1 = _cycle(5, 1.0)
    g2 = _cycle(5, 123.0)
    assert metrics.clustering_coefficient(g1) == pytest.approx(
        metrics.clustering_coefficient(g2), abs=1e-12
    )


def test_zero_variance_returns_none():
    # every node has in=out=1: no degree variance anywhere
    g = _cycle(4)
    assert metrics.assortativity(g) is None
    assert metrics.pearson_in_out(g) is None


def test_pagerank_sums_to_one():
    rng = random.Random(5)
    g = random_graph(rng)
    pr = metrics.pagerank(g)
    assert sum(pr.values()) == pytest.approx(1.0, abs=1e-9)


def test_pagerank_dangling_mass():
    g = DiGraph()
    g.add_edge("a", "b")  # b is dangling
    pr = metrics.pagerank(g)
    assert pr["b"] > pr["a"]
    assert sum(pr.values()) == pytest.approx(1.0, abs=1e-9)


def test_pagerank_weighted_preference():
    g = DiGraph()
    g.add_edge("s", "heavy", 9.0)
    g.add_edge("s", "light", 1.0)
    pr = metrics.pagerank(g)
    assert pr["heavy"] > pr["light"]


def test_pagerank_convergence_error_carries_iterate():
    g = _cycle(10)
    with pytest.raises(ConvergenceError) as info:
        metrics.pagerank(g, tol=0.0, max_iter=3)
    assert info.value.last_iterate is not None
    assert sum(info.value.last_iterate.values()) == pytest.approx(1.0, abs=1e-6)


def test_pagerank_bad_damping():
    with pytest.raises(MetricError):
        metrics.pagerank(DiGraph(), damping=1.5)


def test_component_ordering_deterministic():
    g = DiGraph()
    g.add_edge("x", "y")
    g.add_edge("y", "x")
    g.add_edge("a", "b")
    g.add_edge("b", "a")
    g.add_node("zzz")
    sccs = metrics.strongly_connected_components(g)
    assert sccs[0] == {"a", "b"}  # size tie broken by smallest member
    assert sccs[1] == {"x", "y"}
    assert sccs[2] == {"zzz"}


def test_top_k_by_degree_ties_by_name():
    g = DiGraph()
    g.add_edge("b", "t1")
    g.add_edge("a", "t2")
    top = metrics.top_k_by_degree(g, 2, direction="out")
    assert top == [("a", 1), ("b", 1)]
    with pytest.raises(MetricError):
        metrics.top_k_by_degree(g, 0)


def test_report_shape(built_graphs):
    from eosforensics.graphs import emfg_to_digraph

    emfg, _, _ = built_graphs
    report = metrics.compute_metrics(emfg_to_digraph(emfg))
    text = report.to_text()
    assert "Clustering" in text and "# SCC" in text
    import json

    obj = json.loads(report.to_json())
    assert obj["node_count"] == report.node_count
    assert obj["wcc_count"] >= 1
