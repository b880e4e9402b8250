"""Metric implementations cross-checked against deliberately naive
oracles (triple loops, transitive closure, dense power iteration)."""

import inspect
import math
import random
import statistics
import textwrap

import numpy as np
import pytest
from hypothesis import given, strategies as st

from eosforensics import metrics
from eosforensics.errors import ConvergenceError, MetricError
from eosforensics.graphs import DiGraph
from tests_support import from_edges


# ---------------------------------------------------------------------------
# oracles


def adjacency(graph):
    """succ, pred: node -> {neighbour: weight}, with every node present."""
    succ = {u: {} for u in graph.nodes}
    pred = {u: {} for u in graph.nodes}
    for u, v, w in graph.edges():
        succ[u][v] = pred[v][u] = w
    return succ, pred


def oracle_clustering(graph):
    nodes = sorted(graph.nodes)
    if len(nodes) < 3:
        return None
    wmax = max((w for u, v, w in graph.edges() if u != v), default=0.0)
    if wmax == 0:
        return None
    succ, _ = adjacency(graph)

    def what(u, v):
        if u == v:
            return 0.0
        w = succ[u].get(v, 0.0)
        return (w / wmax) ** (1.0 / 3.0) if w else 0.0

    def adj(u, v):
        return 1 if u != v and succ[u].get(v) else 0

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
    succ, pred = adjacency(graph)
    xs, ys = [], []
    for u, targets in succ.items():
        for v in targets:
            xs.append(len(succ[u]))
            ys.append(len(pred[v]))
    if len(xs) < 2:
        return None
    try:
        return statistics.correlation(xs, ys)
    except statistics.StatisticsError:
        return None


def oracle_pearson_in_out(graph):
    succ, pred = adjacency(graph)
    nodes = sorted(graph.nodes)
    xs = [len(pred[v]) for v in nodes]
    ys = [len(succ[v]) for v in nodes]
    if len(xs) < 2:
        return None
    try:
        return statistics.correlation(xs, ys)
    except statistics.StatisticsError:
        return None


def _reachable(succ, start):
    seen = {start}
    frontier = [start]
    while frontier:
        u = frontier.pop()
        for v in succ[u]:
            if v not in seen:
                seen.add(v)
                frontier.append(v)
    return seen


def oracle_scc(graph):
    succ, _ = adjacency(graph)
    reach = {u: _reachable(succ, u) for u in graph.nodes}
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
    succ, _ = adjacency(graph)
    rank = dict.fromkeys(nodes, 1.0 / n)
    for _ in range(iters):
        new = dict.fromkeys(nodes, 0.0)
        dangling = 0.0
        for u in nodes:
            out = succ[u]
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
    names = [f"n{i}" for i in range(n)]
    p = rng.uniform(0.02, 0.3)
    edges = [(u, v, rng.choice([1.0, rng.uniform(0.1, 50.0)]))
             for u in names for v in names if u != v and rng.random() < p]
    return from_edges(edges, names)


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
    return from_edges(
        [(f"n{i}", f"n{j}", rng.uniform(0.1, 50.0))
         for i in range(n) for j in range(n) if i != j and rng.random() < p],
        [f"n{i}" for i in range(n)])


def _copies(g, k):
    """k disjoint copies of g, prefixed c<copy>:"""
    return from_edges(
        [(f"c{c}:{u}", f"c{c}:{v}", w) for c in range(k) for u, v, w in g.edges()],
        [f"c{c}:{node}" for c in range(k) for node in g.nodes])


@pytest.mark.parametrize("self_loop", [False, True])
def test_clustering_matches_oracle_above_2048_nodes(self_loop):
    # 2,100 nodes: a self-loop must not set the weight scale at any size.
    copy = _digraph(random.Random(5), 30, 0.12)
    big = _copies(copy, 70)
    if self_loop:
        heavy = 1000.0 * max(w for _, _, w in copy.edges())
        copy = from_edges([*copy.edges(), ("n0", "n0", heavy)], copy.nodes)
        big = from_edges([*big.edges(), ("c0:n0", "c0:n0", heavy)], big.nodes)
    assert len(big.nodes) == 2100
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
    succ, _ = adjacency(g)
    extra = []
    for u in rng.sample(nodes, max(1, len(nodes) // 4)):
        if kind == "zero_edge":
            v = rng.choice(nodes)
            if u != v and v not in succ[u]:
                extra.append((u, v, 0.0))
        else:
            extra.append((u, u, 1000.0 * wmax if kind == "heavy_loop" else 0.01))
    g = from_edges([*g.edges(), *extra], g.nodes)
    expected = oracle_clustering(g)
    got = metrics.clustering_coefficient(g)
    if expected is None:
        assert got is None
    else:
        assert got == pytest.approx(expected, abs=1e-12)


def _local_graph(rng, n, m):
    """n nodes, m edges, each to one of the next 8 nodes on a ring: many
    triangles at any size."""
    edges = []
    for _ in range(m):
        i = rng.randrange(n)
        edges.append((f"n{i}", f"n{(i + rng.randint(1, 8)) % n}",
                      rng.choice([1.0, rng.uniform(0.1, 50.0)])))
    return from_edges(edges, [f"n{i}" for i in range(n)])


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
    succ, pred = adjacency(g)
    eligible = []
    for node in g.nodes:
        out_nb, in_nb = set(succ[node]), set(pred[node])
        d_tot = len(out_nb) + len(in_nb)
        if d_tot * (d_tot - 1) - 2 * len(out_nb & in_nb) > 0:
            eligible.append(values[node])
    got = metrics.clustering_coefficient(g)
    if not eligible:
        assert got is None
    else:
        assert got == pytest.approx(math.fsum(eligible) / len(eligible), rel=1e-12)


def test_pagerank_and_components_match_networkx_at_scale():
    # 3,400 nodes: a 1,000-long path, 200 isolated nodes, self-loops,
    # dangling nodes and a sparse random part with many small SCCs.
    nx = pytest.importorskip("networkx")
    rng = random.Random(3)
    n = 3200
    edges = [(f"n{i}", f"n{i + 1}", 1.0) for i in range(1000)]
    edges += [(f"n{rng.randrange(n)}", f"n{rng.randrange(n)}", rng.uniform(0.1, 50.0))
              for _ in range(4000)]
    edges += [(f"n{i}", f"n{i}", 5.0) for i in rng.sample(range(n), 100)]
    g = from_edges(edges, [f"iso{i}" for i in range(200)])
    assert len(g.nodes) >= 3000
    ng = nx.DiGraph()
    ng.add_nodes_from(g.nodes)
    ng.add_weighted_edges_from(g.edges())

    expected = nx.pagerank(ng, weight="weight", tol=1e-15, max_iter=1000)
    got = metrics.pagerank(g, tol=1e-12)
    assert max(abs(got[v] - expected[v]) for v in g.nodes) < 1e-9
    sccs = metrics.strongly_connected_components(g)
    assert {frozenset(c) for c in sccs} == {
        frozenset(c) for c in nx.strongly_connected_components(ng)}
    assert 1 < len(sccs[0]) < len(g.nodes) - 200
    wccs = metrics.weakly_connected_components(g)
    assert {frozenset(c) for c in wccs} == {
        frozenset(c) for c in nx.weakly_connected_components(ng)}
    assert sum(len(c) == 1 for c in wccs) >= 200


# ---------------------------------------------------------------------------
# metamorphic relations: no oracle, so they hold at any graph size


def _array_graph(n, src, dst, weight):
    """The DiGraph on nodes n0000.. of the rows src -> dst; a repeated pair
    keeps its first weight."""
    key, first = np.unique(src * n + dst, return_index=True)
    return DiGraph(tuple(f"n{i:04d}" for i in range(n)), key // n, key % n, weight[first])


@st.composite
def _graph_rows(draw):
    """(n, src, dst, weight, rng) of up to 300 nodes and 4 edges a node,
    each edge reaching at most `span` ids ahead, so a short span closes
    triangles and cycles; with self-loops, zero weights and nodes that have
    no outgoing weight."""
    n = draw(st.integers(1, 300))
    m = draw(st.integers(0, 4 * n))
    span = draw(st.integers(1, n))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    src = rng.integers(0, n, m)
    dst = (src + rng.integers(0, span, m)) % n
    weight = np.where(rng.random(m) < 0.5, 1.0, rng.uniform(0.1, 50.0, m))
    weight[rng.random(m) < draw(st.sampled_from([0.0, 0.1]))] = 0.0
    return n, src, dst, weight, rng


def _near(a, b, tol):
    return a is b is None or (a is not None and b is not None and abs(a - b) <= tol)


@given(_graph_rows())
def test_metrics_do_not_depend_on_node_order(rows):
    n, src, dst, weight, rng = rows
    perm = rng.permutation(n)  # node i is renamed to n<perm[i]>
    g, h = _array_graph(n, src, dst, weight), _array_graph(n, perm[src], perm[dst], weight)
    for metric in (metrics.clustering_coefficient, metrics.assortativity,
                   metrics.pearson_in_out):
        assert _near(metric(g), metric(h), 1e-12), metric.__name__
    for got, want in zip(metrics.components(g), metrics.components(h)):
        assert sorted(map(len, got)) == sorted(map(len, want))
    # the power iteration stops at an L1 delta of 1e-10, so a permuted sum
    # order may take one more step
    pr_g, pr_h = metrics.pagerank(g), metrics.pagerank(h)
    assert max(abs(pr_g[g.nodes[i]] - pr_h[h.nodes[perm[i]]]) for i in range(n)) <= 1e-9


@given(_graph_rows())
def test_graph_identities(rows):
    n, src, dst, weight, _ = rows
    g = _array_graph(n, src, dst, weight)
    assert abs(sum(metrics.pagerank(g).values()) - 1.0) <= 1e-9
    sccs, wccs = metrics.components(g)
    assert sum(map(len, wccs)) == n
    wcc_of = {node: i for i, c in enumerate(wccs) for node in c}
    assert all(len({wcc_of[node] for node in c}) == 1 for c in sccs)


@given(_graph_rows())
def test_pagerank_of_a_dangling_node_is_that_of_a_link_to_every_node(rows):
    # PageRank spreads the rank of a node without outgoing weight over all n
    # nodes, as a node with one edge of equal weight to each node spreads it
    n, src, dst, weight, _ = rows
    g = _array_graph(n, src, dst, weight)
    out = np.bincount(g.src, weights=g.weight, minlength=n)
    live = out[g.src] > 0
    dangling = np.flatnonzero(out == 0)
    linked = _array_graph(n, np.concatenate((g.src[live], np.repeat(dangling, n))),
                          np.concatenate((g.dst[live], np.tile(np.arange(n), len(dangling)))),
                          np.concatenate((g.weight[live], np.ones(n * len(dangling)))))
    pr, pr_linked = metrics.pagerank(g), metrics.pagerank(linked)
    assert max(abs(pr[v] - pr_linked[v]) for v in g.nodes) <= 1e-9


# ---------------------------------------------------------------------------
# special cases


def _cycle(n=3, weight=1.0):
    return from_edges((f"n{i}", f"n{(i + 1) % n}", weight) for i in range(n))


def test_three_cycle():
    g = _cycle(3)
    assert metrics.clustering_coefficient(g) == pytest.approx(0.5)
    sccs = metrics.strongly_connected_components(g)
    assert len(sccs) == 1 and len(sccs[0]) == 3
    pr = metrics.pagerank(g)
    for v in g.nodes:
        assert pr[v] == pytest.approx(1.0 / 3.0, abs=1e-9)


def test_clustering_none_without_triangles():
    g = from_edges([("a", "b", 1.0)])
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
    g = from_edges([("a", "b", 1.0)])  # b is dangling
    pr = metrics.pagerank(g)
    assert pr["b"] > pr["a"]
    assert sum(pr.values()) == pytest.approx(1.0, abs=1e-9)


def test_pagerank_that_drops_dangling_mass_fails_its_mass_check():
    # The mutant is pagerank's own source with the dangling mass left out of
    # each step's uniform spread, compiled in the metrics module's namespace.
    source = textwrap.dedent(inspect.getsource(metrics.pagerank))
    dropped = "damping * rank[dangling].sum() / n"
    assert source.count(dropped) == 1
    namespace = dict(vars(metrics))
    exec(source.replace(dropped, "0.0"), namespace)
    g = from_edges([("a", "b", 1.0)])  # b is dangling
    with pytest.raises(MetricError, match="pagerank mass drifted"):
        namespace["pagerank"](g)
    assert sum(metrics.pagerank(g).values()) == pytest.approx(1.0, abs=1e-9)


def test_pagerank_weighted_preference():
    g = from_edges([("s", "heavy", 9.0), ("s", "light", 1.0)])
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
        metrics.pagerank(from_edges([]), damping=1.5)


def test_component_ordering_deterministic():
    g = from_edges(
        [("x", "y", 1.0), ("y", "x", 1.0), ("a", "b", 1.0), ("b", "a", 1.0)], ["zzz"])
    sccs = metrics.strongly_connected_components(g)
    assert sccs[0] == {"a", "b"}  # size tie broken by smallest member
    assert sccs[1] == {"x", "y"}
    assert sccs[2] == {"zzz"}


def test_components_of_a_chain_deeper_than_the_recursion_limit():
    n = 10_000
    g = from_edges((f"n{i:05d}", f"n{i + 1:05d}", 1.0) for i in range(n - 1))
    sccs, wccs = metrics.components(g)
    assert len(sccs) == n and sccs[0] == {"n00000"}
    assert wccs == [set(g.nodes)]


def test_components_of_cycles_beyond_the_trimming_rounds():
    # Chains longer than 2 * TRIM_ROUNDS lead into and out of two cycles and a
    # self-loop, so trimming stops early and Tarjan finds the rest.
    k = 2 * metrics.TRIM_ROUNDS + 5
    edges = [(f"in{i:03d}", f"in{i + 1:03d}", 1.0) for i in range(k)]
    edges += [(f"in{k:03d}", "c0", 1.0), ("c0", "c1", 1.0), ("c1", "c2", 1.0), ("c2", "c0", 1.0),
              ("c2", "d0", 1.0), ("d0", "d1", 1.0), ("d1", "d0", 1.0), ("d1", "d1", 2.0)]
    edges += [("d1", "out000", 1.0)] + [(f"out{i:03d}", f"out{i + 1:03d}", 1.0)
                                        for i in range(k)]
    g = from_edges(edges)
    sccs = metrics.strongly_connected_components(g)
    assert {frozenset(c) for c in sccs} == oracle_scc(g)
    assert sccs[:2] == [{"c0", "c1", "c2"}, {"d0", "d1"}]
    assert {frozenset(c) for c in metrics.weakly_connected_components(g)} == oracle_wcc(g)


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
