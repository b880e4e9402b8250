from datetime import date, datetime, timezone
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from eosforensics import botnet, graphs, synthgen
from eosforensics.errors import GraphError
from eosforensics.model import (
    AccountRecord,
    ObservationWindow,
    extract_transfers,
    parse_account_snapshot,
)
from tests_support import (
    from_edges,
    make_action,
    make_transfer,
    oracle_eacg,
    oracle_eacg_digraph,
    oracle_ecig,
    oracle_emfg,
    oracle_silent,
    oracle_vectors,
    transfers_of,
    ts,
)


def _w(days=30):
    from datetime import timedelta

    start = date(2018, 6, 9)
    return ObservationWindow(start, start + timedelta(days=days - 1))


def _row(view, graph, account):
    """day -> (units, count) of the account's row of an EMFG day view."""
    i = graph.node(account)
    lo, hi = (0, 0) if i is None else (view.first[i], view.first[i + 1])
    day, units, count = (column[lo:hi].tolist() for column in (view.day, *view.sums))
    return dict(zip(day, zip(units, count)))


def _emfg(*rows):
    """The EMFG of (window day, src, dst, amount) transfers, noon of each day."""
    return graphs.build_emfg(transfers_of(
        [(ts(day + 1), src, dst, amount) for day, src, dst, amount in rows], _w()))


class TestEmfg:
    def test_same_day_additivity(self):
        g = _emfg((0, "a", "b", 1), (0, "a", "b", 2))
        assert g.edge_days("a", "b") == {0: (Decimal(3), 2)}
        assert str(g.edge_days("a", "b")[0][0]) == "3.0000"

    def test_multi_day_edge(self):
        g = _emfg((0, "a", "b", 1), (5, "a", "b", 1))
        assert sorted(g.edge_days("a", "b")) == [0, 5]
        assert g.edge_days("b", "a") == {} and g.edge_days("a", "nobody") == {}

    def test_nonpositive_weight_rejected(self):
        with pytest.raises(GraphError):
            _emfg((0, "a", "b", 0))

    def test_total_weight_is_exact_decimal_sum(self):
        g = _emfg((0, "a", "b", "0.0001"), (1, "b", "c", "0.0002"))
        assert g.total_weight() == Decimal("0.0003")

    def test_in_out_views_agree(self):
        g = _emfg((0, "a", "b", 1), (0, "c", "b", 2))
        assert _row(g.received, g, "b") == {0: (30000, 2)}
        assert _row(g.sent, g, "a") == {0: (10000, 1)}

    def test_daily_sums_every_edge_per_day(self):
        g = _emfg((0, "a", "b", "1.5"), (0, "a", "b", "0.5"), (0, "a", "c", 2),
                  (3, "a", "c", "0.0001"))
        assert _row(g.sent, g, "a") == {0: (40000, 3), 3: (1, 1)}
        assert _row(g.received, g, "c") == {0: (20000, 1), 3: (1, 1)}
        assert _row(g.received, g, "a") == {}
        assert _row(g.sent, g, "nobody") == {}
        ids = g.ids(["a", "nobody", "c"])
        assert g.sent.totals(ids, 0).tolist() == [40001, 0, 0]
        assert g.received.totals(ids, 1).tolist() == [0, 0, 2]
        assert g.sent.matrix(ids, 3, 1).tolist() == [[3.0, 0.0, 0.0], [0.0] * 3, [0.0] * 3]

    def test_out_degree_counts_distinct_receivers(self):
        g = _emfg((0, "a", "b", 1), (1, "a", "b", 1), (0, "a", "c", 1), (0, "c", "a", 1))
        ids = g.ids(["a", "b", "c", "nobody"])
        assert graphs.node_values(np.diff(g.pairs.first), ids).tolist() == [2, 0, 1, 0]

    def test_empty(self):
        g = graphs.build_emfg(extract_transfers([], _w()))
        assert g.total_weight() == 0 and g.total_count() == 0
        view = graphs.emfg_to_digraph(g)
        assert view.nodes == () and len(view.src) == 0 and view.weight.dtype == np.float64

    def test_conservation_against_manifest(self, scenario, built_graphs):
        _, manifest = scenario
        emfg, _, _ = built_graphs
        planted = Decimal(manifest["transfer_total"].split()[0])
        assert emfg.total_weight() == planted
        assert emfg.total_count() == manifest["transfer_count"]


class TestEacg:
    def test_forest_identity(self, parsed, built_graphs, window):
        trace, snapshot = parsed
        _, eacg, _ = built_graphs
        # every non-root has exactly one parent; nodes = accounts
        assert set(eacg.parent) | eacg.roots >= set(snapshot.accounts)
        for child, (creator, _) in eacg.parent.items():
            assert creator in snapshot.accounts

    def test_roots_are_creatorless(self, parsed, built_graphs):
        _, snapshot = parsed
        _, eacg, _ = built_graphs
        for root in eacg.roots:
            record = snapshot.accounts[root]
            assert record.creator is None or record.creator not in snapshot

    def test_depth_of_deep_chain(self, tmp_path):
        config = synthgen.ScenarioConfig(
            seed=3, day_count=20, normal_account_count=0, service_count=0,
            deep_chain_length=7195,
        )
        out = tmp_path / "deep"
        manifest = synthgen.generate(config, out)
        snapshot = parse_account_snapshot(out / "snapshot.ndjson")
        eacg = graphs.build_eacg(snapshot, _w(20))
        assert eacg.depth(manifest["deep_chain"]["tail"]) == 7195
        assert eacg.max_depth() == 7195

    def test_unknown_account_raises(self, built_graphs):
        _, eacg, _ = built_graphs
        with pytest.raises(GraphError):
            eacg.depth("nosuchacct")

    def test_missing_creator_becomes_root(self, tmp_path):
        import json

        p = tmp_path / "s.ndjson"
        p.write_text(
            json.dumps({"name": "orphan", "creator": "ghost",
                        "created_at": "2018-06-10T00:00:00Z",
                        "permissions": {}}) + "\n"
        )
        snap = parse_account_snapshot(p)
        eacg = graphs.build_eacg(snap, _w())
        assert "orphan" in eacg.roots


class TestEcig:
    def test_invocation_counts(self, scenario, built_graphs):
        _, manifest = scenario
        _, _, ecig = built_graphs
        assert ecig.total_invocations() == manifest["invocation_count"]

    def test_notifications_do_not_count(self):
        from tests_support import make_action

        w = _w()
        records = [
            make_action(1, kind="external"),
            make_action(2, kind="notification", notified="bob"),
            make_action(3, kind="inline"),
            make_action(4, kind="deferred"),
        ]
        ecig = graphs.build_ecig(records, w)
        assert ecig.total_invocations() == 3

    def test_exclude_filter(self, built_graphs):
        # Calls of eosio.token are transfers, never contract invocations.
        _, _, ecig = built_graphs
        token = ecig.node("eosio.token")
        assert (ecig.dst == token).any()
        for caller in np.unique(ecig.src).tolist():
            total = ecig.calls.totals(np.array([caller]), 0)[0]
            assert total == ecig.count[(ecig.src == caller) & (ecig.dst != token)].sum()


class TestSilent:
    def test_silent_matches_manifest(self, scenario, parsed, built_graphs):
        _, manifest = scenario
        _, snapshot = parsed
        emfg, _, ecig = built_graphs
        silent = graphs.silent_accounts(emfg, ecig, snapshot)
        assert silent == set(manifest["silent_accounts"])

    def test_receiving_does_not_disqualify(self):
        emfg = _emfg((0, "payer", "idle", 1))
        ecig = graphs.build_ecig([], _w())
        silent = graphs.silent_accounts(emfg, ecig, {"payer": None, "idle": None})
        assert silent == {"idle"}


class TestDigraphAndExports:
    def test_from_edges_sorts_rows_and_sums_repeats(self):
        g = from_edges(
            [("b", "a", 0.1), ("a", "c", 2.0), ("b", "a", 0.2), ("a", "a", 1.0)],
            nodes=["z"],
        )
        assert g.nodes == ("a", "b", "c", "z")
        assert g.src.tolist() == [0, 0, 1] and g.dst.tolist() == [0, 2, 0]
        assert list(g.edges()) == [("a", "a", 1.0), ("a", "c", 2.0),
                                   ("b", "a", 0.0 + 0.1 + 0.2)]
        assert g.out_degrees().tolist() == [2, 1, 0, 0]
        assert g.in_degrees().tolist() == [2, 0, 1, 0]
        with pytest.raises(ValueError):
            g.weight[0] = 5.0

    def test_views_keep_node_sets_and_weights(self, built_graphs):
        emfg, eacg, ecig = built_graphs
        emfg_view = graphs.emfg_to_digraph(emfg)
        assert emfg_view.nodes == emfg.names
        for u, v, w in emfg_view.edges():
            assert w == float(sum(weight for weight, _ in emfg.edge_days(u, v).values()))
        eacg_view = graphs.eacg_to_digraph(eacg)
        assert set(eacg_view.nodes) == set(eacg.parent) | eacg.roots
        assert set(eacg_view.weight.tolist()) == {1.0}
        ecig_view = graphs.ecig_to_digraph(ecig)
        assert ecig_view.nodes == ecig.names
        assert sum(ecig_view.weight.tolist()) == ecig.total_invocations()

    def test_histogram_sums_to_node_count(self, built_graphs):
        emfg, _, _ = built_graphs
        view = graphs.emfg_to_digraph(emfg)
        for direction in ("in", "out", "total"):
            hist = graphs.degree_histogram(view, direction)
            assert sum(hist.values()) == len(view.nodes)
        with pytest.raises(ValueError):
            graphs.degree_histogram(view, "both")

    def test_exports_written(self, built_graphs, tmp_path):
        emfg, _, _ = built_graphs
        view = graphs.emfg_to_digraph(emfg)
        graphs.export_edges_csv(view, tmp_path / "edges.csv")
        graphs.export_histogram_csv(
            graphs.degree_histogram(view, "out"), tmp_path / "hist.csv"
        )
        rows = (tmp_path / "edges.csv").read_text().splitlines()
        assert rows[0] == "from,to,weight"
        assert len(rows) == 1 + len(view.src)


@given(
    st.lists(
        st.tuples(
            st.integers(0, 5),
            st.sampled_from(["a", "b", "c", "d"]),
            st.sampled_from(["e", "f", "g"]),
            st.integers(1, 10**6),
        ),
        max_size=40,
    )
)
def test_emfg_total_equals_input_sum(rows):
    amounts = [Decimal(amount) / 10000 for _, _, _, amount in rows]
    g = _emfg(*((day, src, dst, a) for (day, src, dst, _), a in zip(rows, amounts)))
    assert g.total_weight() == sum(amounts, Decimal(0))
    assert g.total_count() == len(rows)


_DAY_EDGE = datetime(2018, 6, 9, 23, 59, 59, 500000, tzinfo=timezone.utc)
# Transfers the table must drop (a self-transfer, a notification copy, a
# fake token, a counterfeit contract) or keep, either side of a day edge.
_kinds = st.sampled_from([{}, {"kind": "notification", "notified": "c"},
                          {"symbol": "JUNK"}, {"contract": "evil.token"}])
_records = st.lists(
    st.tuples(
        st.one_of(st.sampled_from([_DAY_EDGE, datetime(2018, 6, 10, tzinfo=timezone.utc)]),
                  st.datetimes(datetime(2018, 6, 9), datetime(2018, 6, 13),
                               timezones=st.just(timezone.utc))),
        st.sampled_from("abcd"), st.sampled_from("abcd"),
        st.builds(lambda n, places: Decimal(n).scaleb(-places),
                  st.integers(1, 10**9), st.sampled_from([0, 2, 4])),
        _kinds,
    ),
    max_size=40,
)


@given(_records)
@example([(_DAY_EDGE, "a", "b", Decimal("0.5"), {}),
          (_DAY_EDGE, "a", "a", Decimal(7), {}),
          (datetime(2018, 6, 10, tzinfo=timezone.utc), "a", "b", Decimal("1.25"), {}),
          (_DAY_EDGE, "a", "b", Decimal(9), {"kind": "notification", "notified": "c"}),
          (_DAY_EDGE, "b", "a", Decimal(9), {"symbol": "JUNK"})])
def test_emfg_matches_dict_oracle(rows):
    actions = [make_transfer(seq, src, dst, amount, when=when, **kind)
               for seq, (when, src, dst, amount, kind) in enumerate(rows, start=1)]
    window = _w()
    g = graphs.build_emfg(extract_transfers(actions, window))
    cells = oracle_emfg(actions, window)
    nodes = sorted({*cells, *(dst for dsts in cells.values() for dst in dsts)})
    edges = [(src, dst, days) for src, dsts in cells.items() for dst, days in dsts.items()]
    assert g.total_weight() == sum((w for _, _, days in edges for w, _ in days.values()),
                                   Decimal(0))
    assert g.total_count() == sum(c for _, _, days in edges for _, c in days.values())
    for src, dst, days in edges:
        got = g.edge_days(src, dst)
        assert {d: (str(w), c) for d, (w, c) in got.items()} == {
            d: (str(w), c) for d, (w, c) in days.items()}
    for account in "abcd":
        assert graphs.node_values(np.diff(g.pairs.first), g.ids([account])).tolist() == [
            len(cells.get(account, {}))]
        for direction in ("out", "in"):
            want = {}
            for src, dst, days in edges:
                if account == (src if direction == "out" else dst):
                    for d, (w, c) in days.items():
                        units, count = want.get(d, (0, 0))
                        want[d] = (units + int(w.scaleb(4)), count + c)
            assert _row(g.sent if direction == "out" else g.received, g, account) == want
    view = graphs.emfg_to_digraph(g)
    expected = from_edges(
        ((src, dst, float(sum(w for w, _ in days.values()))) for src, dst, days in edges), nodes)
    assert view.nodes == expected.nodes == tuple(nodes)
    for got, want in zip((view.src, view.dst, view.weight),
                         (expected.src, expected.dst, expected.weight)):
        assert got.dtype == want.dtype and got.tolist() == want.tolist()


_MIDNIGHT = datetime(2018, 6, 10, tzinfo=timezone.utc)
_times = st.one_of(st.sampled_from([_DAY_EDGE, _MIDNIGHT]),
                   st.datetimes(datetime(2018, 6, 8), datetime(2018, 6, 13),
                                timezones=st.just(timezone.utc)))
# Invocations (self-invocations of "a" and "b" included) and transfers, whose
# eosio.token calls are invocations too; notification copies count for neither.
_KINDS = ("external", "inline", "deferred", "notification")
_calls = st.lists(st.one_of(
    st.tuples(st.just("call"), _times, st.sampled_from("abc"),
              st.sampled_from(["a", "b", "dice", "eosio.token"]), st.sampled_from(_KINDS)),
    st.tuples(st.just("transfer"), _times, st.sampled_from("abc"), st.sampled_from("abcd"),
              st.sampled_from(_KINDS)),
), max_size=40)


def _invocation_actions(rows):
    actions = []
    for seq, (what, when, actor, target, kind) in enumerate(rows, start=1):
        notified = "d" if kind == "notification" else None
        if what == "call":
            actions.append(make_action(seq, contract=target, actor=actor, kind=kind,
                                       notified=notified, when=when))
        else:
            actions.append(make_transfer(seq, actor, target, seq, when=when, kind=kind,
                                         notified=notified))
    return actions


@given(_calls)
@example([])
@example([("call", _DAY_EDGE, "a", "a", "external"), ("call", _MIDNIGHT, "a", "a", "inline"),
          ("call", _DAY_EDGE, "b", "dice", "notification"),
          ("call", _MIDNIGHT, "c", "eosio.token", "deferred"),
          ("transfer", _DAY_EDGE, "a", "b", "external"),
          ("transfer", _MIDNIGHT, "a", "b", "notification")])
def test_ecig_matches_dict_oracle(rows):
    actions = _invocation_actions(rows)
    window = _w(2)  # the trace runs from day -1 to day 4
    ecig = graphs.build_ecig(actions, window)
    emfg = graphs.build_emfg(extract_transfers(actions, window))
    calls, cells = oracle_ecig(actions, window), oracle_emfg(actions, window)
    edges = [(caller, contract, days) for caller, targets in calls.items()
             for contract, days in targets.items()]
    assert ecig.total_invocations() == sum(sum(days.values()) for _, _, days in edges)
    view = graphs.ecig_to_digraph(ecig)
    expected = from_edges(
        (caller, contract, float(sum(days.values()))) for caller, contract, days in edges)
    assert view.nodes == expected.nodes
    for got, want in zip((view.src, view.dst, view.weight),
                         (expected.src, expected.dst, expected.weight)):
        assert got.dtype == want.dtype and got.tolist() == want.tolist()
    universe = botnet.contract_universe(ecig)
    assert universe == sorted({contract for _, contract, _ in edges})
    snapshot = dict.fromkeys(["a", "b", "c", "d", "dice", "eosio.token", "nobody"])
    assert graphs.silent_accounts(emfg, ecig, snapshot) == oracle_silent(cells, calls, snapshot)
    index = {contract: i for i, contract in enumerate(universe)}
    for account in snapshot:
        bv = botnet.behavior_vectors(account, emfg, ecig, window, index)
        t, s = oracle_vectors(account, cells, calls, window, index)
        assert bv.time_vec.tolist() == t.tolist() and bv.target_vec.tolist() == s.tolist()


# Creation forests as plain-dict snapshots: accounts whose creator is None,
# missing from the snapshot ("ghost") or an account drawn before them, and a
# chain up to a few hundred deep hung from one of them, inserted in a
# shuffled order. Names sort in an order unrelated to creation.
_NAMES = st.text("abcz12345", min_size=1, max_size=4)


@st.composite
def _forests(draw):
    names = draw(st.lists(_NAMES, unique=True, max_size=25))
    chain = [f"chain.{k:03d}" for k in draw(st.permutations(range(draw(st.integers(0, 300)))))]
    creators = []
    for i, _ in enumerate(names):
        pick = draw(st.integers(-2, i - 1))
        creators.append(None if pick == -2 else "ghost" if pick == -1 else names[pick])
    if chain:
        creators.append(draw(st.sampled_from([None, "ghost", *names])))
        creators.extend(chain[:-1])
    when = st.datetimes(datetime(2018, 6, 1), datetime(2018, 7, 20),
                        timezones=st.just(timezone.utc))
    records = [AccountRecord(name, creator, draw(when), {})
               for name, creator in zip(names + chain, creators)]
    return {r.name: r for r in draw(st.permutations(records))}


@given(_forests(), st.integers(0, 3))
@example({}, 0)
def test_eacg_matches_dict_oracle(snapshot, min_children):
    window = _w()
    eacg, oracle = graphs.build_eacg(snapshot, window), oracle_eacg(snapshot, window)
    assert eacg.parent == oracle.parent
    assert eacg.roots == oracle.roots
    assert eacg.names == tuple(sorted(snapshot))
    assert [eacg.depth(a) for a in eacg.names] == [oracle.depth(a) for a in eacg.names]
    assert eacg.max_depth() == oracle.max_depth()
    with pytest.raises(GraphError):
        eacg.depth("ghost")
    view, expected = graphs.eacg_to_digraph(eacg), oracle_eacg_digraph(oracle)
    assert view.nodes == expected.nodes
    for got, want in zip((view.src, view.dst, view.weight),
                         (expected.src, expected.dst, expected.weight)):
        assert got.dtype == want.dtype and got.tolist() == want.tolist()
    assert botnet.communities(eacg, min_children) == {
        creator: sorted(children) for creator, children in sorted(oracle.children.items())
        if oracle.out_degree(creator) > min_children}


# Contract indexes: {}, a part of the contracts in any order, or one naming a
# contract that no one calls.
_indexes = st.lists(st.sampled_from(["a", "b", "dice", "eosio.token", "ghost"]), unique=True)


@given(_calls, _indexes, st.sampled_from([1, 2, 7]))
@example([("call", _DAY_EDGE, "a", "dice", "external"),
          ("transfer", _MIDNIGHT, "a", "b", "inline")], [], 2)
def test_behavior_matrices_match_dict_oracle(rows, contracts, days):
    actions = _invocation_actions(rows)
    window = _w(days)  # the trace runs from day -1 to day 4
    ecig = graphs.build_ecig(actions, window)
    emfg = graphs.build_emfg(extract_transfers(actions, window))
    cells, calls = oracle_emfg(actions, window), oracle_ecig(actions, window)
    index = {contract: i for i, contract in enumerate(contracts)}
    # "d" only receives, "nobody" is in neither graph
    accounts = ["nobody", "d", "c", "b", "a", "dice"]
    time, targets = botnet.behavior_matrices(accounts, emfg, ecig, window, index)
    assert time.shape == (len(accounts), 2 * days) and targets.shape == (len(accounts), len(index))
    for account, t_row, s_row in zip(accounts, time, targets):
        t, s = oracle_vectors(account, cells, calls, window, index)
        assert t_row.tolist() == t.tolist() and s_row.tolist() == s.tolist(), account
        bv = botnet.behavior_vectors(account, emfg, ecig, window, index)
        assert bv.time_vec.tolist() == t.tolist() and bv.target_vec.tolist() == s.tolist()
