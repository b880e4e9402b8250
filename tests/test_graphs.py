from datetime import date
from decimal import Decimal

import pytest
from hypothesis import given, strategies as st

from eosforensics import graphs, synthgen
from eosforensics.errors import GraphError
from eosforensics.model import ObservationWindow, TransferTuple, parse_account_snapshot


def _w(days=30):
    from datetime import timedelta

    start = date(2018, 6, 9)
    return ObservationWindow(start, start + timedelta(days=days - 1))


class TestEmfg:
    def test_same_day_additivity(self):
        g = graphs.Emfg()
        g.add_transfer(0, "a", "b", Decimal(1))
        g.add_transfer(0, "a", "b", Decimal(2))
        assert g.edge_days("a", "b")[0] == [Decimal(3), 2]

    def test_multi_day_edge(self):
        g = graphs.Emfg()
        g.add_transfer(0, "a", "b", Decimal(1))
        g.add_transfer(5, "a", "b", Decimal(1))
        assert sorted(g.edge_days("a", "b")) == [0, 5]

    def test_nonpositive_weight_rejected(self):
        g = graphs.Emfg()
        with pytest.raises(GraphError):
            g.add_transfer(0, "a", "b", Decimal(0))

    def test_total_weight_is_exact_decimal_sum(self):
        g = graphs.Emfg()
        g.add_transfer(0, "a", "b", Decimal("0.0001"))
        g.add_transfer(1, "b", "c", Decimal("0.0002"))
        assert g.total_weight() == Decimal("0.0003")

    def test_in_out_views_agree(self):
        g = graphs.Emfg()
        g.add_transfer(0, "a", "b", Decimal(1))
        g.add_transfer(0, "c", "b", Decimal(2))
        assert g.daily("b", "in") == {0: (Decimal(3), 2)}
        assert g.daily("a", "out") == {0: (Decimal(1), 1)}

    def test_daily_sums_every_edge_per_day(self):
        g = graphs.Emfg()
        g.add_transfer(0, "a", "b", Decimal("1.5"))
        g.add_transfer(0, "a", "b", Decimal("0.5"))
        g.add_transfer(0, "a", "c", Decimal(2))
        g.add_transfer(3, "a", "c", Decimal("0.0001"))
        assert g.daily("a", "out") == {0: (Decimal(4), 3), 3: (Decimal("0.0001"), 1)}
        assert g.daily("c", "in") == {0: (Decimal(2), 1), 3: (Decimal("0.0001"), 1)}
        assert g.daily("a", "in") == {}
        assert g.daily("nobody", "out") == {}
        with pytest.raises(ValueError):
            g.daily("a", "both")

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
        token_callers = [a for a, targets in ecig.out.items() if "eosio.token" in targets]
        assert token_callers
        for account in ecig.out:
            token_calls = ecig.target_counts(account).get("eosio.token", 0)
            assert sum(ecig.out_daily_counts(account).values()) == (
                sum(ecig.target_counts(account).values()) - token_calls)


class TestSilent:
    def test_silent_matches_manifest(self, scenario, parsed, built_graphs):
        _, manifest = scenario
        _, snapshot = parsed
        emfg, _, ecig = built_graphs
        silent = graphs.silent_accounts(emfg, ecig, snapshot)
        assert silent == set(manifest["silent_accounts"])

    def test_receiving_does_not_disqualify(self):
        emfg = graphs.Emfg()
        emfg.add_transfer(0, "payer", "idle", Decimal(1))
        ecig = graphs.Ecig()
        silent = graphs.silent_accounts(emfg, ecig, {"payer": None, "idle": None})
        assert silent == {"idle"}


class TestDigraphAndExports:
    def test_from_edges_sorts_rows_and_sums_repeats(self):
        g = graphs.DiGraph.from_edges(
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
        assert set(emfg_view.nodes) == emfg.nodes
        for u, v, w in emfg_view.edges():
            assert w == float(emfg.edge_weight(u, v))
        eacg_view = graphs.eacg_to_digraph(eacg)
        assert set(eacg_view.nodes) == set(eacg.parent) | eacg.roots
        assert set(eacg_view.weight.tolist()) == {1.0}
        ecig_view = graphs.ecig_to_digraph(ecig)
        assert set(ecig_view.nodes) == ecig.nodes
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
    transfers = [
        TransferTuple(day, src, dst, Decimal(amount) / 10000)
        for day, src, dst, amount in rows
    ]
    g = graphs.build_emfg(transfers)
    assert g.total_weight() == sum((t.amount for t in transfers), Decimal(0))
    assert g.total_count() == len(transfers)
