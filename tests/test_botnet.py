import hashlib
import json
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from eosforensics import botnet, graphs
from eosforensics.errors import CalibrationError
from eosforensics.model import ObservationWindow, write_ndjson
from tests_support import transfers_of, ts


class TestThresholdBox:
    def test_paper_like_box_exact(self):
        t = botnet.SimilarityThreshold(mean_t=0.09, sd_t=0.08,
                                       mean_s=0.03, sd_s=0.05)
        assert t.box_t == (0.0, 0.33)
        assert t.box_s == (0.0, 0.18)

    def test_degenerate_box(self):
        t = botnet.SimilarityThreshold(0.05, 0.0, 0.05, 0.0)
        assert t.box_t == (0.05, 0.05)
        assert t.contains(0.05, 0.05)
        assert not t.contains(0.051, 0.05)

    def test_degenerate_box_keeps_unrounded_mean(self):
        # rounding to 12 decimals lands below this mean; the box must still
        # hold it, or two tied labeled communities exclude themselves
        mean = 0.6369616873214543
        t = botnet.SimilarityThreshold(mean, 0.0, mean, 0.0)
        lo, hi = t.box_t
        assert lo <= mean <= hi
        assert t.contains(mean, mean)
        assert not t.contains(0.637, mean)

    @pytest.mark.parametrize("mean", [0.6369616873214543, 0.05, 0.3333333333333333])
    def test_box_keeps_points_an_ulp_apart(self, mean):
        # sd is a few ulps, far below the rounding step; both labeled
        # communities must still fall inside the box they calibrate
        pairs = [(np.nextafter(mean, 0.0), mean), (mean, np.nextafter(mean, 1.0)),
                 (np.nextafter(mean, 0.0), np.nextafter(mean, 1.0))]
        for a, b in pairs:
            t = botnet.calibrate_threshold([(a, a), (b, b)])
            assert t.contains(a, a)
            assert t.contains(b, b)

    def test_clipping(self):
        t = botnet.SimilarityThreshold(0.9, 0.2, 0.5, 0.0)
        assert t.box_t == (0.3, 1.0)

    def test_calibrate_requires_two_communities(self):
        with pytest.raises(CalibrationError):
            botnet.calibrate_threshold([(0.1, 0.1)])

    def test_calibrate_population_std(self):
        t = botnet.calibrate_threshold([(0.0, 0.0), (0.2, 0.1)])
        assert t.mean_t == pytest.approx(0.1)
        assert t.sd_t == pytest.approx(0.1)  # population, not sample
        assert t.mean_s == pytest.approx(0.05)


class TestCosine:
    def test_identical_vectors(self):
        v = np.array([1.0, 2.0, 3.0])
        assert botnet.cosine_distance(v, v) == 0.0

    def test_orthogonal_example(self):
        u = np.array([1.0, 0.0])
        v = np.array([0.0, 1.0])
        m = (u + v) / 2
        d = botnet.cosine_distance(u, m)
        assert d == pytest.approx(1 - 1 / math.sqrt(2), abs=1e-12)
        assert botnet.group_mean_distance([u, v]) == pytest.approx(
            1 - 1 / math.sqrt(2), abs=1e-12
        )

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError):
            botnet.cosine_distance(np.zeros(3), np.ones(3))

    @given(
        st.lists(st.floats(0.0, 100.0, width=16), min_size=3, max_size=8),
        st.floats(0.1, 50.0),
    )
    def test_scale_invariance(self, values, scale):
        v = np.array(values)
        if np.linalg.norm(v) == 0:
            return
        u = np.ones_like(v)
        assert botnet.cosine_distance(v, u) == pytest.approx(
            botnet.cosine_distance(v * scale, u), abs=1e-9
        )

    @given(st.lists(st.floats(0.0, 10.0, width=16), min_size=2, max_size=6))
    def test_distance_in_unit_interval(self, values):
        v = np.array(values)
        if np.linalg.norm(v) == 0:
            return
        d = botnet.cosine_distance(v, np.ones_like(v))
        assert 0.0 <= d <= 1.0


class TestShortlist:
    def _eacg(self, n_children):
        g = graphs.Eacg()
        g.roots.add("boss")
        for i in range(n_children):
            child = f"kid{i}"
            g.parent[child] = ("boss", 0)
            g.children.setdefault("boss", []).append(child)
        return g

    def test_boundary_exactly_30_excluded(self):
        assert botnet.shortlist_creators(self._eacg(30)) == set()

    def test_31_included(self):
        assert botnet.shortlist_creators(self._eacg(31)) == {"boss"}


class TestVectors:
    def test_vector_recount(self, built_graphs, window, scenario):
        _, manifest = scenario
        emfg, _, ecig = built_graphs
        universe = botnet.contract_universe(ecig)
        index = {c: i for i, c in enumerate(universe)}
        community = manifest["bot_communities"][0]
        member = community["members"][0]
        bv = botnet.behavior_vectors(member, emfg, ecig, window, index)
        days = window.day_count
        assert bv.time_vec[:days].sum() == sum(
            count for _, count in emfg.daily(member, "out").values()
        )
        assert bv.time_vec[days:].sum() == sum(
            ecig.out_daily_counts(member).values()
        )
        assert bv.target_vec.sum() == sum(ecig.target_counts(member).values())
        assert len(bv.time_vec) == 2 * days

    def test_two_transfers_day_zero(self):
        from datetime import date

        w = ObservationWindow(date(2018, 6, 9), date(2018, 6, 18))
        emfg = graphs.build_emfg(transfers_of([(ts(1, 10), "acct", "other", 1),
                                               (ts(1, 11), "acct", "other", 2)], w))
        ecig = graphs.Ecig()
        bv = botnet.behavior_vectors("acct", emfg, ecig, w, {})
        assert bv.time_vec[0] == 2
        assert bv.time_vec[1:].sum() == 0


@pytest.fixture(scope="module")
def pipeline(built_graphs, parsed, registry, window):
    emfg, eacg, ecig = built_graphs
    _, snapshot = parsed
    universe = botnet.contract_universe(ecig)
    index = {c: i for i, c in enumerate(universe)}
    silent = graphs.silent_accounts(emfg, ecig, snapshot)

    def vector_for(account):
        if account in silent:
            return None
        return botnet.behavior_vectors(account, emfg, ecig, window, index)

    dists = []
    for controller, members in registry.labeled_bot_communities:
        vecs = [v for v in map(vector_for, sorted(members))
                if v is not None and not v.is_zero()]
        dist_s, dist_t = botnet.group_similarity(vecs)
        dists.append((dist_t, dist_s))
    threshold = botnet.calibrate_threshold(dists)
    flagged, stats = botnet.detect_communities(eacg, vector_for, threshold)
    return threshold, flagged, stats, vector_for


class TestDetection:
    def test_all_planted_communities_flagged(self, pipeline, scenario):
        _, flagged, stats, _ = pipeline
        _, manifest = scenario
        planted = {c["controller"] for c in manifest["bot_communities"]}
        got = {c.controller for c in flagged}
        assert planted <= got

    def test_no_service_flagged(self, pipeline, scenario):
        _, flagged, _, _ = pipeline
        _, manifest = scenario
        flagged_controllers = {c.controller for c in flagged}
        assert not (set(manifest["services"]) & flagged_controllers)
        assert "eosio" not in flagged_controllers

    def test_full_member_recovery(self, pipeline, scenario):
        _, flagged, _, _ = pipeline
        _, manifest = scenario
        recovered = {m for c in flagged for m in c.measured}
        for community in manifest["bot_communities"]:
            missing = set(community["members"]) - recovered
            assert not missing, (community["category"], sorted(missing)[:3])

    def test_merge_by_pubkey_joins_seller_farm(self, pipeline, parsed, scenario):
        _, flagged, _, _ = pipeline
        _, snapshot = parsed
        _, manifest = scenario
        accounts = sorted({m for c in flagged for m in c.measured})
        merged = botnet.merge_by_pubkey(accounts, snapshot)
        sellers = next(
            c for c in manifest["bot_communities"]
            if c["category"] == "account_seller"
        )
        groups = [g for g in merged.values() if set(sellers["members"]) <= set(g)]
        assert len(groups) == 1  # the whole farm shares one key

    def test_categorization(self, pipeline, built_graphs, parsed, registry,
                            scenario):
        _, flagged, _, _ = pipeline
        emfg, _, ecig = built_graphs
        _, snapshot = parsed
        _, manifest = scenario
        accounts = sorted({m for c in flagged for m in c.measured})
        merged = botnet.merge_by_pubkey(accounts, snapshot)
        for community in manifest["bot_communities"]:
            for member in community["members"][:5]:
                got = botnet.categorize(member, emfg, ecig, snapshot, registry,
                                        merged)
                assert got == community["category"], (member, got)

    def test_skipped_all_silent_community(self):
        g = graphs.Eacg()
        g.roots.add("boss")
        for i in range(40):
            child = f"kid{i:02d}"
            g.parent[child] = ("boss", 0)
            g.children.setdefault("boss", []).append(child)
        threshold = botnet.SimilarityThreshold(0.1, 0.1, 0.1, 0.1)
        flagged, stats = botnet.detect_communities(g, lambda a: None, threshold)
        assert flagged == []
        assert stats[0].skipped_reason == "all members silent"


class TestFeatures:
    def test_feature_vector_shape_and_names(self, built_graphs, parsed, window,
                                            scenario):
        emfg, eacg, ecig = built_graphs
        _, snapshot = parsed
        _, manifest = scenario
        member = manifest["bot_communities"][0]["members"][0]
        siblings = botnet.siblings_for(snapshot[member], botnet.sibling_counts(snapshot))
        feats = botnet.extract_features(member, emfg, ecig, eacg, snapshot,
                                        window, siblings)
        assert len(feats.values) == len(botnet.FEATURE_NAMES) == 11
        d = feats.as_dict()
        assert d["acg_depth"] == 2.0  # eosio -> controller -> member
        assert 0.0 <= d["activate_time"] <= 1.0

    def test_silent_account_zero_features(self, built_graphs, parsed, window,
                                          scenario):
        emfg, eacg, ecig = built_graphs
        _, snapshot = parsed
        _, manifest = scenario
        idle = next(a for a in manifest["silent_accounts"] if a.startswith("idle"))
        siblings = botnet.siblings_for(snapshot[idle], botnet.sibling_counts(snapshot))
        feats = botnet.extract_features(idle, emfg, ecig, eacg, snapshot, window, siblings)
        d = feats.as_dict()
        assert d["transfer_out_std"] == 0.0
        assert d["invocation_num"] == 0.0
        assert d["volume_per_transfer_out"] == 0.0

    # SHA-256 of every account's 11 features on the fixture scenario, computed
    # before Emfg's four per-direction daily methods became Emfg.daily.
    GOLDEN_FEATURES_SHA256 = (
        "cc0eb710389058402e90c9c73e5f5e27ebe2e328b079473bf31101f63abb5c1b")

    @pytest.mark.parametrize("as_dict", [False, True])
    def test_features_golden(self, built_graphs, parsed, window, as_dict):
        emfg, eacg, ecig = built_graphs
        _, snapshot = parsed
        accounts = snapshot.accounts if as_dict else snapshot
        cohorts = botnet.sibling_counts(accounts)
        rows = [
            [a, [float(v) for v in botnet.extract_features(
                a, emfg, ecig, eacg, accounts, window,
                botnet.siblings_for(accounts[a], cohorts)).values]]
            for a in sorted(snapshot.accounts)
        ]
        assert len(rows) == 358
        digest = hashlib.sha256(json.dumps(rows).encode()).hexdigest()
        assert digest == self.GOLDEN_FEATURES_SHA256


def test_verdict_serialization(tmp_path):
    verdicts = [
        botnet.BotVerdict("acct", True, "community", "ctl", "click_fraud"),
        botnet.BotVerdict("bcct", True, "classifier", None, "other"),
    ]
    path = tmp_path / "verdicts.ndjson"
    write_ndjson(path, (v.to_json() for v in verdicts))
    lines = [json.loads(l) for l in path.read_text().splitlines()]
    assert lines[0]["account"] == "acct"
    assert lines[1]["source"] == "classifier"
