import hashlib
import json
import math
import random
from datetime import date

import numpy as np
import pytest
from hypothesis import given, strategies as st

from eosforensics import botnet, graphs, synthgen
from eosforensics.errors import CalibrationError
from eosforensics.model import (
    AccountRecord,
    Authority,
    ObservationWindow,
    Registry,
    extract_transfers,
    parse_account_snapshot,
    parse_action_trace,
    write_ndjson,
)
from conftest import small_scenario_config
from tests_support import (
    emfg_daily,
    make_action,
    name_digits,
    oracle_categorize,
    oracle_ecig,
    oracle_emfg,
    oracle_features,
    oracle_merge_by_pubkey,
    out_daily_counts,
    parsed_accounts,
    parsed_actions,
    target_counts,
    transfers_of,
    ts,
)


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


def _boss_forest(children):
    """The creation forest of a snapshot of root "boss" and the `children`
    it created on day 0."""
    snapshot = {name: AccountRecord(name, creator, ts(1), {})
                for name, creator in [("boss", None), *((c, "boss") for c in children)]}
    return graphs.build_eacg(parsed_accounts(snapshot),
                             ObservationWindow(date(2018, 6, 9), date(2018, 6, 18)))


class TestShortlist:
    def _eacg(self, n_children):
        return _boss_forest([f"kid{name_digits(i, 3)}" for i in range(n_children)])

    def test_boundary_exactly_30_excluded(self):
        assert set(botnet.communities(self._eacg(30))) == set()

    def test_31_included(self):
        assert set(botnet.communities(self._eacg(31))) == {"boss"}


_KEYS = [f"EOSKEY{i}" for i in range(6)]


@st.composite
def _keyed_snapshots(draw):
    """(flagged accounts, with repeats and names absent from the snapshot, and
    a dict of AccountRecords). Each present account holds an owner key and 0-3
    active keys of one pool of 6, or no active permission at all."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    names = [f"acct{name_digits(i, 2)}" for i in range(draw(st.integers(1, 24)))]
    snapshot = {}
    for name in names:
        kind = rng.choice(["absent", "no active", "active", "active"])
        if kind == "absent":
            continue
        permissions = {"owner": Authority(1, ((rng.choice(_KEYS), 1),), ())}
        if kind == "active":
            keys = rng.sample(_KEYS, rng.randint(0, 3))
            permissions["active"] = Authority(1, tuple((k, 1) for k in keys), ())
        snapshot[name] = AccountRecord(name, None, ts(1), permissions)
    return rng.choices(names, k=rng.randint(0, 40)), snapshot


@given(_keyed_snapshots())
def test_merge_by_pubkey_matches_union_find_oracle(case):
    flagged, snapshot = case
    got = botnet.merge_by_pubkey(flagged, parsed_accounts(snapshot))
    want = oracle_merge_by_pubkey(flagged, snapshot)
    assert list(got.items()) == list(want.items())


class TestVectors:
    def test_vector_recount(self, built_graphs, parsed, window, scenario):
        _, manifest = scenario
        emfg, _, ecig = built_graphs
        cells, calls = oracle_emfg(parsed[0].records, window), oracle_ecig(parsed[0].records, window)
        universe = botnet.contract_universe(ecig)
        index = {c: i for i, c in enumerate(universe)}
        community = manifest["bot_communities"][0]
        member = community["members"][0]
        bv = botnet.behavior_vectors(member, emfg, ecig, window, index)
        days = window.day_count
        assert bv.time_vec[:days].sum() == sum(
            count for _, count in emfg_daily(cells, member, "out").values()
        )
        assert bv.time_vec[days:].sum() == sum(out_daily_counts(calls, member).values())
        assert bv.target_vec.sum() == sum(target_counts(calls, member).values())
        assert len(bv.time_vec) == 2 * days

    def test_two_transfers_day_zero(self):
        w = ObservationWindow(date(2018, 6, 9), date(2018, 6, 18))
        emfg = graphs.build_emfg(transfers_of([(ts(1, 10), "acct", "other", 1),
                                               (ts(1, 11), "acct", "other", 2)], w))
        ecig = graphs.build_ecig(parsed_actions([]), w)
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
        members = [(m, c["category"]) for c in manifest["bot_communities"]
                   for m in c["members"][:5]]
        got = botnet.categorize([m for m, _ in members], emfg, ecig, snapshot, registry,
                                merged)
        assert list(zip([m for m, _ in members], got)) == members

    def test_skipped_all_silent_community(self):
        g = _boss_forest([f"kid{name_digits(i, 3)}" for i in range(40)])
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
        feats = botnet.extract_features([member], emfg, ecig, eacg, snapshot, window)
        assert feats.shape == (1, len(botnet.FEATURE_NAMES)) == (1, 11)
        assert feats.dtype == np.float64
        d = dict(zip(botnet.FEATURE_NAMES, feats[0].tolist()))
        assert d["acg_depth"] == 2.0  # eosio -> controller -> member
        assert 0.0 <= d["activate_time"] <= 1.0

    def test_silent_account_zero_features(self, built_graphs, parsed, window,
                                          scenario):
        emfg, eacg, ecig = built_graphs
        _, snapshot = parsed
        _, manifest = scenario
        idle = next(a for a in manifest["silent_accounts"] if a.startswith("idle"))
        feats = botnet.extract_features([idle], emfg, ecig, eacg, snapshot, window)
        d = dict(zip(botnet.FEATURE_NAMES, feats[0].tolist()))
        assert d["transfer_out_std"] == 0.0
        assert d["invocation_num"] == 0.0
        assert d["volume_per_transfer_out"] == 0.0

    # SHA-256 of every account's 11 features on the fixture scenario, computed
    # one account at a time before the features became one matrix.
    GOLDEN_FEATURES_SHA256 = (
        "cc0eb710389058402e90c9c73e5f5e27ebe2e328b079473bf31101f63abb5c1b")

    @pytest.mark.parametrize("as_dict", [False, True])
    def test_features_golden(self, built_graphs, parsed, window, as_dict):
        emfg, eacg, ecig = built_graphs
        _, snapshot = parsed
        accounts = snapshot.accounts if as_dict else snapshot
        names = sorted(snapshot.accounts)
        features = botnet.extract_features(names, emfg, ecig, eacg, accounts, window)
        rows = [[a, [float(v) for v in row]] for a, row in zip(names, features)]
        assert len(rows) == 358
        digest = hashlib.sha256(json.dumps(rows).encode()).hexdigest()
        assert digest == self.GOLDEN_FEATURES_SHA256

    def test_feature_rows_do_not_depend_on_the_list(self, built_graphs, parsed, window):
        # `bots classify` extracts the labeled accounts and the candidates in
        # one call and splits the rows
        emfg, eacg, ecig = built_graphs
        _, snapshot = parsed
        names = sorted(snapshot.accounts)
        first, second = names[::2], names[1::2]
        joined = botnet.extract_features(first + second, emfg, ecig, eacg, snapshot, window)
        apart = [botnet.extract_features(part, emfg, ecig, eacg, snapshot, window)
                 for part in (first, second)]
        assert joined.tobytes() == np.vstack(apart).tobytes()


class TestOracles:
    """extract_features and categorize against the per-account oracles,
    compared by the repr of every feature and every label, with and
    without merged public-key groups."""

    CATEGORIES = {"dapp_team", "account_seller", "bonus_hunter", "click_fraud", "other"}

    @staticmethod
    def _labels(records, snapshot, registry, window, manifest):
        emfg = graphs.build_emfg(extract_transfers(records, window))
        eacg = graphs.build_eacg(snapshot, window)
        ecig = graphs.build_ecig(records, window)
        cells, calls = oracle_emfg(records, window), oracle_ecig(records, window)
        accounts = sorted(snapshot.accounts)
        features = botnet.extract_features(accounts, emfg, ecig, eacg, snapshot, window)
        assert features.shape == (len(accounts), 11)
        records = dict(snapshot.items())  # the oracles read every account's record
        for account, row in zip(accounts, features.tolist()):
            want = oracle_features(account, cells, calls, eacg, records, window)
            assert list(map(repr, row)) == list(map(repr, want)), account
        merged = botnet.merge_by_pubkey(
            [m for c in manifest["bot_communities"] for m in c["members"]], snapshot)
        for groups in (None, merged):
            labels = botnet.categorize(accounts, emfg, ecig, snapshot, registry, groups)
            assert labels == [oracle_categorize(a, cells, calls, records, registry, groups)
                              for a in accounts]
        # the seller rule fired on a merged group of 10 or more, and the
        # dapp_team rule on an account sharing a key with a DApp
        sellers = {a for a, label in zip(accounts, labels) if label == "account_seller"}
        assert any(len(g) >= 10 and set(g) <= sellers - registry.seller_seed
                   for g in merged.values())
        assert any(label == "dapp_team" and a not in registry.dapp_accounts
                   for a, label in zip(accounts, labels))
        return set(labels)

    def test_fixture_scenario(self, parsed, registry, window, scenario):
        trace, snapshot = parsed
        labels = self._labels(trace.records, snapshot, registry, window, scenario[1])
        assert labels == self.CATEGORIES

    def test_second_scenario(self, tmp_path):
        config = small_scenario_config(seed=2)
        config.day_count = 20
        manifest = synthgen.generate(config, tmp_path)
        w = manifest["window"]
        window = ObservationWindow(date.fromisoformat(w["start_day"]),
                                   date.fromisoformat(w["end_day"]))
        registry = Registry.load(dapps=tmp_path / "dapps.csv",
                                 incentives=tmp_path / "incentives.csv")
        labels = self._labels(parse_action_trace(tmp_path / "trace.ndjson", window).records,
                              parse_account_snapshot(tmp_path / "snapshot.ndjson"),
                              registry, window, manifest)
        assert labels == self.CATEGORIES


    def test_seller_group_needs_every_member_silent(self):
        w = ObservationWindow(date(2018, 6, 9), date(2018, 6, 18))
        members = [f"farm{c}" for c in "abcdefghij"]
        snapshot = parsed_accounts({m: AccountRecord(m, "eosio", ts(0), {}) for m in members})
        emfg = graphs.build_emfg(extract_transfers(parsed_actions([]), w))
        for calls, want in (([], "account_seller"),
                            ([make_action(1, actor="farmd", contract="dice")], "other"),
                            ([make_action(1, actor="farmd", contract="eosio.token")],
                             "account_seller")):
            ecig = graphs.build_ecig(parsed_actions(calls), w)
            got = botnet.categorize(members, emfg, ecig, snapshot, Registry(),
                                    {"pk-0000": members})
            assert got == [want] * 10
        small = {"pk-0000": members[:9]}
        assert botnet.categorize(members[:9], emfg, graphs.build_ecig(parsed_actions([]), w),
                                 snapshot, Registry(), small) == ["other"] * 9

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
