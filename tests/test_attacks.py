from datetime import date, datetime, timedelta, timezone
from decimal import Decimal

import pytest
from hypothesis import example, given, strategies as st

from eosforensics import attacks
from eosforensics.errors import BundleError, IngestError
from eosforensics.model import ObservationWindow, Registry, extract_transfers
from tests_support import (
    make_transfer,
    oracle_liveness_filter,
    oracle_profit_scan,
    transfers_of,
    ts,
)


def _registry():
    return Registry(dapp_accounts={"gamehouse": ("Game", "gambling")})


def _fake_transfer(actions):
    return attacks.detect_fake_transfer(
        actions, attacks.genuine_transfer_events(actions), _registry())


def _fake_notice(actions):
    return attacks.detect_fake_notice(
        actions, attacks.genuine_transfer_events(actions), _registry())


def _window():
    return ObservationWindow(date(2018, 6, 9), date(2018, 6, 9) + timedelta(days=29))


class TestScanConfig:
    def test_defaults(self):
        c = attacks.ScanConfig()
        assert c.w1 == Decimal(400)
        assert c.w2 == 1.2
        assert c.w3 == 0.9

    def test_validation(self):
        with pytest.raises(ValueError):
            attacks.ScanConfig(w1=Decimal(0))
        with pytest.raises(ValueError):
            attacks.ScanConfig(w2=1.0)
        with pytest.raises(ValueError):
            attacks.ScanConfig(w3=0.0)


class TestFakeTransfer:
    def test_detected(self):
        actions = [
            # fake transfer via attacker's own contract
            make_transfer(1, "attacker", "gamehouse", 100,
                          contract="attacker", when=ts(3, 10)),
            # same-day genuine payout
            make_transfer(2, "gamehouse", "attacker", 80, when=ts(3, 11)),
        ]
        findings = _fake_transfer(actions)
        assert len(findings) == 1
        f = findings[0]
        assert f.attacker == "attacker"
        assert f.victim == "gamehouse"
        assert f.profit == Decimal(80)
        assert f.evidence == [1, 2]

    def test_no_profit_no_finding(self):
        actions = [
            make_transfer(1, "attacker", "gamehouse", 100,
                          contract="attacker", when=ts(3, 10)),
        ]
        assert _fake_transfer(actions) == []

    def test_genuine_transfer_not_flagged(self):
        actions = [
            make_transfer(1, "player", "gamehouse", 5, when=ts(3, 10)),
            make_transfer(2, "gamehouse", "player", 8, when=ts(3, 11)),
        ]
        assert _fake_transfer(actions) == []

    def test_non_dapp_target_ignored(self):
        actions = [
            make_transfer(1, "attacker", "somebody", 100,
                          contract="attacker", when=ts(3, 10)),
            make_transfer(2, "somebody", "attacker", 80, when=ts(3, 11)),
        ]
        assert _fake_transfer(actions) == []

    def test_deduped_per_day(self):
        actions = [
            make_transfer(1, "attacker", "gamehouse", 100,
                          contract="attacker", when=ts(3, 10)),
            make_transfer(2, "attacker", "gamehouse", 100,
                          contract="attacker", when=ts(3, 12)),
            make_transfer(3, "gamehouse", "attacker", 80, when=ts(3, 13)),
        ]
        assert len(_fake_transfer(actions)) == 1


    def test_evidence_holds_every_same_day_flow(self):
        actions = [
            make_transfer(1, "attacker", "gamehouse", 100, contract="attacker", when=ts(3, 10)),
            make_transfer(2, "gamehouse", "attacker", 80, when=ts(3, 11)),
            make_transfer(3, "attacker", "gamehouse", 10, when=ts(3, 12)),
            make_transfer(4, "gamehouse", "attacker", 30,
                          when=ts(3, 23, 59, 59).replace(microsecond=500000)),
            make_transfer(5, "gamehouse", "attacker", 500, when=ts(4, 0)),  # the next day
            make_transfer(6, "gamehouse", "player", 7, when=ts(3, 13)),
        ]
        (finding,) = _fake_transfer(actions)
        assert finding.profit == Decimal(100)
        assert finding.evidence == [1, 2, 3, 4]

class TestFakeNotice:
    def test_detected(self):
        actions = [
            make_transfer(1, "attacker", "accomplice", 1, when=ts(4, 9)),
            make_transfer(2, "attacker", "accomplice", 1, when=ts(4, 9),
                          kind="notification", notified="gamehouse"),
            make_transfer(3, "gamehouse", "attacker", 55, when=ts(4, 10)),
        ]
        findings, note = _fake_notice(actions)
        assert note is None
        assert len(findings) == 1
        assert findings[0].attacker == "attacker"
        assert findings[0].profit == Decimal(55)
        assert 2 in findings[0].evidence

    def test_recipient_notification_excluded(self):
        # normal require_recipient copy: the notified DApp is the receiver
        actions = [
            make_transfer(1, "player", "gamehouse", 5, when=ts(4, 9)),
            make_transfer(2, "player", "gamehouse", 5, when=ts(4, 9),
                          kind="notification", notified="gamehouse"),
            make_transfer(3, "gamehouse", "player", 9, when=ts(4, 10)),
        ]
        findings, _ = _fake_notice(actions)
        assert findings == []

    def test_no_notifications_note(self):
        actions = [make_transfer(1, "a", "b", 1)]
        findings, note = _fake_notice(actions)
        assert findings == []
        assert "insufficient data" in note


class TestSharedDetectorLoop:
    def test_each_detector_ignores_the_others_pattern(self):
        actions = [
            # a counterfeit transfer, and a counterfeit contract's notice
            make_transfer(1, "attacker", "gamehouse", 100,
                          contract="attacker", when=ts(3, 10)),
            make_transfer(2, "attacker", "accomplice", 1, contract="attacker",
                          when=ts(3, 10), kind="notification", notified="gamehouse"),
            make_transfer(3, "gamehouse", "attacker", 80, when=ts(3, 11)),
        ]
        assert [f.evidence for f in _fake_transfer(actions)] == [[1, 3]]
        assert _fake_notice(actions) == ([], None)

    def test_scan_builds_transfer_events_once(self, monkeypatch):
        calls = []
        build = attacks.genuine_transfer_events

        def counted(actions):
            calls.append(1)
            return build(actions)

        monkeypatch.setattr(attacks, "genuine_transfer_events", counted)
        actions = [
            make_transfer(1, "attacker", "accomplice", 1, when=ts(4, 9)),
            make_transfer(2, "attacker", "accomplice", 1, when=ts(4, 9),
                          kind="notification", notified="gamehouse"),
            make_transfer(3, "gamehouse", "attacker", 55, when=ts(4, 10)),
        ]
        findings, _ = attacks.scan_attacks(actions, _registry(), attacks.ScanConfig())
        assert [f.kind for f in findings] == ["fake_notice"]
        assert len(calls) == 1


class TestProfitScan:
    def _events(self, rows):
        return transfers_of(rows)

    def test_day_window_flagged(self):
        events = self._events([
            (ts(5, 10), "whale", "lucky", 500),
        ])
        windows = attacks.profit_scan(events, attacks.ScanConfig())
        accounts = {(w.account, w.granularity) for w in windows}
        assert ("lucky", "day") in accounts
        assert ("lucky", "hour") in accounts
        lucky = [w for w in windows if w.account == "lucky"][0]
        assert lucky.ratio == attacks.INF_RATIO

    def test_thresholds_strict(self):
        events = self._events([(ts(5, 10), "whale", "edge", 400)])
        assert attacks.profit_scan(events, attacks.ScanConfig()) == []

    def test_ratio_filter(self):
        events = self._events([
            (ts(5, 10, 5), "whale", "churn", 2000),
            (ts(5, 10, 40), "churn", "whale", 1900),  # ratio ~1.05 < 1.2
        ])
        assert attacks.profit_scan(events, attacks.ScanConfig()) == []

    def test_hour_alignment(self):
        # profit split across two calendar hours but inside one day
        events = self._events([
            (ts(5, 10, 50), "whale", "acct", 300),
            (ts(5, 11, 5), "whale", "acct", 300),
        ])
        windows = attacks.profit_scan(events, attacks.ScanConfig())
        day = [w for w in windows if w.granularity == "day"]
        hour = [w for w in windows if w.granularity == "hour"]
        assert len(day) == 1 and day[0].profit == Decimal(600)
        assert hour == []  # neither single hour clears W1

    def test_volume_beyond_int64_is_error(self):
        # the table refuses it, so no scan over it can overflow
        with pytest.raises(IngestError, match=r"2\*\*63 - 1 token units of 10\*\*-4"):
            self._events([(ts(5, 10), "whale", "lucky", "500000000000000.0000"),
                          (ts(5, 11), "lucky", "whale", "500000000000000.0000")])

    @pytest.mark.parametrize("w1", ["Infinity", "1E+30"])
    def test_w1_beyond_int64_flags_nothing(self, w1):
        events = self._events([(ts(5, 10), "whale", "lucky", "900000000000000")])
        assert attacks.profit_scan(events, attacks.ScanConfig(w1=Decimal(w1))) == []


def _at(day, hour, minute=0, second=0, microsecond=0):
    return datetime(2018, 6, day, hour, minute, second, microsecond,
                    tzinfo=timezone.utc)


# Instants on both sides of a day and an hour boundary, sub-second ones too.
EDGE_TIMES = [_at(9, 23, 59, 59, 500000), _at(10, 0), _at(10, 0, 30),
              _at(10, 0, 59, 59, 999999), _at(10, 1), _at(10, 23, 59, 59)]
# Small amounts make nets equal to W1 and ratios equal to W2 common; the
# same value with 0, 2 and 4 decimals tests that exponents survive.
EDGE_AMOUNTS = ["1", "1.00", "1.0000", "2", "2.00", "3", "0.50", "0.5000"]

times = st.one_of(
    st.sampled_from(EDGE_TIMES),
    st.datetimes(datetime(2018, 6, 9), datetime(2018, 6, 12),
                 timezones=st.just(timezone.utc)),
)
amounts = st.one_of(
    st.sampled_from(EDGE_AMOUNTS).map(Decimal),
    st.builds(lambda n, places: Decimal(n).scaleb(-places),
              st.integers(0, 10**8), st.sampled_from([0, 2, 4])),
)
# b receives 2.00 and sends 1 in one hour; c pays itself.
EDGE_STREAM = [(EDGE_TIMES[1], "a", "b", Decimal("2.00")),
               (EDGE_TIMES[2], "b", "a", Decimal("1")),
               (EDGE_TIMES[2], "c", "c", Decimal("5"))]
streams = st.lists(
    st.tuples(times, st.sampled_from("abcd"), st.sampled_from("abcd"), amounts),
    max_size=40,
)


@given(streams, st.sampled_from(["0.5", "1", "2", "3", "0.0001", "400"]),
       st.sampled_from([1.5, 2.0, 3.0, 1.2]))
@example(EDGE_STREAM, "1", 1.5)  # b's profit is exactly W1
@example(EDGE_STREAM, "0.5", 2.0)  # b's ratio is exactly W2
@example(EDGE_STREAM, "0.5", 1.5)  # b's day and hour both flagged
def test_profit_scan_matches_dict_oracle(rows, w1, w2):
    events = transfers_of(rows)
    config = attacks.ScanConfig(w1=Decimal(w1), w2=w2)
    assert ([repr(w) for w in attacks.profit_scan(events, config)]
            == [repr(w) for w in oracle_profit_scan(events, config)])


# Two DApps; c receives the same net from both in one hour, so a, first by
# name, takes the window.
TWO_DAPPS = Registry(dapp_accounts={"a": ("A", "gambling"), "b": ("B", "gambling")})
TIE_STREAM = [(EDGE_TIMES[1], "a", "c", Decimal("2")),
              (EDGE_TIMES[2], "b", "c", Decimal("2.00")),
              (EDGE_TIMES[3], "c", "d", Decimal("0.5"))]


@given(streams, st.sampled_from(["0.5", "1", "2", "400"]), st.sampled_from([1.2, 2.0]),
       st.sampled_from([0.5, 0.9, 1.0]))
@example(TIE_STREAM, "1", 1.2, 0.5)
@example(TIE_STREAM + [(EDGE_TIMES[5], "b", "c", Decimal(3))], "1", 1.2, 0.5)
def test_liveness_filter_matches_dict_oracle(rows, w1, w2, w3):
    events = transfers_of(rows)
    config = attacks.ScanConfig(w1=Decimal(w1), w2=w2, w3=w3)
    windows = attacks.profit_scan(events, config)
    assert ([repr(f) for f in attacks.liveness_filter(windows, events, TWO_DAPPS, config)]
            == [repr(f) for f in oracle_liveness_filter(windows, events, TWO_DAPPS, config)])


def test_liveness_tie_goes_to_first_dapp_by_name():
    events = transfers_of(TIE_STREAM)
    config = attacks.ScanConfig(w1=Decimal(1), w3=0.5)
    findings = attacks.liveness_filter(attacks.profit_scan(events, config), events,
                                       TWO_DAPPS, config)
    assert [(f.attacker, f.victim, str(f.profit)) for f in findings] == [("c", "a", "2.0000")]


class TestLiveness:
    def _setup(self, lifetime_extra=0):
        cfg = attacks.ScanConfig()
        rows = []
        # hit-and-run inside one hour
        for i in range(5):
            rows.append((ts(6, 20, i * 2), "attacker", "gamehouse", 1))
            rows.append((ts(6, 20, i * 2, 30), "gamehouse", "attacker", 101))
        # optional earlier background winnings from the same dapp, spread
        # thin enough that no background window clears W1 on its own
        for i in range(lifetime_extra):
            rows.append((ts(2 + i % 4, 10, i), "gamehouse", "attacker", 300))
        return cfg, transfers_of(rows)

    def test_hit_and_run_detected(self):
        cfg, events = self._setup()
        windows = attacks.profit_scan(events, cfg)
        findings = attacks.liveness_filter(windows, events, _registry(), cfg)
        assert len(findings) == 1
        f = findings[0]
        assert f.kind == "predictable_state"
        assert f.attacker == "attacker"
        assert f.profit == Decimal(500)

    def test_long_history_filtered(self):
        cfg, events = self._setup(lifetime_extra=5)
        windows = attacks.profit_scan(events, cfg)
        findings = attacks.liveness_filter(windows, events, _registry(), cfg)
        assert findings == []  # profit share of lifetime inflow is small

    def test_monotonic_in_thresholds(self):
        cfg, events = self._setup()
        base_windows = attacks.profit_scan(events, cfg)
        base = attacks.liveness_filter(base_windows, events, _registry(), cfg)
        for stricter in (
            attacks.ScanConfig(w1=Decimal(600)),
            attacks.ScanConfig(w2=300.0),
            attacks.ScanConfig(w3=0.999),
        ):
            windows = attacks.profit_scan(events, stricter)
            findings = attacks.liveness_filter(windows, events, _registry(),
                                               stricter)
            assert len(findings) <= len(base)


class TestEndToEnd:
    def test_planted_attacks_recovered(self, parsed, registry, scenario):
        trace, _ = parsed
        _, manifest = scenario
        findings, notes = attacks.scan_attacks(
            trace.records, registry, attacks.ScanConfig()
        )
        planted = {(a["kind"], a["attacker"], a["victim"])
                   for a in manifest["attacks"]}
        got = {(f.kind, f.attacker, f.victim) for f in findings}
        assert planted <= got
        extras = {g for g in got - planted}
        assert not extras, extras

    def test_signals_attached(self, parsed, registry):
        trace, _ = parsed
        findings, _ = attacks.scan_attacks(trace.records, registry,
                                           attacks.ScanConfig())
        for f in findings:
            assert f.signals["rollback_count"] is None
            assert f.signals["deferred_count"] >= 0

    def test_rollback_log_counted(self, parsed, registry, tmp_path):
        import json

        trace, _ = parsed
        findings, _ = attacks.scan_attacks(trace.records, registry,
                                           attacks.ScanConfig())
        attacker = findings[0].attacker
        log = tmp_path / "rollback.ndjson"
        log.write_text(
            json.dumps({"tx_id": "aa", "actor": attacker,
                        "timestamp": "2018-06-10T00:00:00Z"}) + "\n"
        )
        entries = attacks.load_rollback_log(log)
        findings2, _ = attacks.scan_attacks(trace.records, registry,
                                            attacks.ScanConfig(),
                                            rollback_entries=entries)
        by_attacker = {f.attacker: f for f in findings2}
        assert by_attacker[attacker].signals["rollback_count"] == 1


class TestBundles:
    def _bundle(self, tmp_path, parsed, registry, window):
        trace, _ = parsed
        findings, _ = attacks.scan_attacks(trace.records, registry,
                                           attacks.ScanConfig())
        finding = findings[0]
        actions_by_seq = {r.global_seq: r for r in trace.records}
        from eosforensics import graphs

        emfg = graphs.build_emfg(extract_transfers(trace.records, window))
        return attacks.evidence_bundle(finding, actions_by_seq, emfg,
                                       tmp_path / "bundle")

    def test_bundle_verifies(self, tmp_path, parsed, registry, window):
        bundle = self._bundle(tmp_path, parsed, registry, window)
        assert attacks.verify_bundle(bundle)
        assert (bundle / "finding.json").exists()
        assert (bundle / "actions.ndjson").read_text().count("\n") >= 1

    def test_tampered_bundle_fails(self, tmp_path, parsed, registry, window):
        bundle = self._bundle(tmp_path, parsed, registry, window)
        path = bundle / "actions.ndjson"
        path.write_text(path.read_text() + "{}\n")
        with pytest.raises(BundleError):
            attacks.verify_bundle(bundle)

    def test_missing_evidence_fatal(self, tmp_path):
        finding = attacks.AttackFinding(
            attacker="a", victim="b", kind="fake_transfer",
            window_start=ts(1), window_end=ts(1), profit=Decimal(1),
            profitability_ratio=1.5, evidence=[999],
        )
        from eosforensics import graphs

        with pytest.raises(BundleError):
            attacks.evidence_bundle(finding, {}, graphs.build_emfg(extract_transfers([])),
                                    tmp_path / "x")


def test_finding_json_inf_sentinel():
    f = attacks.AttackFinding(
        attacker="a", victim="b", kind="fake_notice",
        window_start=ts(1), window_end=ts(1), profit=Decimal("5.5"),
        profitability_ratio=attacks.INF_RATIO, evidence=[1],
    )
    obj = f.to_json()
    assert obj["profitability_ratio"] == "inf"
    assert obj["profit"] == "5.5"
