from datetime import date, datetime, timezone

import pytest

from eosforensics import permissions
from eosforensics.model import (
    AccountRecord,
    ActionRecord,
    Authority,
    ObservationWindow,
    UpdateAuthPayload,
    parse_action_trace,
    write_ndjson,
)


def _w():
    from datetime import timedelta

    return ObservationWindow(date(2018, 6, 9), date(2018, 6, 9) + timedelta(days=29))


def _ts(day=1):
    return datetime(2018, 6, 9 + day, 12, 0, 0, tzinfo=timezone.utc)


def _updateauth(seq, account, grantee=None, threshold=1, weight=1, day=1,
                key="EOSKEYA", grantee_perm="eosio.code",
                account_weights=None, contract="eosio"):
    if account_weights is None:
        account_weights = (
            ((grantee, grantee_perm, weight),) if grantee else ()
        )
    return ActionRecord(
        global_seq=seq,
        tx_id=f"{seq:016x}",
        timestamp=_ts(day),
        executing_contract=contract,
        action_name="updateauth",
        actor=account,
        kind="external",
        payload=UpdateAuthPayload(
            account=account,
            permission="active",
            parent="owner",
            authority=Authority(threshold, ((key, 1),), account_weights),
        ),
    )


def _account(name, keys=("EOSKEYA",)):
    perm = Authority(1, tuple((k, 1) for k in keys), ())
    return AccountRecord(
        name=name,
        creator=None,
        created_at=_ts(0),
        permissions={"owner": perm, "active": perm},
    )


class TestScan:
    def test_single_grant(self):
        grants, diags = permissions.scan_updateauth(
            [_updateauth(1, "alice", "codeacct")], _w()
        )
        assert len(grants) == 1
        assert grants[0].granter == "alice"
        assert grants[0].grantee == "codeacct"
        assert diags == []

    def test_supersede_revokes(self):
        actions = [
            _updateauth(1, "alice", "codeacct"),
            _updateauth(2, "alice", account_weights=()),
        ]
        grants, _ = permissions.scan_updateauth(actions, _w())
        assert grants == []

    def test_supersede_replaces_grantee(self):
        actions = [
            _updateauth(1, "alice", "oldcode"),
            _updateauth(2, "alice", "newcode"),
        ]
        grants, _ = permissions.scan_updateauth(actions, _w())
        assert [g.grantee for g in grants] == ["newcode"]

    def test_replay_is_seq_ordered_not_input_ordered(self):
        actions = [
            _updateauth(2, "alice", "newcode"),
            _updateauth(1, "alice", "oldcode"),
        ]
        grants, _ = permissions.scan_updateauth(actions, _w())
        assert [g.grantee for g in grants] == ["newcode"]

    def test_non_code_weights_ignored(self):
        grants, _ = permissions.scan_updateauth(
            [_updateauth(1, "alice", "other", grantee_perm="active")], _w()
        )
        assert grants == []

    def test_undecodable_payload_is_diagnostic(self):
        bad = ActionRecord(
            global_seq=1, tx_id="01", timestamp=_ts(), executing_contract="eosio",
            action_name="updateauth", actor="alice", kind="external",
            payload={"weird": True},
        )
        grants, diags = permissions.scan_updateauth([bad], _w())
        assert grants == []
        assert len(diags) == 1

    def test_permissions_tracked_independently(self):
        a = _updateauth(1, "alice", "codeacct")
        b = ActionRecord(
            global_seq=2, tx_id="02", timestamp=_ts(), executing_contract="eosio",
            action_name="updateauth", actor="alice", kind="external",
            payload=UpdateAuthPayload(
                account="alice", permission="owner", parent="",
                authority=Authority(1, (("EOSKEYA", 1),),
                                    (("ownercode", "eosio.code", 1),)),
            ),
        )
        grants, _ = permissions.scan_updateauth([a, b], _w())
        assert {(g.linked_permission, g.grantee) for g in grants} == {
            ("active", "codeacct"), ("owner", "ownercode"),
        }


    def test_other_contracts_updateauth_grants_nothing(self):
        grants, diags = permissions.scan_updateauth(
            [_updateauth(1, "alice", "codeacct", contract="evilcontract")], _w()
        )
        assert grants == [] and diags == []


def _deleteauth(seq, payload, contract="eosio"):
    return ActionRecord(
        global_seq=seq, tx_id=f"{seq:016x}", timestamp=_ts(), executing_contract=contract,
        action_name="deleteauth", actor="alice", kind="external", payload=payload,
    )


class TestDeleteauth:
    """Replay of a hand-built trace, written and parsed back as NDJSON."""

    @staticmethod
    def _scan(tmp_path, records):
        path = tmp_path / "trace.ndjson"
        write_ndjson(path, (r.to_json() for r in records))
        return permissions.scan_updateauth(parse_action_trace(path, _w()).records, _w())

    def test_grant_then_delete_leaves_no_grant(self, tmp_path):
        grants, diags = self._scan(tmp_path, [
            _updateauth(1, "alice", "codeacct"),
            _deleteauth(2, {"account": "alice", "permission": "active"}),
        ])
        assert grants == [] and diags == []

    def test_delete_then_regrant_keeps_the_grant(self, tmp_path):
        grants, diags = self._scan(tmp_path, [
            _updateauth(1, "alice", "codeacct"),
            _deleteauth(2, {"account": "alice", "permission": "active"}),
            _updateauth(3, "alice", "codeacct"),
        ])
        assert [(g.granter, g.grantee, g.action_seq) for g in grants] == [
            ("alice", "codeacct", 3)]
        assert diags == []

    def test_other_contracts_deleteauth_deletes_nothing(self, tmp_path):
        grants, diags = self._scan(tmp_path, [
            _updateauth(1, "alice", "codeacct"),
            _deleteauth(2, {"account": "alice", "permission": "active"},
                        contract="evilcontract"),
        ])
        assert [(g.grantee, g.action_seq) for g in grants] == [("codeacct", 1)]
        assert diags == []

    def test_malformed_delete_is_diagnostic(self, tmp_path):
        grants, diags = self._scan(tmp_path, [
            _updateauth(1, "alice", "codeacct"),
            _deleteauth(2, {"account": "alice", "permission": 7}),
        ])
        assert [(g.grantee, g.action_seq) for g in grants] == [("codeacct", 1)]
        assert [seq for seq, _ in diags] == [2]


class TestDetect:
    def _snapshot(self, **accounts):
        return accounts

    def test_cross_key_effective_is_misuse(self):
        grants, _ = permissions.scan_updateauth(
            [_updateauth(1, "alice", "codeacct")], _w()
        )
        snap = {"alice": _account("alice", ("EOSKEYA",)),
                "codeacct": _account("codeacct", ("EOSKEYB",))}
        findings = permissions.detect_misuse(grants, snap)
        assert findings[0].severity == "misuse"
        assert findings[0].cross_key is True

    def test_weight_equal_threshold_is_misuse(self):
        grants, _ = permissions.scan_updateauth(
            [_updateauth(1, "alice", "codeacct", threshold=3, weight=3)], _w()
        )
        snap = {"alice": _account("alice", ("EOSKEYA",)),
                "codeacct": _account("codeacct", ("EOSKEYB",))}
        assert permissions.detect_misuse(grants, snap)[0].severity == "misuse"

    def test_weight_below_threshold_is_partial(self):
        grants, _ = permissions.scan_updateauth(
            [_updateauth(1, "alice", "codeacct", threshold=2, weight=1)], _w()
        )
        snap = {"alice": _account("alice", ("EOSKEYA",)),
                "codeacct": _account("codeacct", ("EOSKEYB",))}
        finding = permissions.detect_misuse(grants, snap)[0]
        assert finding.severity == "partial"
        assert finding.effective is False

    def test_shared_key_is_benign(self):
        grants, _ = permissions.scan_updateauth(
            [_updateauth(1, "alice", "codeacct")], _w()
        )
        snap = {"alice": _account("alice", ("EOSKEYA", "EOSKEYZ")),
                "codeacct": _account("codeacct", ("EOSKEYZ",))}
        assert permissions.detect_misuse(grants, snap)[0].severity == "benign"

    def test_missing_grantee_is_partial_unknown(self):
        grants, _ = permissions.scan_updateauth(
            [_updateauth(1, "alice", "ghost")], _w()
        )
        snap = {"alice": _account("alice")}
        finding = permissions.detect_misuse(grants, snap)[0]
        assert finding.severity == "partial"
        assert finding.cross_key is None

    def test_pair_summary_keeps_worst(self):
        grants, _ = permissions.scan_updateauth(
            [
                _updateauth(1, "alice", "codeacct", threshold=2, weight=1),
                _updateauth(2, "bob", "codeacct"),
            ],
            _w(),
        )
        snap = {
            "alice": _account("alice", ("EOSKEYA",)),
            "bob": _account("bob", ("EOSKEYC",)),
            "codeacct": _account("codeacct", ("EOSKEYB",)),
        }
        findings = permissions.detect_misuse(grants, snap)
        pairs = permissions.account_pair_summary(findings)
        assert pairs[("alice", "codeacct")] == "partial"
        assert pairs[("bob", "codeacct")] == "misuse"


class TestEndToEnd:
    def test_planted_grants_recovered_exactly(self, parsed, window, scenario):
        trace, snapshot = parsed
        _, manifest = scenario
        grants, _ = permissions.scan_updateauth(trace.records, window)
        findings = permissions.detect_misuse(grants, snapshot)
        got = {s: set() for s in ("misuse", "partial", "benign")}
        for f in findings:
            got[f.severity].add((f.grant.granter, f.grant.grantee))
        planted = manifest["misuse_grants"]
        assert got["misuse"] == {tuple(p) for p in planted["misuse"]}
        assert got["partial"] == {tuple(p) for p in planted["partial"]}
        assert got["benign"] == {tuple(p) for p in planted["benign"]}
        revoked = {tuple(p) for p in planted["revoked"]}
        all_pairs = {(g.granter, g.grantee) for g in grants}
        assert not (revoked & all_pairs)

    def test_export_csv(self, parsed, window, tmp_path):
        trace, snapshot = parsed
        grants, _ = permissions.scan_updateauth(trace.records, window)
        findings = permissions.detect_misuse(grants, snapshot)
        out = tmp_path / "findings.csv"
        permissions.export_findings_csv(findings, out)
        lines = out.read_text().splitlines()
        assert lines[0].startswith("granter,grantee")
        assert len(lines) == len(findings) + 1


def test_deleted_grants_leave_precision_and_recall_at_one(tmp_path):
    """Deleted grants are cross-key eosio.code grants with weight 1 against
    threshold 1, which would be flagged as misuse but for the deleteauth that
    removes each one's permission a day later: replaying the table's `auth`
    list must drop them all and keep every planted misuse."""
    from eosforensics import synthgen
    from eosforensics.model import parse_account_snapshot

    plan = synthgen.MisusePlan(misuse=12, partial=6, benign=6, revoked=4, unrelated=3,
                               deleted=10)
    config = synthgen.ScenarioConfig(seed=4, day_count=10, normal_account_count=20,
                                     service_count=2, misuse_plan=plan)
    manifest = synthgen.generate(config, tmp_path)
    window = ObservationWindow(date(2018, 6, 9), date(2018, 6, 18))
    trace = parse_action_trace(tmp_path / "trace.ndjson", window)
    table = trace.records.table
    actions = [table.names[table.action[row]] for row, _ in table.auth]
    assert actions.count("deleteauth") == 10
    assert actions.count("updateauth") == 12 + 6 + 6 + 4 * 2 + 3 + 10

    grants, diagnostics = permissions.scan_updateauth(trace.records, window)
    assert diagnostics == []
    snapshot = parse_account_snapshot(tmp_path / "snapshot.ndjson")
    findings = permissions.detect_misuse(grants, snapshot)
    flagged = {(f.grant.granter, f.grant.grantee) for f in findings if f.severity == "misuse"}
    planted = {tuple(pair) for pair in manifest["misuse_grants"]["misuse"]}
    deleted = {tuple(pair) for pair in manifest["misuse_grants"]["deleted"]}
    assert len(planted) == 12 and len(deleted) == 10
    assert flagged == planted  # precision = recall = 1
    assert not deleted & {(g.granter, g.grantee) for g in grants}


def test_plan_without_deleted_grants_has_no_deleted_key(scenario):
    _, manifest = scenario
    assert "deleted" not in manifest["misuse_grants"]
