import hashlib
import io
import json
import os
import tempfile
import threading
from collections.abc import Mapping
from datetime import date, datetime, timezone
from decimal import Decimal
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from eosforensics import permissions
from eosforensics.errors import IngestError
from eosforensics.model import (
    ACCOUNT_NAME_RE,
    LINE_ERRORS,
    Accounts,
    Actions,
    Authority,
    ObservationWindow,
    Quantity,
    Registry,
    TraceParseResult,
    UpdateAuthPayload,
    decode_account,
    decode_action,
    extract_transfers,
    format_timestamp,
    is_account_name,
    parse_account_snapshot,
    parse_action_trace,
    parse_timestamp,
    write_ndjson,
)
from tests_support import (oracle_parse_account_snapshot, oracle_parse_action_trace,
                           oracle_parse_timestamp)


def _window():
    return ObservationWindow(date(2018, 6, 9), date(2018, 7, 8))


def _action_line(seq, **over):
    obj = {
        "global_seq": seq,
        "tx_id": f"{seq:016x}",
        "timestamp": "2018-06-10T12:00:00Z",
        "executing_contract": "eosio.token",
        "action_name": "transfer",
        "actor": "alice",
        "kind": "external",
        "payload": {"from": "alice", "to": "bob", "quantity": "1.0000 EOS",
                    "memo": ""},
    }
    obj.update(over)
    return json.dumps(obj)


class TestQuantity:
    def test_parse_format_round_trip(self):
        q = Quantity.parse("1.0000 EOS")
        assert q.amount == Decimal("1.0000")
        assert q.symbol == "EOS"
        assert str(q) == "1.0000 EOS"

    def test_rejects_garbage(self):
        for bad in ("1 EOS", "1.00 EOS", "1.00000 EOS", "-1.0000 EOS", "1.0000",
                    "1.0000 eos", "1. FAKE", "1.0000000000000000000 FAKE"):
            with pytest.raises(ValueError):
                Quantity.parse(bad)

    def test_negative_amount_rejected(self):
        with pytest.raises(ValueError):
            Quantity(Decimal("-1"), "EOS")

    @pytest.mark.parametrize("text", ["1.00 FAKE", "100 FAKE", "0.5 ABC",
                                      "12.000000000000000001 WEI"])
    def test_other_tokens_keep_their_precision(self, text):
        q = Quantity.parse(text)
        assert q.amount == Decimal(text.split()[0])
        assert str(q) == text

    def test_eos_precision_checked_on_construction(self):
        with pytest.raises(ValueError):
            Quantity(Decimal("1.00"), "EOS", precision=2)

    @pytest.mark.parametrize("amount, symbol, precision", [
        ("0.00001", "EOS", 4), ("1.00000", "EOS", 4), ("0.5", "FAKE", 0),
        ("Infinity", "EOS", 4)])
    def test_more_decimals_than_precision_rejected(self, amount, symbol, precision):
        with pytest.raises(ValueError):
            Quantity(Decimal(amount), symbol, precision)


class TestWindow:
    def test_day_count_inclusive(self):
        assert _window().day_count == 30

    def test_day_index_and_contains(self):
        w = _window()
        assert w.day_index(parse_timestamp("2018-06-09T00:00:00Z")) == 0
        assert w.day_index(parse_timestamp("2018-06-10T23:59:59Z")) == 1
        assert not w.contains(parse_timestamp("2018-07-09T00:00:00Z"))

    def test_inverted_window_rejected(self):
        with pytest.raises(ValueError):
            ObservationWindow(date(2018, 6, 10), date(2018, 6, 9))


class TestTimestamp:
    @pytest.mark.parametrize("text, expected", [
        ("2018-06-10T12:34:56Z", datetime(2018, 6, 10, 12, 34, 56)),
        ("2018-06-10T00:00:00.500Z", datetime(2018, 6, 10, 0, 0, 0, 500000)),
        ("2018-06-10T00:00:00.5Z", datetime(2018, 6, 10, 0, 0, 0, 500000)),
        ("2018-06-10T00:00:00.000001Z", datetime(2018, 6, 10, 0, 0, 0, 1)),
        ("2020-02-29T23:59:59.999999Z", datetime(2020, 2, 29, 23, 59, 59, 999999)),
    ])
    def test_accepted(self, text, expected):
        ts = parse_timestamp(text)
        assert ts == expected.replace(tzinfo=timezone.utc)
        assert ts.tzinfo is timezone.utc

    @pytest.mark.parametrize("text", [
        "2018-6-9T0:0:3Z",  # unpadded fields: strptime took these, ISO-8601 does not
        "2018-06-10T12:00:00",
        "2018-06-10 12:00:00Z",
        "2018-06-10T12:00:00.Z",
        "2018-06-10T12:00:00.1234567Z",
        "2018-06-10T12:00:00Z\n",
        "2018-06-10T12:00:00+00:00",
        "\uff12018-06-10T12:00:00Z",
        "2018-02-30T00:00:00Z",
        "2018-06-10T24:00:00Z",
        "2018-13-01T00:00:00Z",
        "",
    ])
    def test_rejected(self, text):
        with pytest.raises(ValueError):
            parse_timestamp(text)

    @pytest.mark.parametrize("text", [
        "2018-06-10T12:34:56Z",
        "2018-06-10T00:00:00.500Z",
        "2018-06-10T00:00:00.000001Z",
        "2018-06-10T00:00:00.120300Z",
    ])
    def test_format_round_trip(self, text):
        assert format_timestamp(parse_timestamp(text)) == text

    def test_half_second_trace_round_trip(self, tmp_path):
        p = tmp_path / "t.ndjson"
        stamps = [f"2018-06-{d:02d}T23:59:59.500Z" for d in (9, 10, 11)]
        p.write_text("\n".join(_action_line(i + 1, timestamp=t)
                               for i, t in enumerate(stamps)) + "\n")
        result = parse_action_trace(p, _window())
        assert result.diagnostics == []
        assert [_window().day_index(r.timestamp) for r in result] == [0, 1, 2]
        again = tmp_path / "again.ndjson"
        write_ndjson(again, (r.to_json() for r in result.records))
        assert again.read_text() == "".join(
            json.dumps(json.loads(_action_line(i + 1, timestamp=t)), sort_keys=True)
            + "\n" for i, t in enumerate(stamps))
        assert parse_action_trace(again, _window()).records == result.records


@settings(max_examples=300)
@given(st.integers(0, 9999), st.integers(0, 99), st.integers(0, 99), st.integers(0, 99),
       st.integers(0, 99), st.integers(0, 99), st.sampled_from(["", ".5", ".000001", ".999999",
                                                                ".25", ".1234"]))
@example(2018, 2, 30, 24, 0, 0, "")  # a bad date is reported before a bad hour
@example(2018, 6, 10, 23, 60, 61, "")
@example(0, 1, 1, 0, 0, 0, "")
@example(9999, 12, 31, 23, 59, 59, ".999999")
def test_timestamp_matches_the_datetime_constructor(year, month, day, hour, minute, second,
                                                    fraction):
    text = (f"{year:04d}-{month:02d}-{day:02d}T{hour:02d}:{minute:02d}:{second:02d}"
            f"{fraction}Z")
    try:
        expected = oracle_parse_timestamp(text)
    except ValueError as exc:
        with pytest.raises(ValueError) as info:
            parse_timestamp(text)
        assert str(info.value) == str(exc)
    else:
        got = parse_timestamp(text)
        assert got == expected and got.tzinfo is timezone.utc


class TestTraceParsing:
    @pytest.mark.parametrize("count", [0, 300])
    def test_digest_names_the_bytes_read(self, tmp_path, count):
        # blank, malformed and unterminated lines are hashed as read
        p = tmp_path / "t.ndjson"
        lines = [_action_line(s) for s in range(1, count + 1)]
        p.write_bytes("\n".join(lines + ["", "{x"] * (count > 0)).encode())
        digest = hashlib.sha256()
        parse_action_trace(p, _window(), digest=digest)
        assert digest.digest() == hashlib.sha256(p.read_bytes()).digest()

    def test_empty_file(self, tmp_path):
        p = tmp_path / "t.ndjson"
        p.write_text("")
        result = parse_action_trace(p, _window())
        assert len(result) == 0
        assert result.diagnostics == []

    def test_three_lines_in_order(self, tmp_path):
        p = tmp_path / "t.ndjson"
        p.write_text("\n".join(_action_line(s) for s in (5, 6, 7)) + "\n")
        result = parse_action_trace(p, _window())
        assert [r.global_seq for r in result] == [5, 6, 7]

    def test_out_of_window_dropped_and_counted(self, tmp_path):
        p = tmp_path / "t.ndjson"
        p.write_text(
            _action_line(1) + "\n"
            + _action_line(2, timestamp="2019-01-01T00:00:00Z") + "\n"
        )
        result = parse_action_trace(p, _window())
        assert len(result) == 1
        assert result.dropped_out_of_window == 1

    def test_non_increasing_seq_is_diagnostic(self, tmp_path):
        p = tmp_path / "t.ndjson"
        lines = [_action_line(s) for s in range(1, 200)]
        lines.append(_action_line(150))  # goes backwards
        p.write_text("\n".join(lines) + "\n")
        result = parse_action_trace(p, _window())
        assert len(result) == 199
        assert any("not increasing" in msg for _, msg in result.diagnostics)

    def test_too_many_malformed_lines_fatal(self, tmp_path):
        p = tmp_path / "t.ndjson"
        lines = [_action_line(s) for s in range(1, 50)] + ["{broken", "{also broken"]
        p.write_text("\n".join(lines) + "\n")
        with pytest.raises(IngestError):
            parse_action_trace(p, _window())

    def test_few_malformed_lines_collected(self, tmp_path):
        p = tmp_path / "t.ndjson"
        lines = [_action_line(s) for s in range(1, 200)] + ["{broken"]
        p.write_text("\n".join(lines) + "\n")
        result = parse_action_trace(p, _window())
        assert len(result.diagnostics) == 1
        assert len(result) == 199

    def test_other_token_trace_round_trip(self, tmp_path):
        p = tmp_path / "t.ndjson"
        quantities = ["1.00 FAKE", "100 FAKE", "0.12345678 BTC"]
        lines = [_action_line(i + 1, executing_contract="fake.token",
                              payload={"from": "alice", "to": "bob",
                                       "quantity": q, "memo": ""})
                 for i, q in enumerate(quantities)]
        p.write_text("\n".join(lines) + "\n")
        result = parse_action_trace(p, _window())
        assert result.diagnostics == []
        again = tmp_path / "again.ndjson"
        write_ndjson(again, (r.to_json() for r in result.records))
        assert again.read_text() == "".join(
            json.dumps(json.loads(line), sort_keys=True) + "\n" for line in lines)

    def test_eos_other_than_four_decimals_is_diagnostic(self, tmp_path):
        p = tmp_path / "t.ndjson"
        lines = [_action_line(s) for s in range(1, 200)]
        lines.append(_action_line(200, payload={"from": "alice", "to": "bob",
                                                "quantity": "1.00 EOS", "memo": ""}))
        p.write_text("\n".join(lines) + "\n")
        result = parse_action_trace(p, _window())
        assert len(result) == 199
        assert [line for line, _ in result.diagnostics] == [200]

    @pytest.mark.parametrize("action_name", ["transfer", "updateauth"])
    @pytest.mark.parametrize("payload", [["alice", "bob"], "alice", 7, None])
    def test_non_object_payload_is_diagnostic(self, tmp_path, action_name, payload):
        p = tmp_path / "t.ndjson"
        lines = [_action_line(s) for s in range(1, 200)]
        lines.append(_action_line(200, action_name=action_name, payload=payload))
        p.write_text("\n".join(lines) + "\n")
        result = parse_action_trace(p, _window())
        assert len(result) == 199
        assert result.diagnostics == [(200, "payload is not an object: "
                                             + type(payload).__name__)]

    @pytest.mark.parametrize("field, value, message", [
        ("global_seq", True, "global_seq is not an integer: bool"),
        ("global_seq", 200.5, "global_seq is not an integer: float"),
        ("global_seq", "200", "global_seq is not an integer: str"),
        ("tx_id", {"x": 1}, "tx_id is not a string: dict"),
        ("from", "BAD NAME", "bad sender name: 'BAD NAME'"),
        ("to", "BAD NAME", "bad recipient name: 'BAD NAME'"),
        ("memo", 7, "transfer memo is not a string: int"),
        ("global_seq", 2**63, f"global_seq beyond int64: {2**63}"),
    ])
    def test_mistyped_field_is_diagnostic(self, tmp_path, field, value, message):
        if field in ("global_seq", "tx_id"):
            line = _action_line(200, **{field: value})
        else:
            line = _action_line(200, payload={"from": "alice", "to": "bob",
                                              "quantity": "1.0000 EOS", "memo": "",
                                              field: value})
        p = tmp_path / "t.ndjson"
        p.write_text("\n".join([_action_line(s) for s in range(1, 200)] + [line]) + "\n")
        result = parse_action_trace(p, _window())
        assert len(result) == 199
        assert result.diagnostics == [(200, message)]

    def test_missing_file_fatal(self, tmp_path):
        with pytest.raises(IngestError):
            parse_action_trace(tmp_path / "nope.ndjson", _window())

    def test_notification_requires_notified(self):
        obj = json.loads(_action_line(1, kind="notification"))
        with pytest.raises(ValueError):
            decode_action(obj)

    def test_round_trip(self, scenario, window, parsed, tmp_path):
        trace, _ = parsed
        out = tmp_path / "again.ndjson"
        write_ndjson(out, (r.to_json() for r in trace.records))
        again = parse_action_trace(out, window)
        assert len(again) == len(trace)
        for a, b in zip(trace.records, again.records):
            assert a.to_json() == b.to_json()

    def test_matches_per_line_decode(self, scenario, window, parsed):
        # parse_action_trace shares one memo across lines; decode_action
        # alone starts from an empty one, so the two must agree.
        out, _ = scenario
        expected = []
        for line in (out / "trace.ndjson").read_text().splitlines():
            record = decode_action(json.loads(line))
            if window.contains(record.timestamp):
                expected.append(record)
        trace, _ = parsed
        assert len(trace) > 1000
        assert trace.records == expected
        assert [r.to_json() for r in trace] == [r.to_json() for r in expected]

    def test_all_names_valid(self, parsed):
        trace, _ = parsed
        for r in trace.records:
            assert is_account_name(r.actor)
            assert is_account_name(r.executing_contract)
            if r.notified is not None:
                assert is_account_name(r.notified)


class TestExtractTransfers:
    def test_basic_inclusion(self, tmp_path):
        p = tmp_path / "t.ndjson"
        p.write_text(_action_line(1) + "\n")
        result = parse_action_trace(p, _window())
        transfers = extract_transfers(result.records, _window())
        assert len(transfers) == 1
        assert transfers.names == ("alice", "bob")
        assert (transfers.src.tolist(), transfers.dst.tolist()) == ([0], [1])
        assert transfers.units.tolist() == [10000]
        assert transfers.seq.tolist() == [1]
        assert transfers.day.tolist() == [1]  # 2018-06-10 in a window from 06-09

    def test_columns_are_read_only_int64(self, tmp_path):
        p = tmp_path / "t.ndjson"
        p.write_text(_action_line(7, timestamp="2018-06-10T23:59:59.500Z") + "\n")
        transfers = extract_transfers(parse_action_trace(p, _window()).records)
        epoch_us = int(datetime(2018, 6, 10, 23, 59, 59, 500000, tzinfo=timezone.utc)
                       .timestamp()) * 10**6 + 500000
        assert transfers.us.tolist() == [epoch_us]
        assert transfers.day.tolist() == [epoch_us // 86_400_000_000]  # from the epoch
        for column in (transfers.seq, transfers.us, transfers.day, transfers.src,
                       transfers.dst, transfers.units):
            assert column.dtype == np.int64
            with pytest.raises(ValueError):
                column[0] = 0

    def test_volume_beyond_int64_is_error(self, tmp_path):
        big = {"from": "alice", "to": "bob", "quantity": "500000000000000.0000 EOS",
               "memo": ""}
        p = tmp_path / "t.ndjson"
        p.write_text(_action_line(1, payload=big) + "\n" + _action_line(2, payload=big) + "\n")
        records = parse_action_trace(p, _window()).records
        assert len(extract_transfers(records[:1])) == 1
        with pytest.raises(IngestError, match=r"^transfer volume exceeds 2\*\*63 - 1"):
            extract_transfers(records)

    def test_fake_token_excluded(self, tmp_path):
        p = tmp_path / "t.ndjson"
        p.write_text(_action_line(1, executing_contract="evil.token") + "\n")
        result = parse_action_trace(p, _window())
        assert len(extract_transfers(result.records, _window())) == 0

    def test_notification_copy_excluded(self, tmp_path):
        p = tmp_path / "t.ndjson"
        p.write_text(
            _action_line(1) + "\n"
            + _action_line(2, kind="notification", notified="bob") + "\n"
        )
        result = parse_action_trace(p, _window())
        assert len(extract_transfers(result.records, _window())) == 1

    def test_self_transfer_excluded(self, tmp_path):
        p = tmp_path / "t.ndjson"
        p.write_text(
            _action_line(1, payload={"from": "alice", "to": "alice",
                                     "quantity": "1.0000 EOS", "memo": ""})
            + "\n"
        )
        result = parse_action_trace(p, _window())
        assert len(extract_transfers(result.records, _window())) == 0

    def test_non_eos_symbol_excluded(self, tmp_path):
        p = tmp_path / "t.ndjson"
        p.write_text(
            _action_line(1, payload={"from": "alice", "to": "bob",
                                     "quantity": "1.0000 JUNK", "memo": ""})
            + "\n"
        )
        result = parse_action_trace(p, _window())
        assert len(extract_transfers(result.records, _window())) == 0

    def test_count_matches_planted(self, scenario, parsed, window):
        _, manifest = scenario
        trace, _ = parsed
        transfers = extract_transfers(trace.records, window)
        assert len(transfers) == manifest["transfer_count"]


class TestSnapshot:
    def _account_line(self, name, creator="eosio", created="2018-06-10T00:00:00Z"):
        return json.dumps(
            {
                "name": name,
                "creator": creator,
                "created_at": created,
                "has_contract": False,
                "permissions": {
                    "owner": {"threshold": 1, "key_weights": [["EOSKEYX", 1]],
                              "account_weights": []},
                    "active": {"threshold": 1, "key_weights": [["EOSKEYX", 1]],
                               "account_weights": []},
                },
            }
        )

    def test_single_root_account(self, tmp_path):
        p = tmp_path / "s.ndjson"
        p.write_text(self._account_line("eosio", creator=None) + "\n")
        snap = parse_account_snapshot(p)
        assert len(snap) == 1
        assert snap["eosio"].creator is None

    def test_duplicate_fatal(self, tmp_path):
        p = tmp_path / "s.ndjson"
        p.write_text(self._account_line("alice") + "\n" + self._account_line("alice") + "\n")
        with pytest.raises(IngestError):
            parse_account_snapshot(p)

    def test_cycle_fatal(self, tmp_path):
        p = tmp_path / "s.ndjson"
        p.write_text(
            self._account_line("alice", creator="bob") + "\n"
            + self._account_line("bob", creator="alice") + "\n"
        )
        with pytest.raises(IngestError):
            parse_account_snapshot(p)

    def test_clock_skew_warns(self, tmp_path):
        p = tmp_path / "s.ndjson"
        p.write_text(
            self._account_line("alice", creator=None,
                               created="2018-06-12T00:00:00Z") + "\n"
            + self._account_line("bob", creator="alice",
                                 created="2018-06-10T00:00:00Z") + "\n"
        )
        snap = parse_account_snapshot(p)
        assert len(snap.warnings) == 1

    def test_scenario_snapshot_clean(self, parsed):
        _, snapshot = parsed
        assert snapshot.warnings == []

    def test_result_is_read_only_mapping(self, parsed):
        _, snapshot = parsed
        assert isinstance(snapshot, Mapping)
        assert dict(snapshot) == snapshot.accounts
        assert list(snapshot) == list(snapshot.accounts)
        name = next(iter(snapshot))
        assert snapshot.get(name) == snapshot.accounts[name]
        assert snapshot.get("nosuchacct") is None
        with pytest.raises(TypeError):
            snapshot["nosuchacct"] = snapshot[name]

    BAD_AUTHORITIES = {
        "zero_threshold": {"threshold": 0, "key_weights": [["EOSKEYX", 1]]},
        "negative_key_weight": {"threshold": 1, "key_weights": [["EOSKEYX", -3]]},
        "zero_threshold_negative_weight": {"threshold": 0,
                                           "key_weights": [["EOSKEYX", -3]]},
        "zero_account_weight": {"threshold": 1, "key_weights": [],
                                "account_weights": [["bob", "active", 0]]},
        # Not JSON integers: int() read these as 1, 2 and 1.
        "float_threshold": {"threshold": 1.9, "key_weights": [["EOSKEYX", 1]]},
        "string_key_weight": {"threshold": 1, "key_weights": [["EOSKEYX", "2"]]},
        "bool_account_weight": {"threshold": 1, "key_weights": [],
                                "account_weights": [["bob", "active", True]]},
    }

    @pytest.mark.parametrize("case", sorted(BAD_AUTHORITIES))
    def test_bad_authority_names_line(self, tmp_path, case):
        bad = json.loads(self._account_line("bob", creator="alice"))
        bad["permissions"]["active"] = self.BAD_AUTHORITIES[case]
        p = tmp_path / "s.ndjson"
        p.write_text(self._account_line("alice", creator=None) + "\n"
                     + json.dumps(bad) + "\n")
        with pytest.raises(IngestError, match=r"snapshot line 2: .*must be >= 1"):
            parse_account_snapshot(p)

    # Cases the range checks miss: Authority's type checks reject them.
    BAD_AUTHORITY_TYPES = {
        "list_key": ({"threshold": 1, "key_weights": [[["EOSKEYX"], 1]]},
                     "bad public key"),
        "empty_key": ({"threshold": 1, "key_weights": [["", 1]]}, "bad public key"),
        "list_grantee": ({"threshold": 1, "account_weights": [[["bob"], "active", 1]]},
                         "bad granted account name"),
        "number_grantee": ({"threshold": 1, "account_weights": [[5, "active", 1]]},
                           "bad granted account name"),
        "bad_grantee_permission": (
            {"threshold": 1, "account_weights": [["bob", "Active", 1]]},
            "bad granted permission name"),
        # Unpacked as they stand, these would read as key "k" and grant a@b.
        "object_key_weights": ({"threshold": 1, "key_weights": {"k1": 1}},
                               "lists of lists"),
        "string_account_weight": ({"threshold": 1, "account_weights": ["ab1"]},
                                  "lists of lists"),
    }

    @pytest.mark.parametrize("case", sorted(BAD_AUTHORITIES) + sorted(BAD_AUTHORITY_TYPES))
    def test_authority_rejects(self, tmp_path, case):
        raw, message = self.BAD_AUTHORITY_TYPES.get(
            case, (self.BAD_AUTHORITIES.get(case), "must be >= 1"))
        with pytest.raises(ValueError, match=message):
            Authority.from_json(raw)
        # Both consumers decode through Authority.from_json and so say the same.
        bad = json.loads(self._account_line("bob", creator=None))
        bad["permissions"]["active"] = raw
        p = tmp_path / "s.ndjson"
        p.write_text(json.dumps(bad) + "\n")
        with pytest.raises(IngestError, match=message):
            parse_account_snapshot(p)
        payload = {"account": "alice", "permission": "active", "parent": "owner", **raw}
        with pytest.raises(ValueError, match=message):
            decode_action(json.loads(_action_line(
                1, executing_contract="eosio", action_name="updateauth", payload=payload)))

    @pytest.mark.parametrize("value", ["false", 0, None, [], {}])
    def test_has_contract_must_be_bool(self, tmp_path, value):
        bad = json.loads(self._account_line("bob", creator=None))
        bad["has_contract"] = value
        p = tmp_path / "s.ndjson"
        p.write_text(json.dumps(bad) + "\n")
        with pytest.raises(IngestError, match="snapshot line 1: has_contract is not a bool"):
            parse_account_snapshot(p)

    @pytest.mark.parametrize("value", [True, False, "absent"])
    def test_has_contract_bool_or_absent(self, tmp_path, value):
        line = json.loads(self._account_line("bob", creator=None))
        if value == "absent":
            del line["has_contract"]
        else:
            line["has_contract"] = value
        p = tmp_path / "s.ndjson"
        p.write_text(json.dumps(line) + "\n")
        assert parse_account_snapshot(p)["bob"].has_contract is (value is True)

    def test_bad_permission_name_is_fatal(self, tmp_path):
        bad = json.loads(self._account_line("bob", creator=None))
        bad["permissions"]["Owner"] = bad["permissions"].pop("owner")
        p = tmp_path / "s.ndjson"
        p.write_text(json.dumps(bad) + "\n")
        with pytest.raises(IngestError, match="bad permission name: 'Owner'"):
            parse_account_snapshot(p)

    def test_authority_json_round_trip(self):
        raw = {"threshold": 2, "key_weights": [["EOSKEYX", 1]],
               "account_weights": [["bob", "eosio.code", 1], ["carol", "active", 2]]}
        authority = Authority.from_json(raw)
        assert authority.to_json() == raw
        assert Authority.from_json(authority.to_json()) == authority


class TestUpdateauthDecode:
    PAYLOAD = {"account": "alice", "permission": "active", "parent": "owner",
               "threshold": 1, "key_weights": [["EOSKEYX", 1]],
               "account_weights": [["bob", "eosio.code", 1]]}

    def _decode(self, contract="eosio", **over):
        return decode_action(json.loads(_action_line(
            1, executing_contract=contract, action_name="updateauth",
            payload={**self.PAYLOAD, **over})))

    def test_system_payload_decodes_and_encodes_six_keys(self):
        payload = self._decode().payload
        assert isinstance(payload, UpdateAuthPayload)
        assert payload.authority == Authority(1, (("EOSKEYX", 1),),
                                              (("bob", "eosio.code", 1),))
        assert payload.to_json() == self.PAYLOAD

    @pytest.mark.parametrize("field,value", [
        ("account", 5), ("account", ["alice"]), ("permission", "Active"),
        ("parent", "bad parent"), ("parent", 0),
    ])
    def test_bad_names_rejected(self, field, value):
        with pytest.raises(ValueError, match="name"):
            self._decode(**{field: value})

    def test_other_contracts_payload_stays_raw(self):
        raw = {**self.PAYLOAD, "account": 5, "threshold": 0}
        record = self._decode("evilcontract", **raw)
        assert record.payload == raw

    def test_other_contracts_updateauth_is_no_diagnostic(self, tmp_path):
        # Malformed as an authority, but it is not the system contract's
        # updateauth, so the line is a plain record.
        p = tmp_path / "t.ndjson"
        p.write_text(_action_line(1, executing_contract="evilcontract",
                                  action_name="updateauth",
                                  payload={"account": [], "permission": 5,
                                           "threshold": "x"}) + "\n")
        result = parse_action_trace(p, _window())
        assert len(result) == 1 and result.diagnostics == []
        assert isinstance(result.records[0].payload, dict)


class TestRegistry:
    def test_overlapping_labels_rejected(self):
        with pytest.raises(IngestError):
            Registry(
                labeled_bot_communities=[("c1", {"a"})],
                labeled_normal_communities=[("s1", {"a"})],
            )

    def test_load(self, registry, scenario):
        _, manifest = scenario
        dapps = {d[0] for d in manifest["dapps"]}
        assert set(registry.dapp_accounts) == dapps
        assert registry.incentive_dapps == set(manifest["incentive_dapps"])
        assert len(registry.labeled_bot_communities) == 4


@given(
    st.integers(min_value=0, max_value=10**8),
    st.sampled_from(["EOS", "RAM", "ABC"]),
)
def test_quantity_round_trip_property(units, symbol):
    text = f"{units // 10000}.{units % 10000:04d} {symbol}"
    q = Quantity.parse(text)
    assert str(q) == text


@given(st.text(alphabet="abcdefghijklmnopqrstuvwxyz12345.", min_size=1, max_size=12))
def test_account_name_regex_accepts_valid(name):
    assert is_account_name(name)


@given(st.text(max_size=16))
def test_account_name_regex_total(name):
    # never raises, and only full matches of the alphabet pass
    ok = is_account_name(name)
    if ok:
        assert 1 <= len(name) <= 12
        assert set(name) <= set("abcdefghijklmnopqrstuvwxyz12345.")


_json_scalars = (
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=12)
    | st.sampled_from([float("inf"), float("nan"), -1, 0, "", "eosio"])
)
_json_values = _json_scalars | st.recursive(
    _json_scalars,
    lambda children: (st.lists(children, max_size=3)
                      | st.dictionaries(st.text(max_size=6), children, max_size=3)),
    max_leaves=6,
)


def _mutated_line(template, path):
    """A strategy for template with one field, of the template or of an
    object along `path` inside it, replaced by, or removed for, an arbitrary
    JSON value."""
    def mutate(args):
        key, depth, value, drop = args
        obj = json.loads(json.dumps(template))
        target = obj
        for step in path[:depth]:
            if not isinstance(target.get(step), dict):
                break
            target = target[step]
        key = sorted(target)[key % len(target)]
        if drop:
            del target[key]
        else:
            target[key] = value
        return json.dumps(obj).encode()
    return st.tuples(st.integers(0, 20), st.integers(0, len(path)), _json_values,
                     st.booleans()).map(mutate)


_TRACE_TEMPLATE = json.loads(_action_line(1))
_SNAPSHOT_TEMPLATE = {
    "name": "alice", "creator": "eosio", "created_at": "2018-06-10T00:00:00Z",
    "has_contract": False,
    "permissions": {"owner": {"threshold": 1, "key_weights": [["EOSKEYX", 1]],
                              "account_weights": [["bob", "active", 1]]}},
}
_UPDATEAUTH = json.loads(_action_line(
    1, action_name="updateauth", executing_contract="eosio",
    payload={"account": "alice", "permission": "active", "parent": "owner",
             "threshold": 1, "key_weights": [["EOSKEYX", 1]],
             "account_weights": [["bob", "eosio.code", 1]]}))


def _hostile_lines(*templates):
    return st.lists(
        st.one_of(
            st.binary(max_size=40),
            st.sampled_from([b"[" * 200_000, b"{" * 5000, b"\xff\xfe", b"\xed\xa0\x80",
                             b'{"kind": "external"}', b"Infinity", b"NaN"]),
            *(_mutated_line(t, path) for t, path in templates),
        ),
        max_size=8,
    )


# A thousand valid lines ahead of the hostile ones keep a few malformed
# lines under the 1% gate, so their diagnostics are checked too.
_GOOD_TRACE = "".join(_action_line(seq) + "\n" for seq in range(1, 1001)).encode()


def _counted(raw):
    """Whether parse_action_trace counts a raw line: it is not blank."""
    try:
        return bool(raw.decode("utf-8").strip())
    except UnicodeDecodeError:
        return True


def _updateauth_with(seq, **over):
    return json.dumps({**_UPDATEAUTH, "global_seq": seq,
                       "payload": {**_UPDATEAUTH["payload"], **over}}).encode()


@given(_hostile_lines((_TRACE_TEMPLATE, ("payload",)), (_UPDATEAUTH, ("payload",))))
@example([json.dumps({**_TRACE_TEMPLATE, "global_seq": float("inf")}).encode()])
@example([_updateauth_with(2000), _updateauth_with(2001, account=5)])
@example([_updateauth_with(2000, account_weights=[[["bob"], "eosio.code", 1]])])
def test_trace_fuzz_diagnostic_or_ingest_error(lines):
    data = _GOOD_TRACE + b"\n".join(lines)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "t.ndjson"
        path.write_bytes(data)
        try:
            result = parse_action_trace(path, _window())
        except IngestError:
            return  # more than 1% of the lines are malformed
    diagnosed = [lineno for lineno, _ in result.diagnostics]
    assert diagnosed == sorted(set(diagnosed))
    assert all(n > 1000 for n in diagnosed)
    assert (len(result) + result.dropped_out_of_window + len(diagnosed)
            == sum(map(_counted, data.split(b"\n"))))
    # The consumers of the parsed records take them without raising.
    grants, _ = permissions.scan_updateauth(result.records, _window())
    permissions.detect_misuse(grants, {})


@given(_hostile_lines((_SNAPSHOT_TEMPLATE, ("permissions", "owner"))))
@example([json.dumps({**_SNAPSHOT_TEMPLATE, "permissions": []}).encode()])
@example([json.dumps({**_SNAPSHOT_TEMPLATE, "permissions": {"owner": {
    "threshold": 1, "key_weights": [[["EOSKEYX"], 1]]}}}).encode()])
def test_snapshot_fuzz_result_or_ingest_error(lines):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "s.ndjson"
        path.write_bytes(b"\n".join(lines))
        try:
            snapshot = parse_account_snapshot(path)
        except IngestError:
            return
    # A grant to and from every parsed account is classified without raising.
    names = list(snapshot) + ["nosuchacct"]
    permissions.detect_misuse(
        [permissions.PermissionGrant(granter, grantee, "eosio.code", "active", 1, 1, 0, 1)
         for granter in names for grantee in names], snapshot)


def _reference_lines(data):
    """(line number, decoded value or the exception) for each non-blank
    line of `data`, read as a binary file is and decoded by json.loads."""
    for lineno, raw in enumerate(io.BytesIO(data), start=1):
        try:
            line = raw.decode("utf-8").strip()
            if line:
                yield lineno, json.loads(line)
        except LINE_ERRORS as exc:
            yield lineno, exc


def _reference_trace(path, data):
    """What parse_action_trace returns for `data`, as (repr of the records,
    diagnostics, drops), or its IngestError text: each line is decoded on its
    own by json.loads and decode_action."""
    records, diagnostics, dropped, last_seq = [], [], 0, None
    for lineno, value in _reference_lines(data):
        try:
            if isinstance(value, Exception):
                raise value
            record = decode_action(value)
        except LINE_ERRORS as exc:
            diagnostics.append((lineno, str(exc)))
            continue
        if last_seq is not None and record.global_seq <= last_seq:
            diagnostics.append((lineno, f"global_seq {record.global_seq} not increasing"))
            continue
        last_seq = record.global_seq
        if _window().contains(record.timestamp):
            records.append(record)
        else:
            dropped += 1
    total = len(records) + dropped + len(diagnostics)
    if total and len(diagnostics) / total > 0.01:
        return (f"{len(diagnostics)}/{total} malformed lines in {path}; "
                f"first: line {diagnostics[0][0]}: {diagnostics[0][1]}")
    return repr(records), diagnostics, dropped


def _reference_snapshot(data):
    """The accounts parse_account_snapshot reads from `data`, or the
    IngestError text of its first bad line: each line is decoded on its own
    by json.loads and decode_account."""
    accounts = {}
    for lineno, value in _reference_lines(data):
        try:
            if isinstance(value, Exception):
                raise value
            record = decode_account(value)
        except LINE_ERRORS as exc:
            return f"snapshot line {lineno}: {exc}"
        if record.name in accounts:
            return f"duplicate account name: {record.name}"
        accounts[record.name] = record
    return accounts


def _has_creator_cycle(accounts):
    for start in accounts:
        seen, node = set(), start
        while node in accounts and node not in seen:
            seen.add(node)
            node = accounts[node].creator
        if node in seen:
            return True
    return False


_BOM = "\ufeff".encode()
_DEEP = b"[" * 100_000 + b"]" * 100_000


# Records are compared by repr, in which a NaN equals a NaN.
@settings(deadline=None)
@given(_hostile_lines((_TRACE_TEMPLATE, ("payload",)), (_UPDATEAUTH, ("payload",))))
@example([b"{} {}", b"1, 2"])
@example([_BOM + _action_line(1001).encode()])
@example([_DEEP])
@example([b"NaN", b"Infinity", _action_line(1001, global_seq=float("nan")).encode(),
          _action_line(1002, action_name="vote", payload={"x": float("inf")}).encode()])
@example([_action_line(1001, tx_id="\ud800").encode(),
          _action_line(1002, actor="\ud800").encode()])
@example([_action_line(1001).encode() + b"\x0b",
          _action_line(1002).encode() + "\u3000".encode()])
@example([b'{"a":[{}', b'{}]}'])
def test_trace_reader_matches_json_loads(lines):
    data = _GOOD_TRACE + b"\n".join(lines)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "t.ndjson"
        path.write_bytes(data)
        expected = _reference_trace(path, data)
        try:
            result = parse_action_trace(path, _window())
        except IngestError as exc:
            assert str(exc) == expected
            return
        assert (repr(list(result.records)), result.diagnostics,
                result.dropped_out_of_window) == expected


_ACCOUNT = json.dumps(_SNAPSHOT_TEMPLATE).encode()


def _account(name, **over):
    return json.dumps({**_SNAPSHOT_TEMPLATE, "name": name, **over}).encode()


@settings(deadline=None)
@given(_hostile_lines((_SNAPSHOT_TEMPLATE, ("permissions", "owner"))))
@example([b"{} {}"])
@example([b"1, 2"])
@example([_BOM + _ACCOUNT])
@example([_DEEP])
@example([b"NaN"])
@example([_account("bob", has_contract=float("nan")), b"Infinity"])
@example([_account("\ud800")])
@example([_account("bob", creator="\ud800")])
@example([_ACCOUNT + b"\x0b", _account("bob") + "\u3000".encode()])
@example([b'{"a":[{}', b'{}]}'])
def test_snapshot_reader_matches_json_loads(lines):
    data = b"\n".join(lines)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "s.ndjson"
        path.write_bytes(data)
        got, oracle = (_snapshot_parse(parse, path)
                       for parse in (parse_account_snapshot, oracle_parse_account_snapshot))
    expected = _reference_snapshot(data)
    if isinstance(expected, dict) and isinstance(got, str):
        assert got.startswith("creator cycle through account")
        assert oracle.startswith("creator cycle through account")
        assert _has_creator_cycle(expected)
    else:
        assert (got if isinstance(got, str) else got[0]) == (
            expected if isinstance(expected, str) else repr(expected))
        assert got == oracle


def _snapshot_parse(parse, path):
    """(the repr of the accounts as a dict, the warnings) of parse(path), or
    the text of its IngestError."""
    try:
        result = parse(path)
        return repr(dict(result.accounts)), result.warnings
    except IngestError as exc:
        return str(exc)


# Snapshots of a few accounts named from a small pool, in any order and now
# and then with a name twice, so that duplicates, creator cycles (self-cycles
# too), orphans ("ghost" is never an account), clock skew (and equal
# creation times) and keys shared between accounts and between permissions
# all arise.
_SNAPSHOT_NAMES = ["alice", "bob", "carol", "dave", "erin", "frank"]


@st.composite
def _account_lines(draw):
    names = draw(st.lists(st.sampled_from(_SNAPSHOT_NAMES), unique=True, max_size=6))
    if names and draw(st.integers(0, 3)) == 0:
        names.append(draw(st.sampled_from(names)))
    keys = st.sampled_from(["EOSKEYA", "EOSKEYB", "EOSKEYC"])
    authority = st.fixed_dictionaries({
        "threshold": st.integers(1, 2),
        "key_weights": st.lists(st.tuples(keys, st.integers(1, 2)).map(list), max_size=3),
        "account_weights": st.lists(st.just(["bob", "eosio.code", 1]), max_size=1)})
    accounts = [draw(st.fixed_dictionaries(
        {"name": st.just(name),
         "creator": st.sampled_from([None, "ghost", *_SNAPSHOT_NAMES]),
         "created_at": st.sampled_from(["2018-06-10T00:00:00Z", "2018-06-10T00:00:00.5Z",
                                        "2018-06-11T08:00:00Z", "2018-06-09T23:59:59Z"]),
         "permissions": st.dictionaries(st.sampled_from(["owner", "active", "codecall"]),
                                        authority, max_size=3)},
        optional={"has_contract": st.booleans()})) for name in names]
    return [json.dumps(account).encode() for account in accounts]


@settings(deadline=None)
@given(_account_lines(), st.booleans())
@example([_account("bob", creator="bob")], False)
@example([_account("bob", creator=None, created_at="2018-06-12T00:00:00Z"),
          _account("dave", creator="bob"), _account("carol", creator="bob")], False)
@example([_account("bob", creator="alice"), _account("alice", creator="bob")], True)
def test_snapshot_table_matches_the_record_parse(lines, crlf):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "s.ndjson"
        path.write_bytes(b"".join(line + (b"\r\n" if crlf else b"\n") for line in lines))
        got, oracle = (_snapshot_parse(parse, path)
                       for parse in (parse_account_snapshot, oracle_parse_account_snapshot))
        if isinstance(oracle, str) and oracle.startswith("creator cycle through account"):
            assert got.startswith("creator cycle through account")
            return
        assert got == oracle
        if isinstance(got, str):
            return
        table = parse_account_snapshot(path).accounts.table
        records = oracle_parse_account_snapshot(path).accounts
    # the same records as a dict convert to the same table, without lines
    assert _account_columns(Accounts.of(records)) == _account_columns(table)
    assert (table.offset >= 0).all() and len(set(table.offset.tolist())) == len(table)


def _account_columns(table):
    """Every column of an Accounts table but `offset`, as (dtype, values)."""
    columns = [table.creator, table.us, table.key_account, table.key, table.key_active]
    return (table.names, table.public_keys, [(c.dtype.str, c.tolist()) for c in columns])


# ---------------------------------------------------------------------------
# The Actions table: the same table at any chunk size, equal to the record
# parse it replaced, and read back through its records view.

_TRANSFER = {"from": "alice", "to": "gamehouse", "quantity": "2.5000 EOS", "memo": ""}
_LINE_KINDS = {  # kind -> the fields a line of that kind overrides
    "transfer": {"payload": _TRANSFER},
    "notice": {"kind": "notification", "notified": "gamehouse", "payload": _TRANSFER},
    "third_party": {"kind": "notification", "notified": "dice", "payload": _TRANSFER},
    "fake_token": {"executing_contract": "fake.token",
                   "payload": {**_TRANSFER, "quantity": "9.00 FAKE"}},
    "huge": {"payload": {**_TRANSFER, "quantity": "5000000000000000.0000 EOS"}},
    "updateauth": {k: _UPDATEAUTH[k] for k in ("executing_contract", "action_name",
                                               "payload")},
    "deleteauth": {"executing_contract": "eosio", "action_name": "deleteauth",
                   "payload": {"account": "alice", "permission": "active"}},
    "play": {"executing_contract": "dice", "action_name": "play", "kind": "inline",
             "payload": {"bet": [1, 2.5, None]}},
    "deferred": {"executing_contract": "dice", "action_name": "reveal", "kind": "deferred",
                 "payload": {}},
    "late": {"timestamp": "2019-01-01T00:00:00.5Z"},
    "early": {"timestamp": "2018-06-08T23:59:59Z"},
}
# Lines that are malformed or not rows whatever the seq: bad UTF-8, two
# halves that join into one valid value, and blank lines.
_RAW_LINES = {"bad_utf8": [b'{"kind": "\xff"}'], "split": [b'{"a":[{}', b'{}]}'],
              "blank": [b""], "spaces": [b"  \t"]}
# Kinds that repeat the last seq, so that the line is not increasing.
_STALE = {"stale_transfer": "transfer", "stale_play": "play"}


def _trace_bytes(kinds, crlf, last_newline):
    """The trace of one line per kind, seqs increasing but for _STALE kinds;
    line i ends in CRLF where crlf[i % len(crlf)], and the last line ends in
    a newline only when last_newline."""
    lines, seq = [], 0
    for kind in kinds:
        if kind in _RAW_LINES:
            lines.extend(_RAW_LINES[kind])
            continue
        if kind not in _STALE:
            seq += 1
        lines.append(_action_line(seq, **_LINE_KINDS[_STALE.get(kind, kind)]).encode())
    ends = [b"\r\n" if crlf[i % len(crlf)] else b"\n" for i in range(len(lines))]
    if not last_newline:
        ends[-1] = b""
    return b"".join(line + end for line, end in zip(lines, ends))


def _table_columns(table, offsets=True):
    """Every column of an Actions table as (dtype, values), and its names and
    auth list (by repr, in which a NaN equals a NaN)."""
    columns = [table.seq, table.us, table.kind, table.contract, table.action, table.actor,
               table.notified, *table.transfers] + ([table.offset] * offsets)
    return (table.names, [(c.dtype.str, c.tolist()) for c in columns], repr(table.auth))


# Enough rows that a few malformed lines stay under the 1% gate.
_PREFIX = [kind for _ in range(60) for kind in _LINE_KINDS]


@settings(deadline=None, max_examples=60)
@given(st.lists(st.sampled_from(sorted(_LINE_KINDS) + sorted(_RAW_LINES) + sorted(_STALE)),
                max_size=14),
       st.lists(st.booleans(), min_size=1, max_size=5), st.booleans())
@example(["split", "stale_transfer", "bad_utf8", "late", "blank", "huge", "split"],
         [True, False], False)
def test_table_is_the_same_at_every_chunk_size(kinds, crlf, last_newline):
    data = _trace_bytes(_PREFIX + kinds, crlf, last_newline)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "t.ndjson"
        path.write_bytes(data)
        parses = {}
        for chunk in (1, 7, 65_536):
            try:
                parses[chunk] = parse_action_trace(path, _window(), chunk=chunk)
            except IngestError as exc:
                parses[chunk] = str(exc)
        try:
            oracle = oracle_parse_action_trace(path, _window())
        except IngestError as exc:
            assert set(parses.values()) == {str(exc)}
            return
        assert not [p for p in parses.values() if isinstance(p, str)]
        tables = {chunk: _table_columns(p.records.table) for chunk, p in parses.items()}
        assert tables[1] == tables[7] == tables[65_536]
        assert ({(p.dropped_out_of_window, tuple(p.diagnostics)) for p in parses.values()}
                == {(oracle.dropped_out_of_window, tuple(oracle.diagnostics))})
        result = parses[7]
        assert repr(list(result.records)) == repr(oracle.records)
    # a list of the same records converts to the same table, without lines
    assert (_table_columns(Actions.from_records(oracle.records), offsets=False)
            == _table_columns(result.records.table, offsets=False))


def test_records_view_reads_each_line_again(tmp_path):
    path = tmp_path / "t.ndjson"
    lines = [_action_line(seq, **_LINE_KINDS[kind]) for seq, kind in
             enumerate(("transfer", "play", "updateauth", "notice"), start=1)]
    path.write_bytes("\r\n".join(lines).encode())
    records = parse_action_trace(path, _window()).records
    assert len(records) == 4
    assert records == [decode_action(json.loads(line)) for line in lines]
    assert records[-1].notified == "gamehouse" and records[1:3][0].action_name == "play"
    assert records.by_seq([3, 99, 1]) == {1: records[0], 3: records[2]}

    # a line rewritten in place to another seq is an error, not another record
    path.write_bytes(path.read_bytes().replace(b'"global_seq": 2,', b'"global_seq": 7,'))
    assert records[0] == decode_action(json.loads(lines[0]))
    with pytest.raises(IngestError, match="no longer holds global_seq 2"):
        records[1]
    with pytest.raises(IngestError, match="no longer holds global_seq 2"):
        list(records)
    path.write_bytes(b"")
    with pytest.raises(IngestError, match="no longer holds global_seq 1"):
        records[0]
    path.unlink()
    with pytest.raises(IngestError, match="cannot read trace .* again"):
        records[0]


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
def test_records_of_a_pipe_cannot_be_read_again(tmp_path):
    fifo = tmp_path / "t.fifo"
    os.mkfifo(fifo)
    data = (_action_line(1) + "\n").encode()
    writer = threading.Thread(target=fifo.write_bytes, args=(data,), daemon=True)
    writer.start()
    result = parse_action_trace(fifo, _window())
    writer.join(timeout=30)
    assert len(result.records) == 1 and result.records.table.seq.tolist() == [1]
    assert len(extract_transfers(result.records)) == 1  # the table needs no second read
    with pytest.raises(IngestError, match="not a regular file"):
        result.records[0]
