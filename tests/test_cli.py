import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from eosforensics import attacks, botnet, cli, graphs, metrics, model, permissions, synthgen
from eosforensics.cli import EXIT_ERROR, EXIT_FINDINGS, EXIT_OK, main


@pytest.fixture(scope="module")
def files(scenario):
    out, _ = scenario
    return {
        "trace": str(out / "trace.ndjson"),
        "snapshot": str(out / "snapshot.ndjson"),
        "dapps": str(out / "dapps.csv"),
        "incentives": str(out / "incentives.csv"),
        "labels": str(out / "labels.csv"),
    }


def _common(files, out, days="30"):
    return ["--trace", files["trace"], "--snapshot", files["snapshot"],
            "--days", days, "--out", str(out)]


def _tree_hash(path):
    digest = hashlib.sha256()
    for f in sorted(Path(path).rglob("*")):
        if f.is_file():
            digest.update(str(f.relative_to(path)).encode())
            digest.update(f.read_bytes())
    return digest.hexdigest()


def test_ingest(files, tmp_path, capsys):
    code = main(["ingest"] + _common(files, tmp_path))
    assert code == EXIT_OK
    summary = json.loads((tmp_path / "ingest.json").read_text())
    assert summary["malformed_lines"] == 0
    assert "genuine transfers" in capsys.readouterr().out


HOSTILE_LINES = {
    "deep_nesting": b"[" * 200_000,
    "invalid_utf8": b'{"name": "\xff"}',
}


@pytest.mark.parametrize("case", sorted(HOSTILE_LINES))
def test_ingest_hostile_trace_line_is_diagnostic(files, tmp_path, case):
    lines = Path(files["trace"]).read_bytes().splitlines()[:199]
    trace = tmp_path / "trace.ndjson"
    trace.write_bytes(b"\n".join(lines + [HOSTILE_LINES[case]]) + b"\n")
    out = tmp_path / "out"
    code = main(["ingest", "--trace", str(trace), "--snapshot", files["snapshot"],
                 "--days", "30", "--out", str(out)])
    assert code == EXIT_OK
    diagnostics = [json.loads(l) for l in
                   (out / "ingest_diagnostics.ndjson").read_text().splitlines()]
    assert [d["line"] for d in diagnostics] == [200]


@pytest.mark.parametrize("case", sorted(HOSTILE_LINES))
def test_ingest_hostile_snapshot_line_is_error(files, tmp_path, capsys, case):
    good = Path(files["snapshot"]).read_bytes()
    snapshot = tmp_path / "snapshot.ndjson"
    snapshot.write_bytes(good + HOSTILE_LINES[case] + b"\n")
    code = main(["ingest", "--trace", files["trace"], "--snapshot", str(snapshot),
                 "--days", "30", "--out", str(tmp_path / "out")])
    assert code == EXIT_ERROR
    lineno = good.count(b"\n") + 1
    assert f"snapshot line {lineno}:" in capsys.readouterr().err


def test_graph_build(files, tmp_path):
    code = main(["graph", "build"] + _common(files, tmp_path))
    assert code == EXIT_OK
    summary = json.loads((tmp_path / "graphs.json").read_text())
    assert summary["emfg"]["nodes"] > 0
    assert (tmp_path / "emfg_edges.csv").exists()
    assert (tmp_path / "silent_accounts.txt").exists()


def test_metrics_all_graphs(files, tmp_path):
    for graph in ("emfg", "eacg", "ecig"):
        code = main(["metrics"] + _common(files, tmp_path) + ["--graph", graph])
        assert code == EXIT_OK
        obj = json.loads((tmp_path / f"metrics_{graph}.json").read_text())
        assert obj["node_count"] > 0


# SHA-256 of metrics_<g>.json and pagerank_<g>.csv on the fixture scenario,
# as written when every metrics run parsed both the trace and the snapshot.
METRICS_DIGESTS = {
    "emfg": ("1a50bb1d4d81468050a9c29f80701019edb52cf173780d05b71a7e552cd2db16",
             "19a91e8a0c429d0f94e54bb439efbde8697e8b8ca7e32e1d8ee684124c3aa901"),
    "eacg": ("9b95a1b011b7c7136a254a76c19c5e62a800d19097a4c5cc3ff9d92ac2355e14",
             "6755d19696cf1664bd4409afcd0433e1c5eb0d9090c6104ad399a96f6eb8b590"),
    "ecig": ("fea2a8b6fb0c6e378b5e5617b46eac3a0bf63d54ea00b6ecebce547ea7ff7be2",
             "3fa4034352e19d10fbd4d5cd8278cd513b710c900a44164be42f73ed935308ea"),
}


@pytest.mark.parametrize("graph, unread", [("emfg", "parse_account_snapshot"),
                                           ("eacg", "parse_action_trace"),
                                           ("ecig", "parse_account_snapshot")])
def test_metrics_reads_only_its_graphs_input(files, tmp_path, monkeypatch, graph, unread):
    def unexpected(*args):
        raise AssertionError(f"metrics --graph {graph} called {unread}")

    monkeypatch.setattr(cli, unread, unexpected)
    assert main(["metrics"] + _common(files, tmp_path) + ["--graph", graph]) == EXIT_OK
    digests = tuple(hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
                    for name in (f"metrics_{graph}.json", f"pagerank_{graph}.csv"))
    assert digests == METRICS_DIGESTS[graph]


def test_bots_detect_finds_planted(files, tmp_path, scenario):
    code = main(
        ["bots", "detect"] + _common(files, tmp_path)
        + ["--dapps", files["dapps"], "--incentives", files["incentives"],
           "--labels", files["labels"]]
    )
    assert code == EXIT_FINDINGS
    _, manifest = scenario
    verdicts = [json.loads(l) for l in
                (tmp_path / "bot_verdicts.ndjson").read_text().splitlines()]
    flagged = {v["account"] for v in verdicts}
    planted = {m for c in manifest["bot_communities"] for m in c["members"]}
    assert planted <= flagged


def test_bots_classify(files, tmp_path):
    code = main(
        ["bots", "classify"] + _common(files, tmp_path)
        + ["--dapps", files["dapps"], "--incentives", files["incentives"],
           "--labels", files["labels"]]
    )
    assert code in (EXIT_OK, EXIT_FINDINGS)
    training = json.loads((tmp_path / "bot_training.json").read_text())
    assert training["test_accuracy"] >= 0.95
    assert (tmp_path / "bot_model.json").exists()


def test_bots_classify_without_labels_errors(files, tmp_path):
    code = main(["bots", "classify"] + _common(files, tmp_path))
    assert code == EXIT_ERROR



def test_bots_classify_two_labeled_accounts_errors(files, tmp_path, capsys):
    # one bot and one normal account: both go to training, so the held-out
    # split would be empty and its accuracy NaN
    rows = Path(files["labels"]).read_text().splitlines()
    bot = next(r for r in rows[1:] if ",bot," in r)
    normal = next(r for r in rows[1:] if ",normal," in r)
    labels = tmp_path / "labels.csv"
    labels.write_text("\n".join([rows[0], bot, normal]) + "\n")
    out = tmp_path / "out"
    code = main(["bots", "classify"] + _common(files, out) + ["--labels", str(labels)])
    assert code == EXIT_ERROR
    assert "error: 2 labeled rows leave the held-out test split empty" in capsys.readouterr().err
    assert not (out / "bot_training.json").exists()

def test_perms_audit(files, tmp_path, scenario):
    code = main(["perms", "audit"] + _common(files, tmp_path))
    assert code == EXIT_FINDINGS
    _, manifest = scenario
    summary = json.loads((tmp_path / "perm_summary.json").read_text())
    assert summary["by_severity"]["misuse"] == len(
        manifest["misuse_grants"]["misuse"]
    )


def test_attacks_scan_with_bundles(files, tmp_path, scenario):
    code = main(
        ["attacks", "scan", "--trace", files["trace"], "--days", "30",
         "--out", str(tmp_path), "--dapps", files["dapps"], "--bundles"]
    )
    assert code == EXIT_FINDINGS
    _, manifest = scenario
    findings = [json.loads(l) for l in
                (tmp_path / "attack_findings.ndjson").read_text().splitlines()]
    assert len(findings) == len(manifest["attacks"])
    bundles = list((tmp_path / "bundles").iterdir())
    assert len(bundles) == len(findings)
    for bundle in bundles:
        assert (bundle / "manifest.json").exists()


def test_attacks_scan_replaces_the_last_bundles_whole(files, tmp_path):
    argv = ["attacks", "scan", "--trace", files["trace"], "--days", "30",
            "--out", str(tmp_path), "--dapps", files["dapps"]]

    def written():
        findings = [json.loads(l) for l in
                    (tmp_path / "attack_findings.ndjson").read_text().splitlines()]
        names = sorted(p.name for p in (tmp_path / "bundles").iterdir())
        return [f"{i:04d}-{f['kind']}-{f['attacker']}" for i, f in enumerate(findings)], names

    assert main(argv + ["--bundles"]) == EXIT_FINDINGS
    expected, names = written()
    assert len(names) == 3 and names == expected
    # The profit scan flags nothing above 100,000 EOS, so a bundle goes.
    assert main(argv + ["--bundles", "--w1", "100000"]) == EXIT_FINDINGS
    expected, names = written()
    assert len(names) < 3 and names == expected
    # Without --bundles the last bundles are left as they are.
    assert main(argv) == EXIT_FINDINGS
    assert written()[1] == names


def _tiny_inputs(tmp_path, trace_lines, bob_key=("EOSKEYB", 1)):
    """A snapshot of alice and bob, who hold different keys, and a trace of
    `trace_lines` (action objects without global_seq). Returns the flags
    that name them."""
    snapshot = tmp_path / "snapshot.ndjson"
    snapshot.write_text("".join(json.dumps({
        "name": name, "creator": None, "created_at": "2018-06-09T00:00:00Z",
        "permissions": {"active": {"threshold": 1, "key_weights": [key]}},
    }) + "\n" for name, key in (("alice", ["EOSKEYA", 1]), ("bob", bob_key))))
    trace = tmp_path / "trace.ndjson"
    trace.write_text("".join(json.dumps({"global_seq": seq, **line}) + "\n"
                             for seq, line in enumerate(trace_lines, start=1)))
    return ["--trace", str(trace), "--snapshot", str(snapshot), "--days", "30",
            "--out", str(tmp_path / "out")]


def _action(contract, action_name, payload):
    return {"tx_id": "aa", "timestamp": "2018-06-10T12:00:00Z",
            "executing_contract": contract, "action_name": action_name,
            "actor": "alice", "kind": "external", "payload": payload}


def _grant(contract="eosio", **over):
    """alice@active granting bob@eosio.code, with `over` in the payload."""
    return _action(contract, "updateauth", {
        "account": "alice", "permission": "active", "parent": "owner", "threshold": 1,
        "key_weights": [["EOSKEYA", 1]], "account_weights": [["bob", "eosio.code", 1]],
        **over})


# 198 transfers keep one bad line of 200 under the 1% malformed-line gate.
_FILLER = [_action("eosio.token", "transfer",
                   {"from": "alice", "to": "bob", "quantity": "1.0000 EOS"})] * 198


def test_attacks_scan_without_findings_empties_bundles(tmp_path):
    _tiny_inputs(tmp_path, [_action("eosio.token", "transfer", {
        "from": "alice", "to": "bob", "quantity": "1.0000 EOS"})])
    out = tmp_path / "out"
    (out / "bundles" / "0000-fake_transfer-alice").mkdir(parents=True)
    assert main(["attacks", "scan", "--trace", str(tmp_path / "trace.ndjson"), "--days", "30",
                 "--out", str(out), "--bundles"]) == EXIT_OK
    assert list((out / "bundles").iterdir()) == []


@pytest.mark.parametrize("contract,code,grants", [("eosio", EXIT_FINDINGS, 1),
                                                  ("evilcontract", EXIT_OK, 0)])
def test_perms_audit_replays_only_system_updateauth(tmp_path, contract, code, grants):
    assert main(["perms", "audit"] + _tiny_inputs(tmp_path, [_grant(contract)])) == code
    summary = json.loads((tmp_path / "out" / "perm_summary.json").read_text())
    assert summary["grants"] == grants


BAD_GRANTS = {
    "list_grantee": {"account_weights": [[["bob"], "eosio.code", 1]]},
    "number_account": {"account": 5},
}


@pytest.mark.parametrize("case", sorted(BAD_GRANTS))
def test_perms_audit_bad_authority_line_is_diagnostic(tmp_path, case):
    flags = _tiny_inputs(tmp_path, _FILLER + [_grant(), _grant(**BAD_GRANTS[case])])
    assert main(["perms", "audit"] + flags) == EXIT_FINDINGS
    summary = json.loads((tmp_path / "out" / "perm_summary.json").read_text())
    assert summary["by_severity"]["misuse"] == 1
    assert main(["ingest"] + flags) == EXIT_OK
    diagnostics = (tmp_path / "out" / "ingest_diagnostics.ndjson").read_text()
    assert [json.loads(l)["line"] for l in diagnostics.splitlines()] == [200]


def test_perms_audit_bad_snapshot_key_is_error(tmp_path, capsys):
    flags = _tiny_inputs(tmp_path, [_grant()], bob_key=[["EOSKEYB"], 1])
    assert main(["perms", "audit"] + flags) == EXIT_ERROR
    assert "error: snapshot line 2: bad public key" in capsys.readouterr().err


BAD_REGISTRIES = {
    "dapps_header": ("dapps", b"acct,dapp\ngamehouse,dice\n",
                     "header lacks column(s) account, category"),
    "dapps_short_row": ("dapps", b"account,dapp,category\ngamehouse,dice\n",
                        "a row has fewer fields than the header"),
    "labels_role": ("labels", b"community_id,role,account\nc1,botnet,alice\n",
                    "role 'botnet' is neither bot nor normal"),
    "incentives_not_utf8": ("incentives", b"account\n\xffgame\n",
                            "'utf-8' codec can't decode"),
}


@pytest.mark.parametrize("case", sorted(BAD_REGISTRIES))
def test_bad_registry_csv_is_error(tmp_path, capsys, case):
    flag, data, message = BAD_REGISTRIES[case]
    path = tmp_path / f"{flag}.csv"
    path.write_bytes(data)
    flags = _tiny_inputs(tmp_path, [_grant()])
    if flag == "dapps":  # attacks scan reads no snapshot
        argv = ["attacks", "scan"] + flags[:2] + flags[4:]
    else:
        argv = ["bots", "detect"] + flags
    assert main(argv + [f"--{flag}", str(path)]) == EXIT_ERROR
    assert f"error: {path}: {message}" in capsys.readouterr().err


ROLLBACK_LINES = {
    "broken_json": "{broken",
    "missing_actor": json.dumps({"tx_id": "aa", "timestamp": "2018-06-10T00:00:00Z"}),
}


@pytest.mark.parametrize("case", sorted(ROLLBACK_LINES))
def test_attacks_scan_bad_rollback_line_is_error(files, tmp_path, capsys, case):
    log = tmp_path / "rollback.ndjson"
    good = json.dumps({"tx_id": "ab", "actor": "alice",
                       "timestamp": "2018-06-10T00:00:00Z"})
    log.write_text(good + "\n" + ROLLBACK_LINES[case] + "\n")
    code = main(["attacks", "scan", "--trace", files["trace"], "--days", "30",
                 "--out", str(tmp_path / "out"), "--dapps", files["dapps"],
                 "--rollback-log", str(log)])
    assert code == EXIT_ERROR
    assert "rollback log line 2:" in capsys.readouterr().err


BAD_FLAGS = {
    "days_zero": ("ingest", ["--days", "0"]),
    "days_past_year_9999": ("ingest", ["--window-start", "9999-12-30", "--days", "5"]),
    "month_13": ("ingest", ["--window-start", "2018-13-01"]),
    "w2_below_one": ("attacks", ["--w2", "0.5"]),
    "w2_nan": ("attacks", ["--w2", "nan"]),
    "w1_nan": ("attacks", ["--w1", "nan"]),
    "rate_inf": ("synth", ["--rate", "inf"]),
    "rate_nan": ("synth", ["--rate", "nan"]),
    "rate_negative": ("synth", ["--rate", "-1"]),
    "synth_days_past_year_9999": ("synth", ["--days", "3000000"]),
    "classify_seed_negative": ("classify", ["--seed", "-1"]),
    "run_seed_negative": ("run", ["--seed", "-1"]),
    "min_children_negative": ("detect", ["--min-children", "-1"]),
    "users_negative": ("synth", ["--users", "-1"]),
    "services_negative": ("synth", ["--services", "-1"]),
    "silent_negative": ("synth", ["--silent", "-1"]),
    "deep_chain_negative": ("synth", ["--deep-chain", "-1"]),
    "misuse_count_negative": ("synth", ["--misuse", "misuse:-1"]),
    "bots_size_zero": ("synth", ["--bots", "click_fraud:0"]),
    "bots_third_field_not_cal": ("synth", ["--bots", "click_fraud:31:x"]),
}


def _exit_code(argv):
    try:
        return main(argv)
    except SystemExit as exc:  # argparse rejects a flag value by exiting
        return exc.code


@pytest.mark.parametrize("case", sorted(BAD_FLAGS))
def test_bad_flag_value_is_error(files, tmp_path, capsys, case):
    command, flags = BAD_FLAGS[case]
    inputs = ["--trace", files["trace"], "--snapshot", files["snapshot"]]
    argv = {
        "ingest": ["ingest", *inputs],
        "attacks": ["attacks", "scan", "--trace", files["trace"], "--dapps", files["dapps"]],
        "detect": ["bots", "detect", *inputs, *_registry(files)],
        "classify": ["bots", "classify", *inputs, *_registry(files)],
        "run": ["run", *inputs, *_registry(files)],
        "synth": ["synth", "generate"],
    }[command]
    code = _exit_code(argv + ["--out", str(tmp_path / "out")] + flags)
    assert code == EXIT_ERROR
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert "error: " in err.splitlines()[-1]


def test_bad_env_default_is_error(files, tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("EOSFOR_DAYS", "x")
    code = _exit_code(["ingest", "--trace", files["trace"], "--snapshot",
                       files["snapshot"], "--out", str(tmp_path)])
    assert code == EXIT_ERROR
    assert "argument --days" in capsys.readouterr().err


def test_attacks_scan_missing_trace_is_error(tmp_path):
    code = main(["attacks", "scan", "--trace", str(tmp_path / "none.ndjson"),
                 "--out", str(tmp_path)])
    assert code == EXIT_ERROR


def _transfer_scan(tmp_path, quantities, flags=()):
    """Exit code of `attacks scan` on a trace of genuine transfers from the
    DApp `gamehouse` to alice, one per quantity string, one hour apart."""
    trace = tmp_path / "trace.ndjson"
    trace.write_text("".join(json.dumps({
        "global_seq": seq, "tx_id": f"{seq:016x}",
        "timestamp": f"2018-06-10T{seq:02d}:00:00Z",
        "executing_contract": "eosio.token", "action_name": "transfer",
        "actor": "gamehouse", "kind": "external",
        "payload": {"from": "gamehouse", "to": "alice", "quantity": quantity,
                    "memo": ""},
    }) + "\n" for seq, quantity in enumerate(quantities, start=1)))
    dapps = tmp_path / "dapps.csv"
    dapps.write_text("account,dapp,category\ngamehouse,Game,gambling\n")
    return main(["attacks", "scan", "--trace", str(trace), "--dapps", str(dapps),
                 "--days", "30", "--out", str(tmp_path / "out"), *flags])


@pytest.mark.parametrize("w1", ["inf", "1e30"])
def test_attacks_scan_w1_beyond_int64_flags_nothing(tmp_path, capsys, w1):
    assert _transfer_scan(tmp_path, ["500.0000 EOS"]) == EXIT_FINDINGS
    assert "1 predictable-state" in capsys.readouterr().out
    assert _transfer_scan(tmp_path, ["500.0000 EOS"], ["--w1", w1]) == EXIT_OK
    assert "0 predictable-state" in capsys.readouterr().out


def test_attacks_scan_volume_beyond_int64_is_error(tmp_path, capsys):
    code = _transfer_scan(tmp_path, ["500000000000000.0000 EOS"] * 2)
    assert code == EXIT_ERROR
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.splitlines()[-1].startswith("error: transfer volume exceeds 2**63 - 1")


@pytest.mark.parametrize("argv", [
    ["synth", "generate", "--days", "0"],
    ["synth", "generate", "--days", "-3"],
    ["metrics", "--top", "-3"],
    ["metrics", "--top", "0"],
])
def test_non_positive_count_flag_is_error(files, tmp_path, capsys, argv):
    flag = argv[-2]
    if argv[0] == "metrics":
        argv = argv + _common(files, tmp_path)
    code = _exit_code(argv + ["--out", str(tmp_path / "x")])
    assert code == EXIT_ERROR
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert f"error: argument {flag}: expected a positive integer" in err
    assert not (tmp_path / "x" / "pagerank_emfg.csv").exists()


def test_ingest_volume_beyond_int64_is_error(tmp_path, capsys):
    big = _action("eosio.token", "transfer", {"from": "alice", "to": "bob",
                                              "quantity": "500000000000000.0000 EOS"})
    code = main(["ingest"] + _tiny_inputs(tmp_path, [big, big]))
    assert code == EXIT_ERROR
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.splitlines()[-1].startswith("error: transfer volume exceeds 2**63 - 1")


def test_ingest_total_without_genuine_transfers(tmp_path):
    fake = _action("evil.token", "transfer", {"from": "alice", "to": "bob",
                                              "quantity": "1.0000 EOS"})
    assert main(["ingest"] + _tiny_inputs(tmp_path, [fake])) == EXIT_OK
    summary = json.loads((tmp_path / "out" / "ingest.json").read_text())
    assert (summary["genuine_transfers"], summary["transfer_total"]) == (0, "0.0000")


def test_synth_generate_deterministic(tmp_path):
    args = ["synth", "generate", "--seed", "7", "--days", "15", "--users", "20",
            "--services", "2", "--bots", "click_fraud:32:cal",
            "--attacks", "fake_transfer:100:5", "--misuse", "misuse:2,benign:1"]
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(args + ["--out", str(a)]) == EXIT_OK
    assert main(args + ["--out", str(b)]) == EXIT_OK
    assert _tree_hash(a) == _tree_hash(b)


@pytest.mark.parametrize("extra", [[], ["--silent", "1", "--misuse", "misuse:1",
                                      "--bots", "click_fraud:31"]])
def test_synth_generate_one_day_stays_in_its_window(tmp_path, extra):
    # every account is created, and every action falls, on the one day, so
    # ingest drops nothing and no account predates its creator
    gen = tmp_path / "gen"
    assert main(["synth", "generate", "--out", str(gen), "--days", "1", "--users", "5",
                 "--services", "1", "--seed", "4", *extra]) == EXIT_OK
    out = tmp_path / "out"
    assert main(["ingest", "--trace", str(gen / "trace.ndjson"), "--snapshot",
                 str(gen / "snapshot.ndjson"), "--days", "1", "--out", str(out)]) == EXIT_OK
    summary = json.loads((out / "ingest.json").read_text())
    manifest = json.loads((gen / "manifest.json").read_text())
    assert (summary["dropped_out_of_window"], summary["snapshot_warnings"]) == (0, [])
    assert summary["actions"] == manifest["action_count"]
    if extra:
        assert main(["perms", "audit", "--trace", str(gen / "trace.ndjson"), "--snapshot",
                     str(gen / "snapshot.ndjson"), "--days", "1",
                     "--out", str(out)]) == EXIT_FINDINGS
        assert any(a.startswith("idle") for a in manifest["silent_accounts"])


BAD_SPECS = {
    "bots_one_field": ["--bots", "justonefield"],
    "bots_size_not_int": ["--bots", "click_fraud:x"],
    "bots_unknown_category": ["--bots", "nosuchcategory:32"],
    "attacks_profit_not_int": ["--attacks", "fake_transfer:x:1"],
    "misuse_no_count": ["--misuse", "foo"],
    "misuse_unknown_kind": ["--misuse", "foo:1"],
}


@pytest.mark.parametrize("case", sorted(BAD_SPECS))
def test_synth_generate_bad_spec(tmp_path, capsys, case):
    code = _exit_code(["synth", "generate", "--out", str(tmp_path / "x"), "--days", "5",
                       "--users", "5"] + BAD_SPECS[case])
    assert code == EXIT_ERROR
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert "error: " in err.splitlines()[-1]


def test_stage_rerun_byte_identical(files, tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert main(["graph", "build"] + _common(files, out)) == EXIT_OK
        main(["metrics"] + _common(files, out))
        main(["perms", "audit"] + _common(files, out))
    assert _tree_hash(a) == _tree_hash(b)


def test_threads_do_not_change_outputs(files, tmp_path):
    a, b = tmp_path / "t1", tmp_path / "t8"
    main(["metrics"] + _common(files, a) + ["--threads", "1"])
    main(["metrics"] + _common(files, b) + ["--threads", "8"])
    assert _tree_hash(a) == _tree_hash(b)


def test_env_override(files, tmp_path, monkeypatch):
    monkeypatch.setenv("EOSFOR_MIN_CHILDREN", "5000")
    from eosforensics.cli import build_parser

    args = build_parser().parse_args(
        ["bots", "detect"] + _common(files, tmp_path)
    )
    assert args.min_children == 5000


def test_one_parser_per_environment(files, tmp_path, monkeypatch):
    builds = []
    build = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: builds.append(1) or build())
    cli._parser.cache_clear()
    for argv in _pipeline(files, tmp_path):
        assert main(argv) in (EXIT_OK, EXIT_FINDINGS), argv
    assert len(builds) == 1
    # an EOSFOR_* variable set between calls builds a parser that reads it
    monkeypatch.setenv("EOSFOR_MIN_CHILDREN", "5000")
    assert main(["bots", "detect"] + _common(files, tmp_path) + _registry(files)) == EXIT_OK
    assert len(builds) == 2
    assert json.loads((tmp_path / "bot_communities.json").read_text()) == []


def test_report_aggregates(files, tmp_path, capsys):
    main(["metrics"] + _common(files, tmp_path))
    main(["perms", "audit"] + _common(files, tmp_path))
    code = main(["report", "--out", str(tmp_path)])
    assert code == EXIT_OK
    text = (tmp_path / "report.txt").read_text()
    assert "Graph metrics" in text
    assert "Permission audit" in text
    assert (tmp_path / "report_metrics.csv").exists()


def test_report_without_outputs_is_error(tmp_path):
    assert main(["report", "--out", str(tmp_path / "empty")]) == EXIT_ERROR


REPORT_INPUTS = {
    "truncated_verdict_line": (
        "bot_verdicts.ndjson",
        '{"account": "alice", "category": "other"}\n{"account": "bob", "categ\n', "line 2:"),
    "verdict_without_category": ("bot_verdicts.ndjson", '{"account": "alice"}\n',
                                 "line 1: KeyError('category')"),
    "finding_with_bad_profit": (
        "attack_findings.ndjson",
        json.dumps(dict.fromkeys(("kind", "attacker", "victim", "profit",
                                  "window_start", "window_end"), "x")) + "\n",
        "line 1: InvalidOperation"),
    "truncated_metrics": ("metrics_emfg.json", '{"node_count": 1', "Expecting"),
    "mistyped_perm_summary": ("perm_summary.json",
                              '{"by_severity": 3, "distinct_pairs": 0}\n',
                              "by_severity is missing or mistyped"),
}


@pytest.mark.parametrize("case", sorted(REPORT_INPUTS))
def test_report_corrupt_stage_output_is_error(tmp_path, capsys, case):
    name, text, message = REPORT_INPUTS[case]
    (tmp_path / name).write_text(text)
    assert main(["report", "--out", str(tmp_path)]) == EXIT_ERROR
    err = capsys.readouterr().err
    assert f"error: {tmp_path / name}" in err and message in err
    assert not (tmp_path / "report.txt").exists()


def test_report_writes_nothing_when_a_later_input_is_corrupt(tmp_path):
    (tmp_path / "metrics_emfg.json").write_text(
        json.dumps(dict.fromkeys(cli.METRIC_FIELDS, 1)))
    (tmp_path / "bot_verdicts.ndjson").write_text('{"account": "alice"}\n')
    assert main(["report", "--out", str(tmp_path)]) == EXIT_ERROR
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "bot_verdicts.ndjson", "metrics_emfg.json"]


def _digests(root, patterns):
    return {str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
            for pattern in patterns for p in sorted(root.rglob(pattern))}



def _registry(files):
    return ["--dapps", files["dapps"], "--incentives", files["incentives"],
            "--labels", files["labels"]]


def _pipeline(files, out, days="30"):
    """argv of the ten commands `run` chains, in its order."""
    common, registry = _common(files, out, days), _registry(files)
    return [["ingest"] + common, ["graph", "build"] + common,
            *(["metrics", "--graph", g] + common for g in ("emfg", "eacg", "ecig")),
            ["bots", "detect"] + common + registry,
            ["bots", "classify"] + common + registry,
            ["perms", "audit"] + common,
            ["attacks", "scan", "--trace", files["trace"], "--days", days,
             "--out", str(out), "--bundles"] + registry,
            ["report", "--out", str(out)]]


# SHA-256 of every stage file (CSV, NDJSON, JSON and text) of one pipeline
# pass over the fixture scenario, with evidence bundles, and of the `synth
# generate` trace and snapshot of a small config: a writer, a record's JSON
# form or a detector that moves one byte of any of them fails here.
STAGE_DIGESTS = {
    "attack_findings.ndjson":
        "5d16fb00b29ebb3a1271b02f8e4e7ff8c7f3682723e182b5d80d3b7152e71002",
    "attack_notes.json":
        "37517e5f3dc66819f61f5a7bb8ace1921282415f10551d2defa5c3eb0985b570",
    "bot_classified.ndjson":
        "06f0c163ea62f0fa659aa8ad9e4025c6c3fb3394d1154fafb35c21d867198b0f",
    "bot_communities.json":
        "7dc1ee6296cedcd02a9a09e0ec0bd8595ba5d2fdd2423e8e8b812801cc9d8a1d",
    "bot_model.json":
        "cf67158c54704703f109af5dc9749b47417c81551a0112b887c4901fd63ae5b6",
    "bot_pubkey_groups.json":
        "0dc757ce909ef60b59ce51e68fa48e6a4f5c9a9c1fbf687d8b0839bc6a71faa0",
    "bot_threshold.json":
        "ccb0b6d1d7991a46ff697ffb724e1ae94e70d45116e62f62802041bc3ee435d0",
    "bot_training.json":
        "c525b107e17eefe5f9e0ed6465fd8c6d6a55796a1d94cd81846617fc41c1bafb",
    "bot_verdicts.ndjson":
        "80c5079ac0603436034e66d764ebdc87c6f426d04387fdef1769c38b81d69be3",
    "bundles/0000-fake_transfer-atkaaaaaaaaa/actions.ndjson":
        "c8981f706a768167e48363b592653c7b17679e10739d9f19664444e4971a590e",
    "bundles/0000-fake_transfer-atkaaaaaaaaa/finding.json":
        "63166833e99ff5795d3bc47d09e6607e8f21671437fd444760bebbc830661146",
    "bundles/0000-fake_transfer-atkaaaaaaaaa/flow.csv":
        "6814502c1d4ca420333743256a4a8ce579454e083fb07683289cad0f51956665",
    "bundles/0000-fake_transfer-atkaaaaaaaaa/manifest.json":
        "d14d6bbe85ca3a5f534d52a1df1eaaac9d820af28ea36e035a5eff4189ac892c",
    "bundles/0001-fake_notice-atkaaaaaaaab/actions.ndjson":
        "00d100b23718a8476bd5d4292e9bf4d230d86f29021595eddc5ee0022832fcde",
    "bundles/0001-fake_notice-atkaaaaaaaab/finding.json":
        "228e6d0397f3bef20fb1d1cc928782a9a70f060b09323909ab4a6263d9c615e0",
    "bundles/0001-fake_notice-atkaaaaaaaab/flow.csv":
        "b8ef7954d0befbe43396f50b812e1dff7aceb47642e48c8219f128929d0a1197",
    "bundles/0001-fake_notice-atkaaaaaaaab/manifest.json":
        "cc5fa27f57dc0c57a712ef61f6c1d41d0d3b80a46989d168264b06ad385dcdb6",
    "bundles/0002-predictable_state-atkaaaaaaaac/actions.ndjson":
        "6f05bf2e90c51215a5c0c9206618667c354c96833bed584178f43f9ba3b7db52",
    "bundles/0002-predictable_state-atkaaaaaaaac/finding.json":
        "af4aea25926c7920f22f383b8197474492e8802eca1c2972f294a2ab963575a5",
    "bundles/0002-predictable_state-atkaaaaaaaac/flow.csv":
        "17a1796beeb9d4c64bb4efaaa94dbe9f97af9c008bab709c7abc9207f53f6fd3",
    "bundles/0002-predictable_state-atkaaaaaaaac/manifest.json":
        "bbfe02f50b0129ebc1bfe7a9d5253b921ecc6e912f0a86f9c24906a51c58b837",
    "eacg_edges.csv":
        "8fe577800dd19208da92df091797870794960496d7329f1687393178500ea7f9",
    "eacg_in_degree.csv":
        "636a4a5a063877158ead11ed8df99d5a83a6a92b38671974c2f04b395faaa184",
    "eacg_out_degree.csv":
        "91955a39c8db9a87a05e74cf6ca2d76dd5087e2bfb9beca3eab573d482f56d4a",
    "ecig_edges.csv":
        "71b2b091e4eb1bf6f298cae7bc11d633bb94b873ff0bc4638514d18f1e50f55e",
    "ecig_in_degree.csv":
        "eec9471d76531efb280bf543ef3379cd839b36d921ca1e1cc2b795045ad0226a",
    "ecig_out_degree.csv":
        "2f0a22169c5ecf3e343496a5a9f032424233ba8718e3c5b970a23b365ed7b907",
    "emfg_edges.csv":
        "14d8d0bbefe24b04117071e23b08a8fc687ceee0219f65ad9a3d966ed263f0cb",
    "emfg_in_degree.csv":
        "f353bcd2b31a334e31b227bed435d6250536fa8deb7c23ec6751439c0d25a68b",
    "emfg_out_degree.csv":
        "770c64bfdd65bc76d7d9061537d9855141f8ca578f580f1f5e8b5938af3dfef6",
    "graphs.json":
        "c864b181b5edb657aca2fbe9b37c1031ffe608e0a425fa7abf357d494e711220",
    "ingest.json":
        "5ff2655ccfb7260a601421af01493b34631dba83a760ccca64ff94f316aea31d",
    "ingest_diagnostics.ndjson":
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "metrics_eacg.json":
        "9b95a1b011b7c7136a254a76c19c5e62a800d19097a4c5cc3ff9d92ac2355e14",
    "metrics_ecig.json":
        "fea2a8b6fb0c6e378b5e5617b46eac3a0bf63d54ea00b6ecebce547ea7ff7be2",
    "metrics_emfg.json":
        "1a50bb1d4d81468050a9c29f80701019edb52cf173780d05b71a7e552cd2db16",
    "pagerank_eacg.csv":
        "6755d19696cf1664bd4409afcd0433e1c5eb0d9090c6104ad399a96f6eb8b590",
    "pagerank_ecig.csv":
        "3fa4034352e19d10fbd4d5cd8278cd513b710c900a44164be42f73ed935308ea",
    "pagerank_emfg.csv":
        "19a91e8a0c429d0f94e54bb439efbde8697e8b8ca7e32e1d8ee684124c3aa901",
    "perm_findings.csv":
        "6e951c307fd320c1fd60df8cf67760bb51aba45bb9da6bd7710a9d94a4f6b28e",
    "perm_summary.json":
        "c6c13b8f47deea06029507f187ccb1e8d877878b0f59a8c3dbd97ca3eea8a8d7",
    "report.txt":
        "a96e814685be41d7a90d1266767a89ba42eba285878269fd02a2431a92c3f1fc",
    "report_attacks.csv":
        "d2e20f3ac0dbe41d906a03b6dd14eba5d28c232ff00e9c782039b1315f6d59aa",
    "report_bots.csv":
        "e61617677f00125cca4026ed79d2ccd090ef1f6f861c9d57fcaeeb911e4906ae",
    "report_metrics.csv":
        "f6f57d4fa7f81621dc1a7cf2fb78e9134cbfa20e7b5a8f01269ec57aea6de918",
    "silent_accounts.txt":
        "4bf8a170b785bdf39504ff966645065d054eb4a70d8da4c411c2b6429b818f83",
}
GENERATED_DIGESTS = {
    "snapshot.ndjson":
        "d1b1941c5d5807411e082439595cbd1fbbc647382557d2a95ba0fd2119cfb78d",
    "trace.ndjson":
        "81fc0183b35967db10f78fe6f1e9d33efb2131f83c1b7bc717bbf59842d7c19e",
}
# The trace and snapshot of a tiny config that emits every record kind the
# generator has: all three attacks (with the fake notice and the deferred
# `resolve`), every MisusePlan field (with the revoking updateauth and the
# deleteauth), all five bot categories, silent accounts, a deep chain and
# notification copies.
ALL_KINDS_ARGV = ["--seed", "5", "--days", "6", "--users", "6", "--services", "2",
                  "--bots", "click_fraud:2:cal", "--bots", "bonus_hunter:2",
                  "--bots", "dapp_team:2", "--bots", "account_seller:2:cal",
                  "--bots", "other:2", "--attacks", "fake_transfer:20:2",
                  "--attacks", "fake_notice:20:3", "--attacks", "predictable_state:40:4",
                  "--misuse", "misuse:1,partial:1,benign:1,revoked:1,unrelated:1,deleted:1",
                  "--silent", "2", "--deep-chain", "3"]
ALL_KINDS_DIGESTS = {
    "snapshot.ndjson":
        "6e9ceeb36119849c729c60e153988608bacdff406488c8e033ca8018cad9bdc0",
    "trace.ndjson":
        "f2eb9c9f4b308eead98db426d3d2a3a96d7e5074c5df9a3e2729a131fc9364db",
}


def test_stage_files_are_pinned(files, tmp_path):
    out, gen = tmp_path / "out", tmp_path / "gen"
    for argv in _pipeline(files, out):
        assert main(argv) in (EXIT_OK, EXIT_FINDINGS), argv
    assert _digests(out, ("*.csv", "*.ndjson", "*.json", "*.txt")) == STAGE_DIGESTS
    assert main(["synth", "generate", "--out", str(gen), "--seed", "3", "--days", "10",
                 "--users", "30", "--services", "2", "--bots", "click_fraud:31:cal",
                 "--attacks", "fake_transfer:90:4", "--misuse", "misuse:2,benign:1"]) == EXIT_OK
    assert _digests(gen, ("trace.ndjson", "snapshot.ndjson")) == GENERATED_DIGESTS


def test_every_generated_record_kind_is_pinned(tmp_path):
    assert main(["synth", "generate", "--out", str(tmp_path), *ALL_KINDS_ARGV]) == EXIT_OK
    kinds = {(obj["kind"], obj["action_name"], "notified" in obj)
             for obj in map(json.loads, (tmp_path / "trace.ndjson").read_text().splitlines())}
    assert {("deferred", "resolve", False), ("notification", "transfer", True),
            ("external", "updateauth", False), ("external", "deleteauth", False)} <= kinds
    assert _digests(tmp_path, ("trace.ndjson", "snapshot.ndjson")) == ALL_KINDS_DIGESTS


# ---------------------------------------------------------------------------
# One parse per process: the commands share the last parse of each input,
# keyed by the bytes parsed (and the window, for a trace).


def _count_parses(monkeypatch):
    """{parser name: calls}, counting every call the commands make."""
    calls = {}
    for name in ("parse_action_trace", "parse_account_snapshot"):
        def counted(*args, _name=name, _parse=getattr(cli, name), **kwargs):
            calls[_name] = calls.get(_name, 0) + 1
            return _parse(*args, **kwargs)
        monkeypatch.setattr(cli, name, counted)
    return calls


def test_rewritten_trace_of_same_size_is_parsed_again(tmp_path, monkeypatch):
    calls = _count_parses(monkeypatch)
    send = _action("eosio.token", "transfer", {"from": "alice", "to": "bob",
                                               "quantity": "1.0000 EOS"})
    flags = _tiny_inputs(tmp_path, [send])
    assert main(["ingest"] + flags) == EXIT_OK
    assert main(["ingest"] + flags) == EXIT_OK
    assert calls == {"parse_action_trace": 1, "parse_account_snapshot": 1}

    trace = tmp_path / "trace.ndjson"
    before, stamp = trace.read_bytes(), trace.stat()
    trace.write_bytes(before.replace(b'"1.0000 EOS"', b'"2.0000 EOS"'))
    os.utime(trace, ns=(stamp.st_atime_ns, stamp.st_mtime_ns))
    assert trace.stat().st_size == stamp.st_size
    assert trace.stat().st_mtime_ns == stamp.st_mtime_ns
    assert main(["ingest"] + flags) == EXIT_OK
    summary = json.loads((tmp_path / "out" / "ingest.json").read_text())
    assert summary["transfer_total"] == "2.0000"
    assert calls == {"parse_action_trace": 2, "parse_account_snapshot": 1}


def test_trace_changed_during_parse_is_kept_under_the_bytes_parsed(tmp_path, monkeypatch):
    calls = _count_parses(monkeypatch)
    send = _action("eosio.token", "transfer", {"from": "alice", "to": "bob",
                                               "quantity": "1.0000 EOS"})
    flags = _tiny_inputs(tmp_path, [send])
    trace = tmp_path / "trace.ndjson"
    first = trace.read_bytes()
    second = first.replace(b'"1.0000 EOS"', b'"2.0000 EOS"')
    parse = cli.parse_action_trace

    def rewritten_first(*args, **kwargs):  # an exporter rewrites the file mid-run
        monkeypatch.setattr(cli, "parse_action_trace", parse)
        trace.write_bytes(second)
        return parse(*args, **kwargs)

    monkeypatch.setattr(cli, "parse_action_trace", rewritten_first)
    totals = []
    for content in (None, second, first):
        if content is not None:
            trace.write_bytes(content)
        assert main(["ingest"] + flags) == EXIT_OK
        totals.append(json.loads((tmp_path / "out" / "ingest.json").read_text())
                      ["transfer_total"])
    assert totals == ["2.0000", "2.0000", "1.0000"]
    assert calls["parse_action_trace"] == 2


def test_other_window_is_parsed_again(files, tmp_path, monkeypatch):
    calls = _count_parses(monkeypatch)
    dropped = []
    for days in ("30", "10", "30"):
        assert main(["ingest"] + _common(files, tmp_path, days)) == EXIT_OK
        dropped.append(json.loads((tmp_path / "ingest.json").read_text())
                       ["dropped_out_of_window"])
    assert dropped[0] == dropped[2] < dropped[1]
    assert calls == {"parse_action_trace": 3, "parse_account_snapshot": 1}


def test_failed_parse_is_not_kept(tmp_path, monkeypatch, capsys):
    calls = _count_parses(monkeypatch)
    flags = _tiny_inputs(tmp_path, _FILLER)
    trace = tmp_path / "trace.ndjson"
    trace.write_bytes(trace.read_bytes() + b"{broken\n" * 3)  # 3 of 201: over 1%
    for _ in range(2):
        assert main(["ingest"] + flags) == EXIT_ERROR
        assert "3/201 malformed lines" in capsys.readouterr().err
    assert calls["parse_action_trace"] == 2
    assert "trace" not in cli.PARSES


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
def test_fifo_trace_is_parsed_directly(files, tmp_path):
    expected = tmp_path / "expected"
    assert main(["ingest"] + _common(files, expected)) == EXIT_OK
    fifo = tmp_path / "trace.fifo"
    os.mkfifo(fifo)
    writer = threading.Thread(target=fifo.write_bytes,
                              args=(Path(files["trace"]).read_bytes(),), daemon=True)
    writer.start()
    try:
        flags = _common({**files, "trace": str(fifo)}, tmp_path / "out")
        assert main(["ingest"] + flags) == EXIT_OK
    finally:
        if writer.is_alive():  # ingest never opened the pipe: let the writer fail
            os.close(os.open(fifo, os.O_RDONLY | os.O_NONBLOCK))
        writer.join(timeout=30)
    assert not writer.is_alive()
    assert "trace" not in cli.PARSES
    assert ((tmp_path / "out" / "ingest.json").read_bytes()
            == (expected / "ingest.json").read_bytes())


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
@pytest.mark.parametrize("command", [["graph", "build"], ["bots", "detect"],
                                     ["bots", "classify"], ["perms", "audit"]])
def test_fifo_snapshot_is_parsed_directly(files, tmp_path, command):
    # a pipe can be read only once, so the same bytes in --out show that no
    # command reads a snapshot line again
    registry = _registry(files) if command[0] == "bots" else []
    expected = tmp_path / "expected"
    code = main(command + _common(files, expected) + registry)
    assert code in (EXIT_OK, EXIT_FINDINGS)
    fifo = tmp_path / "snapshot.fifo"
    os.mkfifo(fifo)
    writer = threading.Thread(target=fifo.write_bytes,
                              args=(Path(files["snapshot"]).read_bytes(),), daemon=True)
    writer.start()
    try:
        flags = _common({**files, "snapshot": str(fifo)}, tmp_path / "out")
        assert main(command + flags + registry) == code
    finally:
        if writer.is_alive():  # the command never opened the pipe: let the writer fail
            os.close(os.open(fifo, os.O_RDONLY | os.O_NONBLOCK))
        writer.join(timeout=30)
    assert not writer.is_alive()
    assert "snapshot" not in cli.PARSES
    assert _tree_hash(tmp_path / "out") == _tree_hash(expected)


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
def test_bundles_of_a_fifo_trace_exit_2(files, tmp_path, capsys):
    # --bundles decodes the evidence lines of the trace file again, which a
    # pipe cannot give twice; the scan says so before it reads the pipe.
    fifo = tmp_path / "trace.fifo"
    os.mkfifo(fifo)
    # one line, which fits in the pipe's buffer, so the writer ends once the
    # pipe has a reader
    line = Path(files["trace"]).read_bytes().splitlines(keepends=True)[0]
    writer = threading.Thread(target=fifo.write_bytes, args=(line,), daemon=True)
    writer.start()
    out = tmp_path / "out"
    try:
        assert main(["attacks", "scan", "--trace", str(fifo), "--days", "30",
                     "--out", str(out), "--bundles"] + _registry(files)) == EXIT_ERROR
    finally:
        reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
        writer.join(timeout=30)
        os.close(reader)
    assert not writer.is_alive()
    err = capsys.readouterr().err
    assert err.startswith("error: --bundles") and "regular file" in err
    assert not (out / "attack_findings.ndjson").exists()


def test_only_bundle_evidence_becomes_action_records(files, tmp_path, monkeypatch):
    """The commands read the action table's columns; an ActionRecord is built
    only for each evidence action of a bundle, once."""
    built = []

    class CountedRecord(model.ActionRecord):
        __slots__ = ()

        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append(self.global_seq)

    monkeypatch.setattr(model, "ActionRecord", CountedRecord)
    pipeline = _pipeline(files, tmp_path)
    scan = pipeline[-2]
    for argv in pipeline[:-2] + [[a for a in scan if a != "--bundles"]]:
        assert main(argv) in (EXIT_OK, EXIT_FINDINGS), argv
        assert built == [], argv
    assert main(scan) == EXIT_FINDINGS
    evidence = {seq for line in (tmp_path / "attack_findings.ndjson").read_text().splitlines()
                for seq in json.loads(line)["evidence"]}
    assert len(evidence) > 10
    assert sorted(built) == sorted(evidence)


def test_commands_share_one_parse_and_leave_it_unchanged(files, window, tmp_path,
                                                          monkeypatch):
    calls = _count_parses(monkeypatch)
    for argv in _pipeline(files, tmp_path):
        assert main(argv) in (EXIT_OK, EXIT_FINDINGS), argv
    assert calls == {"parse_action_trace": 1, "parse_account_snapshot": 1}

    trace = cli.PARSES["trace"][1]
    fresh = model.parse_action_trace(files["trace"], window)
    assert ([r.to_json() for r in trace.result.records]
            == [r.to_json() for r in fresh.records])
    assert trace.result.dropped_out_of_window == fresh.dropped_out_of_window
    assert trace.result.diagnostics == fresh.diagnostics
    transfers = model.extract_transfers(fresh.records, window)
    assert trace.transfers.names == transfers.names
    for column in ("seq", "us", "day", "src", "dst", "units"):
        assert np.array_equal(getattr(trace.transfers, column), getattr(transfers, column))

    snapshot = cli.PARSES["snapshot"][1].result
    fresh = model.parse_account_snapshot(files["snapshot"])
    assert ({name: r.to_json() for name, r in snapshot.items()}
            == {name: r.to_json() for name, r in fresh.items()})
    assert snapshot.warnings == fresh.warnings


def test_run_matches_the_ten_commands_across_processes(files, tmp_path):
    """`run` in one fresh process and the ten commands each in its own fresh
    process, so each parses anew, write the same tree, the one that
    test_stage_files_are_pinned pins."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(Path(cli.__file__).parents[1]), os.environ.get("PYTHONPATH")]))}

    def launch(argv):
        proc = subprocess.run([sys.executable, "-m", "eosforensics.cli", *argv],
                              env=env, capture_output=True, text=True, timeout=600)
        assert proc.returncode in (EXIT_OK, EXIT_FINDINGS), (argv, proc.stderr)
        return proc.returncode

    run, alone = tmp_path / "run", tmp_path / "alone"
    assert launch(["run", *_common(files, run), *_registry(files), "--bundles"]) == EXIT_FINDINGS
    for argv in _pipeline(files, alone):
        launch(argv)
    assert _tree_hash(run) == _tree_hash(alone)
    files_written = {str(p.relative_to(run)) for p in run.rglob("*") if p.is_file()}
    assert files_written == set(STAGE_DIGESTS)
    assert _digests(run, ("*.csv", "*.ndjson", "*.json", "*.txt")) == STAGE_DIGESTS


def test_run_stops_at_the_first_error(files, tmp_path, capsys):
    # Without --labels, `bots detect` exits 2, so no later stage runs.
    assert main(["run", "--bundles"] + _common(files, tmp_path)) == EXIT_ERROR
    assert "labeled bot communities" in capsys.readouterr().err
    assert (tmp_path / "metrics_ecig.json").exists()
    assert not [p.name for p in tmp_path.iterdir()
                if p.name.startswith(("bot_", "perm_", "attack_", "report"))]


def test_run_hashes_no_input_again(files, tmp_path, monkeypatch):
    hashed = []
    digest = cli._file_digest
    monkeypatch.setattr(cli, "_file_digest", lambda path: hashed.append(path) or digest(path))
    assert main(["run", *_common(files, tmp_path), *_registry(files)]) == EXIT_FINDINGS
    assert hashed == []
    # Another main() call checks each kept parse against its file once.
    assert main(["ingest"] + _common(files, tmp_path)) == EXIT_OK
    assert sorted(hashed) == sorted([files["trace"], files["snapshot"]])


def test_one_pass_builds_each_graph_once(files, tmp_path, monkeypatch):
    calls = {}
    for name in ("build_emfg", "build_eacg", "build_ecig"):
        def counted(*args, _name=name, _build=getattr(graphs, name)):
            calls[_name] = calls.get(_name, 0) + 1
            return _build(*args)
        monkeypatch.setattr(graphs, name, counted)
    for argv in _pipeline(files, tmp_path):
        assert main(argv) in (EXIT_OK, EXIT_FINDINGS), argv
    assert calls == {"build_emfg": 1, "build_eacg": 1, "build_ecig": 1}


# ---------------------------------------------------------------------------
# Staged output: a command's files replace their namesakes in --out only when
# it exits 0 or 1.


@pytest.fixture(scope="module")
def filled_out(files, tmp_path_factory):
    """An --out that one pipeline pass over a shorter window has filled, so
    that every command of a 30-day pass writes other bytes into it. The EACG
    metrics do not depend on the window, so each JSON file gains a trailing
    blank line; `report` would rewrite its files from the same inputs, so
    they are removed."""
    out = tmp_path_factory.mktemp("filled")
    for argv in _pipeline(files, out, days="10"):
        assert main(argv) in (EXIT_OK, EXIT_FINDINGS), argv
    for path in out.glob("*.json"):
        path.write_bytes(path.read_bytes() + b"\n")
    for path in out.glob("report*"):
        path.unlink()
    cli.PARSES.clear()
    return out


# command -> (its index in _pipeline, or None for `synth generate`; the step
# that fails; how many calls of that step pass first). Each step comes after
# the command's first write.
FAILING_STEPS = {
    "ingest": (0, cli, "write_ndjson", 0),
    "graph_build": (1, graphs, "silent_accounts", 0),
    "metrics_emfg": (2, metrics, "pagerank", 0),
    "metrics_eacg": (3, metrics, "pagerank", 0),
    "metrics_ecig": (4, metrics, "pagerank", 0),
    "bots_detect": (5, botnet, "detect_communities", 0),
    "bots_classify": (6, botnet, "categorize", 0),
    "perms_audit": (7, permissions, "account_pair_summary", 0),
    "attacks_scan": (8, attacks, "evidence_bundle", 1),
    "report": (9, cli, "write_csv", 1),
    "synth_generate": (None, synthgen._Chain, "_snapshot_lines", 0),
}


@pytest.mark.parametrize("command", sorted(FAILING_STEPS))
def test_failed_command_leaves_out_unchanged(files, filled_out, tmp_path, monkeypatch,
                                             command):
    index, owner, attr, passing = FAILING_STEPS[command]
    out = tmp_path / "out"
    shutil.copytree(filled_out, out)
    argv = (_pipeline(files, out)[index] if index is not None else
            ["synth", "generate", "--out", str(out), "--seed", "3", "--days", "10",
             "--users", "30", "--services", "2"])
    before = _tree_hash(out)
    step, passed, wrote = getattr(owner, attr), [], []

    def fail_after(*args, **kwargs):
        if len(passed) < passing:
            passed.append(True)
            return step(*args, **kwargs)
        wrote.append(_tree_hash(out) != before)
        raise OSError("injected failure")

    monkeypatch.setattr(owner, attr, fail_after)
    assert main(argv) == EXIT_ERROR
    assert wrote == [True], "the step failed before the command wrote anything"
    assert _tree_hash(out) == before
    assert not list(out.glob(".stage-*"))


def test_exit_2_discards_what_the_command_wrote(tmp_path):
    def command(args, stage):
        (stage / "ingest.json").write_text("partial\n")
        return EXIT_ERROR

    assert cli._staged(command, argparse.Namespace(out=str(tmp_path))) == EXIT_ERROR
    assert list(tmp_path.iterdir()) == []
