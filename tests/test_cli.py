import hashlib
import json
from pathlib import Path

import pytest

from eosforensics import cli
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
}


def _exit_code(argv):
    try:
        return main(argv)
    except SystemExit as exc:  # argparse rejects a flag value by exiting
        return exc.code


@pytest.mark.parametrize("case", sorted(BAD_FLAGS))
def test_bad_flag_value_is_error(files, tmp_path, capsys, case):
    command, flags = BAD_FLAGS[case]
    if command == "ingest":
        argv = ["ingest", "--trace", files["trace"], "--snapshot", files["snapshot"]]
    else:
        argv = ["attacks", "scan", "--trace", files["trace"], "--dapps", files["dapps"]]
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


def test_synth_generate_deterministic(tmp_path):
    args = ["synth", "generate", "--seed", "7", "--days", "15", "--users", "20",
            "--services", "2", "--bots", "click_fraud:32:cal",
            "--attacks", "fake_transfer:100:5", "--misuse", "misuse:2,benign:1"]
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(args + ["--out", str(a)]) == EXIT_OK
    assert main(args + ["--out", str(b)]) == EXIT_OK
    assert _tree_hash(a) == _tree_hash(b)


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
