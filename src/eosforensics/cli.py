"""Command-line pipeline driver.

Every stage reads plain files and writes plain files into --out, so
stages are resumable and the artifacts are portable. Exit codes: 0 ok,
1 findings present (CI gating), 2 error. A command writes into a fresh
.stage-* directory under --out, which replaces its namesakes in --out only
when the command exits 0 or 1. `run` chains every stage into one --out;
the stages one process runs parse a given trace or snapshot once and build
each graph from it once.

argparse is the one flag table. The defaults of --out, --window-start,
--days, --threads, --min-children, --seed and --w1/--w2/--w3 can be
overridden with EOSFOR_<FLAG> environment variables (e.g.
EOSFOR_MIN_CHILDREN=40); `synth generate` reads only EOSFOR_SEED.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import os
import shutil
import stat
import sys
import tempfile
from collections import Counter
from datetime import date, timedelta
from decimal import Decimal
from pathlib import Path

from . import attacks as attacks_mod
from . import botnet, forest, graphs, metrics, permissions, synthgen
from .errors import ConfigError, ForensicsError, IngestError
from .model import (
    LINE_ERRORS,
    ObservationWindow,
    Registry,
    eos_decimal,
    extract_transfers,
    file_sha256,
    parse_account_snapshot,
    parse_action_trace,
    read_ndjson,
    write_csv,
    write_ndjson,
)

EXIT_OK = 0
EXIT_FINDINGS = 1
EXIT_ERROR = 2
GRAPHS = ("emfg", "eacg", "ecig")


def _env_default(flag, fallback):
    """The flag's default: EOSFOR_<FLAG> if set, else `fallback`. Both are
    strings, so argparse checks them with the flag's `type` as it checks a
    value given on the command line."""
    return os.environ.get("EOSFOR_" + flag.upper().replace("-", "_"), fallback)


def _number(text, kind, low, what):
    """kind(text) if that is a finite number of at least `low`; else an
    argparse error that says it expected `what`."""
    try:
        value = kind(text)
    except ValueError:
        value = low - 1  # not a number: rejected below with the same message
    if not low <= value < math.inf:
        raise argparse.ArgumentTypeError(f"expected {what}, got {text!r}")
    return value


def _positive_int(text):
    return _number(text, int, 1, "a positive integer")


def _non_negative_int(text):
    return _number(text, int, 0, "a non-negative integer")


def _rate(text):
    return _number(text, float, 0, "a finite non-negative number")


def _iso_date(text):
    try:
        return date.fromisoformat(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected a YYYY-MM-DD date, got {text!r} ({exc})")


def _bot_spec(text):
    parts = text.split(":")
    try:
        if parts[2:] not in ([], ["cal"]):
            raise ValueError(text)
        return synthgen.BotCommunitySpec(size=_positive_int(parts[1]), category=parts[0],
                                         calibration=len(parts) > 2)
    except (IndexError, ValueError, argparse.ArgumentTypeError):
        raise argparse.ArgumentTypeError(
            f"bad --bots spec {text!r} (want category:size[:cal])") from None


def _attack_spec(text):
    try:
        kind, profit, day = text.split(":")
        return synthgen.AttackSpec(kind=kind, profit_eos=int(profit), day=int(day))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"bad --attacks spec {text!r} (want kind:profit:day)") from None


def _misuse_plan(text):
    try:
        pairs = (part.split(":") for part in text.split(","))
        return synthgen.MisusePlan(**{kind: _non_negative_int(count) for kind, count in pairs})
    except (TypeError, ValueError, argparse.ArgumentTypeError):
        raise argparse.ArgumentTypeError(
            f"bad --misuse spec {text!r} (want kind:count[,kind:count...])") from None


def _add_common(p, *, trace=False, snapshot=False, registry=False):
    p.add_argument("--out", default=_env_default("out", "out"),
                   help="output directory (default: out)")
    p.add_argument("--window-start", type=_iso_date,
                   default=_env_default("window_start", "2018-06-09"),
                   help="first UTC day of the observation window")
    p.add_argument("--days", type=_positive_int, default=_env_default("days", "357"),
                   help="window length in days")
    p.add_argument("--threads", type=int, default=_env_default("threads", "1"),
                   help="accepted for interface stability; nothing reads it")
    if trace:
        p.add_argument("--trace", required=True, help="action trace (NDJSON)")
    if snapshot:
        p.add_argument("--snapshot", required=True, help="account snapshot (NDJSON)")
    if registry:
        p.add_argument("--dapps", help="dapps.csv registry")
        p.add_argument("--incentives", help="incentives.csv registry")
        p.add_argument("--labels", help="labels.csv registry")
        p.add_argument("--sellers", help="sellers.csv registry")


def _add_graph_flag(p):
    p.add_argument("--graph", choices=GRAPHS, default="emfg")


def _add_metrics_flags(p):
    p.add_argument("--top", type=_positive_int, default=50, help="pagerank rows to keep")


def _add_detect_flags(p):
    p.add_argument("--min-children", type=_non_negative_int,
                   default=_env_default("min_children", "30"))


def _add_classify_flags(p):
    p.add_argument("--seed", type=_non_negative_int, default=_env_default("seed", "0"))


def _add_scan_flags(p):
    p.add_argument("--rollback-log", help="optional off-chain rollback NDJSON")
    p.add_argument("--w1", type=float, default=_env_default("w1", "400"))
    p.add_argument("--w2", type=float, default=_env_default("w2", "1.2"))
    p.add_argument("--w3", type=float, default=_env_default("w3", "0.9"))
    p.add_argument("--bundles", action="store_true",
                   help="write per-finding evidence bundles")


def _add_synth_flags(p):
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=_env_default("seed", "0"))
    p.add_argument("--days", type=_positive_int, default=30)
    p.add_argument("--users", type=_non_negative_int, default=100)
    p.add_argument("--services", type=_non_negative_int, default=3)
    p.add_argument("--bots", action="append", type=_bot_spec,
                   help="category:size[:cal], repeatable")
    p.add_argument("--attacks", action="append", type=_attack_spec,
                   help="kind:profit:day, repeatable")
    p.add_argument("--misuse", type=_misuse_plan, default=synthgen.MisusePlan(),
                   help="e.g. misuse:150,partial:300,benign:250")
    p.add_argument("--rate", type=_rate, default=1.0,
                   help="background traffic multiplier")
    p.add_argument("--silent", type=_non_negative_int, default=0)
    p.add_argument("--deep-chain", type=_non_negative_int, default=0)


def _add_report_flags(p):
    p.add_argument("--out", default=_env_default("out", "out"))


def _window(args) -> ObservationWindow:
    """The --days days that start on --window-start."""
    start = args.window_start
    try:
        end = start + timedelta(days=args.days - 1)
    except OverflowError:
        raise ConfigError(f"--days {args.days} from --window-start {start} "
                          f"ends after year 9999") from None
    return ObservationWindow(start, end)


def _registry_from(args) -> Registry:
    return Registry.load(dapps=args.dapps, incentives=args.incentives,
                         labels=args.labels, sellers=args.sellers)


# The last parse of each input, so that the commands one process runs parse
# a given trace or snapshot once: {"trace" | "snapshot": (key, parse)}. The
# key is the SHA-256 of the bytes parsed (with the window, for a trace), so
# any change to the bytes is a fresh parse. The entry outlives main();
# PARSES.clear() frees it.
PARSES = {}


def _regular(path):
    """Whether `path` is a regular file. A FIFO can be read only once, so it
    is never hashed or kept; a missing or unreadable file is left to the
    parser, which names it in its error."""
    try:
        return stat.S_ISREG(os.stat(path).st_mode)
    except OSError:
        return False


def _file_digest(path):
    """SHA-256 of the bytes of the regular file at `path`, or None."""
    if not _regular(path):
        return None
    try:
        return file_sha256(path).digest()
    except OSError:
        return None


def _memo(kind, path, extra, parse, checked):
    """parse(digest), or the value this main() call last parsed or used for
    `kind` when `path` and `extra` are the same (`checked` maps each kind to
    its (path, extra, value)), or else the kept value of the last parse when
    the file at `path` holds the same bytes and `extra` is the same. The
    parser feeds `digest` the bytes it reads, so the key names the bytes
    parsed even when the file changes between the check and the parse. A
    pipe, which can be read only once, is neither hashed nor kept."""
    if checked.get(kind, ())[:2] == (path, extra):
        return checked[kind][2]
    entry = PARSES.pop(kind, None)
    if entry is not None and entry[0] == (_file_digest(path), extra):
        PARSES[kind], value = entry, entry[1]
    else:
        del entry  # never two parses of one input alive at once
        checked.pop(kind, None)
        digest = hashlib.sha256() if _regular(path) else None
        value = parse(digest)
        if digest is not None:
            PARSES[kind] = ((digest.digest(), extra), value)
    checked[kind] = (path, extra, value)
    return value


class _Trace:
    """A parsed trace and, once asked for, its transfer table, EMFG and ECIG."""

    def __init__(self, result, window):
        self.result, self.window = result, window

    @functools.cached_property
    def transfers(self):
        return extract_transfers(self.result.records, self.window)

    @functools.cached_property
    def emfg(self):
        return graphs.build_emfg(self.transfers)

    @functools.cached_property
    def ecig(self):
        return graphs.build_ecig(self.result.records, self.window)


class _Snapshot(dict):
    """A parsed snapshot (`result`), mapping each window asked for to its EACG."""

    def __init__(self, result):
        super().__init__()
        self.result = result

    def __missing__(self, window):
        eacg = self[window] = graphs.build_eacg(self.result, window)
        return eacg


def _trace(args) -> _Trace:
    return _memo("trace", args.trace, args.window, lambda digest: _Trace(
        parse_action_trace(args.trace, args.window, digest=digest), args.window),
        args.checked)


def _snapshot(args) -> _Snapshot:
    return _memo("snapshot", args.snapshot, None, lambda digest: _Snapshot(
        parse_account_snapshot(args.snapshot, digest=digest)), args.checked)


def _graph(args, name):
    """The EMFG, EACG or ECIG, each built from its own input alone: the EACG
    from the snapshot, the EMFG and the ECIG from the trace."""
    return _snapshot(args)[args.window] if name == "eacg" else getattr(_trace(args), name)


def _view(args, name):
    return getattr(graphs, f"{name}_to_digraph")(_graph(args, name))


def _staged(command, args):
    """command(args, stage), which writes its files into `stage`, a fresh
    .stage-* directory under --out. On exit 0 or 1 each top-level entry of
    the stage replaces its namesake in --out, one os.replace each, so a
    directory such as bundles/ is replaced whole; on exit 2 or an exception
    --out is left as it was. Commands with a window find it in args.window."""
    if "window_start" in args:
        args.window = _window(args)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    stage = Path(tempfile.mkdtemp(prefix=".stage-", dir=out))
    try:
        code = command(args, stage)
        if code != EXIT_ERROR:
            for entry in sorted(stage.iterdir()):
                target = out / entry.name
                if target.is_dir():  # os.replace cannot overwrite a directory
                    os.replace(target, stage / f".old-{entry.name}")
                os.replace(entry, target)
        return code
    finally:
        shutil.rmtree(stage, ignore_errors=True)


def _dump(path: Path, obj):
    path.write_text(json.dumps(obj, sort_keys=True, indent=1) + "\n")


# ---------------------------------------------------------------------------
# commands


def cmd_ingest(args, stage):
    trace = _trace(args)
    result = trace.result
    snapshot = _snapshot(args).result
    transfers = trace.transfers
    summary = {
        "actions": len(result.records),
        "dropped_out_of_window": result.dropped_out_of_window,
        "malformed_lines": len(result.diagnostics),
        "accounts": len(snapshot),
        "snapshot_warnings": snapshot.warnings,
        "genuine_transfers": len(transfers),
        "transfer_total": str(eos_decimal(transfers.units.sum())),
    }
    _dump(stage / "ingest.json", summary)
    write_ndjson(stage / "ingest_diagnostics.ndjson",
                 ({"line": lineno, "message": message}
                  for lineno, message in result.diagnostics))
    print(f"parsed {summary['actions']} actions, {summary['accounts']} accounts, "
          f"{summary['genuine_transfers']} genuine transfers "
          f"({summary['malformed_lines']} malformed lines)")
    return EXIT_OK


def cmd_graph_build(args, stage):
    views = {name: _view(args, name) for name in GRAPHS}
    for name, view in views.items():
        graphs.export_edges_csv(view, stage / f"{name}_edges.csv")
        for direction in ("in", "out"):
            hist = graphs.degree_histogram(view, direction)
            graphs.export_histogram_csv(hist, stage / f"{name}_{direction}_degree.csv")
    silent = sorted(graphs.silent_accounts(_graph(args, "emfg"), _graph(args, "ecig"),
                                           _snapshot(args).result))
    (stage / "silent_accounts.txt").write_text("".join(s + "\n" for s in silent))
    summary = {
        name: {"nodes": len(view.nodes), "edges": len(view.src)}
        for name, view in views.items()
    }
    summary["silent_accounts"] = len(silent)
    summary["eacg_max_depth"] = _graph(args, "eacg").max_depth()
    _dump(stage / "graphs.json", summary)
    for name in GRAPHS:
        print(f"{name}: {summary[name]['nodes']} nodes, {summary[name]['edges']} edges")
    print(f"silent accounts: {len(silent)}")
    return EXIT_OK


def cmd_metrics(args, stage):
    view = _view(args, args.graph)
    report = metrics.compute_metrics(view)
    (stage / f"metrics_{args.graph}.json").write_text(report.to_json() + "\n")
    ranks = metrics.pagerank(view)
    top = sorted(ranks.items(), key=lambda kv: (-kv[1], kv[0]))[: args.top]
    write_csv(stage / f"pagerank_{args.graph}.csv", ["account", "rank"],
              ((account, repr(rank)) for account, rank in top))
    print(report.to_text())
    return EXIT_OK


def cmd_bots_detect(args, stage):
    registry = _registry_from(args)
    emfg, eacg, ecig = (_graph(args, name) for name in GRAPHS)
    snapshot = _snapshot(args).result

    contract_index = {c: i for i, c in enumerate(botnet.contract_universe(ecig))}
    silent = graphs.silent_accounts(emfg, ecig, snapshot)
    communities = botnet.communities(eacg, args.min_children)
    # one batch for every account calibration and detection measure
    accounts = sorted({m for _, ms in registry.labeled_bot_communities for m in ms}
                      .union(*communities.values()) - silent)
    vectors = {account: botnet.BehaviorVectors(account, time, targets)
               for account, time, targets in zip(accounts, *botnet.behavior_matrices(
                   accounts, emfg, ecig, args.window, contract_index))}
    bot_dists = [d for _, members in registry.labeled_bot_communities
                 if (d := botnet.measure_community(sorted(members), vectors.get)[1]) is not None]
    threshold = botnet.calibrate_threshold(bot_dists)
    _dump(stage / "bot_threshold.json", threshold.to_json())

    flagged, stats = botnet.detect_communities(
        eacg, vectors.get, threshold, min_children=args.min_children
    )
    _dump(
        stage / "bot_communities.json",
        [
            {
                "controller": c.controller,
                "members": len(c.members),
                "measured": len(c.measured),
                "dist_t": None if c.dist_t != c.dist_t else c.dist_t,
                "dist_s": None if c.dist_s != c.dist_s else c.dist_s,
                "flagged": c.flagged,
                "skipped_reason": c.skipped_reason,
            }
            for c in stats
        ],
    )

    flagged_accounts = sorted({m for c in flagged for m in c.measured})
    merged = botnet.merge_by_pubkey(flagged_accounts, snapshot)
    _dump(stage / "bot_pubkey_groups.json", merged)

    measured = [(c.controller, m) for c in flagged for m in c.measured]
    categories = botnet.categorize([m for _, m in measured], emfg, ecig, snapshot,
                                   registry, merged)
    verdicts = [botnet.BotVerdict(member, True, "community", community_id=controller,
                                  category=category)
                for (controller, member), category in zip(measured, categories)]
    verdicts.sort(key=lambda v: v.account)
    write_ndjson(stage / "bot_verdicts.ndjson", (v.to_json() for v in verdicts))
    print(f"{len(flagged)}/{len(stats)} communities flagged, "
          f"{len(verdicts)} bot accounts")
    return EXIT_FINDINGS if verdicts else EXIT_OK


def cmd_bots_classify(args, stage):
    registry = _registry_from(args)
    emfg, eacg, ecig = (_graph(args, name) for name in GRAPHS)
    snapshot = _snapshot(args).result

    labeled_bot = {m for _, ms in registry.labeled_bot_communities for m in ms}
    labeled_normal = {m for _, ms in registry.labeled_normal_communities for m in ms}
    if not labeled_bot or not labeled_normal:
        raise ConfigError("--labels must provide both bot and normal accounts")

    labeled = sorted(a for a in labeled_bot | labeled_normal if a in snapshot)
    silent = graphs.silent_accounts(emfg, ecig, snapshot)
    candidates = sorted(set(snapshot) - silent - labeled_bot - labeled_normal)
    # one feature pass: each row depends only on its own account
    features = botnet.extract_features(labeled + candidates, emfg, ecig, eacg, snapshot,
                                       args.window)
    y = [1 if a in labeled_bot else 0 for a in labeled]
    result = forest.train_classifier(features[:len(labeled)], y, seed=args.seed)
    result.model.save(stage / "bot_model.json")
    _dump(stage / "bot_training.json", {"test_accuracy": result.test_accuracy,
                                        "best_params": result.best_params,
                                        "labeled": len(labeled)})

    bots = []
    if candidates:
        probs = result.model.predict_prob(features[len(labeled):])
        bots = [account for account, prob in zip(candidates, probs) if prob >= 0.5]
    verdicts = [botnet.BotVerdict(account, True, "classifier", category=category)
                for account, category in zip(bots, botnet.categorize(
                    bots, emfg, ecig, snapshot, registry))]
    write_ndjson(stage / "bot_classified.ndjson", (v.to_json() for v in verdicts))
    print(f"held-out accuracy {result.test_accuracy:.4f}, "
          f"{len(verdicts)}/{len(candidates)} candidates classified as bots")
    return EXIT_FINDINGS if verdicts else EXIT_OK


def cmd_perms_audit(args, stage):
    records = _trace(args).result.records
    snapshot = _snapshot(args).result
    grants, diagnostics = permissions.scan_updateauth(records, args.window)
    findings = permissions.detect_misuse(grants, snapshot)
    permissions.export_findings_csv(findings, stage / "perm_findings.csv")
    pairs = permissions.account_pair_summary(findings)
    counts = Counter({"misuse": 0, "partial": 0, "benign": 0})
    counts.update(f.severity for f in findings)
    _dump(stage / "perm_summary.json", {"grants": len(grants), "by_severity": counts,
                                        "distinct_pairs": len(pairs),
                                        "diagnostics": len(diagnostics)})
    print(f"{len(grants)} eosio.code grants: "
          f"{counts['misuse']} misuse, {counts['partial']} partial, "
          f"{counts['benign']} benign")
    return EXIT_FINDINGS if counts["misuse"] else EXIT_OK


def cmd_attacks_scan(args, stage):
    if args.bundles and not _regular(args.trace):
        raise ConfigError(f"--bundles reads the evidence lines of --trace again, so it must "
                          f"be a regular file, not a pipe or other stream: {args.trace}")
    registry = _registry_from(args)
    trace = _trace(args)
    config = attacks_mod.ScanConfig(w1=Decimal(str(args.w1)), w2=args.w2, w3=args.w3)
    rollback = (attacks_mod.load_rollback_log(args.rollback_log) if args.rollback_log
                else None)
    findings, notes = attacks_mod.scan_attacks(trace.result.records, registry, config,
                                               rollback_entries=rollback)
    write_ndjson(stage / "attack_findings.ndjson", (f.to_json() for f in findings))
    _dump(stage / "attack_notes.json", notes)
    if args.bundles:  # always staged, so that it replaces the last scan's whole
        (stage / "bundles").mkdir()
        # the evidence lines alone are decoded again, each once
        evidence = trace.result.records.by_seq(seq for f in findings for seq in f.evidence)
        for i, finding in enumerate(findings):
            attacks_mod.evidence_bundle(
                finding, evidence, trace.emfg,
                stage / "bundles" / f"{i:04d}-{finding.kind}-{finding.attacker}",
            )
    kinds = Counter(f.kind for f in findings)
    print(f"{len(findings)} attack findings ({kinds['fake_transfer']} fake-transfer, "
          f"{kinds['fake_notice']} fake-notice, {kinds['predictable_state']} predictable-state)")
    for note in notes:
        print(f"note: {note}")
    return EXIT_FINDINGS if findings else EXIT_OK


def cmd_synth_generate(args, stage):
    config = synthgen.ScenarioConfig(
        seed=args.seed,
        day_count=args.days,
        normal_account_count=args.users,
        service_count=args.services,
        bot_community_specs=args.bots or [],
        attack_specs=args.attacks or [],
        misuse_plan=args.misuse,
        background_transfer_rate=args.rate,
        silent_account_count=args.silent,
        deep_chain_length=args.deep_chain,
    )
    manifest = synthgen.generate(config, stage)
    print(f"generated {manifest['action_count']} actions, "
          f"{len(manifest['users'])} users, "
          f"{len(manifest['bot_communities'])} bot communities, "
          f"{len(manifest['attacks'])} attacks -> {args.out}")
    return EXIT_OK


METRIC_FIELDS = ("node_count", "edge_count", "clustering", "assortativity",
                 "pearson_in_out", "scc_count", "largest_scc", "wcc_count", "largest_wcc")
ATTACK_COLUMNS = ("kind", "attacker", "victim", "profit", "window_start", "window_end")


def _read_stage_json(path: Path, types: dict) -> dict:
    """The JSON object in the stage output at `path`, which maps each key of
    `types` to a value of that key's type; anything else is an IngestError
    naming the file."""
    try:
        obj = json.loads(path.read_bytes())
    except LINE_ERRORS as exc:
        raise IngestError(f"{path}: {exc}") from exc
    if not isinstance(obj, dict):
        raise IngestError(f"{path}: not a JSON object")
    for key, kind in types.items():
        if key not in obj or not isinstance(obj[key], kind):
            raise IngestError(f"{path}: {key} is missing or mistyped")
    return obj


def _read_stage_ndjson(path: Path, decode) -> list:
    """decode(value) of each line of the stage output at `path`; a line that
    does not decode is an IngestError naming the file and line."""
    def fail(lineno, exc):
        raise IngestError(f"{path} line {lineno}: {exc!r}") from exc

    return [item for _, _, item in read_ndjson(path, path.name, decode, fail)]


def _text(obj, key) -> str:
    """obj[key], which must be a string."""
    value = obj[key]
    if not isinstance(value, str):
        raise TypeError(f"{key} is not a string: {type(value).__name__}")
    return value


def _finding_row(obj) -> tuple:
    """(the finding's ATTACK_COLUMNS, its profit as a Decimal)."""
    return [_text(obj, c) for c in ATTACK_COLUMNS], Decimal(obj["profit"])


def cmd_report(args, stage):
    """Summarize the stage outputs under --out. Every input is read and
    checked before any report file is written."""
    out = Path(args.out)

    def read(name, reader, how):
        return reader(out / name, how) if (out / name).exists() else None

    metric_types = dict.fromkeys(METRIC_FIELDS, (int, float, type(None)))
    metric_rows = [(name, obj) for name in ("emfg", "eacg", "ecig")
                   if (obj := read(f"metrics_{name}.json", _read_stage_json,
                                   metric_types)) is not None]
    categories = read("bot_verdicts.ndjson", _read_stage_ndjson,
                      lambda obj: _text(obj, "category"))
    perms = read("perm_summary.json", _read_stage_json,
                 {"by_severity": dict, "distinct_pairs": int})
    attack_rows = read("attack_findings.ndjson", _read_stage_ndjson, _finding_row)

    lines = []

    def section(title):
        lines.append(title)
        lines.append("-" * len(title))

    if metric_rows:
        section("Graph metrics")
        write_csv(stage / "report_metrics.csv", ["graph", *METRIC_FIELDS],
                  ([name] + [obj[f] for f in METRIC_FIELDS] for name, obj in metric_rows))
        for name, obj in metric_rows:
            lines.append(f"[{name}]")
            for f in METRIC_FIELDS:
                lines.append(f"  {f}: {'/' if obj[f] is None else obj[f]}")
        lines.append("")

    if categories is not None:
        section("Bot accounts by category")
        counts = Counter(categories)
        write_csv(stage / "report_bots.csv", ["category", "accounts"], sorted(counts.items()))
        for cat in sorted(counts):
            lines.append(f"  {cat}: {counts[cat]}")
        lines.append(f"  total: {sum(counts.values())}")
        lines.append("")

    if perms is not None:
        section("Permission audit")
        for sev, n in sorted(perms["by_severity"].items()):
            lines.append(f"  {sev}: {n}")
        lines.append(f"  distinct pairs: {perms['distinct_pairs']}")
        lines.append("")

    if attack_rows is not None:
        section("Attack findings")
        write_csv(stage / "report_attacks.csv", ATTACK_COLUMNS, (row for row, _ in attack_rows))
        by_kind = {}
        for row, profit in attack_rows:
            by_kind.setdefault(row[0], []).append(profit)
        for kind in sorted(by_kind):
            lines.append(f"  {kind}: {len(by_kind[kind])} findings, "
                         f"{sum(by_kind[kind])} EOS profit")
        lines.append("")

    if not lines:
        raise IngestError("no stage outputs found under --out; run other stages first")
    text = "\n".join(lines).rstrip() + "\n"
    (stage / "report.txt").write_text(text)
    print(text, end="")
    return EXIT_OK


# What `run` chains, in the order an analyst runs the commands: (command,
# the flags it adds to run's own).
RUN_STAGES = ((cmd_ingest, {}), (cmd_graph_build, {}),
              *((cmd_metrics, {"graph": graph}) for graph in GRAPHS),
              (cmd_bots_detect, {}), (cmd_bots_classify, {}), (cmd_perms_audit, {}),
              (cmd_attacks_scan, {}), (cmd_report, {}))


def cmd_run(args):
    """Every stage in turn into one --out, each staged and committed as its
    own command is. Stops at the first stage that exits 2, so --out keeps
    what the stages before it wrote; otherwise exits 1 if any stage found
    something."""
    code = EXIT_OK
    for command, flags in RUN_STAGES:
        stage = _staged(command, argparse.Namespace(**{**vars(args), **flags}))
        if stage == EXIT_ERROR:
            return EXIT_ERROR
        code = max(code, stage)
    return code


# ---------------------------------------------------------------------------
# parser

_inputs = functools.partial(_add_common, trace=True, snapshot=True)
_inputs_and_registry = functools.partial(_inputs, registry=True)

# One row per command: (its words, help, command, what adds its flags).
COMMANDS = (
    ("ingest", "parse and summarize inputs", cmd_ingest, (_inputs,)),
    ("graph build", "build EMFG/EACG/ECIG and export edges", cmd_graph_build, (_inputs,)),
    ("metrics", "network metrics for one graph", cmd_metrics,
     (_inputs, _add_graph_flag, _add_metrics_flags)),
    ("bots detect", "community-level detection", cmd_bots_detect,
     (_inputs_and_registry, _add_detect_flags)),
    ("bots classify", "per-account classifier", cmd_bots_classify,
     (_inputs_and_registry, _add_classify_flags)),
    ("perms audit", "replay updateauth and flag eosio.code misuse", cmd_perms_audit,
     (_inputs,)),
    ("attacks scan", "fake transfer/notice + profit scan", cmd_attacks_scan,
     (functools.partial(_add_common, trace=True, registry=True), _add_scan_flags)),
    ("synth generate", "generate a scenario with ground truth", cmd_synth_generate,
     (_add_synth_flags,)),
    ("report", "summarize stage outputs under --out", cmd_report, (_add_report_flags,)),
    ("run", "every stage from ingest to report into one --out", cmd_run,
     (_inputs_and_registry, _add_metrics_flags, _add_detect_flags, _add_classify_flags,
      _add_scan_flags)),
)
GROUP_HELP = {"graph": "graph construction", "bots": "bot detection and classification",
              "perms": "permission audit", "attacks": "attack scanning",
              "synth": "synthetic chain generation"}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="eosforensics",
        description="EOSIO-style chain forensics: graphs, metrics, bots, "
                    "permissions, attacks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    groups = {}
    for words, help_text, command, add_flags in COMMANDS:
        group, _, name = words.rpartition(" ")
        if group and group not in groups:
            groups[group] = sub.add_parser(group, help=GROUP_HELP[group]).add_subparsers(
                dest="subcommand", required=True)
        p = (groups[group] if group else sub).add_parser(name, help=help_text)
        for add in add_flags:
            add(p)
        p.set_defaults(func=command)
    return parser


@functools.lru_cache(maxsize=1)
def _parser(environment):
    """build_parser(), kept while the EOSFOR_* `environment` its defaults read holds."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser(tuple(sorted(item for item in os.environ.items()
                                if item[0].startswith("EOSFOR_")))).parse_args(argv)
    args.checked = {}  # shared by the stages of a `run`: see _memo
    try:
        return cmd_run(args) if args.func is cmd_run else _staged(args.func, args)
    except (ForensicsError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
