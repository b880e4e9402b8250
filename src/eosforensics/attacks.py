"""Attack detection: fake EOS transfer/notice patterns and the staged
profit scan for predictable-state exploits, plus evidence bundles."""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, field
from datetime import datetime, timedelta
from decimal import Decimal
from pathlib import Path

import numpy as np

from .errors import BundleError, ConfigError, IngestError
from .model import (
    DEFERRED,
    INT64_MAX,
    NOTIFICATION,
    OFFICIAL_TOKEN_CONTRACT,
    UNITS_PER_EOS,
    US_PER_DAY,
    Actions,
    Transfers,
    eos_decimal,
    extract_transfers,
    file_sha256,
    format_timestamp,
    group_sums,
    parse_timestamp,
    read_ndjson,
    utc_from_us,
    write_csv,
    write_ndjson,
)

INF_RATIO = float("inf")
# Profit-scan window granularity -> its span in microseconds.
SPANS = {"day": US_PER_DAY, "hour": 3_600_000_000}


@dataclass(frozen=True)
class ScanConfig:
    w1: Decimal = Decimal(400)  # minimum window profit (EOS)
    w2: float = 1.2  # minimum received/sent ratio
    w3: float = 0.9  # minimum profit share of lifetime inflow from the DApp

    def __post_init__(self):
        # Each check also rejects NaN: a float NaN fails every comparison,
        # and a Decimal NaN raises InvalidOperation on one, so it goes first.
        if self.w1.is_nan() or self.w1 <= 0:
            raise ConfigError("w1 must be positive")
        if not self.w2 > 1:
            raise ConfigError("w2 must exceed 1")
        if not 0 < self.w3 <= 1:
            raise ConfigError("w3 must be in (0, 1]")


@dataclass
class AttackFinding:
    attacker: str
    victim: str
    kind: str  # fake_transfer | fake_notice | predictable_state
    window_start: datetime
    window_end: datetime
    profit: Decimal
    profitability_ratio: float
    evidence: list  # action_seq list, sorted
    signals: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return {
            "attacker": self.attacker,
            "victim": self.victim,
            "kind": self.kind,
            "window_start": format_timestamp(self.window_start),
            "window_end": format_timestamp(self.window_end),
            "profit": str(self.profit),
            "profitability_ratio": (
                "inf" if self.profitability_ratio == INF_RATIO
                else self.profitability_ratio
            ),
            "evidence": self.evidence,
            "signals": self.signals,
        }


def genuine_transfer_events(actions) -> Transfers:
    """The trace's genuine transfers; their `day` counts from the epoch."""
    return extract_transfers(actions)


def _same_day_flows(events):
    """flow(day, src, dst): the seqs, in trace order, and the summed units
    of that epoch day's transfers from src to dst (accounts by name), read
    from one group-by of the transfers by (day, src, dst)."""
    ids = {name: i for i, name in enumerate(events.names)}
    n = len(ids)
    order, starts, (day, src, dst), (units,) = group_sums(
        (events.us // US_PER_DAY, events.src, events.dst), events.units)
    ends = np.r_[starts[1:], len(order)]
    # one int key per group, not a tuple the cyclic GC would track
    group = {(d * n + s) * n + t: g
             for g, (d, s, t) in enumerate(zip(day.tolist(), src.tolist(), dst.tolist()))}

    def flow(day, src, dst):
        g = None
        if src in ids and dst in ids:
            g = group.get((day * n + ids[src]) * n + ids[dst])
        if g is None:
            return [], 0
        return events.seq[order[starts[g]:ends[g]]].tolist(), int(units[g])
    return flow


def _fake_findings(table, events, registry, kind, claimed, attackers, victims):
    """The scan both fake detectors share, over the transfer payloads of the
    action table (table.transfers): an EOS-symbol payload that `claimed`
    marks implicates attacker id attackers[i] against victim id victims[i].
    A claim against a DApp account is a finding, once per (attacker, victim,
    day), when the attacker's same-day net gain from the victim over the
    genuine `events` (so no self-transfers) is positive."""
    t = table.transfers
    pick = np.flatnonzero(claimed & (t.symbol == table.id("EOS"))
                          & np.isin(victims, table.ids(registry.dapp_accounts)))
    flows = _same_day_flows(events) if len(pick) else None
    findings = []
    seen = set()
    for row, attacker, victim in zip(t.row[pick].tolist(), attackers[pick].tolist(),
                                     victims[pick].tolist()):
        attacker, victim = table.names[attacker], table.names[victim]
        day = int(table.us[row]) // US_PER_DAY
        if (attacker, victim, day) in seen:
            continue
        (received, received_units), (sent, sent_units) = (
            flows(day, victim, attacker), flows(day, attacker, victim))
        profit = received_units - sent_units
        if profit <= 0:
            continue
        seen.add((attacker, victim, day))
        start = utc_from_us(day * US_PER_DAY)
        findings.append(
            AttackFinding(
                attacker=attacker,
                victim=victim,
                kind=kind,
                window_start=start,
                window_end=start + timedelta(days=1, seconds=-1),
                profit=eos_decimal(profit),
                profitability_ratio=INF_RATIO,
                evidence=sorted({int(table.seq[row]), *received, *sent}),
            )
        )
    findings.sort(key=lambda f: (f.attacker, f.window_start))
    return findings


def detect_fake_transfer(actions, events, registry):
    """Transfer-named actions carrying the EOS symbol but executed by a
    contract other than eosio.token, aimed at a DApp account, corroborated
    by same-day profit from that DApp: the claimed sender attacks the
    claimed receiver. `events` are the trace's genuine_transfer_events."""
    table = Actions.of(actions)
    t = table.transfers
    counterfeit = ((table.kind[t.row] != NOTIFICATION)
                   & (table.contract[t.row] != table.id(OFFICIAL_TOKEN_CONTRACT)))
    return _fake_findings(table, events, registry, "fake_transfer", counterfeit, t.src, t.dst)


def detect_fake_notice(actions, events, registry):
    """Genuine eosio.token transfer notifications delivered to a DApp
    account that is neither side of the transfer, corroborated by
    same-day profit for the notification's authorizing actor, who attacks
    the notified account. Returns (findings, note); the note says why the
    scan could not run."""
    table = Actions.of(actions)
    if not (table.kind == NOTIFICATION).any():
        return [], "insufficient data: no notification records in trace"
    t = table.transfers
    notified = table.notified[t.row]
    third_party = ((table.kind[t.row] == NOTIFICATION)
                   & (table.contract[t.row] == table.id(OFFICIAL_TOKEN_CONTRACT))
                   & (notified != t.src) & (notified != t.dst))
    return _fake_findings(table, events, registry, "fake_notice", third_party,
                          table.actor[t.row], notified), None


@dataclass
class SuspiciousWindow:
    account: str
    start: datetime
    end: datetime
    profit: Decimal
    ratio: float
    granularity: str  # day | hour
    # counterparty -> [received, sent] within the window
    flows: dict
    seqs: dict  # counterparty -> transfer seqs within the window


def _flagged_window(events, rows, granularity, config: ScanConfig):
    """The SuspiciousWindow of one (account, bucket) group whose net passed
    W1, rebuilt from its `rows` in order (row 2i: transfer i's receiver,
    row 2i + 1: its sender); None when it fails W2."""
    i, sender = rows >> 1, rows & 1
    names = events.names
    flows = {}  # cp -> [received units, sent units, seqs]
    for seq, src, dst, units, sent in zip(
            events.seq[i].tolist(), events.src[i].tolist(), events.dst[i].tolist(),
            events.units[i].tolist(), sender.tolist()):
        cell = flows.setdefault(names[dst if sent else src], [0, 0, []])
        cell[sent] += units
        cell[2].append(seq)
    received = sum(c[0] for c in flows.values())
    sent = sum(c[1] for c in flows.values())
    if sent == 0:
        ratio = INF_RATIO
    else:
        ratio = float(Decimal(received) / Decimal(sent))
        if ratio <= config.w2:
            return None
    span = SPANS[granularity]
    start = utc_from_us(events.us[i[0]] // span * span)
    return SuspiciousWindow(
        account=names[(events.src if sender[0] else events.dst)[i[0]]], start=start,
        end=start + timedelta(microseconds=span) - timedelta(seconds=1),
        profit=eos_decimal(received - sent), ratio=ratio, granularity=granularity,
        flows={cp: (eos_decimal(c[0]), eos_decimal(c[1])) for cp, c in flows.items()},
        seqs={cp: c[2] for cp, c in flows.items()})


def profit_scan(events: Transfers, config: ScanConfig):
    """Step 1: flag (account, window) pairs whose net inflow exceeds W1
    with a received/sent ratio above W2. Pure inflow (sent = 0) counts
    with an infinite-ratio sentinel. Windows are calendar-aligned UTC
    days and hours.

    Nets are grouped in the table's exact integer units. An integer net
    exceeds W1 exactly when it exceeds floor(W1 * 10**4), so only the
    windows passing that filter are rebuilt, from their own transfers,
    with the W2 check. A W1 at or beyond the int64 range flags no window."""
    if config.w1 >= INT64_MAX:
        return []  # no net of at most INT64_MAX units exceeds it
    num, den = config.w1.as_integer_ratio()
    threshold = min(num * UNITS_PER_EOS // den, INT64_MAX)
    account = np.empty(2 * len(events), dtype=np.int64)
    account[0::2], account[1::2] = events.dst, events.src
    delta = np.repeat(events.units, 2)
    delta[1::2] *= -1
    us = np.repeat(events.us, 2)

    out = []
    for granularity, span in SPANS.items():
        # the sort is stable: each group's rows stay in transfer order
        order, starts, _, (net,) = group_sums((account, us // span), delta)
        ends = np.r_[starts[1:], len(order)]
        for g in np.flatnonzero(net > threshold).tolist():
            window = _flagged_window(events, order[starts[g]:ends[g]], granularity, config)
            if window is not None:
                out.append(window)
    out.sort(key=lambda w: (w.account, w.granularity, w.start))
    return out


def liveness_filter(suspicious, events, registry, config: ScanConfig):
    """Step 2: attribute each flagged window to the DApp counterparty
    contributing the most profit (the first in name order on a tie), then
    keep accounts whose attributed profit dominates (> W3) the lifetime
    inflow from that DApp."""
    attributed = {}  # (account, dapp) -> {seq set}
    for window in suspicious:
        nets = [(received - sent, cp) for cp, (received, sent) in sorted(window.flows.items())
                if cp in registry.dapp_accounts]
        net, dapp = max(nets, key=lambda pair: pair[0], default=(0, None))
        if net > 0:  # max keeps the first of equal nets
            attributed.setdefault((window.account, dapp), set()).update(window.seqs[dapp])
    if not attributed:
        return []

    names = events.names
    dapp_ids = [i for i, name in enumerate(names) if name in registry.dapp_accounts]
    from_dapp = np.isin(events.src, dapp_ids)
    _, _, (dst, src), (inflow,) = group_sums(
        (events.dst[from_dapp], events.src[from_dapp]), events.units[from_dapp])
    lifetime_in = {(names[d], names[s]): units for d, s, units in zip(
        dst.tolist(), src.tolist(), inflow.tolist())}  # (account, dapp) -> units

    row_of = {seq: row for row, seq in enumerate(events.seq.tolist())}
    srcs, units, us = events.src.tolist(), events.units.tolist(), events.us.tolist()
    results = []
    for (account, dapp), seqs in sorted(attributed.items()):
        total_in = lifetime_in.get((account, dapp), 0)
        if total_in == 0:
            continue  # nothing ever received from the DApp; diagnostic case
        rows = [row_of[seq] for seq in seqs]
        received = sum(units[r] for r in rows if names[srcs[r]] == dapp)
        sent = sum(units[r] for r in rows) - received
        profit = received - sent
        if profit <= 0 or float(Decimal(profit) / Decimal(total_in)) <= config.w3:
            continue
        ratio = INF_RATIO if sent == 0 else float(Decimal(received) / Decimal(sent))
        times = [us[r] for r in rows]
        results.append(AttackFinding(
            attacker=account, victim=dapp, kind="predictable_state",
            window_start=utc_from_us(min(times)), window_end=utc_from_us(max(times)),
            profit=eos_decimal(profit), profitability_ratio=ratio, evidence=sorted(seqs)))
    results.sort(key=lambda f: (f.attacker, f.window_start))
    return results


def load_rollback_log(path):
    """(tx_id, actor, timestamp) per line of an off-chain rollback NDJSON
    log; a line that does not decode is an IngestError naming it."""
    def fail(lineno, exc):
        raise IngestError(f"rollback log line {lineno}: {exc!r}") from exc

    def decode(obj):
        return obj["tx_id"], obj["actor"], parse_timestamp(obj["timestamp"])

    return [entry for _, _, entry in read_ndjson(path, "rollback log", decode, fail)]


def auxiliary_signals(account, deferred_counts, rollback_counts=None):
    """Step 3, automated portion: counts that support analyst review, read
    from per-actor tallies. rollback_count is None (unavailable) without an
    off-chain log, since rolled-back transactions never reach the chain."""
    rollbacks = None if rollback_counts is None else rollback_counts[account]
    return {"rollback_count": rollbacks, "deferred_count": deferred_counts[account]}


def scan_attacks(actions, registry, config: ScanConfig,
                 rollback_entries=None):
    """Run every detector and return deterministic, signal-annotated
    findings plus scan notes."""
    table = Actions.of(actions)
    events = genuine_transfer_events(table)
    notes = []
    fake_transfer = detect_fake_transfer(table, events, registry)
    fake_notice, notice_note = detect_fake_notice(table, events, registry)
    if notice_note:
        notes.append(notice_note)
    suspicious = profit_scan(events, config)
    predictable = liveness_filter(suspicious, events, registry, config)
    findings = fake_transfer + fake_notice + predictable
    attackers = sorted({f.attacker for f in findings})
    per_actor = np.bincount(table.actor[table.kind == DEFERRED], minlength=len(table.names))
    deferred = Counter({a: int(per_actor[i]) for a, i in zip(attackers, table.ids(attackers))
                        if i >= 0})
    rollbacks = (None if rollback_entries is None
                 else Counter(actor for _, actor, _ in rollback_entries))
    for finding in findings:
        finding.signals = auxiliary_signals(finding.attacker, deferred, rollbacks)
    findings.sort(key=lambda f: (f.attacker, f.window_start, f.kind))
    return findings, notes


# ---------------------------------------------------------------------------
# Evidence bundles


def evidence_bundle(finding: AttackFinding, actions_by_seq, emfg, out_dir):
    """Write a self-contained evidence directory: the finding, every
    referenced action verbatim (from `actions_by_seq`, global_seq ->
    ActionRecord), the attacker/victim money-flow sub-edge list, and a
    SHA-256 manifest. Missing referenced actions are fatal."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    missing = [seq for seq in finding.evidence if seq not in actions_by_seq]
    if missing:
        raise BundleError(f"evidence actions missing from trace: {missing[:5]}")

    finding_path = out_dir / "finding.json"
    finding_path.write_text(json.dumps(finding.to_json(), sort_keys=True, indent=2))

    write_ndjson(out_dir / "actions.ndjson",
                 (actions_by_seq[seq].to_json() for seq in finding.evidence))
    write_csv(out_dir / "flow.csv", ["from", "to", "day", "weight", "count"],
              ([src, dst, day, str(weight), count]
               for src, dst in ((finding.victim, finding.attacker),
                                (finding.attacker, finding.victim))
               for day, (weight, count) in sorted(emfg.edge_days(src, dst).items())))

    manifest = {
        name: file_sha256(out_dir / name).hexdigest()
        for name in ("finding.json", "actions.ndjson", "flow.csv")
    }
    (out_dir / "manifest.json").write_text(
        json.dumps(manifest, sort_keys=True, indent=2)
    )
    return out_dir


def verify_bundle(bundle_dir):
    bundle_dir = Path(bundle_dir)
    manifest_path = bundle_dir / "manifest.json"
    if not manifest_path.exists():
        raise BundleError(f"missing manifest in {bundle_dir}")
    manifest = json.loads(manifest_path.read_text())
    for name, digest in manifest.items():
        path = bundle_dir / name
        if not path.exists():
            raise BundleError(f"bundle file missing: {name}")
        if file_sha256(path).hexdigest() != digest:
            raise BundleError(f"bundle file tampered: {name}")
    return True
