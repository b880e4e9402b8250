"""Attack detection: fake EOS transfer/notice patterns and the staged
profit scan for predictable-state exploits, plus evidence bundles."""

from __future__ import annotations

import hashlib
import json
from collections import Counter
from dataclasses import dataclass, field
from datetime import datetime, timedelta
from decimal import Decimal
from pathlib import Path

import numpy as np

from .errors import BundleError, ConfigError, IngestError
from .model import (
    OFFICIAL_TOKEN_CONTRACT,
    TransferPayload,
    format_timestamp,
    is_genuine_transfer,
    parse_timestamp,
    read_ndjson,
    write_csv,
    write_ndjson,
)

INF_RATIO = float("inf")
INT64_MAX = 2**63 - 1


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


@dataclass(frozen=True, slots=True)
class TransferEvent:
    seq: int
    timestamp: datetime
    src: str
    dst: str
    amount: Decimal


def genuine_transfer_events(actions):
    return [
        TransferEvent(r.global_seq, r.timestamp, r.payload.src, r.payload.dst,
                      r.payload.quantity.amount)
        for r in actions
        if is_genuine_transfer(r)
    ]


def _day_bounds(ts: datetime):
    start = ts.replace(hour=0, minute=0, second=0, microsecond=0)
    return start, start + timedelta(days=1) - timedelta(seconds=1)


def _same_day_flows(events):
    """(day, src, dst) -> that day's events from src to dst, in order."""
    flows = {}
    for ev in events:
        flows.setdefault((ev.timestamp.date(), ev.src, ev.dst), []).append(ev)
    return flows


def _fake_findings(actions, events, registry, kind, claim):
    """The loop both fake detectors share. `claim(record)` returns the
    (attacker, victim) an EOS-symbol transfer record implicates, or None;
    a claim against a DApp account is a finding, once per (attacker,
    victim, day), when the attacker's same-day net gain from the victim
    over the genuine `events` (so no self-transfers) is positive."""
    flows = None  # built on the first claim against a DApp
    findings = []
    seen = set()
    for record in actions:
        if (
            record.action_name != "transfer"
            or not isinstance(record.payload, TransferPayload)
            or record.payload.quantity.symbol != "EOS"
        ):
            continue
        pair = claim(record)
        if pair is None or pair[1] not in registry.dapp_accounts:
            continue
        attacker, victim = pair
        day = record.timestamp.date()
        if (attacker, victim, day) in seen:
            continue
        if flows is None:
            flows = _same_day_flows(events)
        received = flows.get((day, victim, attacker), [])
        sent = flows.get((day, attacker, victim), [])
        profit = (sum((ev.amount for ev in received), Decimal(0))
                  - sum((ev.amount for ev in sent), Decimal(0)))
        if profit <= 0:
            continue
        seen.add((attacker, victim, day))
        start, end = _day_bounds(record.timestamp)
        findings.append(
            AttackFinding(
                attacker=attacker,
                victim=victim,
                kind=kind,
                window_start=start,
                window_end=end,
                profit=profit,
                profitability_ratio=INF_RATIO,
                evidence=sorted({record.global_seq, *(ev.seq for ev in received + sent)}),
            )
        )
    findings.sort(key=lambda f: (f.attacker, f.window_start))
    return findings


def _counterfeit_transfer(record):
    # a transfer executed by a contract other than eosio.token: the claimed
    # sender attacks the claimed receiver
    if (
        record.kind != "notification"
        and record.executing_contract != OFFICIAL_TOKEN_CONTRACT
    ):
        return record.payload.src, record.payload.dst
    return None


def _third_party_notice(record):
    # a genuine transfer's notification delivered to an account on neither
    # side: the authorizing actor attacks the notified account
    if (
        record.kind == "notification"
        and record.executing_contract == OFFICIAL_TOKEN_CONTRACT
        and record.notified not in (record.payload.src, record.payload.dst)
    ):
        return record.actor, record.notified
    return None


def detect_fake_transfer(actions, events, registry):
    """Transfer-named actions carrying the EOS symbol but executed by a
    contract other than eosio.token, aimed at a DApp account, corroborated
    by same-day profit from that DApp. `events` are the trace's
    genuine_transfer_events."""
    return _fake_findings(actions, events, registry, "fake_transfer",
                          _counterfeit_transfer)


def detect_fake_notice(actions, events, registry):
    """Genuine eosio.token transfer notifications delivered to a DApp
    account that is neither side of the transfer, corroborated by
    same-day profit for the notification's authorizing actor. Returns
    (findings, note); the note says why the scan could not run."""
    if not any(r.kind == "notification" for r in actions):
        return [], "insufficient data: no notification records in trace"
    return _fake_findings(actions, events, registry, "fake_notice",
                          _third_party_notice), None


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
    """The SuspiciousWindow of one (account, bucket) group, rebuilt from its
    `rows` in order (row 2i: event i's receiver, row 2i + 1: its sender)
    with Decimal sums; None when it fails W1 or W2."""
    flows = {}  # cp -> [received, sent, seqs]
    for row in rows:
        ev = events[row >> 1]
        received = not row & 1
        cp = ev.src if received else ev.dst
        cell = flows.get(cp)
        if cell is None:
            cell = flows[cp] = [Decimal(0), Decimal(0), []]
        cell[0 if received else 1] += ev.amount
        cell[2].append(ev.seq)
    received = sum((c[0] for c in flows.values()), Decimal(0))
    sent = sum((c[1] for c in flows.values()), Decimal(0))
    profit = received - sent
    if profit <= config.w1:
        return None
    if sent == 0:
        ratio = INF_RATIO
    else:
        ratio = float(received / sent)
        if ratio <= config.w2:
            return None
    first = events[rows[0] >> 1]
    start = first.timestamp.replace(minute=0, second=0, microsecond=0)
    span = timedelta(hours=1)
    if granularity == "day":
        start, span = start.replace(hour=0), timedelta(days=1)
    return SuspiciousWindow(
        account=first.src if rows[0] & 1 else first.dst, start=start,
        end=start + span - timedelta(seconds=1), profit=profit, ratio=ratio,
        granularity=granularity, flows={cp: (c[0], c[1]) for cp, c in flows.items()},
        seqs={cp: c[2] for cp, c in flows.items()})


def profit_scan(events, config: ScanConfig):
    """Step 1: flag (account, window) pairs whose net inflow exceeds W1
    with a received/sent ratio above W2. Pure inflow (sent = 0) counts
    with an infinite-ratio sentinel. Windows are calendar-aligned UTC
    days and hours.

    Nets are grouped in exact integer units: with `scale` the most
    fractional digits of any amount (4 for EOS), an amount is
    amount * 10**scale units. An integer net exceeds W1 exactly when it
    exceeds floor(W1 * 10**scale), so only the windows passing that filter
    are rebuilt, from their own transfers, with Decimal sums and the W2
    check. A total volume of 2**63 units or more is an IngestError; a W1
    at or beyond that range flags no window."""
    if not events:
        return []
    amounts = [ev.amount for ev in events]
    scale = max(0, -min(a.as_tuple().exponent for a in amounts))
    units = [int(a.scaleb(scale)) for a in amounts]
    if sum(map(abs, units)) > INT64_MAX:
        raise IngestError(f"transfer volume exceeds 2**63 - 1 token units of 10**-{scale}")
    if config.w1 >= INT64_MAX:
        return []  # no net of at most INT64_MAX units exceeds it
    num, den = config.w1.as_integer_ratio()
    threshold = min(num * 10**scale // den, INT64_MAX)

    ids = {}
    account = np.array([ids.setdefault(name, len(ids))
                        for ev in events for name in (ev.dst, ev.src)], dtype=np.int64)
    delta = np.repeat(np.array(units, dtype=np.int64), 2)
    delta[1::2] *= -1
    hour = np.repeat(np.array([ev.timestamp.toordinal() * 24 + ev.timestamp.hour
                               for ev in events], dtype=np.int64), 2)

    out = []
    for granularity, bucket in (("day", hour // 24), ("hour", hour)):
        # lexsort is stable: each group's rows stay in event order
        order = np.lexsort((bucket, account))
        a, b = account[order], bucket[order]
        starts = np.flatnonzero(np.r_[True, (a[1:] != a[:-1]) | (b[1:] != b[:-1])])
        net = np.add.reduceat(delta[order], starts)
        ends = np.r_[starts[1:], len(order)]
        for g in np.flatnonzero(net > threshold):
            window = _flagged_window(events, order[starts[g]:ends[g]].tolist(),
                                     granularity, config)
            if window is not None:
                out.append(window)
    out.sort(key=lambda w: (w.account, w.granularity, w.start))
    return out


def liveness_filter(suspicious, events, registry, config: ScanConfig):
    """Step 2: attribute each flagged window to the DApp counterparty
    contributing the most profit, then keep accounts whose attributed
    profit dominates (> W3) the lifetime inflow from that DApp."""
    lifetime_in = {}  # (account, dapp) -> total received ever
    for ev in events:
        if ev.src in registry.dapp_accounts:
            key = (ev.dst, ev.src)
            lifetime_in[key] = lifetime_in.get(key, Decimal(0)) + ev.amount

    attributed = {}  # (account, dapp) -> {seq set}
    for window in suspicious:
        best_dapp = None
        best_profit = Decimal(0)
        for cp, (received, sent) in sorted(window.flows.items()):
            if cp not in registry.dapp_accounts:
                continue
            net = received - sent
            if net > best_profit:
                best_profit = net
                best_dapp = cp
        if best_dapp is None:
            continue
        attributed.setdefault((window.account, best_dapp), set()).update(
            window.seqs[best_dapp]
        )

    events_by_seq = {ev.seq: ev for ev in events}
    results = []
    for (account, dapp), seqs in sorted(attributed.items()):
        total_in = lifetime_in.get((account, dapp), Decimal(0))
        if total_in == 0:
            continue  # nothing ever received from the DApp; diagnostic case
        received = Decimal(0)
        sent = Decimal(0)
        times = []
        for seq in seqs:
            ev = events_by_seq[seq]
            times.append(ev.timestamp)
            if ev.src == dapp:
                received += ev.amount
            else:
                sent += ev.amount
        profit = received - sent
        if profit <= 0:
            continue
        p = float(profit / total_in)
        if p <= config.w3:
            continue
        ratio = INF_RATIO if sent == 0 else float(received / sent)
        results.append(
            AttackFinding(
                attacker=account,
                victim=dapp,
                kind="predictable_state",
                window_start=min(times),
                window_end=max(times),
                profit=profit,
                profitability_ratio=ratio,
                evidence=sorted(seqs),
            )
        )
    results.sort(key=lambda f: (f.attacker, f.window_start))
    return results


def load_rollback_log(path):
    """(tx_id, actor, timestamp) per line of an off-chain rollback NDJSON
    log; a line that does not decode is an IngestError naming it."""
    def fail(lineno, exc):
        raise IngestError(f"rollback log line {lineno}: {exc!r}") from exc

    def decode(obj):
        return obj["tx_id"], obj["actor"], parse_timestamp(obj["timestamp"])

    return [entry for _, entry in read_ndjson(path, "rollback log", decode, fail)]


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
    events = genuine_transfer_events(actions)
    notes = []
    fake_transfer = detect_fake_transfer(actions, events, registry)
    fake_notice, notice_note = detect_fake_notice(actions, events, registry)
    if notice_note:
        notes.append(notice_note)
    suspicious = profit_scan(events, config)
    predictable = liveness_filter(suspicious, events, registry, config)
    findings = fake_transfer + fake_notice + predictable
    deferred = Counter(r.actor for r in actions if r.kind == "deferred")
    rollbacks = (None if rollback_entries is None
                 else Counter(actor for _, actor, _ in rollback_entries))
    for finding in findings:
        finding.signals = auxiliary_signals(finding.attacker, deferred, rollbacks)
    findings.sort(key=lambda f: (f.attacker, f.window_start, f.kind))
    return findings, notes


# ---------------------------------------------------------------------------
# Evidence bundles


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with path.open("rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()


def evidence_bundle(finding: AttackFinding, actions_by_seq, emfg, out_dir):
    """Write a self-contained evidence directory: the finding, every
    referenced action verbatim, the attacker/victim money-flow sub-edge
    list, and a SHA-256 manifest. Missing referenced actions are fatal."""
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
        name: _sha256(out_dir / name)
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
        if _sha256(path) != digest:
            raise BundleError(f"bundle file tampered: {name}")
    return True
