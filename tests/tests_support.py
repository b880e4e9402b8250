"""Small builders shared across test modules."""

from datetime import datetime, timedelta, timezone
from decimal import Decimal

from eosforensics.attacks import INF_RATIO, SuspiciousWindow
from eosforensics.model import ActionRecord, Quantity, TransferPayload


def ts(day=1, hour=12, minute=0, second=0):
    return datetime(2018, 6, 8 + day, hour, minute, second, tzinfo=timezone.utc)


def make_action(seq, *, contract="gamehouse", action="play", actor="alice",
                kind="external", payload=None, notified=None, when=None):
    return ActionRecord(
        global_seq=seq,
        tx_id=f"{seq:016x}",
        timestamp=when or ts(),
        executing_contract=contract,
        action_name=action,
        actor=actor,
        kind=kind,
        payload=payload if payload is not None else {},
        notified=notified,
    )


def make_transfer(seq, src, dst, amount, *, when=None, contract="eosio.token",
                  kind="external", symbol="EOS", notified=None):
    return ActionRecord(
        global_seq=seq,
        tx_id=f"{seq:016x}",
        timestamp=when or ts(),
        executing_contract=contract,
        action_name="transfer",
        actor=src,
        kind=kind,
        payload=TransferPayload(src, dst, Quantity(Decimal(str(amount)), symbol), ""),
        notified=notified,
    )


def oracle_profit_scan(events, config):
    """attacks.profit_scan as one dict bucket per (account, granularity,
    window start), updated per transfer with Decimal sums: the reference
    the grouped integer scan must match window for window."""
    buckets = {}  # (account, granularity, bucket_start) -> {cp: [recv, sent, seqs]}

    def touch(account, cp, ev, received):
        for gran in ("day", "hour"):
            if gran == "day":
                start = ev.timestamp.replace(hour=0, minute=0, second=0,
                                             microsecond=0)
            else:
                start = ev.timestamp.replace(minute=0, second=0, microsecond=0)
            bucket = buckets.setdefault((account, gran, start), {})
            cell = bucket.get(cp)
            if cell is None:
                cell = bucket[cp] = [Decimal(0), Decimal(0), []]
            cell[0 if received else 1] += ev.amount
            cell[2].append(ev.seq)

    for ev in events:
        touch(ev.dst, ev.src, ev, True)
        touch(ev.src, ev.dst, ev, False)

    out = []
    for (account, gran, start), flows in sorted(buckets.items()):
        received = sum((c[0] for c in flows.values()), Decimal(0))
        sent = sum((c[1] for c in flows.values()), Decimal(0))
        profit = received - sent
        if profit <= config.w1:
            continue
        if sent == 0:
            ratio = INF_RATIO
        else:
            ratio = float(received / sent)
            if ratio <= config.w2:
                continue
        span = timedelta(days=1) if gran == "day" else timedelta(hours=1)
        out.append(
            SuspiciousWindow(
                account=account,
                start=start,
                end=start + span - timedelta(seconds=1),
                profit=profit,
                ratio=ratio,
                granularity=gran,
                flows={cp: (c[0], c[1]) for cp, c in flows.items()},
                seqs={cp: list(c[2]) for cp, c in flows.items()},
            )
        )
    return out
