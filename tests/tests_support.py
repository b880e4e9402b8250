"""Small builders shared across test modules."""

from datetime import datetime, timedelta, timezone
from decimal import Decimal

from eosforensics.attacks import INF_RATIO, AttackFinding, SuspiciousWindow
from eosforensics.model import ActionRecord, Quantity, TransferPayload, extract_transfers


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


# The exact zero of a sum of EOS amounts, which all have four decimals.
ZERO_EOS = Decimal("0.0000")


def transfer_rows(table):
    """(seq, timestamp, src, dst, EOS amount) per row of a Transfers table,
    built without the program's own conversions."""
    epoch = datetime(1970, 1, 1, tzinfo=timezone.utc)
    for seq, us, src, dst, units in zip(table.seq.tolist(), table.us.tolist(),
                                        table.src.tolist(), table.dst.tolist(),
                                        table.units.tolist()):
        yield (seq, epoch + timedelta(microseconds=us), table.names[src],
               table.names[dst], Decimal(units).scaleb(-4))


def transfers_of(rows, window=None):
    """The Transfers table of (timestamp, src, dst, amount) rows, built by
    extract_transfers from one make_transfer record each (seq 1, 2, ...)."""
    return extract_transfers([make_transfer(seq, src, dst, amount, when=when)
                              for seq, (when, src, dst, amount) in enumerate(rows, start=1)],
                             window)


def oracle_emfg(actions, window):
    """graphs.build_emfg(extract_transfers(actions, window)) as the dict of
    Decimal cells it used to be: src -> dst -> day -> [EOS weight, count]."""
    out = {}
    for r in actions:
        p = r.payload
        if (r.action_name == "transfer" and r.executing_contract == "eosio.token"
                and r.kind != "notification" and isinstance(p, TransferPayload)
                and p.quantity.symbol == "EOS" and p.src != p.dst):
            day = window.day_index(r.timestamp)
            cell = out.setdefault(p.src, {}).setdefault(p.dst, {}).setdefault(
                day, [ZERO_EOS, 0])
            cell[0] += p.quantity.amount
            cell[1] += 1
    return out


def oracle_profit_scan(events, config):
    """attacks.profit_scan as one dict bucket per (account, granularity,
    window start), updated per transfer with Decimal sums: the reference
    the grouped integer scan must match window for window."""
    buckets = {}  # (account, granularity, bucket_start) -> {cp: [recv, sent, seqs]}

    def touch(account, cp, seq, when, amount, received):
        for gran in ("day", "hour"):
            if gran == "day":
                start = when.replace(hour=0, minute=0, second=0, microsecond=0)
            else:
                start = when.replace(minute=0, second=0, microsecond=0)
            bucket = buckets.setdefault((account, gran, start), {})
            cell = bucket.get(cp)
            if cell is None:
                cell = bucket[cp] = [ZERO_EOS, ZERO_EOS, []]
            cell[0 if received else 1] += amount
            cell[2].append(seq)

    for seq, when, src, dst, amount in transfer_rows(events):
        touch(dst, src, seq, when, amount, True)
        touch(src, dst, seq, when, amount, False)

    out = []
    for (account, gran, start), flows in sorted(buckets.items()):
        received = sum((c[0] for c in flows.values()), ZERO_EOS)
        sent = sum((c[1] for c in flows.values()), ZERO_EOS)
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


def oracle_liveness_filter(suspicious, events, registry, config):
    """attacks.liveness_filter with lifetime inflow summed per transfer into
    a dict and Decimal sums: the reference for the grouped version."""
    rows = list(transfer_rows(events))
    lifetime_in = {}  # (account, dapp) -> total received ever
    for _, _, src, dst, amount in rows:
        if src in registry.dapp_accounts:
            key = (dst, src)
            lifetime_in[key] = lifetime_in.get(key, ZERO_EOS) + amount

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

    rows_by_seq = {row[0]: row for row in rows}
    results = []
    for (account, dapp), seqs in sorted(attributed.items()):
        total_in = lifetime_in.get((account, dapp), ZERO_EOS)
        if total_in == 0:
            continue
        received = ZERO_EOS
        sent = ZERO_EOS
        times = []
        for seq in seqs:
            _, when, src, _, amount = rows_by_seq[seq]
            times.append(when)
            if src == dapp:
                received += amount
            else:
                sent += amount
        profit = received - sent
        if profit <= 0:
            continue
        if float(profit / total_in) <= config.w3:
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
