"""Small builders shared across test modules."""

import math
from datetime import datetime, timedelta, timezone
from decimal import Decimal
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from eosforensics import forest
from eosforensics.attacks import INF_RATIO, AttackFinding, SuspiciousWindow
from eosforensics.errors import GraphError, IngestError, TrainingError
from eosforensics.graphs import DiGraph
from eosforensics.model import (
    MALFORMED_FATAL_RATIO,
    TIMESTAMP_RE,
    ActionRecord,
    Quantity,
    TraceParseResult,
    TransferPayload,
    decode_account,
    decode_action,
    extract_transfers,
    read_ndjson,
)


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


def oracle_parse_timestamp(text: str) -> datetime:
    """model.parse_timestamp as it was, one datetime constructor call: the
    reference for the memo's integer parse, values and messages alike."""
    if TIMESTAMP_RE.fullmatch(text) is None:
        raise ValueError(f"bad timestamp: {text!r}")
    # Fixed widths: the fraction, if any, is text[20:-1].
    return datetime(int(text[:4]), int(text[5:7]), int(text[8:10]),
                    int(text[11:13]), int(text[14:16]), int(text[17:19]),
                    int(text[20:-1].ljust(6, "0")), tzinfo=timezone.utc)


def oracle_parse_action_trace(path, window, digest=None) -> TraceParseResult:
    """model.parse_action_trace as it was before the Actions table, with one
    ActionRecord kept per row in a list. Moved as it stood but for two
    adaptations: read_ndjson now also yields each line's offset, and each
    line is decoded by decode_action alone, where one memo used to be shared
    across lines (test_matches_per_line_decode pins that the two agree)."""
    path = Path(path)
    records = []
    diagnostics = []
    dropped = 0
    last_seq = None
    lines = read_ndjson(path, "trace", decode_action,
                        lambda lineno, exc: diagnostics.append((lineno, str(exc))),
                        digest)
    for lineno, _, record in lines:
        if last_seq is not None and record.global_seq <= last_seq:
            diagnostics.append(
                (lineno, f"global_seq {record.global_seq} not increasing")
            )
            continue
        last_seq = record.global_seq
        if not window.contains(record.timestamp):
            dropped += 1
            continue
        records.append(record)

    # Every non-blank line is a record, a drop or a diagnostic.
    total = len(records) + dropped + len(diagnostics)
    if total and len(diagnostics) / total > MALFORMED_FATAL_RATIO:
        raise IngestError(
            f"{len(diagnostics)}/{total} malformed lines in {path}; "
            f"first: line {diagnostics[0][0]}: {diagnostics[0][1]}"
        )
    return TraceParseResult(records, dropped, diagnostics)


# The exact zero of a sum of EOS amounts, which all have four decimals.
ZERO_EOS = Decimal("0.0000")


def oracle_parse_account_snapshot(path, digest=None):
    """model.parse_account_snapshot as it was before the Accounts table: a
    dict of every AccountRecord, a dict walk over the creator pointers and a
    loop over the records for clock skew."""
    def fail(lineno, exc):
        raise IngestError(f"snapshot line {lineno}: {exc}") from exc

    accounts = {}
    warnings = []
    for _, _, record in read_ndjson(path, "snapshot", decode_account, fail, digest):
        if record.name in accounts:
            raise IngestError(f"duplicate account name: {record.name}")
        accounts[record.name] = record

    # Cycle check over creator pointers (creator may legitimately be
    # missing from the snapshot on partial captures; that breaks the chain).
    state = {}  # 0 = in progress, 1 = done
    for start in accounts:
        chain = []
        node = start
        while node is not None and node in accounts and node not in state:
            state[node] = 0
            chain.append(node)
            node = accounts[node].creator
            if node is not None and state.get(node) == 0:
                raise IngestError(f"creator cycle through account {node!r}")
        for n in chain:
            state[n] = 1

    for record in accounts.values():
        creator = accounts.get(record.creator) if record.creator else None
        if creator is not None and record.created_at < creator.created_at:
            warnings.append(
                f"{record.name} created before its creator {creator.name} "
                "(clock skew tolerated)"
            )
    return SimpleNamespace(accounts=accounts, warnings=warnings)


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


def from_edges(edges, nodes=()) -> DiGraph:
    """The DiGraph of the (u, v, weight) triples in `edges` plus the isolated
    `nodes`. The weights of a repeated (u, v) are summed in input order."""
    heads, tails, weights = [], [], []
    for head, tail, weight in edges:
        heads.append(head)
        tails.append(tail)
        weights.append(weight)
    names = tuple(sorted({*nodes, *heads, *tails}))
    index = {name: i for i, name in enumerate(names)}
    n = len(names)
    u = np.fromiter(map(index.__getitem__, heads), np.int64, len(heads))
    v = np.fromiter(map(index.__getitem__, tails), np.int64, len(tails))
    w = np.array(weights, dtype=np.float64)
    key, row = np.unique(u * n + v, return_inverse=True)
    weight = np.zeros(len(key))
    np.add.at(weight, row, w)
    return DiGraph(names, *np.divmod(key, n), weight)


class OracleEacg:
    """graphs.Eacg as the dicts it used to be, with its chain-walk depth:
    child -> (creator, creation day)."""

    def __init__(self):
        self.parent = {}  # child -> (creator, day)
        self.children = {}  # creator -> list of children
        self.roots = set()
        self._depth = {}

    def out_degree(self, account) -> int:
        return len(self.children.get(account, ()))

    def depth(self, account) -> int:
        """Root depth 0, child depth = parent depth + 1. Iterative so
        chains thousands deep (seen in the wild) do not blow the stack."""
        if account in self._depth:
            return self._depth[account]
        if account not in self.parent and account not in self.roots:
            raise GraphError(f"unknown account in creation forest: {account!r}")
        chain = []
        node = account
        while node not in self._depth:
            if node in self.roots:
                self._depth[node] = 0
                break
            chain.append(node)
            node = self.parent[node][0]
        for n in reversed(chain):
            self._depth[n] = self._depth[self.parent[n][0]] + 1
        return self._depth[account]

    def max_depth(self) -> int:
        return max((self.depth(n) for n in self.parent), default=0)


def oracle_eacg(snapshot, window):
    """graphs.build_eacg over the dict forest. Accounts whose creator is
    absent from the snapshot become roots."""
    g = OracleEacg()
    for name, record in snapshot.items():
        if record.creator is None or record.creator not in snapshot:
            g.roots.add(name)
        else:
            g.parent[name] = (record.creator, window.day_index(record.created_at))
            g.children.setdefault(record.creator, []).append(name)
    # forest identity: every non-root has exactly one parent by construction
    return g


def oracle_eacg_digraph(eacg):
    """graphs.eacg_to_digraph of an OracleEacg, built by from_edges."""
    return from_edges(
        ((creator, child, 1.0) for child, (creator, _) in eacg.parent.items()),
        eacg.roots,
    )


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


# ---------------------------------------------------------------------------
# Bot-pipeline oracles: the dict ECIG and the per-account feature and
# category rules, written over dict cells instead of the column graphs.

INVOCATION_KINDS = ("external", "inline", "deferred")


def oracle_ecig(actions, window):
    """graphs.build_ecig as the dict it used to be: caller -> contract ->
    day -> invocation count. Notification copies do not count."""
    out = {}
    for r in actions:
        if r.kind in INVOCATION_KINDS:
            slots = out.setdefault(r.actor, {}).setdefault(r.executing_contract, {})
            day = window.day_index(r.timestamp)
            slots[day] = slots.get(day, 0) + 1
    return out


def out_daily_counts(ecig, account):
    """day -> invocations by `account` of every contract but eosio.token."""
    counts = {}
    for contract, slots in ecig.get(account, {}).items():
        if contract != "eosio.token":
            for day, c in slots.items():
                counts[day] = counts.get(day, 0) + c
    return counts


def target_counts(ecig, account, exclude=()):
    """contract -> total invocations by `account`."""
    return {contract: sum(slots.values())
            for contract, slots in ecig.get(account, {}).items() if contract not in exclude}


def emfg_daily(cells, account, direction):
    """day -> (exact EOS volume, transfer count) over the account's outgoing
    ("out") or incoming ("in") edges of oracle_emfg cells."""
    daily = {}
    for src, dsts in cells.items():
        for dst, days in dsts.items():
            if account == (src if direction == "out" else dst):
                for day, (weight, count) in days.items():
                    w, c = daily.get(day, (ZERO_EOS, 0))
                    daily[day] = (w + weight, c + count)
    return daily


def oracle_vectors(account, cells, ecig, window, contract_index):
    """botnet.behavior_vectors' (time vector, target vector) over dict cells."""
    days = window.day_count
    t = np.zeros(2 * days)
    for day, (_, count) in emfg_daily(cells, account, "out").items():
        if 0 <= day < days:
            t[day] += count
    for day, count in out_daily_counts(ecig, account).items():
        if 0 <= day < days:
            t[days + day] += count
    s = np.zeros(len(contract_index))
    for contract, count in target_counts(ecig, account).items():
        if contract in contract_index:
            s[contract_index[contract]] = count
    return t, s


def oracle_silent(cells, ecig, snapshot):
    """Accounts of `snapshot` that never send EOS and never invoke a contract."""
    return {name for name in snapshot if not cells.get(name) and not ecig.get(name)}


def oracle_features(account, cells, ecig, eacg, snapshot, window):
    """botnet.extract_features' 11 values for one account, computed the
    per-account way over dict cells. Siblings share a creator in the
    snapshot, as the EACG links them."""
    record = snapshot[account]
    cohorts = {}
    for r in snapshot.values():
        if r.creator in snapshot:
            key = (r.creator, r.created_at.date())
            cohorts[key] = cohorts.get(key, 0) + 1
    siblings = (0 if record.creator not in snapshot
                else cohorts[(record.creator, record.created_at.date())] - 1)
    created_day = max(0, window.day_index(record.created_at))
    span = window.day_count - created_day
    if span <= 0:
        span = 1
        created_day = window.day_count - 1

    def daily_series(day_map):
        series = np.zeros(span)
        for day, value in day_map.items():
            if created_day <= day < window.day_count:
                series[day - created_day] = float(value)
        return series

    def money_flow(direction):
        daily = emfg_daily(cells, account, direction)
        return (daily_series({day: float(w) for day, (w, _) in daily.items()}),
                float(sum((w for w, _ in daily.values()), ZERO_EOS)),
                sum(c for _, c in daily.values()))

    in_vol, in_total, in_count = money_flow("in")
    out_vol, out_total, out_count = money_flow("out")
    inv_series = daily_series(out_daily_counts(ecig, account))
    return [float(v) for v in (
        eacg.depth(account),
        np.std(in_vol),
        np.std(out_vol),
        in_total / in_count if in_count else 0.0,
        out_total / out_count if out_count else 0.0,
        len(cells.get(account, {})),
        len(target_counts(ecig, account, exclude=("eosio.token",))),
        int(inv_series.sum()),
        np.std(inv_series),
        int(np.count_nonzero(out_vol + inv_series)) / span,
        siblings,
    )]


def active_keys(record) -> set:
    """The public keys of an AccountRecord's active permission."""
    active = record.permissions.get("active")
    return set() if active is None else {key for key, _ in active.key_weights}


def oracle_categorize(account, cells, ecig, snapshot, registry, merged=None):
    """botnet.categorize's label for one account, rule by rule over every
    DApp and every merged group."""
    record = snapshot.get(account)
    if account in registry.dapp_accounts:
        return "dapp_team"
    if record is not None and active_keys(record):
        for dapp in registry.dapp_accounts:
            dapp_record = snapshot.get(dapp)
            if dapp_record is not None and active_keys(record) & active_keys(dapp_record):
                return "dapp_team"
    inv_targets = target_counts(ecig, account, exclude=("eosio.token",))
    inv_total = sum(inv_targets.values())
    if account in registry.seller_seed:
        return "account_seller"
    for members in (merged or {}).values():
        if (account in members and len(members) >= 10 and not any(
                target_counts(ecig, m, exclude=("eosio.token",)) for m in members)):
            return "account_seller"
    if inv_total and sum(c for t, c in inv_targets.items()
                         if t in registry.incentive_dapps) / inv_total > 0.5:
        return "bonus_hunter"
    for dapp in registry.dapp_accounts:
        sent = float(sum((w for w, _ in cells.get(account, {}).get(dapp, {}).values()), ZERO_EOS))
        received = float(sum((w for w, _ in cells.get(dapp, {}).get(account, {}).values()),
                             ZERO_EOS))
        total = sent + received
        if total < 10 or total == 0:
            continue
        if max(sent, received) > 0 and min(sent, received) / max(sent, received) >= 0.95:
            return "click_fraud"
    return "other"


def oracle_merge_by_pubkey(flagged_accounts, snapshot):
    """Union-find over shared active public keys among flagged accounts.
    Returns a deterministic mapping community id -> sorted member list."""
    parent = {}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(a, b):
        ra, rb = find(a), find(b)
        if ra != rb:
            # keep the lexicographically smaller root for determinism
            if rb < ra:
                ra, rb = rb, ra
            parent[rb] = ra

    flagged = sorted(set(flagged_accounts))
    for acct in flagged:
        parent[acct] = acct
    key_owner = {}
    for acct in flagged:
        record = snapshot.get(acct)
        if record is None:
            continue
        for key in sorted(active_keys(record)):
            if key in key_owner:
                union(key_owner[key], acct)
            else:
                key_owner[key] = acct
    groups = {}
    for acct in flagged:
        groups.setdefault(find(acct), []).append(acct)
    return {
        f"pk-{i:04d}": sorted(members)
        for i, (_, members) in enumerate(sorted(groups.items()))
    }


class OracleTree(forest._Tree):
    """forest._Tree with the per-cell fit that the grid grower replaced."""

    __slots__ = ()

    def fit(self, X, y, max_depth, min_leaf, max_features, rng):
        """Grow the tree depth first, drawing each splittable node's feature
        subset from `rng`. Returns the deepest depth at which a node drew
        (-1 if none did): a fit with a max_depth above that depth draws and
        grows exactly the same, so it is the same tree."""
        root = self._new_node()
        stack = [(root, np.arange(X.shape[0]), 0)]
        n_features = X.shape[1]
        drew = -1
        while stack:
            node, idx, depth = stack.pop()
            ys = y[idx]
            pos = int(ys.sum())
            self.prob[node] = pos / len(ys)
            if (
                pos == 0
                or pos == len(ys)
                or len(ys) < 2 * min_leaf
                or (max_depth is not None and depth >= max_depth)
            ):
                continue
            drew = max(drew, depth)
            feats = rng.choice(n_features, size=max_features, replace=False)
            cols = X[idx[:, None], feats]
            best = oracle_best_split(cols, ys, min_leaf)
            if best is None:
                continue
            j, thr = best
            mask = cols[:, j] <= thr
            self.feature[node] = int(feats[j])
            self.threshold[node] = float(thr)
            left = self._new_node()
            right = self._new_node()
            self.left[node] = left
            self.right[node] = right
            stack.append((right, idx[~mask], depth + 1))
            stack.append((left, idx[mask], depth + 1))
        return drew


def oracle_best_split(cols, ys, min_leaf):
    """Exhaustive split search over the candidate feature columns `cols`
    (one row per sample at the node), all columns at once. Returns
    (column, threshold) or None. Columns are tried in order, and a later
    one wins only with a Gini lower by more than 1e-12."""
    n = len(ys)
    order = np.argsort(cols, axis=0, kind="stable")
    sorted_cols = cols[order, np.arange(cols.shape[1])]
    pos_left = np.cumsum(ys[order], axis=0)[:-1]
    n_left = np.arange(1, n)[:, None]
    n_right = n - n_left
    # splits only between distinct adjacent values, honoring min_leaf
    valid = sorted_cols[:-1] < sorted_cols[1:]
    valid &= (n_left >= min_leaf) & (n_right >= min_leaf)
    pos_right = ys.sum() - pos_left
    share_left = pos_left / n_left
    share_right = pos_right / n_right
    gini_left = 1.0 - share_left ** 2 - (1 - share_left) ** 2
    gini_right = 1.0 - share_right ** 2 - (1 - share_right) ** 2
    weighted = (n_left * gini_left + n_right * gini_right) / n
    weighted[~valid] = math.inf
    ks = np.argmin(weighted, axis=0)
    best_gini = math.inf
    best = None
    for j, k in enumerate(ks):
        if weighted[k, j] < best_gini - 1e-12:
            best_gini = weighted[k, j]
            best = (j, (sorted_cols[k, j] + sorted_cols[k + 1, j]) / 2.0)
    return best


def oracle_fit_prefixes(X, y, max_depths, min_leaf, seed, sizes):
    """forest._fit_prefixes for one min_leaf, one tree fit per cell: fit
    max(sizes) trees at each depth in `max_depths` and return, per depth,
    the trees and the out-of-bag accuracy (None when no row is ever out of
    bag) of each leading run of trees whose length is in `sizes`.

    Tree i is fitted first at the deepest depth (None is unlimited). A
    shallower depth d reuses the last tree fitted for tree i, with its
    out-of-bag predictions, when that tree drew features at no node of
    depth d or deeper: the depth-d fit would stop at the same nodes and
    draw the same features, so it is the same tree. Otherwise tree i is
    fitted afresh at depth d from the same seed child."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    if len(np.unique(y)) < 2:
        raise TrainingError("training labels contain a single class")
    n = X.shape[0]
    max_features = max(1, int(math.sqrt(X.shape[1])))
    depths = sorted(set(max_depths), key=lambda d: math.inf if d is None else d,
                    reverse=True)
    trees = {d: [] for d in depths}
    scores = {d: dict.fromkeys(sizes) for d in depths}
    oob_votes = {d: np.zeros(n) for d in depths}
    oob_counts = np.zeros(n)
    for k, ss in enumerate(np.random.SeedSequence(seed).spawn(max(sizes)), start=1):
        tree = None
        for d in depths:
            # only the first, deepest depth can be None, and it always fits
            if tree is None or drew >= d:
                rng = np.random.default_rng(ss)
                sample = rng.integers(0, n, size=n)
                tree = OracleTree()
                drew = tree.fit(X[sample], y[sample], d, min_leaf, max_features, rng)
                oob = np.ones(n, dtype=bool)
                oob[sample] = False
                oob_prob = tree.predict_prob(X[oob])
            trees[d].append(tree)
            oob_votes[d][oob] += oob_prob
        oob_counts[oob] += 1
        covered = oob_counts > 0
        if k in sizes and covered.any():
            for d in depths:
                pred = (oob_votes[d][covered] / oob_counts[covered]) >= 0.5
                scores[d][k] = float(np.mean(pred == (y[covered] == 1)))
    return {d: (trees[d], scores[d]) for d in depths}


def oracle_trace_lines(chain, first_seq=1):
    """The trace objects `synthgen._Chain` once built, one dict per record of
    chain.records (in list order) from global_seq `first_seq`: each written
    trace line is json.dumps(obj, sort_keys=True) of one of them."""

    def stamp(day, sec):
        return (chain.window.day_date(day).isoformat()
                + f"T{sec // 3600:02d}:{sec % 3600 // 60:02d}:{sec % 60:02d}Z")

    for seq, (key, _, contract, action, actor, kind, payload, notified) in enumerate(
        chain.records, start=first_seq
    ):
        day, sec = divmod(key, 86400)
        obj = {
            "global_seq": seq,
            "tx_id": f"{seq:016x}",
            "timestamp": stamp(day, sec),
            "executing_contract": contract,
            "action_name": action,
            "actor": actor,
            "kind": kind,
            "payload": (
                {"from": payload[1], "to": payload[2],
                 "quantity": payload[3], "memo": payload[4]}
                if payload[0] == "T"
                else payload[1]
            ),
        }
        if notified is not None:
            obj["notified"] = notified
        yield obj
