"""Domain types for chain data and file ingestion.

File formats (all newline-delimited, UTF-8):

* action trace: one JSON object per line, fields matching ActionRecord;
  global_seq is a JSON integer and tx_id a string. Timestamps are ISO-8601
  UTC, "YYYY-MM-DDTHH:MM:SSZ" with an optional fraction of 1-6 digits
  before the "Z" ("2018-06-10T00:00:00.500Z"); quantities are strings like
  "1.0000 EOS". A transfer payload decodes to a TransferPayload (account
  names from/to, a string memo), and an updateauth payload of the system
  account (only) to an UpdateAuthPayload; every other payload stays a dict.
* account snapshot: one JSON object per line per account; each permission
  is an Authority.
* Every NDJSON file, input or stage output, is read by one line reader,
  read_ndjson: each stripped line is decoded by the JSON scanner, and a
  line the scanner does not take whole is decoded again by json.loads, so
  that a bad line's message is exactly json.loads's.
* Every NDJSON stage output is written by write_ndjson (one sorted-key JSON
  object per line) and every CSV one by write_csv (csv.writer's default
  dialect: a header row, then one row per record, "\r\n" line ends).
* Authority, the one type of an EOSIO authority: threshold and weights
  integers >= 1, public keys non-empty strings, granted accounts and permissions
  account names. Its one decoder is from_json and its one encoder to_json.
* registries: CSV files with a header row (see Registry.load).
* Transfers, the one form of a genuine EOS transfer after parsing: read-only
  int64 columns, one row per transfer in trace order. `seq`; `us`, UTC
  microseconds since the epoch; `day`, the window day index (days since the
  epoch without a window); `src` and `dst`, ids into the sorted `names`; and
  `units`, the amount in 10**-4 EOS as an EOSIO asset stores it. Their sum
  stays below 2**63; amounts become Decimals only where they leave the program.
"""

from __future__ import annotations

import csv
import hashlib
import json
import re
import sys
from collections.abc import Mapping
from dataclasses import dataclass, field
from datetime import date, datetime, timedelta, timezone
from decimal import Decimal, InvalidOperation
from pathlib import Path

import numpy as np

from .errors import IngestError

ACCOUNT_NAME_RE = re.compile(r"[a-z1-5.]{1,12}")
SYMBOL_RE = re.compile(r"[A-Z]{1,7}")
QUANTITY_RE = re.compile(r"(\d+)(?:\.(\d{1,18}))? ([A-Z]{1,7})")
TIMESTAMP_RE = re.compile(
    r"[0-9]{4}-[0-9]{2}-[0-9]{2}T[0-9]{2}:[0-9]{2}:[0-9]{2}(?:\.[0-9]{1,6})?Z"
)

OFFICIAL_TOKEN_CONTRACT = "eosio.token"
SYSTEM_ACCOUNT = "eosio"

KINDS = ("external", "inline", "deferred", "notification")

# Inside the program an EOS amount is an int64 count of 10**-EOS_PRECISION
# EOS units, and no sum of them may exceed INT64_MAX.
EOS_PRECISION = 4
UNITS_PER_EOS = 10**EOS_PRECISION
INT64_MAX = 2**63 - 1
EPOCH = datetime(1970, 1, 1, tzinfo=timezone.utc)
ONE_US = timedelta(microseconds=1)
US_PER_DAY = 86_400_000_000

# Fraction of malformed lines above which ingestion aborts.
MALFORMED_FATAL_RATIO = 0.01

# What decoding one malformed input line raises: bad UTF-8 and bad JSON are
# ValueErrors, JSON's Infinity as an integer field raises OverflowError, and
# JSON nested deeper than the decoder's recursion limit raises RecursionError.
LINE_ERRORS = (ValueError, KeyError, TypeError, OverflowError, RecursionError,
               InvalidOperation)


def is_account_name(name) -> bool:
    return isinstance(name, str) and ACCOUNT_NAME_RE.fullmatch(name) is not None


def check_name(name, what: str):
    """`name` if it is an account name, else a ValueError naming `what`."""
    if not is_account_name(name):
        raise ValueError(f"bad {what} name: {name!r}")
    return name


@dataclass(frozen=True, slots=True)
class Quantity:
    """A fixed-point token amount with `precision` fractional digits (0-18,
    as in an EOSIO asset symbol). EOS has exactly EOS_PRECISION."""

    amount: Decimal
    symbol: str
    precision: int = EOS_PRECISION

    def __post_init__(self):
        if self.amount < 0:
            raise ValueError(f"negative quantity: {self.amount}")
        if not SYMBOL_RE.fullmatch(self.symbol):
            raise ValueError(f"bad token symbol: {self.symbol!r}")
        if self.symbol == "EOS" and self.precision != EOS_PRECISION:
            raise ValueError(f"EOS precision must be {EOS_PRECISION}, not {self.precision}")
        # so amount * 10**precision is an exact integer
        if not self.amount.is_finite() or self.amount.as_tuple().exponent < -self.precision:
            raise ValueError(f"{self.amount} has more than {self.precision} decimals")

    @classmethod
    def parse(cls, text: str) -> "Quantity":
        m = QUANTITY_RE.fullmatch(text)
        if m is None:
            raise ValueError(f"bad quantity string: {text!r}")
        units, fraction, symbol = m.groups()
        fraction = fraction or ""
        return cls(Decimal(f"{units}.{fraction}"), symbol, len(fraction))

    def __str__(self) -> str:
        return f"{self.amount:.{self.precision}f} {self.symbol}"


@dataclass(frozen=True, slots=True)
class TransferPayload:
    src: str
    dst: str
    quantity: Quantity
    memo: str

    def to_json(self) -> dict:
        return {
            "from": self.src,
            "to": self.dst,
            "quantity": str(self.quantity),
            "memo": self.memo,
        }


def _check_count(value, what: str) -> None:
    """A threshold or weight: a JSON integer (not a bool) of at least 1."""
    if type(value) is not int or value < 1:
        raise ValueError(f"{what} must be >= 1 and an integer, not {value!r}")


@dataclass(frozen=True, slots=True)
class Authority:
    """An EOSIO permission authority, of a snapshot permission or an
    updateauth: key and account@permission weights against a threshold."""

    threshold: int
    key_weights: tuple  # of (public_key, weight)
    account_weights: tuple  # of (granted_account, granted_permission, weight)

    def __post_init__(self):
        _check_count(self.threshold, "threshold")
        for key, w in self.key_weights:
            if not (isinstance(key, str) and key):
                raise ValueError(f"bad public key: {key!r}")
            _check_count(w, "key weight")
        for account, permission, w in self.account_weights:
            check_name(account, "granted account")
            check_name(permission, "granted permission")
            _check_count(w, "account weight")

    @classmethod
    def from_json(cls, obj) -> "Authority":
        threshold = obj["threshold"]  # first: a non-object raises TypeError here
        keys, accounts = obj.get("key_weights", []), obj.get("account_weights", [])
        if not all(isinstance(x, list) for x in (keys, accounts, *keys, *accounts)):
            raise ValueError("key_weights and account_weights must be lists of lists")
        return cls(threshold, tuple((k, w) for k, w in keys),
                   tuple((a, p, w) for a, p, w in accounts))

    def to_json(self) -> dict:
        return {"threshold": self.threshold,
                "key_weights": [list(kw) for kw in self.key_weights],
                "account_weights": [list(aw) for aw in self.account_weights]}


@dataclass(frozen=True, slots=True)
class UpdateAuthPayload:
    """The system account's updateauth of `account`@`permission` under `parent`."""

    account: str
    permission: str
    parent: str
    authority: Authority

    def __post_init__(self):
        check_name(self.account, "account")
        check_name(self.permission, "permission")
        if self.parent != "":
            check_name(self.parent, "parent permission")

    def to_json(self) -> dict:
        return {"account": self.account, "permission": self.permission,
                "parent": self.parent, **self.authority.to_json()}


@dataclass(slots=True)
class ActionRecord:
    """One executed action: external call, inline call, deferred, or a
    notification copy delivered to a third account."""

    global_seq: int
    tx_id: str
    timestamp: datetime
    executing_contract: str
    action_name: str
    actor: str
    kind: str
    payload: object  # TransferPayload | UpdateAuthPayload | dict
    notified: str | None = None

    def payload_json(self) -> dict:
        if isinstance(self.payload, (TransferPayload, UpdateAuthPayload)):
            return self.payload.to_json()
        return self.payload

    def to_json(self) -> dict:
        obj = {
            "global_seq": self.global_seq,
            "tx_id": self.tx_id,
            "timestamp": format_timestamp(self.timestamp),
            "executing_contract": self.executing_contract,
            "action_name": self.action_name,
            "actor": self.actor,
            "kind": self.kind,
            "payload": self.payload_json(),
        }
        if self.notified is not None:
            obj["notified"] = self.notified
        return obj


@dataclass(slots=True)
class AccountRecord:
    name: str
    creator: str | None
    created_at: datetime
    permissions: dict  # permission name -> Authority
    has_contract: bool = False

    def keys(self) -> set:
        """Union of public keys across all permissions."""
        out = set()
        for perm in self.permissions.values():
            out.update(k for k, _ in perm.key_weights)
        return out

    def active_keys(self) -> set:
        perm = self.permissions.get("active")
        if perm is None:
            return set()
        return {k for k, _ in perm.key_weights}

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "creator": self.creator,
            "created_at": format_timestamp(self.created_at),
            "has_contract": self.has_contract,
            "permissions": {name: authority.to_json()
                            for name, authority in self.permissions.items()},
        }


@dataclass(frozen=True)
class ObservationWindow:
    """Inclusive UTC day span all day indices are computed against."""

    start_day: date
    end_day: date

    def __post_init__(self):
        if self.start_day > self.end_day:
            raise ValueError("start_day after end_day")

    @property
    def day_count(self) -> int:
        return (self.end_day - self.start_day).days + 1

    def day_index(self, ts: datetime) -> int:
        return (ts.date() - self.start_day).days

    def contains(self, ts: datetime) -> bool:
        return self.start_day <= ts.date() <= self.end_day

    def day_date(self, index: int) -> date:
        return self.start_day + timedelta(days=index)


@dataclass
class Registry:
    """Off-chain knowledge: DApp labels, incentive DApps, labeled
    communities, and known account sellers."""

    dapp_accounts: dict = field(default_factory=dict)  # account -> (dapp, category)
    incentive_dapps: set = field(default_factory=set)
    labeled_bot_communities: list = field(default_factory=list)  # (controller, set)
    labeled_normal_communities: list = field(default_factory=list)
    seller_seed: set = field(default_factory=set)

    def __post_init__(self):
        bots = set()
        for _, members in self.labeled_bot_communities:
            bots.update(members)
        for _, members in self.labeled_normal_communities:
            overlap = bots.intersection(members)
            if overlap:
                raise IngestError(
                    f"accounts labeled both bot and normal: {sorted(overlap)[:5]}"
                )

    @classmethod
    def load(cls, dapps=None, incentives=None, labels=None, sellers=None) -> "Registry":
        """Load registry CSVs.

        dapps.csv: account,dapp,category
        incentives.csv: account
        labels.csv: community_id,role,account   (role in {bot, normal})
        sellers.csv: account
        """
        reg = {row["account"]: (row["dapp"], row["category"])
               for row in _read_csv(dapps, ("account", "dapp", "category"))}
        communities = {"bot": {}, "normal": {}}
        for row in _read_csv(labels, ("community_id", "role", "account")):
            if row["role"] not in communities:
                raise IngestError(f"{labels}: role {row['role']!r} is neither bot nor normal")
            communities[row["role"]].setdefault(row["community_id"], set()).add(row["account"])
        return cls(
            dapp_accounts=reg,
            incentive_dapps={row["account"] for row in _read_csv(incentives, ("account",))},
            labeled_bot_communities=sorted(communities["bot"].items()),
            labeled_normal_communities=sorted(communities["normal"].items()),
            seller_seed={row["account"] for row in _read_csv(sellers, ("account",))},
        )


def _read_csv(path, columns) -> list:
    """The rows of a registry CSV (none without `path`) that has `columns`."""
    if not path:
        return []
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.DictReader(fh)
            missing = [c for c in columns if c not in (reader.fieldnames or ())]
            if missing:
                raise IngestError(f"{path}: header lacks column(s) {', '.join(missing)}")
            rows = list(reader)
    except (UnicodeDecodeError, csv.Error) as exc:
        raise IngestError(f"{path}: {exc}") from exc
    if any(None in row.values() for row in rows):
        raise IngestError(f"{path}: a row has fewer fields than the header")
    return rows


def format_timestamp(ts: datetime) -> str:
    """The inverse of parse_timestamp: whole seconds as "...:SSZ", a
    fraction as milliseconds when it has no finer digits, else microseconds."""
    text = ts.strftime("%Y-%m-%dT%H:%M:%S")
    if ts.microsecond:
        fraction = f"{ts.microsecond:06d}"
        text += "." + (fraction[:3] if fraction.endswith("000") else fraction)
    return text + "Z"


def parse_timestamp(text: str) -> datetime:
    """Parse a zero-padded UTC timestamp; out-of-range fields are rejected by
    the datetime constructor."""
    if TIMESTAMP_RE.fullmatch(text) is None:
        raise ValueError(f"bad timestamp: {text!r}")
    # Fixed widths: the fraction, if any, is text[20:-1].
    return datetime(int(text[:4]), int(text[5:7]), int(text[8:10]),
                    int(text[11:13]), int(text[14:16]), int(text[17:19]),
                    int(text[20:-1].ljust(6, "0")), tzinfo=timezone.utc)


class _Memo:
    """The distinct strings of one parse, each validated and converted once:
    account names (to the interned name), timestamps and quantities. A
    timestamp entry is (datetime, whether the memo's window contains it), so
    the window is checked once per distinct timestamp; without a window
    every timestamp is in it. Every value is immutable, so records share
    them. A memo lives for one parse call; nothing is kept between calls."""

    __slots__ = ("window", "names", "timestamps", "quantities")

    def __init__(self, window: ObservationWindow | None = None):
        self.window = window
        self.names = {}
        self.timestamps = {}
        self.quantities = {}

    def account_name(self, name, what: str = "account") -> str:
        try:
            return self.names[name]
        except (KeyError, TypeError):
            name = self.names[name] = sys.intern(check_name(name, what))
            return name

    def timestamp(self, text) -> tuple:
        try:
            return self.timestamps[text]
        except (KeyError, TypeError):
            ts = parse_timestamp(text)
            entry = self.timestamps[text] = (
                ts, self.window is None or self.window.contains(ts))
            return entry

    def quantity(self, text) -> Quantity:
        try:
            return self.quantities[text]
        except (KeyError, TypeError):
            q = self.quantities[text] = Quantity.parse(text)
            return q


def read_ndjson(path, what: str, decode, on_error, digest=None):
    """Yield (line number, decode(value)) for each non-blank line of the
    NDJSON file at `path`, where value is the line's JSON value. A line that
    is not UTF-8 or JSON, or that decode rejects, goes to
    on_error(line number, exception) instead. A missing file is an
    IngestError naming `what`. `digest`, a hashlib object, is fed every
    byte read, so once the file is read to its end it names the bytes
    parsed."""
    path = Path(path)
    try:
        fh = path.open("rb")
    except OSError as exc:
        raise IngestError(f"cannot read {what} {path}: {exc}") from exc
    scan_once = json.JSONDecoder().scan_once
    with fh:
        for lineno, line in enumerate(fh, start=1):
            if digest is not None:
                digest.update(line)
            try:
                line = line.decode("utf-8").strip()
                if not line:
                    continue
                # The stripped line has no JSON whitespace at either end, so
                # a value that ends where the line ends is json.loads(line).
                try:
                    value, end = scan_once(line, 0)
                except Exception:  # json.loads below raises its own error
                    end = None
                if end != len(line):
                    value = json.loads(line)
                item = decode(value)
            except LINE_ERRORS as exc:
                on_error(lineno, exc)
                continue
            yield lineno, item


def _decode_payload(executing: str, action_name: str, raw: dict, memo: _Memo):
    if not isinstance(raw, dict):
        raise ValueError(f"payload is not an object: {type(raw).__name__}")
    if action_name == "transfer" and {"from", "to", "quantity"} <= raw.keys():
        note = raw.get("memo", "")
        if not isinstance(note, str):
            raise ValueError(f"transfer memo is not a string: {type(note).__name__}")
        return TransferPayload(
            src=memo.account_name(raw["from"], "sender"),
            dst=memo.account_name(raw["to"], "recipient"),
            quantity=memo.quantity(raw["quantity"]),
            memo=note,
        )
    if (executing == SYSTEM_ACCOUNT and action_name == "updateauth"
            and {"account", "permission", "threshold"} <= raw.keys()):
        return UpdateAuthPayload(raw["account"], raw["permission"],
                                 raw.get("parent", ""), Authority.from_json(raw))
    return raw


def _decode_action(obj: dict, memo: _Memo) -> tuple:
    """(ActionRecord, whether the memo's window holds its timestamp)."""
    kind = obj["kind"]
    if kind not in KINDS:
        raise ValueError(f"unknown action kind: {kind!r}")
    executing = memo.account_name(obj["executing_contract"])
    actor = memo.account_name(obj["actor"])
    action_name = sys.intern(obj["action_name"])
    notified = obj.get("notified")
    if notified is not None:
        notified = memo.account_name(notified)
    if kind == "notification" and notified is None:
        raise ValueError("notification record without notified account")
    seq, tx_id = obj["global_seq"], obj["tx_id"]
    if type(seq) is not int:  # a bool is an int too, but not a JSON integer
        raise ValueError(f"global_seq is not an integer: {type(seq).__name__}")
    if abs(seq) > INT64_MAX:
        raise ValueError(f"global_seq beyond int64: {seq}")
    if not isinstance(tx_id, str):
        raise ValueError(f"tx_id is not a string: {type(tx_id).__name__}")
    timestamp, in_window = memo.timestamp(obj["timestamp"])
    record = ActionRecord(
        global_seq=seq,
        tx_id=tx_id,
        timestamp=timestamp,
        executing_contract=executing,
        action_name=action_name,
        actor=actor,
        kind=kind,
        payload=_decode_payload(executing, action_name, obj["payload"], memo),
        notified=notified,
    )
    return record, in_window


def decode_action(obj: dict) -> ActionRecord:
    """Build an ActionRecord from one decoded trace line, validating names
    and field types."""
    return _decode_action(obj, _Memo())[0]


@dataclass
class TraceParseResult:
    records: list
    dropped_out_of_window: int
    diagnostics: list  # (line_number, message)

    def __iter__(self):
        return iter(self.records)

    def __len__(self):
        return len(self.records)


def parse_action_trace(path, window: ObservationWindow, digest=None) -> TraceParseResult:
    """Parse a newline-delimited action trace.

    Records outside the observation window are dropped (and counted).
    Malformed lines are collected as diagnostics; more than 1% malformed
    lines aborts ingestion. `digest` is fed the bytes read (read_ndjson).
    """
    path = Path(path)
    records = []
    diagnostics = []
    dropped = 0
    last_seq = None
    memo = _Memo(window)
    lines = read_ndjson(path, "trace", lambda obj: _decode_action(obj, memo),
                        lambda lineno, exc: diagnostics.append((lineno, str(exc))),
                        digest)
    for lineno, (record, in_window) in lines:
        if last_seq is not None and record.global_seq <= last_seq:
            diagnostics.append(
                (lineno, f"global_seq {record.global_seq} not increasing")
            )
            continue
        last_seq = record.global_seq
        if not in_window:
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


def write_ndjson(path, objs) -> None:
    """Write each JSON-able object of `objs` as one sorted-key line."""
    with open(path, "w", encoding="utf-8") as fh:
        for obj in objs:
            fh.write(json.dumps(obj, sort_keys=True) + "\n")


def file_sha256(path):
    """A hashlib SHA-256 object fed every byte of the file at `path`."""
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        while block := fh.read(1 << 20):
            digest.update(block)
    return digest


def write_csv(path, header, rows) -> None:
    """Write the `header` row, then each of `rows`."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def eos_decimal(units) -> Decimal:
    """The exact EOS amount of an integer count of units."""
    return Decimal(int(units)).scaleb(-EOS_PRECISION)


def epoch_us(ts: datetime) -> int:
    return (ts - EPOCH) // ONE_US


def utc_from_us(us) -> datetime:
    return EPOCH + timedelta(microseconds=int(us))


def window_days(epoch_days, window: ObservationWindow | None = None):
    """The window day index of each count of UTC days since the epoch (the
    count itself without a window)."""
    return epoch_days - (0 if window is None else (window.start_day - EPOCH.date()).days)


def group_sums(keys, *values):
    """Group rows by their int64 `keys` columns, the first the primary sort key:
    (stable row order, group starts in it, keys per group, `values` sums per group)."""
    order = np.lexsort(keys[::-1])
    ordered = [k[order] for k in keys]
    new = np.zeros(len(order), dtype=bool)
    new[:1] = True
    for k in ordered:
        new[1:] |= k[1:] != k[:-1]
    starts = np.flatnonzero(new)
    sums = [np.add.reduceat(v[order], starts) if len(starts) else v[:0] for v in values]
    return order, starts, [k[starts] for k in ordered], sums


@dataclass(frozen=True, eq=False)
class Transfers:
    """The transfer table of the module docstring."""

    names: tuple
    seq: np.ndarray
    us: np.ndarray
    day: np.ndarray
    src: np.ndarray
    dst: np.ndarray
    units: np.ndarray

    def __post_init__(self):
        for column in (self.seq, self.us, self.day, self.src, self.dst, self.units):
            column.flags.writeable = False

    def __len__(self):
        return len(self.seq)


def extract_transfers(actions, window: ObservationWindow | None = None) -> Transfers:
    """The genuine transfers of an action stream: official eosio.token EOS
    transfers; notification copies, fake-token transfers and self-transfers
    are filtered out silently. A volume of 2**63 units or more is an
    IngestError."""
    genuine = [r for r in actions if r.action_name == "transfer" and r.kind != "notification"
               and r.executing_contract == OFFICIAL_TOKEN_CONTRACT
               and isinstance(p := r.payload, TransferPayload)
               and p.quantity.symbol == "EOS" and p.src != p.dst]
    # Lists per column, not a tuple per transfer, which the cyclic GC would track.
    units = [int(r.payload.quantity.amount * UNITS_PER_EOS) for r in genuine]
    if sum(units) > INT64_MAX:
        raise IngestError("transfer volume exceeds 2**63 - 1 token units of 10**-4 EOS")
    srcs, dsts = [r.payload.src for r in genuine], [r.payload.dst for r in genuine]
    names = tuple(sorted({*srcs, *dsts}))
    ids = {name: i for i, name in enumerate(names)}
    us = np.array([epoch_us(r.timestamp) for r in genuine], dtype=np.int64)
    return Transfers(names, np.array([r.global_seq for r in genuine], dtype=np.int64), us,
                     window_days(us // US_PER_DAY, window),
                     np.array([ids[n] for n in srcs], dtype=np.int64),
                     np.array([ids[n] for n in dsts], dtype=np.int64),
                     np.array(units, dtype=np.int64))


@dataclass
class SnapshotResult(Mapping):
    """A parsed snapshot: a read-only mapping of account name ->
    AccountRecord, plus the parse warnings. Every function that takes a
    snapshot indexes it as a mapping, so a plain dict serves as well."""

    accounts: dict  # name -> AccountRecord
    warnings: list

    def __getitem__(self, name):
        return self.accounts[name]

    def __iter__(self):
        return iter(self.accounts)

    def __len__(self):
        return len(self.accounts)


def decode_account(obj: dict, memo: _Memo | None = None) -> AccountRecord:
    """Build an AccountRecord from one decoded snapshot line.
    parse_account_snapshot passes the memo of its earlier lines."""
    if memo is None:
        memo = _Memo()
    name = memo.account_name(obj["name"])
    creator = obj.get("creator")
    if creator is not None:
        creator = memo.account_name(creator, "creator")
    raw_permissions = obj.get("permissions", {})
    if not isinstance(raw_permissions, dict):
        raise ValueError(
            f"permissions is not an object: {type(raw_permissions).__name__}")
    has_contract = obj.get("has_contract", False)
    if type(has_contract) is not bool:
        raise ValueError(f"has_contract is not a bool: {type(has_contract).__name__}")
    return AccountRecord(
        name=name,
        creator=creator,
        created_at=memo.timestamp(obj["created_at"])[0],
        permissions={check_name(pname, "permission"): Authority.from_json(p)
                     for pname, p in raw_permissions.items()},
        has_contract=has_contract,
    )


def parse_account_snapshot(path, digest=None) -> SnapshotResult:
    """Parse the account snapshot and verify the creator relation is a
    forest. Duplicate names and creator cycles are fatal; a child created
    before its creator merely warns (clock skew on real data). `digest` is
    fed the bytes read (read_ndjson)."""
    def fail(lineno, exc):
        raise IngestError(f"snapshot line {lineno}: {exc}") from exc

    accounts = {}
    warnings = []
    memo = _Memo()
    for _, record in read_ndjson(path, "snapshot",
                                 lambda obj: decode_account(obj, memo), fail, digest):
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
    return SnapshotResult(accounts, warnings)

