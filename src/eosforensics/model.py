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
  object per line, encoded by encode_json) and every CSV one by write_csv
  (csv.writer's default dialect: a header row, then one row per record,
  "\r\n" line ends). The generator's snapshot goes through write_ndjson
  too; its trace is the one NDJSON file written elsewhere: synthgen formats
  each record tuple straight into the line write_ndjson would write for
  it, and a property test holds the two to the same bytes.
* Authority, the one type of an EOSIO authority: threshold and weights
  integers >= 1, public keys non-empty strings, granted accounts and permissions
  account names. Its one decoder is from_json and its one encoder to_json;
  the snapshot parse checks a permission by the same two routines that
  from_json uses, _authority_fields (the JSON shapes) and _check_authority
  (the rules), without building an Authority.
* registries: CSV files with a header row (see Registry.load).
* Actions, the one form of a parsed trace: one row per kept action in trace
  order, as read-only columns. int64 `seq`, `us` (UTC microseconds since the
  epoch) and `offset` (the byte offset of its line); int8 `kind`, the index
  in KINDS; and int32 `contract`, `action`, `actor` and `notified` (-1 when
  absent), ids into the sorted `names`, one table of every name, action name
  and token symbol. Beside them `transfers` (TransferRows) holds each
  decoded transfer payload, and `auth` the system account's updateauth and
  deleteauth payloads by row. The parse appends each line's checked fields
  straight to one plain list per column, ints that the cyclic GC does not
  track, and every CHUNK_ROWS rows the lists become arrays. An ActionRecord
  is built only when a row is read through the Records view, which decodes
  its line again.
* Transfers, the one form of a genuine EOS transfer after parsing: read-only
  int64 columns, one row per transfer in trace order. `seq`; `us`, UTC
  microseconds since the epoch; `day`, the window day index (days since the
  epoch without a window); `src` and `dst`, ids into the sorted `names`; and
  `units`, the amount in 10**-4 EOS as an EOSIO asset stores it. Their sum
  stays below 2**63; amounts become Decimals only where they leave the program.
* Accounts, the one form of a parsed snapshot: read-only columns, one row
  per account over the sorted `names`. int64 `creator` (the creator's id, -1
  for a root or a creator not in the snapshot), `us` (created, UTC
  microseconds), `offset` (of its line) and `depth` (in the creation
  forest); and key rows `key_account`, `key` (ids into the sorted
  `public_keys`) and bool `key_active` (in its active permission), one per
  distinct (account, key), sorted so. The parse fills the columns straight
  from each checked line: the created timestamp goes to `us` without a
  datetime, and each permission is checked by Authority's rules without an
  Authority being built. Thresholds, weights and has_contract are checked
  but not kept. An AccountRecord is built only when an account is read
  through the SnapshotResult view, which decodes its line again.
"""

from __future__ import annotations

import bisect
import csv
import hashlib
import json
import os
import re
import stat
import sys
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field
from datetime import date, datetime, time, timedelta, timezone
from decimal import Decimal, InvalidOperation
from pathlib import Path
from typing import NamedTuple

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
EPOCH_DATE = EPOCH.date()
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

    @property
    def units(self) -> int:
        """The amount as an integer count of 10**-precision units."""
        return int(self.amount.scaleb(self.precision))

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


def _authority_fields(obj) -> tuple:
    """(threshold, key_weights, account_weights) of an authority's JSON
    object, in Authority's shapes; _check_authority holds its rules."""
    threshold = obj["threshold"]  # first: a non-object raises TypeError here
    keys, accounts = obj.get("key_weights", []), obj.get("account_weights", [])
    if not all(isinstance(x, list) for x in (keys, accounts, *keys, *accounts)):
        raise ValueError("key_weights and account_weights must be lists of lists")
    return threshold, tuple((k, w) for k, w in keys), tuple((a, p, w) for a, p, w in accounts)


def _check_authority(threshold, key_weights, account_weights) -> None:
    """Authority's rules, in its field order; a breach is a ValueError."""
    _check_count(threshold, "threshold")
    for key, w in key_weights:
        if not (isinstance(key, str) and key):
            raise ValueError(f"bad public key: {key!r}")
        _check_count(w, "key weight")
    for account, permission, w in account_weights:
        check_name(account, "granted account")
        check_name(permission, "granted permission")
        _check_count(w, "account weight")


@dataclass(frozen=True, slots=True)
class Authority:
    """An EOSIO permission authority, of a snapshot permission or an
    updateauth: key and account@permission weights against a threshold."""

    threshold: int
    key_weights: tuple  # of (public_key, weight)
    account_weights: tuple  # of (granted_account, granted_permission, weight)

    def __post_init__(self):
        _check_authority(self.threshold, self.key_weights, self.account_weights)

    @classmethod
    def from_json(cls, obj) -> "Authority":
        return cls(*_authority_fields(obj))

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
    """Parse a zero-padded UTC timestamp; out-of-range fields are rejected
    with the messages of the datetime constructor (see _Memo.timestamp)."""
    return utc_from_us(_Memo().timestamp(text))


class _Memo:
    """The distinct strings of one parse, each validated and converted once:
    account names (to the interned name), quantities, and the two halves of
    a timestamp, its minute (to UTC microseconds from the epoch to its
    start) and its second (to microseconds into its minute). A quantity
    entry is (Quantity, its units as an Actions table holds them). Every
    value is immutable, so records share them. A memo lives for one parse
    call; nothing is kept between calls, and clear_values() forgets all but
    the names, so a parse holds the values of one chunk."""

    __slots__ = ("names", "quantities", "minutes", "seconds")

    def __init__(self):
        self.names = {}
        self.quantities = {}
        self.minutes = {}  # "YYYY-MM-DDTHH:MM" -> microseconds from the epoch to its start
        self.seconds = {}  # ":SS[.ffffff]Z" -> microseconds from the start of its minute

    def clear_values(self):
        self.quantities.clear()
        self.minutes.clear()
        self.seconds.clear()

    def account_name(self, name, what: str = "account") -> str:
        try:
            return self.names[name]
        except (KeyError, TypeError):
            name = self.names[name] = sys.intern(check_name(name, what))
            return name

    def timestamp(self, text) -> int:
        """The UTC microseconds of a timestamp of TIMESTAMP_RE's fixed widths. Its date
        is checked by the date constructor and an hour, minute or second out
        of range by the time constructor, so a bad field raises what the
        datetime constructor would, in its order. A text whose minute (its
        first 16 characters) and second (the rest) each ended a checked
        timestamp before is valid without another check; any other value,
        a non-string too, goes through TIMESTAMP_RE."""
        try:
            return self.minutes[text[:16]] + self.seconds[text[16:]]
        except (KeyError, TypeError):
            pass
        if TIMESTAMP_RE.fullmatch(text) is None:
            raise ValueError(f"bad timestamp: {text!r}")
        minute_us = self.minutes.get(text[:16])
        if minute_us is None:
            day = date(int(text[:4]), int(text[5:7]), int(text[8:10]))
            hour, minute = int(text[11:13]), int(text[14:16])
            if hour > 23 or minute > 59:
                time(hour, minute)  # raises the constructor's message
            minute_us = self.minutes[text[:16]] = (
                ((day - EPOCH_DATE).days * 1440 + hour * 60 + minute) * 60_000_000)
        second = int(text[17:19])
        if second > 59:
            time(0, 0, second)  # raises the constructor's message
        # the fraction, if any, is text[20:-1]
        second_us = self.seconds[text[16:]] = second * 1_000_000 + (
            int(text[20:-1].ljust(6, "0")) if len(text) > 20 else 0)
        return minute_us + second_us

    def quantity(self, text) -> tuple:
        try:
            return self.quantities[text]
        except (KeyError, TypeError):
            q = Quantity.parse(text)
            units = q.units  # as an Actions table holds it: -1 beyond int64
            entry = self.quantities[text] = (q, units if units <= INT64_MAX else -1)
            return entry


_SCAN_ONCE = json.JSONDecoder().scan_once


def _json_line(line: str):
    """The JSON value of a stripped, non-blank line. The line has no JSON
    whitespace at either end, so a value the scanner ends where the line
    ends is json.loads(line); any other line is decoded again by json.loads,
    so that a bad line's message is exactly json.loads's."""
    try:
        value, end = _SCAN_ONCE(line, 0)
    except Exception:  # json.loads below raises its own error
        end = None
    return value if end == len(line) else json.loads(line)


def read_ndjson(path, what: str, decode, on_error, digest=None):
    """Yield (line number, byte offset of the line, decode(value)) for each
    non-blank line of the NDJSON file at `path`, where value is the line's
    JSON value. A line that is not UTF-8 or JSON, or that decode rejects,
    goes to on_error(line number, exception) instead. A missing file is an
    IngestError naming `what`. `digest`, a hashlib object, is fed every
    byte read, so once the file is read to its end it names the bytes
    parsed."""
    path = Path(path)
    try:
        fh = path.open("rb")
    except OSError as exc:
        raise IngestError(f"cannot read {what} {path}: {exc}") from exc
    offset = 0
    with fh:
        for lineno, raw in enumerate(fh, start=1):
            if digest is not None:
                digest.update(raw)
            start, offset = offset, offset + len(raw)
            try:
                line = raw.decode("utf-8").strip()
                if not line:
                    continue
                item = decode(_json_line(line))
            except LINE_ERRORS as exc:
                on_error(lineno, exc)
                continue
            yield lineno, start, item


TRANSFER_KEYS = frozenset(("from", "to", "quantity"))
UPDATEAUTH_KEYS = frozenset(("account", "permission", "threshold"))


def _decode_payload(executing: str, action_name: str, raw: dict, memo: _Memo):
    """A transfer's (src, dst, quantity memo entry, memo text); the system
    account's UpdateAuthPayload; any other payload as it is."""
    if not isinstance(raw, dict):
        raise ValueError(f"payload is not an object: {type(raw).__name__}")
    if action_name == "transfer" and TRANSFER_KEYS <= raw.keys():
        note = raw.get("memo", "")
        if not isinstance(note, str):
            raise ValueError(f"transfer memo is not a string: {type(note).__name__}")
        return (memo.account_name(raw["from"], "sender"),
                memo.account_name(raw["to"], "recipient"), memo.quantity(raw["quantity"]), note)
    if (executing == SYSTEM_ACCOUNT and action_name == "updateauth"
            and UPDATEAUTH_KEYS <= raw.keys()):
        return UpdateAuthPayload(raw["account"], raw["permission"],
                                 raw.get("parent", ""), Authority.from_json(raw))
    return raw


def _decode_fields(obj: dict, memo: _Memo) -> tuple:
    """The checked fields of one trace line in ActionRecord's order, except
    that the timestamp is its UTC microseconds and a transfer payload the
    tuple of _decode_payload."""
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
    us = memo.timestamp(obj["timestamp"])
    return (seq, tx_id, us, executing, action_name, actor, kind,
            _decode_payload(executing, action_name, obj["payload"], memo), notified)


def decode_action(obj: dict) -> ActionRecord:
    """Build an ActionRecord from one decoded trace line, validating names
    and field types."""
    seq, tx_id, us, executing, action_name, actor, kind, payload, notified = (
        _decode_fields(obj, _Memo()))
    if type(payload) is tuple:
        src, dst, (quantity, _), note = payload
        payload = TransferPayload(src, dst, quantity, note)
    return ActionRecord(seq, tx_id, utc_from_us(us), executing, action_name, actor, kind,
                        payload, notified)


# Rows an Actions table collects as Python ints before it moves them into arrays.
CHUNK_ROWS = 65_536
KIND_IDS = {kind: i for i, kind in enumerate(KINDS)}
NOTIFICATION, DEFERRED = KIND_IDS["notification"], KIND_IDS["deferred"]
AUTH_ACTIONS = ("updateauth", "deleteauth")


class TransferRows(NamedTuple):
    """The decoded transfer payloads of an Actions table, one row each in
    table order: the action's `row`, the `src`, `dst` and `symbol` name ids,
    and `units`, the amount in int64 units of 10**-precision (-1 for an
    amount beyond int64)."""

    row: np.ndarray
    src: np.ndarray
    dst: np.ndarray
    symbol: np.ndarray
    units: np.ndarray


class Named:
    """A table over the sorted `names`."""

    @classmethod
    def of(cls, data):
        """`data` if it is such a table, else the table of its view (`.table`)."""
        return data if isinstance(data, cls) else data.table

    def id(self, name) -> int:
        """The name's id; -1 for a name, or any other value, the table does not hold."""
        if isinstance(name, str):
            i = bisect.bisect_left(self.names, name)
            if i < len(self.names) and self.names[i] == name:
                return i
        return -1

    def ids(self, names) -> np.ndarray:
        return np.array([self.id(name) for name in names], dtype=np.int64)


@dataclass(frozen=True, eq=False)
class Actions(Named):
    """The action table of the module docstring."""

    names: tuple
    seq: np.ndarray
    us: np.ndarray
    offset: np.ndarray
    kind: np.ndarray
    contract: np.ndarray
    action: np.ndarray
    actor: np.ndarray
    notified: np.ndarray
    transfers: TransferRows
    auth: tuple  # (row, payload) per updateauth or deleteauth of the system account

    def __post_init__(self):
        for column in (self.seq, self.us, self.offset, self.kind, self.contract, self.action,
                       self.actor, self.notified, *self.transfers):
            column.flags.writeable = False

    def __len__(self):
        return len(self.seq)

    def relabel(self, *columns):
        """(the sorted names that the id `columns` hold, each column as int64
        ids into those names)."""
        used = np.unique(np.concatenate(columns))
        return (tuple(self.names[i] for i in used.tolist()),
                [np.searchsorted(used, column) for column in columns])


class _Ids(dict):
    """Name -> id, each new name taking the next id; None -> -1."""

    def __init__(self):
        super().__init__({None: -1})

    def __missing__(self, name):
        i = self[name] = len(self) - 1
        return i


class _Columns:
    """The column builder of an Actions table: each row's fields go straight
    onto one plain list per column, as ints (which the cyclic GC does not
    track) with names as first-seen ids, and every `chunk` rows the lists
    move into arrays; table() renumbers the ids in name order."""

    # The dtype of each column of a row, and of a transfer row; NAMED marks
    # the columns of name ids in either.
    ROW = (np.int64,) * 3 + (np.int8,) + (np.int32,) * 4
    TRANSFER = (np.int64,) + (np.int32,) * 3 + (np.int64,)
    NAMED = (False,) * 4 + (True,) * 4 + (False,) + (True,) * 3 + (False,)

    def __init__(self, chunk=CHUNK_ROWS):
        self.chunk = chunk
        self.ids = _Ids()
        self.lists = [[] for _ in self.NAMED]
        self.parts = [[] for _ in self.NAMED]
        self.auth = []
        self.done = 0  # rows already moved into arrays

    def add(self, offset, seq, us, kind, contract, action, actor, notified, payload) -> bool:
        """Append one row: `payload` is a transfer's (src, dst, (Quantity,
        table units), memo) or any other payload. True when it fills a chunk."""
        ids = self.ids
        (offsets, seqs, uss, kinds, contracts, actions, actors, notifieds,
         t_rows, t_srcs, t_dsts, t_symbols, t_units) = self.lists
        offsets.append(offset)
        seqs.append(seq)
        uss.append(us)
        kinds.append(KIND_IDS[kind])
        contracts.append(ids[contract])
        actions.append(ids[action])
        actors.append(ids[actor])
        notifieds.append(ids[notified])
        if type(payload) is tuple:
            src, dst, (quantity, units), _ = payload
            t_rows.append(self.done + len(seqs) - 1)
            t_srcs.append(ids[src])
            t_dsts.append(ids[dst])
            t_symbols.append(ids[quantity.symbol])
            t_units.append(units)
        elif contract == SYSTEM_ACCOUNT and action in AUTH_ACTIONS:
            self.auth.append((self.done + len(seqs) - 1, payload))
        if len(seqs) < self.chunk:
            return False
        self.flush()
        return True

    def flush(self):
        self.done += len(self.lists[1])
        for pending, part, dtype in zip(self.lists, self.parts, self.ROW + self.TRANSFER):
            part.append(np.array(pending, dtype=dtype))
            pending.clear()

    def table(self) -> Actions:
        """The table of every row added, over the sorted names."""
        self.flush()
        names = sorted(name for name in self.ids if name is not None)
        # position[first-seen id] = sorted id; position[-1] = -1 keeps an absent notified
        position = np.full(len(names) + 1, -1, dtype=np.int32)
        position[[self.ids[name] for name in names]] = np.arange(len(names), dtype=np.int32)
        columns = [position[np.concatenate(part)] if named else np.concatenate(part)
                   for part, named in zip(self.parts, self.NAMED)]
        offset, seq, us, *rest = columns[:len(self.ROW)]
        return Actions(tuple(names), seq, us, offset, *rest,
                       TransferRows(*columns[len(self.ROW):]), tuple(self.auth))


def _read_again(path: Path, what: str, lines, decode, field: str):
    """Yield decode(the JSON value of the line at byte `offset` of the `what`
    file at `path`) for each (offset, expected) of `lines`. A line whose
    decoded `field` is no longer `expected`, or a file that cannot be read
    again (a missing file, or a pipe, which can be read once), is an IngestError."""
    try:
        if not stat.S_ISREG(os.stat(path).st_mode):  # a pipe would block
            raise OSError("not a regular file")
        fh = path.open("rb")
    except OSError as exc:
        raise IngestError(f"cannot read {what} {path} again: {exc}") from exc
    with fh:
        for offset, expected in lines:
            fh.seek(offset)
            try:
                item = decode(_json_line(fh.readline().decode("utf-8").strip()))
            except LINE_ERRORS:
                item = None
            if item is None or getattr(item, field) != expected:
                raise IngestError(f"{path} changed since it was parsed: the line at "
                                  f"byte {offset} no longer holds {field} {expected}")
            yield item


class Records(Sequence):
    """The read-only sequence view of a parsed trace's `table`: item i is
    the ActionRecord of row i, decoded again from its line of the trace file
    at `path` by _read_again (so each item read costs about twice what the
    parse of its line did). A view equals a list of equal records."""

    def __init__(self, table: Actions, path):
        self.table, self.path = table, Path(path)

    def __len__(self):
        return len(self.table)

    def __getitem__(self, index):
        rows = range(len(self))[index]
        return list(self.read(rows)) if isinstance(index, slice) else next(self.read([rows]))

    def __iter__(self):
        return self.read(range(len(self)))

    def __eq__(self, other):
        if isinstance(other, (list, Records)):
            return list(self) == list(other)
        return NotImplemented

    __hash__ = None

    def __repr__(self):
        return f"<Records: {len(self)} actions of {self.path}>"

    def read(self, rows):
        """Yield the ActionRecord of each table row in `rows`, in that order."""
        seq, offset = self.table.seq, self.table.offset
        return _read_again(self.path, "trace", ((offset[row], seq[row]) for row in rows),
                           decode_action, "global_seq")

    def by_seq(self, seqs) -> dict:
        """global_seq -> ActionRecord for each of `seqs` that a row holds."""
        seq = self.table.seq  # ascending, as the parse keeps it
        wanted = np.unique(np.fromiter(seqs, dtype=np.int64))
        rows = np.searchsorted(seq, wanted)
        found = rows < len(seq)
        found[found] = seq[rows[found]] == wanted[found]
        rows = rows[found].tolist()
        return {r.global_seq: r for r in self.read(rows)} if rows else {}


@dataclass
class TraceParseResult:
    records: Records
    dropped_out_of_window: int
    diagnostics: list  # (line_number, message)

    def __iter__(self):
        return iter(self.records)

    def __len__(self):
        return len(self.records)


def parse_action_trace(path, window: ObservationWindow, digest=None,
                       chunk=CHUNK_ROWS) -> TraceParseResult:
    """Parse a newline-delimited action trace into an Actions table, `chunk`
    rows at a time; its `records` are the table's Records view.

    Records outside the observation window are dropped (and counted).
    Malformed lines are collected as diagnostics; more than 1% malformed
    lines aborts ingestion. `digest` is fed the bytes read (read_ndjson).
    """
    path = Path(path)
    rows = _Columns(chunk)
    diagnostics = []
    dropped = 0
    last_seq = None
    # the window's UTC microseconds since the epoch are [first, end)
    first = (window.start_day - EPOCH_DATE).days * US_PER_DAY
    end = ((window.end_day - EPOCH_DATE).days + 1) * US_PER_DAY
    memo = _Memo()
    lines = read_ndjson(path, "trace", lambda obj: _decode_fields(obj, memo),
                        lambda lineno, exc: diagnostics.append((lineno, str(exc))),
                        digest)
    for lineno, offset, (seq, _, us, contract, action, actor, kind, payload,
                         notified) in lines:
        if last_seq is not None and seq <= last_seq:
            diagnostics.append((lineno, f"global_seq {seq} not increasing"))
            continue
        last_seq = seq
        if not first <= us < end:
            dropped += 1
            continue
        if rows.add(offset, seq, us, kind, contract, action, actor, notified, payload):
            memo.clear_values()
    table = rows.table()

    # Every non-blank line is a record, a drop or a diagnostic.
    total = len(table) + dropped + len(diagnostics)
    if total and len(diagnostics) / total > MALFORMED_FATAL_RATIO:
        raise IngestError(
            f"{len(diagnostics)}/{total} malformed lines in {path}; "
            f"first: line {diagnostics[0][0]}: {diagnostics[0][1]}"
        )
    return TraceParseResult(Records(table, path), dropped, diagnostics)


# json.dumps(obj, sort_keys=True), without the fresh JSONEncoder it builds per call.
encode_json = json.JSONEncoder(sort_keys=True).encode


def write_ndjson(path, objs) -> None:
    """Write each JSON-able object of `objs` as one sorted-key line."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(encode_json(obj) + "\n" for obj in objs)


def file_sha256(path):
    """A hashlib SHA-256 object fed every byte of the file at `path`, read
    into one reused buffer (a fresh block per read costs about a sixth more)."""
    digest = hashlib.sha256()
    block = bytearray(1 << 18)
    view = memoryview(block)
    with open(path, "rb", buffering=0) as fh:
        while n := fh.readinto(block):
            digest.update(view[:n])
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
class Transfers(Named):
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
    """The genuine transfers of an action table (a parsed trace's records
    view, or the table itself): official eosio.token EOS transfers, a mask
    over the action table's transfer payloads; notification copies,
    fake-token transfers and self-transfers are filtered out silently. A
    volume of 2**63 units or more is an IngestError."""
    table = Actions.of(actions)
    t = table.transfers
    genuine = ((table.kind[t.row] != NOTIFICATION)
               & (table.contract[t.row] == table.id(OFFICIAL_TOKEN_CONTRACT))
               & (t.symbol == table.id("EOS")) & (t.src != t.dst))
    units = t.units[genuine]
    # -1 marks an amount beyond int64; the rest is summed exactly in 32-bit halves
    if (units < 0).any() or (
            (int((units >> 32).sum()) << 32) + int((units & 0xFFFFFFFF).sum()) > INT64_MAX):
        raise IngestError("transfer volume exceeds 2**63 - 1 token units of 10**-4 EOS")
    rows = t.row[genuine]
    names, (src, dst) = table.relabel(t.src[genuine], t.dst[genuine])
    us = table.us[rows]
    return Transfers(names, table.seq[rows], us, window_days(us // US_PER_DAY, window),
                     src, dst, units)


@dataclass(frozen=True, eq=False)
class Accounts(Named):
    """The account table of the module docstring."""

    names: tuple
    creator: np.ndarray
    us: np.ndarray
    offset: np.ndarray
    depth: np.ndarray
    public_keys: tuple
    key_account: np.ndarray
    key: np.ndarray
    key_active: np.ndarray

    def __post_init__(self):
        for column in (self.creator, self.us, self.offset, self.depth, self.key_account,
                       self.key, self.key_active):
            column.flags.writeable = False

    def __len__(self):
        return len(self.names)


def _account_table(rows) -> Accounts:
    """The Accounts table of (line offset, name, creator, created us,
    permissions) rows in any order, each permission as the fields of
    _authority_fields. A name given twice, or a creator cycle, is an
    IngestError."""
    row, creators, us, offsets, key_rows, keys = {}, [], [], [], [], []
    for offset, name, creator, created, permissions in rows:
        if name in row:
            raise IngestError(f"duplicate account name: {name}")
        row[name] = i = len(row)
        creators.append(creator)
        us.append(created)
        offsets.append(offset)
        active = permissions.get("active")
        active = () if active is None else [k for k, _ in active[1]]
        for key in {k for a in permissions.values() for k, _ in a[1]}:
            keys.append(key)
            key_rows += (i, key in active)
    names, position = np.unique(np.array(list(row), dtype=object), return_inverse=True)
    position = np.append(position, -1)  # a row's sorted id; -1 for a root or an absent creator
    creator = position[np.fromiter((row.get(c, -1) for c in creators), np.int64, len(row))]
    public_keys, key = np.unique(np.array(keys, dtype=object), return_inverse=True)
    account, active = np.array(key_rows, dtype=np.int64).reshape(-1, 2).T
    account = position[account]
    order, at = np.lexsort((key, account)), np.argsort(position[:-1])
    names, creator = tuple(names.tolist()), creator[at]
    return Accounts(names, creator, np.array(us, dtype=np.int64)[at],
                    np.array(offsets, dtype=np.int64)[at], creation_depths(names, creator),
                    tuple(public_keys.tolist()), account[order], key[order],
                    active[order].astype(bool))


def creation_depths(names, creator) -> np.ndarray:
    """Each account's depth in the forest of its `creator` ids (a root's is
    0), by pointer doubling: after round k, up[i] is i's 2**k-th ancestor (-1
    past its root) and depth[i] is i's distance to up[i], or to its root once
    up[i] is -1. An account live after more rounds than there are accounts
    leads into a creator cycle, an IngestError naming up[i], an account on it."""
    up, depth = creator.copy(), (creator >= 0).astype(np.int64)
    live = np.flatnonzero(up >= 0)
    for _ in range(len(names).bit_length()):
        depth[live] += depth[up[live]]
        up[live] = up[up[live]]
        live = live[up[live] >= 0]
    if len(live):
        raise IngestError(f"creator cycle through account {names[up[live[0]]]!r}")
    return depth


class SnapshotResult(Mapping):
    """A parsed snapshot, its own `accounts`: the read-only mapping view of
    its Accounts `table`, name -> AccountRecord, decoded again from its line
    of the file at `path` by _read_again; names (in file order), length and
    membership come from the table alone. `warnings` are the parse's."""

    def __init__(self, table: Accounts, path, warnings: list):
        self.table, self.path, self.warnings = table, Path(path), warnings

    @property
    def accounts(self):
        return self

    def __getitem__(self, name):
        i = self.table.id(name)
        if i < 0:
            raise KeyError(name)
        return next(_read_again(self.path, "snapshot", [(self.table.offset[i], name)],
                                decode_account, "name"))

    def __contains__(self, name):
        return self.table.id(name) >= 0

    def __iter__(self):
        return (self.table.names[i] for i in np.argsort(self.table.offset).tolist())

    def __len__(self):
        return len(self.table)


def _account_fields(obj: dict, memo: _Memo) -> tuple:
    """The checked fields of one snapshot line in AccountRecord's order,
    except that created_at is its UTC microseconds and each permission the
    (threshold, key_weights, account_weights) of an Authority."""
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
    us = memo.timestamp(obj["created_at"])
    permissions = {}
    for pname, raw in raw_permissions.items():
        check_name(pname, "permission")
        permissions[pname] = fields = _authority_fields(raw)
        _check_authority(*fields)
    return name, creator, us, permissions, has_contract


def decode_account(obj: dict) -> AccountRecord:
    """Build an AccountRecord from one decoded snapshot line."""
    name, creator, us, permissions, has_contract = _account_fields(obj, _Memo())
    return AccountRecord(name, creator, utc_from_us(us),
                         {p: Authority(*fields) for p, fields in permissions.items()},
                         has_contract)


def parse_account_snapshot(path, digest=None) -> SnapshotResult:
    """Parse the account snapshot into an Accounts table (each line checked
    by _account_fields, as decode_account checks it, and only the columns
    kept) and its view, and verify the creator relation is a forest.
    Duplicate names and creator cycles are fatal; a child created before its
    creator merely warns (clock skew on real data), in file order. `digest`
    is fed the bytes read (read_ndjson)."""
    def fail(lineno, exc):
        raise IngestError(f"snapshot line {lineno}: {exc}") from exc

    memo = _Memo()
    lines = read_ndjson(path, "snapshot", lambda obj: _account_fields(obj, memo), fail, digest)
    table = _account_table((offset, name, creator, us, permissions)
                           for _, offset, (name, creator, us, permissions, _) in lines)

    skewed = np.flatnonzero((table.creator >= 0) & (table.us < table.us[table.creator]))
    skewed = skewed[np.argsort(table.offset[skewed], kind="stable")]
    warnings = [f"{table.names[i]} created before its creator {table.names[c]} "
                "(clock skew tolerated)"
                for i, c in zip(skewed.tolist(), table.creator[skewed].tolist())]
    return SnapshotResult(table, path, warnings)
