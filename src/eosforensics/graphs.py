"""The three enhanced graphs: money flow (EMFG), account creation (EACG)
and contract invocation (ECIG), and their views as `DiGraph`, the one
integer-indexed edge-array graph that every metric and export reads."""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from decimal import Decimal
from functools import cached_property

import numpy as np

from .errors import GraphError
from .model import (
    OFFICIAL_TOKEN_CONTRACT,
    UNITS_PER_EOS,
    ObservationWindow,
    eos_decimal,
    group_sums,
    write_csv,
)

INVOCATION_KINDS = frozenset({"external", "inline", "deferred"})


class Emfg:
    """Day-stamped weighted money-flow graph over the transfer table's
    `names`: one row per (src, dst, day), rows sorted so, holding the day's
    summed `units` (10**-4 EOS) and transfer `count`."""

    def __init__(self, names, src, dst, day, units, count):
        self.names, self.src, self.dst, self.day = names, src, dst, day
        self.units, self.count = units, count
        self._ids = {name: i for i, name in enumerate(names)}

    @cached_property
    def _pairs(self):
        """(each row's src * node count + dst, as a list; pair starts; out-degrees)."""
        key = self.src * len(self.names) + self.dst
        starts = np.flatnonzero(np.r_[True, key[1:] != key[:-1]][:len(key)])
        return key.tolist(), starts, np.bincount(self.src[starts], minlength=len(self.names)).tolist()

    @cached_property
    def _daily(self):
        """direction -> lists: each node's first (node, day) group, and day, units, count."""
        tables = {}
        for direction, node in (("out", self.src), ("in", self.dst)):
            _, _, (group_node, day), sums = group_sums((node, self.day), self.units, self.count)
            first = np.searchsorted(group_node, np.arange(len(self.names) + 1))
            tables[direction] = [column.tolist() for column in (first, day, *sums)]
        return tables

    def out_degree(self, account) -> int:
        """The number of distinct accounts `account` sent EOS to."""
        i = self._ids.get(account)
        return 0 if i is None else self._pairs[2][i]

    def edge_days(self, src, dst):
        """day -> (exact EOS weight, transfer count) of the src -> dst edge."""
        if src not in self._ids or dst not in self._ids:
            return {}
        keys, key = self._pairs[0], self._ids[src] * len(self.names) + self._ids[dst]
        lo, hi = bisect_left(keys, key), bisect_right(keys, key)
        if lo == hi:
            return {}
        return {day: (eos_decimal(units), count) for day, units, count in zip(
            self.day[lo:hi].tolist(), self.units[lo:hi].tolist(), self.count[lo:hi].tolist())}

    def total_weight(self) -> Decimal:
        return eos_decimal(self.units.sum())

    def total_count(self) -> int:
        return int(self.count.sum())

    def daily(self, account, direction):
        """day -> (units, transfer count) summed over the account's
        outgoing ("out") or incoming ("in") edges."""
        if direction not in ("in", "out"):
            raise ValueError(f"bad direction: {direction!r}")
        first, day, units, count = self._daily[direction]
        i = self._ids.get(account)
        lo, hi = (0, 0) if i is None else (first[i], first[i + 1])
        return dict(zip(day[lo:hi], zip(units[lo:hi], count[lo:hi])))


def build_emfg(transfers) -> Emfg:
    """Aggregate an extract_transfers table into the money-flow graph."""
    if len(transfers) and transfers.units.min() <= 0:
        raise GraphError(f"non-positive transfer weight: {eos_decimal(transfers.units.min())}")
    _, _, keys, sums = group_sums((transfers.src, transfers.dst, transfers.day),
                                  transfers.units, np.ones(len(transfers), dtype=np.int64))
    return Emfg(transfers.names, *keys, *sums)


class Eacg:
    """Account creation forest: child -> (creator, creation day)."""

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


def build_eacg(snapshot, window: ObservationWindow) -> Eacg:
    """Build the creation forest from a parsed snapshot. Accounts whose
    creator is absent from the snapshot become roots."""
    g = Eacg()
    for name, record in snapshot.items():
        if record.creator is None or record.creator not in snapshot:
            g.roots.add(name)
        else:
            g.parent[name] = (record.creator, window.day_index(record.created_at))
            g.children.setdefault(record.creator, []).append(name)
    # forest identity: every non-root has exactly one parent by construction
    return g


class Ecig:
    """Contract invocation graph: (caller, contract) edges annotated with
    per-(day, action) invocation counts."""

    def __init__(self):
        self.out = {}  # caller -> contract -> (day, action) -> count

    def add_invocation(self, caller, contract, day, action):
        slots = self.out.setdefault(caller, {}).setdefault(contract, {})
        key = (day, action)
        slots[key] = slots.get(key, 0) + 1

    @property
    def nodes(self):
        seen = set(self.out)
        for targets in self.out.values():
            seen.update(targets)
        return seen

    def edges(self):
        for caller, targets in self.out.items():
            for contract, slots in targets.items():
                yield caller, contract, slots

    def total_invocations(self) -> int:
        return sum(c for _, _, slots in self.edges() for c in slots.values())

    def out_daily_counts(self, account):
        """day -> number of invocations by `account` of every contract but
        eosio.token, whose calls count as transfers."""
        counts = {}
        for contract, slots in self.out.get(account, {}).items():
            if contract == OFFICIAL_TOKEN_CONTRACT:
                continue
            for (day, _), c in slots.items():
                counts[day] = counts.get(day, 0) + c
        return counts

    def target_counts(self, account, exclude=()):
        """contract -> total invocations by `account`."""
        totals = {}
        for contract, slots in self.out.get(account, {}).items():
            if contract in exclude:
                continue
            totals[contract] = sum(slots.values())
        return totals


def build_ecig(actions, window: ObservationWindow) -> Ecig:
    """Count invocations per (caller, contract, day, action).

    Callers are the authorizing actors; notification copies do not count.
    Every executing account counts (it did run code, including the system
    account).
    """
    g = Ecig()
    for record in actions:
        if record.kind not in INVOCATION_KINDS:
            continue
        g.add_invocation(
            record.actor,
            record.executing_contract,
            window.day_index(record.timestamp),
            record.action_name,
        )
    return g


def silent_accounts(emfg: Emfg, ecig: Ecig, snapshot) -> set:
    """Accounts that never send money and never invoke a contract.
    Receiving EOS does not disqualify."""
    silent = set()
    for name in snapshot:
        if emfg.out_degree(name):
            continue
        if ecig.out.get(name):
            continue
        silent.add(name)
    return silent


# ---------------------------------------------------------------------------
# The metrics graph + exports


class DiGraph:
    """Immutable weighted digraph that every metric reads.

    `nodes` holds the node names in ascending order; a node's id is its
    position. `src`, `dst` (int64) and `weight` (float64) hold one row per
    (u, v) pair, rows sorted by (src, dst).
    """

    __slots__ = ("nodes", "src", "dst", "weight")

    def __init__(self, nodes, src, dst, weight):
        for array in (src, dst, weight):
            array.flags.writeable = False
        self.nodes, self.src, self.dst, self.weight = nodes, src, dst, weight

    @classmethod
    def from_edges(cls, edges, nodes=()) -> DiGraph:
        """Graph of the (u, v, weight) triples in `edges` plus the isolated
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
        return cls(names, *np.divmod(key, n), weight)

    def edges(self):
        """(u, v, weight) by name, in row order."""
        names = self.nodes
        for u, v, w in zip(self.src.tolist(), self.dst.tolist(), self.weight.tolist()):
            yield names[u], names[v], w

    def in_degrees(self):
        return np.bincount(self.dst, minlength=len(self.nodes))

    def out_degrees(self):
        return np.bincount(self.src, minlength=len(self.nodes))


def emfg_to_digraph(emfg: Emfg) -> DiGraph:
    """One row per (src, dst) pair, weighted by its EOS sum as a float:
    units / 10**4 is the correctly rounded quotient below 2**53 units."""
    _, starts, _ = emfg._pairs
    units = np.add.reduceat(emfg.units, starts) if len(starts) else emfg.units
    return DiGraph(emfg.names, emfg.src[starts], emfg.dst[starts], units / UNITS_PER_EOS)


def eacg_to_digraph(eacg: Eacg) -> DiGraph:
    return DiGraph.from_edges(
        ((creator, child, 1.0) for child, (creator, _) in eacg.parent.items()),
        eacg.roots,
    )


def ecig_to_digraph(ecig: Ecig) -> DiGraph:
    return DiGraph.from_edges(
        (caller, contract, float(sum(slots.values())))
        for caller, contract, slots in ecig.edges()
    )


def degree_histogram(graph: DiGraph, direction="total"):
    """Histogram degree -> node count; counts every node, so the values
    sum to the node count."""
    if direction == "in":
        degrees = graph.in_degrees()
    elif direction == "out":
        degrees = graph.out_degrees()
    elif direction == "total":
        degrees = graph.in_degrees() + graph.out_degrees()
    else:
        raise ValueError(f"bad direction: {direction!r}")
    return {d: c for d, c in enumerate(np.bincount(degrees).tolist()) if c}


def export_histogram_csv(hist, path):
    write_csv(path, ["degree", "count"], sorted(hist.items()))


def export_edges_csv(graph: DiGraph, path):
    write_csv(path, ["from", "to", "weight"],
              ((u, v, repr(w)) for u, v, w in graph.edges()))
