"""The three enhanced graphs: money flow (EMFG), account creation (EACG)
and contract invocation (ECIG), and their views as `DiGraph`, the one
integer-indexed edge-array graph that every metric and export reads."""

from __future__ import annotations

from decimal import Decimal
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import GraphError
from .model import (
    NOTIFICATION,
    OFFICIAL_TOKEN_CONTRACT,
    UNITS_PER_EOS,
    US_PER_DAY,
    Accounts,
    Actions,
    Named,
    ObservationWindow,
    eos_decimal,
    group_sums,
    window_days,
    write_csv,
)


def node_values(per_node, ids):
    """per_node[ids], with 0 for id -1 (an account not in the graph, even an empty one)."""
    return np.append(per_node, 0)[ids]


def concat_ranges(lo, n):
    """The indices lo[i]:lo[i] + n[i] of every i, concatenated in order."""
    return np.arange(n.sum()) + np.repeat(lo - np.cumsum(n) + n, n)


class Pairs(NamedTuple):
    """A DayGraph's (src, dst) pairs in row order: the row each starts at,
    its src and dst, its summed `count`, and each node's first pair (node
    i's pairs are first[i]:first[i + 1])."""

    starts: np.ndarray
    src: np.ndarray
    dst: np.ndarray
    count: np.ndarray
    first: np.ndarray


class DayGraph(Named):
    """A day-stamped graph over the sorted `names`: one row per (src, dst,
    day), rows sorted so, with the `count` of actions each row sums. The EMFG
    and the ECIG share this layout, its pair view and its day views."""

    def __init__(self, names, src, dst, day, count):
        self.names, self.src, self.dst, self.day, self.count = names, src, dst, day, count

    def node(self, account):
        """The account's node id; None for an account not in the graph."""
        i = self.id(account)
        return None if i < 0 else i

    @cached_property
    def pairs(self) -> Pairs:
        # the rows are in (src, dst) order already, so the stable sort keeps them
        _, starts, (src, dst), (count,) = group_sums((self.src, self.dst), self.count)
        return Pairs(starts, src, dst, count, np.searchsorted(src, np.arange(len(self.names) + 1)))

    def pair_sums(self, column):
        """`column` summed over each (src, dst) pair's rows."""
        starts = self.pairs.starts
        return np.add.reduceat(column, starts) if len(starts) else column[:0]

    def out_sums(self, pair_values):
        """Each node's sum of `pair_values` (one per pair) over its pairs, as floats."""
        return np.bincount(self.pairs.src, pair_values, len(self.names))

    def to_digraph(self, column, scale) -> DiGraph:
        """One row per (src, dst) pair, weighted by its `column` sum / `scale`:
        for sums below 2**53 the correctly rounded quotient."""
        return DiGraph(self.names, self.pairs.src, self.pairs.dst, self.pair_sums(column) / scale)


class DayView:
    """Per-node day sums of a DayGraph's rows: node i's groups are
    first[i]:first[i + 1] of `day` (ascending) and of each of the `sums`."""

    def __init__(self, node_count, node, day, *columns):
        _, _, (group_node, self.day), self.sums = group_sums((node, day), *columns)
        self.first = np.searchsorted(group_node, np.arange(node_count + 1))

    def totals(self, ids, k):
        """Each node's sum of sums[k] over every day."""
        cumulative = np.r_[0, np.cumsum(self.sums[k])]
        return node_values(cumulative[self.first[1:]] - cumulative[self.first[:-1]], ids)

    def matrix(self, ids, days, k):
        """len(ids) x days floats: sums[k] of node ids[r] on day d, zero for
        days outside 0..days - 1."""
        known = ids >= 0  # id -1 has an empty range
        lo = np.where(known, self.first[ids], 0)
        n = np.where(known, self.first[ids + 1], 0) - lo
        rows, groups = np.repeat(np.arange(len(ids)), n), concat_ranges(lo, n)
        day = self.day[groups]
        keep = (0 <= day) & (day < days)
        out = np.zeros((len(ids), days))
        out[rows[keep], day[keep]] = self.sums[k][groups[keep]]
        return out


class Emfg(DayGraph):
    """Money-flow graph over the transfer table's `names`: each row holds
    the day's summed `units` (10**-4 EOS) and transfer `count`."""

    def __init__(self, names, src, dst, day, units, count):
        super().__init__(names, src, dst, day, count)
        self.units = units

    @cached_property
    def sent(self):
        """DayView per sender of its (units, count)."""
        return DayView(len(self.names), self.src, self.day, self.units, self.count)

    @cached_property
    def received(self):
        """DayView per receiver of its (units, count)."""
        return DayView(len(self.names), self.dst, self.day, self.units, self.count)

    def edge_days(self, src, dst):
        """day -> (exact EOS weight, transfer count) of the src -> dst edge."""
        s, d = self.id(src), self.id(dst)
        if s < 0 or d < 0:
            return {}
        lo, hi = np.searchsorted(self.src, [s, s + 1])
        lo, hi = lo + np.searchsorted(self.dst[lo:hi], [d, d + 1])
        return {day: (eos_decimal(units), count) for day, units, count in zip(
            self.day[lo:hi].tolist(), self.units[lo:hi].tolist(), self.count[lo:hi].tolist())}

    def total_weight(self) -> Decimal:
        return eos_decimal(self.units.sum())

    def total_count(self) -> int:
        return int(self.count.sum())


def build_emfg(transfers) -> Emfg:
    """Aggregate an extract_transfers table into the money-flow graph."""
    if len(transfers) and transfers.units.min() <= 0:
        raise GraphError(f"non-positive transfer weight: {eos_decimal(transfers.units.min())}")
    _, _, keys, sums = group_sums((transfers.src, transfers.dst, transfers.day),
                                  transfers.units, np.ones(len(transfers), dtype=np.int64))
    return Emfg(transfers.names, *keys, *sums)


class Eacg(Named):
    """Account creation forest over the sorted snapshot `names`: each account's
    `creator` id (-1 for a root, whose creator is None or absent), creation
    `day` and `depths` (a root's is 0)."""

    def __init__(self, names, creator, day, depths):
        self.names, self.creator, self.day, self.depths = names, creator, day, depths

    def depth(self, account) -> int:
        i = self.id(account)
        if i < 0:
            raise GraphError(f"unknown account in creation forest: {account!r}")
        return int(self.depths[i])

    def max_depth(self) -> int:
        return int(self.depths.max(initial=0))

    @cached_property
    def parent(self):
        """child -> (creator, creation day), for every account but the roots."""
        child = np.flatnonzero(self.creator >= 0).tolist()
        return {self.names[c]: (self.names[p], d) for c, p, d in zip(
            child, self.creator[child].tolist(), self.day[child].tolist())}

    @cached_property
    def roots(self):
        return frozenset(self.names[i] for i in np.flatnonzero(self.creator < 0).tolist())


def build_eacg(snapshot, window: ObservationWindow) -> Eacg:
    """The creation forest of a parsed snapshot (or a plain dict of records):
    its Accounts table's columns, with the creation days in `window`."""
    table = Accounts.of(snapshot)
    return Eacg(table.names, table.creator, window_days(table.us // US_PER_DAY, window),
                table.depth)


class Ecig(DayGraph):
    """Contract invocation graph: each row counts the invocations of
    contract `dst` authorized by caller `src` on one day."""

    def total_invocations(self) -> int:
        return int(self.count.sum())

    def is_call(self, contract):
        """Whether each contract id in `contract` takes contract invocations:
        every contract but eosio.token, whose calls count as transfers."""
        return contract != self.id(OFFICIAL_TOKEN_CONTRACT)

    @cached_property
    def calls(self):
        """DayView per caller of its contract invocation count."""
        keep = self.is_call(self.dst)
        return DayView(len(self.names), self.src[keep], self.day[keep], self.count[keep])


def build_ecig(actions, window: ObservationWindow) -> Ecig:
    """Count invocations per (caller, contract, day): one group-by over the
    action table (a parsed trace's records view, or any ActionRecords).

    Callers are the authorizing actors; notification copies do not count.
    Every executing account counts (it did run code, including the system
    account).
    """
    table = Actions.of(actions)
    rows = np.flatnonzero(table.kind != NOTIFICATION)
    names, (callers, contracts) = table.relabel(table.actor[rows], table.contract[rows])
    _, _, keys, (count,) = group_sums(
        (callers, contracts, window_days(table.us[rows] // US_PER_DAY, window)),
        np.ones(len(rows), dtype=np.int64))
    return Ecig(names, *keys, count)


def silent_accounts(emfg: Emfg, ecig: Ecig, snapshot) -> set:
    """Accounts that never send money and never invoke a contract.
    Receiving EOS does not disqualify."""
    active = {graph.names[i] for graph in (emfg, ecig) for i in np.unique(graph.src).tolist()}
    return set(snapshot) - active


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
    """Pairs weighted by their EOS sum as a float."""
    return emfg.to_digraph(emfg.units, UNITS_PER_EOS)


def eacg_to_digraph(eacg: Eacg) -> DiGraph:
    """One creator -> child row of weight 1 per child, in (creator, child)
    order: the stable sort keeps each creator's children ascending."""
    child = np.flatnonzero(eacg.creator >= 0)
    child = child[np.argsort(eacg.creator[child], kind="stable")]
    return DiGraph(eacg.names, eacg.creator[child], child, np.ones(len(child)))


def ecig_to_digraph(ecig: Ecig) -> DiGraph:
    """Pairs weighted by their invocation count as a float."""
    return ecig.to_digraph(ecig.count, 1)


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
