"""Two-stage bot detection: community-level behavioral similarity over
the creation forest, then per-account classification, followed by
public-key merging and category assignment.

Terminology: a "contract invocation" here is any authored action whose
executing contract is not eosio.token (token transfers are tracked
separately as money-flow actions). The contract-target vector, however,
covers every contract an account calls, eosio.token included, because
bots in the same farm hit the same targets whichever kind they are.

Everything reads the column graphs, and reads a whole account list at once:
`behavior_matrices` builds its time and target vectors (`behavior_vectors`
is the one-row case), `extract_features` its feature matrix, and
`categorize` labels it from maps built once per call, so its rules do
constant work per account. The shortlist and its communities are read off
the EACG's DiGraph view; the public-key groups are `metrics`' weak
components of the shared-key links.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .errors import CalibrationError
from .graphs import (DayView, DiGraph, Eacg, Ecig, Emfg, concat_ranges, eacg_to_digraph,
                     node_values)
from .metrics import weakly_connected_components
from .model import UNITS_PER_EOS, Accounts, ObservationWindow

DEFAULT_MIN_CHILDREN = 30
CLICK_FRAUD_RATIO = 0.95
CLICK_FRAUD_MIN_FLOW = 10  # EOS; counterparties below this are ignored
BONUS_HUNTER_FRACTION = 0.5
SELLER_MIN_COMMUNITY = 10

# Snap threshold bounds to 12 decimals so boxes derived from short decimal
# statistics (e.g. mean 0.09, sd 0.08) come out as exact bounds.
_BOUND_DECIMALS = 12

FEATURE_NAMES = (
    "acg_depth",
    "transfer_in_std",
    "transfer_out_std",
    "volume_per_transfer_in",
    "volume_per_transfer_out",
    "transfer_target_num",
    "invoke_contract_num",
    "invocation_num",
    "invocation_std",
    "activate_time",
    "siblings_same_day",
)


@dataclass
class BehaviorVectors:
    """Per-account time/frequency vector (money half then invocation
    half) and contract-target vector over the shared contract list."""

    account: str
    time_vec: np.ndarray  # length 2 * day_count
    target_vec: np.ndarray  # length = len(contract universe)

    def is_zero(self) -> bool:
        return not self.time_vec.any() or not self.target_vec.any()


@dataclass
class CommunityStats:
    controller: str
    members: list  # every direct child (community membership)
    measured: list  # non-silent members that contributed vectors
    dist_t: float
    dist_s: float
    flagged: bool = False
    skipped_reason: str | None = None


@dataclass
class SimilarityThreshold:
    mean_t: float
    sd_t: float
    mean_s: float
    sd_s: float

    def _box(self, mean, sd):
        # when sd is below the rounding step, rounding may move a bound past
        # the mean or a labeled community; no bound lies inside mean +/- 2 sd,
        # which holds the points at mean +/- sd with a margin for float error
        lo = min(round(mean - 3.0 * sd, _BOUND_DECIMALS), mean - 2.0 * sd)
        hi = max(round(mean + 3.0 * sd, _BOUND_DECIMALS), mean + 2.0 * sd)
        return max(0.0, lo), min(1.0, hi)

    @property
    def box_t(self):
        return self._box(self.mean_t, self.sd_t)

    @property
    def box_s(self):
        return self._box(self.mean_s, self.sd_s)

    def contains(self, dist_t, dist_s) -> bool:
        lo_t, hi_t = self.box_t
        lo_s, hi_s = self.box_s
        return lo_t <= dist_t <= hi_t and lo_s <= dist_s <= hi_s

    def to_json(self) -> dict:
        return {
            "mean_t": self.mean_t,
            "sd_t": self.sd_t,
            "mean_s": self.mean_s,
            "sd_s": self.sd_s,
            "box_t": list(self.box_t),
            "box_s": list(self.box_s),
        }


@dataclass
class BotVerdict:
    account: str
    is_bot: bool
    source: str  # community | classifier | pubkey-merge
    community_id: str | None = None
    category: str = "none"

    def to_json(self) -> dict:
        return asdict(self)


# ---------------------------------------------------------------------------
# Shortlist + behavior vectors


def communities(eacg: Eacg, min_children=DEFAULT_MIN_CHILDREN) -> dict:
    """Each account with more than `min_children` out-edges in the EACG (the
    accounts it created) -> its children, both in name order."""
    view = eacg_to_digraph(eacg)  # children ascend per creator, creators ascend
    counts = view.out_degrees()
    ends = np.cumsum(counts)
    return {eacg.names[c]: [eacg.names[m] for m in view.dst[ends[c] - counts[c]:ends[c]].tolist()]
            for c in np.flatnonzero(counts > min_children).tolist()}


def contract_universe(ecig: Ecig):
    """Canonical sorted contract list shared across one run."""
    return [ecig.names[i] for i in np.flatnonzero(np.bincount(ecig.dst)).tolist()]


def behavior_matrices(accounts, emfg: Emfg, ecig: Ecig, window: ObservationWindow,
                      contract_index) -> tuple:
    """(time matrix, target matrix), one row per account: its daily transfers
    sent, then its daily contract invocations over the window; its calls of
    each contract of `contract_index` (name -> column; others are left out)."""
    days, e, c = window.day_count, emfg.ids(accounts), ecig.ids(accounts)
    time = np.hstack([emfg.sent.matrix(e, days, 1), ecig.calls.matrix(c, days, 0)])
    pairs = ecig.pairs
    column = np.full(len(ecig.names) + 1, -1)  # the last slot takes contracts not in the ECIG
    column[ecig.ids(contract_index)] = list(contract_index.values())
    # the pairs are in (src, dst) order, so the requested sources' ranges in
    # ascending id order are their pairs in row order
    nodes = np.flatnonzero(np.bincount(c[c >= 0]))
    keep = concat_ranges(pairs.first[nodes], pairs.first[nodes + 1] - pairs.first[nodes])
    targets = DayView(len(ecig.names), pairs.src[keep], column[pairs.dst[keep]], pairs.count[keep])
    return time, targets.matrix(c, len(contract_index), 0)


def behavior_vectors(account, emfg: Emfg, ecig: Ecig, window: ObservationWindow,
                     contract_index) -> BehaviorVectors:
    """One account's row of behavior_matrices."""
    time, targets = behavior_matrices([account], emfg, ecig, window, contract_index)
    return BehaviorVectors(account, time[0], targets[0])


def cosine_distance(u, v) -> float:
    return _cosine_distance(u, v, np.linalg.norm(u), np.linalg.norm(v))


def _cosine_distance(u, v, nu, nv) -> float:  # given the norms nu of u and nv of v
    if nu == 0 or nv == 0:
        raise ValueError("cosine distance undefined for zero vector")
    d = 1.0 - float(u @ v) / (nu * nv)
    return min(1.0, max(0.0, d))


def group_mean_distance(vectors) -> float:
    """Average cosine distance of each vector to the group mean vector."""
    stack = np.vstack(vectors).astype(np.float64)
    mean = stack.mean(axis=0)
    nv = np.linalg.norm(mean)
    # on a float vector, np.linalg.norm is the square root of its dot product
    return float(np.mean([_cosine_distance(v, mean, math.sqrt(v.dot(v)), nv) for v in stack]))


def group_similarity(members_vectors) -> tuple:
    """(dist_s, dist_t) over a community's non-silent members."""
    dist_t = group_mean_distance([bv.time_vec for bv in members_vectors])
    dist_s = group_mean_distance([bv.target_vec for bv in members_vectors])
    return dist_s, dist_t


def measure_community(members, vector_for):
    """(the members' vectors that are neither silent (None from
    `vector_for`) nor zero, and their (dist_t, dist_s) or None if none is)."""
    vectors = [v for v in map(vector_for, members) if v is not None and not v.is_zero()]
    if not vectors:
        return vectors, None
    dist_s, dist_t = group_similarity(vectors)
    return vectors, (dist_t, dist_s)


# ---------------------------------------------------------------------------
# Calibration + detection


def calibrate_threshold(bot_dists) -> SimilarityThreshold:
    """Mean and population sd of (dist_t, dist_s) over labeled bot
    communities; the acceptance box is mean +/- 3 sd per axis, clipped to
    [0, 1]."""
    if len(bot_dists) < 2:
        raise CalibrationError(
            f"need >= 2 labeled bot communities, got {len(bot_dists)}"
        )
    ts = np.array([d[0] for d in bot_dists], dtype=np.float64)
    ss = np.array([d[1] for d in bot_dists], dtype=np.float64)
    return SimilarityThreshold(
        mean_t=float(ts.mean()),
        sd_t=float(ts.std()),
        mean_s=float(ss.mean()),
        sd_s=float(ss.std()),
    )


def detect_communities(eacg: Eacg, vector_for, threshold: SimilarityThreshold,
                       min_children=DEFAULT_MIN_CHILDREN):
    """Evaluate every shortlisted creator's community against the
    calibrated box, measured as measure_community does with `vector_for`.
    Returns (flagged, all_stats) in controller order."""
    stats = []
    for controller, members in communities(eacg, min_children).items():
        vectors, dists = measure_community(members, vector_for)
        if dists is None:
            stats.append(CommunityStats(controller, members, [], float("nan"), float("nan"),
                                        skipped_reason="all members silent"))
        else:
            stats.append(CommunityStats(controller, members, [bv.account for bv in vectors],
                                        *dists, flagged=threshold.contains(*dists)))
    return [c for c in stats if c.flagged], stats


def merge_by_pubkey(flagged_accounts, snapshot):
    """Groups of flagged accounts that share active public keys: the weak
    components of the links from each account to the first flagged account
    (by name) that holds each of its keys, from the snapshot's key rows.
    Returns community id -> sorted member list, numbered in order of each
    group's smallest member."""
    flagged = sorted(set(flagged_accounts))
    table = Accounts.of(snapshot)
    member = np.full(len(table) + 1, -1)  # position in `flagged`; the last slot takes the absent
    member[table.ids(flagged)] = np.arange(len(flagged))
    rows = table.key_active & (member[table.key_account] >= 0)
    src = member[table.key_account[rows]]
    _, first, key = np.unique(table.key[rows], return_index=True, return_inverse=True)
    groups = weakly_connected_components(DiGraph(flagged, src, src[first][key],
                                                 np.ones(len(src))))
    return {f"pk-{i:04d}": sorted(members) for i, members in enumerate(sorted(groups, key=min))}


# ---------------------------------------------------------------------------
# Features + classification


def _row_std(series, created):
    """np.std of each row of `series` from its `created` day on, one call
    per distinct creation day."""
    out = np.zeros(len(series))
    for day in np.flatnonzero(np.bincount(created)).tolist():
        rows = created == day
        out[rows] = np.std(series[rows, day:], axis=1)
    return out


def extract_features(accounts, emfg: Emfg, ecig: Ecig, eacg: Eacg,
                     window: ObservationWindow) -> np.ndarray:
    """The 11 classification features of each account, as a len(accounts)
    x 11 float64 matrix in FEATURE_NAMES order. Per-day statistics run from
    the account's creation day (clamped into the window) through the window
    end; accounts with no transfers get zero means/stds. Siblings are the
    other children of the same creator created on the same day in `eacg`,
    the creation forest, which gives the days and depths too."""
    days = window.day_count
    ids = eacg.ids(accounts)
    created = np.clip(eacg.day[ids], 0, days - 1)
    in_span = np.arange(days) >= created[:, None]
    e, c = emfg.ids(accounts), ecig.ids(accounts)

    def money_flow(view):
        """(daily EOS volumes, EOS volume per transfer) of each account."""
        count = view.totals(e, 1)
        return (view.matrix(e, days, 0) / UNITS_PER_EOS,
                np.divide(view.totals(e, 0) / UNITS_PER_EOS, count,
                          out=np.zeros(len(e)), where=count > 0))

    (in_vol, in_per), (out_vol, out_per) = money_flow(emfg.received), money_flow(emfg.sent)
    calls = ecig.calls.matrix(c, days, 0)
    child = np.flatnonzero(eacg.creator >= 0)
    _, cohort, size = np.unique(np.stack([eacg.creator[child], eacg.day[child]]), axis=1,
                                return_inverse=True, return_counts=True)
    siblings = np.zeros(len(eacg.names), dtype=np.int64)
    siblings[child] = size[cohort] - 1
    return np.column_stack([
        [eacg.depth(a) for a in accounts],
        _row_std(in_vol, created),
        _row_std(out_vol, created),
        in_per,
        out_per,
        node_values(np.diff(emfg.pairs.first), e),
        node_values(ecig.out_sums(ecig.is_call(ecig.pairs.dst)), c),
        (calls * in_span).sum(axis=1),
        _row_std(calls, created),
        np.count_nonzero((out_vol + calls > 0) & in_span, axis=1) / (days - created),
        siblings[ids],
    ]).astype(np.float64)


# ---------------------------------------------------------------------------
# Categorization


def categorize(accounts, emfg: Emfg, ecig: Ecig, snapshot, registry, merged=None) -> list:
    """One category per account; for each, the first matching rule wins:
    dapp_team, account_seller, bonus_hunter, click_fraud, other. The maps
    the rules read are built once per call."""
    # dapp_team: an account that is a DApp or shares an active key with one
    t = Accounts.of(snapshot)
    dapp_rows = t.key_active & np.isin(t.key_account, t.ids(registry.dapp_accounts))
    team = np.isin(t.ids(accounts), t.key_account[t.key_active & np.isin(t.key, t.key[dapp_rows])])

    # per caller: invocations of every contract but eosio.token, and of
    # incentive DApps among them
    pairs = ecig.pairs
    calls = np.where(ecig.is_call(pairs.dst), pairs.count, 0)
    invoked = ecig.out_sums(calls)
    hunted = ecig.out_sums(np.where(np.isin(pairs.dst, ecig.ids(registry.incentive_dapps)),
                                    calls, 0))

    def invocations(account):
        i = ecig.id(account)
        return (0.0, 0.0) if i < 0 else (invoked[i], hunted[i])

    # account_seller: a member of a big shared-key group whose members
    # never invoke a contract
    sellers = {m for members in (merged or {}).values()
               if len(members) >= SELLER_MIN_COMMUNITY
               and not any(invocations(m)[0] for m in members) for m in members}

    # click_fraud: account -> DApp -> [units sent to it, units received from it]
    flows = {}
    dapp = np.isin(np.arange(len(emfg.names)), emfg.ids(registry.dapp_accounts))
    src, dst = emfg.pairs.src, emfg.pairs.dst
    touching = dapp[src] | dapp[dst]
    for s, d, units in zip(src[touching].tolist(), dst[touching].tolist(),
                           emfg.pair_sums(emfg.units)[touching].tolist()):
        if dapp[d]:
            flows.setdefault(emfg.names[s], {}).setdefault(emfg.names[d], [0, 0])[0] = units
        if dapp[s]:
            flows.setdefault(emfg.names[d], {}).setdefault(emfg.names[s], [0, 0])[1] = units

    def label(account, shares_dapp_key):
        if account in registry.dapp_accounts or shares_dapp_key:
            return "dapp_team"
        if account in registry.seller_seed or account in sellers:
            return "account_seller"
        total, hunting = invocations(account)
        if total and hunting / total > BONUS_HUNTER_FRACTION:
            return "bonus_hunter"
        for sent, received in flows.get(account, {}).values():
            sent, received = sent / UNITS_PER_EOS, received / UNITS_PER_EOS
            if (sent + received >= CLICK_FRAUD_MIN_FLOW
                    and min(sent, received) / max(sent, received) >= CLICK_FRAUD_RATIO):
                return "click_fraud"
        return "other"

    return [label(a, shares) for a, shares in zip(accounts, team.tolist())]
