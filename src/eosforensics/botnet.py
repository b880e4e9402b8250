"""Two-stage bot detection: community-level behavioral similarity over
the creation forest, then per-account classification, followed by
public-key merging and category assignment.

Terminology: a "contract invocation" here is any authored action whose
executing contract is not eosio.token (token transfers are tracked
separately as money-flow actions). The contract-target vector, however,
covers every contract an account calls, eosio.token included, because
bots in the same farm hit the same targets whichever kind they are.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import CalibrationError
from .graphs import Eacg, Ecig, Emfg
from .model import OFFICIAL_TOKEN_CONTRACT, UNITS_PER_EOS, ObservationWindow

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
class AccountFeatures:
    account: str
    values: np.ndarray  # aligned with FEATURE_NAMES

    def as_dict(self):
        return dict(zip(FEATURE_NAMES, (float(v) for v in self.values)))


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


def shortlist_creators(eacg: Eacg, min_children=DEFAULT_MIN_CHILDREN) -> set:
    """Accounts that created strictly more than `min_children` accounts."""
    return {a for a in eacg.children if eacg.out_degree(a) > min_children}


def contract_universe(ecig: Ecig):
    """Canonical sorted contract list shared across one run."""
    contracts = set()
    for _, contract, _ in ecig.edges():
        contracts.add(contract)
    return sorted(contracts)


def behavior_vectors(account, emfg: Emfg, ecig: Ecig, window: ObservationWindow,
                     contract_index) -> BehaviorVectors:
    days = window.day_count
    t = np.zeros(2 * days)
    for day, (_, count) in emfg.daily(account, "out").items():
        if 0 <= day < days:
            t[day] += count
    for day, count in ecig.out_daily_counts(account).items():
        if 0 <= day < days:
            t[days + day] += count
    s = np.zeros(len(contract_index))
    for contract, count in ecig.target_counts(account).items():
        idx = contract_index.get(contract)
        if idx is not None:
            s[idx] = count
    return BehaviorVectors(account, t, s)


def cosine_distance(u, v) -> float:
    nu = np.linalg.norm(u)
    nv = np.linalg.norm(v)
    if nu == 0 or nv == 0:
        raise ValueError("cosine distance undefined for zero vector")
    d = 1.0 - float(u @ v) / (nu * nv)
    return min(1.0, max(0.0, d))


def group_mean_distance(vectors) -> float:
    """Average cosine distance of each vector to the group mean vector."""
    stack = np.vstack(vectors)
    mean = stack.mean(axis=0)
    return float(np.mean([cosine_distance(v, mean) for v in stack]))


def group_similarity(members_vectors) -> tuple:
    """(dist_s, dist_t) over a community's non-silent members."""
    dist_t = group_mean_distance([bv.time_vec for bv in members_vectors])
    dist_s = group_mean_distance([bv.target_vec for bv in members_vectors])
    return dist_s, dist_t


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
    calibrated box.

    `vector_for(account)` returns a BehaviorVectors or None for silent
    accounts. Returns (flagged, all_stats) with deterministic order.
    """
    stats = []
    for controller in sorted(shortlist_creators(eacg, min_children)):
        members = sorted(eacg.children[controller])
        vectors = []
        for member in members:
            bv = vector_for(member)
            if bv is not None and not bv.is_zero():
                vectors.append(bv)
        if not vectors:
            stats.append(
                CommunityStats(controller, members, [], float("nan"), float("nan"),
                               skipped_reason="all members silent")
            )
            continue
        dist_s, dist_t = group_similarity(vectors)
        flagged = threshold.contains(dist_t, dist_s)
        stats.append(
            CommunityStats(controller, members, [bv.account for bv in vectors],
                           dist_t, dist_s, flagged=flagged)
        )
    return [c for c in stats if c.flagged], stats


def merge_by_pubkey(flagged_accounts, snapshot):
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
        for key in sorted(record.active_keys()):
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


# ---------------------------------------------------------------------------
# Per-account features + classification


def _std(values) -> float:
    if len(values) == 0:
        return 0.0
    return float(np.std(np.asarray(values, dtype=np.float64)))


def extract_features(account, emfg: Emfg, ecig: Ecig, eacg: Eacg,
                     snapshot, window: ObservationWindow,
                     siblings: int) -> AccountFeatures:
    """The 11 classification features. Per-day statistics run from the
    account's creation day (clamped into the window) through the window
    end; accounts with no transfers get zero means/stds. `siblings` is the
    account's siblings_for count."""
    record = snapshot[account]
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
        """(daily EOS volume series, total EOS volume, transfer count)."""
        daily = emfg.daily(account, direction)
        volumes = {day: units / UNITS_PER_EOS for day, (units, _) in daily.items()}
        return (daily_series(volumes),
                sum(units for units, _ in daily.values()) / UNITS_PER_EOS,
                sum(count for _, count in daily.values()))

    in_vol, in_total, in_count = money_flow("in")
    out_vol, out_total, out_count = money_flow("out")

    invocations = ecig.out_daily_counts(account)
    inv_series = daily_series(invocations)
    inv_total = int(inv_series.sum())
    inv_contracts = len(
        ecig.target_counts(account, exclude=(OFFICIAL_TOKEN_CONTRACT,))
    )

    # transfer weights are positive, so out_vol is nonzero exactly on the
    # days with an outgoing transfer
    active_days = np.count_nonzero(out_vol + inv_series)

    values = np.array(
        [
            eacg.depth(account),
            _std(in_vol),
            _std(out_vol),
            in_total / in_count if in_count else 0.0,
            out_total / out_count if out_count else 0.0,
            emfg.out_degree(account),
            inv_contracts,
            inv_total,
            _std(inv_series),
            active_days / span,
            siblings,
        ],
        dtype=np.float64,
    )
    return AccountFeatures(account, values)


def sibling_counts(snapshot):
    """(creator, creation date) cohort sizes, read by siblings_for."""
    cohorts = {}
    for record in snapshot.values():
        if record.creator is None:
            continue
        key = (record.creator, record.created_at.date())
        cohorts[key] = cohorts.get(key, 0) + 1
    return cohorts


def siblings_for(record, cohorts) -> int:
    if record.creator is None:
        return 0
    return cohorts.get((record.creator, record.created_at.date()), 1) - 1


# ---------------------------------------------------------------------------
# Categorization


def categorize(account, emfg: Emfg, ecig: Ecig, snapshot, registry,
               merged_communities=None) -> str:
    """First matching rule wins: dapp_team, account_seller, bonus_hunter,
    click_fraud, other."""
    record = snapshot.get(account)

    # 1. DApp team: shares an active key with a DApp account, or is one.
    if account in registry.dapp_accounts:
        return "dapp_team"
    if record is not None:
        keys = record.active_keys()
        if keys:
            for dapp in registry.dapp_accounts:
                dapp_record = snapshot.get(dapp)
                if dapp_record is not None and keys & dapp_record.active_keys():
                    return "dapp_team"

    inv_targets = ecig.target_counts(account, exclude=(OFFICIAL_TOKEN_CONTRACT,))
    inv_total = sum(inv_targets.values())

    # 2. Account seller: registry seed, or a big shared-key community
    # whose members never invoke any contract.
    if account in registry.seller_seed:
        return "account_seller"
    if merged_communities:
        for members in merged_communities.values():
            if account in members and len(members) >= SELLER_MIN_COMMUNITY:
                if all(
                    not ecig.target_counts(m, exclude=(OFFICIAL_TOKEN_CONTRACT,))
                    for m in members
                ):
                    return "account_seller"

    # 3. Bonus hunter: most invocations target incentive DApps.
    if inv_total:
        incentive = sum(
            c for t, c in inv_targets.items() if t in registry.incentive_dapps
        )
        if incentive / inv_total > BONUS_HUNTER_FRACTION:
            return "bonus_hunter"

    # 4. Click fraud: near-balanced flow with some DApp counterparty.
    for dapp in registry.dapp_accounts:
        sent = float(sum(w for w, _ in emfg.edge_days(account, dapp).values()))
        received = float(sum(w for w, _ in emfg.edge_days(dapp, account).values()))
        total = sent + received
        if total < CLICK_FRAUD_MIN_FLOW or total == 0:
            continue
        low, high = min(sent, received), max(sent, received)
        if high > 0 and low / high >= CLICK_FRAUD_RATIO:
            return "click_fraud"

    return "other"
