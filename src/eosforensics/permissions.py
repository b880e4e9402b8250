"""eosio.code permission audit: replay updateauth history and compare
grant weights against thresholds and key ownership."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import (NOTIFICATION, US_PER_DAY, Accounts, Actions, UpdateAuthPayload,
                    window_days, write_csv)

CODE_PERMISSION = "eosio.code"


@dataclass(frozen=True)
class PermissionGrant:
    granter: str
    grantee: str
    grantee_permission: str
    linked_permission: str  # permission the grant is attached to
    weight: int
    threshold: int
    day: int
    action_seq: int


@dataclass
class MisuseFinding:
    grant: PermissionGrant
    effective: bool  # weight >= threshold
    cross_key: bool | None  # None when the grantee is unknown
    severity: str  # misuse | partial | benign
    note: str = ""


def scan_updateauth(actions, window):
    """Replay the system account's updateauth and deleteauth actions in
    global_seq order and return the final active eosio.code grants, one per
    surviving account-weight entry. They are the `auth` list of the action
    table (of a parsed trace's records view, or the table itself), in row
    order, which the parse keeps in ascending global_seq.
    Another contract's action of the same name changes no permission, so it
    is ignored.

    A later updateauth on the same (account, permission) supersedes the
    earlier authority entirely, so revocations fall out naturally; a
    deleteauth removes it. Malformed payloads are skipped with a diagnostic.
    """
    table = Actions.of(actions)
    state = {}  # (granter, linked_permission) -> (payload, day, seq)
    diagnostics = []
    for row, payload in table.auth:
        if table.kind[row] == NOTIFICATION:
            continue
        seq = int(table.seq[row])
        if table.names[table.action[row]] == "deleteauth":
            key = (payload.get("account"), payload.get("permission"))
            if all(isinstance(part, str) for part in key):
                state.pop(key, None)
            else:
                diagnostics.append((seq, "deleteauth without a string account and permission"))
            continue
        if not isinstance(payload, UpdateAuthPayload):
            diagnostics.append((seq, "updateauth with undecodable authority payload"))
            continue
        state[(payload.account, payload.permission)] = (
            payload, int(window_days(table.us[row] // US_PER_DAY, window)), seq)

    grants = []
    for (granter, linked), (payload, day, seq) in sorted(state.items()):
        for grantee, grantee_perm, weight in payload.authority.account_weights:
            if grantee_perm != CODE_PERMISSION:
                continue
            grants.append(
                PermissionGrant(
                    granter=granter,
                    grantee=grantee,
                    grantee_permission=grantee_perm,
                    linked_permission=linked,
                    weight=weight,
                    threshold=payload.authority.threshold,
                    day=day,
                    action_seq=seq,
                )
            )
    return grants, diagnostics


def detect_misuse(grants, snapshot):
    """Classify each grant.

    misuse: keys disjoint and the weight alone meets the threshold.
    partial: keys disjoint but several authorizers would be needed, or
    the grantee is missing from the snapshot (cross_key unknown).
    benign: granter and grantee share a public key (same owner), compared
    as key ids of the snapshot table's key rows.
    """
    table = Accounts.of(snapshot)
    first = np.searchsorted(table.key_account, np.arange(len(table) + 1))

    def key_ids(name):
        i = table.id(name)
        return None if i < 0 else set(table.key[first[i]:first[i + 1]].tolist())

    findings = []
    for grant in grants:
        effective = grant.weight >= grant.threshold
        granter, grantee = key_ids(grant.granter), key_ids(grant.grantee)
        if grantee is None or granter is None:
            findings.append(MisuseFinding(grant, effective, None, "partial",
                                          note="grantee or granter missing from snapshot"))
        elif granter & grantee:
            findings.append(MisuseFinding(grant, effective, False, "benign"))
        else:
            findings.append(MisuseFinding(grant, effective, True,
                                          "misuse" if effective else "partial"))
    return findings


def account_pair_summary(findings):
    """Deduplicated (granter, grantee) pairs per severity; the per-action
    and per-pair counts are both reported because the two granularities
    answer different questions."""
    pairs = {}
    for f in findings:
        key = (f.grant.granter, f.grant.grantee)
        current = pairs.get(key)
        order = {"misuse": 2, "partial": 1, "benign": 0}
        if current is None or order[f.severity] > order[current]:
            pairs[key] = f.severity
    return pairs


def export_findings_csv(findings, path):
    write_csv(path, ["granter", "grantee", "linked_permission", "weight", "threshold",
                     "severity", "action_seq"],
              ([f.grant.granter, f.grant.grantee, f.grant.linked_permission,
                f.grant.weight, f.grant.threshold, f.severity, f.grant.action_seq]
               for f in sorted(findings, key=lambda f: f.grant.action_seq)))
