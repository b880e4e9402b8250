"""Ground-truth checks of one pass's outputs against the synthgen manifest.

The tolerances are the acceptance gate's own. Each check belongs to the
CLI command whose output it reads; a failed check counts that command run
as a failed operation.
"""

import csv
import json
from decimal import Decimal


def _ingest(out, manifest):
    got = json.loads((out / "ingest.json").read_text())
    want_total = Decimal(manifest["transfer_total"].split()[0])
    problems = []
    if got["actions"] != manifest["action_count"]:
        problems.append(f"actions {got['actions']} != {manifest['action_count']}")
    if got["genuine_transfers"] != manifest["transfer_count"]:
        problems.append(f"genuine_transfers {got['genuine_transfers']} "
                        f"!= {manifest['transfer_count']}")
    if Decimal(got["transfer_total"]) != want_total:
        problems.append(f"transfer_total {got['transfer_total']} != {want_total}")
    return problems


def _bots_detect(out, manifest):
    stats = json.loads((out / "bot_communities.json").read_text())
    flagged = {c["controller"] for c in stats if c["flagged"]}
    planted = {c["controller"] for c in manifest["bot_communities"]}
    problems = []
    if planted and len(planted & flagged) < 0.95 * len(planted):
        problems.append(f"flagged {len(planted & flagged)}/{len(planted)} planted "
                        f"controllers: missed {sorted(planted - flagged)}")
    wrong = flagged & set(manifest["services"])
    if wrong:
        problems.append(f"service accounts flagged: {sorted(wrong)}")
    return problems


def _perms_audit(out, manifest):
    with (out / "perm_findings.csv").open(newline="") as fh:
        got = {(r["granter"], r["grantee"]) for r in csv.DictReader(fh)
               if r["severity"] == "misuse"}
    planted = {tuple(p) for p in manifest["misuse_grants"]["misuse"]}
    if got != planted:
        return [f"misuse pairs: {len(got - planted)} extra, {len(planted - got)} missed"]
    return []


def _attacks_scan(out, manifest):
    with (out / "attack_findings.ndjson").open() as fh:
        findings = [json.loads(line) for line in fh]
    got = {(f["kind"], f["attacker"]) for f in findings}
    planted = {(a["kind"], a["attacker"]) for a in manifest["attacks"]}
    problems = []
    if planted - got:
        problems.append(f"recall < 1: missed {sorted(planted - got)}")
    if got and len(got & planted) / len(got) < 0.9:
        problems.append(f"precision < 0.9: extra {sorted(got - planted)}")
    bundles = out / "bundles"
    written = len(list(bundles.iterdir())) if bundles.exists() else 0
    if written != len(findings):
        problems.append(f"{written} evidence bundles for {len(findings)} findings")
    return problems


CHECKS = {
    "ingest": _ingest,
    "bots_detect": _bots_detect,
    "perms_audit": _perms_audit,
    "attacks_scan": _attacks_scan,
}


def check(command_id, out, manifest):
    """Problems found in command_id's outputs; an empty list means correct."""
    fn = CHECKS.get(command_id)
    if fn is None:
        return []
    try:
        return fn(out, manifest)
    except (OSError, ValueError, KeyError) as exc:
        return [f"cannot read outputs: {exc!r}"]
