"""Deterministic synthetic-chain generator.

Emits an action trace, an account snapshot, registries and a ground-truth
manifest so every detector in the toolkit can be scored against planted
facts. All randomness flows from one seeded PRNG; a fixed seed yields
byte-identical files.

Amounts are handled internally as integer 0.0001-EOS units so balance
arithmetic is exact.
"""

from __future__ import annotations

import csv
import json
import random
from dataclasses import dataclass, field
from datetime import date, timedelta
from pathlib import Path

from .errors import ConfigError, GenerationError
from .model import UNITS_PER_EOS as UNIT, ObservationWindow, encode_json, write_ndjson

GENESIS = date(2018, 6, 9)
DAPP_COUNT = 3  # gambling DApps
INCENTIVE_DAPP_COUNT = 2

_ALPHA = "abcdefghijklmnopqrstuvwxyz"


def _name(prefix, i):
    """Deterministic valid account name: prefix + base-26 letters."""
    suffix = ""
    for _ in range(12 - len(prefix)):
        suffix = _ALPHA[i % 26] + suffix
        i //= 26
    return prefix + suffix


def _eos(units: int) -> str:
    return f"{units // UNIT}.{units % UNIT:04d} EOS"


class _Timestamps(dict):
    """ISO timestamps of (window day index, second of day); the dict holds
    each day's date text and "T", made on first use."""

    def __init__(self, window: ObservationWindow):
        super().__init__()
        self.window = window

    def __missing__(self, day):
        text = self[day] = self.window.day_date(day).isoformat() + "T"
        return text

    def stamp(self, day, sec):
        hour, sec = divmod(sec, 3600)
        minute, sec = divmod(sec, 60)
        return f"{self[day]}{hour:02d}:{minute:02d}:{sec:02d}Z"


@dataclass(frozen=True)
class BotCommunitySpec:
    size: int
    category: str  # click_fraud | bonus_hunter | dapp_team | account_seller | other
    calibration: bool = False


@dataclass(frozen=True)
class AttackSpec:
    kind: str  # fake_transfer | fake_notice | predictable_state
    profit_eos: int
    day: int


@dataclass(frozen=True)
class MisusePlan:
    misuse: int = 0
    partial: int = 0  # weight below threshold
    benign: int = 0  # shared-key decoys
    revoked: int = 0
    unrelated: int = 0  # updateauth without eosio.code entries
    deleted: int = 0  # grants on their own permission, which deleteauth later removes


@dataclass
class ScenarioConfig:
    seed: int = 0
    day_count: int = 30
    normal_account_count: int = 100
    service_count: int = 3
    bot_community_specs: list = field(default_factory=list)
    attack_specs: list = field(default_factory=list)
    misuse_plan: MisusePlan = field(default_factory=MisusePlan)
    background_transfer_rate: float = 1.0  # scales bets per play day
    silent_account_count: int = 0
    deep_chain_length: int = 0
    dapp_funding_eos: int = 500_000


class _Chain:
    def __init__(self, config: ScenarioConfig):
        self.config = config
        self.rng = random.Random(config.seed)
        try:
            end = GENESIS + timedelta(days=config.day_count - 1)
        except OverflowError:
            raise ConfigError(f"a window of {config.day_count} days from {GENESIS} "
                              f"ends after year 9999") from None
        self.window = ObservationWindow(GENESIS, end)
        self.timestamps = _Timestamps(self.window)
        self.records = []  # (time_key, idx, contract, action, actor, kind, payload, notified)
        self.accounts = {}  # name -> dict
        self.balances = {}
        self.transfer_count = 0
        self.transfer_total = 0  # units
        self.dapps = []  # (name, dapp, category)
        self.labels = []  # (community_id, role, account)
        self.manifest = {}

    # -- primitives --------------------------------------------------------

    def emit(self, day, sec, contract, action, actor, kind, payload, notified=None):
        key = day * 86400 + min(sec, 86399)
        self.records.append(
            (key, len(self.records), contract, action, actor, kind, payload, notified)
        )

    def create_account(self, name, creator, day, sec=None, key=None,
                       has_contract=False, emit_action=True):
        if name in self.accounts:
            raise GenerationError(f"duplicate account {name}")
        if sec is None:
            sec = self.rng.randrange(86400)
        maker = self.accounts.get(creator)
        if maker is not None and maker["day"] == day and sec <= maker["sec"]:
            # keep creation strictly after the creator's own creation
            sec = min(86399, maker["sec"] + 1)
        self.accounts[name] = {
            "creator": creator,
            "day": day,
            "sec": sec,
            "key": key or f"EOSKEY{name.upper()}",
            "has_contract": has_contract,
        }
        self.balances[name] = 0
        if emit_action and creator is not None:
            self.emit(day, sec, "eosio", "newaccount", creator, "external",
                      ("D", {"creator": creator, "name": name}))
        return name

    def transfer(self, day, sec, src, dst, units, memo=""):
        if units <= 0:
            raise GenerationError(f"non-positive transfer of {units} units")
        if self.balances[src] < units:
            if self.accounts[src]["has_contract"] or src == "eosio":
                raise GenerationError(
                    f"{src} cannot cover {_eos(units)} (victim funds exhausted?)"
                )
            shortfall = units - self.balances[src]
            topup = ((shortfall // (100 * UNIT)) + 1) * 100 * UNIT
            self._move(day, max(0, sec - 1), "eosio", src, topup)
        self._move(day, sec, src, dst, units, memo)

    def _move(self, day, sec, src, dst, units, memo=""):
        self.balances[src] -= units
        self.balances[dst] += units
        if self.balances[src] < 0:
            raise GenerationError(f"balance of {src} went negative")
        payload = ("T", src, dst, _eos(units), memo)
        self.emit(day, sec, "eosio.token", "transfer", src, "external", payload)
        self.transfer_count += 1
        self.transfer_total += units
        if self.accounts.get(dst, {}).get("has_contract"):
            # contract accounts get the require_recipient copy
            self.emit(day, sec, "eosio.token", "transfer", src, "notification",
                      payload, notified=dst)

    def invoke(self, day, sec, actor, contract, action, args=None):
        self.emit(day, sec, contract, action, actor, "external",
                  ("D", args or {}))

    # -- scenario blocks ---------------------------------------------------

    def build(self):
        self.create_account("eosio", None, 0, 0, emit_action=False)
        self.balances["eosio"] = 10**10 * UNIT
        self.create_account("eosio.token", None, 0, 1, emit_action=False)
        self.create_account("eosio.null", None, 0, 2, emit_action=False)

        self._build_dapps()
        services = self._build_services()
        users = self._build_users(services)
        self._build_background(users)
        communities = self._build_bot_communities()
        self._build_silent()
        self._build_deep_chain()
        attacks = self._build_attacks()
        misuse = self._build_misuse()
        self._finalize_manifest(services, users, communities, attacks, misuse)

    def _build_dapps(self):
        # (name prefix, label, category, count, second of the first funding)
        for prefix, label, category, count, sec in (
                ("game", "Game", "gambling", DAPP_COUNT, 10),
                ("bonus", "Bonus", "incentive", INCENTIVE_DAPP_COUNT, 40),
                ("exch", "Exchange", "exchange", 1, 70)):
            for i in range(count):
                name = _name(prefix, i)
                self.create_account(name, "eosio", 0, has_contract=True)
                self.transfer(0, sec + i, "eosio", name, self.config.dapp_funding_eos * UNIT)
                self.dapps.append((name, f"{label}{i}", category))
        self.exchange = _name("exch", 0)
        self.gambling = [d for d, _, c in self.dapps if c == "gambling"]
        self.incentives = [d for d, _, c in self.dapps if c == "incentive"]
        # unlabeled utility contract; bot members ping it occasionally so
        # target vectors are not single-dimensional
        self.helper = self.create_account(_name("helper", 0), "eosio", 0,
                                          has_contract=True)

    def _build_services(self):
        services = []
        for i in range(self.config.service_count):
            name = _name("svc", i)
            day = self.rng.randrange(0, max(1, self.config.day_count // 4))
            self.create_account(name, "eosio", day)
            services.append(name)
        return services

    def _build_users(self, services):
        cfg = self.config
        users = []
        if not services:
            return users
        for i in range(cfg.normal_account_count):
            service = services[i % len(services)]
            created = self.accounts[service]["day"] + self.rng.randrange(
                0, max(1, cfg.day_count // 2)
            )
            created = max(0, min(created, cfg.day_count - 2))
            name = _name("usr", i)
            self.create_account(name, service, created)
            self.transfer(created, self.accounts[name]["sec"] + 2, service, name,
                          self.rng.randrange(50, 200) * UNIT)
            users.append(name)
        return users

    def _build_background(self, users):
        """Heterogeneous gambling traffic. Stakes are small so no normal
        user ever nets more than a fraction of the W1 default in a day,
        and long play histories keep the lifetime profit share low."""
        cfg = self.config
        rng = self.rng
        bets_scale = max(1, round(2 * cfg.background_transfer_rate))
        for user in users:
            start = self.accounts[user]["day"]
            horizon = cfg.day_count - start
            if horizon < 2:
                continue
            play_days = rng.sample(
                range(start, cfg.day_count),
                k=min(horizon, rng.randrange(3, 12)),
            )
            dapp = rng.choice(self.gambling)
            for day in sorted(play_days):
                bets = rng.randrange(1, 2 + bets_scale)
                for _ in range(bets):
                    sec = rng.randrange(86400)
                    stake = rng.randrange(1, 15) * UNIT
                    self.transfer(day, sec, user, dapp, stake)
                    self.invoke(day, sec, user, dapp, "play",
                                {"bet": _eos(stake)})
                    # payout EV slightly below stake; capped win
                    payout = (stake * rng.randrange(0, 19)) // 10
                    payout = min(payout, stake + 25 * UNIT)
                    if payout:
                        self.transfer(day, min(86399, sec + 5), dapp, user, payout)
            if rng.random() < 0.3:
                # occasional exchange deposits for texture
                day = rng.choice(play_days)
                self.transfer(day, rng.randrange(86400), user, self.exchange,
                              rng.randrange(1, 30) * UNIT)

    def _build_bot_communities(self):
        cfg = self.config
        rng = self.rng
        communities = []
        for ci, spec in enumerate(cfg.bot_community_specs):
            controller = _name("ctl", ci)
            cday = rng.randrange(0, max(1, cfg.day_count // 4))
            self.create_account(controller, "eosio", cday)
            members = []
            shared_key = f"EOSKEYFARM{ci:04d}"
            dapp_key = None
            target = None
            if spec.category == "click_fraud":
                target = self.gambling[ci % len(self.gambling)]
            elif spec.category == "bonus_hunter":
                target = self.incentives[ci % len(self.incentives)]
            elif spec.category == "dapp_team":
                target = self.gambling[ci % len(self.gambling)]
                dapp_key = self.accounts[target]["key"]
            elif spec.category == "other":
                target = _name("plain", ci)
                self.create_account(target, "eosio", 0, has_contract=True)

            for mi in range(spec.size):
                name = _name(f"b{_ALPHA[ci % 26]}{_ALPHA[ci // 26]}", mi)
                mday = max(0, min(cday + rng.randrange(0, 3), cfg.day_count - 2))
                key = None
                if spec.category == "account_seller":
                    key = shared_key
                elif spec.category == "dapp_team":
                    key = dapp_key
                self.create_account(name, controller, mday, key=key)
                self.transfer(mday, self.accounts[name]["sec"] + 2, controller,
                              name, 20 * UNIT)
                members.append(name)

            active_start = max(0, min(cday + 3, cfg.day_count - 2))
            active_days = list(
                range(active_start, min(active_start + 8, cfg.day_count))
            )
            jitter = rng.uniform(0.0, 0.25)
            self._drive_community(spec, members, target, active_days, jitter)
            if spec.calibration:
                for m in members:
                    self.labels.append((controller, "bot", m))
            communities.append(
                {
                    "controller": controller,
                    "category": spec.category,
                    "calibration": spec.calibration,
                    "members": members,
                    "target": target,
                }
            )
        return communities

    def _drive_community(self, spec, members, target, active_days, jitter):
        """Near-identical member behavior; `jitter` scales small per-member
        deviations so community distances vary across communities."""
        rng = self.rng
        for member in members:
            base_sec = rng.randrange(0, 3600)
            if spec.category != "account_seller" and rng.random() < jitter:
                # sellers must stay invocation-free; everyone else pings the
                # helper contract so target directions differ slightly
                self.invoke(active_days[0], base_sec + 1, member, self.helper,
                            "ping")
            for day in active_days:
                if spec.category == "click_fraud":
                    reps = 2 + (1 if rng.random() < jitter else 0)
                    for k in range(reps):
                        sec = base_sec + k * 10800  # three-hour cadence
                        stake = 2 * UNIT
                        self.transfer(day, sec, member, target, stake)
                        back = stake * (99 + rng.randrange(0, 3)) // 100
                        self.transfer(day, min(86399, sec + 60), target, member, back)
                elif spec.category == "bonus_hunter":
                    reps = 2 + (1 if rng.random() < jitter else 0)
                    for k in range(reps):
                        sec = base_sec + k * 7200
                        self.invoke(day, sec, member, target, "claim")
                        self.transfer(day, min(86399, sec + 30), target, member,
                                      rng.randrange(1, 5) * UNIT // 2)
                elif spec.category == "dapp_team":
                    reps = 3 + (1 if rng.random() < jitter else 0)
                    for k in range(reps):
                        self.invoke(day, base_sec + k * 3600, member, target, "debug")
                elif spec.category == "account_seller":
                    if day == active_days[0]:
                        self.transfer(day, base_sec, member,
                                      self.accounts[member]["creator"], 1 * UNIT)
                elif spec.category == "other":
                    reps = 2 + (1 if rng.random() < jitter else 0)
                    for k in range(reps):
                        self.invoke(day, base_sec + k * 9000, member, target, "tick")
                else:
                    raise GenerationError(f"unknown bot category {spec.category!r}")

    def _build_silent(self):
        for i in range(self.config.silent_account_count):
            name = _name("idle", i)
            day = self.rng.randrange(0, max(1, self.config.day_count - 1))
            self.create_account(name, "eosio", day)
            if self.rng.random() < 0.5:
                # receiving EOS must not disqualify silence
                self.transfer(day, self.accounts[name]["sec"] + 5, "eosio", name,
                              2 * UNIT)

    def _build_deep_chain(self):
        length = self.config.deep_chain_length
        if not length:
            return
        # the chain head is its own root so the tail depth equals `length`
        prev = self.create_account(_name("deep", 0), None, 0)
        self.chain_head = prev
        for i in range(1, length + 1):
            day = min(i * self.config.day_count // (length + 1),
                      self.config.day_count - 1)
            prev = self.create_account(_name("deep", i), prev, day)
        self.chain_tail = prev

    def _build_attacks(self):
        cfg = self.config
        rng = self.rng
        attacks = []
        for ai, spec in enumerate(cfg.attack_specs):
            if not 1 <= spec.day < cfg.day_count:
                raise GenerationError(f"attack day {spec.day} outside window")
            profit_units = spec.profit_eos * UNIT
            victim = self.gambling[ai % len(self.gambling)]
            if self.balances[victim] < profit_units:
                raise GenerationError(
                    f"attack profit {spec.profit_eos} EOS exceeds funds of {victim}"
                )
            attacker = _name("atk", ai)
            self.create_account(attacker, "eosio", spec.day - 1,
                                has_contract=(spec.kind == "fake_transfer"))
            if spec.kind != "fake_transfer":
                self.transfer(spec.day - 1, self.accounts[attacker]["sec"] + 2,
                              "eosio", attacker, 50 * UNIT)
            base_sec = rng.randrange(0, 80000)
            if spec.kind == "fake_transfer":
                # fake EOS via the attacker's own contract, then the victim
                # pays out genuine EOS the same day
                self.emit(spec.day, base_sec, attacker, "transfer", attacker,
                          "external",
                          ("T", attacker, victim, _eos(profit_units), "fake"))
                self.transfer(spec.day, base_sec + 30, victim, attacker,
                              profit_units)
            elif spec.kind == "fake_notice":
                accomplice = _name("acc", ai)
                self.create_account(accomplice, "eosio", spec.day - 1)
                real = 1 * UNIT
                self.transfer(spec.day, base_sec, attacker, accomplice, real)
                self.emit(spec.day, base_sec, "eosio.token", "transfer", attacker,
                          "notification",
                          ("T", attacker, accomplice, _eos(real), "notice"),
                          notified=victim)
                self.transfer(spec.day, base_sec + 30, victim, attacker,
                              profit_units)
            elif spec.kind == "predictable_state":
                # hit-and-run: bets and outsized wins inside one hour, then
                # the account goes silent
                sec = base_sec - base_sec % 3600
                bet = 1 * UNIT
                wins = 5
                per_win = profit_units // wins + bet
                for k in range(wins):
                    self.transfer(spec.day, sec + k * 120, attacker, victim, bet)
                    self.invoke(spec.day, sec + k * 120, attacker, victim, "play")
                    self.transfer(spec.day, sec + k * 120 + 10, victim, attacker,
                                  per_win)
                self.emit(spec.day, sec + 600, victim, "resolve", attacker,
                          "deferred", ("D", {}))
            else:
                raise GenerationError(f"unknown attack kind {spec.kind!r}")
            attacks.append(
                {
                    "kind": spec.kind,
                    "attacker": attacker,
                    "victim": victim,
                    "day": spec.day,
                    "profit": _eos(profit_units),
                }
            )
        return attacks

    def _build_misuse(self):
        plan = self.config.misuse_plan
        rng = self.rng
        kinds = ("misuse", "partial", "benign", "revoked", "unrelated", "deleted")
        manifest = {"misuse": [], "partial": [], "benign": [], "revoked": []}
        if plan.deleted:  # so that a plan without deleted grants keeps its manifest bytes
            manifest["deleted"] = []
        gi = 0
        for kind in kinds:
            for _ in range(getattr(plan, kind)):
                granter = _name("grant", gi)
                grantee = _name("code", gi)
                # a one-day window has no day after the accounts' creation day
                day = rng.randrange(min(1, self.config.day_count - 1), self.config.day_count)
                self.create_account(granter, "eosio", max(0, day - 1))
                shared = kind == "benign"
                self.create_account(
                    grantee, "eosio", max(0, day - 1), has_contract=True,
                    key=self.accounts[granter]["key"] if shared else None,
                )
                gi += 1
                threshold = 2 if kind == "partial" else 1
                if kind == "unrelated":
                    account_weights = [[grantee, "active", 1]]
                else:
                    account_weights = [[grantee, "eosio.code", 1]]
                permission, parent = ("codecall", "active") if kind == "deleted" else (
                    "active", "owner")
                payload = {
                    "account": granter,
                    "permission": permission,
                    "parent": parent,
                    "threshold": threshold,
                    "key_weights": [[self.accounts[granter]["key"], 1]],
                    "account_weights": account_weights,
                }
                sec = rng.randrange(86400)
                self.emit(day, sec, "eosio", "updateauth", granter, "external",
                          ("D", payload))
                later = min(day + 1, self.config.day_count - 1)
                if kind == "revoked":
                    revoke = dict(payload, account_weights=[])
                    self.emit(later, sec, "eosio", "updateauth", granter, "external",
                              ("D", revoke))
                elif kind == "deleted":
                    self.emit(later, sec, "eosio", "deleteauth", granter, "external",
                              ("D", {"account": granter, "permission": permission}))
                if kind != "unrelated":
                    manifest[kind].append([granter, grantee])
        return manifest

    # -- output ------------------------------------------------------------

    def _finalize_manifest(self, services, users, communities, attacks, misuse):
        invocation_kinds = {"external", "inline", "deferred"}
        authored = set()
        invocation_count = 0
        for _, _, _, _, actor, kind, _, _ in self.records:
            if kind in invocation_kinds:
                authored.add(actor)
                invocation_count += 1
        silent = sorted(set(self.accounts) - authored)
        self.manifest = {
            "seed": self.config.seed,
            "window": {
                "start_day": self.window.start_day.isoformat(),
                "end_day": self.window.end_day.isoformat(),
                "day_count": self.window.day_count,
            },
            "action_count": len(self.records),
            "invocation_count": invocation_count,
            "transfer_count": self.transfer_count,
            "transfer_total": _eos(self.transfer_total),
            "services": services,
            "users": users,
            "silent_accounts": silent,
            "bot_communities": communities,
            "attacks": attacks,
            "misuse_grants": misuse,
            "deep_chain": {
                "length": self.config.deep_chain_length,
                "head": getattr(self, "chain_head", None),
                "tail": getattr(self, "chain_tail", None),
            },
            "dapps": [list(d) for d in self.dapps],
            "incentive_dapps": self.incentives,
        }
        negative = [a for a, b in self.balances.items() if b < 0]
        if negative:
            raise GenerationError(f"negative balances: {negative[:5]}")

    def _trace_text(self, first_seq=1):
        """Each record's trace line, in list order from global_seq `first_seq`:
        the bytes write_ndjson writes for its sorted-key JSON object, formatted
        from the record tuple with every string escaped by encode_json."""
        enc, stamp = encode_json, self.timestamps.stamp
        for seq, (key, _, contract, action, actor, kind, payload, notified) in enumerate(
            self.records, start=first_seq
        ):
            if payload[0] == "T":
                _, src, dst, quantity, memo = payload
                body = (f'{{"from": {enc(src)}, "memo": {enc(memo)}, '
                        f'"quantity": {enc(quantity)}, "to": {enc(dst)}}}')
            else:
                body = enc(payload[1])
            notice = "" if notified is None else f'"notified": {enc(notified)}, '
            yield (f'{{"action_name": {enc(action)}, "actor": {enc(actor)}, '
                   f'"executing_contract": {enc(contract)}, "global_seq": {seq}, '
                   f'"kind": {enc(kind)}, {notice}"payload": {body}, '
                   f'"timestamp": "{stamp(*divmod(key, 86400))}", '
                   f'"tx_id": "{seq:016x}"}}\n')

    def _snapshot_lines(self):
        for name in sorted(self.accounts):
            info = self.accounts[name]
            authority = {"threshold": 1, "key_weights": [[info["key"], 1]],
                         "account_weights": []}
            yield {
                "name": name,
                "creator": info["creator"],
                "created_at": self.timestamps.stamp(info["day"], info["sec"]),
                "has_contract": info["has_contract"],
                "permissions": {"owner": authority, "active": authority},
            }

    def write(self, out_dir):
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        self.records.sort()  # by (time_key, idx): idx is unique, so no later field is compared
        with (out_dir / "trace.ndjson").open("w", encoding="utf-8") as fh:
            fh.writelines(self._trace_text())
        write_ndjson(out_dir / "snapshot.ndjson", self._snapshot_lines())
        # No generated seller is known off-chain: the registry lists none.
        for name, header, rows in (("dapps", ("account", "dapp", "category"), self.dapps),
                                   ("incentives", ("account",), zip(self.incentives)),
                                   ("labels", ("community_id", "role", "account"), self.labels),
                                   ("sellers", ("account",), ())):
            with (out_dir / f"{name}.csv").open("w", encoding="utf-8", newline="") as fh:
                writer = csv.writer(fh, lineterminator="\n")
                writer.writerow(header)
                writer.writerows(rows)
        (out_dir / "manifest.json").write_text(
            json.dumps(self.manifest, sort_keys=True, indent=1)
        )
        return out_dir


def generate(config: ScenarioConfig, out_dir):
    """Generate a scenario into out_dir. Returns the manifest dict."""
    chain = _Chain(config)
    chain.build()
    # label some services as normal communities for calibration contrast
    for service in chain.manifest["services"][: max(2, len(chain.manifest["services"]) // 2)]:
        for user in chain.manifest["users"]:
            if chain.accounts[user]["creator"] == service:
                chain.labels.append((service, "normal", user))
    chain.write(out_dir)
    return chain.manifest
