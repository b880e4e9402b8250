"""The benchmark's workloads: one synthgen scenario each, derived from the
benchmark seed. Only the generated files reach the program under test.

Why each workload exists is recorded in BENCHMARK.json and README.md; the
comments here say which property each size keeps.
"""

import random

from eosforensics import synthgen

CATEGORIES = ("click_fraud", "bonus_hunter", "dapp_team", "account_seller", "other")

# Community sizes are the acceptance gate's criterion-3 choices up to 120,
# so every graph stays small enough for the dense clustering path. Every
# seed pairs the same sizes with the same categories: shuffling them made
# the action count swing by 25% across seeds, and the run time with it.
BOT_SIZES = (31, 35, 40, 60, 80, 120)


def _calibration_set(categories=("click_fraud", "bonus_hunter", "dapp_team", "other")):
    # Four labeled communities whose members deviate with some probability.
    # With two, both get the same distance on a few percent of seeds, and
    # botnet.SimilarityThreshold's rounded box then excludes them (README.md,
    # "Seed-code failures"); four rarely all tie.
    return [synthgen.BotCommunitySpec(size=40, category=category, calibration=True)
            for category in categories]


def flow(seed, calibration=None):
    # 2,000 users plus the services, DApps and calibration bots put every
    # graph just above the 2,048-node dense-clustering limit, so metrics take
    # the sparse path. Two days keep the trace short enough for two passes
    # per run.
    return synthgen.ScenarioConfig(
        seed=seed, day_count=2, normal_account_count=2000, service_count=10,
        background_transfer_rate=0.5,
        bot_community_specs=calibration or _calibration_set(),
    )


def botfarm(seed, labeled=10):
    # Every community is labeled by default: with five of ten labeled, the
    # calibration box misses an unlabeled community on about one seed in
    # five (README.md, "Seed-code failures").
    sizes = BOT_SIZES + BOT_SIZES[:4]
    specs = [
        synthgen.BotCommunitySpec(size=size, category=CATEGORIES[i % len(CATEGORIES)],
                                  calibration=i < labeled)
        for i, size in enumerate(sizes)
    ]
    return synthgen.ScenarioConfig(
        seed=seed, day_count=20, normal_account_count=100, service_count=5,
        bot_community_specs=specs,
    )


def attacks(seed):
    # Below 2,048 nodes per graph, so clustering takes the dense path.
    rng = random.Random(seed)
    specs = []
    for kind in ("fake_transfer", "fake_notice", "predictable_state"):
        for _ in range(6):
            profit = (rng.randrange(600, 4000) if kind == "predictable_state"
                      else rng.randrange(80, 350))
            # two attacks a day, on different victims
            specs.append(synthgen.AttackSpec(kind, profit, 2 + len(specs) // 2))
    return synthgen.ScenarioConfig(
        seed=seed, day_count=12, normal_account_count=150, service_count=5,
        background_transfer_rate=1.0, attack_specs=specs,
        misuse_plan=synthgen.MisusePlan(misuse=15, partial=30, benign=25,
                                        revoked=10, unrelated=20),
        bot_community_specs=_calibration_set(),
    )


WORKLOADS = {"flow": flow, "botfarm": botfarm, "attacks": attacks}

# Not benchmark workloads: the earlier labelings, on which the seed code
# fails a check on some seeds (README.md, "Seed-code failures").
REPRODUCERS = {
    "flow-two-labeled": lambda seed: flow(
        seed, _calibration_set(("click_fraud", "bonus_hunter"))),
    "botfarm-half-labeled": lambda seed: botfarm(seed, labeled=5),
}
