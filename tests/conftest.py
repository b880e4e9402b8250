import os

import pytest
from hypothesis import settings

from eosforensics import cli, synthgen
from eosforensics.model import (
    ObservationWindow,
    Registry,
    extract_transfers,
    parse_account_snapshot,
    parse_action_trace,
)
from eosforensics import graphs

# HYPOTHESIS_PROFILE=ci makes every property test draw the same examples on
# every run, so a failure in CI is the one a local run with it finds.
settings.register_profile("ci", derandomize=True, deadline=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


@pytest.fixture(autouse=True)
def fresh_parses():
    """Every test parses its inputs anew: the CLI keeps the last parse of
    each input for the rest of the process (`cli.PARSES`)."""
    cli.PARSES.clear()
    yield
    cli.PARSES.clear()


def small_scenario_config(seed=1):
    return synthgen.ScenarioConfig(
        seed=seed,
        day_count=30,
        normal_account_count=80,
        service_count=3,
        bot_community_specs=[
            synthgen.BotCommunitySpec(40, "click_fraud", calibration=True),
            synthgen.BotCommunitySpec(35, "bonus_hunter", calibration=True),
            synthgen.BotCommunitySpec(50, "dapp_team"),
            synthgen.BotCommunitySpec(45, "account_seller", calibration=True),
            synthgen.BotCommunitySpec(33, "other", calibration=True),
        ],
        attack_specs=[
            synthgen.AttackSpec("fake_transfer", 150, 5),
            synthgen.AttackSpec("fake_notice", 120, 8),
            synthgen.AttackSpec("predictable_state", 900, 12),
        ],
        misuse_plan=synthgen.MisusePlan(
            misuse=5, partial=5, benign=5, revoked=3, unrelated=3
        ),
        silent_account_count=10,
    )


@pytest.fixture(scope="session")
def scenario(tmp_path_factory):
    """One shared small scenario: generated files + manifest."""
    out = tmp_path_factory.mktemp("scenario")
    manifest = synthgen.generate(small_scenario_config(), out)
    return out, manifest


@pytest.fixture(scope="session")
def window(scenario):
    _, manifest = scenario
    from datetime import date

    w = manifest["window"]
    return ObservationWindow(
        date.fromisoformat(w["start_day"]), date.fromisoformat(w["end_day"])
    )


@pytest.fixture(scope="session")
def parsed(scenario, window):
    out, _ = scenario
    trace = parse_action_trace(out / "trace.ndjson", window)
    snapshot = parse_account_snapshot(out / "snapshot.ndjson")
    return trace, snapshot


@pytest.fixture(scope="session")
def registry(scenario):
    out, _ = scenario
    return Registry.load(
        dapps=out / "dapps.csv",
        incentives=out / "incentives.csv",
        labels=out / "labels.csv",
        sellers=out / "sellers.csv",
    )


@pytest.fixture(scope="session")
def built_graphs(parsed, window):
    trace, snapshot = parsed
    transfers = extract_transfers(trace.records, window)
    emfg = graphs.build_emfg(transfers)
    eacg = graphs.build_eacg(snapshot, window)
    ecig = graphs.build_ecig(trace.records, window)
    return emfg, eacg, ecig


def pytest_terminal_summary(terminalreporter):
    try:
        import test_acceptance
    except ImportError:
        return
    if not test_acceptance.RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for name, status in test_acceptance.RESULTS:
        terminalreporter.write_line(f"ACCEPTANCE {name}: {status}")
