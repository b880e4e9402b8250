import hashlib
import json
from collections import defaultdict
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from eosforensics import synthgen
from eosforensics.errors import GenerationError
from conftest import small_scenario_config
from tests_support import oracle_trace_lines


def _tree_hash(path):
    digest = hashlib.sha256()
    for f in sorted(Path(path).rglob("*")):
        if f.is_file():
            digest.update(f.name.encode())
            digest.update(f.read_bytes())
    return digest.hexdigest()


def test_same_seed_byte_identical(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    synthgen.generate(small_scenario_config(seed=11), a)
    synthgen.generate(small_scenario_config(seed=11), b)
    assert _tree_hash(a) == _tree_hash(b)


def test_distinct_seeds_distinct_traces(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    synthgen.generate(small_scenario_config(seed=1), a)
    synthgen.generate(small_scenario_config(seed=2), b)
    assert (a / "trace.ndjson").read_bytes() != (b / "trace.ndjson").read_bytes()


def test_trace_is_seq_and_time_ordered(scenario):
    out, _ = scenario
    last_seq = 0
    last_ts = ""
    for line in (out / "trace.ndjson").read_text().splitlines():
        obj = json.loads(line)
        assert obj["global_seq"] == last_seq + 1
        assert obj["timestamp"] >= last_ts
        last_seq = obj["global_seq"]
        last_ts = obj["timestamp"]


def test_manifest_counts_match_files(scenario):
    out, manifest = scenario
    lines = (out / "trace.ndjson").read_text().splitlines()
    assert len(lines) == manifest["action_count"]
    accounts = (out / "snapshot.ndjson").read_text().splitlines()
    names = {json.loads(l)["name"] for l in accounts}
    assert set(manifest["silent_accounts"]) <= names
    for community in manifest["bot_communities"]:
        assert set(community["members"]) <= names


def test_attack_exceeding_victim_funds_rejected(tmp_path):
    config = synthgen.ScenarioConfig(
        seed=1, day_count=10, normal_account_count=0, service_count=1,
        dapp_funding_eos=100,
        attack_specs=[synthgen.AttackSpec("predictable_state", 10_000, 5)],
    )
    with pytest.raises(GenerationError):
        synthgen.generate(config, tmp_path / "x")


def test_attack_day_outside_window_rejected(tmp_path):
    config = synthgen.ScenarioConfig(
        seed=1, day_count=10,
        attack_specs=[synthgen.AttackSpec("fake_transfer", 100, 99)],
    )
    with pytest.raises(GenerationError):
        synthgen.generate(config, tmp_path / "x")


def test_unknown_categories_rejected(tmp_path):
    config = synthgen.ScenarioConfig(
        seed=1, day_count=10,
        bot_community_specs=[synthgen.BotCommunitySpec(31, "nonsense")],
    )
    with pytest.raises(GenerationError):
        synthgen.generate(config, tmp_path / "x")
    config = synthgen.ScenarioConfig(
        seed=1, day_count=10,
        attack_specs=[synthgen.AttackSpec("nonsense", 100, 5)],
    )
    with pytest.raises(GenerationError):
        synthgen.generate(config, tmp_path / "y")


def test_labels_cover_calibration_communities(scenario):
    out, manifest = scenario
    labeled = {}
    for line in (out / "labels.csv").read_text().splitlines()[1:]:
        community_id, role, account = line.split(",")
        labeled.setdefault((community_id, role), set()).add(account)
    for community in manifest["bot_communities"]:
        key = (community["controller"], "bot")
        if community["calibration"]:
            assert labeled[key] == set(community["members"])
        else:
            assert key not in labeled


def test_dapp_registry_consistent(scenario):
    out, manifest = scenario
    rows = (out / "dapps.csv").read_text().splitlines()[1:]
    accounts = {r.split(",")[0] for r in rows}
    assert accounts == {d[0] for d in manifest["dapps"]}
    incentives = (out / "incentives.csv").read_text().splitlines()[1:]
    assert set(incentives) == set(manifest["incentive_dapps"])


# Strings a JSON writer must escape: quotes, backslashes, control characters,
# non-ASCII and non-BMP characters, mixed with any others.
_TEXT = st.text(st.one_of(st.sampled_from('"\\/\x00\x1f\x7f\u2028\xe9\u4e2d\U0001f600'),
                          st.characters()), max_size=4)
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-2**70, 2**70) | st.floats() | _TEXT,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(_TEXT, inner, max_size=3),
    max_leaves=5,
)
_RECORDS = st.lists(st.one_of(
    # emit: day, sec, contract, action, actor, kind, "D" payload, notified
    st.tuples(st.just("emit"), st.integers(-1, 4), st.integers(0, 90_000), _TEXT, _TEXT,
              _TEXT, _TEXT, st.dictionaries(_TEXT, _JSON, max_size=2), st.none() | _TEXT),
    # _move: day, sec, src, dst, units, memo, whether dst gets the notification copy
    st.tuples(st.just("move"), st.integers(-1, 4), st.integers(0, 90_000), _TEXT, _TEXT,
              st.integers(1, 10**15), _TEXT, st.booleans()),
), max_size=5)


@given(_RECORDS, st.sampled_from([1, 16**16 - 1, 16**17]))
def test_trace_text_is_the_sorted_key_json_of_each_record(ops, first_seq):
    chain = synthgen._Chain(synthgen.ScenarioConfig(day_count=3))
    chain.balances = defaultdict(lambda: 10**16)
    for op, day, sec, *rest in ops:
        if op == "emit":
            contract, action, actor, kind, payload, notified = rest
            chain.emit(day, sec, contract, action, actor, kind, ("D", payload), notified)
        else:
            src, dst, units, memo, has_contract = rest
            chain.accounts[dst] = {"has_contract": has_contract}
            chain._move(day, sec, src, dst, units, memo)
    chain.records.sort()
    assert list(chain._trace_text(first_seq)) == [
        json.dumps(obj, sort_keys=True) + "\n" for obj in oracle_trace_lines(chain, first_seq)]
