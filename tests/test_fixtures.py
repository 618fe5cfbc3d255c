import json
import shutil
from pathlib import Path

import pytest

import numsgps.fixtures
from numsgps import (
    FixtureError,
    FixtureIntegrityError,
    check_all_fixtures,
    check_fixture,
    fixture_semigroup,
    get_fixture,
    load_registry,
)
from numsgps.fixtures import _fixture_dir

EXPECTED_NAMES = {
    "ex2_10_l4", "ex2_10_l5", "ex2_13_i", "ex2_13_ii", "ex2_13_iii",
    "prop2_4_preamble", "ex3_5_h2", "ex3_7_nonas", "ex3_9_nonproper",
    "ex3_9_chain_seed", "ex3_11_small", "ex3_tower_seed",
}


def test_registry_contents():
    registry = load_registry()
    assert EXPECTED_NAMES <= set(registry)


def test_alias_shares_data():
    assert get_fixture("ex3_9_chain_seed") is get_fixture("ex2_10_l5")
    assert fixture_semigroup("ex3_9_chain_seed").min_gens[0] == 44


def test_unknown_fixture():
    with pytest.raises(FixtureError):
        get_fixture("no_such_example")


def test_check_all_fixtures_keys_each_fixture_by_its_own_name():
    index = json.loads((_fixture_dir() / "index.json").read_text())
    assert "ex3_9_chain_seed" in index["aliases"]
    assert set(check_all_fixtures()) == set(index["fixtures"])


def test_fixture_dir_is_beside_the_module(monkeypatch):
    monkeypatch.delenv("SEMIGROUP_FIXTURES", raising=False)
    assert _fixture_dir() == Path(numsgps.fixtures.__file__).parent / "fixtures"


def test_all_fixtures_pass():
    results = check_all_fixtures()
    assert set(results)  # nonempty
    for name, claims in results.items():
        failures = [c for c in claims if not c.passed]
        assert not failures, (name, failures)


def test_expanded_ranges_certified_by_hilbert():
    # the fixtures stored with expanded runs must pin the Hilbert prefix
    for name in ("ex3_7_nonas", "ex3_9_nonproper", "ex3_tower_seed"):
        fx = get_fixture(name)
        assert "hilbert_prefix" in fx.expected
        gens = fx.generators
        assert any(b - a == 1 for a, b in zip(gens, gens[1:]))  # a real run


def test_checksum_tamper_detected(tmp_path):
    src = _fixture_dir()
    work = tmp_path / "fixtures"
    shutil.copytree(src, work)
    target = work / "ex3_11_small.json"
    data = json.loads(target.read_text())
    data["generators"][0] = 20
    target.write_text(json.dumps(data))
    with pytest.raises(FixtureIntegrityError):
        load_registry(str(work))


def test_env_var_override(tmp_path, monkeypatch):
    work = tmp_path / "alt"
    shutil.copytree(_fixture_dir(), work)
    monkeypatch.setenv("SEMIGROUP_FIXTURES", str(work))
    load_registry.cache_clear()
    try:
        registry = load_registry()
        assert "ex2_10_l4" in registry
    finally:
        load_registry.cache_clear()


def test_env_var_set_after_first_load(tmp_path, monkeypatch):
    load_registry()
    empty = tmp_path / "empty"
    empty.mkdir()
    monkeypatch.setenv("SEMIGROUP_FIXTURES", str(empty))
    with pytest.raises(FixtureIntegrityError):
        load_registry()


def test_broken_claim_reported(tmp_path):
    fx = get_fixture("ex3_11_small")
    tampered = type(fx)(
        name=fx.name,
        note=fx.note,
        generators=fx.generators,
        expected={**fx.expected, "type": 99},
    )
    claims = check_fixture(tampered)
    assert any(not c.passed and c.name == "type" for c in claims)
