"""Shared fixtures: a desk-scale store, a provider-backed tool cache, and a
generated dataset reused across test modules (all session-scoped; tests treat
them as read-only)."""

from __future__ import annotations

import pytest

from estateqa.fixtures import write_fixture
from estateqa.generator import generate
from estateqa.store import GeoStore, StoreConfig
from estateqa.templates import default_templates
from estateqa.tools import SyntheticProvider, ToolCache

DESK_CITIES = ("Guangzhou", "Suzhou")
DESK_SEED = 7
GEN_SEED = 11


@pytest.fixture(scope="session")
def desk_config() -> StoreConfig:
    return StoreConfig(cities=DESK_CITIES, fixture_seed=DESK_SEED)


@pytest.fixture(scope="session")
def desk_fixture_dir(tmp_path_factory, desk_config):
    fixture_dir = tmp_path_factory.mktemp("fixtures")
    write_fixture(desk_config, fixture_dir, communities_per_city=220, pois_per_city=160)
    return fixture_dir


@pytest.fixture(scope="session")
def desk_store(desk_config, desk_fixture_dir) -> GeoStore:
    store = GeoStore(desk_config)
    store.ingest_fixture(desk_fixture_dir)
    store.build_proximity_pairs()
    return store


@pytest.fixture(scope="session")
def desk_templates():
    return default_templates()


@pytest.fixture(scope="session")
def desk_generation(desk_store, desk_templates):
    cache = ToolCache(provider=SyntheticProvider(desk_store))
    instances, report = generate(
        desk_templates, desk_store, cache, seed=GEN_SEED, per_template=60
    )
    return instances, report, cache


@pytest.fixture(scope="session")
def desk_instances(desk_generation):
    return desk_generation[0]


@pytest.fixture(scope="session")
def desk_cache(desk_generation) -> ToolCache:
    return desk_generation[2]
