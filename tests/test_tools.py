"""Tool cache: synthetic provider arithmetic against hand oracles, bucket
rules, replay determinism, persistence, and population accounting."""

from __future__ import annotations

import math
import random

import pytest

from estateqa.domain import GeoPoint, haversine
from estateqa.tools import (
    BUCKET_MIDNIGHT,
    BUCKET_OFFPEAK,
    BUCKET_PEAK,
    CacheMiss,
    InvalidParams,
    SyntheticProvider,
    ToolCache,
    ToolRequest,
)

METERS_PER_DEG = 6_371_000 * math.pi / 180


@pytest.fixture()
def cache(desk_store):
    return ToolCache(provider=SyntheticProvider(desk_store))


def _pair(distance_m: float) -> tuple[GeoPoint, GeoPoint]:
    return GeoPoint(23.0, 113.0), GeoPoint(23.0 + distance_m / METERS_PER_DEG, 113.0)


def _route_params(origin: GeoPoint, dest: GeoPoint, **extra):
    params = {
        "origin_lat": origin.latitude,
        "origin_lon": origin.longitude,
        "dest_lat": dest.latitude,
        "dest_lon": dest.longitude,
    }
    params.update(extra)
    return params


# --- time_query ---------------------------------------------------------------


def test_zero_distance_zero_seconds_all_modes(cache):
    p = GeoPoint(23.13, 113.26)
    for mode in ("walking", "driving", "cycling", "transit"):
        assert cache.time_query(p, p, mode) == 0


def test_walking_duration_hand_arithmetic(cache):
    # 1,000 m straight line -> 1,300 m path at 5 km/h -> 936 s
    origin, dest = _pair(1000.0)
    straight = haversine(origin, dest)
    assert straight == pytest.approx(1000.0, abs=1e-6)
    expected = int(round(straight * 1.3 / (5000 / 3600)))
    assert expected == 936
    assert cache.time_query(origin, dest, "walking") == 936


def test_cycling_and_driving_hand_arithmetic(cache):
    origin, dest = _pair(3000.0)
    straight = haversine(origin, dest)
    assert cache.time_query(origin, dest, "cycling") == int(
        round(straight * 1.3 / (15000 / 3600))
    )
    assert cache.time_query(origin, dest, "driving") == int(
        round(straight * 1.4 / (40000 / 3600))
    )


def test_transit_overhead_and_midnight_rekey(cache):
    origin, dest = _pair(4000.0)
    straight = haversine(origin, dest)
    expected = int(round(straight * 1.4 / (28000 / 3600) + 300))
    assert cache.time_query(origin, dest, "transit", BUCKET_OFFPEAK) == expected
    # no midnight transit service: the request re-keys to the off-peak proxy
    request = ToolRequest.build(
        "time_query", _route_params(origin, dest, mode="transit"), BUCKET_MIDNIGHT
    )
    assert request.time_bucket == BUCKET_OFFPEAK
    assert cache.time_query(origin, dest, "transit", BUCKET_MIDNIGHT) == expected


def test_invalid_mode_rejected(cache):
    origin, dest = _pair(1000.0)
    with pytest.raises(InvalidParams):
        cache.time_query(origin, dest, "teleport")
    with pytest.raises(InvalidParams):
        cache.call("time_query", {"origin_lat": 1.0})


def test_replay_returns_identical_payload(cache):
    origin, dest = _pair(1234.0)
    first = cache.call("time_query", _route_params(origin, dest, mode="driving"))
    second = cache.call("time_query", _route_params(origin, dest, mode="driving"))
    assert first == second


# --- distance_query ----------------------------------------------------------------


def test_straight_distance_equals_haversine(cache):
    origin, dest = _pair(2750.4)
    assert cache.distance_query(origin, dest, "straight") == int(
        round(haversine(origin, dest))
    )


def test_route_distances_dominate_straight(cache):
    rng = random.Random(5)
    for _ in range(1000):
        origin = GeoPoint(23.0 + rng.uniform(-0.03, 0.03), 113.0 + rng.uniform(-0.03, 0.03))
        dest = GeoPoint(23.0 + rng.uniform(-0.03, 0.03), 113.0 + rng.uniform(-0.03, 0.03))
        straight = cache.distance_query(origin, dest, "straight")
        assert cache.distance_query(origin, dest, "walking") >= straight
        assert cache.distance_query(origin, dest, "driving") >= straight


def test_identical_points_zero_for_all_kinds(cache):
    p = GeoPoint(30.0, 120.0)
    for kind in ("straight", "walking", "driving"):
        assert cache.distance_query(p, p, kind) == 0


def test_straight_distance_symmetric(cache):
    origin, dest = _pair(1500.0)
    assert cache.distance_query(origin, dest, "straight") == cache.distance_query(
        dest, origin, "straight"
    )


# --- surrounding_pois_query -------------------------------------------------------


def test_tiny_radius_empty_result(cache):
    result = cache.surrounding_pois_query(GeoPoint(0.0, 0.0), 0.5, "park")
    assert result.rows == ()


def test_surrounding_matches_brute_force_scan(cache, desk_store):
    center = desk_store.communities("Guangzhou")[0].location
    radius = 2000.0
    label = "primary school"
    result = cache.surrounding_pois_query(center, radius, label)
    expected = []
    for poi in desk_store.all_pois():
        if poi.label != label:
            continue
        d = haversine(center, poi.location)
        if d <= radius:
            expected.append(
                (poi.name, poi.label, poi.location.latitude, poi.location.longitude,
                 int(round(d)))
            )
    expected.sort(key=lambda r: (r[4], r[0]))
    assert list(result.rows) == expected
    assert expected, "fixture should place at least one school within 2 km"


def test_surrounding_sorted_and_within_radius(cache, desk_store):
    center = desk_store.communities("Suzhou")[3].location
    result = cache.surrounding_pois_query(center, 2500.0, "supermarket")
    distances = [row[4] for row in result.rows]
    assert distances == sorted(distances)
    assert all(d <= 2500.0 for d in distances)
    assert all(row[1] == "supermarket" for row in result.rows)


def test_unknown_label_invalid(cache):
    with pytest.raises(InvalidParams, match="label"):
        cache.surrounding_pois_query(GeoPoint(23.0, 113.0), 1000.0, "volcano")
    with pytest.raises(InvalidParams, match="radius"):
        cache.surrounding_pois_query(GeoPoint(23.0, 113.0), 0.0, "park")


# --- rush_hour_query ------------------------------------------------------------------


def test_rush_hour_bucket_forced_to_peak(cache):
    origin, dest = _pair(5000.0)
    request = ToolRequest.build("rush_hour_query", _route_params(origin, dest, mode="driving"))
    assert request.time_bucket == BUCKET_PEAK


def test_rush_hour_walking_rejected(cache):
    origin, dest = _pair(1000.0)
    with pytest.raises(InvalidParams):
        cache.rush_hour_query(origin, dest, "walking")


def test_rush_hour_identical_points_zero(cache):
    p = GeoPoint(23.5, 113.5)
    assert cache.rush_hour_query(p, p, "driving") == 0


def test_peak_strictly_slower_than_offpeak(cache):
    rng = random.Random(12)
    checked = 0
    while checked < 1000:
        origin = GeoPoint(23.0 + rng.uniform(-0.03, 0.03), 113.0 + rng.uniform(-0.03, 0.03))
        dest = GeoPoint(23.0 + rng.uniform(-0.03, 0.03), 113.0 + rng.uniform(-0.03, 0.03))
        if haversine(origin, dest) == 0.0:
            continue
        peak = cache.rush_hour_query(origin, dest, "driving")
        offpeak = cache.time_query(origin, dest, "driving", BUCKET_OFFPEAK)
        assert peak > offpeak
        checked += 1


# --- keys, population, persistence ------------------------------------------------------


def test_coordinate_rounding_stabilizes_keys():
    a = ToolRequest.build(
        "time_query",
        {"origin_lat": 23.1234567891, "origin_lon": 113.0, "dest_lat": 24.0,
         "dest_lon": 114.0, "mode": "walking"},
    )
    b = ToolRequest.build(
        "time_query",
        {"origin_lat": 23.1234567894, "origin_lon": 113.0, "dest_lat": 24.0,
         "dest_lon": 114.0, "mode": "Walking"},
    )
    assert a.key() == b.key()


def test_populate_dedups(desk_store):
    cache = ToolCache(provider=SyntheticProvider(desk_store))
    origin, dest = _pair(1000.0)
    requests = [
        ToolRequest.build("time_query", _route_params(origin, dest, mode=mode))
        for mode in ("walking", "driving", "cycling", "walking", "driving",
                     "walking", "transit")
    ] + [
        ToolRequest.build("distance_query", _route_params(origin, dest, kind=kind))
        for kind in ("straight", "walking", "driving")
    ]
    report = cache.populate(requests)
    assert report["entries"] == 7
    assert report["resolved"] == 7
    assert report["duplicates_or_present"] == 3
    # idempotent
    again = cache.populate(requests)
    assert again["entries"] == 7
    assert again["resolved"] == 0


def test_cache_miss_without_provider(desk_store):
    cache = ToolCache(provider=SyntheticProvider(desk_store))
    origin, dest = _pair(900.0)
    recorded = cache.time_query(origin, dest, "walking")
    cache.freeze()
    assert cache.time_query(origin, dest, "walking") == recorded  # replay still works
    with pytest.raises(CacheMiss):
        cache.time_query(origin, dest, "driving")


def test_persistence_round_trip(tmp_path, desk_store):
    cache = ToolCache(provider=SyntheticProvider(desk_store))
    origin, dest = _pair(2000.0)
    values = {
        mode: cache.time_query(origin, dest, mode)
        for mode in ("walking", "driving", "cycling", "transit")
    }
    cache.surrounding_pois_query(desk_store.communities("Guangzhou")[0].location, 1500, "park")
    path = tmp_path / "cache.jsonl"
    count = cache.save(path)
    assert count == len(cache)

    reloaded = ToolCache.load(path)
    for mode, value in values.items():
        assert reloaded.time_query(origin, dest, mode) == value
    # byte-identical dump of identical contents
    second_path = tmp_path / "cache2.jsonl"
    reloaded.save(second_path)
    assert path.read_bytes() == second_path.read_bytes()


def test_two_from_scratch_populations_byte_identical(tmp_path, desk_store):
    origin, dest = _pair(3333.0)
    corpus = [
        ToolRequest.build("time_query", _route_params(origin, dest, mode=mode))
        for mode in ("walking", "driving", "transit")
    ]
    paths = []
    for name in ("a.jsonl", "b.jsonl"):
        cache = ToolCache(provider=SyntheticProvider(desk_store))
        cache.populate(corpus)
        path = tmp_path / name
        cache.save(path)
        paths.append(path)
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_populate_reports_failures(desk_store):
    cache = ToolCache(provider=SyntheticProvider(desk_store))
    good = ToolRequest.build(
        "surrounding_pois_query",
        {"center_lat": 23.0, "center_lon": 113.0, "radius_m": 100.0, "label": "park"},
    )
    # label passes request validation but the provider's store has no such label
    bad = ToolRequest.build(
        "surrounding_pois_query",
        {"center_lat": 23.0, "center_lon": 113.0, "radius_m": 100.0, "label": "x" * 3},
    )
    report = cache.populate([good, bad])
    assert report["resolved"] == 1
    assert len(report["failures"]) == 1
