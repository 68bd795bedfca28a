"""Tool cache: synthetic provider arithmetic against hand oracles, bucket
rules, replay determinism, persistence, and how executing requests populates
the cache."""

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
    normalize_params,
    split_step_params,
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


def _time(cache, origin, dest, mode, bucket=None):
    return cache.call("time_query", _route_params(origin, dest, mode=mode), bucket).rows[0][-1]


def _distance(cache, origin, dest, kind):
    return cache.call("distance_query", _route_params(origin, dest, kind=kind)).rows[0][-1]


def _rush_hour(cache, origin, dest, mode):
    return cache.call("rush_hour_query", _route_params(origin, dest, mode=mode)).rows[0][-1]


def _surrounding(cache, center, radius_m, label):
    params = {"center_lat": center.latitude, "center_lon": center.longitude,
              "radius_m": radius_m, "label": label}
    return cache.call("surrounding_pois_query", params)


class CountingProvider(SyntheticProvider):
    """The synthetic provider, recording the key of every request it resolves."""

    def __init__(self, store):
        super().__init__(store)
        self.resolved = []

    def resolve(self, request):
        self.resolved.append(request.key())
        return super().resolve(request)


# --- time_query ---------------------------------------------------------------


def test_zero_distance_zero_seconds_all_modes(cache):
    p = GeoPoint(23.13, 113.26)
    for mode in ("walking", "driving", "cycling", "transit"):
        assert _time(cache, p, p, mode) == 0


def test_walking_duration_hand_arithmetic(cache):
    # 1,000 m straight line -> 1,300 m path at 5 km/h -> 936 s
    origin, dest = _pair(1000.0)
    straight = haversine(origin, dest)
    assert straight == pytest.approx(1000.0, abs=1e-6)
    expected = int(round(straight * 1.3 / (5000 / 3600)))
    assert expected == 936
    assert _time(cache, origin, dest, "walking") == 936


def test_cycling_and_driving_hand_arithmetic(cache):
    origin, dest = _pair(3000.0)
    straight = haversine(origin, dest)
    assert _time(cache, origin, dest, "cycling") == int(
        round(straight * 1.3 / (15000 / 3600))
    )
    assert _time(cache, origin, dest, "driving") == int(
        round(straight * 1.4 / (40000 / 3600))
    )


def test_transit_overhead_and_midnight_rekey(cache):
    origin, dest = _pair(4000.0)
    straight = haversine(origin, dest)
    expected = int(round(straight * 1.4 / (28000 / 3600) + 300))
    assert _time(cache, origin, dest, "transit", BUCKET_OFFPEAK) == expected
    # no midnight transit service: the request re-keys to the off-peak proxy
    request = ToolRequest.build(
        "time_query", _route_params(origin, dest, mode="transit"), BUCKET_MIDNIGHT
    )
    assert request.time_bucket == BUCKET_OFFPEAK
    assert _time(cache, origin, dest, "transit", BUCKET_MIDNIGHT) == expected


def test_invalid_mode_rejected(cache):
    origin, dest = _pair(1000.0)
    with pytest.raises(InvalidParams):
        _time(cache, origin, dest, "teleport")
    with pytest.raises(InvalidParams):
        cache.call("time_query", {"origin_lat": 1.0})


_ROUTE = {"origin_lat": 1, "origin_lon": 2, "dest_lat": 3, "dest_lon": 4}
_CENTER = {"center_lat": 1, "center_lon": 2}


@pytest.mark.parametrize("function, params, error", [
    ("time_query", {**_ROUTE, "origin_lat": None, "mode": "walking"},
     "origin_lat must be numeric, got None"),
    ("time_query", {"mode": "walking"}, "time_query: missing param origin_lat"),
    ("time_query", {**_ROUTE, "mode": "x"}, "time_query: unknown mode 'x'"),
    ("time_query", _ROUTE, "time_query: unknown mode None"),
    ("distance_query", {**_ROUTE, "kind": "x"}, "distance_query: unknown kind 'x'"),
    ("rush_hour_query", {**_ROUTE, "mode": "walking"}, "rush_hour_query: unknown mode 'walking'"),
    ("surrounding_pois_query", {"center_lat": 1, "radius_m": 5, "label": "park"},
     "surrounding_pois_query: missing param center_lon"),
    ("surrounding_pois_query", {**_CENTER, "label": "park"},
     "surrounding_pois_query: radius_m must be numeric"),
    ("surrounding_pois_query", {**_CENTER, "radius_m": 0},
     "surrounding_pois_query: radius must be positive, got 0.0"),
    ("surrounding_pois_query", {**_CENTER, "radius_m": 5, "label": " "},
     "surrounding_pois_query: missing label"),
    ("teleport_query", _ROUTE, "unknown tool function: teleport_query"),
], ids=["bad_coordinate", "missing_coordinate", "unknown_mode", "no_mode", "unknown_kind",
        "rush_hour_walking", "missing_center", "no_radius", "zero_radius", "blank_label",
        "unknown_function"])
def test_normalize_params_names_the_first_fault(function, params, error):
    with pytest.raises(InvalidParams) as info:
        normalize_params(function, params)
    assert str(info.value) == error


def test_normalize_params_rounds_coordinates_and_folds_the_enumerated_param():
    params = {**_CENTER, "center_lat": "23.12345678", "radius_m": "999.96", "label": " Park "}
    assert normalize_params("surrounding_pois_query", params) == {
        "center_lat": 23.123457, "center_lon": 2.0, "radius_m": 1000.0, "label": "park",
    }
    assert normalize_params("distance_query", {**_ROUTE, "kind": "Straight "}) == {
        "origin_lat": 1.0, "origin_lon": 2.0, "dest_lat": 3.0, "dest_lon": 4.0, "kind": "straight",
    }


def test_replay_returns_identical_payload(cache):
    origin, dest = _pair(1234.0)
    first = cache.call("time_query", _route_params(origin, dest, mode="driving"))
    second = cache.call("time_query", _route_params(origin, dest, mode="driving"))
    assert first == second


# --- distance_query ----------------------------------------------------------------


def test_straight_distance_equals_haversine(cache):
    origin, dest = _pair(2750.4)
    assert _distance(cache, origin, dest, "straight") == int(
        round(haversine(origin, dest))
    )


def test_route_distances_dominate_straight(cache):
    rng = random.Random(5)
    for _ in range(1000):
        origin = GeoPoint(23.0 + rng.uniform(-0.03, 0.03), 113.0 + rng.uniform(-0.03, 0.03))
        dest = GeoPoint(23.0 + rng.uniform(-0.03, 0.03), 113.0 + rng.uniform(-0.03, 0.03))
        straight = _distance(cache, origin, dest, "straight")
        assert _distance(cache, origin, dest, "walking") >= straight
        assert _distance(cache, origin, dest, "driving") >= straight


def test_identical_points_zero_for_all_kinds(cache):
    p = GeoPoint(30.0, 120.0)
    for kind in ("straight", "walking", "driving"):
        assert _distance(cache, p, p, kind) == 0


def test_straight_distance_symmetric(cache):
    origin, dest = _pair(1500.0)
    assert _distance(cache, origin, dest, "straight") == _distance(cache, dest, origin, "straight")


# --- surrounding_pois_query -------------------------------------------------------


def test_tiny_radius_empty_result(cache):
    result = _surrounding(cache, GeoPoint(0.0, 0.0), 0.5, "park")
    assert result.rows == ()


def test_surrounding_matches_brute_force_scan(cache, desk_store):
    center = desk_store.communities("Guangzhou")[0].location
    radius = 2000.0
    label = "primary school"
    result = _surrounding(cache, center, radius, label)
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
    result = _surrounding(cache, center, 2500.0, "supermarket")
    distances = [row[4] for row in result.rows]
    assert distances == sorted(distances)
    assert all(d <= 2500.0 for d in distances)
    assert all(row[1] == "supermarket" for row in result.rows)


def test_unknown_label_invalid(cache):
    with pytest.raises(InvalidParams, match="label"):
        _surrounding(cache, GeoPoint(23.0, 113.0), 1000.0, "volcano")
    with pytest.raises(InvalidParams, match="radius"):
        _surrounding(cache, GeoPoint(23.0, 113.0), 0.0, "park")


# --- rush_hour_query ------------------------------------------------------------------


def test_rush_hour_bucket_forced_to_peak(cache):
    origin, dest = _pair(5000.0)
    request = ToolRequest.build("rush_hour_query", _route_params(origin, dest, mode="driving"))
    assert request.time_bucket == BUCKET_PEAK


def test_step_params_carry_the_bucket_and_split_back():
    origin, dest = _pair(2000.0)
    params = _route_params(origin, dest, mode="driving")
    request = ToolRequest.build("time_query", params, BUCKET_PEAK)
    stored = request.step_params()
    assert stored == {**request.params_dict, "time_bucket": BUCKET_PEAK}
    assert split_step_params(stored) == (request.params_dict, BUCKET_PEAK)
    assert ToolRequest.build(request.function, *split_step_params(stored)) == request


def test_rush_hour_walking_rejected(cache):
    origin, dest = _pair(1000.0)
    with pytest.raises(InvalidParams):
        _rush_hour(cache, origin, dest, "walking")


def test_rush_hour_identical_points_zero(cache):
    p = GeoPoint(23.5, 113.5)
    assert _rush_hour(cache, p, p, "driving") == 0


def test_peak_strictly_slower_than_offpeak(cache):
    rng = random.Random(12)
    checked = 0
    while checked < 1000:
        origin = GeoPoint(23.0 + rng.uniform(-0.03, 0.03), 113.0 + rng.uniform(-0.03, 0.03))
        dest = GeoPoint(23.0 + rng.uniform(-0.03, 0.03), 113.0 + rng.uniform(-0.03, 0.03))
        if haversine(origin, dest) == 0.0:
            continue
        peak = _rush_hour(cache, origin, dest, "driving")
        offpeak = _time(cache, origin, dest, "driving", BUCKET_OFFPEAK)
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
    """Executing a request resolves it once; a repeat replays its one entry."""
    provider = CountingProvider(desk_store)
    cache = ToolCache(provider=provider)
    origin, dest = _pair(1000.0)
    requests = [
        ToolRequest.build("time_query", _route_params(origin, dest, mode=mode))
        for mode in ("walking", "driving", "cycling", "walking", "driving",
                     "walking", "transit")
    ] + [
        ToolRequest.build("distance_query", _route_params(origin, dest, kind=kind))
        for kind in ("straight", "walking", "driving")
    ]
    for request in requests:
        cache.execute(request)
    assert len(cache) == 7
    assert len(provider.resolved) == len(set(provider.resolved)) == 7  # 3 repeats replayed
    # idempotent
    for request in requests:
        cache.execute(request)
    assert len(cache) == 7
    assert len(provider.resolved) == 7


def test_cache_miss_without_provider(tmp_path, desk_store):
    cache = ToolCache(provider=SyntheticProvider(desk_store))
    origin, dest = _pair(900.0)
    recorded = _time(cache, origin, dest, "walking")
    cache.save(tmp_path / "cache.jsonl")
    replay = ToolCache.load(tmp_path / "cache.jsonl")  # no provider
    assert _time(replay, origin, dest, "walking") == recorded  # replay still works
    with pytest.raises(CacheMiss):
        _time(replay, origin, dest, "driving")
    with pytest.raises(CacheMiss):
        _time(ToolCache(), origin, dest, "walking")


def test_persistence_round_trip(tmp_path, desk_store):
    cache = ToolCache(provider=SyntheticProvider(desk_store))
    origin, dest = _pair(2000.0)
    values = {
        mode: _time(cache, origin, dest, mode)
        for mode in ("walking", "driving", "cycling", "transit")
    }
    _surrounding(cache, desk_store.communities("Guangzhou")[0].location, 1500, "park")
    path = tmp_path / "cache.jsonl"
    count = cache.save(path)
    assert count == len(cache)

    reloaded = ToolCache.load(path)
    for mode, value in values.items():
        assert _time(reloaded, origin, dest, mode) == value
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
        for request in corpus:
            cache.execute(request)
        path = tmp_path / name
        cache.save(path)
        paths.append(path)
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_populate_reports_failures(desk_store):
    """A request the provider rejects raises and records no entry."""
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
    cache.execute(good)
    with pytest.raises(InvalidParams, match="unknown label"):
        cache.execute(bad)
    assert len(cache) == 1
