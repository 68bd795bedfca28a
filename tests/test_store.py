"""Store behavior: ingestion errors, caption catalog, proximity pair views
against a brute-force oracle, lookup indexes, and read-only SQL execution."""

from __future__ import annotations

import csv
import dataclasses
import math
import os
import random
import re
import sqlite3
import subprocess
import sys
import threading
import time
from contextlib import closing
from pathlib import Path

import pytest

from estateqa import store as store_module
from estateqa.domain import Community, GeoPoint, Poi, haversine
from estateqa.fixtures import write_fixture
from estateqa.store import (
    DERIVED_COLUMNS,
    ENTITY_SCHEMA,
    FAMILIES,
    FAMILY_COLUMNS,
    GeoStore,
    INDEXED_COLUMNS,
    SQL_OP_BUDGET,
    SQL_ROW_CAP,
    IngestError,
    SqlExecutionError,
    StoreConfig,
    city_slug,
    extract_coordinates,
    table_id,
)

METERS_PER_DEG_LAT = 6_371_000 * math.pi / 180


def _write_rows(path, header, rows):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


COMMUNITY_HEADER = [
    "id", "city", "name", "district", "address", "latitude", "longitude",
    "greening_rate", "avg_price", "property_type", "sales_status",
]
POI_HEADER = ["id", "city", "name", "category", "label", "latitude", "longitude"]


def _community_row(cid, name, lat, lon, city="Testville", price=30000.0):
    return [cid, city, name, "North District", "1 Road", lat, lon, 30.0, price,
            "apartment", "on sale"]


def ingest(config, path, fixture_dir):
    """Write a store file from the fixture CSVs, then open it."""
    GeoStore.ingest_fixture(config, path, fixture_dir)
    return GeoStore.open(path)


def make_tiny_store(tmp_path, communities, pois=(), city="Testville", **radii):
    config = StoreConfig(cities=(city,), fixture_seed=1, **radii)
    _write_rows(
        tmp_path / "communities_testville.csv",
        COMMUNITY_HEADER,
        [_community_row(f"c{i}", name, lat, lon) for i, (name, lat, lon) in enumerate(communities)],
    )
    _write_rows(
        tmp_path / "pois_testville.csv",
        POI_HEADER,
        [
            [f"p{i}", city, name, "park", "park", lat, lon]
            for i, (name, lat, lon) in enumerate(pois)
        ],
    )
    return ingest(config, tmp_path / "store.db", tmp_path)


def _lookup_indexes(path, table):
    """The sorted column lists of the indexes CREATE INDEX made on ``table``
    (so not the primary key's), read with a connection of its own."""
    with closing(sqlite3.connect(path)) as conn:
        return sorted(
            [column for _, _, column in conn.execute(f"PRAGMA index_info({name})")]
            for _, name, _, origin, _ in conn.execute(f"PRAGMA index_list({table})")
            if origin == "c"
        )


def _assert_indexed_as_created(path, store):
    """Each entity table carries exactly the INDEXED_COLUMNS indexes; the
    pair families, being views, carry none."""
    for city in store.config.cities:
        for family in FAMILIES:
            expected = (
                sorted(list(columns) for columns in INDEXED_COLUMNS.values())
                if family in ENTITY_SCHEMA
                else []
            )
            assert _lookup_indexes(path, store.table_id(family, city)) == expected


@pytest.fixture(scope="module")
def desk_store_file(desk_store):
    """The desk store's file, which raw connections inspect and tests copy."""
    return desk_store.path


# --- ingestion -------------------------------------------------------------------


def test_caption_catalog_eight_for_two_cities(desk_store):
    captions = desk_store.list_captions()
    assert len(captions) == 8  # 4 families x 2 cities
    assert captions == desk_store.list_captions()  # stable across calls
    texts = [c.caption for c in captions]
    assert "Table for Communities in Guangzhou" in texts
    assert "Table for Communities around POIs in Suzhou" in texts
    for caption in captions:
        assert caption.caption.endswith((" Guangzhou", " Suzhou"))


def test_caption_order_is_city_then_family(desk_store):
    captions = desk_store.list_captions()
    assert [c.table_id for c in captions] == [
        table_id(family, city) for city in ("Guangzhou", "Suzhou") for family in FAMILIES
    ]


def test_empty_poi_fixture_leaves_empty_tables(tmp_path):
    store = make_tiny_store(tmp_path, [("Alpha Court", 23.0, 113.0)], pois=())
    _, rows = store.execute_sql("SELECT COUNT(*) FROM poi_testville")
    assert rows == [(0,)]
    _, rows = store.execute_sql("SELECT COUNT(*) FROM poi_community_testville")
    assert rows == [(0,)]
    assert len(store.list_captions()) == 4


def test_malformed_latitude_rejected(tmp_path):
    with pytest.raises(IngestError, match="c0"):
        make_tiny_store(tmp_path, [("Alpha Court", 95.0, 113.0)])


def test_a_failed_ingest_commits_nothing(tmp_path):
    # the bad record is in the last CSV read, after the schema, the config and
    # the community rows
    config = StoreConfig(cities=("Testville",))
    _write_rows(
        tmp_path / "communities_testville.csv",
        COMMUNITY_HEADER,
        [_community_row("c0", "A", 23.0, 113.0)],
    )
    _write_rows(
        tmp_path / "pois_testville.csv",
        POI_HEADER,
        [["p0", "Testville", "X Park", "park", "park", 95.0, 113.0]],
    )
    path = tmp_path / "store.db"
    with pytest.raises(IngestError, match="record id=p0"):
        GeoStore.ingest_fixture(config, path, tmp_path)
    with closing(sqlite3.connect(path)) as conn:
        assert conn.execute("SELECT name FROM sqlite_master").fetchall() == []
    with pytest.raises(IngestError, match="not a store file"):
        GeoStore.open(path)


def test_importing_the_store_loads_only_the_domain():
    code = (
        "import sys, estateqa.store;"
        " print(sorted(m for m in sys.modules if m.partition('.')[0] == 'estateqa'))"
    )
    src = str(Path(store_module.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    ).stdout
    assert out == "['estateqa', 'estateqa.domain', 'estateqa.store']\n"


def test_wrong_header_rejected(tmp_path):
    config = StoreConfig(cities=("Testville",))
    _write_rows(tmp_path / "communities_testville.csv", ["id", "name"], [["c0", "A"]])
    _write_rows(tmp_path / "pois_testville.csv", POI_HEADER, [])
    with pytest.raises(IngestError, match="header"):
        GeoStore.ingest_fixture(config, tmp_path / "store.db", tmp_path)


def test_duplicate_id_rejected(tmp_path):
    config = StoreConfig(cities=("Testville",))
    _write_rows(
        tmp_path / "communities_testville.csv",
        COMMUNITY_HEADER,
        [_community_row("c0", "A", 23.0, 113.0), _community_row("c0", "B", 23.1, 113.1)],
    )
    _write_rows(tmp_path / "pois_testville.csv", POI_HEADER, [])
    with pytest.raises(IngestError, match="duplicate id"):
        GeoStore.ingest_fixture(config, tmp_path / "store.db", tmp_path)


def test_label_taxonomy_mismatch_rejected(tmp_path):
    config = StoreConfig(cities=("Testville",))
    _write_rows(
        tmp_path / "communities_testville.csv",
        COMMUNITY_HEADER,
        [_community_row("c0", "A", 23.0, 113.0)],
    )
    _write_rows(
        tmp_path / "pois_testville.csv",
        POI_HEADER,
        [["p0", "Testville", "X Park", "school", "park", 23.0, 113.0]],
    )
    with pytest.raises(IngestError, match="taxonomy"):
        GeoStore.ingest_fixture(config, tmp_path / "store.db", tmp_path)


def test_missing_fixture_file(tmp_path):
    config = StoreConfig(cities=("Testville",))
    with pytest.raises(IngestError, match="missing fixture file"):
        GeoStore.ingest_fixture(config, tmp_path / "store.db", tmp_path)


_GOOD_COMMUNITY = _community_row("c0", "A", 23.0, 113.0)
_GOOD_POI = ["p0", "Testville", "X Park", "park", "park", 23.0, 113.0]


@pytest.mark.parametrize(
    "family, row, match",
    [
        ("community", _GOOD_COMMUNITY[:6], "record id=c0: expected 11 fields, got 6"),
        ("community", _GOOD_COMMUNITY + ["x"], "record id=c0: expected 11 fields, got 12"),
        ("poi", _GOOD_POI[:5], "record id=p0: expected 7 fields, got 5"),
        ("poi", _GOOD_POI + ["x"], "record id=p0: expected 7 fields, got 8"),
        ("poi", ["p0", "Elsewhere", *_GOOD_POI[2:]], "record id=p0: city mismatch"),
    ],
    ids=["community-short", "community-long", "poi-short", "poi-long", "poi-city"],
)
def test_malformed_fixture_record_rejected(tmp_path, family, row, match):
    rows = {"community": [_GOOD_COMMUNITY], "poi": [_GOOD_POI], family: [row]}
    _write_rows(tmp_path / "communities_testville.csv", COMMUNITY_HEADER, rows["community"])
    _write_rows(tmp_path / "pois_testville.csv", POI_HEADER, rows["poi"])
    config = StoreConfig(cities=("Testville",))
    with pytest.raises(IngestError, match=match):
        GeoStore.ingest_fixture(config, tmp_path / "store.db", tmp_path)


def test_schema_declaration_matches_entities_tables_and_fixture_headers(tmp_path):
    def flat_fields(cls):
        return tuple(
            name
            for f in dataclasses.fields(cls)
            for name in (("latitude", "longitude") if f.name == "location" else (f.name,))
        )

    assert flat_fields(Community) == FAMILY_COLUMNS["community"]
    assert flat_fields(Poi) == FAMILY_COLUMNS["poi"]

    config = StoreConfig(cities=("Testville",))
    write_fixture(config, tmp_path, communities_per_city=2, pois_per_city=2)
    for family, prefix in (("community", "communities"), ("poi", "pois")):
        with open(tmp_path / f"{prefix}_testville.csv", encoding="utf-8", newline="") as fh:
            assert tuple(next(csv.reader(fh))) == FAMILY_COLUMNS[family]

    GeoStore.ingest_fixture(config, tmp_path / "store.db", tmp_path)
    conn = sqlite3.connect(tmp_path / "store.db")
    derived = tuple(name for name, _ in DERIVED_COLUMNS)
    for family in FAMILIES:
        info = conn.execute(f"PRAGMA table_info({family}_testville)").fetchall()
        if family in ENTITY_SCHEMA:
            assert tuple(name for _, name, *_ in info) == FAMILY_COLUMNS[family] + derived
            assert [(name, kind, pk) for _, name, kind, _, _, pk in info] == [
                (name, kind, int(name == "id"))
                for name, kind in ENTITY_SCHEMA[family] + DERIVED_COLUMNS
            ]
        else:
            assert tuple(name for _, name, *_ in info) == FAMILY_COLUMNS[family]
    kinds = dict(conn.execute("SELECT name, type FROM sqlite_master WHERE name LIKE '%_testville'"))
    assert {family: kinds[f"{family}_testville"] for family in FAMILIES} == {
        "community": "table",
        "poi": "table",
        "poi_community": "view",
        "community_community": "view",
    }

    # the derived columns hold, bit for bit, what the views computed from the
    # coordinates in SQL before they were stored
    for family in ENTITY_SCHEMA:
        assert conn.execute(
            f"SELECT COUNT(*), SUM(latitude_rad = radians(latitude)"
            " AND longitude_rad = radians(longitude)"
            f" AND cos_latitude = cos(radians(latitude))) FROM {family}_testville"
        ).fetchone() == (2, 2)
    conn.close()


# --- proximity pairs --------------------------------------------------------------


def test_two_communities_500m_apart_yield_two_rows(tmp_path):
    dlat = 500 / METERS_PER_DEG_LAT
    store = make_tiny_store(
        tmp_path, [("Alpha Court", 23.0, 113.0), ("Beta Court", 23.0 + dlat, 113.0)]
    )
    counts = store.build_proximity_pairs()
    assert counts["community_community"] == 2  # both directions stored
    _, rows = store.execute_sql(
        "SELECT subject_name, neighbor_name FROM community_community_testville ORDER BY subject_name"
    )
    assert rows == [("Alpha Court", "Beta Court"), ("Beta Court", "Alpha Court")]


def test_poi_just_beyond_radius_contributes_nothing(tmp_path):
    dlat = 3001 / METERS_PER_DEG_LAT
    store = make_tiny_store(
        tmp_path,
        [("Alpha Court", 23.0, 113.0)],
        pois=[("Far Park", 23.0 + dlat, 113.0)],
    )
    counts = store.build_proximity_pairs()
    assert counts["poi_community"] == 0


def test_poi_at_radius_boundary_included(tmp_path):
    dlat = 2999 / METERS_PER_DEG_LAT
    store = make_tiny_store(
        tmp_path,
        [("Alpha Court", 23.0, 113.0)],
        pois=[("Near Park", 23.0 + dlat, 113.0)],
    )
    assert store.build_proximity_pairs()["poi_community"] == 1


def _nested_loop_pair_rows(store, city):
    """The pair rows of the plain nested loop over ``haversine``."""
    communities = store.communities(city)
    pc_rows = []
    for p in store.pois(city):
        for c in communities:
            d = haversine(p.location, c.location)
            if d <= store.config.poi_pairing_radius:
                pc_rows.append((p.id, p.name, p.label, c.id, c.name, round(d, 1)))
    cc_rows = []
    for i, a in enumerate(communities):
        for b in communities[i + 1 :]:
            d = haversine(a.location, b.location)
            if d <= store.config.community_pairing_radius:
                cc_rows.append((a.id, a.name, b.id, b.name, round(d, 1)))
                cc_rows.append((b.id, b.name, a.id, a.name, round(d, 1)))
    return pc_rows, cc_rows


def _assert_pairs_match_nested_loop(store):
    # full rows, distance included, as sorted lists: a view has no row order
    for city in store.config.cities:
        expected_pc, expected_cc = _nested_loop_pair_rows(store, city)
        pc_table = store.table_id("poi_community", city)
        cc_table = store.table_id("community_community", city)
        _, pc_rows = store.execute_sql(f"SELECT * FROM {pc_table}")
        _, cc_rows = store.execute_sql(f"SELECT * FROM {cc_table}")
        assert sorted(pc_rows) == sorted(expected_pc)
        assert sorted(cc_rows) == sorted(expected_cc)


@pytest.mark.parametrize(
    "seed, poi_radius, community_radius",
    [(99, 3000.0, 1000.0), (5, 2500.0, 700.0), (17, 700.0, 2500.0), (23, 20_000.0, 9_000.0)],
    # a fixture city spans about 6.7 km by 5-6 km, so 20 km pairs every entity
    ids=["defaults", "2500m-700m", "700m-2500m", "beyond-the-city"],
)
def test_pair_tables_match_brute_force_oracle(tmp_path, seed, poi_radius, community_radius):
    # independent O(n^2) pairing over a 100-entity random fixture
    config = StoreConfig(
        cities=("Oracleton",), fixture_seed=seed, poi_pairing_radius=poi_radius,
        community_pairing_radius=community_radius,
    )
    write_fixture(config, tmp_path, communities_per_city=60, pois_per_city=40)
    store = ingest(config, tmp_path / "store.db", tmp_path)
    counts = store.build_proximity_pairs()
    assert counts == _serial_pair_counts(store)

    communities = store.communities("Oracleton")
    pois = store.pois("Oracleton")
    expected_pc = {
        (p.id, c.id)
        for p in pois
        for c in communities
        if haversine(p.location, c.location) <= config.poi_pairing_radius
    }
    expected_cc = {
        (a.id, b.id)
        for a in communities
        for b in communities
        if a.id != b.id
        and haversine(a.location, b.location) <= config.community_pairing_radius
    }
    _, pc_rows = store.execute_sql(
        "SELECT poi_id, community_id FROM poi_community_oracleton"
    )
    _, cc_rows = store.execute_sql(
        "SELECT subject_id, neighbor_id FROM community_community_oracleton"
    )
    assert set(pc_rows) == expected_pc
    assert set(cc_rows) == expected_cc
    assert counts["poi_community"] == len(expected_pc)
    assert counts["community_community"] == len(expected_cc)
    _assert_pairs_match_nested_loop(store)


def test_desk_scale_pairs_match_brute_force(desk_store):
    # same oracle at fixture scale (hundreds of entities per city)
    for city in desk_store.config.cities:
        communities = desk_store.communities(city)
        pois = desk_store.pois(city)
        expected_pc = sum(
            1
            for p in pois
            for c in communities
            if haversine(p.location, c.location) <= desk_store.config.poi_pairing_radius
        )
        expected_cc = sum(
            1
            for a in communities
            for b in communities
            if a.id != b.id
            and haversine(a.location, b.location)
            <= desk_store.config.community_pairing_radius
        )
        slug_table = desk_store.table_id("poi_community", city)
        _, rows = desk_store.execute_sql(f"SELECT COUNT(*) FROM {slug_table}")
        assert rows == [(expected_pc,)]
        cc_table = desk_store.table_id("community_community", city)
        _, rows = desk_store.execute_sql(f"SELECT COUNT(*) FROM {cc_table}")
        assert rows == [(expected_cc,)]
    _assert_pairs_match_nested_loop(desk_store)


_ON_RADIUS = pytest.mark.parametrize(
    "origin, moved",
    [
        ((23.0, 113.0), (23.0 + 500 / METERS_PER_DEG_LAT, 113.0)),
        ((23.0, 113.0), (23.0, 113.0 + 500 / METERS_PER_DEG_LAT)),
        # the latitude window of a radius this long, degrees(radius / R),
        # rounds to just under this offset, so only the window's pad keeps them
        ((23.52456, 113.0), (23.525621075547182, 113.0)),
        # the view's raw longitude difference of these is nearly 2π
        ((23.0, 179.9998), (23.0, -179.9997)),
        # across the pole: the longitude run within the radius widens past π
        ((89.9995, 10.0), (89.9995, -170.0)),
    ],
    ids=["latitude", "longitude", "latitude-window-edge", "antimeridian", "pole"],
)


def _on_radius_radii(origin, moved):
    # the radii are the distances themselves, so each pair sits on the boundary
    return {
        "poi_pairing_radius": haversine(GeoPoint(*moved), GeoPoint(*origin)),
        "community_pairing_radius": haversine(GeoPoint(*origin), GeoPoint(*moved)),
    }


@_ON_RADIUS
def test_entities_exactly_on_the_radius_are_paired(tmp_path, origin, moved):
    store = make_tiny_store(
        tmp_path,
        [("Alpha Court", *origin), ("Beta Court", *moved)],
        pois=[("Edge Park", *moved)],
        **_on_radius_radii(origin, moved),
    )
    counts = store.build_proximity_pairs()
    # Edge Park pairs with Beta Court at 0 m and with Alpha Court on the radius
    assert counts == {"poi_community": 2, "community_community": 2}
    _assert_pairs_match_nested_loop(store)


def _distances_in_sqlite(terms):
    """The view's distance 2R·asin(min(1, sqrt(h))) of each inner term h, as
    SQLite computes it."""
    with closing(sqlite3.connect(":memory:")) as conn:
        return [
            conn.execute("SELECT 2.0 * 6371000.0 * asin(min(1.0, sqrt(?)))", (h,)).fetchone()[0]
            for h in terms
        ]


@_ON_RADIUS
def test_inner_term_bound_is_the_last_double_within_the_radius(tmp_path, origin, moved):
    radii = _on_radius_radii(origin, moved)
    defaults = StoreConfig(cities=("Testville",))
    for radius in (
        *radii.values(), defaults.poi_pairing_radius, defaults.community_pairing_radius
    ):
        bound = store_module._inner_term_bound(radius)
        within, beyond = _distances_in_sqlite([bound, math.nextafter(bound, math.inf)])
        assert within <= radius < beyond, (radius, bound)
    # each view filters on the bound of its own radius
    store = make_tiny_store(tmp_path, [], **radii)
    for family, radius in zip(("poi_community", "community_community"), radii.values()):
        (text,) = store._reader().execute(
            "SELECT sql FROM sqlite_master WHERE name = ?", (f"{family}_testville",)
        ).fetchone()
        assert f" <= {store_module._inner_term_bound(radius)!r}" in text


def _serial_pair_counts(store):
    """Each pair family's rows summed over the cities, counted one table after
    another on a connection of its own."""
    with closing(sqlite3.connect(store.path)) as conn:
        return {
            family: sum(
                conn.execute(f"SELECT COUNT(*) FROM {store.table_id(family, city)}").fetchone()[0]
                for city in store.config.cities
            )
            for family in store_module._PAIR_VIEWS
        }


def test_pair_counts_equal_the_serial_counts(desk_store):
    counts = desk_store.build_proximity_pairs()
    assert counts == _serial_pair_counts(desk_store)
    assert min(counts.values()) > 0


def _cluster(rng, size, latitudes, longitudes):
    return [
        (f"Point {i}", rng.uniform(*latitudes), rng.uniform(*longitudes)) for i in range(size)
    ]


def _duplicate_coordinates(rng):
    spots = _cluster(rng, 12, (23.0, 23.02), (113.0, 113.02))
    return [rng.choice(spots) for _ in range(50)], [rng.choice(spots) for _ in range(30)], {}


def _vanishing_radius(rng):
    # a radius so small that the view's window is 0: only coincident points pair
    communities, pois, _ = _duplicate_coordinates(rng)
    return communities, pois, {"poi_pairing_radius": 1e-320, "community_pairing_radius": 1e-320}


def _no_pois(rng):
    return _cluster(rng, 50, (23.0, 23.03), (113.0, 113.03)), [], {}


def _no_communities(rng):
    return [], _cluster(rng, 30, (23.0, 23.03), (113.0, 113.03)), {}


def _on_strip_edges(rng):
    # one radius for both families, so both count over the same strips; the
    # neighbours sit on multiples of the strip height from the lowest one
    radius = 1000.0
    height = (
        store_module._window_half_width(radius) / store_module._STRIPS_PER_HALF_WINDOW
    )
    communities = [
        (f"Court {k}", 23.0 + k * height, rng.uniform(113.0, 113.01)) for k in range(16)
    ]
    pois = [(f"Park {k}", lat, lon + 0.001) for k, (_, lat, lon) in enumerate(communities)]
    radii = {"poi_pairing_radius": radius, "community_pairing_radius": radius}
    return communities * 2, pois, radii


def _across_the_antimeridian(rng):
    west, east = (-180.0, -179.98), (179.98, 180.0)
    communities = _cluster(rng, 25, (23.0, 23.02), west) + _cluster(rng, 25, (23.0, 23.02), east)
    pois = _cluster(rng, 15, (23.0, 23.02), west) + _cluster(rng, 15, (23.0, 23.02), east)
    edge = [("East Edge", 23.01, 180.0), ("West Edge", 23.01, -180.0)]
    return communities + edge, pois + edge, {}


def _next_to_a_pole(south):
    def points(rng):
        latitudes = (-90.0, -89.97) if south else (89.97, 90.0)
        communities = _cluster(rng, 50, latitudes, (-180.0, 180.0))
        pois = _cluster(rng, 30, latitudes, (-180.0, 180.0))
        return communities, pois, {}

    return points


@pytest.mark.parametrize(
    "points",
    [
        _duplicate_coordinates, _vanishing_radius, _no_pois, _no_communities, _on_strip_edges,
        _across_the_antimeridian, _next_to_a_pole(south=False), _next_to_a_pole(south=True),
    ],
    ids=[
        "duplicate-coordinates", "vanishing-radius", "no-pois", "no-communities", "strip-edges",
        "antimeridian", "north-pole", "south-pole",
    ],
)
@pytest.mark.parametrize("seed", [1, 2])
def test_pair_counts_equal_the_views_at_the_edge_cases(tmp_path, points, seed):
    communities, pois, radii = points(random.Random(seed))
    store = make_tiny_store(tmp_path, communities, pois=pois, **radii)
    counts = store.build_proximity_pairs()
    assert counts == _serial_pair_counts(store)
    _assert_pairs_match_nested_loop(store)


@pytest.mark.parametrize("seed, radius", [(1, 1e-4), (2, 1e-4), (3, 0.01), (4, 0.01)])
def test_pair_count_keeps_the_views_latitude_window(tmp_path, seed, radius):
    # At radii of a centimetre or less the window's pad is below the rounding
    # of a latitude, so the view's window (as SQLite computes its BETWEEN
    # bounds) drops some pairs within the radius. Each subject has
    # neighbours on either window edge, one and two doubles inside it and
    # one beyond.
    rng = random.Random(seed)
    window = store_module._window_half_width(radius)
    communities, pois = [], []
    for i in range(60):
        latitude, longitude = rng.uniform(-60.0, 60.0), rng.uniform(100.0, 120.0)
        pois.append((f"Park {i}", latitude, longitude))
        communities.append((f"Court {i}", latitude, longitude))
        for outward in (-math.inf, math.inf):
            edge = latitude + math.copysign(window, outward)
            inner = math.nextafter(edge, -outward)
            for moved in (math.nextafter(inner, -outward), inner, edge,
                          math.nextafter(edge, outward)):
                communities.append((f"Court {i}", moved, longitude))
    store = make_tiny_store(
        tmp_path, communities, pois=pois,
        poi_pairing_radius=radius, community_pairing_radius=radius,
    )
    counts = store.build_proximity_pairs()
    assert counts == _serial_pair_counts(store)
    expected_pc, expected_cc = _nested_loop_pair_rows(store, "Testville")
    assert counts["poi_community"] < len(expected_pc)
    assert counts["community_community"] < len(expected_cc)


def test_pair_counts_at_the_benchmark_scale(tmp_path):
    # the store perfbench's build-M workload writes and counts
    config = StoreConfig(cities=("Guangzhou", "Suzhou"), fixture_seed=1)
    write_fixture(config, tmp_path, communities_per_city=1500, pois_per_city=1200)
    store = ingest(config, tmp_path / "store.db", tmp_path)
    counts = store.build_proximity_pairs()
    assert counts == {"poi_community": 1628964, "community_community": 309956}


def test_pair_build_is_idempotent(tmp_path):
    dlat = 400 / METERS_PER_DEG_LAT
    store = make_tiny_store(
        tmp_path,
        [("Alpha Court", 23.0, 113.0), ("Beta Court", 23.0 + dlat, 113.0)],
    )
    first = store.build_proximity_pairs()
    _, first_rows = store.execute_sql("SELECT * FROM community_community_testville")
    second = store.build_proximity_pairs()
    _, second_rows = store.execute_sql("SELECT * FROM community_community_testville")
    assert first == second
    assert first_rows == second_rows and len(first_rows) == 2
    _assert_indexed_as_created(tmp_path / "store.db", store)


# --- SQL execution ------------------------------------------------------------------


def test_select_count_matches_ingestion(desk_store):
    _, rows = desk_store.execute_sql("SELECT COUNT(*) FROM community_guangzhou")
    assert rows == [(220,)]


def test_missing_table_is_execution_error(desk_store):
    with pytest.raises(SqlExecutionError, match="no such table"):
        desk_store.execute_sql("SELECT * FROM community_nowhere")


def test_non_select_statements_rejected(desk_store):
    for statement in (
        "INSERT INTO community_guangzhou (id) VALUES ('x')",
        "DROP TABLE community_guangzhou",
        "UPDATE community_guangzhou SET name = 'x'",
        "PRAGMA journal_mode = DELETE",
        "",
        "SELECT '\ud800'",  # a lone surrogate cannot be encoded for the engine
    ):
        with pytest.raises(SqlExecutionError):
            desk_store.execute_sql(statement)


def test_multi_statement_injection_rejected(desk_store):
    with pytest.raises(SqlExecutionError):
        desk_store.execute_sql("SELECT 1; DROP TABLE community_guangzhou")
    # table still there
    _, rows = desk_store.execute_sql("SELECT COUNT(*) FROM community_guangzhou")
    assert rows == [(220,)]


def test_runaway_join_stops_at_the_operation_budget(desk_store):
    with pytest.raises(SqlExecutionError, match=f"budget of {SQL_OP_BUDGET:,} VM operations"):
        desk_store.execute_sql(
            "SELECT COUNT(*) FROM poi_community_guangzhou a, poi_community_guangzhou b"
        )
    # the budget is per statement: a full scan right after runs to the end
    _, rows = desk_store.execute_sql("SELECT COUNT(*) FROM poi_community_guangzhou")
    assert rows[0][0] > 0


def test_cross_join_stops_at_the_row_cap(desk_store):
    with pytest.raises(SqlExecutionError, match=f"cap of {SQL_ROW_CAP:,} rows"):
        desk_store.execute_sql(
            "SELECT a.poi_name, b.neighbor_name"
            " FROM poi_community_guangzhou a, community_community_guangzhou b LIMIT 2000000"
        )


def test_result_of_exactly_the_row_cap_is_returned(desk_store):
    _, rows = desk_store.execute_sql(
        "SELECT a.poi_id FROM poi_community_guangzhou a, community_community_guangzhou b"
        f" LIMIT {SQL_ROW_CAP}"
    )
    assert len(rows) == SQL_ROW_CAP


def test_query_column_order_preserved(desk_store):
    columns, _ = desk_store.execute_sql(
        "SELECT longitude, latitude, name FROM community_guangzhou LIMIT 1"
    )
    assert columns == ("longitude", "latitude", "name")


def test_internal_reads_still_work_after_untrusted_query(tmp_path):
    # 2,000 communities 0.22 m apart, so every pair is within the 1 km radius
    store = make_tiny_store(
        tmp_path, [(f"Court {i}", 23.0 + i * 2e-6, 113.0) for i in range(2000)]
    )
    store.execute_sql("SELECT 1")
    with pytest.raises(SqlExecutionError, match="VM operations"):
        store.execute_sql(
            "SELECT COUNT(*) FROM community_testville a, community_testville b,"
            " community_testville c, community_testville d"
        )
    # each read of the community table runs past the progress step (about 6
    # VM operations a row for the pair count's, 18 for communities()' full
    # rows): a stale progress handler would stop it
    assert store.build_proximity_pairs()["community_community"] == 2000 * 1999
    assert len(store.communities("Testville")) == 2000


def _run_in_threads(*targets):
    """Start one daemon thread per target and join each with a timeout, so
    that a hang fails the test instead of stalling the suite."""
    threads = [threading.Thread(target=target, daemon=True) for target in targets]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
    assert not any(thread.is_alive() for thread in threads)


def test_agent_sql_does_not_wait_for_a_statement_on_another_thread(desk_store):
    started = threading.Event()
    finished = {}

    def runaway():
        started.set()
        with pytest.raises(SqlExecutionError, match="VM operations"):
            desk_store.execute_sql(
                "SELECT COUNT(*) FROM poi_community_guangzhou a, poi_community_guangzhou b"
            )
        finished["runaway"] = time.monotonic()

    def small():
        assert started.wait(timeout=60)
        time.sleep(0.05)  # the runaway statement is under way by now
        _, rows = desk_store.execute_sql("SELECT COUNT(*) FROM community_guangzhou")
        finished["small"] = time.monotonic()
        assert rows == [(220,)]

    _run_in_threads(runaway, small)
    assert finished["small"] < finished["runaway"]


def test_threads_share_one_snapshot_and_read_on_their_own_readers(desk_store_file):
    # more threads than cores, switching often, all reading a fresh store
    store = GeoStore.open(desk_store_file)
    snapshots, counts = [], []

    def read():
        for _ in range(5):
            snapshots.append(store.snapshot())
            counts.append(store.execute_sql("SELECT COUNT(*) FROM poi_suzhou")[1])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        _run_in_threads(*[read] * 6)
    finally:
        sys.setswitchinterval(interval)
    assert len({id(s) for s in snapshots}) == 1 and len(snapshots) == 30
    assert counts == [[(160,)]] * 30
    store.close()


def test_a_write_through_a_reader_is_refused(tmp_path):
    store = make_tiny_store(tmp_path, [("Alpha Court", 23.0, 113.0)])
    write = "WITH x AS (SELECT 1) INSERT INTO community_testville (id) SELECT 'c9' FROM x"
    with pytest.raises(SqlExecutionError, match="not authorized"):
        store.execute_sql(write)
    # with the authorizer out of the way, the read-only open still refuses it
    store._reader().set_authorizer(lambda *_: sqlite3.SQLITE_OK)
    with pytest.raises(SqlExecutionError, match="readonly database"):
        store.execute_sql(write)
    assert store.execute_sql("SELECT COUNT(*) FROM community_testville")[1] == [(1,)]
    store.close()


def test_each_thread_reads_through_its_own_read_only_connection(desk_store):
    readers = []
    _run_in_threads(*[lambda: readers.append(desk_store._reader())] * 2)
    assert desk_store._reader() is desk_store._reader()
    assert len({id(r) for r in readers + [desk_store._reader()]}) == 3


def test_store_at_a_path_that_a_uri_must_escape(tmp_path):
    folder = tmp_path / "a b#c?d%20e"
    folder.mkdir()
    dlat = 500 / METERS_PER_DEG_LAT
    store = make_tiny_store(
        folder, [("Alpha Court", 23.0, 113.0), ("Beta Court", 23.0 + dlat, 113.0)]
    )
    assert store.build_proximity_pairs() == {"poi_community": 0, "community_community": 2}
    _, rows = store.execute_sql("SELECT name FROM community_testville ORDER BY name")
    assert rows == [("Alpha Court",), ("Beta Court",)]
    store.close()
    reopened = GeoStore.open(folder / "store.db")
    assert reopened.build_proximity_pairs()["community_community"] == 2
    assert reopened.execute_sql("SELECT COUNT(*) FROM community_testville")[1] == [(2,)]
    reopened.close()
    assert sorted(p.name for p in tmp_path.iterdir()) == [folder.name]


def test_store_reopen_round_trip(tmp_path, desk_config, desk_fixture_dir):
    path = tmp_path / "store.db"
    store = ingest(desk_config, path, desk_fixture_dir)
    store.build_proximity_pairs()
    _, before = store.execute_sql("SELECT COUNT(*) FROM poi_community_guangzhou")
    store.close()

    reopened = GeoStore.open(path)
    assert reopened.config == desk_config
    _, after = reopened.execute_sql("SELECT COUNT(*) FROM poi_community_guangzhou")
    assert after == before
    _assert_indexed_as_created(path, reopened)
    reopened.close()


def _desk_pair_counts(path):
    store = GeoStore.open(path)
    try:
        return store.build_proximity_pairs()
    finally:
        store.close()


def test_store_reads_do_not_go_through_the_agent_limits(monkeypatch, desk_store_file):
    counts = _desk_pair_counts(desk_store_file)
    monkeypatch.setattr(store_module, "SQL_ROW_CAP", 10)
    monkeypatch.setattr(store_module, "_BUDGET_TICKS", 1)
    store = GeoStore.open(desk_store_file)
    assert len(store.communities("Guangzhou")) == 220
    assert len(store.pois("Suzhou")) == 160
    assert store.build_proximity_pairs() == counts
    with pytest.raises(SqlExecutionError, match="cap of 10 rows"):
        store.execute_sql("SELECT * FROM community_guangzhou")
    store.close()


def test_open_rejects_non_store_file(tmp_path):
    path = tmp_path / "not_a_store.db"
    path.write_text("nope")
    with pytest.raises(IngestError):
        GeoStore.open(path)


# --- lookup indexes --------------------------------------------------------------------

_PAIR_TABLE = re.compile(r"\b(?:poi_community|community_community)_\w+")
_NAME_LOOKUP = re.compile(r"\b(?:\w+\.)?(?:subject_name|name) (?:= '|IN \(')")
_INDEXED_LOOKUP = re.compile(r"^SEARCH \w+ USING (?:COVERING )?INDEX \w+ \(name=\?\)$")


def test_gold_sql_searches_the_lookup_indexes(desk_store_file, desk_instances, desk_templates):
    assert {inst.template_id for inst in desk_instances} == {
        t.template_id for t in desk_templates
    }
    lookups = 0
    with closing(sqlite3.connect(desk_store_file)) as conn:
        for inst in desk_instances:
            for step in inst.sql_trace:
                plan = [
                    detail
                    for *_, detail in conn.execute("EXPLAIN QUERY PLAN " + step.statement)
                ]
                # a pair view is searched through the entity indexes; an
                # entity filter that no index covers (district, label) scans
                if _PAIR_TABLE.search(step.statement):
                    assert not [d for d in plan if d.startswith("SCAN ")], (step.statement, plan)
                    assert [d for d in plan if "(latitude>? AND latitude<?)" in d], plan
                searches = sum(1 for detail in plan if _INDEXED_LOOKUP.match(detail))
                assert searches == len(_NAME_LOOKUP.findall(step.statement)), (
                    step.statement,
                    plan,
                )
                lookups += searches
    assert lookups > len(desk_instances)


@pytest.mark.parametrize("family", ["poi_community", "community_community"])
def test_pair_view_count_reads_only_the_latitude_indexes(desk_store_file, desk_config, family):
    with closing(sqlite3.connect(desk_store_file)) as conn:
        for city in desk_config.cities:
            plan = [
                detail
                for *_, detail in conn.execute(
                    f"EXPLAIN QUERY PLAN SELECT COUNT(*) FROM {family}_{city_slug(city)}"
                )
            ]
            subject, neighbor = (
                f"{kind}_{city_slug(city)}" for kind in family.split("_", 1)
            )
            assert plan == [
                f"SCAN s USING COVERING INDEX idx_{subject}_latitude",
                f"SEARCH n USING COVERING INDEX idx_{neighbor}_latitude"
                " (latitude>? AND latitude<?)",
            ], plan


def test_name_anchored_neighbour_statement_starts_at_the_name_index(
    desk_store_file, desk_instances
):
    statements = [
        step.statement
        for inst in desk_instances
        if inst.template_id == "t1_cheapest_neighbor"
        for step in inst.sql_trace
        if "community_community_" in step.statement
    ]
    assert statements
    with closing(sqlite3.connect(desk_store_file)) as conn:
        for statement in statements:
            city = re.search(r"community_community_(\w+)", statement).group(1)
            plan = [detail for *_, detail in conn.execute("EXPLAIN QUERY PLAN " + statement)]
            assert plan[0] == f"SEARCH s USING INDEX idx_community_{city}_name (name=?)", plan
            assert (
                f"SEARCH n USING COVERING INDEX idx_community_{city}_latitude"
                " (latitude>? AND latitude<?)"
            ) in plan


# --- coordinate extraction -----------------------------------------------------------


def test_extract_coordinates_conventions():
    coords = extract_coordinates(
        ("name", "latitude", "longitude"),
        (("A", 23.0, 113.0), ("B", 24.0, 114.0)),
    )
    assert coords == {"A": GeoPoint(23.0, 113.0), "B": GeoPoint(24.0, 114.0)}
    assert extract_coordinates(("name", "avg_price"), (("A", 1.0),)) == {}
    # alternate naming conventions
    coords = extract_coordinates(("community_name", "lat", "lon"), (("C", 30.0, 120.0),))
    assert coords == {"C": GeoPoint(30.0, 120.0)}


def test_extract_coordinates_skips_bad_rows():
    coords = extract_coordinates(
        ("name", "latitude", "longitude"),
        (("A", None, 113.0), ("B", 999.0, 114.0), ("C", 24.0, 114.0)),
    )
    assert list(coords) == ["C"]
