"""Store behavior: ingestion errors, caption catalog, proximity pairs against
a brute-force oracle, and read-only SQL execution."""

from __future__ import annotations

import csv
import dataclasses
import math
import sqlite3

import pytest

from estateqa.domain import Community, GeoPoint, Poi, haversine
from estateqa.fixtures import write_fixture
from estateqa.store import (
    FAMILIES,
    FAMILY_COLUMNS,
    FAMILY_SCHEMA,
    GeoStore,
    IngestError,
    SqlExecutionError,
    StoreConfig,
    extract_coordinates,
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
    store = GeoStore(config)
    store.ingest_fixture(tmp_path)
    return store


# --- ingestion -------------------------------------------------------------------


def test_caption_catalog_eight_for_two_cities(desk_store):
    captions = desk_store.list_captions()
    assert len(captions) == 8  # 4 families x 2 cities
    assert captions == desk_store.list_captions()  # stable across calls
    texts = [c.caption for c in captions]
    assert "Table for Communities in Guangzhou" in texts
    assert "Table for Communities around POIs in Suzhou" in texts
    for caption in captions:
        assert caption.city in caption.caption


def test_caption_order_is_city_then_family(desk_store):
    captions = desk_store.list_captions()
    assert [c.city for c in captions] == ["Guangzhou"] * 4 + ["Suzhou"] * 4
    assert [c.family for c in captions][:4] == list(FAMILIES)


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


def test_wrong_header_rejected(tmp_path):
    config = StoreConfig(cities=("Testville",))
    _write_rows(tmp_path / "communities_testville.csv", ["id", "name"], [["c0", "A"]])
    _write_rows(tmp_path / "pois_testville.csv", POI_HEADER, [])
    with pytest.raises(IngestError, match="header"):
        GeoStore(config).ingest_fixture(tmp_path)


def test_duplicate_id_rejected(tmp_path):
    config = StoreConfig(cities=("Testville",))
    _write_rows(
        tmp_path / "communities_testville.csv",
        COMMUNITY_HEADER,
        [_community_row("c0", "A", 23.0, 113.0), _community_row("c0", "B", 23.1, 113.1)],
    )
    _write_rows(tmp_path / "pois_testville.csv", POI_HEADER, [])
    with pytest.raises(IngestError, match="duplicate id"):
        GeoStore(config).ingest_fixture(tmp_path)


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
        GeoStore(config).ingest_fixture(tmp_path)


def test_missing_fixture_file(tmp_path):
    config = StoreConfig(cities=("Testville",))
    with pytest.raises(IngestError, match="missing fixture file"):
        GeoStore(config).ingest_fixture(tmp_path)


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
    with pytest.raises(IngestError, match=match):
        GeoStore(StoreConfig(cities=("Testville",))).ingest_fixture(tmp_path)


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
    GeoStore(config, tmp_path / "store.db").close()
    conn = sqlite3.connect(tmp_path / "store.db")
    for family in FAMILIES:
        info = conn.execute(f"PRAGMA table_info({family}_testville)").fetchall()
        assert [(name, kind, pk) for _, name, kind, _, _, pk in info] == [
            (name, kind, int(name == "id")) for name, kind in FAMILY_SCHEMA[family]
        ]
    conn.close()

    write_fixture(config, tmp_path, communities_per_city=2, pois_per_city=2)
    for family, prefix in (("community", "communities"), ("poi", "pois")):
        with open(tmp_path / f"{prefix}_testville.csv", encoding="utf-8", newline="") as fh:
            assert tuple(next(csv.reader(fh))) == FAMILY_COLUMNS[family]


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
    """The pair rows of the plain nested loop over ``haversine``, in emission order."""
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
    # rows in rowid order, which is what SQL without ORDER BY reads
    for city in store.config.cities:
        expected_pc, expected_cc = _nested_loop_pair_rows(store, city)
        pc_table = store.table_id("poi_community", city)
        cc_table = store.table_id("community_community", city)
        _, pc_rows = store.execute_sql(f"SELECT * FROM {pc_table} ORDER BY rowid")
        _, cc_rows = store.execute_sql(f"SELECT * FROM {cc_table} ORDER BY rowid")
        assert pc_rows == expected_pc
        assert cc_rows == expected_cc


def test_pair_tables_match_brute_force_oracle(tmp_path, desk_config):
    # independent O(n^2) pairing over a 100-entity random fixture
    config = StoreConfig(cities=("Oracleton",), fixture_seed=99)
    write_fixture(config, tmp_path, communities_per_city=60, pois_per_city=40)
    store = GeoStore(config)
    store.ingest_fixture(tmp_path)
    counts = store.build_proximity_pairs()

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


@pytest.mark.parametrize("axis", ["latitude", "longitude"])
def test_entities_exactly_on_the_radius_are_paired(tmp_path, axis):
    origin = (23.0, 113.0)
    offset = 500 / METERS_PER_DEG_LAT
    moved = (23.0 + offset, 113.0) if axis == "latitude" else (23.0, 113.0 + offset)
    store = make_tiny_store(
        tmp_path,
        [("Alpha Court", *origin), ("Beta Court", *moved)],
        pois=[("Edge Park", *moved)],
        # the radii are the distances themselves, so each pair sits on the boundary
        poi_pairing_radius=haversine(GeoPoint(*moved), GeoPoint(*origin)),
        community_pairing_radius=haversine(GeoPoint(*origin), GeoPoint(*moved)),
    )
    counts = store.build_proximity_pairs()
    # Edge Park pairs with Beta Court at 0 m and with Alpha Court on the radius
    assert counts == {"poi_community": 2, "community_community": 2}


def test_pair_build_is_idempotent(tmp_path):
    dlat = 400 / METERS_PER_DEG_LAT
    store = make_tiny_store(
        tmp_path, [("Alpha Court", 23.0, 113.0), ("Beta Court", 23.0 + dlat, 113.0)]
    )
    first = store.build_proximity_pairs()
    second = store.build_proximity_pairs()
    assert first == second


def test_ingest_after_snapshot_read_is_visible(tmp_path):
    first, second = tmp_path / "first", tmp_path / "second"
    first.mkdir()
    second.mkdir()
    store = make_tiny_store(first, [("Alpha Court", 23.0, 113.0)])
    assert [c.name for c in store.communities("Testville")] == ["Alpha Court"]
    _write_rows(
        second / "communities_testville.csv",
        COMMUNITY_HEADER,
        [_community_row("c9", "Beta Court", 23.1, 113.1)],
    )
    _write_rows(second / "pois_testville.csv", POI_HEADER, [])
    store.ingest_fixture(second)
    assert [c.name for c in store.communities("Testville")] == ["Alpha Court", "Beta Court"]


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
    ):
        with pytest.raises(SqlExecutionError):
            desk_store.execute_sql(statement)


def test_multi_statement_injection_rejected(desk_store):
    with pytest.raises(SqlExecutionError):
        desk_store.execute_sql("SELECT 1; DROP TABLE community_guangzhou")
    # table still there
    _, rows = desk_store.execute_sql("SELECT COUNT(*) FROM community_guangzhou")
    assert rows == [(220,)]


def test_query_column_order_preserved(desk_store):
    columns, _ = desk_store.execute_sql(
        "SELECT longitude, latitude, name FROM community_guangzhou LIMIT 1"
    )
    assert columns == ("longitude", "latitude", "name")


def test_internal_writes_still_work_after_untrusted_query(tmp_path):
    store = make_tiny_store(tmp_path, [("Alpha Court", 23.0, 113.0)])
    store.execute_sql("SELECT 1")
    store.build_proximity_pairs()  # must not be blocked by a stale authorizer


def test_store_reopen_round_trip(tmp_path, desk_config, desk_fixture_dir):
    path = tmp_path / "store.db"
    store = GeoStore(desk_config, path)
    store.ingest_fixture(desk_fixture_dir)
    store.build_proximity_pairs()
    _, before = store.execute_sql("SELECT COUNT(*) FROM poi_community_guangzhou")
    store.close()

    reopened = GeoStore.open(path)
    assert reopened.config == desk_config
    _, after = reopened.execute_sql("SELECT COUNT(*) FROM poi_community_guangzhou")
    assert after == before
    reopened.close()


def test_open_rejects_non_store_file(tmp_path):
    path = tmp_path / "not_a_store.db"
    path.write_text("nope")
    with pytest.raises(IngestError):
        GeoStore.open(path)


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
