"""Embedded relational store for the four per-city table families.

Backed by SQLite. Mutation is confined to fixture ingestion and proximity-pair
building; every query path is read-only and guarded by a statement check plus
an authorizer, because agent-generated SQL is untrusted.

Fixture format: one UTF-8 CSV per table family per city with a header row,
named ``communities_<city_slug>.csv`` and ``pois_<city_slug>.csv``. The two
pair families are derived, never ingested.
"""

from __future__ import annotations

import csv
import json
import math
import re
import sqlite3
import threading
from bisect import bisect_left, bisect_right
from dataclasses import asdict, dataclass, field
from pathlib import Path
from types import MappingProxyType
from typing import Any, Iterator, Mapping, Sequence

from .domain import EARTH_RADIUS_M, Community, DomainError, GeoPoint, Poi

# Each family's (column, SQLite type) pairs in table order; everything else
# (CREATE TABLE text, INSERT placeholders, fixture headers, which CSV cells
# are floats) derives from this. The entity families follow the Community and
# Poi field order, with the location spelled out as latitude, longitude; a
# column named ``id`` is the primary key.
FAMILY_SCHEMA: dict[str, tuple[tuple[str, str], ...]] = {
    "community": (
        ("id", "TEXT"),
        ("city", "TEXT"),
        ("name", "TEXT"),
        ("district", "TEXT"),
        ("address", "TEXT"),
        ("latitude", "REAL"),
        ("longitude", "REAL"),
        ("greening_rate", "REAL"),
        ("avg_price", "REAL"),
        ("property_type", "TEXT"),
        ("sales_status", "TEXT"),
    ),
    "poi": (
        ("id", "TEXT"),
        ("city", "TEXT"),
        ("name", "TEXT"),
        ("category", "TEXT"),
        ("label", "TEXT"),
        ("latitude", "REAL"),
        ("longitude", "REAL"),
    ),
    "poi_community": (
        ("poi_id", "TEXT"),
        ("poi_name", "TEXT"),
        ("poi_label", "TEXT"),
        ("community_id", "TEXT"),
        ("community_name", "TEXT"),
        ("straight_distance", "REAL"),
    ),
    "community_community": (
        ("subject_id", "TEXT"),
        ("subject_name", "TEXT"),
        ("neighbor_id", "TEXT"),
        ("neighbor_name", "TEXT"),
        ("straight_distance", "REAL"),
    ),
}
FAMILIES = tuple(FAMILY_SCHEMA)
FAMILY_COLUMNS = {
    family: tuple(name for name, _ in schema) for family, schema in FAMILY_SCHEMA.items()
}
_REAL_POSITIONS = {
    family: frozenset(i for i, (_, kind) in enumerate(schema) if kind == "REAL")
    for family, schema in FAMILY_SCHEMA.items()
}
_ENTITY_TYPES = {"community": Community, "poi": Poi}
_FIXTURE_PREFIX = {"community": "communities", "poi": "pois"}

DEFAULT_POI_TAXONOMY: dict[str, tuple[str, ...]] = {
    "school": ("primary school", "secondary school", "kindergarten"),
    "hospital": ("general hospital", "clinic"),
    "supermarket": ("supermarket",),
    "shopping_mall": ("shopping mall",),
    "park": ("park",),
    "transit_station": ("subway station", "bus station"),
}

_SELECT_RE = re.compile(r"^\s*(select|with)\b", re.IGNORECASE)


class IngestError(ValueError):
    """A fixture record violated the schema; the message names the record."""


class SqlExecutionError(RuntimeError):
    """Structured SQL failure; the message carries the engine report."""


@dataclass(frozen=True)
class StoreConfig:
    cities: tuple[str, ...]
    poi_pairing_radius: float = 3000.0
    community_pairing_radius: float = 1000.0
    fixture_seed: int = 0
    poi_taxonomy: dict[str, tuple[str, ...]] = field(
        default_factory=lambda: dict(DEFAULT_POI_TAXONOMY)
    )

    def __post_init__(self) -> None:
        if self.poi_pairing_radius <= 0 or self.community_pairing_radius <= 0:
            raise DomainError("pairing radii must be positive")

    def label_category(self, label: str) -> str | None:
        for category, labels in self.poi_taxonomy.items():
            if label in labels:
                return category
        return None

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(l for labels in self.poi_taxonomy.values() for l in labels)


@dataclass(frozen=True)
class TableCaption:
    table_id: str
    caption: str
    city: str
    family: str
    columns: tuple[str, ...]


@dataclass(frozen=True)
class CityEntities:
    """One city's entities: communities and POIs in id order, the sorted
    distinct districts and POI labels, and the POIs under each case-folded
    label in id order."""

    communities: tuple[Community, ...]
    pois: tuple[Poi, ...]
    districts: tuple[str, ...]
    labels: tuple[str, ...]
    pois_by_label: Mapping[str, tuple[Poi, ...]]


def city_slug(city: str) -> str:
    return re.sub(r"[^a-z0-9]+", "_", city.casefold()).strip("_")


def _caption_text(family: str, city: str) -> str:
    return {
        "community": f"Table for Communities in {city}",
        "poi": f"Table for POIs in {city}",
        "poi_community": f"Table for Communities around POIs in {city}",
        "community_community": f"Table for Communities around Communities in {city}",
    }[family]


def _create_sql(family: str, table: str) -> str:
    columns = ", ".join(
        f"{name} {kind}{' PRIMARY KEY' if name == 'id' else ''}"
        for name, kind in FAMILY_SCHEMA[family]
    )
    return f"CREATE TABLE {table} ({columns})"


def _insert_sql(family: str, table: str) -> str:
    return f"INSERT INTO {table} VALUES ({','.join('?' * len(FAMILY_SCHEMA[family]))})"


def _entity(family: str, row: Sequence[Any]) -> Community | Poi:
    """A Community or Poi from a typed row in table order; latitude and
    longitude (positions 5 and 6 in both families) fold into the location."""
    return _ENTITY_TYPES[family](*row[:5], GeoPoint(row[5], row[6]), *row[7:])


class GeoStore:
    """Four table families per city plus a caption catalog.

    After ingestion the store is read-only for callers; concurrent readers
    share one connection serialized by an internal lock.
    """

    def __init__(
        self, config: StoreConfig, path: str | Path | None = None, _existing: bool = False
    ) -> None:
        self.config = config
        self.path = str(path) if path is not None else ":memory:"
        self._conn = sqlite3.connect(self.path, check_same_thread=False)
        self._lock = threading.RLock()
        self._snapshot: Mapping[str, CityEntities] | None = None
        if not _existing:
            self._create_tables()

    @classmethod
    def open(cls, path: str | Path) -> "GeoStore":
        """Reopen a store file created earlier; the config rides in the file."""
        conn = sqlite3.connect(str(path))
        try:
            row = conn.execute("SELECT value FROM _meta WHERE key = 'config'").fetchone()
        except sqlite3.Error as exc:
            raise IngestError(f"{path} is not a store file: {exc}") from exc
        finally:
            conn.close()
        if row is None:
            raise IngestError(f"{path} carries no store config")
        raw = json.loads(row[0])
        raw["cities"] = tuple(raw["cities"])
        raw["poi_taxonomy"] = {k: tuple(v) for k, v in raw["poi_taxonomy"].items()}
        return cls(StoreConfig(**raw), path, _existing=True)

    def close(self) -> None:
        self._conn.close()

    # --- schema and ingestion ------------------------------------------------

    def _create_tables(self) -> None:
        with self._lock:
            for city in self.config.cities:
                for family in FAMILIES:
                    self._conn.execute(_create_sql(family, self.table_id(family, city)))
            self._conn.execute("CREATE TABLE _meta (key TEXT PRIMARY KEY, value TEXT)")
            self._conn.execute(
                "INSERT INTO _meta VALUES ('config', ?)",
                (json.dumps(asdict(self.config), sort_keys=True),),
            )
            self._conn.commit()

    def table_id(self, family: str, city: str) -> str:
        return f"{family}_{city_slug(city)}"

    def ingest_fixture(self, fixture_dir: str | Path) -> dict[str, int]:
        """Load community and POI CSVs for every configured city.

        Returns per-family row counts. A record violating the domain schema
        aborts ingestion with an :class:`IngestError` naming the record.
        """
        fixture_dir = Path(fixture_dir)
        counts = dict.fromkeys(_FIXTURE_PREFIX, 0)
        try:
            for city in self.config.cities:
                for family, prefix in _FIXTURE_PREFIX.items():
                    path = fixture_dir / f"{prefix}_{city_slug(city)}.csv"
                    counts[family] += self._ingest(path, family, city)
        finally:
            with self._lock:
                self._snapshot = None
        return counts

    def _ingest(self, path: Path, family: str, city: str) -> int:
        if not path.exists():
            raise IngestError(f"missing fixture file: {path}")
        columns = FAMILY_COLUMNS[family]
        reals = _REAL_POSITIONS[family]
        rows = []
        seen_ids: set[str] = set()
        with open(path, encoding="utf-8", newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None or tuple(header) != columns:
                raise IngestError(
                    f"{path.name}: header must be {','.join(columns)}, got {header}"
                )
            for raw in reader:
                if not raw:
                    continue  # a blank line holds no record
                if len(raw) != len(columns):
                    raise IngestError(
                        f"{path.name}: record id={raw[0]}: expected {len(columns)}"
                        f" fields, got {len(raw)}"
                    )
                try:
                    row = tuple(float(v) if i in reals else v for i, v in enumerate(raw))
                    entity = _entity(family, row)
                except (DomainError, ValueError) as exc:
                    raise IngestError(f"{path.name}: record id={raw[0]}: {exc}") from exc
                if entity.city != city:
                    raise IngestError(f"{path.name}: record id={entity.id}: city mismatch")
                if (
                    isinstance(entity, Poi)
                    and self.config.label_category(entity.label) != entity.category
                ):
                    raise IngestError(
                        f"{path.name}: record id={entity.id}: label {entity.label!r} is not"
                        f" a {entity.category!r} label in the configured taxonomy"
                    )
                if entity.id in seen_ids:
                    raise IngestError(f"{path.name}: duplicate id {entity.id}")
                seen_ids.add(entity.id)
                rows.append(row)
        table = self.table_id(family, city)
        with self._lock:
            self._conn.executemany(_insert_sql(family, table), rows)
            self._conn.commit()
        return len(rows)

    # --- proximity pairs -------------------------------------------------------

    def build_proximity_pairs(self) -> dict[str, int]:
        """Populate the two pair families from scratch.

        poi_community holds each (POI, community) pair within the POI pairing
        radius; community_community holds community pairs within the community
        radius, stored in both directions.
        """
        counts = {"poi_community": 0, "community_community": 0}
        snapshot = self.snapshot()
        for city in self.config.cities:
            entities = snapshot[city]
            pc_table = self.table_id("poi_community", city)
            cc_table = self.table_id("community_community", city)
            with self._lock:
                self._conn.execute(f"DELETE FROM {pc_table}")
                self._conn.execute(f"DELETE FROM {cc_table}")
                counts["poi_community"] += self._conn.executemany(
                    _insert_sql("poi_community", pc_table),
                    _poi_community_rows(
                        entities.pois, entities.communities, self.config.poi_pairing_radius
                    ),
                ).rowcount
                counts["community_community"] += self._conn.executemany(
                    _insert_sql("community_community", cc_table),
                    _community_community_rows(
                        entities.communities, self.config.community_pairing_radius
                    ),
                ).rowcount
                self._conn.commit()
        return counts

    # --- queries ----------------------------------------------------------------

    @staticmethod
    def _deny_writes(action: int, *_args: Any) -> int:
        allowed = (
            sqlite3.SQLITE_SELECT,
            sqlite3.SQLITE_READ,
            sqlite3.SQLITE_FUNCTION,
            31,  # SQLITE_SAVEPOINT, emitted for some read plans
        )
        return sqlite3.SQLITE_OK if action in allowed else sqlite3.SQLITE_DENY

    @staticmethod
    def _allow_all(_action: int, *_args: Any) -> int:
        # set_authorizer(None) only clears on Python >= 3.11; this is the
        # portable way to stand down after an untrusted statement
        return sqlite3.SQLITE_OK

    def execute_sql(self, statement: str) -> tuple[tuple[str, ...], list[tuple[Any, ...]]]:
        """Run one read-only statement; returns (column names, rows).

        Non-SELECT statements and engine failures raise
        :class:`SqlExecutionError` with the engine message, which downstream
        agents fold into their error reports.
        """
        if not _SELECT_RE.match(statement or ""):
            raise SqlExecutionError("only SELECT statements are allowed")
        with self._lock:
            self._conn.set_authorizer(self._deny_writes)
            try:
                cursor = self._conn.execute(statement)
                rows = [tuple(r) for r in cursor.fetchall()]
                columns = tuple(d[0] for d in cursor.description or ())
            except (sqlite3.Error, sqlite3.Warning) as exc:
                # Warning covers multi-statement input, which is not an Error
                raise SqlExecutionError(str(exc)) from exc
            finally:
                self._conn.set_authorizer(self._allow_all)
        return columns, rows

    def list_captions(self) -> list[TableCaption]:
        """Caption catalog in deterministic (city, family) order."""
        catalog = []
        for city in sorted(self.config.cities):
            for family in FAMILIES:
                catalog.append(
                    TableCaption(
                        table_id=self.table_id(family, city),
                        caption=_caption_text(family, city),
                        city=city,
                        family=family,
                        columns=FAMILY_COLUMNS[family],
                    )
                )
        return catalog

    # --- entity snapshot (generator and provider plumbing) ------------------------

    def snapshot(self) -> Mapping[str, CityEntities]:
        """Each city's entities, read on first use; ingestion discards them."""
        with self._lock:
            if self._snapshot is None:
                self._snapshot = self._read_snapshot()
            return self._snapshot

    def _read_snapshot(self) -> Mapping[str, CityEntities]:
        cities: dict[str, CityEntities] = {}
        for city in sorted(self.config.cities):
            _, rows = self.execute_sql(
                f"SELECT * FROM {self.table_id('community', city)} ORDER BY id"
            )
            communities = tuple(_entity("community", r) for r in rows)
            _, rows = self.execute_sql(
                f"SELECT * FROM {self.table_id('poi', city)} ORDER BY id"
            )
            pois = tuple(_entity("poi", r) for r in rows)
            by_label: dict[str, list[Poi]] = {}
            for poi in pois:
                by_label.setdefault(poi.label.casefold(), []).append(poi)
            # Python's code-point order is SQLite's BINARY order over UTF-8
            cities[city] = CityEntities(
                communities=communities,
                pois=pois,
                districts=tuple(sorted({c.district for c in communities})),
                labels=tuple(sorted({p.label for p in pois})),
                pois_by_label=MappingProxyType({k: tuple(v) for k, v in by_label.items()}),
            )
        return MappingProxyType(cities)

    def communities(self, city: str) -> list[Community]:
        return list(self.snapshot()[city].communities)

    def pois(self, city: str) -> list[Poi]:
        return list(self.snapshot()[city].pois)

    def all_pois(self) -> list[Poi]:
        cities = self.snapshot()
        return [poi for city in sorted(cities) for poi in cities[city].pois]

    def districts(self, city: str) -> list[str]:
        return list(self.snapshot()[city].districts)


# --- pair kernel ----------------------------------------------------------------------

# R·|Δlat| never exceeds the great-circle distance, so an entity whose latitude
# lies outside radius/R (padded against rounding) is beyond the radius.
_WINDOW_PAD = 1.0 + 1e-9


def _radians(entity: Community | Poi) -> tuple[float, float, float]:
    """(latitude, longitude, cos latitude) in radians, as ``haversine`` computes them."""
    lat = math.radians(entity.location.latitude)
    return lat, math.radians(entity.location.longitude), math.cos(lat)


def _pairs_within(
    subjects: Sequence[Community | Poi],
    neighbors: Sequence[Community | Poi],
    radius: float,
    later_only: bool,
) -> Iterator[tuple[Any, Any, float]]:
    """Yield (subject, neighbor, distance) for every pair within ``radius``,
    subject-major then neighbor order, exactly as a nested loop over
    ``domain.haversine`` would. With ``later_only`` (subjects and neighbors
    are one sequence) only pairs (i, j) with i < j are yielded.

    The haversine is inlined with its expression order kept, so distances are
    bit-identical; it only runs on neighbors in the subject's latitude window.
    """
    coords = [_radians(n) for n in neighbors]
    order = sorted(range(len(coords)), key=lambda j: coords[j][0])
    lats = [coords[j][0] for j in order]
    half_width = radius / EARTH_RADIUS_M * _WINDOW_PAD
    sin, asin, sqrt = math.sin, math.asin, math.sqrt
    for i, subject in enumerate(subjects):
        lat1, lon1, cos1 = _radians(subject)
        window = sorted(
            order[bisect_left(lats, lat1 - half_width) : bisect_right(lats, lat1 + half_width)]
        )
        for j in window[bisect_right(window, i) :] if later_only else window:
            lat2, lon2, cos2 = coords[j]
            h = sin((lat2 - lat1) / 2.0) ** 2 + cos1 * cos2 * sin((lon2 - lon1) / 2.0) ** 2
            root = sqrt(h)  # clamped as min(1.0, root), without the call
            d = 2.0 * EARTH_RADIUS_M * asin(root if root < 1.0 else 1.0)
            if d <= radius:
                yield subject, neighbors[j], d


def _poi_community_rows(
    pois: Sequence[Poi], communities: Sequence[Community], radius: float
) -> Iterator[tuple[Any, ...]]:
    for poi, com, d in _pairs_within(pois, communities, radius, later_only=False):
        yield (poi.id, poi.name, poi.label, com.id, com.name, round(d, 1))


def _community_community_rows(
    communities: Sequence[Community], radius: float
) -> Iterator[tuple[Any, ...]]:
    """Each pair within ``radius`` in both directions, (a, b) then (b, a)."""
    for a, b, d in _pairs_within(communities, communities, radius, later_only=True):
        rd = round(d, 1)
        yield (a.id, a.name, b.id, b.name, rd)
        yield (b.id, b.name, a.id, a.name, rd)


# Column-name conventions for pulling (entity name, coordinates) out of SQL
# results; detection is by name, never by type sniffing.
NAME_COLUMNS = ("name", "community_name", "poi_name", "subject_name", "neighbor_name")
LATITUDE_COLUMNS = ("latitude", "lat")
LONGITUDE_COLUMNS = ("longitude", "lon", "lng")


def extract_coordinates(
    columns: Sequence[str], rows: Sequence[Sequence[Any]]
) -> dict[str, GeoPoint]:
    """Map entity names to coordinates for rows carrying name/lat/lon columns."""
    lowered = [c.casefold() for c in columns]
    name_idx = next((lowered.index(c) for c in NAME_COLUMNS if c in lowered), None)
    lat_idx = next((lowered.index(c) for c in LATITUDE_COLUMNS if c in lowered), None)
    lon_idx = next((lowered.index(c) for c in LONGITUDE_COLUMNS if c in lowered), None)
    if name_idx is None or lat_idx is None or lon_idx is None:
        return {}
    out: dict[str, GeoPoint] = {}
    for row in rows:
        name, lat, lon = row[name_idx], row[lat_idx], row[lon_idx]
        if name is None or lat is None or lon is None:
            continue
        try:
            out[str(name)] = GeoPoint(float(lat), float(lon))
        except (DomainError, ValueError):
            continue
    return out
