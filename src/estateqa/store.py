"""Embedded relational store for the four per-city table families.

Backed by SQLite. The two entity families are tables, written only by fixture
ingestion. The two proximity-pair families are views over them, created with
the tables from the configured radii and computed in SQL on each read.
Agent-generated SQL is untrusted: it runs behind a statement check on a
read-only connection of the calling thread, whose authorizer denies writes.

Fixture format: one UTF-8 CSV per entity family per city with a header row,
named ``communities_<city_slug>.csv`` and ``pois_<city_slug>.csv``.
"""

from __future__ import annotations

import csv
import json
import math
import re
import sqlite3
import threading
from bisect import bisect_left, bisect_right
from contextlib import closing
from dataclasses import dataclass, fields
from itertools import chain, groupby
from operator import itemgetter
from pathlib import Path
from types import MappingProxyType
from typing import Any, Mapping, Sequence

from .domain import EARTH_RADIUS_M, Cell, Community, DomainError, GeoPoint, Poi, decode, encode

# Each entity family's (column, SQLite type) pairs in table order; everything
# else (CREATE TABLE text, INSERT placeholders, fixture headers, which CSV
# cells are floats) derives from this. The columns follow the Community and
# Poi field order, with the location spelled out as latitude, longitude; a
# column named ``id`` is the primary key.
ENTITY_SCHEMA: dict[str, tuple[tuple[str, str], ...]] = {
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
}
# Columns every entity table carries after its ENTITY_SCHEMA ones, computed at
# ingest: radians(latitude), radians(longitude), cos(radians(latitude)), the
# per-entity terms of the pair views' haversine. On the entity table, the
# latitude index can carry them, so a view reads them with no per-row join.
DERIVED_COLUMNS = (("latitude_rad", "REAL"), ("longitude_rad", "REAL"), ("cos_latitude", "REAL"))
FAMILY_COLUMNS = {
    **{family: tuple(name for name, _ in schema) for family, schema in ENTITY_SCHEMA.items()},
    "poi_community": (
        "poi_id", "poi_name", "poi_label", "community_id", "community_name", "straight_distance"
    ),
    "community_community": (
        "subject_id", "subject_name", "neighbor_id", "neighbor_name", "straight_distance"
    ),
}
FAMILIES = tuple(FAMILY_COLUMNS)
_REAL_POSITIONS = {
    family: frozenset(i for i, (_, kind) in enumerate(schema) if kind == "REAL")
    for family, schema in ENTITY_SCHEMA.items()
}
# The indexes on every entity table, as index name -> columns. The gold SQL
# looks entities up by name. The pair views search neighbours by latitude, and
# the latitude index also carries every other column their ON and WHERE read
# (id for n.id <> s.id, and the derived columns), so a view is filtered on
# index entries alone and the table is read only for the rows it keeps.
INDEXED_COLUMNS: dict[str, tuple[str, ...]] = {
    "name": ("name",),
    "latitude": ("latitude", "longitude", "id", *(name for name, _ in DERIVED_COLUMNS)),
}

# Each pair view as (subject family, neighbour family, StoreConfig radius
# field, subject and neighbour columns of its select list, extra condition),
# over the subject table ``s`` and the neighbour table ``n``.
_PAIR_VIEWS = {
    "poi_community": (
        "poi", "community", "poi_pairing_radius", "s.id, s.name, s.label, n.id, n.name", ""
    ),
    "community_community": (
        "community", "community", "community_pairing_radius", "s.id, s.name, n.id, n.name",
        " AND n.id <> s.id",
    ),
}
# domain.haversine from s to n over the derived columns, its inner term h and
# the distance 2R·asin(min(1, sqrt(h))), with its expression order kept, so
# both are bit-identical to it.
_INNER_TERM_SQL = (
    "pow(sin((n.latitude_rad - s.latitude_rad) / 2.0), 2)"
    " + s.cos_latitude * n.cos_latitude * pow(sin((n.longitude_rad - s.longitude_rad) / 2.0), 2)"
)
_DISTANCE_SQL = f"2.0 * {EARTH_RADIUS_M!r} * asin(min(1.0, sqrt({_INNER_TERM_SQL})))"


def _inner_term(
    s_lat: float, s_lon: float, s_cos: float, n_lat: float, n_lon: float, n_cos: float
) -> float:
    """_INNER_TERM_SQL in Python, over the derived columns of s and n. The two
    must keep the same expression order, so that both give the same double
    (SQLite's pow(x, 2) and Python's ``x ** 2`` both call C's pow)."""
    sin = math.sin
    return sin((n_lat - s_lat) / 2.0) ** 2 + s_cos * n_cos * sin((n_lon - s_lon) / 2.0) ** 2


_ENTITY_TYPES = {"community": Community, "poi": Poi}
_FIXTURE_PREFIX = {"community": "communities", "poi": "pois"}

# The two-level POI taxonomy, category -> labels: every POI's label is one of
# POI_LABELS, under its LABEL_CATEGORY.
POI_TAXONOMY: dict[str, tuple[str, ...]] = {
    "school": ("primary school", "secondary school", "kindergarten"),
    "hospital": ("general hospital", "clinic"),
    "supermarket": ("supermarket",),
    "shopping_mall": ("shopping mall",),
    "park": ("park",),
    "transit_station": ("subway station", "bus station"),
}
POI_LABELS = tuple(label for labels in POI_TAXONOMY.values() for label in labels)
LABEL_CATEGORY = {label: category for category, labels in POI_TAXONOMY.items() for label in labels}

_SELECT_RE = re.compile(r"^\s*(select|with)\b", re.IGNORECASE)

# Limits on one execute_sql statement. On the scale-M store the costliest gold
# statement takes about 15k VM operations and returns 140 rows. A filter on one
# POI label over a poi_community view takes 8.4M-8.9M operations and returns up
# to 88k rows, and a COUNT(*) of a community_community view 16.6M-17.1M. A
# statement that computes a whole poi_community view, such as a COUNT(*) (about
# 34M) or a GROUP BY poi_label (42M), stops at the budget, and so does a
# straight_distance filter over community_community (22M), which computes the
# distance of every pair.
SQL_OP_BUDGET = 20_000_000
SQL_ROW_CAP = 100_000
_PROGRESS_STEP = 10_000  # VM operations between progress-handler calls
_BUDGET_TICKS = SQL_OP_BUDGET // _PROGRESS_STEP


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

    def __post_init__(self) -> None:
        if self.poi_pairing_radius <= 0 or self.community_pairing_radius <= 0:
            raise DomainError("pairing radii must be positive")
        named: dict[str, str] = {}  # each city's tables are named by its slug
        for city in self.cities:
            if not (slug := city_slug(city)):
                raise DomainError(f"city {city!r} has no ASCII letter or digit to name its tables")
            if slug in named:
                raise DomainError(
                    f"cities {named[slug]!r} and {city!r} share the table name slug {slug!r}"
                )
            named[slug] = city


@dataclass(frozen=True)
class TableCaption:
    table_id: str
    caption: str
    columns: tuple[str, ...]


@dataclass(frozen=True)
class CityEntities:
    """What the generator and the tool provider read of one city's entities:
    community and POI names in id order, the sorted distinct districts and POI
    labels, and under each case-folded label its POIs' (name, label, location)
    in id order. It holds no entity record."""

    community_names: tuple[str, ...]
    poi_names: tuple[str, ...]
    districts: tuple[str, ...]
    labels: tuple[str, ...]
    pois_by_label: Mapping[str, tuple[tuple[str, str, GeoPoint], ...]]


def city_slug(city: str) -> str:
    return re.sub(r"[^a-z0-9]+", "_", city.casefold()).strip("_")


def table_id(family: str, city: str) -> str:
    return f"{family}_{city_slug(city)}"


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
        for name, kind in ENTITY_SCHEMA[family] + DERIVED_COLUMNS
    )
    return f"CREATE TABLE {table} ({columns})"


def _insert_sql(family: str, table: str) -> str:
    width = len(ENTITY_SCHEMA[family]) + len(DERIVED_COLUMNS)
    return f"INSERT INTO {table} VALUES ({','.join('?' * width)})"


def _inner_term_bound(radius: float) -> float:
    """H*, the largest double h with 2R·asin(min(1, sqrt(h))) <= radius, by
    bisection until the bounds are adjacent doubles. The distance never falls
    as h grows, so h <= H* keeps exactly the pairs within the radius."""
    low, high = 0.0, 2.0  # the inner term never exceeds 1 by more than rounding
    while (middle := (low + high) / 2) not in (low, high):
        if 2.0 * EARTH_RADIUS_M * math.asin(min(1.0, math.sqrt(middle))) <= radius:
            low = middle
        else:
            high = middle
    return low


def _window_half_width(radius: float) -> float:
    """The half-width in degrees of the latitude window of a pair view of
    this radius: the double that SQLite computes from the ``half_width`` text
    of _create_view_sql, which must stay in step with it."""
    return math.degrees(radius / EARTH_RADIUS_M) * (1 + 1e-9)


def _create_view_sql(config: StoreConfig, family: str, city: str) -> str:
    """Every (subject, neighbour) pair within the radius, filtered on the
    haversine's inner term and rounded to 0.1 m only in the select list.
    R·|Δlat| never exceeds the great-circle distance, so neighbours outside
    the latitude window (padded against rounding) are beyond the radius, at
    any radius above a few centimetres."""
    subject, neighbor, radius_field, columns, condition = _PAIR_VIEWS[family]
    radius = getattr(config, radius_field)
    half_width = f"degrees({radius!r} / {EARTH_RADIUS_M!r}) * (1 + 1e-9)"
    return (
        f"CREATE VIEW {table_id(family, city)} ({', '.join(FAMILY_COLUMNS[family])})"
        f" AS SELECT {columns}, round({_DISTANCE_SQL}, 1)"
        f" FROM {table_id(subject, city)} s JOIN {table_id(neighbor, city)} n"
        f" ON n.latitude BETWEEN s.latitude - {half_width} AND s.latitude + {half_width}"
        f" WHERE {_INNER_TERM_SQL} <= {_inner_term_bound(radius)!r}{condition}"
    )


def _connect_read_only(path: Path) -> sqlite3.Connection:
    """A connection that cannot write the store file (``mode=ro``), opened by
    a file URI, which escapes a space, '#', '?' or '%' in the path. Any thread
    may close it, so :meth:`GeoStore.close` closes every thread's reader."""
    return sqlite3.connect(f"{path.resolve().as_uri()}?mode=ro", uri=True, check_same_thread=False)


def haversine_terms(latitude: float, longitude: float) -> tuple[float, float, float]:
    """The DERIVED_COLUMNS of one entity, the per-point terms of
    domain.haversine, computed as it computes them: radians(latitude),
    radians(longitude) and cos(radians(latitude))."""
    latitude_rad = math.radians(latitude)
    return latitude_rad, math.radians(longitude), math.cos(latitude_rad)


# A point of the pair count: an entity's latitude and its DERIVED_COLUMNS.
_Point = tuple[float, float, float, float]
# The pair count's margins, both far above float rounding (about 1e-16): a
# relative one on H*, and an absolute one in radians on a longitude run.
_SWEEP_MARGIN = 1e-9
_LONGITUDE_SLACK = 1e-12
_STRIPS_PER_HALF_WINDOW = 4  # a strip is this fraction of the window's half-width high


@dataclass(frozen=True)
class _Strip:
    """Neighbours of one band of latitude: their least and greatest latitude
    in degrees and in radians, the least and greatest cosine, and their
    points, with the longitudes of these, sorted by longitude."""

    bottom: float
    top: float
    lat_min: float
    lat_max: float
    cos_min: float
    cos_max: float
    points: list[_Point]
    longitudes: list[float]


def _strips(neighbours: Sequence[_Point], height: float) -> list[_Strip]:
    """The neighbours cut into strips ``height`` degrees of latitude high,
    in latitude order."""
    ordered = sorted(neighbours)
    strips = []
    for _, band in groupby(ordered, key=lambda n: (n[0] - ordered[0][0]) // height):
        points = list(band)  # in latitude order
        cosines = [point[3] for point in points]
        strips.append(_Strip(
            bottom=points[0][0], top=points[-1][0], lat_min=points[0][1], lat_max=points[-1][1],
            cos_min=min(cosines), cos_max=max(cosines),
            points=sorted(points, key=itemgetter(2)),
            longitudes=sorted(point[2] for point in points),
        ))
    return strips


def _count_within(subjects: Sequence[_Point], neighbours: Sequence[_Point], radius: float) -> int:
    """The (subject, neighbour) pairs that a pair view of this radius keeps,
    counting each subject's pair with itself; see
    GeoStore.build_proximity_pairs."""
    bound = _inner_term_bound(radius)
    window = _window_half_width(radius)
    # one strip where a radius below 1e-300 m makes the window 0
    strips = _strips(neighbours, window / _STRIPS_PER_HALF_WINDOW or math.inf)
    tops, bottoms = [strip.top for strip in strips], [strip.bottom for strip in strips]
    sin, asin, sqrt, pi = math.sin, math.asin, math.sqrt, math.pi
    count = 0
    for latitude, s_lat, s_lon, s_cos in subjects:
        low, high = latitude - window, latitude + window  # the view's BETWEEN bounds
        for strip in strips[bisect_left(tops, low) : bisect_right(bottoms, high)]:
            within_window = low <= strip.bottom and strip.top <= high
            gaps = (abs(strip.lat_min - s_lat), abs(strip.lat_max - s_lat))
            nearest = 0.0 if strip.lat_min <= s_lat <= strip.lat_max else min(gaps)
            # sin²(Δlon/2) beyond which every neighbour has h > H*·(1 + margin)
            # (cosines are positive, as |latitude| <= 90°)
            beyond = (bound * (1 + _SWEEP_MARGIN) - sin(nearest / 2) ** 2) / (s_cos * strip.cos_min)
            if beyond < 0:
                continue  # the whole strip is beyond the radius
            reach = 2 * asin(sqrt(min(beyond, 1.0))) + _LONGITUDE_SLACK
            lons, points = strip.longitudes, strip.points
            # (first, start, end, last): the neighbours in [first, last) may be
            # within the radius, and those in [start, end) surely are
            # no longitude is surely beyond it, or the windows below would overlap
            if reach + _LONGITUDE_SLACK >= pi:
                runs = [(0, 0, 0, len(lons))]
            else:
                # sin²(Δlon/2) within which every neighbour has h <= H*·(1 - margin)
                within = (bound * (1 - _SWEEP_MARGIN) - sin(max(gaps) / 2) ** 2) / (
                    s_cos * strip.cos_max
                )
                sure = 2 * asin(sqrt(min(within, 1.0))) - _LONGITUDE_SLACK if within >= 0 else -1.0
                runs = []
                # the view's raw longitude difference pairs points across ±180°
                for center in (s_lon, s_lon - 2 * pi, s_lon + 2 * pi):
                    if center - reach > lons[-1] or center + reach < lons[0]:
                        continue
                    first = bisect_left(lons, center - reach)
                    last = bisect_right(lons, center + reach)
                    if sure < 0 or not within_window:
                        runs.append((first, first, first, last))
                    else:
                        start = bisect_left(lons, center - sure)
                        end = bisect_right(lons, center + sure)
                        count += end - start
                        runs.append((first, start, end, last))
            for first, start, end, last in runs:
                for n_latitude, n_lat, n_lon, n_cos in chain(points[first:start], points[end:last]):
                    if _inner_term(s_lat, s_lon, s_cos, n_lat, n_lon, n_cos) <= bound and (
                        within_window or low <= n_latitude <= high
                    ):
                        count += 1
    return count


def _entity(family: str, row: Sequence[Any]) -> Community | Poi:
    """A Community or Poi from a typed row in table order; latitude and
    longitude (positions 5 and 6 in both families) fold into the location."""
    return _ENTITY_TYPES[family](*row[:5], GeoPoint(row[5], row[6]), *row[7:])


def _ingest(conn: sqlite3.Connection, path: Path, family: str, city: str) -> int:
    """Check one fixture CSV and insert its rows, with their derived columns."""
    if not path.exists():
        raise IngestError(f"missing fixture file: {path}")
    columns = FAMILY_COLUMNS[family]
    reals = _REAL_POSITIONS[family]
    rows = []
    seen_ids: set[str] = set()
    try:
        with open(path, encoding="utf-8", newline="") as fh:
            records = list(csv.reader(fh))
    except (UnicodeDecodeError, csv.Error) as exc:
        raise IngestError(f"{path.name}: not a UTF-8 CSV file: {exc}") from exc
    header = records.pop(0) if records else None
    if header is None or tuple(header) != columns:
        raise IngestError(f"{path.name}: header must be {','.join(columns)}, got {header}")
    for raw in records:
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
        if isinstance(entity, Poi) and LABEL_CATEGORY.get(entity.label) != entity.category:
            raise IngestError(
                f"{path.name}: record id={entity.id}: label {entity.label!r} is not"
                f" a {entity.category!r} label in the POI taxonomy"
            )
        if entity.id in seen_ids:
            raise IngestError(f"{path.name}: duplicate id {entity.id}")
        seen_ids.add(entity.id)
        rows.append(row + haversine_terms(entity.location.latitude, entity.location.longitude))
    conn.executemany(_insert_sql(family, table_id(family, city)), rows)
    return len(rows)


class GeoStore:
    """Four table families per city plus a caption catalog, read from a
    store file.

    :meth:`ingest_fixture` writes the file, once, and :meth:`open` is the one
    way to get a store. A store only reads: every read goes through the
    calling thread's own read-only connection, so readers on different
    threads run at once and never wait for each other. A lock guards the
    list of readers opened and the first load of the cached entity snapshot.
    """

    table_id = staticmethod(table_id)

    def __init__(self, config: StoreConfig, path: str | Path) -> None:
        self.config = config
        self.path = Path(path).resolve()
        self._readers = threading.local()
        self._opened: list[sqlite3.Connection] = []  # every thread's reader
        self._lock = threading.RLock()  # the snapshot's first load opens a reader
        self._snapshot: Mapping[str, CityEntities] | None = None

    @classmethod
    def ingest_fixture(
        cls, config: StoreConfig, path: str | Path, fixture_dir: str | Path
    ) -> dict[str, int]:
        """Write a new store file at ``path``: the tables, indexes, pair views
        and embedded config, and the community and POI CSVs of every
        configured city, all in one transaction on a connection of its own.

        Returns per-family row counts. A record violating the domain schema
        aborts ingestion with an :class:`IngestError` naming the record, and
        nothing is committed.
        """
        counts = dict.fromkeys(_FIXTURE_PREFIX, 0)
        # no implicit transactions: the one BEGIN below spans the DDL as well
        with closing(sqlite3.connect(path, isolation_level=None)) as conn:
            conn.execute("BEGIN")
            for city in config.cities:
                for family in ENTITY_SCHEMA:
                    table = table_id(family, city)
                    conn.execute(_create_sql(family, table))
                    for index, columns in INDEXED_COLUMNS.items():
                        conn.execute(
                            f"CREATE INDEX idx_{table}_{index} ON {table} ({', '.join(columns)})"
                        )
                for family in _PAIR_VIEWS:
                    conn.execute(_create_view_sql(config, family, city))
            conn.execute("CREATE TABLE _meta (key TEXT PRIMARY KEY, value TEXT)")
            conn.execute(
                "INSERT INTO _meta VALUES ('config', ?)",
                (json.dumps(config, default=encode, sort_keys=True),),
            )
            for city in config.cities:
                for family, prefix in _FIXTURE_PREFIX.items():
                    csv_path = Path(fixture_dir) / f"{prefix}_{city_slug(city)}.csv"
                    counts[family] += _ingest(conn, csv_path, family, city)
            conn.execute("COMMIT")
        return counts

    @classmethod
    def open(cls, path: str | Path) -> "GeoStore":
        """Open a store file that :meth:`ingest_fixture` wrote; the config
        rides in the file."""
        try:
            with closing(_connect_read_only(Path(path))) as conn:
                row = conn.execute("SELECT value FROM _meta WHERE key = 'config'").fetchone()
        except sqlite3.Error as exc:
            raise IngestError(f"{path} is not a store file: {exc}") from exc
        if row is None:
            raise IngestError(f"{path} carries no store config")
        try:
            raw = json.loads(row[0])
            # missing or unknown keys: the config of an earlier StoreConfig
            odd = raw.keys() ^ {f.name for f in fields(StoreConfig)} if type(raw) is dict else ()
            if not odd:
                return cls(decode(StoreConfig, raw), path)
        except (ValueError, TypeError) as exc:
            raise IngestError(f"{path} carries a corrupt store config: {exc!r}") from exc
        raise IngestError(
            f"{path} was written by an earlier estateqa version (store config keys"
            f" {', '.join(sorted(odd))}); run `estateqa ingest` again to rebuild it"
        )

    def close(self) -> None:
        """Close every reader the store opened, on any thread. Call it once
        no thread reads the store any more, as after a run's worker pool."""
        with self._lock:
            for reader in self._opened:
                reader.close()

    def _reader(self) -> sqlite3.Connection:
        """This thread's read-only connection, opened on first use with the
        write-denying authorizer installed."""
        reader = getattr(self._readers, "conn", None)
        if reader is None:
            reader = self._readers.conn = _connect_read_only(self.path)
            reader.set_authorizer(self._deny_writes)
            with self._lock:
                self._opened.append(reader)
        return reader

    # --- proximity pairs -------------------------------------------------------

    def build_proximity_pairs(self) -> dict[str, int]:
        """Count the rows of the two pair families, summed over the cities.

        poi_community holds each (POI, community) pair within the POI pairing
        radius; community_community holds community pairs within the community
        radius, in both directions. Both are views that the store computes on
        each read, so nothing is built. The count reads each city's entity
        coordinates once, on this thread's reader, and counts exactly the
        rows each view keeps, without computing every pair:

        - A view keeps a pair when its inner term h (``_inner_term``) is at
          most H* and the neighbour lies in the subject's latitude window. h
          is at least sin²(Δlat/2), so a pair with h <= H* has
          R·|Δlat| <= radius, and the window, degrees(radius / R) padded by
          1e-9 of itself, excludes none of them at radii above a few
          centimetres. Below that, the rounding of a latitude outgrows the
          pad, so the count applies the window too, with the bounds SQLite
          computes, and is exact at any radius.
        - The neighbours are cut into latitude strips a quarter of the
          window's half-width high, each sorted by longitude. For a subject
          and a strip, the strip's nearest and farthest latitude and its
          cosine bounds give the longitude differences within which every
          neighbour has h <= H*·(1 - 1e-9), and beyond which every one has
          h > H*·(1 + 1e-9). Bisection counts the first run whole, when the
          window holds the whole strip, and skips the second; each run is
          narrowed by 1e-12 rad. Both margins dwarf the rounding of h and
          of the run's ends, so neither run holds a pair the view decides
          otherwise.
        - Only the neighbours between the two runs get their inner term
          computed, by ``_inner_term``, bit-identical to the view's.
        - The longitude difference is the view's raw one, so a subject
          pairs across ±180° as the view does. Where the run beyond the
          radius would start past π (next to a pole, or at a radius near
          half the globe), every neighbour of the strip is computed.
        - community_community excludes each community's pair with itself,
          which the count includes once per community (h = 0, and ids are
          the primary key).
        """
        counts = dict.fromkeys(_PAIR_VIEWS, 0)
        for city in self.config.cities:
            points = {family: self._points(family, city) for family in ENTITY_SCHEMA}
            for family, (subject, neighbor, radius_field, *_) in _PAIR_VIEWS.items():
                radius = getattr(self.config, radius_field)
                counts[family] += _count_within(points[subject], points[neighbor], radius)
                if subject == neighbor:  # the view's n.id <> s.id
                    counts[family] -= len(points[subject])
        return counts

    def _points(self, family: str, city: str) -> list[_Point]:
        """Each entity's latitude and the derived columns ingest stored."""
        return self._columns(family, city, ("latitude", *(name for name, _ in DERIVED_COLUMNS)))

    def _columns(self, family: str, city: str, columns: Sequence[str]) -> list[tuple[Any, ...]]:
        """These columns of one city's entity table, one row per entity in id
        order, read on this thread's reader but outside execute_sql: the agent
        path's limits bound untrusted SQL, not the store's own entities."""
        return self._reader().execute(
            f"SELECT {', '.join(columns)} FROM {self.table_id(family, city)} ORDER BY id"
        ).fetchall()

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

    def execute_sql(self, statement: str) -> tuple[tuple[str, ...], list[tuple[Cell, ...]]]:
        """Run one read-only statement on this thread's reader; returns
        (column names, rows).

        Non-SELECT statements, engine failures, statements past
        ``SQL_OP_BUDGET`` or ``SQL_ROW_CAP``, and results holding a BLOB
        (which no JSON record can carry) raise :class:`SqlExecutionError` with
        the engine message, the limit or the column, which downstream agents
        fold into their error reports.
        """
        if not _SELECT_RE.match(statement or ""):
            raise SqlExecutionError("only SELECT statements are allowed")
        ticks = 0

        def over_budget() -> bool:
            nonlocal ticks
            ticks += 1
            return ticks > _BUDGET_TICKS

        reader = self._reader()
        reader.set_progress_handler(over_budget, _PROGRESS_STEP)
        # closed after each statement, so no reader holds a read lock past it
        cursor = reader.cursor()
        try:
            cursor.execute(statement)
            rows = cursor.fetchmany(SQL_ROW_CAP + 1)
            columns = tuple(d[0] for d in cursor.description or ())
        except (sqlite3.Error, sqlite3.Warning, UnicodeEncodeError) as exc:
            # Warning covers multi-statement input, which is not an Error;
            # a lone surrogate (a JSON "\ud800" escape) cannot be encoded
            if ticks > _BUDGET_TICKS:
                raise SqlExecutionError(
                    f"statement exceeded the budget of {SQL_OP_BUDGET:,} VM operations"
                ) from exc
            raise SqlExecutionError(str(exc)) from exc
        finally:
            cursor.close()
            reader.set_progress_handler(None, 0)
        if len(rows) > SQL_ROW_CAP:
            raise SqlExecutionError(f"statement returned more than the cap of {SQL_ROW_CAP:,} rows")
        if bytes in map(type, chain.from_iterable(rows)):
            blob = next(c for i, c in enumerate(columns) if any(type(r[i]) is bytes for r in rows))
            raise SqlExecutionError(f"column {blob} holds a BLOB, which is not a result value")
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
                        columns=FAMILY_COLUMNS[family],
                    )
                )
        return catalog

    # --- entity snapshot (generator and provider plumbing) ------------------------

    def snapshot(self) -> Mapping[str, CityEntities]:
        """Each city's entity names, districts, labels and POI points, read
        from those columns once per store, on first use."""
        with self._lock:
            if self._snapshot is None:
                self._snapshot = self._read_snapshot()
            return self._snapshot

    def _read_snapshot(self) -> Mapping[str, CityEntities]:
        """Read under the lock, through :meth:`_columns`: two columns of each
        community and four of each POI, so no entity record is built."""
        cities: dict[str, CityEntities] = {}
        for city in sorted(self.config.cities):
            communities = self._columns("community", city, ("name", "district"))
            pois = self._columns("poi", city, ("name", "label", "latitude", "longitude"))
            by_label: dict[str, list[tuple[str, str, GeoPoint]]] = {}
            for name, label, lat, lon in pois:
                by_label.setdefault(label.casefold(), []).append((name, label, GeoPoint(lat, lon)))
            # Python's code-point order is SQLite's BINARY order over UTF-8
            cities[city] = CityEntities(
                community_names=tuple(row[0] for row in communities),
                poi_names=tuple(row[0] for row in pois),
                districts=tuple(sorted({row[1] for row in communities})),
                labels=tuple(sorted({row[1] for row in pois})),
                pois_by_label=MappingProxyType({k: tuple(v) for k, v in by_label.items()}),
            )
        return MappingProxyType(cities)

    def communities(self, city: str) -> list[Community]:
        """Each community's record, read from its table on each call; no command calls this."""
        rows = self._columns("community", city, FAMILY_COLUMNS["community"])
        return [_entity("community", row) for row in rows]

    def pois(self, city: str) -> list[Poi]:
        """Each POI's record, read from its table on each call; no command calls this."""
        return [_entity("poi", row) for row in self._columns("poi", city, FAMILY_COLUMNS["poi"])]

    def all_pois(self) -> list[Poi]:
        """Every city's POI records, read on each call; no command calls this."""
        return [poi for city in sorted(self.config.cities) for poi in self.pois(city)]

    def districts(self, city: str) -> list[str]:
        return list(self.snapshot()[city].districts)


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
