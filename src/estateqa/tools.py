"""Record/replay cache for the four geospatial tool functions.

Every call is keyed by a canonical (function, params, time bucket) request.
Without a provider, tool execution is a pure function of the request; with
one, the provider resolves each unique request exactly once and the cache
records the result.

The bundled synthetic provider replaces a live map vendor. Its constants are
arbitrary but fixed; what matters downstream is determinism and ordinal
realism (peak travel strictly slower than off-peak for the same pair).

Results come back in SQL-style tabular form: a named column schema per
function, serialized as rows, so agents consume database-like payloads
uniformly. Durations are whole seconds, distances whole meters.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Mapping, Protocol

from .domain import TOOL_FUNCTIONS, Cell, GeoPoint, decode, encode, haversine, read_json_lines
from .store import POI_LABELS, GeoStore

BUCKET_MIDNIGHT = "midnight_00"
BUCKET_OFFPEAK = "offpeak_15"
BUCKET_PEAK = "peak_08"
BUCKETS = (BUCKET_MIDNIGHT, BUCKET_OFFPEAK, BUCKET_PEAK)

COORD_PRECISION = 6

# Nominal collection instants for provenance (fixed reference weekday).
_BUCKET_STAMPS = {
    BUCKET_MIDNIGHT: "2025-01-06T00:00+08:00",
    BUCKET_OFFPEAK: "2025-01-06T15:00+08:00",
    BUCKET_PEAK: "2025-01-06T08:00+08:00",
}

RESULT_SCHEMAS = {name: function.columns for name, function in TOOL_FUNCTIONS.items()}


class ToolError(ValueError):
    code = "tool_error"


class InvalidParams(ToolError):
    code = "invalid_params"


class CacheMiss(ToolError):
    code = "cache_miss_no_provider"


@dataclass(frozen=True)
class ToolResult:
    columns: tuple[str, ...]
    rows: tuple[tuple[Cell, ...], ...]


def _norm_coord(value: Any, name: str) -> float:
    try:
        return round(float(value), COORD_PRECISION)
    except (TypeError, ValueError):
        raise InvalidParams(f"{name} must be numeric, got {value!r}") from None


def coordinate_key(latitude: Any, longitude: Any) -> tuple[float, float]:
    """A point as tool params hold it, so SQL rows and tool steps match on it."""
    return _norm_coord(latitude, "latitude"), _norm_coord(longitude, "longitude")


def normalize_params(function: str, params: dict[str, Any]) -> dict[str, Any]:
    """Validate and canonicalize params by the function's entry in
    ``domain.TOOL_FUNCTIONS``: coordinates rounded to 6 decimals, the
    enumerated param case-folded and checked against its values (a label only
    for presence: the provider knows the labels). Raises InvalidParams on
    schema violations."""
    schema = TOOL_FUNCTIONS.get(function)
    if schema is None:
        raise InvalidParams(f"unknown tool function: {function}")
    out: dict[str, Any] = {}
    for key in schema.coordinates:
        if key not in params:
            raise InvalidParams(f"{function}: missing param {key}")
        out[key] = _norm_coord(params[key], key)
    if function == "surrounding_pois_query":
        try:
            radius = float(params["radius_m"])
        except (KeyError, TypeError, ValueError):
            raise InvalidParams("surrounding_pois_query: radius_m must be numeric") from None
        if radius <= 0:
            raise InvalidParams(f"surrounding_pois_query: radius must be positive, got {radius}")
        out["radius_m"] = round(radius, 1)
    name = schema.enum
    value = str(params.get(name, "")).strip().casefold()
    if schema.values and value not in schema.values:
        raise InvalidParams(f"{function}: unknown {name} {params.get(name)!r}")
    if not value:
        raise InvalidParams(f"{function}: missing {name}")
    out[name] = value
    return out


@dataclass(frozen=True)
class ToolRequest:
    function: str
    params: tuple[tuple[str, Any], ...]  # sorted key/value pairs
    time_bucket: str

    @classmethod
    def build(
        cls, function: str, params: dict[str, Any], bucket: str | None = None
    ) -> "ToolRequest":
        """Normalize params and apply the bucket constraints: rush-hour runs at
        peak, transit has no midnight service and re-keys to off-peak."""
        norm = normalize_params(function, params)
        if function == "rush_hour_query":
            bucket = BUCKET_PEAK
        elif bucket is None:
            bucket = BUCKET_MIDNIGHT
        if bucket not in BUCKETS:
            raise InvalidParams(f"unknown time bucket: {bucket}")
        if (
            function == "time_query"
            and norm.get("mode") == "transit"
            and bucket == BUCKET_MIDNIGHT
        ):
            bucket = BUCKET_OFFPEAK
        return cls(function=function, params=tuple(sorted(norm.items())), time_bucket=bucket)

    @property
    def params_dict(self) -> dict[str, Any]:
        return dict(self.params)

    def step_params(self) -> dict[str, Any]:
        """The params a tool step records: the normalized params plus
        ``time_bucket``. :func:`split_step_params` undoes this."""
        return {**self.params_dict, "time_bucket": self.time_bucket}

    def key(self) -> str:
        return json.dumps(
            {"function": self.function, "params": self.params_dict, "bucket": self.time_bucket},
            sort_keys=True,
            ensure_ascii=True,
            separators=(",", ":"),
        )


def split_step_params(params: Mapping[str, Any]) -> tuple[dict[str, Any], str | None]:
    """A recorded step's params as (call params, time bucket or None)."""
    call = {k: v for k, v in params.items() if k != "time_bucket"}
    return call, params.get("time_bucket")


class Provider(Protocol):
    name: str

    def resolve(self, request: ToolRequest) -> ToolResult: ...


# path factor and km/h speed per (mode, bucket)
_PATH_FACTORS = {"walking": 1.3, "cycling": 1.3, "driving": 1.4, "transit": 1.4}
_SPEEDS_KMH = {
    ("walking", BUCKET_MIDNIGHT): 5.0,
    ("walking", BUCKET_OFFPEAK): 5.0,
    ("walking", BUCKET_PEAK): 5.0,
    ("cycling", BUCKET_MIDNIGHT): 15.0,
    ("cycling", BUCKET_OFFPEAK): 15.0,
    ("cycling", BUCKET_PEAK): 15.0,
    ("driving", BUCKET_MIDNIGHT): 40.0,
    ("driving", BUCKET_OFFPEAK): 40.0,
    ("driving", BUCKET_PEAK): 22.0,
    ("transit", BUCKET_OFFPEAK): 28.0,
    ("transit", BUCKET_PEAK): 24.0,
}
_TRANSIT_OVERHEAD_S = 300


class SyntheticProvider:
    """Deterministic arithmetic stand-in for a live map vendor.

    Travel path = straight-line distance x a per-mode detour factor; duration
    = path / speed for the (mode, bucket) pair, rounded to whole seconds.
    Identical points cost zero regardless of mode. For distinct points, peak
    durations are forced strictly above off-peak after rounding, which is the
    contract replay consumers rely on.
    """

    name = "synthetic-v1"

    def __init__(self, store: GeoStore) -> None:
        self.store = store

    def resolve(self, request: ToolRequest) -> ToolResult:
        p = request.params_dict
        function = request.function
        if function in ("time_query", "rush_hour_query"):
            duration = self._duration(
                GeoPoint(p["origin_lat"], p["origin_lon"]),
                GeoPoint(p["dest_lat"], p["dest_lon"]),
                p["mode"],
                request.time_bucket,
            )
            return ToolResult(
                RESULT_SCHEMAS[function],
                ((p["mode"], request.time_bucket, duration),),
            )
        if function == "distance_query":
            straight = haversine(
                GeoPoint(p["origin_lat"], p["origin_lon"]),
                GeoPoint(p["dest_lat"], p["dest_lon"]),
            )
            factor = 1.0 if p["kind"] == "straight" else _PATH_FACTORS[p["kind"]]
            return ToolResult(
                RESULT_SCHEMAS[function], ((p["kind"], int(round(straight * factor))),)
            )
        if function == "surrounding_pois_query":
            return self._surrounding(p)
        raise InvalidParams(f"unknown tool function: {function}")

    def _duration(self, origin: GeoPoint, dest: GeoPoint, mode: str, bucket: str) -> int:
        straight = haversine(origin, dest)
        if straight == 0.0:
            return 0
        path = straight * _PATH_FACTORS[mode]
        speed_ms = _SPEEDS_KMH[(mode, bucket)] * 1000.0 / 3600.0
        duration = path / speed_ms
        if mode == "transit":
            duration += _TRANSIT_OVERHEAD_S
        duration_s = int(round(duration))
        if bucket == BUCKET_PEAK and mode in TOOL_FUNCTIONS["rush_hour_query"].values:
            offpeak_speed = _SPEEDS_KMH[(mode, BUCKET_OFFPEAK)] * 1000.0 / 3600.0
            offpeak = path / offpeak_speed + (_TRANSIT_OVERHEAD_S if mode == "transit" else 0)
            duration_s = max(duration_s, int(round(offpeak)) + 1)
        return duration_s

    def _surrounding(self, p: dict[str, Any]) -> ToolResult:
        label = p["label"]
        if label not in POI_LABELS:
            raise InvalidParams(f"surrounding_pois_query: unknown label {label!r}")
        center = GeoPoint(p["center_lat"], p["center_lon"])
        hits = []
        snapshot = self.store.snapshot()
        for city in sorted(snapshot):
            for name, poi_label, point in snapshot[city].pois_by_label.get(label, ()):
                d = haversine(center, point)
                if d <= p["radius_m"]:
                    hits.append((name, poi_label, point.latitude, point.longitude, int(round(d))))
        hits.sort(key=lambda r: (r[4], r[0]))
        return ToolResult(RESULT_SCHEMAS["surrounding_pois_query"], tuple(hits))


@dataclass
class CacheEntry:
    """A recorded result and the request it answers: one line of a saved cache."""

    function: str
    params: dict[str, Cell]
    bucket: str
    payload: ToolResult
    provenance: dict[str, str]


class ToolCache:
    """Deterministic store of tool results keyed by canonical request.

    Lookups on a cache without a provider are concurrent-safe; a miss that the
    provider resolves is the only writer. Missing entries resolve through the
    provider when one is attached, otherwise raise :class:`CacheMiss`.
    """

    def __init__(self, provider: Provider | None = None) -> None:
        self.provider = provider
        self._entries: dict[ToolRequest, CacheEntry] = {}

    def __len__(self) -> int:
        return len(self._entries)

    def call(self, function: str, params: dict[str, Any], bucket: str | None = None) -> ToolResult:
        return self.execute(ToolRequest.build(function, params, bucket))

    def execute(self, request: ToolRequest) -> ToolResult:
        entry = self._entries.get(request)
        if entry is not None:
            return entry.payload
        if self.provider is None:
            raise CacheMiss(f"no cache entry and no provider for {request.key()}")
        payload = self.provider.resolve(request)
        self._validate_payload(request.function, payload)
        self._entries[request] = CacheEntry(
            request.function, request.params_dict, request.time_bucket, payload,
            provenance={
                "provider_name": self.provider.name,
                "recorded_at": _BUCKET_STAMPS[request.time_bucket],
            },
        )
        return payload

    @staticmethod
    def _validate_payload(function: str, payload: ToolResult) -> None:
        if payload.columns != RESULT_SCHEMAS[function]:
            raise ToolError(
                f"payload schema mismatch for {function}: {payload.columns}"
            )

    # --- persistence -----------------------------------------------------------

    def save(self, path: str | Path) -> int:
        """Dump entries as sorted JSON lines; byte-stable for equal contents."""
        keyed = {request.key(): entry for request, entry in self._entries.items()}
        with open(path, "w", encoding="utf-8") as fh:
            for key in sorted(keyed):  # line by line: no joined copy of the whole cache
                fh.write(json.dumps(
                    {"key": key, **encode(keyed[key])},
                    default=encode,
                    sort_keys=True,
                    ensure_ascii=True,
                    separators=(",", ":"),
                ) + "\n")
        return len(keyed)

    @classmethod
    def load(cls, path: str | Path) -> "ToolCache":
        """Read a file written by :meth:`save`; a line that does not parse
        raises :class:`MalformedRecordError`."""

        def keyed_entry(data: dict[str, Any]) -> tuple[ToolRequest, CacheEntry]:
            entry = decode(CacheEntry, data)
            cls._validate_payload(entry.function, entry.payload)
            params = tuple(sorted(entry.params.items()))
            return ToolRequest(entry.function, params, entry.bucket), entry

        cache = cls()
        cache._entries.update(read_json_lines(path, keyed_entry))
        return cache
