"""Record/replay cache for the four geospatial tool functions.

Every call is keyed by a canonical (function, params, time bucket) request.
With a frozen cache, tool execution is a pure function of the request; during
population a pluggable provider resolves each unique request exactly once.

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
from typing import Any, Iterable, Protocol

from .domain import GeoPoint, haversine, read_json_lines
from .store import GeoStore

BUCKET_MIDNIGHT = "midnight_00"
BUCKET_OFFPEAK = "offpeak_15"
BUCKET_PEAK = "peak_08"
BUCKETS = (BUCKET_MIDNIGHT, BUCKET_OFFPEAK, BUCKET_PEAK)

TIME_MODES = ("walking", "driving", "cycling", "transit")
DISTANCE_KINDS = ("straight", "walking", "driving")
RUSH_MODES = ("driving", "transit")

COORD_PRECISION = 6

# Nominal collection instants for provenance (fixed reference weekday).
_BUCKET_STAMPS = {
    BUCKET_MIDNIGHT: "2025-01-06T00:00+08:00",
    BUCKET_OFFPEAK: "2025-01-06T15:00+08:00",
    BUCKET_PEAK: "2025-01-06T08:00+08:00",
}

RESULT_SCHEMAS: dict[str, tuple[str, ...]] = {
    "time_query": ("mode", "bucket", "duration_s"),
    "distance_query": ("kind", "distance_m"),
    "surrounding_pois_query": ("name", "label", "latitude", "longitude", "straight_distance_m"),
    "rush_hour_query": ("mode", "bucket", "duration_s"),
}


class ToolError(ValueError):
    code = "tool_error"


class InvalidParams(ToolError):
    code = "invalid_params"


class CacheMiss(ToolError):
    code = "cache_miss_no_provider"


@dataclass(frozen=True)
class ToolResult:
    columns: tuple[str, ...]
    rows: tuple[tuple[Any, ...], ...]

    def scalar(self) -> Any:
        """Last cell of the single row (duration/distance accessors)."""
        return self.rows[0][-1]

    def to_jsonable(self) -> dict[str, Any]:
        return {"columns": list(self.columns), "rows": [list(r) for r in self.rows]}

    @classmethod
    def from_jsonable(cls, data: dict[str, Any]) -> "ToolResult":
        return cls(tuple(data["columns"]), tuple(tuple(r) for r in data["rows"]))


def _norm_coord(value: Any, name: str) -> float:
    try:
        return round(float(value), COORD_PRECISION)
    except (TypeError, ValueError):
        raise InvalidParams(f"{name} must be numeric, got {value!r}") from None


def normalize_params(function: str, params: dict[str, Any]) -> dict[str, Any]:
    """Validate and canonicalize params: coordinates rounded to 6 decimals,
    enumerated strings case-folded. Raises InvalidParams on schema violations."""
    p = dict(params)
    out: dict[str, Any] = {}
    if function in ("time_query", "distance_query", "rush_hour_query"):
        for key in ("origin_lat", "origin_lon", "dest_lat", "dest_lon"):
            if key not in p:
                raise InvalidParams(f"{function}: missing param {key}")
            out[key] = _norm_coord(p[key], key)
        if function == "distance_query":
            kind = str(p.get("kind", "")).strip().casefold()
            if kind not in DISTANCE_KINDS:
                raise InvalidParams(f"distance_query: unknown kind {p.get('kind')!r}")
            out["kind"] = kind
        else:
            mode = str(p.get("mode", "")).strip().casefold()
            valid = RUSH_MODES if function == "rush_hour_query" else TIME_MODES
            if mode not in valid:
                raise InvalidParams(f"{function}: unknown mode {p.get('mode')!r}")
            out["mode"] = mode
    elif function == "surrounding_pois_query":
        for key in ("center_lat", "center_lon"):
            if key not in p:
                raise InvalidParams(f"{function}: missing param {key}")
            out[key] = _norm_coord(p[key], key)
        try:
            radius = float(p["radius_m"])
        except (KeyError, TypeError, ValueError):
            raise InvalidParams("surrounding_pois_query: radius_m must be numeric") from None
        if radius <= 0:
            raise InvalidParams(f"surrounding_pois_query: radius must be positive, got {radius}")
        out["radius_m"] = round(radius, 1)
        label = str(p.get("label", "")).strip().casefold()
        if not label:
            raise InvalidParams("surrounding_pois_query: missing label")
        out["label"] = label
    else:
        raise InvalidParams(f"unknown tool function: {function}")
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

    def key(self) -> str:
        return json.dumps(
            {"function": self.function, "params": self.params_dict, "bucket": self.time_bucket},
            sort_keys=True,
            ensure_ascii=True,
            separators=(",", ":"),
        )


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
        if bucket == BUCKET_PEAK and mode in RUSH_MODES:
            offpeak_speed = _SPEEDS_KMH[(mode, BUCKET_OFFPEAK)] * 1000.0 / 3600.0
            offpeak = path / offpeak_speed + (_TRANSIT_OVERHEAD_S if mode == "transit" else 0)
            duration_s = max(duration_s, int(round(offpeak)) + 1)
        return duration_s

    def _surrounding(self, p: dict[str, Any]) -> ToolResult:
        label = p["label"]
        if label not in {l.casefold() for l in self.store.config.labels}:
            raise InvalidParams(f"surrounding_pois_query: unknown label {label!r}")
        center = GeoPoint(p["center_lat"], p["center_lon"])
        hits = []
        snapshot = self.store.snapshot()
        for city in sorted(snapshot):
            for poi in snapshot[city].pois_by_label.get(label, ()):
                d = haversine(center, poi.location)
                if d <= p["radius_m"]:
                    loc = poi.location
                    hits.append((poi.name, poi.label, loc.latitude, loc.longitude, int(round(d))))
        hits.sort(key=lambda r: (r[4], r[0]))
        return ToolResult(RESULT_SCHEMAS["surrounding_pois_query"], tuple(hits))


@dataclass
class CacheEntry:
    request: ToolRequest
    payload: ToolResult
    provenance: dict[str, str]


class ToolCache:
    """Deterministic store of tool results keyed by canonical request.

    Lookups on a frozen cache are concurrent-safe; population is the only
    writer. Missing entries resolve through the provider when one is attached,
    otherwise raise :class:`CacheMiss`.
    """

    def __init__(self, provider: Provider | None = None) -> None:
        self.provider = provider
        self._entries: dict[str, CacheEntry] = {}

    def __len__(self) -> int:
        return len(self._entries)

    def freeze(self) -> "ToolCache":
        """Detach the provider; subsequent misses raise CacheMiss."""
        self.provider = None
        return self

    def call(self, function: str, params: dict[str, Any], bucket: str | None = None) -> ToolResult:
        return self.execute(ToolRequest.build(function, params, bucket))

    def execute(self, request: ToolRequest) -> ToolResult:
        key = request.key()
        entry = self._entries.get(key)
        if entry is not None:
            return entry.payload
        if self.provider is None:
            raise CacheMiss(f"no cache entry and no provider for {key}")
        payload = self.provider.resolve(request)
        self._validate_payload(request.function, payload)
        self._entries[key] = CacheEntry(
            request=request,
            payload=payload,
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

    # --- typed convenience wrappers -------------------------------------------

    def time_query(
        self, origin: GeoPoint, destination: GeoPoint, mode: str, bucket: str | None = None
    ) -> int:
        result = self.call(
            "time_query",
            {
                "origin_lat": origin.latitude,
                "origin_lon": origin.longitude,
                "dest_lat": destination.latitude,
                "dest_lon": destination.longitude,
                "mode": mode,
            },
            bucket,
        )
        return int(result.scalar())

    def distance_query(
        self, origin: GeoPoint, destination: GeoPoint, kind: str, bucket: str | None = None
    ) -> int:
        result = self.call(
            "distance_query",
            {
                "origin_lat": origin.latitude,
                "origin_lon": origin.longitude,
                "dest_lat": destination.latitude,
                "dest_lon": destination.longitude,
                "kind": kind,
            },
            bucket,
        )
        return int(result.scalar())

    def surrounding_pois_query(
        self, center: GeoPoint, radius_m: float, label: str
    ) -> ToolResult:
        return self.call(
            "surrounding_pois_query",
            {
                "center_lat": center.latitude,
                "center_lon": center.longitude,
                "radius_m": radius_m,
                "label": label,
            },
        )

    def rush_hour_query(self, origin: GeoPoint, destination: GeoPoint, mode: str) -> int:
        result = self.call(
            "rush_hour_query",
            {
                "origin_lat": origin.latitude,
                "origin_lon": origin.longitude,
                "dest_lat": destination.latitude,
                "dest_lon": destination.longitude,
                "mode": mode,
            },
        )
        return int(result.scalar())

    # --- population and persistence --------------------------------------------

    def populate(self, corpus: Iterable[ToolRequest]) -> dict[str, Any]:
        """Resolve each unique request once. Duplicate requests share one entry.
        Provider failures are collected into a partial population report."""
        if self.provider is None:
            raise CacheMiss("populate requires a provider")
        resolved = 0
        already = 0
        failures: list[dict[str, str]] = []
        for request in corpus:
            key = request.key()
            if key in self._entries:
                already += 1
                continue
            try:
                self.execute(request)
                resolved += 1
            except ToolError as exc:
                failures.append({"key": key, "error": str(exc)})
        return {
            "entries": len(self._entries),
            "resolved": resolved,
            "duplicates_or_present": already,
            "failures": failures,
        }

    def save(self, path: str | Path) -> int:
        """Dump entries as sorted JSON lines; byte-stable for equal contents."""
        lines = []
        for key in sorted(self._entries):
            entry = self._entries[key]
            lines.append(
                json.dumps(
                    {
                        "key": key,
                        "function": entry.request.function,
                        "params": entry.request.params_dict,
                        "bucket": entry.request.time_bucket,
                        "payload": entry.payload.to_jsonable(),
                        "provenance": entry.provenance,
                    },
                    sort_keys=True,
                    ensure_ascii=True,
                    separators=(",", ":"),
                )
            )
        Path(path).write_text("\n".join(lines) + ("\n" if lines else ""), encoding="utf-8")
        return len(lines)

    @classmethod
    def load(cls, path: str | Path, provider: Provider | None = None) -> "ToolCache":
        """Read a file written by :meth:`save`; a line that does not parse
        raises :class:`MalformedRecordError`."""

        def entry_from_dict(data: dict[str, Any]) -> CacheEntry:
            request = ToolRequest(
                function=data["function"],
                params=tuple(sorted(data["params"].items())),
                time_bucket=data["bucket"],
            )
            payload = ToolResult.from_jsonable(data["payload"])
            cls._validate_payload(request.function, payload)
            return CacheEntry(request=request, payload=payload, provenance=data["provenance"])

        cache = cls(provider=provider)
        for entry in read_json_lines(path, entry_from_dict):
            cache._entries[entry.request.key()] = entry
        return cache
