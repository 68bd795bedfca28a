"""Question template DSL: question pattern + SQL pattern + tool pattern +
answer derivation rule.

A template is a declarative JSON-compatible document. The shipped default set
below is configuration, not contract: it covers the three question types, all
four tool functions, and every answer-rule kind, and can be replaced by a
directory of template files with the same schema (see ``load_template_dir``).

Placeholder notes:
- every template implicitly binds ``{city}`` (display) and ``{city_slug}``
  (table names); ``{X}`` is restricted to 1..3;
- tool param values may reference coordinates produced by the SQL step via
  ``@lat:{placeholder}`` / ``@lon:{placeholder}``.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Any

from .domain import DomainError, check_question_type, decode

PLACEHOLDER_RE = re.compile(r"\{([a-z_A-Z][a-zA-Z0-9_]*)\}")

# placeholder base name -> slot type emitted in gold annotations
SLOT_TYPES = {
    "community_name": "community_name",
    "poi_name": "poi_name",
    "poi_label": "poi_label",
    "city": "city",
    "district": "district",
    "X": "count",
    "radius_km": "radius_km",
    "minutes": "minutes",
    "property_type": "property_type",
}

# answer rule kind -> the keys generator.derive_answer reads; steps index its sql_/tool_ patterns
ANSWER_RULE_KEYS = {
    "sql_cell": ("step", "column"),
    "sql_list": ("step", "column"),
    "sql_argmin": ("step", "name_column", "value_column"),
    "sql_argmax": ("step", "name_column", "value_column"),
    "tool_value": ("step",),
    "tool_list": ("step", "column"),
    "tool_count": ("step",),
    "tool_argmin": ("steps", "labels"),
    "tool_argmax": ("steps", "labels"),
    "tool_threshold": ("steps", "labels", "value"),
}

# answer rule kind -> key -> the values generator.derive_answer tells apart; an
# absent key reads as the first
ANSWER_RULE_CHOICES = {
    "sql_cell": {"answer": ("number", "text")},
    "tool_value": {"answer": ("duration", "distance")},
    "tool_threshold": {"op": ("<=", ">=")},
}

BINDING_KINDS = ("community", "poi", "poi_label", "district", "int_range", "choice")


class TemplateError(DomainError):
    """A template document does not load; the message names the file."""


def slot_type_for(placeholder: str) -> str | None:
    base = re.sub(r"_\d+$", "", placeholder)
    return SLOT_TYPES.get(base)


def _whole_number(value: Any) -> int | None:
    """``value`` as an int when it is a whole number (``60``, ``60.0``, ``"60"``),
    else None."""
    try:
        number = float(value)
    except (TypeError, ValueError):
        return None
    return int(number) if number.is_integer() else None


def derived_value(spec: dict[str, Any], base: Any) -> Any:
    """The value of a ``derived`` placeholder given its ``from`` value (the bound
    value, or its question slot text): with ``op: "mul"`` the integer product
    with ``factor``, otherwise ``base``."""
    if spec.get("op") == "mul":
        return _whole_number(base) * _whole_number(spec["factor"])
    return base


def _whole_bounds(binding: dict[str, Any]) -> tuple[int, int] | None:
    """The least and greatest value a binding samples when each is a whole
    number, else None."""
    kind = binding.get("kind")
    if kind == "int_range":
        return int(binding.get("min", 1)), int(binding.get("max", 3))
    numbers = [_whole_number(v) for v in binding.get("values", ())] if kind == "choice" else []
    return (min(numbers), max(numbers)) if numbers and None not in numbers else None


@dataclass(frozen=True)
class Template:
    template_id: str
    question_type: int
    intents: tuple[str, ...]
    question_pattern: str
    bindings: dict[str, dict[str, Any]]
    sql_patterns: tuple[str, ...]
    tool_patterns: tuple[dict[str, Any], ...]
    answer_rule: dict[str, Any]
    derived: dict[str, dict[str, Any]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        check_question_type(
            self.template_id, self.question_type, self.sql_patterns, self.tool_patterns
        )
        # the rule carries every key its kind reads, and its steps index its own patterns
        rule, kind = self.answer_rule, self.answer_rule.get("kind")
        if kind not in ANSWER_RULE_KEYS:
            raise DomainError(f"{self.template_id}: unknown answer rule {kind!r}")
        keys = ANSWER_RULE_KEYS[kind]
        patterns = self.sql_patterns if kind.startswith("sql_") else self.tool_patterns
        steps = rule.get("steps", ()) if "steps" in keys else [rule.get("step")]
        if (
            any(key not in rule for key in keys)
            or not steps
            or any(type(step) is not int or not 0 <= step < len(patterns) for step in steps)
            or ("labels" in keys and len(rule["labels"]) != len(steps))
        ):
            raise DomainError(
                f"{self.template_id}: answer rule {kind} needs {', '.join(keys)}, each step"
                f" one of its {len(patterns)} {kind.partition('_')[0]} patterns"
                + (", and one label per step" if "labels" in keys else "")
            )
        if "labels" in keys:
            # a tool rule labels each step by the entity at that placeholder's coordinates
            for label, step in zip(rule["labels"], steps):
                if PLACEHOLDER_RE.fullmatch(label) and self.coordinate_params(step, label) is None:
                    raise DomainError(
                        f"{self.template_id}: label {label} is not a coordinate of tool step {step}"
                    )
        for key, allowed in ANSWER_RULE_CHOICES.get(kind, {}).items():
            if rule.get(key, allowed[0]) not in allowed:
                raise DomainError(
                    f"{self.template_id}: answer rule {kind} {key} must be one of"
                    f" {', '.join(allowed)}, not {rule[key]!r}"
                )
        placeholders = PLACEHOLDER_RE.findall(self.question_pattern)
        for name in placeholders:
            if name not in self.bindings and name not in ("city",):
                raise DomainError(
                    f"{self.template_id}: question placeholder {{{name}}} is unbound"
                )
        for name, spec in self.bindings.items():
            if spec.get("kind") not in BINDING_KINDS:
                raise DomainError(
                    f"{self.template_id}: binding {name} has unknown kind {spec.get('kind')!r}"
                )
            # generator.sample_bindings draws from these, so each must have a value to draw
            if spec["kind"] == "choice" and not (
                isinstance(spec.get("values"), list) and spec["values"]
            ):
                raise DomainError(f"{self.template_id}: choice {name} needs a non-empty values list")
            bounds = _whole_bounds(spec)
            if spec["kind"] == "int_range" and bounds[0] > bounds[1]:
                raise DomainError(f"{self.template_id}: int_range {name} needs min <= max")
            if name == "X" and (bounds is None or bounds[0] < 1 or bounds[1] > 3):
                raise DomainError(f"{self.template_id}: X must stay within 1..3")
        for name, spec in self.derived.items():
            source = spec.get("from")
            if source not in self.bindings and source not in ("city", "city_slug"):
                raise DomainError(f"{self.template_id}: derived {name} is not from a binding")
            if "op" in spec and not (
                spec["op"] == "mul"
                and _whole_number(spec.get("factor")) is not None
                and _whole_bounds(self.bindings.get(source, {})) is not None
            ):
                raise DomainError(
                    f"{self.template_id}: derived {name} needs op mul, a whole-number"
                    " factor and a binding of whole numbers"
                )
        # answers are derived from the question's slots (generator.trace_resolvers),
        # so a scalar the rule reads must be the only slot of its type, or derived from it
        slot_types = [slot_type_for(n) for n in placeholders]
        for key in ("limit", "value"):
            ref = PLACEHOLDER_RE.fullmatch(str(self.answer_rule.get(key, "")))
            if ref is None:
                continue
            base = self.derived.get(ref.group(1), {}).get("from", ref.group(1))
            slot_type = slot_type_for(base)
            if base not in placeholders or slot_type is None or slot_types.count(slot_type) > 1:
                raise DomainError(
                    f"{self.template_id}: answer_rule {key} {ref.group()} is not read from"
                    " exactly one question slot"
                )

    def coordinate_params(self, step: int, placeholder: str) -> tuple[str, str] | None:
        """The (latitude, longitude) param names through which tool step ``step``
        takes the SQL coordinates of ``placeholder`` (``"{name}"``), if it does."""
        params = self.tool_patterns[step]["params"]
        lat, lon = (
            next((k for k, v in params.items() if v == f"@{axis}:{placeholder}"), None)
            for axis in ("lat", "lon")
        )
        return None if lat is None or lon is None else (lat, lon)

    @cached_property
    def _question_re(self) -> re.Pattern[str]:
        # split() alternates literal text and placeholder names
        parts = PLACEHOLDER_RE.split(self.question_pattern)
        body = "".join("(.+?)" if i % 2 else re.escape(part) for i, part in enumerate(parts))
        return re.compile(body, re.DOTALL)

    def match(self, question: str) -> re.Match[str] | None:
        """The full match of ``question`` against the question pattern, or None:
        literal text verbatim, each placeholder one non-empty lazy group, the
        groups in the pattern's placeholder order."""
        return self._question_re.fullmatch(question)

    @property
    def agent_route(self) -> tuple[str, ...]:
        return ("db_agent",) if self.question_type == 1 else ("db_agent", "map_agent")


def load_template_dir(path: str | Path) -> list[Template]:
    """Load every ``*.json`` template document under a directory; a file that
    does not parse or validate raises :class:`TemplateError` naming it."""
    templates = []
    for file in sorted(Path(path).glob("*.json")):
        try:
            data = json.loads(file.read_text(encoding="utf-8"))
            docs = data if isinstance(data, list) else [data]
            templates.extend(decode(Template, d) for d in docs)
        except (OSError, KeyError, ValueError, TypeError, AttributeError) as exc:
            raise TemplateError(f"{file}: {type(exc).__name__}: {exc}") from None
    if not templates:
        raise TemplateError(f"no template documents found under {path}")
    return templates


# --- shipped default set ------------------------------------------------------

def _coords_sql(*placeholders: str) -> str:
    """The coordinates of each placeholder's entity, in order: a POI for
    ``poi_name``, a community otherwise."""
    return " UNION ALL ".join(
        f"SELECT name, latitude, longitude FROM {'poi' if p == 'poi_name' else 'community'}"
        f"_{{city_slug}} WHERE name = '{{{p}}}'"
        for p in placeholders
    )


def _route_params(origin: str, dest: str, **extra: Any) -> dict[str, Any]:
    params = {
        "origin_lat": f"@lat:{{{origin}}}",
        "origin_lon": f"@lon:{{{origin}}}",
        "dest_lat": f"@lat:{{{dest}}}",
        "dest_lon": f"@lon:{{{dest}}}",
    }
    params.update(extra)
    return params


def _communities(n: int) -> list[str]:
    """The placeholders of ``n`` distinct communities."""
    return ["community_name", *(f"community_name_{i}" for i in range(2, n + 1))]


def _community_column(column: str, **answer: Any) -> dict[str, Any]:
    """Bindings, SQL pattern, empty tool patterns and ``sql_cell`` rule of one
    column of ``{community_name}``; ``answer`` adds the rule's ``answer`` and ``unit``."""
    return {
        "bindings": {"community_name": {"kind": "community"}},
        "sql_patterns": [
            f"SELECT name, {column} FROM community_{{city_slug}} WHERE name = '{{community_name}}'"
        ],
        "tool_patterns": [],
        "answer_rule": {"kind": "sql_cell", "step": 0, "column": column, **answer},
    }


def _routes(dest: str, function: str, *params: dict[str, Any]) -> dict[str, Any]:
    """Bindings, SQL and tool patterns of routes from ``{community_name}`` to
    ``dest`` (a POI for ``poi_name``, a community otherwise): one ``function``
    step per ``params``, which each add the step's enumerated param."""
    return {
        "bindings": {
            "community_name": {"kind": "community"},
            dest: {"kind": "poi" if dest == "poi_name" else "community"},
        },
        "sql_patterns": [_coords_sql("community_name", dest)],
        "tool_patterns": [
            {"function": function, "params": _route_params("community_name", dest, **extra)}
            for extra in params
        ],
    }


def _routes_to_poi(n: int, function: str, mode: str, **extra: Any) -> dict[str, Any]:
    """Bindings, SQL and tool patterns of one route per community (``n`` of
    them) to the POI ``{poi_name}``; ``extra`` bindings are sampled last."""
    return {
        "bindings": {
            "poi_name": {"kind": "poi"},
            **{c: {"kind": "community"} for c in _communities(n)},
            **extra,
        },
        "sql_patterns": [_coords_sql(*_communities(n), "poi_name")],
        "tool_patterns": [
            {"function": function, "params": _route_params(c, "poi_name", mode=mode)}
            for c in _communities(n)
        ],
    }


def _pois_around_community() -> dict[str, Any]:
    """SQL and tool patterns of the ``{poi_label}`` POIs within
    ``{radius_km}`` km of ``{community_name}``."""
    return {
        "derived": {"radius_m": {"from": "radius_km", "op": "mul", "factor": 1000}},
        "sql_patterns": [_coords_sql("community_name")],
        "tool_patterns": [
            {
                "function": "surrounding_pois_query",
                "params": {
                    "center_lat": "@lat:{community_name}",
                    "center_lon": "@lon:{community_name}",
                    "radius_m": "{radius_m}",
                    "label": "{poi_label}",
                },
            }
        ],
    }


DEFAULT_TEMPLATE_DICTS: list[dict[str, Any]] = [
    # --- type 1: database lookups ------------------------------------------------
    {
        "template_id": "t1_avg_price",
        "question_type": 1,
        "intents": ["price_lookup"],
        "question_pattern": "What is the average price per square meter of {community_name} in {city}?",
        **_community_column("avg_price", answer="number", unit="yuan per square meter"),
    },
    {
        "template_id": "t1_greening",
        "question_type": 1,
        "intents": ["greening_lookup"],
        "question_pattern": "What is the greening rate of {community_name} in {city}?",
        **_community_column("greening_rate", answer="number", unit="percent"),
    },
    {
        "template_id": "t1_status",
        "question_type": 1,
        "intents": ["sales_status_lookup"],
        "question_pattern": "What is the current sales status of {community_name} in {city}?",
        **_community_column("sales_status", answer="text"),
    },
    {
        "template_id": "t1_district_list",
        "question_type": 1,
        "intents": ["community_listing"],
        "question_pattern": "List the {property_type} communities in {district} of {city}.",
        "bindings": {
            "district": {"kind": "district"},
            "property_type": {
                "kind": "choice",
                "values": ["second-hand property", "new home", "villa", "apartment"],
            },
        },
        "sql_patterns": [
            "SELECT name FROM community_{city_slug} WHERE district = '{district}'"
            " AND property_type = '{property_type}' ORDER BY name"
        ],
        "tool_patterns": [],
        "answer_rule": {"kind": "sql_list", "step": 0, "column": "name"},
    },
    {
        "template_id": "t1_poi_count",
        "question_type": 1,
        "intents": ["poi_count"],
        "question_pattern": "How many {poi_label} POIs are recorded in {city}?",
        "bindings": {"poi_label": {"kind": "poi_label"}},
        "sql_patterns": [
            "SELECT COUNT(*) AS n FROM poi_{city_slug} WHERE label = '{poi_label}'"
        ],
        "tool_patterns": [],
        "answer_rule": {"kind": "sql_cell", "step": 0, "column": "n", "answer": "number", "unit": "count"},
    },
    {
        "template_id": "t1_compare_price",
        "question_type": 1,
        "intents": ["price_comparison"],
        "question_pattern": "Which has the higher average price per square meter in {city}: {community_name} or {community_name_2}?",
        "bindings": {
            "community_name": {"kind": "community"},
            "community_name_2": {"kind": "community"},
        },
        "sql_patterns": [
            "SELECT name, avg_price FROM community_{city_slug}"
            " WHERE name IN ('{community_name}', '{community_name_2}') ORDER BY name"
        ],
        "tool_patterns": [],
        "answer_rule": {
            "kind": "sql_argmax",
            "step": 0,
            "name_column": "name",
            "value_column": "avg_price",
        },
    },
    {
        "template_id": "t1_cheapest_neighbor",
        "question_type": 1,
        "intents": ["neighbor_price_comparison"],
        "question_pattern": "Among the communities within one kilometer of {community_name} in {city}, which one has the lowest average price?",
        "bindings": {"community_name": {"kind": "community"}},
        "sql_patterns": [
            "SELECT c.name, c.avg_price FROM community_community_{city_slug} p"
            " JOIN community_{city_slug} c ON c.id = p.neighbor_id"
            " WHERE p.subject_name = '{community_name}' ORDER BY c.name"
        ],
        "tool_patterns": [],
        "answer_rule": {
            "kind": "sql_argmin",
            "step": 0,
            "name_column": "name",
            "value_column": "avg_price",
        },
    },
    # --- type 2: database + one direct tool call ----------------------------------
    {
        "template_id": "t2_walk_time",
        "question_type": 2,
        "intents": ["walk_time"],
        "question_pattern": "How long does it take to walk from {community_name} to {poi_name} in {city}?",
        **_routes("poi_name", "time_query", {"mode": "walking"}),
        "answer_rule": {"kind": "tool_value", "step": 0, "answer": "duration"},
    },
    {
        "template_id": "t2_cycle_time",
        "question_type": 2,
        "intents": ["cycle_time"],
        "question_pattern": "How long does it take to cycle from {community_name} to {community_name_2} in {city}?",
        **_routes("community_name_2", "time_query", {"mode": "cycling"}),
        "answer_rule": {"kind": "tool_value", "step": 0, "answer": "duration"},
    },
    {
        "template_id": "t2_drive_distance",
        "question_type": 2,
        "intents": ["drive_distance"],
        "question_pattern": "What is the driving distance from {community_name} to {community_name_2} in {city}?",
        **_routes("community_name_2", "distance_query", {"kind": "driving"}),
        "answer_rule": {"kind": "tool_value", "step": 0, "answer": "distance"},
    },
    {
        "template_id": "t2_straight_distance",
        "question_type": 2,
        "intents": ["straight_distance"],
        "question_pattern": "What is the straight-line distance between {community_name} and {poi_name} in {city}?",
        **_routes("poi_name", "distance_query", {"kind": "straight"}),
        "answer_rule": {"kind": "tool_value", "step": 0, "answer": "distance"},
    },
    {
        "template_id": "t2_rush_drive",
        "question_type": 2,
        "intents": ["rush_hour_time"],
        "question_pattern": "How long does it take to drive from {community_name} to {poi_name} in {city} during the morning rush hour?",
        **_routes("poi_name", "rush_hour_query", {"mode": "driving"}),
        "answer_rule": {"kind": "tool_value", "step": 0, "answer": "duration"},
    },
    {
        "template_id": "t2_nearby_pois",
        "question_type": 2,
        "intents": ["nearby_poi_listing"],
        "question_pattern": "Which {poi_label} POIs are within {radius_km} km of {community_name} in {city}?",
        "bindings": {
            "community_name": {"kind": "community"},
            "poi_label": {"kind": "poi_label"},
            "radius_km": {"kind": "choice", "values": [1, 2, 3]},
        },
        **_pois_around_community(),
        "answer_rule": {"kind": "tool_list", "step": 0, "column": "name"},
    },
    {
        "template_id": "t2_nearest_x",
        "question_type": 2,
        "intents": ["nearest_poi_listing"],
        "question_pattern": "What are the nearest {X} {poi_label} POIs within {radius_km} km of {community_name} in {city}?",
        "bindings": {
            "community_name": {"kind": "community"},
            "poi_label": {"kind": "poi_label"},
            "radius_km": {"kind": "choice", "values": [2, 3]},
            "X": {"kind": "int_range", "min": 1, "max": 3},
        },
        **_pois_around_community(),
        "answer_rule": {"kind": "tool_list", "step": 0, "column": "name", "limit": "{X}"},
    },
    # --- type 3: tools plus post-tool reasoning -----------------------------------
    {
        "template_id": "t3_least_drive",
        "question_type": 3,
        "intents": ["least_travel_time"],
        "question_pattern": "Which place takes the least time to drive to {poi_name} in {city}: {community_name}, {community_name_2}, or {community_name_3}?",
        **_routes_to_poi(3, "time_query", "driving"),
        "answer_rule": {
            "kind": "tool_argmin",
            "steps": [0, 1, 2],
            "labels": ["{community_name}", "{community_name_2}", "{community_name_3}"],
        },
    },
    {
        "template_id": "t3_closest_walk",
        "question_type": 3,
        "intents": ["closest_on_foot"],
        "question_pattern": "Which community is closer on foot to {poi_name} in {city}: {community_name} or {community_name_2}?",
        **_routes_to_poi(2, "time_query", "walking"),
        "answer_rule": {
            "kind": "tool_argmin",
            "steps": [0, 1],
            "labels": ["{community_name}", "{community_name_2}"],
        },
    },
    {
        "template_id": "t3_reach_within",
        "question_type": 3,
        "intents": ["reachability_filter"],
        "question_pattern": "Which of {community_name}, {community_name_2} and {community_name_3} can reach {poi_name} in {city} within {minutes} minutes by public transit?",
        **_routes_to_poi(3, "time_query", "transit", minutes={"kind": "choice", "values": [10, 15, 20, 30]}),
        "derived": {"seconds": {"from": "minutes", "op": "mul", "factor": 60}},
        "answer_rule": {
            "kind": "tool_threshold",
            "steps": [0, 1, 2],
            "labels": ["{community_name}", "{community_name_2}", "{community_name_3}"],
            "op": "<=",
            "value": "{seconds}",
        },
    },
    {
        "template_id": "t3_nearby_count",
        "question_type": 3,
        "intents": ["nearby_poi_count"],
        "question_pattern": "How many {poi_label} POIs are within {radius_km} km of {community_name} in {city}?",
        "bindings": {
            "community_name": {"kind": "community"},
            "poi_label": {"kind": "poi_label"},
            "radius_km": {"kind": "choice", "values": [1, 2, 3]},
        },
        **_pois_around_community(),
        "answer_rule": {"kind": "tool_count", "step": 0},
    },
    {
        "template_id": "t3_walk_or_transit",
        "question_type": 3,
        "intents": ["mode_comparison"],
        "question_pattern": "To get from {community_name} to {poi_name} in {city}, which is faster: walking or public transit?",
        **_routes("poi_name", "time_query", {"mode": "walking"}, {"mode": "transit"}),
        "answer_rule": {
            "kind": "tool_argmin",
            "steps": [0, 1],
            "labels": ["walking", "public transit"],
        },
    },
    {
        "template_id": "t3_rush_threshold",
        "question_type": 3,
        "intents": ["rush_reachability_filter"],
        "question_pattern": "During the morning rush hour, which of {community_name}, {community_name_2} and {community_name_3} can reach {poi_name} in {city} within {minutes} minutes by car?",
        **_routes_to_poi(3, "rush_hour_query", "driving", minutes={"kind": "choice", "values": [10, 15, 20, 30]}),
        "derived": {"seconds": {"from": "minutes", "op": "mul", "factor": 60}},
        "answer_rule": {
            "kind": "tool_threshold",
            "steps": [0, 1, 2],
            "labels": ["{community_name}", "{community_name_2}", "{community_name_3}"],
            "op": "<=",
            "value": "{seconds}",
        },
    },
]


def default_templates() -> list[Template]:
    return [decode(Template, d) for d in DEFAULT_TEMPLATE_DICTS]
