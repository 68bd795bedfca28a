"""Shared vocabulary: geographic entities, QA instances, answers, supervision traces.

Everything here is an immutable value object. Instances serialize to
line-delimited JSON (one instance per line, UTF-8) and round-trip
bit-identically; see :func:`instance_to_json` / :func:`instance_from_json`.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, TypeVar

EARTH_RADIUS_M = 6_371_000.0

TOOL_FUNCTIONS = (
    "time_query",
    "distance_query",
    "surrounding_pois_query",
    "rush_hour_query",
)

QUESTION_TYPES = (1, 2, 3)

T = TypeVar("T")


class DomainError(ValueError):
    """Raised when a domain invariant is violated."""


class MalformedRecordError(ValueError):
    """A line of a JSON-lines file does not parse; the message names file:line."""


@dataclass(frozen=True)
class GeoPoint:
    latitude: float
    longitude: float

    def __post_init__(self) -> None:
        if not -90.0 <= self.latitude <= 90.0:
            raise DomainError(f"latitude out of range: {self.latitude}")
        if not -180.0 <= self.longitude <= 180.0:
            raise DomainError(f"longitude out of range: {self.longitude}")


def haversine(a: GeoPoint, b: GeoPoint) -> float:
    """Great-circle distance in meters on a sphere of radius 6,371,000 m."""
    lat1, lon1 = math.radians(a.latitude), math.radians(a.longitude)
    lat2, lon2 = math.radians(b.latitude), math.radians(b.longitude)
    dlat = lat2 - lat1
    dlon = lon2 - lon1
    h = math.sin(dlat / 2.0) ** 2 + math.cos(lat1) * math.cos(lat2) * math.sin(dlon / 2.0) ** 2
    return 2.0 * EARTH_RADIUS_M * math.asin(min(1.0, math.sqrt(h)))


@dataclass(frozen=True)
class Community:
    id: str
    city: str
    name: str
    district: str
    address: str
    location: GeoPoint
    greening_rate: float
    avg_price: float
    property_type: str
    sales_status: str

    def __post_init__(self) -> None:
        if not 0.0 <= self.greening_rate <= 100.0:
            raise DomainError(f"greening_rate out of range: {self.greening_rate}")
        if self.avg_price <= 0:
            raise DomainError(f"avg_price must be positive: {self.avg_price}")


@dataclass(frozen=True)
class Poi:
    id: str
    city: str
    name: str
    category: str
    label: str
    location: GeoPoint


# --- canonical answers -------------------------------------------------------

_WHITESPACE_RE = re.compile(r"\s+")

# unit -> (dimension, factor to the dimension's base unit)
_UNIT_TABLE: dict[str, tuple[str, float]] = {
    "m": ("length", 1.0),
    "meter": ("length", 1.0),
    "meters": ("length", 1.0),
    "km": ("length", 1000.0),
    "s": ("time", 1.0),
    "sec": ("time", 1.0),
    "seconds": ("time", 1.0),
    "min": ("time", 60.0),
    "minute": ("time", 60.0),
    "minutes": ("time", 60.0),
    "h": ("time", 3600.0),
    "hour": ("time", 3600.0),
    "hours": ("time", 3600.0),
}


def normalize_text(value: str) -> str:
    """Trim and collapse internal whitespace. The only text normalization applied."""
    return _WHITESPACE_RE.sub(" ", value.strip())


def _normalize_unit(value: float, unit: str) -> tuple[str, float]:
    """Map (value, unit) to (dimension-or-unit, value in base units)."""
    key = normalize_text(unit).casefold()
    if key in _UNIT_TABLE:
        dim, factor = _UNIT_TABLE[key]
        return dim, value * factor
    return key, value


@dataclass(frozen=True)
class CanonicalAnswer:
    """Tagged union over the answer kinds the benchmark emits.

    kind          payload
    -----------   ------------------------------------------
    entity_set    entities: multiset of entity names (>= 1)
    number        value + unit (unit normalized on compare)
    duration      value: whole seconds (>= 0)
    distance      value: whole meters (>= 0)
    boolean       flag
    text          text
    """

    kind: str
    entities: tuple[str, ...] = ()
    value: float = 0.0
    unit: str = ""
    flag: bool = False
    text: str = ""

    KINDS = ("entity_set", "number", "duration", "distance", "boolean", "text")

    def __post_init__(self) -> None:
        if self.kind not in self.KINDS:
            raise DomainError(f"unknown answer kind: {self.kind}")
        if self.kind == "entity_set" and not self.entities:
            raise DomainError("entity_set answer needs at least one element")
        if self.kind in ("duration", "distance") and self.value < 0:
            raise DomainError(f"{self.kind} must be non-negative")

    @classmethod
    def entity_set(cls, names: Iterable[str]) -> "CanonicalAnswer":
        return cls(kind="entity_set", entities=tuple(names))

    @classmethod
    def number(cls, value: float, unit: str = "") -> "CanonicalAnswer":
        return cls(kind="number", value=float(value), unit=unit)

    @classmethod
    def duration(cls, seconds: float) -> "CanonicalAnswer":
        return cls(kind="duration", value=float(round(seconds)))

    @classmethod
    def distance(cls, meters: float) -> "CanonicalAnswer":
        return cls(kind="distance", value=float(round(meters)))

    @classmethod
    def boolean(cls, flag: bool) -> "CanonicalAnswer":
        return cls(kind="boolean", flag=bool(flag))

    @classmethod
    def from_text(cls, text: str) -> "CanonicalAnswer":
        return cls(kind="text", text=text)

    def items(self) -> tuple[Any, ...]:
        """Decompose to comparable items (used by exact match and item-level F1)."""
        if self.kind == "entity_set":
            return tuple(sorted(normalize_text(e) for e in self.entities))
        if self.kind == "number":
            dim, norm = _normalize_unit(self.value, self.unit)
            return (("number", dim, norm),)
        if self.kind == "duration":
            return (("duration", self.value),)
        if self.kind == "distance":
            return (("distance", self.value),)
        if self.kind == "boolean":
            return (("boolean", self.flag),)
        return (("text", normalize_text(self.text)),)

    def to_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {"kind": self.kind}
        if self.kind == "entity_set":
            out["entities"] = list(self.entities)
        elif self.kind == "number":
            out["value"] = self.value
            out["unit"] = self.unit
        elif self.kind in ("duration", "distance"):
            out["value"] = self.value
        elif self.kind == "boolean":
            out["flag"] = self.flag
        else:
            out["text"] = self.text
        return out

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "CanonicalAnswer":
        kind = data["kind"]
        if kind == "entity_set":
            return cls.entity_set(data["entities"])
        if kind == "number":
            return cls.number(data["value"], data.get("unit", ""))
        if kind == "duration":
            return cls(kind="duration", value=float(data["value"]))
        if kind == "distance":
            return cls(kind="distance", value=float(data["value"]))
        if kind == "boolean":
            return cls.boolean(data["flag"])
        return cls.from_text(data["text"])


def answer_equal(pred: CanonicalAnswer, gold: CanonicalAnswer) -> bool:
    """Strict exact match. Entity sets compare as multisets after whitespace
    normalization; scalar kinds compare after unit normalization; comparison
    across kinds is always false."""
    if pred.kind != gold.kind:
        return False
    return pred.items() == gold.items()


# --- supervision -------------------------------------------------------------


@dataclass(frozen=True)
class SlotAnnotation:
    slot_type: str
    value: str
    start: int
    end: int

    def to_dict(self) -> dict[str, Any]:
        return {"slot_type": self.slot_type, "value": self.value, "start": self.start, "end": self.end}

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "SlotAnnotation":
        return cls(data["slot_type"], data["value"], int(data["start"]), int(data["end"]))

    def check_against(self, question: str) -> None:
        if question[self.start : self.end] != self.value:
            raise DomainError(
                f"slot span mismatch: question[{self.start}:{self.end}] != {self.value!r}"
            )


def locate_slot(
    question: str, slot_type: str, value: str, taken: list[tuple[int, int]]
) -> SlotAnnotation | None:
    """Annotate the first occurrence of ``value`` in ``question`` that overlaps
    no span in ``taken``, and add its span to ``taken``; None if there is none."""
    start = question.find(value)
    while start >= 0:
        end = start + len(value)
        if all(start >= e or s >= end for s, e in taken):
            taken.append((start, end))
            return SlotAnnotation(slot_type, value, start, end)
        start = question.find(value, start + 1)
    return None


@dataclass(frozen=True)
class SqlStep:
    statement: str
    # rows of typed cells (str | int | float | None), column order preserved
    expected_columns: tuple[str, ...]
    expected_rows: tuple[tuple[Any, ...], ...]


@dataclass(frozen=True)
class ToolStep:
    function: str
    params: dict[str, Any] = field(default_factory=dict)
    expected_columns: tuple[str, ...] = ()
    expected_rows: tuple[tuple[Any, ...], ...] = ()

    def __post_init__(self) -> None:
        if self.function not in TOOL_FUNCTIONS:
            raise DomainError(f"unknown tool function: {self.function}")


@dataclass(frozen=True)
class QAInstance:
    id: str
    template_id: str
    city: str
    question: str
    question_type: int
    intents: tuple[str, ...]
    slots: tuple[SlotAnnotation, ...]
    sql_trace: tuple[SqlStep, ...]
    tool_trace: tuple[ToolStep, ...]
    agent_route: tuple[str, ...]
    answer: CanonicalAnswer
    nl_answer: str

    def __post_init__(self) -> None:
        if self.question_type not in QUESTION_TYPES:
            raise DomainError(f"question_type must be 1, 2 or 3: {self.question_type}")
        if self.question_type == 1 and self.tool_trace:
            raise DomainError("type 1 instances must have an empty tool trace")
        if self.question_type in (2, 3) and not self.tool_trace:
            raise DomainError("type 2/3 instances need a non-empty tool trace")
        if not self.sql_trace:
            raise DomainError("sql_trace must be non-empty")
        self.validate_slots()

    def validate_slots(self) -> None:
        spans: list[tuple[int, int]] = []
        for slot in self.slots:
            slot.check_against(self.question)
            for s, e in spans:
                if slot.start < e and s < slot.end:
                    raise DomainError(f"overlapping slot spans at {slot.start}:{slot.end}")
            spans.append((slot.start, slot.end))

    def slu_labels(self) -> dict[str, Any]:
        """The SLU reply for this question: its intents and (type, value) slots."""
        return {
            "intents": list(self.intents),
            "slots": [{"slot_type": s.slot_type, "value": s.value} for s in self.slots],
        }


# --- serialization -----------------------------------------------------------


def _rows_to_jsonable(rows: tuple[tuple[Any, ...], ...]) -> list[list[Any]]:
    return [list(r) for r in rows]


def _rows_from_jsonable(rows: list[list[Any]]) -> tuple[tuple[Any, ...], ...]:
    return tuple(tuple(r) for r in rows)


def instance_to_dict(inst: QAInstance) -> dict[str, Any]:
    return {
        "id": inst.id,
        "template_id": inst.template_id,
        "city": inst.city,
        "question": inst.question,
        "question_type": inst.question_type,
        "intents": list(inst.intents),
        "slots": [s.to_dict() for s in inst.slots],
        # span annotations are canonical; IOB rides along for tagger training
        "iob": iob_tags(inst.question, inst.slots),
        "sql_trace": [
            {
                "statement": s.statement,
                "expected_columns": list(s.expected_columns),
                "expected_rows": _rows_to_jsonable(s.expected_rows),
            }
            for s in inst.sql_trace
        ],
        "tool_trace": [
            {
                "function": t.function,
                "params": t.params,
                "expected_columns": list(t.expected_columns),
                "expected_rows": _rows_to_jsonable(t.expected_rows),
            }
            for t in inst.tool_trace
        ],
        "agent_route": list(inst.agent_route),
        "answer": inst.answer.to_dict(),
        "nl_answer": inst.nl_answer,
    }


def instance_from_dict(data: dict[str, Any]) -> QAInstance:
    return QAInstance(
        id=data["id"],
        template_id=data["template_id"],
        city=data["city"],
        question=data["question"],
        question_type=int(data["question_type"]),
        intents=tuple(data["intents"]),
        slots=tuple(SlotAnnotation.from_dict(s) for s in data["slots"]),
        sql_trace=tuple(
            SqlStep(
                statement=s["statement"],
                expected_columns=tuple(s["expected_columns"]),
                expected_rows=_rows_from_jsonable(s["expected_rows"]),
            )
            for s in data["sql_trace"]
        ),
        tool_trace=tuple(
            ToolStep(
                function=t["function"],
                params=t["params"],
                expected_columns=tuple(t["expected_columns"]),
                expected_rows=_rows_from_jsonable(t["expected_rows"]),
            )
            for t in data["tool_trace"]
        ),
        agent_route=tuple(data["agent_route"]),
        answer=CanonicalAnswer.from_dict(data["answer"]),
        nl_answer=data["nl_answer"],
    )


def instance_to_json(inst: QAInstance) -> str:
    return json.dumps(instance_to_dict(inst), ensure_ascii=False, sort_keys=True)


def instance_from_json(line: str) -> QAInstance:
    return instance_from_dict(json.loads(line))


def write_instances(path: str, instances: Iterable[QAInstance]) -> int:
    n = 0
    with open(path, "w", encoding="utf-8") as fh:
        for inst in instances:
            fh.write(instance_to_json(inst))
            fh.write("\n")
            n += 1
    return n


def read_json_lines(path: str | Path, parse: Callable[[Any], T]) -> Iterator[T]:
    """Yield ``parse(record)`` for each non-blank line of a JSON-lines file; a
    line that does not parse raises :class:`MalformedRecordError` naming
    ``file:line``."""
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                record = parse(json.loads(line))
            except (AttributeError, KeyError, TypeError, ValueError) as exc:
                raise MalformedRecordError(f"{path}:{lineno}: {exc!r}") from exc
            yield record


def read_instances(path: str) -> Iterator[QAInstance]:
    """Yield the instances of a JSON-lines file; a line that does not parse
    raises :class:`MalformedRecordError`."""
    yield from read_json_lines(path, instance_from_dict)


# --- IOB export ---------------------------------------------------------------

TOKENIZATION_ID = "ws-regex-v1"
_TOKEN_RE = re.compile(r"\w+|[^\w\s]", re.UNICODE)


def tokenize_question(question: str) -> list[tuple[str, int, int]]:
    """Tokenizer ws-regex-v1: word runs and single punctuation marks, with offsets."""
    return [(m.group(0), m.start(), m.end()) for m in _TOKEN_RE.finditer(question)]


def iob_tags(question: str, slots: Iterable[SlotAnnotation]) -> dict[str, Any]:
    """Export character-span slots as token-level IOB tags under ws-regex-v1."""
    tokens = tokenize_question(question)
    tags = ["O"] * len(tokens)
    for slot in slots:
        inside = [
            i for i, (_, s, e) in enumerate(tokens) if s >= slot.start and e <= slot.end
        ]
        for rank, i in enumerate(inside):
            tags[i] = ("B-" if rank == 0 else "I-") + slot.slot_type
    return {
        "tokenization": TOKENIZATION_ID,
        "tokens": [t for t, _, _ in tokens],
        "tags": tags,
    }
