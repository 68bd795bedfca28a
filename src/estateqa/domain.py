"""Shared vocabulary: geographic entities, QA instances, answers, supervision traces.

Everything here is an immutable value object. Every persisted record is
written by ``json.dumps(..., default=encode)`` and read by :func:`decode`;
instances are line-delimited JSON (one per line, UTF-8) and round-trip
bit-identically.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import MISSING, dataclass, field, fields, is_dataclass
from functools import cache
from itertools import chain
from operator import attrgetter
from pathlib import Path
from types import NoneType, UnionType
from typing import Any, Callable, Iterable, Iterator, Sized, TypeVar, get_args, get_origin, get_type_hints

EARTH_RADIUS_M = 6_371_000.0


@dataclass(frozen=True)
class ToolFunction:
    coordinates: tuple[str, ...]  # the coordinate params a call requires
    enum: str  # its one enumerated param
    values: tuple[str, ...]  # that param's values; none where the provider checks it
    columns: tuple[str, ...]  # the columns of a result row


_ROUTE = ("origin_lat", "origin_lon", "dest_lat", "dest_lon")
_TRAVEL = ("mode", "bucket", "duration_s")
# each tool function, declared once for the tools, the generator and the map specialist
TOOL_FUNCTIONS = {
    "time_query": ToolFunction(
        _ROUTE, "mode", ("walking", "driving", "cycling", "transit"), _TRAVEL
    ),
    "distance_query": ToolFunction(
        _ROUTE, "kind", ("straight", "walking", "driving"), ("kind", "distance_m")
    ),
    "surrounding_pois_query": ToolFunction(
        ("center_lat", "center_lon"), "label", (),
        ("name", "label", "latitude", "longitude", "straight_distance_m"),
    ),
    "rush_hour_query": ToolFunction(_ROUTE, "mode", ("driving", "transit"), _TRAVEL),
}

QUESTION_TYPES = (1, 2, 3)

T = TypeVar("T")


class DomainError(ValueError):
    """Raised when a domain invariant is violated."""


class MalformedRecordError(ValueError):
    """A line of a JSON-lines file does not parse; the message names file:line."""


# --- records -----------------------------------------------------------------

Cell = str | int | float | None  # one value of a SQL or tool result row
_LIST = frozenset((list,))


class RecordTypeError(ValueError):
    """A JSON value does not have the type its field declares; the message
    names the field path, as ``sql_trace[0].expected_rows[2][1]``."""

    def __init__(self, path: str, detail: str) -> None:
        super().__init__(f"{path}: {detail}" if path else detail)
        self.path, self.detail = path, detail

    def under(self, key: str | int) -> RecordTypeError:
        """This error as seen from the list or object holding it at ``key``."""
        head = f"[{key}]" if isinstance(key, int) else key
        joint = "." if self.path[:1] not in ("", "[") else ""
        return RecordTypeError(head + joint + self.path, self.detail)


def decode(cls: type[T], data: Any) -> T:
    """Build ``cls`` from a JSON value, checking each value as it is built
    against its annotation: a dataclass, ``str``, ``int`` (not a bool),
    ``float`` (an int is read as a float), ``bool``, ``Any``, ``X | None``,
    ``Cell``, ``tuple[X, ...]``, ``list[X]`` or ``dict[str, X]``. A field reads
    the key of its name or takes its default; unknown keys are ignored. A
    wrong type raises :class:`RecordTypeError`; a missing field, ``TypeError``."""
    return _decoder(cls)(data)


def encode(value: Any) -> Any:
    """The JSON value of a record, as the ``default=`` of ``json.dumps``: a
    dataclass is the object of its fields in declaration order, the order its
    ``__init__`` sets them (``json`` writes tuples as lists), except that an
    answer writes only the fields of its kind. Anything else raises
    ``TypeError``, as ``json.dumps`` does without a default."""
    if type(value) is CanonicalAnswer:
        return value.to_dict()
    if is_dataclass(type(value)):  # a record, not a dataclass type
        return _encoder(type(value))(value)
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


@cache
def _encoder(cls: type) -> Callable[[Any], dict[str, Any]]:
    """The JSON object of a ``cls`` record, from a getter built once per class:
    ``vars()`` gives the same, but leaves the record a ``__dict__`` as long as it lives."""
    names = tuple(f.name for f in fields(cls))
    # attrgetter of one name returns the bare value, and of none is an error
    get = attrgetter(*names) if len(names) > 1 else lambda v: tuple(getattr(v, n) for n in names)
    return lambda value: dict(zip(names, get(value)))


def _kept(t: Any) -> frozenset[type]:
    """The JSON types of a value that decodes to itself as annotation ``t``
    after one check of its type; empty if decoding converts or recurses."""
    if isinstance(t, UnionType):
        kinds = [_kept(a) for a in get_args(t)]
        return frozenset().union(*kinds) if all(kinds) else frozenset()
    if t in (str, int, float, bool, NoneType, dict[str, Any], list[Any]):
        return frozenset((get_origin(t) or t,))
    return frozenset()


def _mismatch(expected: Any, value: Any) -> RecordTypeError:
    name = getattr(expected, "__name__", expected)
    return RecordTypeError("", f"expected {name}, got {type(value).__name__}")


@cache
def _decoder(t: Any) -> Callable[[Any], Any]:
    """The decode function of annotation ``t``, built once per annotation."""
    kinds, origin, args = _kept(t), get_origin(t), get_args(t)
    if kinds:

        def scalar(value: Any) -> Any:
            if type(value) in kinds:
                return value
            if float in kinds and type(value) is int:
                return float(value)
            raise _mismatch(t, value)

        return scalar
    if t is Any:
        return lambda value: value
    if isinstance(t, UnionType) and len(args) == 2 and NoneType in args:
        inner = _decoder(args[0] if args[1] is NoneType else args[1])
        return lambda value: None if value is None else inner(value)
    if origin is list or (origin is tuple and args[1:] == (Ellipsis,)):
        return _container(origin, list, args[0])
    if origin is dict and args[0] is str:
        return _container(dict, dict, args[1])
    if is_dataclass(t):
        return _record(t)
    raise TypeError(f"decode does not support the annotation {t!r}")


def _container(make: type, shape: type, item_t: Any) -> Callable[[Any], Any]:
    """The decode function of a JSON ``shape`` (list or dict) read as ``make``."""
    decode_item, kinds = _decoder(item_t), _kept(item_t)
    # rows: a list of lists of scalars is checked in one pass over its cells
    row = get_origin(item_t)
    cells = _kept(get_args(item_t)[0]) if shape is list and row in (tuple, list) else frozenset()

    def build(value: Any) -> Any:
        if type(value) is not shape:
            raise _mismatch(shape, value)
        if kinds.issuperset(map(type, value.values() if shape is dict else value)):
            return value if make is shape else make(value)
        if cells and _LIST.issuperset(map(type, value)):
            if cells.issuperset(map(type, chain.from_iterable(value))):
                return make(map(row, value))
        items = []
        try:
            for key, item in value.items() if shape is dict else enumerate(value):
                items.append(decode_item(item))
        except RecordTypeError as exc:
            raise exc.under(key) from None
        return dict(zip(value, items)) if shape is dict else make(items)

    return build


def _record(cls: type) -> Callable[[Any], Any]:
    hints = get_type_hints(cls)
    # a value of one of its field's kinds is kept without a decoder call
    specs = [(f.name, _decoder(hints[f.name]), _kept(hints[f.name])) for f in fields(cls)]

    def build(value: Any) -> Any:
        if type(value) is not dict:
            raise _mismatch(dict, value)
        kwargs = {}
        try:
            for name, decode_field, kinds in specs:
                item = value.get(name, MISSING)
                if item is not MISSING:
                    kwargs[name] = item if type(item) in kinds else decode_field(item)
        except RecordTypeError as exc:
            raise exc.under(name) from None
        return cls(**kwargs)

    return build


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


# each answer kind, declared once with the fields that carry its payload
ANSWER_KINDS = {
    "entity_set": ("entities",),  # a multiset of entity names (>= 1)
    "number": ("value", "unit"),  # the unit is normalized on compare
    "duration": ("value",),  # seconds (>= 0)
    "distance": ("value",),  # meters (>= 0)
    "boolean": ("flag",),  # only read: no answer rule derives it, no reply names it
    "text": ("text",),
}


@dataclass(frozen=True)
class CanonicalAnswer:
    """Tagged union over the answer kinds of :data:`ANSWER_KINDS`. A derived
    duration or distance is whole (:meth:`duration`, :meth:`distance`); one
    parsed from a reply is taken as written."""

    kind: str
    entities: tuple[str, ...] = ()
    value: float = 0.0
    unit: str = ""
    flag: bool = False
    text: str = ""

    def __post_init__(self) -> None:
        if self.kind not in ANSWER_KINDS:
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
    def from_text(cls, text: str) -> "CanonicalAnswer":
        return cls(kind="text", text=text)

    def items(self) -> tuple[Any, ...]:
        """Decompose to comparable items (used by exact match and item-level F1)."""
        if self.kind == "entity_set":
            return tuple(sorted(normalize_text(e) for e in self.entities))
        if self.kind == "number":
            dim, norm = _normalize_unit(self.value, self.unit)
            return (("number", dim, norm),)
        if self.kind == "text":
            return (("text", normalize_text(self.text)),)
        (payload,) = ANSWER_KINDS[self.kind]  # a duration, a distance or a flag
        return ((self.kind, getattr(self, payload)),)

    def to_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {"kind": self.kind}
        for name in ANSWER_KINDS[self.kind]:
            value = getattr(self, name)
            out[name] = list(value) if type(value) is tuple else value
        return out

    from_dict = classmethod(decode)


def answer_equal(pred: CanonicalAnswer, gold: CanonicalAnswer) -> bool:
    """Strict exact match. Entity sets compare as multisets after whitespace
    normalization; scalar kinds compare after unit normalization; comparison
    across kinds is always false."""
    if pred.kind != gold.kind:
        return False
    return pred.items() == gold.items()


def select_entities(
    rule: str, scored: Iterable[tuple[str, float]], op: str = "<=", bound: float | None = None
) -> list[str]:
    """The names a post-tool rule picks from ``(name, value)`` pairs, for the gold
    answers and the map specialist alike. ``argmin``/``argmax``: the name of least
    or greatest value, ties going to the least name. Any other rule is a threshold:
    each name whose value is ``<=`` the bound (``>=`` for another ``op``), in order."""
    if rule in ("argmin", "argmax"):
        sign = 1.0 if rule == "argmin" else -1.0
        return [min(scored, key=lambda s: (sign * s[1], s[0]))[0]]
    return [name for name, value in scored if (value <= bound if op == "<=" else value >= bound)]


# --- supervision -------------------------------------------------------------


@dataclass(frozen=True)
class SlotAnnotation:
    slot_type: str
    value: str
    start: int
    end: int

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
class SluPrediction:
    intents: tuple[str, ...]
    slots: tuple[SlotAnnotation, ...]


@dataclass(frozen=True)
class SqlStep:
    statement: str
    # column order preserved
    expected_columns: tuple[str, ...]
    expected_rows: tuple[tuple[Cell, ...], ...]


@dataclass(frozen=True)
class ToolStep:
    function: str
    params: dict[str, Cell] = field(default_factory=dict)
    expected_columns: tuple[str, ...] = ()
    expected_rows: tuple[tuple[Cell, ...], ...] = ()

    def __post_init__(self) -> None:
        if self.function not in TOOL_FUNCTIONS:
            raise DomainError(f"unknown tool function: {self.function}")


def check_question_type(
    where: str, question_type: int, sql_steps: Sized, tool_steps: Sized
) -> None:
    """What each question type carries, for templates and instances alike: at
    least one SQL step, and tool steps for types 2 and 3 only. A violation
    raises :class:`DomainError`, its message led by ``where``."""
    if question_type not in QUESTION_TYPES:
        problem = f"question_type must be 1, 2 or 3, not {question_type!r}"
    elif question_type == 1 and tool_steps:
        problem = "type 1 takes no tool steps"
    elif question_type != 1 and not tool_steps:
        problem = f"type {question_type} needs tool steps"
    elif not sql_steps:
        problem = "at least one SQL step is required"
    else:
        return
    raise DomainError(f"{where}: {problem}")


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
        check_question_type(self.id, self.question_type, self.sql_trace, self.tool_trace)
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


def instance_to_json(inst: QAInstance) -> str:
    # span annotations are canonical; IOB rides along for tagger training
    record = {**encode(inst), "iob": iob_tags(inst.question, inst.slots)}
    return json.dumps(record, default=encode, ensure_ascii=False, sort_keys=True)


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
                name = type(exc).__name__
                raise MalformedRecordError(f"{path}:{lineno}: {name}: {exc}") from exc
            yield record


def read_instances(path: str) -> Iterator[QAInstance]:
    """Yield the instances of a JSON-lines file; a line that does not parse
    raises :class:`MalformedRecordError`."""
    yield from read_json_lines(path, _decoder(QAInstance))


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
