"""Persisted records: every typed value of a sample dataset, transcript, cache
and template record, given each JSON type its field rejects, fails to read
with the file, line and field path; and what decoding must not change."""

from __future__ import annotations

import copy
import gc
import json
import re
from dataclasses import fields, is_dataclass, replace
from functools import partial
from pathlib import Path
from types import NoneType, UnionType
from typing import Any, Union, get_args, get_origin, get_type_hints

import pytest

from estateqa.domain import (
    CanonicalAnswer,
    MalformedRecordError,
    QAInstance,
    RecordTypeError,
    SlotAnnotation,
    decode,
    encode,
    instance_to_json,
    read_instances,
    read_json_lines,
    write_instances,
)
from estateqa.slu import SluPrediction
from estateqa.store import StoreConfig
from estateqa.supervisor import EpisodeTranscript
from estateqa.templates import DEFAULT_TEMPLATE_DICTS, Template, TemplateError, load_template_dir
from estateqa.tools import CacheEntry, ToolCache

ROUTE = {"dest_lat": 23.124172, "dest_lon": 113.26474, "mode": "walking",
         "origin_lat": 23.120026, "origin_lon": 113.265212}
SQL = ("SELECT name, latitude, longitude FROM community_guangzhou WHERE name = 'Orchid Towers'"
       " UNION ALL SELECT name, latitude, longitude FROM poi_guangzhou WHERE name = 'Pearl Clinic'")
SLOTS = [
    {"end": 25, "slot_type": "community_name", "start": 12, "value": "Orchid Towers"},
    {"end": 41, "slot_type": "poi_name", "start": 29, "value": "Pearl Clinic"},
]
QUESTION = ("To get from Orchid Towers to Pearl Clinic in Guangzhou, which is faster:"
            " walking or public transit?")

# one line of each record kind, as `generate`, `run` and the cache write them
DATASET_LINE = {
    "id": "t3_walk_or_transit-11-00016",
    "template_id": "t3_walk_or_transit",
    "city": "Guangzhou",
    "question": QUESTION,
    "question_type": 3,
    "intents": ["mode_comparison"],
    "slots": SLOTS,
    "iob": {"tokenization": "ws-regex-v1", "tokens": [], "tags": []},
    "sql_trace": [{
        "statement": SQL,
        "expected_columns": ["name", "latitude", "longitude"],
        "expected_rows": [["Orchid Towers", 23.120026, 113.265212],
                          ["Pearl Clinic", 23.124172, 113.26474]],
    }],
    "tool_trace": [{
        "function": "time_query",
        "params": {**ROUTE, "time_bucket": "midnight_00"},
        "expected_columns": ["mode", "bucket", "duration_s"],
        "expected_rows": [["walking", "midnight_00", 434]],
    }],
    "agent_route": ["db_agent", "map_agent"],
    "answer": {"kind": "entity_set", "entities": ["walking"]},
    "nl_answer": "The answer is walking.",
}
TRANSCRIPT_LINE = {
    "instance_id": "t3_walk_or_transit-11-00016",
    "question": QUESTION,
    "dispatches": [{
        "specialist": "db_agent",
        "description": "query tables",
        "status": "success",
        "evidence": [{"type": "sql", "statement": SQL, "ok": True,
                      "columns": ["name", "latitude", "longitude"],
                      "rows": [["Orchid Towers", 23.120026, 113.265212]]}],
        "error_report": "",
    }],
    "backend_events": [{"stage": "plan", "response": "DISPATCH db_agent: query tables"}],
    "final_answer": {"kind": "number", "value": 434.0, "unit": "s"},
    "step_count": 3,
    "failure": "",
    "slu": {"intents": ["mode_comparison"], "slots": SLOTS},
}
CACHE_LINE = {
    "bucket": "midnight_00",
    "function": "time_query",
    "key": json.dumps({"bucket": "midnight_00", "function": "time_query", "params": ROUTE},
                      sort_keys=True, separators=(",", ":")),
    "params": ROUTE,
    "payload": {"columns": ["mode", "bucket", "duration_s"],
                "rows": [["walking", "midnight_00", 434]]},
    "provenance": {"provider_name": "synthetic-v1", "recorded_at": "2025-01-06T00:00+08:00"},
}
TEMPLATE_DOC = next(d for d in DEFAULT_TEMPLATE_DICTS if d["template_id"] == "t3_rush_threshold")


def _fields(cls: type) -> dict[str, Any]:
    hints = get_type_hints(cls)
    return {f.name: hints[f.name] for f in fields(cls)}


# record kind -> (sample, the annotation of each top-level key)
RECORDS = {
    "dataset": (DATASET_LINE, _fields(QAInstance)),
    "transcript": (TRANSCRIPT_LINE, _fields(EpisodeTranscript)),
    "cache": (CACHE_LINE, _fields(CacheEntry)),
    "template": (TEMPLATE_DOC, _fields(Template)),
}

# a value of each JSON type
JSON_VALUES = [None, True, 7, 7.5, "x", [], {}]


def _children(annotation: Any, value: Any) -> list[tuple[Any, Any, Any]]:
    """(key, annotation, value) of each typed value inside ``value``; a list
    gives its first item only. A record's annotation may be given as the
    dict of its keys' annotations."""
    if get_origin(annotation) in (Union, UnionType):
        inner = [a for a in get_args(annotation) if a is not NoneType]
        if value is None or len(inner) != 1:
            return []
        annotation = inner[0]
    if is_dataclass(annotation) or isinstance(annotation, dict):
        declared = annotation if isinstance(annotation, dict) else _fields(annotation)
        return [(k, declared[k], v) for k, v in value.items() if k in declared]
    origin, args = get_origin(annotation), get_args(annotation)
    if origin in (tuple, list):
        return [(0, args[0], value[0])] if value else []
    if origin is dict:
        return [(k, args[1], v) for k, v in value.items()]
    return []


def _nodes(annotation: Any, value: Any, steps: tuple = ()):
    """(steps, annotation) of every typed value inside ``value``, depth first."""
    for key, child, item in _children(annotation, value):
        yield (*steps, key), child
        yield from _nodes(child, item, (*steps, key))


def _accepted(annotation: Any) -> set[type]:
    """The JSON types a value of ``annotation`` may have."""
    if annotation is Any:
        return {type(v) for v in JSON_VALUES}
    if annotation is float:
        return {int, float}
    if get_origin(annotation) in (Union, UnionType):
        return set().union(*map(_accepted, get_args(annotation)))
    origin = get_origin(annotation) or annotation
    if origin in (tuple, list):
        return {list}
    if origin is dict or is_dataclass(origin):
        return {dict}
    return {annotation}


def _path(steps: tuple) -> str:
    return "".join(
        f"[{s}]" if isinstance(s, int) else (s if i == 0 else f".{s}") for i, s in enumerate(steps)
    )


def _replaced(record: dict[str, Any], steps: tuple, value: Any) -> dict[str, Any]:
    out = copy.deepcopy(record)
    holder = out
    for step in steps[:-1]:
        holder = holder[step]
    holder[steps[-1]] = value
    return out


def _read(kind: str, record: dict[str, Any], tmp_path) -> None:
    """Write ``record`` as the first line (or the document) of a file of its
    kind under ``tmp_path``, and read it back with that kind's reader."""
    if kind == "template":
        path = tmp_path / "t.json"
        path.write_text(json.dumps(record), encoding="utf-8")
        load_template_dir(tmp_path)
    else:
        path = tmp_path / f"{kind}.jsonl"
        path.write_text(json.dumps(record) + "\n", encoding="utf-8")
        if kind == "dataset":
            list(read_instances(path))
        elif kind == "transcript":
            list(read_json_lines(path, partial(decode, EpisodeTranscript)))
        else:
            ToolCache.load(path)


def _wrong_type_cases():
    for kind, (sample, declared) in RECORDS.items():
        for steps, annotation in _nodes(declared, sample):
            rejected = [v for v in JSON_VALUES if type(v) not in _accepted(annotation)]
            if rejected:
                yield pytest.param(kind, steps, rejected, id=f"{kind}-{_path(steps)}")


@pytest.mark.parametrize("kind", sorted(RECORDS))
def test_sample_record_reads(kind, tmp_path):
    _read(kind, RECORDS[kind][0], tmp_path)


@pytest.mark.parametrize("kind, steps, rejected", _wrong_type_cases())
def test_wrong_json_type_names_file_line_and_field(kind, steps, rejected, tmp_path):
    """Every typed value of every record kind, given each JSON type it rejects."""
    sample = RECORDS[kind][0]
    for value in rejected:
        error = TemplateError if kind == "template" else MalformedRecordError
        with pytest.raises(error) as caught:
            _read(kind, _replaced(sample, steps, value), tmp_path)
        where = str(tmp_path / "t.json") if kind == "template" else f"{tmp_path / kind}.jsonl:1:"
        message = str(caught.value)
        assert message.startswith(where), message
        assert f" {_path(steps)}: expected " in message, (value, message)


# --- what decoding and encoding must not change ----------------------------------------

TRANSCRIPT = decode(EpisodeTranscript, TRANSCRIPT_LINE)


def _round_trip(value: Any) -> Any:
    """``value`` written as `encode` writes records, and read back by `decode`."""
    return decode(type(value), json.loads(json.dumps(value, default=encode)))


def test_generated_dataset_round_trips_byte_for_byte(desk_instances, tmp_path):
    first, second = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    write_instances(str(first), desk_instances)
    write_instances(str(second), read_instances(str(first)))
    assert first.read_bytes() == second.read_bytes()
    for instance in desk_instances:
        assert _round_trip(instance) == instance


@pytest.mark.parametrize("answer", [
    CanonicalAnswer.entity_set(["Jade Court", "Bay Park"]),
    CanonicalAnswer.number(1.5, "km"),
    CanonicalAnswer.duration(600),
    CanonicalAnswer.distance(1500),
    CanonicalAnswer(kind="boolean", flag=True),
    CanonicalAnswer.from_text("Jade Court"),
], ids=lambda a: a.kind)
def test_every_answer_kind_round_trips(answer):
    assert decode(CanonicalAnswer, answer.to_dict()) == answer
    assert CanonicalAnswer.from_dict(answer.to_dict()) == answer
    assert json.loads(json.dumps(answer, default=encode)) == answer.to_dict()
    for slu in (TRANSCRIPT.slu, None):
        transcript = replace(TRANSCRIPT, final_answer=answer, slu=slu)
        assert _round_trip(transcript) == transcript


def test_cache_entry_and_store_config_round_trip():
    entry = decode(CacheEntry, CACHE_LINE)
    assert _round_trip(entry) == entry
    config = StoreConfig(cities=("Guangzhou", "Suzhou"), fixture_seed=7)
    assert _round_trip(config) == config


def test_transcript_line_keys_are_the_fields_in_order():
    written = json.loads(json.dumps(TRANSCRIPT, default=encode))
    assert list(written) == [f.name for f in fields(EpisodeTranscript)]
    assert written == TRANSCRIPT_LINE


def _records_in(value: Any) -> list[Any]:
    """``value`` and every record nested in its fields, lists and tuples."""
    if is_dataclass(value):
        return [value, *(r for f in fields(value) for r in _records_in(getattr(value, f.name)))]
    if isinstance(value, (list, tuple)):
        return [r for item in value for r in _records_in(item)]
    return []


@pytest.mark.parametrize("kind", ["dataset", "transcript", "cache"])
def test_encoding_leaves_nothing_on_the_records(kind):
    """Writing a record reads its fields, and does not give it (or a record
    inside it) a ``__dict__`` that lasts as long as the record."""
    line, _ = RECORDS[kind]
    record = decode({"dataset": QAInstance, "transcript": EpisodeTranscript,
                     "cache": CacheEntry}[kind], line)
    nested = _records_in(record)
    held = [list(map(id, gc.get_referents(r))) for r in nested]  # fields' values and type
    instance_to_json(record) if kind == "dataset" else json.dumps(record, default=encode)
    assert [list(map(id, gc.get_referents(r))) for r in nested] == held


@pytest.mark.parametrize("value", [b"x", {1}, object(), QAInstance],
                         ids=["bytes", "set", "object", "dataclass_type"])
def test_encode_refuses_what_is_not_a_record(value):
    with pytest.raises(TypeError, match="is not JSON serializable"):
        json.dumps({"cell": value}, default=encode)


def test_readme_data_model_lists_the_keys_of_a_dataset_line(desk_instances):
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Data model\n", 1)[1].split("\n## ", 1)[0]
    cells = [line.split("|")[1] for line in section.splitlines() if line.startswith("| `")]
    listed = [name for cell in cells for name in re.findall(r"`(\w+)`", cell)]
    written = json.loads(instance_to_json(desk_instances[0]))
    assert sorted(listed) == sorted(written)
    assert set(written) == {f.name for f in fields(QAInstance)} | {"iob"}


def test_int_in_a_float_field_reads_as_float():
    answer = decode(CanonicalAnswer, {"kind": "duration", "value": 5})
    assert answer.value == 5.0 and type(answer.value) is float


def test_bool_in_an_int_field_is_rejected():
    with pytest.raises(RecordTypeError, match="^start: expected int, got bool$"):
        decode(SlotAnnotation, {"slot_type": "city", "value": "x", "start": True, "end": 1})


@pytest.mark.parametrize("field, value", [("question_type", "3"), ("question_type", 3.0)])
def test_question_type_is_not_coerced(field, value):
    with pytest.raises(RecordTypeError, match=f"^{field}: expected int"):
        decode(QAInstance, {**DATASET_LINE, field: value})


def test_entities_given_as_a_string_are_rejected():
    with pytest.raises(RecordTypeError, match="^entities: expected list, got str$"):
        decode(CanonicalAnswer, {"kind": "entity_set", "entities": "abc"})


def test_unknown_answer_kind_with_text_is_rejected():
    with pytest.raises(ValueError, match="unknown answer kind: prose"):
        decode(CanonicalAnswer, {"kind": "prose", "text": "Jade Court"})


def test_unknown_key_iob_is_ignored_and_slu_is_read(desk_instances):
    record = json.loads(instance_to_json(desk_instances[0]))
    assert "iob" in record
    assert decode(QAInstance, record) == desk_instances[0]
    assert TRANSCRIPT.slu == decode(SluPrediction, TRANSCRIPT_LINE["slu"])
    assert TRANSCRIPT.slu.slots[1] == SlotAnnotation("poi_name", "Pearl Clinic", 29, 41)


def test_missing_slu_is_no_prediction():
    line = {k: v for k, v in TRANSCRIPT_LINE.items() if k != "slu"}
    assert decode(EpisodeTranscript, line).slu is None


def test_missing_required_field_is_named():
    line = {k: v for k, v in DATASET_LINE.items() if k != "city"}
    with pytest.raises(TypeError, match="missing 1 required positional argument: 'city'"):
        decode(QAInstance, line)
