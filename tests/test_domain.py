"""Domain vocabulary: haversine against an independent oracle, exact-match
answer comparison, serialization round-trips, IOB export."""

from __future__ import annotations

import json
import math
import random

import pytest

from estateqa.domain import (
    ANSWER_KINDS,
    CanonicalAnswer,
    DomainError,
    GeoPoint,
    QAInstance,
    SlotAnnotation,
    answer_equal,
    decode,
    haversine,
    instance_to_json,
    iob_tags,
    locate_slot,
    normalize_text,
    tokenize_question,
)


def law_of_cosines_distance(a: GeoPoint, b: GeoPoint) -> float:
    """Independent oracle: spherical law of cosines on the same sphere."""
    lat1, lon1 = math.radians(a.latitude), math.radians(a.longitude)
    lat2, lon2 = math.radians(b.latitude), math.radians(b.longitude)
    cos_c = math.sin(lat1) * math.sin(lat2) + math.cos(lat1) * math.cos(lat2) * math.cos(
        lon2 - lon1
    )
    return 6_371_000.0 * math.acos(max(-1.0, min(1.0, cos_c)))


def test_identical_points_zero():
    p = GeoPoint(23.13, 113.26)
    assert haversine(p, p) == 0.0


def test_one_degree_longitude_at_equator():
    d = haversine(GeoPoint(0, 0), GeoPoint(0, 1))
    assert d == pytest.approx(6_371_000 * math.pi / 180, abs=1e-6)
    assert d == pytest.approx(111_195, abs=1.0)
    assert d == pytest.approx(law_of_cosines_distance(GeoPoint(0, 0), GeoPoint(0, 1)), abs=0.1)


def test_haversine_matches_law_of_cosines_oracle():
    a = GeoPoint(23.13, 113.26)
    b = GeoPoint(23.14, 113.27)
    assert haversine(a, b) == pytest.approx(law_of_cosines_distance(a, b), abs=0.1)


def test_haversine_symmetric_and_nonnegative():
    rng = random.Random(42)
    for _ in range(500):
        a = GeoPoint(rng.uniform(-80, 80), rng.uniform(-179, 179))
        b = GeoPoint(rng.uniform(-80, 80), rng.uniform(-179, 179))
        d_ab = haversine(a, b)
        assert d_ab >= 0
        assert d_ab == haversine(b, a)


def test_geopoint_range_validation():
    with pytest.raises(DomainError):
        GeoPoint(95.0, 0.0)
    with pytest.raises(DomainError):
        GeoPoint(0.0, 181.0)


# --- answers --------------------------------------------------------------------


def test_entity_set_multiset_symmetry():
    a = CanonicalAnswer.entity_set(["A", "B"])
    b = CanonicalAnswer.entity_set(["B", "A"])
    assert answer_equal(a, b)
    assert answer_equal(b, a)


def test_entity_set_cardinality_mismatch():
    assert not answer_equal(
        CanonicalAnswer.entity_set(["A", "B"]), CanonicalAnswer.entity_set(["A"])
    )


def test_entity_set_true_multiset():
    assert not answer_equal(
        CanonicalAnswer.entity_set(["A", "A", "B"]), CanonicalAnswer.entity_set(["A", "B", "B"])
    )


def test_cross_kind_comparison_false():
    number = CanonicalAnswer.number(3, "count")
    entities = CanonicalAnswer.entity_set(["A", "B", "C"])
    assert not answer_equal(number, entities)
    assert not answer_equal(entities, number)


def test_text_whitespace_normalization():
    assert answer_equal(
        CanonicalAnswer.entity_set(["Jade  Court "]), CanonicalAnswer.entity_set(["Jade Court"])
    )
    assert normalize_text("  a \t b\n") == "a b"


def test_unit_normalization():
    assert answer_equal(CanonicalAnswer.number(1, "km"), CanonicalAnswer.number(1000, "m"))
    assert answer_equal(CanonicalAnswer.number(2, "min"), CanonicalAnswer.number(120, "s"))
    assert not answer_equal(CanonicalAnswer.number(1, "km"), CanonicalAnswer.number(1, "m"))
    # unknown units compare by case-folded string
    assert answer_equal(
        CanonicalAnswer.number(42, "Yuan per square meter"),
        CanonicalAnswer.number(42, "yuan per square meter"),
    )


def _random_answer(rng: random.Random) -> CanonicalAnswer:
    kind = rng.choice(tuple(ANSWER_KINDS))
    if kind == "entity_set":
        return CanonicalAnswer.entity_set(
            [rng.choice("ABCDE") for _ in range(rng.randint(1, 4))]
        )
    if kind == "number":
        return CanonicalAnswer.number(rng.randint(0, 50), rng.choice(["m", "km", "count", ""]))
    if kind == "duration":
        return CanonicalAnswer.duration(rng.randint(0, 5000))
    if kind == "distance":
        return CanonicalAnswer.distance(rng.randint(0, 5000))
    if kind == "boolean":
        return CanonicalAnswer(kind="boolean", flag=rng.random() < 0.5)
    return CanonicalAnswer.from_text(rng.choice(["yes", "no", "maybe"]))


def test_answer_equal_reflexive_and_symmetric():
    rng = random.Random(7)
    answers = [_random_answer(rng) for _ in range(200)]
    for a in answers:
        assert answer_equal(a, a)
    for _ in range(200):
        a, b = rng.choice(answers), rng.choice(answers)
        assert answer_equal(a, b) == answer_equal(b, a)


def test_negative_duration_rejected():
    with pytest.raises(DomainError):
        CanonicalAnswer(kind="duration", value=-1)
    with pytest.raises(DomainError):
        CanonicalAnswer.entity_set([])


# --- instances ---------------------------------------------------------------------


def test_serialization_round_trip_bit_identical(desk_instances):
    for inst in desk_instances:
        line = instance_to_json(inst)
        again = decode(QAInstance, json.loads(line))
        assert again == inst
        assert instance_to_json(again) == line


def test_export_carries_iob_with_tokenization_id(desk_instances):
    record = json.loads(instance_to_json(desk_instances[0]))
    assert record["iob"]["tokenization"] == "ws-regex-v1"
    assert len(record["iob"]["tokens"]) == len(record["iob"]["tags"])


def test_slot_span_invariant_enforced(desk_instances):
    inst = desk_instances[0]
    bad = SlotAnnotation("community_name", "definitely not there", 0, 20)
    with pytest.raises(DomainError):
        bad.check_against(inst.question)
    for slot in inst.slots:
        assert inst.question[slot.start : slot.end] == slot.value


def test_type_invariants(desk_instances):
    for inst in desk_instances:
        assert inst.sql_trace
        if inst.question_type == 1:
            assert not inst.tool_trace
        else:
            assert inst.tool_trace


# --- IOB export -----------------------------------------------------------------------


@pytest.mark.parametrize(
    "question, value, taken, expected",
    [
        ("Alpha Alpha Court", "Alpha", [(6, 17)], (0, 5)),
        ("Alpha Alpha Court", "Alpha", [(0, 5)], (6, 11)),
        ("aaa", "aa", [(0, 1)], (1, 3)),
        ("Alpha Court", "Alpha", [(0, 11)], None),
        ("Alpha Court", "Beta", [], None),
    ],
)
def test_locate_slot_takes_first_free_occurrence(question, value, taken, expected):
    before = list(taken)
    slot = locate_slot(question, "community", value, taken)
    if expected is None:
        assert slot is None and taken == before
    else:
        assert slot == SlotAnnotation("community", value, *expected)
        assert taken == before + [expected]


def test_iob_tags_mark_slot_tokens():
    question = "How far is Jade Court from Lotus Park?"
    slots = [
        SlotAnnotation("community_name", "Jade Court", 11, 21),
        SlotAnnotation("poi_name", "Lotus Park", 27, 37),
    ]
    export = iob_tags(question, slots)
    assert export["tokenization"] == "ws-regex-v1"
    tokens, tags = export["tokens"], export["tags"]
    assert tags[tokens.index("Jade")] == "B-community_name"
    assert tags[tokens.index("Court")] == "I-community_name"
    assert tags[tokens.index("Lotus")] == "B-poi_name"
    assert tags[tokens.index("Park")] == "I-poi_name"
    assert tags[tokens.index("How")] == "O"


def test_iob_tags_on_generated_instances(desk_instances):
    for inst in desk_instances[:50]:
        export = iob_tags(inst.question, inst.slots)
        assert len(export["tokens"]) == len(export["tags"])
        begins = sum(1 for t in export["tags"] if t.startswith("B-"))
        assert begins == len(inst.slots)


def test_tokenizer_offsets():
    question = "Price of A-1, please."
    for token, start, end in tokenize_question(question):
        assert question[start:end] == token
