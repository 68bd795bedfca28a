"""Generator pipeline: binding sampling, span tracking, answer rules,
plausibility, splitting, and re-validation."""

from __future__ import annotations

import hashlib
import json
import math
import random
import re

import pytest

from estateqa import generator as generator_module, store as store_module
from estateqa.domain import (
    CanonicalAnswer,
    QAInstance,
    SqlStep,
    ToolStep,
    decode,
    write_instances,
)
from estateqa.generator import (
    AnswerUnderivable,
    SamplingExhausted,
    derive_answer,
    fill_question,
    generate,
    instantiate,
    plausibility_check,
    revalidate_instance,
    sample_bindings,
    stratified_split,
)
from estateqa.store import StoreConfig
from estateqa.templates import (
    DEFAULT_TEMPLATE_DICTS,
    Template,
    TemplateError,
    _route_params,
    default_templates,
    load_template_dir,
)
from estateqa.tools import SyntheticProvider, ToolCache

from test_store import COMMUNITY_HEADER, POI_HEADER, _community_row, _write_rows, ingest

METERS_PER_DEG = 6_371_000 * math.pi / 180


def template_by_id(template_id: str) -> Template:
    return next(t for t in default_templates() if t.template_id == template_id)


def template_doc(template_id: str) -> dict:
    """The shipped template document of ``template_id``."""
    return next(d for d in DEFAULT_TEMPLATE_DICTS if d["template_id"] == template_id)


# --- binding sampling ---------------------------------------------------------


def test_same_seed_same_bindings(desk_store):
    template = template_by_id("t3_least_drive")
    a = sample_bindings(template, desk_store, random.Random("s1"))
    b = sample_bindings(template, desk_store, random.Random("s1"))
    assert a == b


def test_repeated_placeholders_get_distinct_entities(desk_store):
    template = template_by_id("t3_least_drive")
    for trial in range(20):
        binding = sample_bindings(template, desk_store, random.Random(trial))
        names = {binding["community_name"], binding["community_name_2"],
                 binding["community_name_3"]}
        assert len(names) == 3


def test_sampling_exhausted_when_store_too_small(tmp_path):
    config = StoreConfig(cities=("Smalltown",), fixture_seed=1)
    _write_rows(
        tmp_path / "communities_smalltown.csv",
        COMMUNITY_HEADER,
        [
            _community_row("c0", "Alpha Court", 23.0, 113.0, city="Smalltown"),
            _community_row("c1", "Beta Court", 23.001, 113.0, city="Smalltown"),
        ],
    )
    _write_rows(
        tmp_path / "pois_smalltown.csv",
        POI_HEADER,
        [["p0", "Smalltown", "Gamma Park", "park", "park", 23.0, 113.001]],
    )
    store = ingest(config, tmp_path / "store.db", tmp_path)
    template = template_by_id("t3_least_drive")  # needs 3 distinct communities
    with pytest.raises(SamplingExhausted):
        sample_bindings(template, store, random.Random(0))


def test_derived_bindings(desk_store):
    template = template_by_id("t2_nearby_pois")
    binding = sample_bindings(template, desk_store, random.Random(4))
    assert binding["radius_m"] == binding["radius_km"] * 1000
    assert binding["city_slug"] in ("guangzhou", "suzhou")


def _surrounding(placeholder: str) -> dict:
    return {
        "function": "surrounding_pois_query",
        "params": {"center_lat": f"@lat:{{{placeholder}}}", "center_lon": f"@lon:{{{placeholder}}}",
                   "radius_m": 3000, "label": "{poi_label}"},
    }


CUSTOM_TEMPLATES = {
    # seconds = minutes, so a ">=" threshold keeps every community
    "derived_without_op": {
        **template_doc("t3_reach_within"),
        "derived": {"seconds": {"from": "minutes"}},
        "answer_rule": {**template_by_id("t3_reach_within").answer_rule, "op": ">="},
    },
    # argmin labels resolved from each surrounding_pois_query step's center
    "labels_at_center": {
        **template_doc("t3_closest_walk"),
        "question_pattern": "Which is nearer to a {poi_label} in {city}: {community_name} or"
                            " {community_name_2}?",
        "bindings": {"poi_label": {"kind": "poi_label"}, "community_name": {"kind": "community"},
                     "community_name_2": {"kind": "community"}},
        "sql_patterns": ["SELECT name, latitude, longitude FROM community_{city_slug}"
                         " WHERE name IN ('{community_name}', '{community_name_2}')"],
        "tool_patterns": [_surrounding("community_name"), _surrounding("community_name_2")],
    },
    # argmin labels resolved from each route's destination, not its origin
    "labels_at_destination": {
        **template_doc("t3_closest_walk"),
        "question_pattern": "Which is closer on foot to {community_name} in {city}: {poi_name} or"
                            " {poi_name_2}?",
        "bindings": {"community_name": {"kind": "community"}, "poi_name": {"kind": "poi"},
                     "poi_name_2": {"kind": "poi"}},
        "sql_patterns": ["SELECT name, latitude, longitude FROM community_{city_slug}"
                         " WHERE name = '{community_name}' UNION ALL"
                         " SELECT name, latitude, longitude FROM poi_{city_slug}"
                         " WHERE name IN ('{poi_name}', '{poi_name_2}')"],
        "tool_patterns": [
            {"function": "time_query", "params": _route_params("community_name", "poi_name", mode="walking")},
            {"function": "time_query", "params": _route_params("community_name", "poi_name_2", mode="walking")},
        ],
        "answer_rule": {"kind": "tool_argmin", "steps": [0, 1], "labels": ["{poi_name}", "{poi_name_2}"]},
    },
    # a whole-number factor written as a float, and a value derived from the implicit {city}
    "float_factor_and_city": {
        **template_doc("t3_reach_within"),
        "derived": {"seconds": {"from": "minutes", "op": "mul", "factor": 60.0},
                    "town": {"from": "city"}},
    },
}


@pytest.mark.parametrize("name", sorted(CUSTOM_TEMPLATES))
def test_custom_template_instances_revalidate(desk_store, name):
    template = decode(Template, CUSTOM_TEMPLATES[name])
    cache = ToolCache(provider=SyntheticProvider(desk_store))
    instances, _ = generate([template], desk_store, cache, seed=11, per_template=5)
    assert len(instances) == 5
    for inst in instances:
        assert revalidate_instance(inst, desk_store, cache, {template.template_id: template}) == []
        if name == "labels_at_destination":
            pois = {s.value for s in inst.slots if s.slot_type == "poi_name"}
            assert set(inst.answer.entities) <= pois


@pytest.mark.parametrize(
    "template_id, change",
    [
        ("t2_nearby_pois", {"derived": {"radius_m": {"from": "radius_km", "op": "add", "factor": 1}}}),
        ("t2_nearby_pois", {"derived": {"radius_m": {"from": "radius_km", "op": "mul"}}}),
        ("t2_nearby_pois", {"derived": {"radius_m": {"from": "radius", "op": "mul", "factor": 1}}}),
        ("t3_reach_within", {"derived": {}}),
        ("t3_reach_within", {"question_pattern": "Which of {community_name}, {community_name_2}"
                             " and {community_name_3} can reach {poi_name} in {city} quickly?"}),
        ("t3_reach_within", {"question_pattern": "Within {minutes} or {minutes_2} minutes, which"
                             " of {community_name}, {community_name_2} and {community_name_3}"
                             " can reach {poi_name} in {city}?",
                             "bindings": {**template_by_id("t3_reach_within").bindings,
                                          "minutes_2": {"kind": "choice", "values": [5]}}}),
        ("t2_nearby_pois", {"bindings": {**template_by_id("t2_nearby_pois").bindings,
                                         "radius_km": {"kind": "choice", "values": [1.5, 2]}}}),
        ("t3_closest_walk", {"answer_rule": {"kind": "tool_argmin", "steps": [0, 1],
                                             "labels": ["{community_name_2}", "{community_name}"]}}),
        ("t3_closest_walk", {"answer_rule": {"kind": "tool_argmin", "steps": [0, 2],
                                             "labels": ["{community_name}", "{community_name_2}"]}}),
        # bindings generator.sample_bindings cannot draw from
        ("t2_nearby_pois", {"bindings": {**template_by_id("t2_nearby_pois").bindings,
                                         "radius_km": {"kind": "choice", "values": []}}}),
        ("t2_nearest_x", {"bindings": {**template_by_id("t2_nearest_x").bindings,
                                       "X": {"kind": "int_range", "min": 3, "max": 1}}}),
        ("t2_nearby_pois", {"bindings": {**template_by_id("t2_nearby_pois").bindings,
                                         "radius_km": {"kind": "choice"}}}),
        # generate would ask for the 5 nearest POIs
        ("t2_nearest_x", {"bindings": {**template_by_id("t2_nearest_x").bindings,
                                       "X": {"kind": "choice", "values": [5]}}}),
    ],
    ids=["unknown_op", "mul_without_factor", "from_no_binding", "value_neither_slot_nor_derived",
         "value_not_in_question", "value_slot_type_repeated", "mul_of_fractions",
         "label_not_in_its_step", "label_step_out_of_range", "choice_of_no_values",
         "int_range_min_above_max", "choice_without_values", "x_choice_out_of_bound"],
)
def test_template_rejects_unresolvable_derivations(tmp_path, template_id, change):
    path = tmp_path / "t.json"
    path.write_text(json.dumps({**template_doc(template_id), **change}), encoding="utf-8")
    with pytest.raises(TemplateError) as caught:
        load_template_dir(tmp_path)
    assert str(caught.value).startswith(f"{path}: DomainError: {template_id}:")


def _answer_rule(template_id: str, **change) -> dict:
    """The shipped answer rule of ``template_id``, with keys changed (None drops one)."""
    rule = {**template_doc(template_id)["answer_rule"], **change}
    return {key: value for key, value in rule.items() if value is not None}


@pytest.mark.parametrize(
    "template_id, rule, problem",
    [
        ("t3_least_drive", _answer_rule("t3_least_drive", labels=["{community_name}",
                                                                   "{community_name_2}"]),
         "one label per step"),
        ("t3_reach_within", _answer_rule("t3_reach_within", value=None), "needs steps, labels, value"),
        ("t1_avg_price", _answer_rule("t1_avg_price", step=1), "each step one of its 1 sql patterns"),
        ("t2_walk_time", _answer_rule("t2_walk_time", step=1), "each step one of its 1 tool patterns"),
        ("t3_closest_walk", _answer_rule("t3_closest_walk", steps=[], labels=[]), "needs steps"),
        # values derive_answer would read as its default
        ("t3_reach_within", _answer_rule("t3_reach_within", op="<"), "op must be one of <=, >="),
        ("t2_drive_distance", _answer_rule("t2_drive_distance", answer="meters"),
         "answer must be one of duration, distance"),
        ("t1_avg_price", _answer_rule("t1_avg_price", answer="float"),
         "answer must be one of number, text"),
    ],
    ids=["label_dropped", "value_missing", "sql_step_out_of_range", "tool_step_out_of_range",
         "no_steps", "threshold_op_less", "tool_value_answer_meters", "sql_cell_answer_float"],
)
def test_template_with_an_incomplete_answer_rule_is_refused(tmp_path, template_id, rule, problem):
    # before the check, zip dropped the third step of label_dropped from the argmin
    doc = {**template_doc(template_id), "answer_rule": rule}
    (tmp_path / "t.json").write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(TemplateError, match=re.escape(problem)) as caught:
        load_template_dir(tmp_path)
    assert str(caught.value).startswith(f"{tmp_path / 't.json'}: DomainError: {template_id}:")


def test_shipped_templates_load_as_a_template_directory(tmp_path):
    # each shipped document written out as <template_id>.json reads back as the same template
    for doc in DEFAULT_TEMPLATE_DICTS:
        (tmp_path / f"{doc['template_id']}.json").write_text(json.dumps(doc), encoding="utf-8")
    loaded = {t.template_id: t for t in load_template_dir(tmp_path)}
    shipped = default_templates()
    assert sorted(loaded) == sorted(t.template_id for t in shipped)
    for template in shipped:
        assert loaded[template.template_id] == template
        # sample_bindings draws in binding order, so the order is part of the template
        assert list(loaded[template.template_id].bindings) == list(template.bindings)


def test_rule_that_cannot_derive_is_a_rejection(desk_store):
    # the threshold reads a POI name as its number: every attempt is rejected, none raises
    base = template_doc("t3_reach_within")
    template = decode(
        Template, {**base, "answer_rule": {**base["answer_rule"], "value": "{poi_name}"}}
    )
    cache = ToolCache(provider=SyntheticProvider(desk_store))
    instances, report = generate([template], desk_store, cache, seed=11, per_template=2)
    assert instances == []
    assert set(report.rejected_by_reason()) == {"rule_error"}


# --- question filling ------------------------------------------------------------


def test_fill_question_spans_track_positions():
    template = template_by_id("t2_walk_time")
    binding = {
        "city": "Guangzhou",
        "city_slug": "guangzhou",
        "community_name": "Jade Court",
        "poi_name": "Jade Court Clinic",  # contains the community name
    }
    question, slots = fill_question(template, binding)
    by_type = {s.slot_type: s for s in slots}
    assert question[by_type["community_name"].start : by_type["community_name"].end] == "Jade Court"
    assert question[by_type["poi_name"].start : by_type["poi_name"].end] == "Jade Court Clinic"
    starts = [s.start for s in slots]
    assert starts == sorted(starts)


def test_fill_question_every_slot_is_substring(desk_instances):
    for inst in desk_instances:
        for slot in inst.slots:
            assert inst.question[slot.start : slot.end] == slot.value


# --- answer rules -----------------------------------------------------------------


def _tool_step(duration: int) -> ToolStep:
    return ToolStep(
        function="time_query",
        params={"mode": "driving", "time_bucket": "midnight_00"},
        expected_columns=("mode", "bucket", "duration_s"),
        expected_rows=(("driving", "midnight_00", duration),),
    )


def _resolvers(binding):
    def scalar_of(ref):
        return binding[ref[1:-1]] if ref.startswith("{") else ref

    def label_of(label, _i):
        return str(binding[label[1:-1]]) if label.startswith("{") else label

    return scalar_of, label_of


def test_tool_argmin_picks_smallest():
    steps = (_tool_step(600), _tool_step(900), _tool_step(450))
    rule = {"kind": "tool_argmin", "steps": [0, 1, 2], "labels": ["A", "B", "C"]}
    scalar_of, label_of = _resolvers({})
    answer = derive_answer(rule, (), steps, scalar_of, label_of)
    assert answer == CanonicalAnswer.entity_set(["C"])


def test_tool_argmin_tie_breaks_lexicographically():
    steps = (_tool_step(500), _tool_step(500))
    rule = {"kind": "tool_argmin", "steps": [0, 1], "labels": ["Zeta", "Alpha"]}
    scalar_of, label_of = _resolvers({})
    assert derive_answer(rule, (), steps, scalar_of, label_of) == CanonicalAnswer.entity_set(
        ["Alpha"]
    )


def test_tool_argmin_permutation_invariant():
    rng = random.Random(9)
    for _ in range(50):
        values = [rng.randint(100, 999) for _ in range(3)]
        labels = ["A", "B", "C"]
        order = [0, 1, 2]
        rng.shuffle(order)
        steps = tuple(_tool_step(values[i]) for i in order)
        rule = {"kind": "tool_argmin", "steps": [0, 1, 2],
                "labels": [labels[i] for i in order]}
        scalar_of, label_of = _resolvers({})
        got = derive_answer(rule, (), steps, scalar_of, label_of)
        best = min(zip(values, labels))[1]
        assert got == CanonicalAnswer.entity_set([best])


def test_tool_threshold_empty_rejects():
    steps = (_tool_step(1000), _tool_step(2000))
    rule = {
        "kind": "tool_threshold",
        "steps": [0, 1],
        "labels": ["A", "B"],
        "op": "<=",
        "value": "{seconds}",
    }
    scalar_of, label_of = _resolvers({"seconds": 600})
    with pytest.raises(AnswerUnderivable) as err:
        derive_answer(rule, (), steps, scalar_of, label_of)
    assert err.value.reason == "empty_result"
    scalar_of, label_of = _resolvers({"seconds": 1500})
    assert derive_answer(rule, (), steps, scalar_of, label_of) == CanonicalAnswer.entity_set(
        ["A"]
    )


def test_tool_list_limit_insufficient():
    step = ToolStep(
        function="surrounding_pois_query",
        params={},
        expected_columns=("name", "label", "latitude", "longitude", "straight_distance_m"),
        expected_rows=(("P1", "park", 23.0, 113.0, 100), ("P2", "park", 23.0, 113.0, 200)),
    )
    rule = {"kind": "tool_list", "step": 0, "column": "name", "limit": "{X}"}
    scalar_of, label_of = _resolvers({"X": 3})
    with pytest.raises(AnswerUnderivable) as err:
        derive_answer(rule, (), (step,), scalar_of, label_of)
    assert err.value.reason == "insufficient_results"
    scalar_of, label_of = _resolvers({"X": 2})
    assert derive_answer(rule, (), (step,), scalar_of, label_of) == CanonicalAnswer.entity_set(
        ["P1", "P2"]
    )


def test_sql_argmax_and_cell_rules():
    step = SqlStep(
        statement="SELECT name, avg_price FROM t",
        expected_columns=("name", "avg_price"),
        expected_rows=(("A", 100.0), ("B", 300.0)),
    )
    scalar_of, label_of = _resolvers({})
    argmax = {"kind": "sql_argmax", "step": 0, "name_column": "name", "value_column": "avg_price"}
    assert derive_answer(argmax, (step,), (), scalar_of, label_of) == CanonicalAnswer.entity_set(["B"])
    cell = {"kind": "sql_cell", "step": 0, "column": "avg_price", "answer": "number", "unit": "u"}
    assert derive_answer(cell, (step,), (), scalar_of, label_of) == CanonicalAnswer.number(100.0, "u")


# --- plausibility ------------------------------------------------------------------


def _route_step(function: str, mode_key: str, mode: str, meters: float) -> ToolStep:
    return ToolStep(
        function=function,
        params={
            "origin_lat": 23.0,
            "origin_lon": 113.0,
            "dest_lat": 23.0 + meters / METERS_PER_DEG,
            "dest_lon": 113.0,
            mode_key: mode,
            "time_bucket": "midnight_00",
        },
        expected_columns=("mode", "bucket", "duration_s"),
        expected_rows=((mode, "midnight_00", 1),),
    )


def test_walking_over_threshold_rejected():
    ok, reason = plausibility_check((_route_step("time_query", "mode", "walking", 20_000),))
    assert not ok and reason == "implausible_walking"


def test_walking_just_below_threshold_kept():
    ok, _ = plausibility_check((_route_step("time_query", "mode", "walking", 9_900),))
    assert ok


def test_driving_unconstrained():
    ok, _ = plausibility_check((_route_step("time_query", "mode", "driving", 30_000),))
    assert ok


def test_cycling_threshold():
    ok, reason = plausibility_check((_route_step("time_query", "mode", "cycling", 20_500),))
    assert not ok and reason == "implausible_cycling"
    ok, _ = plausibility_check((_route_step("time_query", "mode", "cycling", 19_000),))
    assert ok


def test_walking_distance_query_also_filtered():
    ok, reason = plausibility_check((_route_step("distance_query", "kind", "walking", 15_000),))
    assert not ok and reason == "implausible_walking"


def test_forced_20km_walk_template_provably_rejected(tmp_path):
    # two entities ~20 km apart: every walk-time instantiation must be rejected
    config = StoreConfig(cities=("Farville",), fixture_seed=1)
    dlat = 20_000 / METERS_PER_DEG
    _write_rows(
        tmp_path / "communities_farville.csv",
        COMMUNITY_HEADER,
        [_community_row("c0", "Alpha Court", 23.0, 113.0, city="Farville")],
    )
    _write_rows(
        tmp_path / "pois_farville.csv",
        POI_HEADER,
        [["p0", "Farville", "Far Park", "park", "park", 23.0 + dlat, 113.0]],
    )
    store = ingest(config, tmp_path / "store.db", tmp_path)
    cache = ToolCache(provider=SyntheticProvider(store))
    template = template_by_id("t2_walk_time")
    instances, report = generate([template], store, cache, seed=1, per_template=5)
    assert instances == []
    assert report.rejected_by_reason().get("implausible_walking", 0) > 0


def test_no_emitted_instance_violates_plausibility(desk_instances):
    for inst in desk_instances:
        ok, _ = plausibility_check(inst.tool_trace)
        assert ok


# --- instantiation accounting ----------------------------------------------------------


def test_type1_has_empty_tool_trace(desk_store, desk_cache):
    template = template_by_id("t1_avg_price")
    binding = sample_bindings(template, desk_store, random.Random(0))
    instance = instantiate(template, binding, desk_store, desk_cache, "x-1")
    assert isinstance(instance, QAInstance)
    assert instance.tool_trace == ()
    assert instance.agent_route == ("db_agent",)


def test_least_drive_shape(desk_store, desk_cache):
    template = template_by_id("t3_least_drive")
    binding = sample_bindings(template, desk_store, random.Random(1))
    instance = instantiate(template, binding, desk_store, desk_cache, "x-2")
    assert isinstance(instance, QAInstance)
    assert len(instance.sql_trace) == 1
    assert len(instance.tool_trace) == 3
    assert all(t.function == "time_query" for t in instance.tool_trace)
    # answer equals an argmin recomputed from the recorded durations
    durations = [t.expected_rows[0][-1] for t in instance.tool_trace]
    labels = [binding["community_name"], binding["community_name_2"], binding["community_name_3"]]
    best = min(zip(durations, labels))[1]
    assert instance.answer == CanonicalAnswer.entity_set([best])


def test_accounting_adds_up(desk_generation):
    _, report, _ = desk_generation
    assert report.accepted + sum(report.rejected_by_reason().values()) == report.attempted


def test_report_counts_each_template(desk_generation, desk_templates):
    instances, report, _ = desk_generation
    doc = report.to_dict()
    per_template = doc["templates"]
    assert list(per_template) == [t.template_id for t in desk_templates]
    rejected: dict[str, int] = {}
    for template_id, counts in per_template.items():
        assert counts["accepted"] == sum(i.template_id == template_id for i in instances)
        assert counts["accepted"] + sum(counts["rejected"].values()) == counts["attempted"]
        for reason, n in counts["rejected"].items():
            rejected[reason] = rejected.get(reason, 0) + n
    assert rejected == doc["rejected"] and rejected
    for key in ("attempted", "accepted"):
        assert sum(counts[key] for counts in per_template.values()) == doc[key]


def test_generation_deterministic(desk_store, desk_templates):
    from estateqa.domain import instance_to_json

    def run():
        cache = ToolCache(provider=SyntheticProvider(desk_store))
        instances, _ = generate(desk_templates[:4], desk_store, cache, seed=5, per_template=5)
        return [instance_to_json(i) for i in instances]

    assert run() == run()


def test_generate_reads_each_entity_table_once(
    monkeypatch, tmp_path, desk_config, desk_fixture_dir, desk_templates
):
    store = ingest(desk_config, tmp_path / "store.db", desk_fixture_dir)
    reads: dict[str, int] = {}

    def count_reads(statement):
        # the snapshot's column lists: names and districts, and POI points
        match = re.match(
            r"SELECT name, (?:district|label, latitude, longitude) FROM (\w+) ORDER BY id$",
            statement,
        )
        if match:
            reads[match.group(1)] = reads.get(match.group(1), 0) + 1

    # every statement on every reader, agent path or not
    open_reader = store._reader

    def traced_reader():
        reader = open_reader()
        reader.set_trace_callback(count_reads)
        return reader

    monkeypatch.setattr(store, "_reader", traced_reader)
    store.build_proximity_pairs()
    cache = ToolCache(provider=SyntheticProvider(store))
    instances, _ = generate(desk_templates, store, cache, seed=3, per_template=3)
    assert instances
    entity_tables = {
        store.table_id(family, city)
        for family in ("community", "poi")
        for city in desk_config.cities
    }
    assert {t: n for t, n in reads.items() if t in entity_tables} == dict.fromkeys(
        entity_tables, 1
    )


def test_generate_builds_no_entity_records(
    monkeypatch, tmp_path, desk_config, desk_fixture_dir, desk_templates
):
    store = ingest(desk_config, tmp_path / "store.db", desk_fixture_dir)

    def refuse(family, row):
        raise AssertionError(f"generate built a {family} record")

    with monkeypatch.context() as patched:
        patched.setattr(store_module, "_entity", refuse)
        cache = ToolCache(provider=SyntheticProvider(store))
        instances, _ = generate(desk_templates, store, cache, seed=3, per_template=3)
    assert instances
    for city in desk_config.cities:
        entities = store.snapshot()[city]
        pois = store.pois(city)
        assert entities.community_names == tuple(c.name for c in store.communities(city))
        assert entities.poi_names == tuple(p.name for p in pois)
        by_label: dict[str, list] = {}
        for poi in pois:
            by_label.setdefault(poi.label.casefold(), []).append(
                (poi.name, poi.label, poi.location)
            )
        assert {label: list(group) for label, group in entities.pois_by_label.items()} == by_label


# a desk-scale generate's bytes: a change in the sampling or tool-resolution
# order changes them
GENERATE_DIGESTS = {
    "dataset.jsonl": "d048fe25ffc14d1392bd0bf67d37bdbe74c9bf93f74b8c5e048ba601cdd8fc37",
    "cache.jsonl": "3b167b5d5bedaa4e09c77c60efec8ee4cfac933a1410b2ae897731d14a6e483d",
    # as `generate --report` writes it: the rejection reasons in first-seen order
    "report.json": "88ec82c7f497562237e5e8562f53493c7f0fa6198501ae8cd6f77641e47cb06e",
}


def test_generate_bytes_are_pinned(tmp_path, desk_store, desk_templates):
    cache = ToolCache(provider=SyntheticProvider(desk_store))
    instances, report = generate(desk_templates, desk_store, cache, seed=5, per_template=20)
    write_instances(str(tmp_path / "dataset.jsonl"), instances)
    cache.save(tmp_path / "cache.jsonl")
    (tmp_path / "report.json").write_text(json.dumps(report.to_dict(), indent=2) + "\n")
    digests = {
        name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        for name in GENERATE_DIGESTS
    }
    assert digests == GENERATE_DIGESTS


def test_duplicate_questions_are_rejected_before_instantiating(
    monkeypatch, desk_store, desk_templates
):
    instantiated = []
    real_instantiate = generator_module.instantiate

    def counting_instantiate(template, *args):
        instantiated.append(template.template_id)
        return real_instantiate(template, *args)

    monkeypatch.setattr(generator_module, "instantiate", counting_instantiate)
    cache = ToolCache(provider=SyntheticProvider(desk_store))
    _, report = generate(desk_templates, desk_store, cache, seed=3, per_template=20)
    reasons = report.rejected_by_reason()
    assert reasons["duplicate_question"] > 0
    assert len(instantiated) == (
        report.attempted - reasons["duplicate_question"] - reasons.get("sampling_exhausted", 0)
    )


def test_all_three_types_emitted(desk_instances):
    assert {i.question_type for i in desk_instances} == {1, 2, 3}


def test_questions_globally_unique(desk_instances):
    questions = [i.question for i in desk_instances]
    assert len(questions) == len(set(questions))


# --- re-validation ---------------------------------------------------------------------


def test_revalidation_clean(desk_instances, desk_store, desk_cache, desk_templates):
    registry = {t.template_id: t for t in desk_templates}
    for inst in desk_instances[:100]:
        assert revalidate_instance(inst, desk_store, desk_cache, registry) == []


def test_revalidation_catches_tampered_rows(desk_instances, desk_store, desk_cache, desk_templates):
    from dataclasses import replace

    registry = {t.template_id: t for t in desk_templates}
    victim = next(i for i in desk_instances if i.question_type == 1)
    step = victim.sql_trace[0]
    tampered_step = SqlStep(step.statement, step.expected_columns, ((("bogus",) * len(step.expected_columns)),))
    tampered = replace(victim, sql_trace=(tampered_step,))
    problems = revalidate_instance(tampered, desk_store, desk_cache, registry)
    assert any("drift" in p for p in problems)


def test_revalidation_catches_tampered_answer(desk_instances, desk_store, desk_cache, desk_templates):
    from dataclasses import replace

    registry = {t.template_id: t for t in desk_templates}
    victim = next(i for i in desk_instances if i.answer.kind == "duration")
    tampered = replace(victim, answer=CanonicalAnswer.duration(victim.answer.value + 10))
    problems = revalidate_instance(tampered, desk_store, desk_cache, registry)
    assert any("answer" in p for p in problems)


# --- stratified split ----------------------------------------------------------------------


def _fake_instances(desk_instances, template_id: str, n: int):
    """Clone a real instance n times under one template id (split fodder)."""
    from dataclasses import replace

    base = desk_instances[0]
    return [replace(base, id=f"{template_id}-{i}", template_id=template_id) for i in range(n)]


def test_split_100_is_80_10_10(desk_instances):
    members = _fake_instances(desk_instances, "tpl_a", 100)
    splits, warnings = stratified_split(members, 1)
    assert len(splits["train"]) == 80
    assert len(splits["val"]) == 10
    assert len(splits["test"]) == 10
    assert not warnings


def test_split_10_is_8_1_1(desk_instances):
    members = _fake_instances(desk_instances, "tpl_b", 10)
    splits, _ = stratified_split(members, 1)
    assert (len(splits["train"]), len(splits["val"]), len(splits["test"])) == (8, 1, 1)


def test_split_small_stratum_all_train(desk_instances):
    members = _fake_instances(desk_instances, "tpl_c", 2)
    splits, warnings = stratified_split(members, 1)
    assert len(splits["train"]) == 2
    assert warnings and "tpl_c" in warnings[0]


def test_split_partition_and_determinism(desk_instances):
    splits_a, _ = stratified_split(list(desk_instances), 9)
    splits_b, _ = stratified_split(list(reversed(desk_instances)), 9)
    ids_a = {name: [i.id for i in members] for name, members in splits_a.items()}
    ids_b = {name: [i.id for i in members] for name, members in splits_b.items()}
    assert ids_a == ids_b  # input order does not matter
    everything = sorted(i for ids in ids_a.values() for i in ids)
    assert everything == sorted(i.id for i in desk_instances)


def test_split_per_stratum_within_one(desk_instances):
    splits, _ = stratified_split(list(desk_instances), 2)
    by_template: dict[str, dict[str, int]] = {}
    for name, members in splits.items():
        for inst in members:
            by_template.setdefault(inst.template_id, {}).setdefault(name, 0)
            by_template[inst.template_id][name] += 1
    for template_id, counts in by_template.items():
        n = sum(counts.values())
        assert abs(counts.get("val", 0) - n * 0.1) <= 1
        assert abs(counts.get("test", 0) - n * 0.1) <= 1
        assert abs(counts.get("train", 0) - n * 0.8) <= 1
