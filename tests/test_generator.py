"""Generator pipeline: binding sampling, span tracking, answer rules,
plausibility, splitting, paraphrase hook, and re-validation."""

from __future__ import annotations

import math
import random
import re

import pytest

from estateqa.backends import RaisingBackend, ScriptedBackend
from estateqa.domain import CanonicalAnswer, SqlStep, ToolStep
from estateqa.generator import (
    AnswerUnderivable,
    Rejection,
    SamplingExhausted,
    SplitSpec,
    derive_answer,
    fill_question,
    generate,
    instantiate,
    paraphrase_hook,
    plausibility_check,
    revalidate_instance,
    sample_bindings,
    stratified_split,
)
from estateqa.store import GeoStore, StoreConfig
from estateqa.templates import Template, default_templates
from estateqa.tools import SyntheticProvider, ToolCache

from test_store import COMMUNITY_HEADER, POI_HEADER, _community_row, _write_rows

METERS_PER_DEG = 6_371_000 * math.pi / 180


def template_by_id(template_id: str) -> Template:
    return next(t for t in default_templates() if t.template_id == template_id)


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
    store = GeoStore(config)
    store.ingest_fixture(tmp_path)
    template = template_by_id("t3_least_drive")  # needs 3 distinct communities
    with pytest.raises(SamplingExhausted):
        sample_bindings(template, store, random.Random(0))


def test_derived_bindings(desk_store):
    template = template_by_id("t2_nearby_pois")
    binding = sample_bindings(template, desk_store, random.Random(4))
    assert binding["radius_m"] == binding["radius_km"] * 1000
    assert binding["city_slug"] in ("guangzhou", "suzhou")


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
    store = GeoStore(config)
    store.ingest_fixture(tmp_path)
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
    assert not isinstance(instance, Rejection)
    assert instance.tool_trace == ()
    assert instance.agent_route == ("db_agent",)


def test_least_drive_shape(desk_store, desk_cache):
    template = template_by_id("t3_least_drive")
    binding = sample_bindings(template, desk_store, random.Random(1))
    instance = instantiate(template, binding, desk_store, desk_cache, "x-2")
    assert not isinstance(instance, Rejection)
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
    assert report.accepted + len(report.rejected) == report.attempted


def test_generation_deterministic(desk_store, desk_templates):
    from estateqa.domain import instance_to_json

    def run():
        cache = ToolCache(provider=SyntheticProvider(desk_store))
        instances, _ = generate(desk_templates[:4], desk_store, cache, seed=5, per_template=5)
        return [instance_to_json(i) for i in instances]

    assert run() == run()


def test_generate_reads_each_entity_table_once(desk_config, desk_fixture_dir, desk_templates):
    store = GeoStore(desk_config)
    store.ingest_fixture(desk_fixture_dir)
    reads: dict[str, int] = {}
    execute_sql = store.execute_sql

    def counting_execute_sql(statement):
        match = re.match(r"SELECT \* FROM (\w+)", statement)
        if match:
            reads[match.group(1)] = reads.get(match.group(1), 0) + 1
        return execute_sql(statement)

    store.execute_sql = counting_execute_sql
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
    splits, warnings = stratified_split(members, SplitSpec(seed=1))
    assert len(splits["train"]) == 80
    assert len(splits["val"]) == 10
    assert len(splits["test"]) == 10
    assert not warnings


def test_split_10_is_8_1_1(desk_instances):
    members = _fake_instances(desk_instances, "tpl_b", 10)
    splits, _ = stratified_split(members, SplitSpec(seed=1))
    assert (len(splits["train"]), len(splits["val"]), len(splits["test"])) == (8, 1, 1)


def test_split_small_stratum_all_train(desk_instances):
    members = _fake_instances(desk_instances, "tpl_c", 2)
    splits, warnings = stratified_split(members, SplitSpec(seed=1))
    assert len(splits["train"]) == 2
    assert warnings and "tpl_c" in warnings[0]


def test_split_partition_and_determinism(desk_instances):
    spec = SplitSpec(seed=9)
    splits_a, _ = stratified_split(list(desk_instances), spec)
    splits_b, _ = stratified_split(list(reversed(desk_instances)), spec)
    ids_a = {name: [i.id for i in members] for name, members in splits_a.items()}
    ids_b = {name: [i.id for i in members] for name, members in splits_b.items()}
    assert ids_a == ids_b  # input order does not matter
    everything = sorted(i for ids in ids_a.values() for i in ids)
    assert everything == sorted(i.id for i in desk_instances)


def test_split_per_stratum_within_one(desk_instances):
    splits, _ = stratified_split(list(desk_instances), SplitSpec(seed=2))
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


# --- paraphrase hook ------------------------------------------------------------------------


def test_paraphrase_keeps_slots_and_relocates_spans(desk_instances):
    victim = next(i for i in desk_instances if i.question_type == 2)
    values = [s.value for s in victim.slots]
    rewritten = "Please tell me: " + victim.question
    backend = ScriptedBackend(default=rewritten)
    out = paraphrase_hook(victim, backend)
    assert out.question == rewritten
    assert sorted((s.slot_type, s.value) for s in out.slots) == sorted(
        (s.slot_type, s.value) for s in victim.slots
    )
    for slot in out.slots:
        assert out.question[slot.start : slot.end] == slot.value
    assert all(v in out.question for v in values)


def test_paraphrase_dropping_slot_keeps_original(desk_instances):
    victim = desk_instances[0]
    backend = ScriptedBackend(default="A completely unrelated question?")
    out = paraphrase_hook(victim, backend)
    assert out == victim


def test_paraphrase_backend_failure_keeps_original(desk_instances):
    victim = desk_instances[0]
    out = paraphrase_hook(victim, RaisingBackend())
    assert out == victim


def test_paraphrased_instance_still_revalidates(desk_instances, desk_store, desk_cache, desk_templates):
    registry = {t.template_id: t for t in desk_templates}
    victim = next(i for i in desk_instances if i.template_id == "t3_least_drive")
    backend = ScriptedBackend(default="Rewritten: " + victim.question)
    out = paraphrase_hook(victim, backend)
    assert out.question != victim.question
    assert revalidate_instance(out, desk_store, desk_cache, registry) == []
