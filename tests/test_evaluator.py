"""Metric suite: item F1 and accuracy semantics, trace metrics against a
naive tally, aggregation properties, and the GT-injection ablation mechanism."""

from __future__ import annotations

import json
import random
from collections import Counter
from dataclasses import replace
from fractions import Fraction

import pytest

from doubles import MALFORMED_REPLIES, SabotageBackend
from estateqa.domain import CanonicalAnswer, answer_equal, encode
from estateqa.evaluator import (
    ABLATION_LADDER,
    EpisodeRecord,
    RunConfig,
    aggregate,
    answer_scores,
    make_oracle_backend,
    run_ablation,
    run_suite,
    trace_metrics,
)
from estateqa.supervisor import EpisodeTranscript, Exchange


# --- answer-level metrics --------------------------------------------------------


def test_identical_answers_f1_one():
    a = CanonicalAnswer.entity_set(["A", "B"])
    assert answer_scores(a, a)[1] == 1.0


def test_forced_two_thirds_case():
    gold = CanonicalAnswer.entity_set(["A", "B", "C"])
    pred = CanonicalAnswer.entity_set(["A", "B", "D"])
    assert answer_scores(pred, gold)[1] == 2 / 3


def test_single_item_f1_equals_accuracy():
    rng = random.Random(3)
    for _ in range(100):
        gold = CanonicalAnswer.number(rng.randint(0, 5), "count")
        pred = CanonicalAnswer.number(rng.randint(0, 5), "count")
        acc, f1 = answer_scores(pred, gold)
        assert f1 == float(acc)


def test_cross_kind_f1_zero():
    gold = CanonicalAnswer.number(3, "count")
    pred = CanonicalAnswer.entity_set(["A", "B", "C"])
    assert answer_scores(pred, gold) == (0, 0.0)


def test_unanswerable_scores_zero():
    gold = CanonicalAnswer.entity_set(["A"])
    assert answer_scores(None, gold) == (0, 0.0)


def test_reversed_order_entity_set_accuracy_one():
    gold = CanonicalAnswer.entity_set(["A", "B", "C"])
    pred = CanonicalAnswer.entity_set(["C", "B", "A"])
    assert answer_scores(pred, gold)[0] == 1


def test_accuracy_one_implies_f1_one():
    rng = random.Random(11)
    kinds = list(CanonicalAnswer.KINDS)
    for _ in range(300):
        kind = rng.choice(kinds)
        if kind == "entity_set":
            answer = CanonicalAnswer.entity_set(
                [rng.choice("XYZ") for _ in range(rng.randint(1, 3))]
            )
            other = CanonicalAnswer.entity_set(list(reversed(answer.entities)))
        elif kind == "number":
            answer = CanonicalAnswer.number(rng.randint(0, 9), "m")
            other = CanonicalAnswer.number(answer.value / 1000, "km")
        else:
            answer = CanonicalAnswer.duration(rng.randint(0, 100))
            other = answer
        acc, f1 = answer_scores(other, answer)
        if acc == 1:
            assert f1 == 1.0


def _reference_item_f1(pred, gold) -> float:
    """Item F1 as 2PR/(P+R) in exact rational arithmetic, from Counters."""
    if pred is None:
        return 0.0
    pred_items, gold_items = Counter(pred.items()), Counter(gold.items())
    overlap = sum((pred_items & gold_items).values())
    if not overlap:
        return 0.0
    precision = Fraction(overlap, sum(pred_items.values()))
    recall = Fraction(overlap, sum(gold_items.values()))
    return float(2 * precision * recall / (precision + recall))


# one answer of every kind, entity sets with whitespace variants of one name,
# and numbers whose units normalize to the same dimension
ANSWERS = [
    CanonicalAnswer.entity_set(["Jade Court"]),
    CanonicalAnswer.entity_set(["  Jade   Court "]),
    CanonicalAnswer.entity_set(["Jade\tCourt", "Bay Park"]),
    CanonicalAnswer.entity_set(["Bay Park", "Jade Court", "Jade Court"]),
    CanonicalAnswer.entity_set(["A", "B", "C", "D", "E", "F", "G"]),
    CanonicalAnswer.number(3, "count"),
    CanonicalAnswer.number(1500, "m"),
    CanonicalAnswer.number(1.5, " KM "),
    CanonicalAnswer.duration(600),
    CanonicalAnswer.distance(1500),
    CanonicalAnswer.boolean(True),
    CanonicalAnswer.boolean(False),
    CanonicalAnswer.from_text("Jade Court"),
    CanonicalAnswer.from_text(" Jade  Court"),
]


def test_answer_metrics_equal_answer_equal_and_exact_rational_f1():
    for gold in ANSWERS:
        for pred in [None, *ANSWERS]:
            expected = 0 if pred is None else int(answer_equal(pred, gold))
            acc, f1 = answer_scores(pred, gold)
            assert acc == expected, (pred, gold)
            assert f1 == _reference_item_f1(pred, gold), (pred, gold)


def test_aggregate_per_type_equals_naive_tally(desk_instances):
    """Per-type and overall acc and F1 over every (prediction, gold) pair of
    kinds, unanswerable predictions included, equal a tally of answer_scores."""
    rng = random.Random(17)
    by_type = {t: next(i for i in desk_instances if i.question_type == t) for t in (1, 2, 3)}
    records, tally = [], {}
    for n, (pred, gold) in enumerate((p, g) for g in ANSWERS for p in [None, *ANSWERS]):
        template = by_type[rng.choice((1, 2, 3))]
        instance = replace(template, id=f"x{n:04d}", answer=gold)
        transcript = EpisodeTranscript(instance_id=instance.id, question=instance.question,
                                       dispatches=_transcript_for(template).dispatches,
                                       final_answer=pred)
        records.append(EpisodeRecord(instance, transcript))
        for key in (instance.question_type, "overall"):
            tally.setdefault(key, []).append(answer_scores(pred, gold))
    report = aggregate(records, RunConfig())
    rows = {**report.per_type, "overall": report.overall}
    assert set(rows) == set(tally)
    for key, pairs in tally.items():
        assert rows[key]["count"] == len(pairs)
        assert rows[key]["acc"] == sum(float(a) for a, _ in pairs) / len(pairs)
        assert rows[key]["f1"] == sum(f for _, f in pairs) / len(pairs)
    assert report.failures["unanswerable"] == len(ANSWERS)


# --- trace metrics --------------------------------------------------------------------


def _sql_payload(ok: bool, rows):
    return {"type": "sql", "statement": "SELECT 1", "ok": ok, "columns": ["c"], "rows": rows}


def _transcript_for(gold, *, sql_ok=True, right_rows=True, right_tools=True, right_route=True):
    evidence = []
    rows = [list(r) for r in gold.sql_trace[0].expected_rows]
    if not right_rows:
        rows = [["wrong"]]
    evidence.append(_sql_payload(sql_ok, rows if sql_ok else []))
    dispatches = [
        Exchange(specialist="db_agent", description="", status="success", evidence=evidence)
    ]
    if gold.tool_trace:
        calls = [
            {
                "type": "tool_call",
                "function": t.function,
                "params": dict(t.params),
                "ok": True,
                "columns": list(t.expected_columns),
                "rows": [list(r) for r in t.expected_rows],
            }
            for t in gold.tool_trace
        ]
        if not right_tools:
            calls[0] = {**calls[0], "params": {**calls[0]["params"], "mode": "corrupted"}}
        dispatches.append(
            Exchange(specialist="map_agent", description="", status="success", evidence=calls)
        )
    if not right_route:
        dispatches = dispatches[:1]
    return EpisodeTranscript(
        instance_id=gold.id,
        question=gold.question,
        dispatches=dispatches,
        final_answer=gold.answer,
    )


def test_oracle_shaped_transcripts_score_one(desk_instances):
    sample = desk_instances[:50]
    transcripts = [_transcript_for(g) for g in sample]
    metrics = trace_metrics(transcripts, sample)
    assert metrics == {
        "ecr": 1.0,
        "pass_at_1": 1.0,
        "api_label_accuracy": 1.0,
        "planning_accuracy": 1.0,
    }


def test_executes_but_wrong_rows_counts_in_ecr_not_pass1(desk_instances):
    gold = desk_instances[0]
    transcript = _transcript_for(gold, right_rows=False)
    metrics = trace_metrics([transcript], [gold])
    assert metrics["ecr"] == 1.0
    assert metrics["pass_at_1"] == 0.0


def test_failed_sql_counts_in_neither(desk_instances):
    gold = desk_instances[0]
    transcript = _transcript_for(gold, sql_ok=False)
    metrics = trace_metrics([transcript], [gold])
    assert metrics["ecr"] == 0.0
    assert metrics["pass_at_1"] == 0.0


def test_db_only_route_on_tool_instance_is_planning_miss(desk_instances):
    gold = next(i for i in desk_instances if i.question_type == 2)
    transcript = _transcript_for(gold, right_route=False)
    # rebuild with just the db dispatch
    transcript.dispatches = transcript.dispatches[:1]
    metrics = trace_metrics([transcript], [gold])
    assert metrics["planning_accuracy"] == 0.0


def test_api_denominator_excludes_type1(desk_instances):
    type1 = [i for i in desk_instances if i.question_type == 1][:5]
    transcripts = [_transcript_for(g) for g in type1]
    metrics = trace_metrics(transcripts, type1)
    assert metrics["api_label_accuracy"] == 1.0  # vacuous: no gold tool calls


def test_trace_metrics_match_naive_tally(desk_instances):
    """Randomized synthetic prediction sets vs an independent per-instance tally."""
    rng = random.Random(23)
    sample = rng.sample(list(desk_instances), 100)
    transcripts = []
    flags = []
    for gold in sample:
        f = {
            "sql_ok": rng.random() < 0.8,
            "right_rows": rng.random() < 0.7,
            "right_tools": rng.random() < 0.75,
            "right_route": rng.random() < 0.85,
        }
        flags.append(f)
        transcripts.append(_transcript_for(gold, **f))
    got = trace_metrics(transcripts, sample)

    # independent tally from the flag record
    n = len(sample)
    ecr = sum(1 for f in flags if f["sql_ok"])
    pass1 = sum(1 for f in flags if f["sql_ok"] and f["right_rows"])
    api_total = sum(1 for g in sample if g.tool_trace)
    api_hits = sum(
        1 for f, g in zip(flags, sample) if g.tool_trace and f["right_tools"] and f["right_route"]
    )
    plan_hits = 0
    for f, g in zip(flags, sample):
        route_len = 2 if (g.tool_trace and f["right_route"]) else 1
        plan_hits += int(route_len == len(g.agent_route))
    assert got["ecr"] == pytest.approx(ecr / n, abs=1e-9)
    assert got["pass_at_1"] == pytest.approx(pass1 / n, abs=1e-9)
    assert got["api_label_accuracy"] == pytest.approx(api_hits / api_total, abs=1e-9)
    assert got["planning_accuracy"] == pytest.approx(plan_hits / n, abs=1e-9)


def test_pass_at_1_compares_rows_as_a_multiset(desk_instances):
    gold = next(i for i in desk_instances if len(set(i.sql_trace[0].expected_rows)) > 2)
    rows = [list(r) for r in gold.sql_trace[0].expected_rows]

    def pass_at_1(first_rows):
        transcript = _transcript_for(gold)
        transcript.dispatches[0].evidence[0] = _sql_payload(True, first_rows)
        return trace_metrics([transcript], [gold])["pass_at_1"]

    assert pass_at_1(rows) == pass_at_1(rows[::-1]) == 1.0
    assert pass_at_1(rows + rows[:1]) == 0.0  # one row twice
    assert pass_at_1(rows[1:2] + rows[1:]) == 0.0  # as many rows, one count off


def test_trace_metrics_misalignment_raises(desk_instances):
    with pytest.raises(ValueError):
        trace_metrics([], desk_instances[:1])


# --- aggregation ------------------------------------------------------------------------


def test_aggregation_order_independent(desk_instances):
    sample = desk_instances[:40]
    records = [
        EpisodeRecord(g, _transcript_for(g)) for g in sample
    ]
    config = RunConfig()
    report_a = aggregate(records, config)
    shuffled = records[:]
    random.Random(5).shuffle(shuffled)
    report_b = aggregate(shuffled, config)
    assert report_a == report_b


def test_per_type_counts_sum_to_total(desk_instances):
    sample = desk_instances[:60]
    records = [EpisodeRecord(g, _transcript_for(g)) for g in sample]
    report = aggregate(records, RunConfig())
    assert sum(int(v["count"]) for v in report.per_type.values()) == int(
        report.overall["count"]
    )
    for row in report.per_type.values():
        assert 0.0 <= row["acc"] <= 1.0
        assert 0.0 <= row["f1"] <= 1.0


def test_render_table_layout(desk_instances):
    sample = desk_instances[:30]
    records = [EpisodeRecord(g, _transcript_for(g)) for g in sample]
    table = aggregate(records, RunConfig()).render_table()
    assert "Type 1" in table and "Overall" in table and "pass@1" in table


# --- suite and ablation ladder ----------------------------------------------------------------


@pytest.fixture(scope="module")
def eval_slice(desk_instances):
    by_type = {1: [], 2: [], 3: []}
    for inst in desk_instances:
        if len(by_type[inst.question_type]) < 8:
            by_type[inst.question_type].append(inst)
    return [i for members in by_type.values() for i in members]


def test_oracle_suite_is_perfect(eval_slice, desk_store, desk_cache, desk_templates):
    backend = make_oracle_backend(eval_slice, desk_store)
    report, records = run_suite(
        eval_slice, desk_store, desk_cache, backend, RunConfig(inject_slu=True, inject_sql=True, inject_api=True),
        desk_templates,
    )
    assert report.overall == {"acc": 1.0, "f1": 1.0, "count": len(eval_slice)}
    assert all(v == 1.0 for v in report.trace.values())
    assert report.failures == {}


def test_parallel_suite_matches_serial(eval_slice, desk_store, desk_cache, desk_templates):
    backend = make_oracle_backend(eval_slice, desk_store)
    serial, _ = run_suite(
        eval_slice, desk_store, desk_cache, backend, RunConfig(inject_slu=True, inject_sql=True, inject_api=True),
        desk_templates,
    )
    parallel, _ = run_suite(
        eval_slice,
        desk_store,
        desk_cache,
        backend,
        RunConfig(inject_slu=True, inject_sql=True, inject_api=True),
        desk_templates,
        parallelism=4,
    )
    assert parallel == serial


def test_lexicon_slu_suite_reports_slu_metrics(eval_slice, desk_store, desk_cache, desk_templates):
    backend = make_oracle_backend(eval_slice, desk_store)
    report, _ = run_suite(
        eval_slice, desk_store, desk_cache, backend, RunConfig(agents="live"), desk_templates
    )
    assert report.slu is not None
    assert report.slu["slot"]["f1"] >= 0.9


def test_sql_sabotage_recovered_by_gt_sql(eval_slice, desk_store, desk_cache, desk_templates):
    """Breaking exactly the SQL stage floors accuracy; injecting gold SQL
    restores 1.0 on the affected instances (the Fig.-5 mechanism)."""
    backend = SabotageBackend(make_oracle_backend(eval_slice, desk_store), "generate_sql")
    base = RunConfig(agents="live", step_cap=9)
    reports = run_ablation(eval_slice, desk_store, desk_cache, backend, base, desk_templates)
    assert [name for name, _ in ABLATION_LADDER] == list(reports)
    assert reports["gt_slu"].overall["acc"] == 0.0  # every route needs the db stage
    assert reports["gt_slu_sql"].overall["acc"] == 1.0
    assert reports["gt_slu_sql_api"].overall["acc"] == 1.0


def test_api_sabotage_recovered_by_gt_api(eval_slice, desk_store, desk_cache, desk_templates):
    backend = SabotageBackend(make_oracle_backend(eval_slice, desk_store), "decide_tools")
    base = RunConfig(agents="live", step_cap=9)
    reports = run_ablation(eval_slice, desk_store, desk_cache, backend, base, desk_templates)
    rung = reports["gt_slu_sql"]
    type1 = rung.per_type[1]
    assert type1["acc"] == 1.0  # type 1 never touches the map agent
    assert rung.per_type[2]["acc"] == 0.0
    assert rung.per_type[3]["acc"] == 0.0
    full = reports["gt_slu_sql_api"]
    assert full.overall["acc"] == 1.0


def test_injected_specialists_never_reach_the_run_backend(
    eval_slice, desk_store, desk_cache, desk_templates
):
    """Under inject sql,api both specialists ask the oracle, so a run backend
    that fails every specialist stage still scores 1.0."""
    backend = SabotageBackend(
        make_oracle_backend(eval_slice, desk_store),
        "caption_summary", "generate_sql", "decide_tools",
        mode="raise",
    )
    live, _ = run_suite(
        eval_slice, desk_store, desk_cache, backend, RunConfig(step_cap=9), desk_templates
    )
    assert live.overall["acc"] == 0.0  # every route needs the db stage
    injected, _ = run_suite(
        eval_slice, desk_store, desk_cache, backend,
        RunConfig(inject_sql=True, inject_api=True, step_cap=9), desk_templates,
    )
    assert injected.overall == {"acc": 1.0, "f1": 1.0, "count": len(eval_slice)}
    assert injected.failures == {}


def test_run_config_validation(eval_slice, desk_store, desk_cache, desk_templates):
    backend = make_oracle_backend(eval_slice, desk_store)
    with pytest.raises(ValueError):
        run_suite(
            eval_slice, desk_store, desk_cache, backend, RunConfig(step_cap=0), desk_templates
        )


# --- fault matrix -------------------------------------------------------------------------

_STAGES = ("plan", "replan", "finalize", "caption_summary", "generate_sql", "decide_tools", "slu")


@pytest.mark.parametrize("mode, stage", [
    *((mode, stage) for mode in ("garbage", "raise") for stage in _STAGES),
    *(("malformed", stage) for stage in MALFORMED_REPLIES),
])
def test_a_broken_stage_fails_episodes_not_the_run(
    eval_slice, desk_instances, desk_store, desk_cache, desk_templates, mode, stage
):
    """Whichever stage the backend breaks, and however, every episode ends
    within the cap with an answer or a failure tag, the report counts every
    tag, and a parallel run writes what a serial one does."""
    pool = [inst for k, inst in enumerate(eval_slice) if k % 8 < 3]  # three of each type
    backend = SabotageBackend(make_oracle_backend(pool, desk_store), stage, mode=mode)
    config = RunConfig(slu_strategy="fewshot", step_cap=6)
    runs = [
        run_suite(pool, desk_store, desk_cache, backend, config, desk_templates,
                  desk_instances[:4], parallelism=parallelism)
        for parallelism in (1, 2)
    ]
    (report, records), (parallel_report, parallel_records) = runs
    transcripts = [r.transcript for r in records]
    assert len(transcripts) == len(pool)
    for transcript in transcripts:
        assert transcript.step_count <= config.step_cap
        assert transcript.final_answer is not None or transcript.failure
    tags = Counter(t.failure for t in transcripts if t.failure)
    tags["unanswerable"] += sum(t.final_answer is None for t in transcripts)
    assert report.failures == +tags
    assert parallel_report == report
    encoded = [json.dumps(r.transcript, default=encode) for r in records]
    assert [json.dumps(r.transcript, default=encode) for r in parallel_records] == encoded
