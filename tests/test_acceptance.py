"""Acceptance gate: ten criteria, one printed PASS/FAIL line each.

Run with ``pytest -s tests/test_acceptance.py`` to watch the lines as they
execute; the suite is property- and oracle-based (no hosted models, no live
map data) and targets a desk-scale dataset of >= 1,000 instances.
"""

from __future__ import annotations

import json
import math
import random
import time
from collections import Counter
from fractions import Fraction

from doubles import RaisingBackend, SabotageBackend
from estateqa.backends import parse_task_header
from estateqa.bm25 import Bm25Index, tokenize
from estateqa.cli import main
from estateqa.domain import CanonicalAnswer, answer_equal, haversine, write_instances
from estateqa.evaluator import (
    ABLATION_LADDER,
    RunConfig,
    answer_scores,
    make_oracle_backend,
    run_ablation,
    run_suite,
    trace_metrics,
)
from estateqa.generator import generate, plausibility_check, stratified_split
from estateqa.slu import Gazetteer, LexiconSlu, slu_metrics
from estateqa.store import GeoStore, StoreConfig
from estateqa.supervisor import Supervisor
from estateqa.templates import default_templates
from estateqa.tools import BUCKET_OFFPEAK, SyntheticProvider, ToolCache, ToolRequest
from estateqa.domain import GeoPoint

METERS_PER_DEG = 6_371_000 * math.pi / 180


def report(number: int, ok: bool, description: str) -> None:
    print(f"ACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} - {description}")
    assert ok, f"acceptance criterion {number} failed: {description}"


# --- 1. oracle closure -------------------------------------------------------------


def test_criterion_1_oracle_closure(desk_instances, desk_store, desk_cache, desk_templates):
    types = {i.question_type for i in desk_instances}
    backend = make_oracle_backend(desk_instances, desk_store)
    started = time.monotonic()
    summary, _ = run_suite(
        desk_instances,
        desk_store,
        desk_cache,
        backend,
        RunConfig(inject_slu=True, inject_sql=True, inject_api=True),
        desk_templates,
    )
    elapsed = time.monotonic() - started
    ok = (
        len(desk_instances) >= 1000
        and types == {1, 2, 3}
        and summary.overall["acc"] == 1.0
        and summary.overall["f1"] == 1.0
        and all(v == 1.0 for v in summary.trace.values())
        and elapsed < 120.0
    )
    report(
        1,
        ok,
        f"oracle closure: n={len(desk_instances)}, acc={summary.overall['acc']},"
        f" f1={summary.overall['f1']}, trace={summary.trace}, wall={elapsed:.2f}s",
    )


# --- 2. generator soundness ----------------------------------------------------------


def test_criterion_2_generator_soundness(
    desk_instances, desk_store, desk_cache, tmp_path, desk_fixture_dir
):
    dataset = tmp_path / "dataset.jsonl"
    write_instances(str(dataset), desk_instances)
    cache_path = tmp_path / "cache.jsonl"
    desk_cache.save(cache_path)
    store_path = tmp_path / "store.db"
    persistent = GeoStore(desk_store.config, store_path)
    persistent.ingest_fixture(desk_fixture_dir)
    persistent.build_proximity_pairs()
    persistent.close()
    exit_code = main(
        ["validate", "--store", str(store_path), "--cache", str(cache_path),
         "--dataset", str(dataset)]
    )
    report(2, exit_code == 0, f"cmd_validate exit={exit_code} over {len(desk_instances)} instances")


# --- 3. plausibility ---------------------------------------------------------------------


def test_criterion_3_plausibility(desk_instances, tmp_path):
    violations = 0
    for inst in desk_instances:
        ok, _ = plausibility_check(inst.tool_trace)
        if not ok:
            violations += 1

    # a fixture whose only walking pair spans ~20 km must be fully rejected
    from test_store import COMMUNITY_HEADER, POI_HEADER, _community_row, _write_rows

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
    far_store = GeoStore(config, tmp_path / "store.db")
    far_store.ingest_fixture(tmp_path)
    cache = ToolCache(provider=SyntheticProvider(far_store))
    walk_template = [t for t in default_templates() if t.template_id == "t2_walk_time"]
    emitted, gen_report = generate(walk_template, far_store, cache, seed=1, per_template=5)
    rejected = gen_report.rejected_by_reason().get("implausible_walking", 0)
    ok = violations == 0 and emitted == [] and rejected > 0
    report(
        3,
        ok,
        f"0 violations in {len(desk_instances)} emitted (got {violations});"
        f" forced 20 km walk rejected {rejected} times, emitted {len(emitted)}",
    )


# --- 4. split fidelity -------------------------------------------------------------------


def test_criterion_4_split_fidelity(desk_instances):
    splits_a, _ = stratified_split(list(desk_instances), 29)
    splits_b, _ = stratified_split(list(desk_instances), 29)
    identical = all(
        [i.id for i in splits_a[name]] == [i.id for i in splits_b[name]]
        for name in ("train", "val", "test")
    )
    within_one = True
    per_stratum: dict[str, Counter] = {}
    for name, members in splits_a.items():
        for inst in members:
            per_stratum.setdefault(inst.template_id, Counter())[name] += 1
    for counts in per_stratum.values():
        n = sum(counts.values())
        for name, ratio in (("train", 0.8), ("val", 0.1), ("test", 0.1)):
            if abs(counts.get(name, 0) - n * ratio) > 1:
                within_one = False
    report(
        4,
        identical and within_one,
        f"{len(per_stratum)} strata all within +-1 of 8:1:1; same-seed splits identical={identical}",
    )


# --- 5. metric oracle equivalence -----------------------------------------------------------


def _naive_item_f1(pred, gold) -> float:
    if pred is None:
        return 0.0
    p_items, g_items = Counter(pred.items()), Counter(gold.items())
    overlap = sum((p_items & g_items).values())
    if not overlap:
        return 0.0
    precision = Fraction(overlap, sum(p_items.values()))
    recall = Fraction(overlap, sum(g_items.values()))
    return float(2 * precision * recall / (precision + recall))


def _random_answer(rng: random.Random) -> CanonicalAnswer:
    kind = rng.choice(CanonicalAnswer.KINDS)
    if kind == "entity_set":
        return CanonicalAnswer.entity_set(
            [rng.choice("ABCDEF") for _ in range(rng.randint(1, 4))]
        )
    if kind == "number":
        return CanonicalAnswer.number(rng.randint(0, 5), "count")
    if kind == "duration":
        return CanonicalAnswer.duration(rng.randint(0, 2000))
    if kind == "distance":
        return CanonicalAnswer.distance(rng.randint(0, 2000))
    if kind == "boolean":
        return CanonicalAnswer.boolean(rng.random() < 0.5)
    return CanonicalAnswer.from_text(rng.choice(["yes", "no"]))


def test_criterion_5_metric_oracle_equivalence(desk_instances):
    rng = random.Random(41)
    max_drift = 0.0
    forced = answer_scores(
        CanonicalAnswer.entity_set(["A", "B", "D"]),
        CanonicalAnswer.entity_set(["A", "B", "C"]),
    )[1]
    ok = forced == 2 / 3
    from test_evaluator import _transcript_for

    for trial in range(100):
        # answer-level: random prediction sets against random golds
        pairs = [(_random_answer(rng), _random_answer(rng)) for _ in range(20)]
        acc_counts = sum(answer_scores(p, g)[0] for p, g in pairs)
        naive_acc = sum(1 for p, g in pairs if answer_equal(p, g))
        ok = ok and acc_counts == naive_acc
        for p, g in pairs:
            drift = abs(answer_scores(p, g)[1] - _naive_item_f1(p, g))
            max_drift = max(max_drift, drift)
            ok = ok and drift <= 1e-9

        # trace-level: randomized flag sets against an independent tally
        sample = rng.sample(list(desk_instances), 25)
        flags = [
            {
                "sql_ok": rng.random() < 0.8,
                "right_rows": rng.random() < 0.7,
                "right_tools": rng.random() < 0.75,
                "right_route": rng.random() < 0.85,
            }
            for _ in sample
        ]
        transcripts = [_transcript_for(g, **f) for g, f in zip(sample, flags)]
        got = trace_metrics(transcripts, sample)
        n = len(sample)
        ecr = sum(1 for f in flags if f["sql_ok"])
        pass1 = sum(1 for f in flags if f["sql_ok"] and f["right_rows"])
        api_total = sum(1 for g in sample if g.tool_trace)
        api_hits = sum(
            1
            for f, g in zip(flags, sample)
            if g.tool_trace and f["right_tools"] and f["right_route"]
        )
        plan_hits = sum(
            1
            for f, g in zip(flags, sample)
            if (2 if (g.tool_trace and f["right_route"]) else 1) == len(g.agent_route)
        )
        expected = {
            "ecr": ecr / n,
            "pass_at_1": pass1 / n,
            "api_label_accuracy": api_hits / api_total if api_total else 1.0,
            "planning_accuracy": plan_hits / n,
        }
        for key, value in expected.items():
            drift = abs(got[key] - value)
            max_drift = max(max_drift, drift)
            ok = ok and drift <= 1e-9
    report(
        5,
        ok,
        f"100 randomized prediction sets match the brute-force tally"
        f" (max drift {max_drift:.2e}); forced case scores {forced} == 2/3",
    )


# --- 6. termination ---------------------------------------------------------------------------


class ChurningBackend:
    """Plans fine, then sabotages every execution stage, forcing replan churn."""

    def __init__(self) -> None:
        self.oracle_plan = "DISPATCH db_agent: look something up"

    def complete(self, system_prompt, messages):
        header = parse_task_header(messages)
        if header.get("task") in ("plan", "replan"):
            return self.oracle_plan
        return "no parseable structure here"


def test_criterion_6_termination(desk_instances, desk_store, desk_cache):
    from estateqa.db_agent import DbAgent
    from estateqa.map_agent import MapAgent

    episodes = 0
    started = time.monotonic()
    churner = ChurningBackend()
    supervisor = Supervisor(
        churner,
        {
            "db_agent": DbAgent(desk_store, churner),
            "map_agent": MapAgent(desk_cache, churner),
        },
    )
    ok = True
    for inst in desk_instances[:100]:
        transcript = supervisor.run_episode(inst.question, inst.intents, inst.slots)
        ok = ok and transcript.final_answer is None and transcript.step_count <= 25
        episodes += 1
    raising = RaisingBackend()
    supervisor = Supervisor(raising, {})
    for inst in desk_instances[100:200]:
        transcript = supervisor.run_episode(inst.question, inst.intents, inst.slots)
        ok = ok and transcript.final_answer is None and transcript.step_count <= 25
        episodes += 1
    elapsed = time.monotonic() - started
    ok = ok and episodes == 200 and elapsed < 60.0
    report(
        6,
        ok,
        f"{episodes} adversarial episodes all unanswerable with step_count <= 25"
        f" in {elapsed:.2f}s",
    )


# --- 7. BM25 correctness ------------------------------------------------------------------------


def test_criterion_7_bm25(desk_store):
    catalog8 = [c.caption for c in desk_store.list_captions()]
    config32 = StoreConfig(
        cities=tuple(f"City {chr(65 + i)}" for i in range(8)), fixture_seed=3
    )
    catalog32 = [
        {
            "community": f"Table for Communities in {city}",
            "poi": f"Table for POIs in {city}",
            "poi_community": f"Table for Communities around POIs in {city}",
            "community_community": f"Table for Communities around Communities in {city}",
        }[family]
        for city in config32.cities
        for family in ("community", "poi", "poi_community", "community_community")
    ]
    self_retrieval = True
    for catalog in (catalog8, catalog32):
        index = Bm25Index(catalog)
        for caption in catalog:
            if index.rank(caption, k=1)[0].caption != caption:
                self_retrieval = False

    docs = ["sunny sunny beach", "rainy city walk", "sunny walk in the city"]
    index = Bm25Index(docs)
    max_err = 0.0
    for query in ("sunny walk", "rainy beach city", "walk"):
        n = len(docs)
        token_lists = [tokenize(d) for d in docs]
        avgdl = sum(len(t) for t in token_lists) / n
        for i, tokens in enumerate(token_lists):
            expected = 0.0
            for term in tokenize(query):
                f = tokens.count(term)
                if not f:
                    continue
                df = sum(1 for t in token_lists if term in t)
                idf = math.log(1 + (n - df + 0.5) / (df + 0.5))
                expected += idf * f * 2.2 / (f + 1.2 * (1 - 0.75 + 0.75 * len(tokens) / avgdl))
            max_err = max(max_err, abs(index.score(query, i) - expected))
    ok = self_retrieval and max_err < 1e-9
    report(
        7,
        ok,
        f"self-retrieval rank-1 on 8 and 32 caption catalogs;"
        f" 3-doc hand-computed max error {max_err:.2e}",
    )


# --- 8. cache determinism ------------------------------------------------------------------------


def test_criterion_8_cache_determinism(desk_store, desk_templates, desk_cache, tmp_path):
    paths = []
    for name in ("one.jsonl", "two.jsonl"):
        cache = ToolCache(provider=SyntheticProvider(desk_store))
        generate(desk_templates, desk_store, cache, seed=99, per_template=8)
        path = tmp_path / name
        cache.save(path)
        paths.append(path)
    byte_identical = paths[0].read_bytes() == paths[1].read_bytes()

    rng = random.Random(13)
    requests = [
        ToolRequest(function=r.function, params=r.params, time_bucket=r.time_bucket)
        for r in list(desk_cache._entries)[:100]
    ]
    frozen = ToolCache.load(paths[0])
    frozen._entries = desk_cache._entries  # replay against the big frozen set
    frozen.provider = None
    baseline = [frozen.execute(r).rows for r in requests]
    replay_identical = True
    for _ in range(100):
        picks = rng.sample(range(len(requests)), 100)
        for i in picks:
            if frozen.execute(requests[i]).rows != baseline[i]:
                replay_identical = False

    pairs_ok = True
    pair_rng = random.Random(17)
    cache = ToolCache(provider=SyntheticProvider(desk_store))
    for _ in range(1000):
        origin = GeoPoint(23.0 + pair_rng.uniform(-0.03, 0.03),
                          113.0 + pair_rng.uniform(-0.03, 0.03))
        dest = GeoPoint(23.0 + pair_rng.uniform(-0.03, 0.03),
                        113.0 + pair_rng.uniform(-0.03, 0.03))
        if haversine(origin, dest) == 0.0:
            continue
        route = {"origin_lat": origin.latitude, "origin_lon": origin.longitude,
                 "dest_lat": dest.latitude, "dest_lon": dest.longitude, "mode": "driving"}
        peak = cache.call("rush_hour_query", route).rows[0][-1]
        offpeak = cache.call("time_query", route, BUCKET_OFFPEAK).rows[0][-1]
        if peak <= offpeak:
            pairs_ok = False
    ok = byte_identical and replay_identical and pairs_ok
    report(
        8,
        ok,
        f"two from-scratch populations byte-identical={byte_identical};"
        f" 10,000 replays identical={replay_identical}; peak>off-peak on 1,000 pairs={pairs_ok}",
    )


# --- 9. ablation ladder ----------------------------------------------------------------------------


def test_criterion_9_ablation_ladder(
    desk_instances, desk_store, desk_cache, desk_fixture_dir, desk_templates, tmp_path
):
    sample = [i for i in desk_instances if i.question_type == 2][:6] + [
        i for i in desk_instances if i.question_type == 1
    ][:6]

    # the CLI command emits the four-rung ladder
    dataset = tmp_path / "slice.jsonl"
    write_instances(str(dataset), sample)
    cache_path = tmp_path / "cache.jsonl"
    desk_cache.save(cache_path)
    store_path = tmp_path / "store.db"
    persistent = GeoStore(desk_store.config, store_path)
    persistent.ingest_fixture(desk_fixture_dir)
    persistent.build_proximity_pairs()
    persistent.close()
    ladder_dir = tmp_path / "ladder"
    exit_code = main(
        ["ablate", "--store", str(store_path), "--cache", str(cache_path),
         "--dataset", str(dataset), "--out", str(ladder_dir),
         "--backend", "oracle", "--inject", "sql,api"]
    )
    rung_files = sorted(p.name for p in ladder_dir.glob("ablation_*.json"))
    cmd_ok = exit_code == 0 and len(rung_files) == 4 and all(
        json.loads((ladder_dir / f).read_text())["overall"]["acc"] == 1.0 for f in rung_files
    )

    # sabotaging exactly one stage and injecting that stage's GT recovers 1.0
    ladder_ok = True
    backend = SabotageBackend(make_oracle_backend(sample, desk_store), "generate_sql")
    reports = run_ablation(
        sample, desk_store, desk_cache, backend, RunConfig(agents="live", step_cap=9),
        desk_templates,
    )
    ladder_ok = ladder_ok and list(reports) == [name for name, _ in ABLATION_LADDER]
    broken_rungs = (reports["none"], reports["gt_slu"])
    recovered = (reports["gt_slu_sql"], reports["gt_slu_sql_api"])
    ladder_ok = ladder_ok and all(r.overall["acc"] < 1.0 for r in broken_rungs)
    ladder_ok = ladder_ok and all(r.overall["acc"] == 1.0 for r in recovered)

    api_backend = SabotageBackend(make_oracle_backend(sample, desk_store), "decide_tools")
    api_reports = run_ablation(
        sample, desk_store, desk_cache, api_backend, RunConfig(agents="live", step_cap=9),
        desk_templates,
    )
    affected = api_reports["gt_slu_sql"].per_type[2]["acc"]
    recovered_api = api_reports["gt_slu_sql_api"].per_type[2]["acc"]
    ladder_ok = ladder_ok and affected < 1.0 and recovered_api == 1.0
    report(
        9,
        cmd_ok and ladder_ok,
        f"cmd_ablate emitted {len(rung_files)} rungs (oracle acc all 1.0);"
        " SQL sabotage recovered by GT SQL"
        f" (acc {broken_rungs[1].overall['acc']:.2f} -> {recovered[0].overall['acc']:.2f});"
        f" API sabotage recovered by GT API ({affected:.2f} -> {recovered_api:.2f})",
    )


# --- 10. SLU baseline ----------------------------------------------------------------------------


def test_criterion_10_slu_baseline(desk_instances, desk_store, desk_templates):
    splits, _ = stratified_split(list(desk_instances), 29)
    test_split = splits["test"]
    slu = LexiconSlu(Gazetteer.from_store(desk_store), desk_templates)
    predictions = [slu.predict(i.question) for i in test_split]
    metrics = slu_metrics(predictions, test_split)
    slot_f1 = metrics["slot"]["f1"]
    intent_acc = metrics["intent_accuracy"]
    ok = slot_f1 >= 0.95 and intent_acc >= 0.95
    report(
        10,
        ok,
        f"lexicon SLU on test split (n={len(test_split)}):"
        f" slot F1 {slot_f1:.4f} >= 0.95, intent accuracy {intent_acc:.4f} >= 0.95",
    )
