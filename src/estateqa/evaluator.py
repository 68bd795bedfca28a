"""Metric suite and experiment runner.

End-to-end scoring (strict exact-match accuracy, item-level F1), intermediate
trace metrics (executable-ratio, pass@1, API-label accuracy, planning
accuracy), ground-truth injection ablations, and report emission in both a
human table layout and a machine-readable document.

Metric definitions:
- accuracy: strict exact match, as :func:`estateqa.domain.answer_equal`; an
  unanswerable verdict scores 0 against any gold.
- item F1: answers decompose to item multisets (entity sets to their elements,
  scalars to a single normalized item); F1 = 2PR/(P+R), which is
  2*overlap/(|pred|+|gold|) and is computed as that one integer division,
  0 when either side is empty.
- ECR: fraction of episodes whose first generated SQL executed without error.
- pass@1: fraction whose first candidate's result rows equal the gold rows
  (order-insensitive multiset comparison).
- API label accuracy: over instances with gold tool calls, the emitted
  (function, normalized params) sequence equals the gold sequence.
- planning accuracy: the dispatched specialist sequence equals the gold route.
"""

from __future__ import annotations

from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from typing import Any, Sequence

from .backends import ChatBackend, OracleBackend
from .db_agent import DbAgent
from .domain import CanonicalAnswer, QAInstance
from .map_agent import MapAgent
from .slu import FewShotSlu, Gazetteer, LexiconSlu, slu_metrics
from .store import GeoStore
from .supervisor import DEFAULT_STEP_CAP, EpisodeTranscript, Supervisor
from .templates import Template
from .tools import ToolCache

# --- per-answer metrics ----------------------------------------------------------


def answer_scores(pred: CanonicalAnswer | None, gold: CanonicalAnswer) -> tuple[int, float]:
    """(accuracy, item F1) of one answer, from one decomposition of each side."""
    if pred is None:
        return 0, 0.0
    pred_items, gold_items = pred.items(), gold.items()
    # the comparison of domain.answer_equal, on the items already at hand
    exact = int(pred.kind == gold.kind and pred_items == gold_items)
    if not pred_items or not gold_items:
        return exact, 0.0
    overlap = sum((Counter(pred_items) & Counter(gold_items)).values())
    # 2PR/(P+R) with P = overlap/|pred| and R = overlap/|gold| is
    # 2*overlap/(|pred|+|gold|): one correctly rounded division of integers
    return exact, 2 * overlap / (len(pred_items) + len(gold_items))


# --- trace metrics -----------------------------------------------------------------


def _row_multiset(rows: Sequence[Sequence[Any]]) -> Counter:
    return Counter(tuple(r) for r in rows)


def trace_metrics(
    transcripts: Sequence[EpisodeTranscript], golds: Sequence[QAInstance]
) -> dict[str, float]:
    """Intermediate-step agreement between transcripts and gold supervision."""
    if len(transcripts) != len(golds):
        raise ValueError(f"{len(transcripts)} transcripts vs {len(golds)} golds")
    n = len(golds)
    ecr = passed = plan_hits = 0
    api_total = api_hits = 0
    for transcript, gold in zip(transcripts, golds):
        candidates = transcript.sql_candidates
        first = candidates[0] if candidates else None
        if first is not None and first.get("ok"):
            ecr += 1
            gold_rows = _row_multiset(gold.sql_trace[0].expected_rows)
            # a Counter of rows holds no zero count, so dict equality is
            # multiset equality, without Counter.__eq__'s Python-level loop
            if dict.__eq__(_row_multiset(first.get("rows", [])), gold_rows):
                passed += 1
        if gold.tool_trace:
            api_total += 1
            emitted = [
                (c["function"], dict(c.get("params", {}))) for c in transcript.tool_calls
            ]
            wanted = [(s.function, dict(s.params)) for s in gold.tool_trace]
            if emitted == wanted:
                api_hits += 1
        if transcript.specialist_sequence == gold.agent_route:
            plan_hits += 1
    return {
        "ecr": ecr / n if n else 0.0,
        "pass_at_1": passed / n if n else 0.0,
        "api_label_accuracy": api_hits / api_total if api_total else 1.0,
        "planning_accuracy": plan_hits / n if n else 0.0,
    }


# --- experiment runner ------------------------------------------------------------------


@dataclass(frozen=True)
class RunConfig:
    """The settings a report records, as its ``config`` block, in its order."""

    inject_slu: bool = False
    inject_sql: bool = False
    inject_api: bool = False
    step_cap: int = DEFAULT_STEP_CAP
    agents: str = "live"  # the only value
    slu_strategy: str = "lexicon"  # lexicon | fewshot
    seed: int = 0


@dataclass
class EvalReport:
    per_type: dict[int, dict[str, float]]
    overall: dict[str, float]
    trace: dict[str, float]
    slu: dict[str, object] | None
    failures: dict[str, int]
    episodes: int
    config: RunConfig

    def render_table(self) -> str:
        lines = [f"{'Queries':<10} {'F1':>8} {'Acc':>8} {'Count':>7}"]
        for qtype in (1, 2, 3):
            row = self.per_type.get(qtype)
            if row is None:
                continue
            lines.append(
                f"Type {qtype:<5} {row['f1']:>8.4f} {row['acc']:>8.4f} {int(row['count']):>7}"
            )
        lines.append(
            f"{'Overall':<10} {self.overall['f1']:>8.4f} {self.overall['acc']:>8.4f}"
            f" {int(self.overall['count']):>7}"
        )
        lines.append("")
        lines.append(
            "ECR {ecr:.4f}  pass@1 {pass_at_1:.4f}  API-label {api_label_accuracy:.4f}"
            "  planning {planning_accuracy:.4f}".format(**self.trace)
        )
        return "\n".join(lines)


@dataclass
class EpisodeRecord:
    instance: QAInstance
    transcript: EpisodeTranscript


def build_supervisor(
    instances: Sequence[QAInstance],
    store: GeoStore,
    cache: ToolCache,
    backend: ChatBackend,
    config: RunConfig,
) -> Supervisor:
    """The supervisor over the run's backend. An injected specialist asks the
    oracle instead, whose replies are the gold caption, SQL or tool calls."""
    injected = config.inject_sql or config.inject_api
    oracle = make_oracle_backend(instances, store) if injected else backend
    specialists = {
        "db_agent": DbAgent(store, oracle if config.inject_sql else backend),
        "map_agent": MapAgent(cache, oracle if config.inject_api else backend),
    }
    return Supervisor(backend, specialists, step_cap=config.step_cap)


def run_suite(
    instances: Sequence[QAInstance],
    store: GeoStore,
    cache: ToolCache,
    backend: ChatBackend,
    config: RunConfig,
    templates: Sequence[Template],
    fewshot_pool: Sequence[QAInstance] | None = None,
    *,
    parallelism: int = 1,
) -> tuple[EvalReport, list[EpisodeRecord]]:
    """Run one episode per instance, ``parallelism`` at a time, and aggregate
    the full metric suite.

    ``templates`` gives the lexicon SLU its intents. Deterministic given a
    deterministic backend; aggregation is an order-independent fold over
    completed episodes.
    """
    if config.inject_slu:
        slu = None
    elif config.slu_strategy == "fewshot":
        slu = FewShotSlu(backend, fewshot_pool or [])
    else:
        slu = LexiconSlu(Gazetteer.from_store(store), templates)
    supervisor = build_supervisor(instances, store, cache, backend, config)

    def run_one(instance: QAInstance) -> EpisodeRecord:
        if slu is None:
            intents, slots = instance.intents, instance.slots
            prediction = None
        else:
            prediction = slu.predict(instance.question)
            intents, slots = prediction.intents, prediction.slots
        transcript = supervisor.run_episode(
            instance.question, intents, slots, instance_id=instance.id
        )
        transcript.slu = prediction
        return EpisodeRecord(instance, transcript)

    if parallelism > 1:
        with ThreadPoolExecutor(max_workers=parallelism) as pool:
            records = list(pool.map(run_one, instances))
    else:
        records = [run_one(i) for i in instances]
    records.sort(key=lambda r: r.instance.id)

    return aggregate(records, config), records


def aggregate(records: Sequence[EpisodeRecord], config: RunConfig) -> EvalReport:
    buckets: dict[int, list[tuple[float, float]]] = {1: [], 2: [], 3: []}
    failures: Counter[str] = Counter()
    for record in records:
        pred = record.transcript.final_answer
        gold = record.instance.answer
        exact, f1 = answer_scores(pred, gold)
        buckets[record.instance.question_type].append((float(exact), f1))
        if pred is None:
            failures["unanswerable"] += 1
        if record.transcript.failure:
            failures[record.transcript.failure] += 1

    def summarize(pairs: list[tuple[float, float]]) -> dict[str, float]:
        if not pairs:
            return {"acc": 0.0, "f1": 0.0, "count": 0}
        return {
            "acc": sum(p[0] for p in pairs) / len(pairs),
            "f1": sum(p[1] for p in pairs) / len(pairs),
            "count": len(pairs),
        }

    per_type = {t: summarize(pairs) for t, pairs in buckets.items() if pairs}
    all_pairs = [p for pairs in buckets.values() for p in pairs]
    overall = summarize(all_pairs)

    trace = trace_metrics(
        [r.transcript for r in records], [r.instance for r in records]
    )
    slu_report = None
    if records and records[0].transcript.slu is not None:
        slu_report = slu_metrics(
            [r.transcript.slu for r in records], [r.instance for r in records]
        )
    return EvalReport(
        per_type=per_type,
        overall=overall,
        trace=trace,
        slu=slu_report,
        failures=dict(failures),
        episodes=len(records),
        config=config,
    )


# --- ground-truth injection ladder ----------------------------------------------------


ABLATION_LADDER: tuple[tuple[str, dict[str, bool]], ...] = (
    ("none", {}),
    ("gt_slu", {"inject_slu": True}),
    ("gt_slu_sql", {"inject_slu": True, "inject_sql": True}),
    ("gt_slu_sql_api", {"inject_slu": True, "inject_sql": True, "inject_api": True}),
)


def run_ablation(
    instances: Sequence[QAInstance],
    store: GeoStore,
    cache: ToolCache,
    backend: ChatBackend,
    config: RunConfig,
    templates: Sequence[Template],
    fewshot_pool: Sequence[QAInstance] | None = None,
    *,
    parallelism: int = 1,
) -> dict[str, EvalReport]:
    """Sweep the four-rung ground-truth injection ladder: none, SLU,
    SLU+SQL, SLU+SQL+API."""
    return {
        name: run_suite(
            instances, store, cache, backend, replace(config, **flags), templates,
            fewshot_pool, parallelism=parallelism,
        )[0]
        for name, flags in ABLATION_LADDER
    }


def make_oracle_backend(instances: Sequence[QAInstance], store: GeoStore) -> OracleBackend:
    captions = {c.table_id: c.caption for c in store.list_captions()}
    return OracleBackend(instances, captions)
