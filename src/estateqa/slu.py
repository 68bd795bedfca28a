"""Front-end language understanding: intent detection and slot filling.

Two pluggable strategies:

- ``LexiconSlu``: deterministic gazetteer matching (longest match wins, equal
  lengths break to the earliest span, then to the slot-type name) plus numeric
  patterns and keyword intent rules. A stand-in for a trained tagger; on
  template-derived questions it is near-exact by construction.
- ``FewShotSlu``: prompts a chat backend with worked examples covering every
  intent and parses a JSON reply; malformed output degrades to an empty
  prediction instead of crashing.

Slot scoring is at (slot_type, value) granularity to stay independent of
tokenizer choice; IOB export lives in :mod:`estateqa.domain`.
"""

from __future__ import annotations

import json
import logging
import random
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

from .backends import BackendError, ChatBackend, build_task_message
from .domain import QAInstance, SlotAnnotation
from .prompts import load_prompt
from .store import GeoStore

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class SluPrediction:
    intents: tuple[str, ...]
    slots: tuple[SlotAnnotation, ...]


# ordered: first matching rule wins
INTENT_RULES: tuple[tuple[str, str], ...] = (
    ("price_comparison", r"higher average price"),
    ("neighbor_price_comparison", r"lowest average price"),
    ("price_lookup", r"average price per square meter of"),
    ("greening_lookup", r"greening rate"),
    ("sales_status_lookup", r"sales status"),
    ("community_listing", r"\blist\b.*communities"),
    ("nearby_poi_count", r"how many .* pois are within"),
    ("poi_count", r"how many .* recorded in"),
    ("walk_time", r"how long .* walk from"),
    ("cycle_time", r"\bcycle from\b"),
    ("drive_distance", r"driving distance"),
    ("straight_distance", r"straight-line distance"),
    ("rush_hour_time", r"how long .* drive .* rush hour"),
    ("rush_reachability_filter", r"rush hour.* within \d+ minutes by car"),
    ("reachability_filter", r"within \d+ minutes by public transit"),
    ("nearest_poi_listing", r"nearest \d+"),
    ("nearby_poi_listing", r"which .* pois are within"),
    ("least_travel_time", r"least time to drive"),
    ("closest_on_foot", r"closer on foot"),
    ("mode_comparison", r"faster: walking or public transit"),
)
_INTENT_PATTERNS = tuple((name, re.compile(pattern)) for name, pattern in INTENT_RULES)

_NUMERIC_PATTERNS: tuple[tuple[str, re.Pattern[str]], ...] = (
    ("radius_km", re.compile(r"within (\d+(?:\.\d+)?) km\b", re.IGNORECASE)),
    ("minutes", re.compile(r"within (\d+) minutes\b", re.IGNORECASE)),
    ("count", re.compile(r"nearest (\d+)\b", re.IGNORECASE)),
)


class Gazetteer:
    """Surface-form lexicon mapping entity strings to slot types.

    Matching is case-sensitive: entity names are title-cased while label and
    property-type phrases are lowercase, which keeps them from colliding.
    """

    def __init__(self, entries: dict[str, str]) -> None:
        self.entries = dict(entries)

    @classmethod
    def from_store(cls, store: GeoStore) -> "Gazetteer":
        entries: dict[str, str] = {}
        snapshot = store.snapshot()
        for city in sorted(store.config.cities):
            entities = snapshot[city]
            entries[city] = "city"
            for district in entities.districts:
                entries[district] = "district"
            for community in entities.communities:
                entries[community.name] = "community_name"
            for poi in entities.pois:
                entries[poi.name] = "poi_name"
        for label in store.config.labels:
            entries[label] = "poi_label"
        for caption in store.list_captions():
            if caption.family == "community":
                _, rows = store.execute_sql(
                    f"SELECT DISTINCT property_type FROM {caption.table_id}"
                )
                for (ptype,) in rows:
                    entries[str(ptype)] = "property_type"
        return cls(entries)

    def dump(self, path: str | Path) -> None:
        Path(path).write_text(
            json.dumps(self.entries, ensure_ascii=False, sort_keys=True, indent=0),
            encoding="utf-8",
        )

    @classmethod
    def load(cls, path: str | Path) -> "Gazetteer":
        return cls(json.loads(Path(path).read_text(encoding="utf-8")))


# ``[^\W_]`` is exactly the set of characters ``str.isalnum`` accepts.
_LEADING_RUN_RE = re.compile(r"[^\W_]*")
# Every position not preceded by an alphanumeric character, with the
# alphanumeric run that starts there (or, when there is none, its character).
_WORD_START_RE = re.compile(r"(?<![^\W_])(?:[^\W_]+|.)", re.DOTALL)
# Every position with no alphanumeric character on either side.
_GAP_RE = re.compile(r"(?<![^\W_])(?![^\W_])")


def _lead(surface: str) -> str:
    """Index key of a surface: its leading alphanumeric run, or its first
    character when the run is empty."""
    return _LEADING_RUN_RE.match(surface).group() or surface[:1]


class LexiconSlu:
    """Gazetteer spans bounded by non-alphanumerics, numeric patterns and
    keyword intent rules.

    A surface can only match, whole-word, where the question's own leading
    run (:func:`_lead` of the rest of the question) equals the surface's, so
    each word start looks up one bucket of surfaces instead of scanning the
    whole gazetteer. The candidates are the same as a ``str.find`` for every
    surface, so the output is too.
    """

    def __init__(self, gazetteer: Gazetteer) -> None:
        self.gazetteer = gazetteer
        self._by_lead: dict[str, list[tuple[str, str]]] = {}
        for surface, slot_type in gazetteer.entries.items():
            self._by_lead.setdefault(_lead(surface), []).append((surface, slot_type))

    def predict(self, question: str) -> SluPrediction:
        size = len(question)
        candidates: list[SlotAnnotation] = []
        for word in _WORD_START_RE.finditer(question):
            start = word.start()
            for surface, slot_type in self._by_lead.get(word.group(), ()):
                end = start + len(surface)
                if question.startswith(surface, start) and (
                    end == size or not question[end].isalnum()
                ):
                    candidates.append(SlotAnnotation(slot_type, surface, start, end))
        # an empty surface has no leading character to index it by
        for _, slot_type in self._by_lead.get("", ()):
            for gap in _GAP_RE.finditer(question):
                candidates.append(SlotAnnotation(slot_type, "", gap.start(), gap.start()))
        for slot_type, pattern in _NUMERIC_PATTERNS:
            for match in pattern.finditer(question):
                candidates.append(
                    SlotAnnotation(slot_type, match.group(1), match.start(1), match.end(1))
                )

        # longest match wins; equal lengths -> earliest span; then type name
        candidates.sort(key=lambda s: (-(s.end - s.start), s.start, s.slot_type))
        chosen: list[SlotAnnotation] = []
        for cand in candidates:
            if all(cand.start >= c.end or c.start >= cand.end for c in chosen):
                chosen.append(cand)
        chosen.sort(key=lambda s: s.start)

        lowered = question.casefold()
        intent = next(
            (name for name, pattern in _INTENT_PATTERNS if pattern.search(lowered)),
            "unknown",
        )
        return SluPrediction(intents=(intent,), slots=tuple(chosen))


FEWSHOT_EXAMPLE_COUNT = 26


def build_fewshot_pool(
    training: Sequence[QAInstance], seed: int, count: int = FEWSHOT_EXAMPLE_COUNT
) -> list[QAInstance]:
    """Sample a worked-example pool covering the full spectrum of intents."""
    rng = random.Random(f"fewshot:{seed}")
    by_intent: dict[str, list[QAInstance]] = {}
    for inst in training:
        for intent in inst.intents:
            by_intent.setdefault(intent, []).append(inst)
    pool: list[QAInstance] = []
    seen: set[str] = set()
    for intent in sorted(by_intent):
        pick = rng.choice(by_intent[intent])
        if pick.id not in seen:
            pool.append(pick)
            seen.add(pick.id)
    remaining = [i for i in training if i.id not in seen]
    rng.shuffle(remaining)
    pool.extend(remaining[: max(0, count - len(pool))])
    return pool[:count]


class FewShotSlu:
    def __init__(self, backend: ChatBackend, pool: Sequence[QAInstance]) -> None:
        self.backend = backend
        self.pool = list(pool)
        self.system_prompt = load_prompt("slu_fewshot_system")

    def _render_examples(self) -> str:
        blocks = []
        for inst in self.pool:
            target = {
                "intents": list(inst.intents),
                "slots": [{"slot_type": s.slot_type, "value": s.value} for s in inst.slots],
            }
            blocks.append(
                f"Question: {inst.question}\nLabels: {json.dumps(target, ensure_ascii=False)}"
            )
        return "\n\n".join(blocks)

    def predict(self, question: str) -> SluPrediction:
        content = build_task_message("slu", question, examples=str(len(self.pool)))
        content += "\n\nWorked examples:\n" + self._render_examples()
        try:
            reply = self.backend.complete(
                self.system_prompt, [{"role": "user", "content": content}]
            )
        except BackendError as exc:
            log.warning("few-shot SLU backend failed: %s", exc)
            return SluPrediction(intents=(), slots=())
        return parse_slu_reply(reply, question)


def parse_slu_reply(reply: str, question: str) -> SluPrediction:
    """Parse a JSON SLU reply; spans are re-located in the question and values
    that do not occur verbatim are dropped with a warning."""
    try:
        start = reply.index("{")
        end = reply.rindex("}")
        data = json.loads(reply[start : end + 1])
        intents = tuple(str(i) for i in data.get("intents", []))
        raw_slots = data.get("slots", [])
    except (ValueError, TypeError, AttributeError):
        log.warning("unparseable SLU reply: %r", reply[:120])
        return SluPrediction(intents=(), slots=())
    taken: list[tuple[int, int]] = []
    slots: list[SlotAnnotation] = []
    for item in raw_slots:
        try:
            slot_type, value = str(item["slot_type"]), str(item["value"])
        except (KeyError, TypeError):
            continue
        pos = 0
        while True:
            idx = question.find(value, pos)
            if idx < 0:
                log.warning("slot value %r not present in question; dropped", value)
                break
            end_idx = idx + len(value)
            if all(idx >= e or s >= end_idx for s, e in taken):
                taken.append((idx, end_idx))
                slots.append(SlotAnnotation(slot_type, value, idx, end_idx))
                break
            pos = idx + 1
    slots.sort(key=lambda s: s.start)
    return SluPrediction(intents=intents, slots=tuple(slots))


# --- metrics --------------------------------------------------------------------


def _prf(tp: int, fp: int, fn: int) -> dict[str, float]:
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return {"precision": precision, "recall": recall, "f1": f1}


def slu_metrics(
    predictions: Sequence[SluPrediction], golds: Sequence[QAInstance]
) -> dict[str, object]:
    """Micro-averaged P/R/F1 for intents (exact set elements) and slots at
    (slot_type, value) granularity, plus whole-set intent accuracy."""
    if len(predictions) != len(golds):
        raise ValueError(f"{len(predictions)} predictions vs {len(golds)} golds")
    intent_tp = intent_fp = intent_fn = 0
    slot_tp = slot_fp = slot_fn = 0
    exact_intent = 0
    for pred, gold in zip(predictions, golds):
        pred_intents = set(pred.intents)
        gold_intents = set(gold.intents)
        intent_tp += len(pred_intents & gold_intents)
        intent_fp += len(pred_intents - gold_intents)
        intent_fn += len(gold_intents - pred_intents)
        if pred_intents == gold_intents:
            exact_intent += 1

        pred_items = [(s.slot_type, s.value) for s in pred.slots]
        gold_items = [(s.slot_type, s.value) for s in gold.slots]
        remaining = list(gold_items)
        for item in pred_items:
            if item in remaining:
                remaining.remove(item)
                slot_tp += 1
            else:
                slot_fp += 1
        slot_fn += len(remaining)
    return {
        "intent": _prf(intent_tp, intent_fp, intent_fn),
        "slot": _prf(slot_tp, slot_fp, slot_fn),
        "intent_accuracy": exact_intent / len(golds) if golds else 0.0,
        "count": len(golds),
    }
