"""Front-end language understanding: intent detection and slot filling.

Two pluggable strategies:

- ``LexiconSlu``: deterministic gazetteer matching (longest match wins, equal
  lengths break to the earliest span, then to the slot-type name); intents,
  and the numeric slots no gazetteer entry carries, come from the first
  template whose question pattern the question fully matches. A stand-in for
  a trained tagger; on template-derived questions it is near-exact by
  construction.
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
from typing import Sequence

from .backends import BackendError, ChatBackend, ask, build_task_message
from .domain import QAInstance, SluPrediction, SlotAnnotation, locate_slot
from .prompts import load_prompt
from .store import GeoStore
from .templates import PLACEHOLDER_RE, Template, slot_type_for

log = logging.getLogger(__name__)


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
        # last, so a property type keeps a surface it shares with another entry
        for city in sorted(store.config.cities):
            for community in snapshot[city].communities:
                entries[community.property_type] = "property_type"
        return cls(entries)


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
    """Gazetteer spans bounded by non-alphanumerics; intents from the first
    template whose pattern the question fully matches, else ``("unknown",)``.
    That match also supplies, as candidates, the placeholder groups whose slot
    type no gazetteer entry carries (``count``, ``radius_km`` and ``minutes``
    with a store's gazetteer).

    A surface can only match, whole-word, where the question's own leading
    run (:func:`_lead` of the rest of the question) equals the surface's. So
    each leading run is indexed by the sorted distinct lengths of the surfaces
    it leads, and each word start tries only those lengths: a slice that ends
    on a word boundary is one dict lookup in the gazetteer. The candidates are
    the same as a ``str.find`` for every surface, so the output is too.
    """

    def __init__(self, gazetteer: Gazetteer, templates: Sequence[Template]) -> None:
        self.gazetteer = gazetteer
        carried = set(gazetteer.entries.values())
        # each template with the (group, slot type) of its placeholders not carried
        self._templates: list[tuple[Template, list[tuple[int, str]]]] = []
        for template in templates:
            types = map(slot_type_for, PLACEHOLDER_RE.findall(template.question_pattern))
            groups = [(g, t) for g, t in enumerate(types, 1) if t and t not in carried]
            self._templates.append((template, groups))
        lengths: dict[str, set[int]] = {}
        for surface in gazetteer.entries:
            if surface:
                lengths.setdefault(_lead(surface), set()).add(len(surface))
        self._lengths = {lead: sorted(sizes) for lead, sizes in lengths.items()}

    def predict(self, question: str) -> SluPrediction:
        entries = self.gazetteer.entries
        size = len(question)
        candidates: list[SlotAnnotation] = []
        for word in _WORD_START_RE.finditer(question):
            lengths = self._lengths.get(word.group())
            if lengths is None:
                continue
            start = word.start()
            for length in lengths:
                end = start + length
                if end > size:
                    break
                if end < size and question[end].isalnum():
                    continue
                surface = question[start:end]
                slot_type = entries.get(surface)
                if slot_type is not None:
                    candidates.append(SlotAnnotation(slot_type, surface, start, end))
        # an empty surface has no leading character to index it by
        if "" in entries:
            for gap in _GAP_RE.finditer(question):
                candidates.append(SlotAnnotation(entries[""], "", gap.start(), gap.start()))
        intents: tuple[str, ...] = ("unknown",)
        for template, groups in self._templates:
            match = template.match(question)
            if match:
                intents = template.intents
                for g, slot_type in groups:
                    candidates.append(
                        SlotAnnotation(slot_type, match.group(g), match.start(g), match.end(g))
                    )
                break

        # longest match wins; equal lengths -> earliest span; then type name
        candidates.sort(key=lambda s: (-(s.end - s.start), s.start, s.slot_type))
        chosen: list[SlotAnnotation] = []
        for cand in candidates:
            if all(cand.start >= c.end or c.start >= cand.end for c in chosen):
                chosen.append(cand)
        chosen.sort(key=lambda s: s.start)
        return SluPrediction(intents=intents, slots=tuple(chosen))


FEWSHOT_EXAMPLE_COUNT = 26


def build_fewshot_pool(training: Sequence[QAInstance], seed: int) -> list[QAInstance]:
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
    pool.extend(remaining[: max(0, FEWSHOT_EXAMPLE_COUNT - len(pool))])
    return pool[:FEWSHOT_EXAMPLE_COUNT]


class FewShotSlu:
    def __init__(self, backend: ChatBackend, pool: Sequence[QAInstance]) -> None:
        self.backend = backend
        self.pool = list(pool)
        self.system_prompt = load_prompt("slu_fewshot_system")

    def _render_examples(self) -> str:
        blocks = []
        for inst in self.pool:
            labels = json.dumps(inst.slu_labels(), ensure_ascii=False)
            blocks.append(f"Question: {inst.question}\nLabels: {labels}")
        return "\n\n".join(blocks)

    def predict(self, question: str) -> SluPrediction:
        content = build_task_message("slu", question, examples=str(len(self.pool)))
        content += "\n\nWorked examples:\n" + self._render_examples()
        try:
            reply = ask(self.backend, self.system_prompt, content)
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
        raw_slots = list(data.get("slots", []))
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
        slot = locate_slot(question, slot_type, value, taken)
        if slot is None:
            log.warning("slot value %r not present in question; dropped", value)
        else:
            slots.append(slot)
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
