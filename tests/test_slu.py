"""SLU strategies and metrics: gazetteer matching, intents from template
patterns, few-shot parsing, and metric equivalence with a naive confusion
tally."""

from __future__ import annotations

import json
import random
import re

import pytest

from doubles import RaisingBackend, ScriptedBackend
from estateqa.domain import SlotAnnotation, decode
from estateqa.generator import stratified_split
from estateqa.slu import (
    FewShotSlu,
    Gazetteer,
    LexiconSlu,
    SluPrediction,
    build_fewshot_pool,
    parse_slu_reply,
    slu_metrics,
)
from estateqa.templates import DEFAULT_TEMPLATE_DICTS, Template, default_templates


@pytest.fixture(scope="module")
def lexicon(desk_store, desk_templates):
    return LexiconSlu(Gazetteer.from_store(desk_store), desk_templates)


def test_single_known_community_tagged(lexicon, desk_store):
    name = desk_store.communities("Guangzhou")[0].name
    prediction = lexicon.predict(f"Tell me about {name} please.")
    assert any(s.slot_type == "community_name" and s.value == name for s in prediction.slots)


def test_zero_gazetteer_hits_empty_with_unknown_intent(lexicon):
    prediction = lexicon.predict("what is the meaning of life?")
    assert prediction.slots == ()
    assert prediction.intents == ("unknown",)


def test_spans_satisfy_substring_invariant(lexicon, desk_instances):
    for inst in desk_instances[:80]:
        prediction = lexicon.predict(inst.question)
        for slot in prediction.slots:
            assert inst.question[slot.start : slot.end] == slot.value


def test_longest_match_wins():
    gaz = Gazetteer({"Jade Court": "community_name", "Jade Court East": "community_name"})
    slu = LexiconSlu(gaz, default_templates())
    prediction = slu.predict("Is Jade Court East nice?")
    assert [s.value for s in prediction.slots] == ["Jade Court East"]


def test_equal_length_earliest_span_wins():
    gaz = Gazetteer({"Alpha Park": "poi_name"})
    slu = LexiconSlu(gaz, default_templates())
    prediction = slu.predict("Alpha Park or Alpha Park?")
    assert [s.start for s in prediction.slots] == [0, 14]


def test_word_boundary_guard():
    gaz = Gazetteer({"park": "poi_label"})
    slu = LexiconSlu(gaz, default_templates())
    assert slu.predict("I parked nearby").slots == ()
    assert [s.value for s in slu.predict("a park nearby").slots] == ["park"]


def _reference_slots(
    gazetteer: Gazetteer, question: str, numeric: tuple[SlotAnnotation, ...] = ()
) -> tuple[SlotAnnotation, ...]:
    """Brute-force oracle: one ``str.find`` scan per gazetteer surface, plus
    the ``numeric`` slots, which the lexicon reads from the matching template
    (the gold slots of the types no gazetteer entry carries)."""

    def is_boundary(start: int, end: int) -> bool:
        before = question[start - 1] if start > 0 else " "
        after = question[end] if end < len(question) else " "
        return not (before.isalnum() or after.isalnum())

    candidates = []
    for surface, slot_type in gazetteer.entries.items():
        start = 0
        while True:
            idx = question.find(surface, start)
            if idx < 0:
                break
            end = idx + len(surface)
            if is_boundary(idx, end):
                candidates.append(SlotAnnotation(slot_type, surface, idx, end))
            start = idx + 1
    candidates.extend(numeric)
    candidates.sort(key=lambda s: (-(s.end - s.start), s.start, s.slot_type))
    chosen = []
    for cand in candidates:
        if all(cand.start >= c.end or c.start >= cand.end for c in chosen):
            chosen.append(cand)
    chosen.sort(key=lambda s: s.start)
    return tuple(chosen)


def test_indexed_matcher_equals_reference_on_desk_questions(lexicon, desk_instances):
    assert desk_instances
    carried = set(lexicon.gazetteer.entries.values())
    for inst in desk_instances:
        prediction = lexicon.predict(inst.question)
        numeric = tuple(s for s in inst.slots if s.slot_type not in carried)
        assert prediction.slots == _reference_slots(
            lexicon.gazetteer, inst.question, numeric
        ), inst.question
        assert prediction.intents == inst.intents, inst.question


def test_each_desk_question_fully_matches_only_its_own_template(desk_instances, desk_templates):
    for inst in desk_instances:
        matched = [t.template_id for t in desk_templates if t.match(inst.question)]
        assert matched == [inst.template_id], inst.question


SWAPPED_PATTERN = "Per square meter, what does {community_name} in {city} cost?"


def _swapped_template() -> Template:
    """The shipped average-price template, reworded under a new intent name."""
    shipped = next(d for d in DEFAULT_TEMPLATE_DICTS if d["template_id"] == "t1_avg_price")
    return decode(
        Template, {**shipped, "intents": ["unit_price"], "question_pattern": SWAPPED_PATTERN}
    )


def test_swapped_template_set_predicts_its_own_intents(desk_store):
    slu = LexiconSlu(Gazetteer.from_store(desk_store), [_swapped_template()])
    name = desk_store.communities("Suzhou")[0].name
    prediction = slu.predict(f"Per square meter, what does {name} in Suzhou cost?")
    assert prediction.intents == ("unit_price",)
    assert ("community_name", name) in {(s.slot_type, s.value) for s in prediction.slots}
    # the shipped wording is not in this set
    shipped_wording = f"What is the average price per square meter of {name} in Suzhou?"
    assert slu.predict(shipped_wording).intents == ("unknown",)


@pytest.mark.parametrize(
    "question, matches",
    [
        ("Per square meter, what does A in B cost?", True),
        ("Per square meter, what does  in B cost?", False),  # a placeholder is non-empty
        ("per square meter, what does A in B cost?", False),  # literal text is verbatim
        ("So: Per square meter, what does A in B cost?", False),  # the match is full
        ("Per square meter, what does A in B cost? Thanks", False),
        ("Per square meter, what does A in B in C cost?", True),
    ],
)
def test_question_pattern_matching(question, matches):
    assert (_swapped_template().match(question) is not None) is matches


ADVERSARIAL = [
    # a leftmost-longest scan would take "Alpha Bay Court" and lose "Alpha Bay"
    (
        {"Alpha Bay": "community_name", "Alpha Bay Court": "community_name",
         "Court Road Station": "poi_name"},
        ["Is Alpha Bay Court Road Station near?"],
        [("community_name", "Alpha Bay"), ("poi_name", "Court Road Station")],
    ),
    (
        {"No.2": "community_name", "No": "district", "2": "poi_name", "No.2.5": "poi_name"},
        ["Is No.2 near No.25, No.2.5 or No.2?", "No.2", "No.2.", "Go No 2 No.2x"],
        [("community_name", "No.2"), ("district", "No"), ("poi_name", "No.2.5"),
         ("community_name", "No.2")],
    ),
    (
        {"Jade Court": "community_name", "Court": "poi_label"},
        ["Jade Court_x and Jade Court2 and _Jade Court and 2Jade Court", "Jade Court"],
        [("community_name", "Jade Court"), ("community_name", "Jade Court"),
         ("poi_label", "Court")],
    ),
    (
        {"(East) Gate": "poi_name", "-Gate": "poi_name", "#1 Tower": "community_name",
         "...": "district", "Gate": "poi_label"},
        ["Is (East) Gate by #1 Tower... or x-Gate, -Gate?", "#1 Tower", "a#1 Tower"],
        [("poi_name", "(East) Gate"), ("community_name", "#1 Tower"),
         ("poi_label", "Gate"), ("poi_name", "-Gate")],
    ),
    (
        {"珠江新城": "community_name", "天河区": "district", "广州": "city"},
        ["珠江新城在天河区吗？", "去 珠江新城，天河区。广州!", "广州市"],
        [],
    ),
    (
        {"Bay Bay": "poi_name", "Bay": "poi_label", "Alpha Park": "poi_name"},
        ["Bay Bay Bay Bay Bay", "Alpha Park or Alpha Park?\nAlpha Park"],
        [("poi_name", "Bay Bay"), ("poi_name", "Bay Bay"), ("poi_label", "Bay")],
    ),
    # a gazetteer entry may carry a numeric slot type; its longer span wins
    (
        {"2": "poi_name", "2 km": "radius_km"},
        ["Which POIs are within 2 km of 2?"],
        [("radius_km", "2 km"), ("poi_name", "2")],
    ),
    ({"": "district", "a b": "poi_name"}, ["a b, c", "", "!?"],
     [("poi_name", "a b"), ("district", "")]),
    # one lead word over several surfaces of one length, a surface that ends in
    # punctuation (and so needs its own boundary after the "."), and surfaces
    # that end the question
    (
        {"Oak Bay": "community_name", "Oak Hub": "poi_name", "Oak Lea": "district",
         "Oak": "poi_label", "Oak Hub Rd.": "poi_name", "Rd.": "poi_label"},
        ["Is Oak Hub near Oak Bay, Oak Lea or Oak Hub Rd.? Oak Hub",
         "Oak Hub Rd.2 Oak Lea", "Oak Hub Rd.", "Rd. Oak", "Oak Hub Rd", "Oak Hu"],
        [("poi_name", "Oak Hub"), ("community_name", "Oak Bay"), ("district", "Oak Lea"),
         ("poi_name", "Oak Hub Rd."), ("poi_name", "Oak Hub")],
    ),
]


@pytest.mark.parametrize("entries, questions, first_slots", ADVERSARIAL)
def test_indexed_matcher_equals_reference_on_adversarial_gazetteers(
    entries, questions, first_slots
):
    gazetteer = Gazetteer(entries)
    slu = LexiconSlu(gazetteer, default_templates())
    for question in questions:
        assert slu.predict(question).slots == _reference_slots(gazetteer, question), question
    first = slu.predict(questions[0])
    assert [(s.slot_type, s.value) for s in first.slots] == first_slots


def test_indexed_matcher_equals_reference_on_random_gazetteers():
    rng = random.Random(23)
    alphabet = "ab2 ._-\n天"
    for _ in range(200):
        entries = {
            "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 4))): rng.choice(
                ("poi_name", "district")
            )
            for _ in range(rng.randint(1, 8))
        }
        gazetteer = Gazetteer(entries)
        slu = LexiconSlu(gazetteer, default_templates())
        for _ in range(10):
            question = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 16)))
            assert slu.predict(question).slots == _reference_slots(gazetteer, question), (
                entries,
                question,
            )


def test_alphanumeric_class_matches_str_isalnum():
    # the matcher indexes by runs of [^\W_]; it must agree with str.isalnum
    every = "".join(map(chr, range(0x110000)))
    assert re.findall(r"[^\W_]", every) == [c for c in every if c.isalnum()]


def test_numeric_patterns(lexicon):
    prediction = lexicon.predict(
        "What are the nearest 3 park POIs within 2 km of Nowhere Court in Atlantis?"
    )
    values = {(s.slot_type, s.value) for s in prediction.slots}
    assert ("count", "3") in values
    assert ("radius_km", "2") in values


def test_numeric_slot_of_a_reworded_template(desk_store):
    """A numeric slot comes from the template, however the template words it."""
    shipped = next(d for d in DEFAULT_TEMPLATE_DICTS if d["template_id"] == "t3_nearby_count")
    reworded = decode(Template, {
        **shipped,
        "question_pattern": "How many {poi_label} POIs lie inside a {radius_km} km radius"
                            " of {community_name} in {city}?",
    })
    slu = LexiconSlu(Gazetteer.from_store(desk_store), [reworded])
    name = desk_store.communities("Suzhou")[0].name
    question = f"How many park POIs lie inside a 2 km radius of {name} in Suzhou?"
    prediction = slu.predict(question)
    assert prediction.intents == tuple(shipped["intents"])
    assert ("radius_km", "2") in {(s.slot_type, s.value) for s in prediction.slots}


def test_lexicon_quality_on_test_split(lexicon, desk_instances):
    splits, _ = stratified_split(list(desk_instances), 17)
    test_split = splits["test"]
    assert test_split
    predictions = [lexicon.predict(i.question) for i in test_split]
    metrics = slu_metrics(predictions, test_split)
    assert metrics["slot"]["f1"] >= 0.95
    assert metrics["intent_accuracy"] >= 0.95


# --- metrics ---------------------------------------------------------------------


def _naive_metrics(predictions, golds):
    """Independent confusion tally used as the metrics oracle."""
    itp = ifp = ifn = stp = sfp = sfn = 0
    for p, g in zip(predictions, golds):
        pi, gi = set(p.intents), set(g.intents)
        itp += len(pi & gi)
        ifp += len(pi - gi)
        ifn += len(gi - pi)
        pitems = sorted((s.slot_type, s.value) for s in p.slots)
        gitems = list(sorted((s.slot_type, s.value) for s in g.slots))
        for item in pitems:
            if item in gitems:
                gitems.remove(item)
                stp += 1
            else:
                sfp += 1
        sfn += len(gitems)

    def prf(tp, fp, fn):
        p = tp / (tp + fp) if tp + fp else 0.0
        r = tp / (tp + fn) if tp + fn else 0.0
        f = 2 * p * r / (p + r) if p + r else 0.0
        return p, r, f

    return prf(itp, ifp, ifn), prf(stp, sfp, sfn)


def test_metrics_match_naive_oracle(desk_instances):
    rng = random.Random(31)
    sample = desk_instances[:100]
    predictions = []
    for inst in sample:
        # randomly degrade gold labels to exercise the confusion counts
        slots = list(inst.slots)
        if rng.random() < 0.4 and slots:
            slots = slots[:-1]
        if rng.random() < 0.3:
            slots = slots + [SlotAnnotation("noise", "zz", 0, 0)]
        intents = inst.intents if rng.random() < 0.7 else ("wrong_intent",)
        predictions.append(SluPrediction(intents=intents, slots=tuple(slots)))
    got = slu_metrics(predictions, sample)
    (ip, ir, if1), (sp, sr, sf1) = _naive_metrics(predictions, sample)
    assert got["intent"]["precision"] == pytest.approx(ip, abs=1e-12)
    assert got["intent"]["recall"] == pytest.approx(ir, abs=1e-12)
    assert got["intent"]["f1"] == pytest.approx(if1, abs=1e-12)
    assert got["slot"]["precision"] == pytest.approx(sp, abs=1e-12)
    assert got["slot"]["recall"] == pytest.approx(sr, abs=1e-12)
    assert got["slot"]["f1"] == pytest.approx(sf1, abs=1e-12)


def test_identical_predictions_score_one(desk_instances):
    sample = desk_instances[:20]
    predictions = [SluPrediction(i.intents, i.slots) for i in sample]
    metrics = slu_metrics(predictions, sample)
    assert metrics["intent"]["f1"] == 1.0
    assert metrics["slot"]["f1"] == 1.0
    assert metrics["intent_accuracy"] == 1.0


def test_empty_predictions_zero_precision_recall(desk_instances):
    sample = desk_instances[:10]
    predictions = [SluPrediction((), ()) for _ in sample]
    metrics = slu_metrics(predictions, sample)
    assert metrics["slot"]["precision"] == 0.0
    assert metrics["slot"]["recall"] == 0.0
    assert metrics["intent_accuracy"] == 0.0


def test_half_slots_recall(desk_instances):
    # two identical gold instances; one prediction perfect, one empty
    base = desk_instances[0]
    assert len(base.slots) >= 2
    golds = [base, base]
    preds = [SluPrediction(base.intents, base.slots), SluPrediction(base.intents, ())]
    metrics = slu_metrics(preds, golds)
    assert metrics["slot"]["recall"] == pytest.approx(0.5)


def test_length_mismatch_raises(desk_instances):
    with pytest.raises(ValueError):
        slu_metrics([], desk_instances[:1])


# --- few-shot strategy ----------------------------------------------------------------


def test_fewshot_echo_gold(desk_instances):
    inst = desk_instances[0]
    gold_json = json.dumps(
        {
            "intents": list(inst.intents),
            "slots": [{"slot_type": s.slot_type, "value": s.value} for s in inst.slots],
        }
    )
    backend = ScriptedBackend(responses={"slu": gold_json})
    slu = FewShotSlu(backend, desk_instances[:5])
    prediction = slu.predict(inst.question)
    assert set(prediction.intents) == set(inst.intents)
    assert sorted((s.slot_type, s.value) for s in prediction.slots) == sorted(
        (s.slot_type, s.value) for s in inst.slots
    )
    for slot in prediction.slots:
        assert inst.question[slot.start : slot.end] == slot.value


def test_fewshot_malformed_output_degrades(desk_instances):
    backend = ScriptedBackend(default="I have no idea, sorry!")
    slu = FewShotSlu(backend, desk_instances[:5])
    prediction = slu.predict(desk_instances[0].question)
    assert prediction == SluPrediction((), ())


def test_fewshot_backend_failure_degrades(desk_instances):
    slu = FewShotSlu(RaisingBackend(), desk_instances[:5])
    assert slu.predict("anything") == SluPrediction((), ())


@pytest.mark.parametrize("slots", [None, 5], ids=["null", "number"])
def test_fewshot_reply_whose_slots_is_no_list_degrades(desk_instances, slots):
    reply = json.dumps({"intents": ["walk_time"], "slots": slots})
    slu = FewShotSlu(ScriptedBackend(default=reply), desk_instances[:5])
    assert slu.predict(desk_instances[0].question) == SluPrediction((), ())


def test_parse_slu_reply_drops_absent_values():
    reply = json.dumps(
        {"intents": ["x"], "slots": [{"slot_type": "a", "value": "missing"},
                                     {"slot_type": "b", "value": "There"}]}
    )
    prediction = parse_slu_reply(reply, "Is There anybody?")
    assert [(s.slot_type, s.value) for s in prediction.slots] == [("b", "There")]


def test_fewshot_pool_covers_intents(desk_instances):
    pool = build_fewshot_pool(desk_instances, seed=5)
    assert len(pool) <= 26
    pool_intents = {i for inst in pool for i in inst.intents}
    all_intents = {i for inst in desk_instances for i in inst.intents}
    assert pool_intents == all_intents
