"""Template instantiation pipeline: sampling, trace construction, plausibility
filtering, answer derivation, re-validation, and stratified splitting.

Generation is a pure function of (store fixture, template set, seed). Every
emitted instance carries its full supervision and survives an independent
re-validation pass (SQL re-execution, tool replay, answer re-derivation).
"""

from __future__ import annotations

import logging
import random
import re
from dataclasses import dataclass, field, replace
from typing import Any, Callable

from .backends import BackendError, ChatBackend
from .domain import (
    CanonicalAnswer,
    GeoPoint,
    QAInstance,
    SlotAnnotation,
    SqlStep,
    ToolStep,
    haversine,
)
from .store import GeoStore, SqlExecutionError, city_slug, extract_coordinates
from .templates import PLACEHOLDER_RE, Template, slot_type_for
from .tools import CacheMiss, InvalidParams, ToolCache, ToolRequest

log = logging.getLogger(__name__)

WALKING_PLAUSIBILITY_M = 10_000.0
CYCLING_PLAUSIBILITY_M = 20_000.0


class SamplingExhausted(RuntimeError):
    """The store cannot supply enough distinct entities for a template."""


@dataclass
class Rejection:
    template_id: str
    reason: str
    detail: str = ""


@dataclass
class GenerationReport:
    attempted: int = 0
    accepted: int = 0
    rejected: list[Rejection] = field(default_factory=list)

    def rejected_by_reason(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for r in self.rejected:
            counts[r.reason] = counts.get(r.reason, 0) + 1
        return counts

    def to_dict(self) -> dict[str, Any]:
        return {
            "attempted": self.attempted,
            "accepted": self.accepted,
            "rejected": self.rejected_by_reason(),
        }


# --- binding ------------------------------------------------------------------


def sample_bindings(
    template: Template, store: GeoStore, rng: random.Random
) -> dict[str, Any]:
    """Sample placeholder values from the store. Repeated placeholders of one
    entity kind receive distinct entities; derived values are computed last."""
    city = rng.choice(sorted(store.config.cities))
    binding: dict[str, Any] = {"city": city, "city_slug": city_slug(city)}
    used: dict[str, set[str]] = {}
    entities = store.snapshot()[city]

    for name, spec in template.bindings.items():
        kind = spec["kind"]
        if kind in ("community", "poi"):
            pool = entities.communities if kind == "community" else entities.pois
            taken = used.setdefault(kind, set())
            candidates = [e.name for e in pool if e.name not in taken]
            if not candidates:
                raise SamplingExhausted(f"{template.template_id}: no unused {kind} in {city}")
            value = rng.choice(candidates)
            taken.add(value)
        elif kind == "poi_label":
            if not entities.labels:
                raise SamplingExhausted(f"{template.template_id}: no POI labels in {city}")
            value = rng.choice(entities.labels)
        elif kind == "district":
            if not entities.districts:
                raise SamplingExhausted(f"{template.template_id}: no districts in {city}")
            value = rng.choice(entities.districts)
        elif kind == "int_range":
            value = rng.randint(int(spec.get("min", 1)), int(spec.get("max", 3)))
        elif kind == "choice":
            value = rng.choice(list(spec["values"]))
        else:  # pragma: no cover - rejected at template validation
            raise SamplingExhausted(f"unknown binding kind {kind}")
        binding[name] = value

    for name, spec in template.derived.items():
        base = binding[spec["from"]]
        if spec.get("op") == "mul":
            binding[name] = int(base) * int(spec["factor"])
        else:
            binding[name] = base
    return binding


# --- pattern filling -----------------------------------------------------------


def fill_question(
    template: Template, binding: dict[str, Any]
) -> tuple[str, tuple[SlotAnnotation, ...]]:
    """Fill the question pattern, tracking slot spans positionally during the
    fill (never by post-hoc search) so duplicate substrings stay unambiguous."""
    out: list[str] = []
    slots: list[SlotAnnotation] = []
    pos = 0
    length = 0
    for match in PLACEHOLDER_RE.finditer(template.question_pattern):
        literal = template.question_pattern[pos : match.start()]
        out.append(literal)
        length += len(literal)
        name = match.group(1)
        value = str(binding[name])
        slot_type = slot_type_for(name)
        if slot_type is not None:
            slots.append(SlotAnnotation(slot_type, value, length, length + len(value)))
        out.append(value)
        length += len(value)
        pos = match.end()
    out.append(template.question_pattern[pos:])
    return "".join(out), tuple(slots)


def _sql_quote(value: Any) -> str:
    return str(value).replace("'", "''")


def fill_sql(pattern: str, binding: dict[str, Any]) -> str:
    def sub(match: re.Match[str]) -> str:
        return _sql_quote(binding[match.group(1)])

    return PLACEHOLDER_RE.sub(sub, pattern)


_COORD_REF_RE = re.compile(r"^@(lat|lon):\{([a-zA-Z0-9_]+)\}$")


def fill_tool_params(
    pattern_params: dict[str, Any],
    binding: dict[str, Any],
    coord_map: dict[str, GeoPoint],
) -> dict[str, Any]:
    """Resolve a tool param pattern against the binding and the coordinate map
    extracted from executed SQL steps."""
    params: dict[str, Any] = {}
    for key, raw in pattern_params.items():
        if isinstance(raw, str):
            ref = _COORD_REF_RE.match(raw)
            if ref:
                axis, placeholder = ref.groups()
                entity = str(binding[placeholder])
                point = coord_map.get(entity)
                if point is None:
                    raise KeyError(f"no coordinates for entity {entity!r}")
                params[key] = point.latitude if axis == "lat" else point.longitude
                continue
            if PLACEHOLDER_RE.fullmatch(raw):
                params[key] = binding[raw[1:-1]]
                continue
        params[key] = raw
    return params


# --- answer derivation -----------------------------------------------------------


def _fmt_number(value: float) -> str:
    return f"{value:g}"


def render_nl_answer(answer: CanonicalAnswer) -> str:
    if answer.kind == "entity_set":
        names = list(answer.entities)
        body = names[0] if len(names) == 1 else ", ".join(names[:-1]) + " and " + names[-1]
    elif answer.kind == "duration":
        body = f"{_fmt_number(answer.value)} seconds"
    elif answer.kind == "distance":
        body = f"{_fmt_number(answer.value)} meters"
    elif answer.kind == "number":
        body = _fmt_number(answer.value) if answer.unit == "count" else f"{_fmt_number(answer.value)} {answer.unit}"
    elif answer.kind == "boolean":
        body = "yes" if answer.flag else "no"
    else:
        body = answer.text
    return f"The answer is {body}."


class AnswerUnderivable(ValueError):
    def __init__(self, reason: str, detail: str = "") -> None:
        super().__init__(detail or reason)
        self.reason = reason


def derive_answer(
    rule: dict[str, Any],
    sql_steps: tuple[SqlStep, ...],
    tool_steps: tuple[ToolStep, ...],
    scalar_of: Callable[[str], Any],
    label_of: Callable[[str, int], str],
) -> CanonicalAnswer:
    """Apply an answer rule over recorded traces.

    ``scalar_of`` resolves scalar placeholders like ``{X}``; ``label_of``
    resolves label placeholders for the tool step they annotate. Ties in
    argmin/argmax break lexicographically by label.
    """
    kind = rule["kind"]

    def _col(step: SqlStep, column: str) -> int:
        try:
            return step.expected_columns.index(column)
        except ValueError:
            raise AnswerUnderivable("rule_error", f"column {column!r} missing") from None

    def tool_scalar(i: int) -> float:
        rows = tool_steps[i].expected_rows
        if not rows:
            raise AnswerUnderivable("empty_tool_result")
        return float(rows[0][-1])

    if kind == "sql_cell":
        step = sql_steps[rule["step"]]
        if not step.expected_rows:
            raise AnswerUnderivable("empty_result")
        value = step.expected_rows[0][_col(step, rule["column"])]
        if rule.get("answer") == "text":
            return CanonicalAnswer.from_text(str(value))
        return CanonicalAnswer.number(float(value), rule.get("unit", ""))
    if kind == "sql_list":
        step = sql_steps[rule["step"]]
        if not step.expected_rows:
            raise AnswerUnderivable("empty_result")
        col = _col(step, rule["column"])
        return CanonicalAnswer.entity_set(str(r[col]) for r in step.expected_rows)
    if kind in ("sql_argmin", "sql_argmax"):
        step = sql_steps[rule["step"]]
        if not step.expected_rows:
            raise AnswerUnderivable("empty_result")
        ncol = _col(step, rule["name_column"])
        vcol = _col(step, rule["value_column"])
        sign = 1.0 if kind == "sql_argmin" else -1.0
        winner = min(step.expected_rows, key=lambda r: (sign * float(r[vcol]), str(r[ncol])))
        return CanonicalAnswer.entity_set([str(winner[ncol])])
    if kind == "tool_value":
        value = tool_scalar(rule["step"])
        if rule.get("answer") == "distance":
            return CanonicalAnswer.distance(value)
        return CanonicalAnswer.duration(value)
    if kind == "tool_list":
        step = tool_steps[rule["step"]]
        if not step.expected_rows:
            raise AnswerUnderivable("empty_tool_result")
        col = step.expected_columns.index(rule["column"])
        names = [str(r[col]) for r in step.expected_rows]
        limit = rule.get("limit")
        if limit is not None:
            limit_n = int(scalar_of(limit)) if isinstance(limit, str) else int(limit)
            if len(names) < limit_n:
                raise AnswerUnderivable("insufficient_results")
            names = names[:limit_n]
        return CanonicalAnswer.entity_set(names)
    if kind == "tool_count":
        step = tool_steps[rule["step"]]
        if not step.expected_rows:
            raise AnswerUnderivable("empty_tool_result")
        return CanonicalAnswer.number(len(step.expected_rows), "count")
    if kind in ("tool_argmin", "tool_argmax"):
        sign = 1.0 if kind == "tool_argmin" else -1.0
        scored = [
            (sign * tool_scalar(i), label_of(label, i))
            for label, i in zip(rule["labels"], rule["steps"])
        ]
        return CanonicalAnswer.entity_set([min(scored)[1]])
    if kind == "tool_threshold":
        bound = rule["value"]
        bound_v = float(scalar_of(bound)) if isinstance(bound, str) else float(bound)
        keep = []
        for label, i in zip(rule["labels"], rule["steps"]):
            value = tool_scalar(i)
            ok = value <= bound_v if rule.get("op", "<=") == "<=" else value >= bound_v
            if ok:
                keep.append(label_of(label, i))
        if not keep:
            raise AnswerUnderivable("empty_result", "no entity passes the threshold")
        return CanonicalAnswer.entity_set(keep)
    raise AnswerUnderivable("rule_error", f"unknown rule kind {kind}")


def _binding_resolvers(
    binding: dict[str, Any], tool_steps: tuple[ToolStep, ...]
) -> tuple[Callable[[str], Any], Callable[[str, int], str]]:
    def scalar_of(ref: str) -> Any:
        match = PLACEHOLDER_RE.fullmatch(ref)
        return binding[match.group(1)] if match else ref

    def label_of(label: str, _step: int) -> str:
        match = PLACEHOLDER_RE.fullmatch(label)
        return str(binding[match.group(1)]) if match else label

    return scalar_of, label_of


def trace_resolvers(
    instance_slots: tuple[SlotAnnotation, ...],
    template: Template,
    sql_steps: tuple[SqlStep, ...],
    tool_steps: tuple[ToolStep, ...],
) -> tuple[Callable[[str], Any], Callable[[str, int], str]]:
    """Binding-free resolvers for re-validation: scalars come from the slot
    annotations (plus the template's derived ops), labels from matching each
    tool step's origin coordinates against the recorded SQL rows."""
    slot_values: dict[str, str] = {}
    for slot in instance_slots:
        slot_values.setdefault(slot.slot_type, slot.value)

    def scalar_of(ref: str) -> Any:
        match = PLACEHOLDER_RE.fullmatch(ref)
        if not match:
            return ref
        name = match.group(1)
        derived = template.derived.get(name)
        if derived is not None:
            base_slot = slot_type_for(derived["from"]) or derived["from"]
            return int(slot_values[base_slot]) * int(derived["factor"])
        slot = slot_type_for(name) or name
        return slot_values[slot]

    coord_names: dict[tuple[float, float], str] = {}
    for step in sql_steps:
        for name, point in extract_coordinates(step.expected_columns, step.expected_rows).items():
            coord_names[(round(point.latitude, 6), round(point.longitude, 6))] = name

    def label_of(label: str, step_index: int) -> str:
        if not PLACEHOLDER_RE.fullmatch(label):
            return label
        params = dict(tool_steps[step_index].params)
        key = (round(float(params["origin_lat"]), 6), round(float(params["origin_lon"]), 6))
        if key not in coord_names:
            raise AnswerUnderivable("rule_error", f"no entity at origin {key}")
        return coord_names[key]

    return scalar_of, label_of


# --- instantiation ----------------------------------------------------------------


def plausibility_check(tool_steps: tuple[ToolStep, ...]) -> tuple[bool, str]:
    """Reject traces whose walking/cycling legs span an implausible
    straight-line distance (walking 10 km, cycling 20 km)."""
    for step in tool_steps:
        params = dict(step.params)
        mode = params.get("mode") or params.get("kind")
        if step.function in ("time_query", "distance_query") and mode in ("walking", "cycling"):
            span = haversine(
                GeoPoint(params["origin_lat"], params["origin_lon"]),
                GeoPoint(params["dest_lat"], params["dest_lon"]),
            )
            limit = WALKING_PLAUSIBILITY_M if mode == "walking" else CYCLING_PLAUSIBILITY_M
            if span > limit:
                return False, f"implausible_{mode}"
    return True, ""


def instantiate(
    template: Template,
    binding: dict[str, Any],
    store: GeoStore,
    cache: ToolCache,
    instance_id: str,
) -> QAInstance | Rejection:
    """Build one fully-supervised instance, or explain why it was discarded."""
    question, slots = fill_question(template, binding)

    sql_steps: list[SqlStep] = []
    coord_map: dict[str, GeoPoint] = {}
    for pattern in template.sql_patterns:
        statement = fill_sql(pattern, binding)
        try:
            columns, rows = store.execute_sql(statement)
        except SqlExecutionError as exc:
            return Rejection(template.template_id, "sql_error", str(exc))
        sql_steps.append(SqlStep(statement, columns, tuple(rows)))
        coord_map.update(extract_coordinates(columns, tuple(rows)))

    tool_steps: list[ToolStep] = []
    for pattern in template.tool_patterns:
        try:
            params = fill_tool_params(pattern["params"], binding, coord_map)
            request = ToolRequest.build(pattern["function"], params, pattern.get("bucket"))
            payload = cache.execute(request)
        except KeyError as exc:
            return Rejection(template.template_id, "missing_coordinates", str(exc))
        except InvalidParams as exc:
            return Rejection(template.template_id, "invalid_tool_params", str(exc))
        except CacheMiss as exc:
            return Rejection(template.template_id, "unresolvable_tool", str(exc))
        stored = dict(request.params_dict)
        stored["time_bucket"] = request.time_bucket
        tool_steps.append(
            ToolStep(request.function, stored, payload.columns, payload.rows)
        )

    ok, reason = plausibility_check(tuple(tool_steps))
    if not ok:
        return Rejection(template.template_id, reason)

    scalar_of, label_of = _binding_resolvers(binding, tuple(tool_steps))
    try:
        answer = derive_answer(
            template.answer_rule, tuple(sql_steps), tuple(tool_steps), scalar_of, label_of
        )
    except AnswerUnderivable as exc:
        return Rejection(template.template_id, exc.reason, str(exc))

    return QAInstance(
        id=instance_id,
        template_id=template.template_id,
        city=str(binding["city"]),
        question=question,
        question_type=template.question_type,
        intents=template.intents,
        slots=slots,
        sql_trace=tuple(sql_steps),
        tool_trace=tuple(tool_steps),
        agent_route=template.agent_route,
        answer=answer,
        nl_answer=render_nl_answer(answer),
    )


def generate(
    templates: list[Template],
    store: GeoStore,
    cache: ToolCache,
    seed: int,
    per_template: int = 50,
    max_attempt_factor: int = 6,
) -> tuple[list[QAInstance], GenerationReport]:
    """Generate up to ``per_template`` validated instances per template.

    Deterministic for a (fixture, template set, seed) triple; question texts
    are globally unique in the emitted set.
    """
    report = GenerationReport()
    instances: list[QAInstance] = []
    seen_questions: set[str] = set()
    for template in templates:
        rng = random.Random(f"{seed}:{template.template_id}")
        accepted = 0
        attempts = 0
        while accepted < per_template and attempts < per_template * max_attempt_factor:
            attempts += 1
            report.attempted += 1
            try:
                binding = sample_bindings(template, store, rng)
            except SamplingExhausted as exc:
                report.rejected.append(
                    Rejection(template.template_id, "sampling_exhausted", str(exc))
                )
                break
            instance_id = f"{template.template_id}-{seed}-{attempts:05d}"
            result = instantiate(template, binding, store, cache, instance_id)
            if isinstance(result, Rejection):
                report.rejected.append(result)
                continue
            if result.question in seen_questions:
                report.rejected.append(
                    Rejection(template.template_id, "duplicate_question", result.question)
                )
                continue
            seen_questions.add(result.question)
            instances.append(result)
            accepted += 1
        report.accepted += accepted
    return instances, report


# --- re-validation ------------------------------------------------------------------


def revalidate_instance(
    instance: QAInstance,
    store: GeoStore,
    cache: ToolCache,
    templates_by_id: dict[str, Template],
) -> list[str]:
    """Re-execute SQL, replay tools, and re-derive the answer; returns the list
    of mismatches (empty when the instance checks out)."""
    problems: list[str] = []
    for i, step in enumerate(instance.sql_trace):
        try:
            columns, rows = store.execute_sql(step.statement)
        except SqlExecutionError as exc:
            problems.append(f"sql[{i}]: execution failed: {exc}")
            continue
        if columns != step.expected_columns or tuple(rows) != step.expected_rows:
            problems.append(f"sql[{i}]: result drift")
    for i, step in enumerate(instance.tool_trace):
        params = {k: v for k, v in step.params.items() if k != "time_bucket"}
        try:
            payload = cache.call(step.function, params, step.params.get("time_bucket"))
        except (CacheMiss, InvalidParams) as exc:
            problems.append(f"tool[{i}]: replay failed: {exc}")
            continue
        if payload.columns != step.expected_columns or payload.rows != step.expected_rows:
            problems.append(f"tool[{i}]: payload drift")

    template = templates_by_id.get(instance.template_id)
    if template is None:
        problems.append(f"unknown template {instance.template_id}")
        return problems
    try:
        scalar_of, label_of = trace_resolvers(
            instance.slots, template, instance.sql_trace, instance.tool_trace
        )
        rederived = derive_answer(
            template.answer_rule, instance.sql_trace, instance.tool_trace, scalar_of, label_of
        )
    except (AnswerUnderivable, KeyError, ValueError, TypeError, IndexError) as exc:
        problems.append(f"answer: re-derivation failed: {exc}")
        return problems
    from .domain import answer_equal

    if not answer_equal(rederived, instance.answer):
        problems.append(f"answer: {rederived} != {instance.answer}")
    try:
        instance.validate_slots()
    except Exception as exc:
        problems.append(f"slots: {exc}")
    return problems


# --- splitting -----------------------------------------------------------------------


@dataclass(frozen=True)
class SplitSpec:
    ratios: tuple[float, float, float] = (8.0, 1.0, 1.0)
    seed: int = 0

    def normalized(self) -> tuple[float, float, float]:
        total = sum(self.ratios)
        return tuple(r / total for r in self.ratios)  # type: ignore[return-value]


def stratified_split(
    instances: list[QAInstance], spec: SplitSpec
) -> tuple[dict[str, list[QAInstance]], list[str]]:
    """Split 8:1:1 within each template stratum (counts within +-1 of exact).

    Strata smaller than 3 go entirely to train with a warning. Deterministic
    under the spec seed and independent of input order.
    """
    _, val_ratio, test_ratio = spec.normalized()
    strata: dict[str, list[QAInstance]] = {}
    for inst in instances:
        strata.setdefault(inst.template_id, []).append(inst)

    splits: dict[str, list[QAInstance]] = {"train": [], "val": [], "test": []}
    warnings: list[str] = []
    for template_id in sorted(strata):
        members = sorted(strata[template_id], key=lambda i: i.id)
        random.Random(f"{spec.seed}:{template_id}").shuffle(members)
        n = len(members)
        if n < 3:
            warnings.append(f"stratum {template_id} has {n} < 3 instances; all to train")
            splits["train"].extend(members)
            continue
        n_val = int(round(n * val_ratio))
        n_test = int(round(n * test_ratio))
        splits["val"].extend(members[:n_val])
        splits["test"].extend(members[n_val : n_val + n_test])
        splits["train"].extend(members[n_val + n_test :])
    return splits, warnings


# --- optional paraphrase hook -----------------------------------------------------------


PARAPHRASE_SYSTEM = (
    "You rewrite questions to sound natural while keeping every quoted value"
    " verbatim. Reply with the rewritten question only."
)


def paraphrase_hook(instance: QAInstance, backend: ChatBackend) -> QAInstance:
    """Rewrite the question through a chat backend, keeping the instance only
    if every slot value survives verbatim; otherwise (or on backend failure)
    the original instance is returned unchanged."""
    prompt = (
        "Rewrite the question below. Keep these values exactly as written: "
        + "; ".join(f"{s.slot_type}={s.value!r}" for s in instance.slots)
        + "\n\nQuestion: "
        + instance.question
    )
    try:
        rewritten = backend.complete(PARAPHRASE_SYSTEM, [{"role": "user", "content": prompt}])
    except BackendError as exc:
        log.warning("paraphrase backend failed for %s: %s", instance.id, exc)
        return instance
    rewritten = rewritten.strip().splitlines()[0].strip() if rewritten.strip() else ""
    if not rewritten:
        return instance
    relocated = _relocate_slots(rewritten, instance.slots)
    if relocated is None:
        log.warning("paraphrase dropped a slot value for %s; keeping original", instance.id)
        return instance
    return replace(instance, question=rewritten, slots=relocated)


def _relocate_slots(
    question: str, slots: tuple[SlotAnnotation, ...]
) -> tuple[SlotAnnotation, ...] | None:
    """Greedy non-overlapping re-location of slot values, longest value first."""
    taken: list[tuple[int, int]] = []
    out: list[SlotAnnotation] = []
    for slot in sorted(slots, key=lambda s: -len(s.value)):
        start = 0
        placed = False
        while True:
            idx = question.find(slot.value, start)
            if idx < 0:
                break
            end = idx + len(slot.value)
            if all(idx >= e or s >= end for s, e in taken):
                taken.append((idx, end))
                out.append(SlotAnnotation(slot.slot_type, slot.value, idx, end))
                placed = True
                break
            start = idx + 1
        if not placed:
            return None
    return tuple(sorted(out, key=lambda s: s.start))
