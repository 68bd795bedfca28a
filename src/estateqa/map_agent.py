"""Map reasoning specialist: tool selection, parameter construction from
context coordinates, cached invocation, and post-tool synthesis.

Decision envelope (one line per call, order preserved):

    TOOL: <function> PARAMS: <json> BUCKET: <bucket>
    SYNTHESIZE: <passthrough|argmin|argmax|count|threshold_filter <= N|compare>
    UNABLE: <reason>            (instead of calls, when context is unusable)

Params may carry coordinates directly or name entities via ``origin`` /
``destination`` / ``center`` keys, resolved against the coordinates the
supervisor accumulated; a missing entity is an inability, not an error. Every
emitted call lands in the transcript verbatim, successful or not.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from functools import partial
from typing import Any, Iterable, Mapping

from .backends import BackendError, ChatBackend, ask, build_task_message, reprompt_once
from .domain import Cell, GeoPoint
from .prompts import load_prompt
from .supervisor import AgentResult, AgentTask
from .tools import InvalidParams, CacheMiss, ToolCache, ToolRequest

DEFAULT_ATTEMPT_CAP = 3

_TOOL_LINE_RE = re.compile(
    r"^\s*TOOL:\s*(\w+)\s+PARAMS:\s*(\{[^{}]*\})\s*(?:BUCKET:\s*(\w*))?\s*$", re.MULTILINE
)
_SYNTH_RE = re.compile(
    r"^\s*SYNTHESIZE:\s*(passthrough|argmin|argmax|count|threshold_filter|compare)"
    r"\s*(?:(<=|>=)\s*([0-9.]+))?\s*$",
    re.IGNORECASE | re.MULTILINE,
)
# one line: a reason never runs on into the lines after an empty UNABLE:
_UNABLE_RE = re.compile(r"^[ \t]*UNABLE:[ \t]*(.+)$", re.MULTILINE)
_TOOLS_NUDGE = (
    "\n\nYour previous reply contained no TOOL lines. Use the"
    " `TOOL: <function> PARAMS: {...}` format, or `UNABLE: <reason>`."
)

_MODE_DISPLAY = {"transit": "public transit"}

_SCALAR_KINDS = {"duration_s": "duration", "distance_m": "distance"}

_NAME_PARAM_PREFIXES = {"origin": ("origin_lat", "origin_lon"), "destination": ("dest_lat", "dest_lon"), "center": ("center_lat", "center_lon")}


@dataclass(frozen=True)
class SynthesisRule:
    kind: str = "passthrough"
    op: str = "<="
    value: float | None = None


@dataclass
class ToolDecision:
    function: str
    params: dict[str, Any]
    bucket: str | None = None
    label: str = ""


def parse_decisions(reply: str) -> tuple[list[ToolDecision], SynthesisRule, str] | None:
    """(decisions, synthesis rule, unable-reason) of a backend reply, or None
    when it holds no usable TOOL line and no UNABLE line with a reason."""
    reason = next((r.strip() for r in _UNABLE_RE.findall(reply) if r.strip()), "")
    if reason:
        return [], SynthesisRule(), reason
    decisions = []
    for function, params_json, bucket in _TOOL_LINE_RE.findall(reply):
        try:
            params = json.loads(params_json)
        except json.JSONDecodeError:
            continue
        decisions.append(ToolDecision(function=function, params=params, bucket=bucket or None))
    if not decisions:
        return None
    synth = SynthesisRule()
    match = _SYNTH_RE.search(reply)
    if match:
        kind = match.group(1).casefold()
        if kind == "compare":
            kind = "argmin"
        try:
            value = float(match.group(3))
        except (TypeError, ValueError):  # no bound, or one that is no number, as 1.2.3
            value = None
        synth = SynthesisRule(kind=kind, op=match.group(2) or "<=", value=value)
    return decisions, synth, ""


class MapAgent:
    def __init__(self, cache: ToolCache, backend: ChatBackend) -> None:
        self.cache = cache
        self.backend = backend
        self.system_prompt = load_prompt("map_agent_system")
        self.tool_descriptions = load_prompt("tool_descriptions")

    # --- decision stage -----------------------------------------------------------

    def decide_tools(
        self, task: AgentTask
    ) -> tuple[list[ToolDecision], SynthesisRule, str] | None:
        """(decisions, synthesis rule, unable-reason), or None when neither
        reply to the prompt and its one reprompt holds a TOOL or UNABLE line."""
        context = "\n".join(
            f"{name}: {point.latitude}, {point.longitude}"
            for name, point in sorted(task.coordinates.items())
        )
        content = build_task_message(
            "decide_tools",
            task.question,
            subtask=task.description,
            intents=", ".join(task.intents),
        )
        content += "\n\nCONTEXT coordinates:\n" + (context or "(none)")
        content += "\n\n" + self.tool_descriptions
        send = partial(ask, self.backend, self.system_prompt)
        return reprompt_once(send, content, parse_decisions, _TOOLS_NUDGE)

    def _resolve_params(
        self, decision: ToolDecision, coordinates: Mapping[str, GeoPoint]
    ) -> tuple[dict[str, Any], str | None]:
        """Swap entity-name references for coordinates from the task context.
        The second item names the first entity the context has no coordinates
        for, or is None when every name resolves."""
        params = dict(decision.params)
        for name_key, (lat_key, lon_key) in _NAME_PARAM_PREFIXES.items():
            if name_key in params:
                entity = str(params.pop(name_key))
                point = coordinates.get(entity)
                if point is None:
                    return params, entity
                params[lat_key] = point.latitude
                params[lon_key] = point.longitude
                if not decision.label:
                    decision.label = entity
        return params, None

    def _label_for(
        self,
        decision: ToolDecision,
        request: ToolRequest,
        coordinates: Mapping[str, GeoPoint],
        origins_differ: bool,
    ) -> str:
        if decision.label:
            return decision.label
        params = request.params_dict
        if origins_differ and "origin_lat" in params:
            target = (params["origin_lat"], params["origin_lon"])
            for name, point in coordinates.items():
                if (round(point.latitude, 6), round(point.longitude, 6)) == target:
                    return name
        mode = str(params.get("mode", params.get("kind", "")))
        return _MODE_DISPLAY.get(mode, mode) or decision.function

    # --- invocation and synthesis -----------------------------------------------------

    def invoke_and_synthesize(
        self,
        decisions: Iterable[ToolDecision],
        rule: SynthesisRule,
        coordinates: Mapping[str, GeoPoint] | None = None,
    ) -> AgentResult:
        coordinates = coordinates or {}
        # each call with its params and its normalized request, or why it has none
        calls: list[tuple[ToolDecision, dict[str, Any], ToolRequest | InvalidParams]] = []
        for decision in decisions:
            params, missing = self._resolve_params(decision, coordinates)
            if missing is not None:
                return AgentResult(
                    status="unable",
                    error_report="geographical coordinates required for the task"
                    f" are missing for {missing!r}",
                )
            try:
                built = ToolRequest.build(decision.function, params, decision.bucket)
            except InvalidParams as exc:
                built = exc
            calls.append((decision, params, built))
        requested = [b.params_dict for _, _, b in calls if isinstance(b, ToolRequest)]
        origins = {(p["origin_lat"], p["origin_lon"]) for p in requested if "origin_lat" in p}
        origins_differ = len(origins) > 1

        evidence: list[dict[str, Any]] = []
        scalars: list[tuple[str, str, Cell]] = []  # (label, value kind, raw result cell)
        failures = 0
        last_error = ""
        last_rows: tuple[tuple[Any, ...], ...] = ()
        last_columns: tuple[str, ...] = ()
        for decision, params, built in calls:
            payload: dict[str, Any] = {"type": "tool_call", "function": decision.function}
            try:
                if isinstance(built, InvalidParams):
                    raise built
                payload["params"] = built.step_params()
                result = self.cache.execute(built)
            except (InvalidParams, CacheMiss) as exc:
                payload.setdefault("params", dict(params))
                payload.update(ok=False, error=str(exc))
                evidence.append(payload)
                failures += 1
                last_error = str(exc)
                if failures >= DEFAULT_ATTEMPT_CAP:
                    return AgentResult(
                        status="error",
                        evidence=evidence,
                        error_report=(
                            "cannot derive a conclusive answer within"
                            f" {DEFAULT_ATTEMPT_CAP} attempts: {last_error}"
                        ),
                    )
                continue
            payload.update(
                ok=True, columns=list(result.columns), rows=[list(r) for r in result.rows]
            )
            evidence.append(payload)
            last_rows, last_columns = result.rows, result.columns
            kind = _SCALAR_KINDS.get(result.columns[-1])
            if kind and result.rows:
                label = self._label_for(decision, built, coordinates, origins_differ)
                scalars.append((label, kind, result.rows[0][-1]))

        if failures and not scalars and not last_rows:
            return AgentResult(
                status="error",
                evidence=evidence,
                error_report=f"all tool calls failed: {last_error}",
            )
        return self._synthesize(rule, evidence, scalars, last_columns, last_rows)

    def _synthesize(
        self,
        rule: SynthesisRule,
        evidence: list[dict[str, Any]],
        scalars: list[tuple[str, str, Cell]],
        last_columns: tuple[str, ...],
        last_rows: tuple[tuple[Any, ...], ...],
    ) -> AgentResult:
        if rule.kind in ("argmin", "argmax"):
            if not scalars:
                return AgentResult(
                    status="error",
                    evidence=evidence,
                    error_report="nothing to compare: no scalar tool results",
                )
            sign = 1.0 if rule.kind == "argmin" else -1.0
            winner = min(scalars, key=lambda s: (sign * float(s[2]), s[0]))[0]
            evidence.append({"type": "entities", "names": [winner]})
        elif rule.kind == "count":
            evidence.append(
                {"type": "value", "kind": "number", "value": len(last_rows), "unit": "count"}
            )
        elif rule.kind == "threshold_filter":
            if rule.value is None:
                return AgentResult(
                    status="error", evidence=evidence, error_report="threshold missing a bound"
                )
            keep = [
                label
                for label, _, cell in scalars
                if (float(cell) <= rule.value if rule.op == "<=" else float(cell) >= rule.value)
            ]
            if not keep:
                return AgentResult(
                    status="error",
                    evidence=evidence,
                    error_report="no entity passes the threshold",
                )
            evidence.append({"type": "entities", "names": keep})
        else:  # passthrough
            evidence.extend(
                {"type": "value", "kind": kind, "value": cell} for _, kind, cell in scalars
            )
            if last_columns and "name" in last_columns:
                name_idx = list(last_columns).index("name")
                evidence.append(
                    {"type": "entities", "names": [str(r[name_idx]) for r in last_rows]}
                )
        return AgentResult(status="success", evidence=evidence)

    # --- dispatch entry point ------------------------------------------------------------

    def handle(self, task: AgentTask) -> AgentResult:
        try:
            decided = self.decide_tools(task)
        except BackendError as exc:
            return AgentResult(status="error", error_report=str(exc))
        if decided is None:
            return AgentResult(
                status="unable",
                error_report="no parseable tool decisions for this sub-task",
            )
        decisions, rule, unable = decided
        if unable:
            return AgentResult(status="unable", error_report=unable)
        return self.invoke_and_synthesize(decisions, rule, task.coordinates)
