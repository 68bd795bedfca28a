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
from typing import Any, Iterable, Mapping, Sequence

from .backends import BackendError, ChatBackend, build_task_message
from .domain import GeoPoint, ToolStep
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
_UNABLE_RE = re.compile(r"^\s*UNABLE:\s*(.+)$", re.MULTILINE)

_MODE_DISPLAY = {"transit": "public transit"}

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


@dataclass
class MissingCoordinates(Exception):
    entity: str

    def __str__(self) -> str:
        return (
            f"geographical coordinates required for the task are missing for {self.entity!r}"
        )


def parse_decisions(reply: str) -> tuple[list[ToolDecision], SynthesisRule, str]:
    """Parse (decisions, synthesis rule, unable-reason) from a backend reply."""
    unable = _UNABLE_RE.search(reply)
    if unable:
        return [], SynthesisRule(), unable.group(1).strip()
    decisions = []
    for function, params_json, bucket in _TOOL_LINE_RE.findall(reply):
        try:
            params = json.loads(params_json)
        except json.JSONDecodeError:
            continue
        decisions.append(ToolDecision(function=function, params=params, bucket=bucket or None))
    synth = SynthesisRule()
    match = _SYNTH_RE.search(reply)
    if match:
        kind = match.group(1).casefold()
        if kind == "compare":
            kind = "argmin"
        synth = SynthesisRule(
            kind=kind,
            op=match.group(2) or "<=",
            value=float(match.group(3)) if match.group(3) else None,
        )
    return decisions, synth, ""


class MapAgent:
    def __init__(
        self,
        cache: ToolCache,
        backend: ChatBackend,
        inject_gold_tools: Mapping[str, Sequence[ToolStep]] | None = None,
        attempt_cap: int = DEFAULT_ATTEMPT_CAP,
    ) -> None:
        self.cache = cache
        self.backend = backend
        self.inject_gold_tools = dict(inject_gold_tools or {})
        self.attempt_cap = attempt_cap
        self.system_prompt = load_prompt("map_agent_system")
        self.tool_descriptions = load_prompt("tool_descriptions")

    # --- decision stage -----------------------------------------------------------

    def decide_tools(self, task: AgentTask) -> tuple[list[ToolDecision], SynthesisRule, str]:
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
        reply = self.backend.complete(self.system_prompt, [{"role": "user", "content": content}])
        decisions, rule, unable = parse_decisions(reply)
        if not decisions and not unable:
            content += (
                "\n\nYour previous reply contained no TOOL lines. Use the"
                " `TOOL: <function> PARAMS: {...}` format, or `UNABLE: <reason>`."
            )
            reply = self.backend.complete(
                self.system_prompt, [{"role": "user", "content": content}]
            )
            decisions, rule, unable = parse_decisions(reply)
        return decisions, rule, unable

    def _resolve_params(
        self, decision: ToolDecision, coordinates: Mapping[str, GeoPoint]
    ) -> dict[str, Any]:
        """Swap entity-name references for coordinates from the task context."""
        params = dict(decision.params)
        for name_key, (lat_key, lon_key) in _NAME_PARAM_PREFIXES.items():
            if name_key in params:
                entity = str(params.pop(name_key))
                point = coordinates.get(entity)
                if point is None:
                    raise MissingCoordinates(entity)
                params[lat_key] = point.latitude
                params[lon_key] = point.longitude
                if not decision.label:
                    decision.label = entity
        return params

    def _label_for(
        self,
        decision: ToolDecision,
        params: dict[str, Any],
        coordinates: Mapping[str, GeoPoint],
        origins_differ: bool,
    ) -> str:
        if decision.label:
            return decision.label
        if origins_differ and "origin_lat" in params:
            target = (round(float(params["origin_lat"]), 6), round(float(params["origin_lon"]), 6))
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
        decisions = list(decisions)
        origins = set()
        resolved: list[tuple[ToolDecision, dict[str, Any]]] = []
        for decision in decisions:
            try:
                params = self._resolve_params(decision, coordinates)
            except MissingCoordinates as exc:
                return AgentResult(status="unable", error_report=str(exc))
            resolved.append((decision, params))
            if "origin_lat" in params:
                origins.add((params["origin_lat"], params["origin_lon"]))
        origins_differ = len(origins) > 1

        evidence: list[dict[str, Any]] = []
        scalars: list[tuple[str, float]] = []
        failures = 0
        last_error = ""
        last_rows: tuple[tuple[Any, ...], ...] = ()
        last_columns: tuple[str, ...] = ()
        for decision, params in resolved:
            payload: dict[str, Any] = {"type": "tool_call", "function": decision.function}
            try:
                request = ToolRequest.build(decision.function, params, decision.bucket)
                stored = dict(request.params_dict)
                stored["time_bucket"] = request.time_bucket
                payload["params"] = stored
                result = self.cache.execute(request)
            except (InvalidParams, CacheMiss) as exc:
                payload.setdefault("params", dict(params))
                payload.update(ok=False, error=str(exc))
                evidence.append(payload)
                failures += 1
                last_error = str(exc)
                if failures >= self.attempt_cap:
                    return AgentResult(
                        status="error",
                        evidence=evidence,
                        error_report=(
                            "cannot derive a conclusive answer within"
                            f" {self.attempt_cap} attempts: {last_error}"
                        ),
                    )
                continue
            payload.update(
                ok=True, columns=list(result.columns), rows=[list(r) for r in result.rows]
            )
            evidence.append(payload)
            last_rows, last_columns = result.rows, result.columns
            if result.columns[-1] in ("duration_s", "distance_m") and result.rows:
                label = self._label_for(decision, params, coordinates, origins_differ)
                scalars.append((label, float(result.rows[0][-1])))

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
        scalars: list[tuple[str, float]],
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
            winner = min(scalars, key=lambda s: (sign * s[1], s[0]))[0]
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
                for label, value in scalars
                if (value <= rule.value if rule.op == "<=" else value >= rule.value)
            ]
            if not keep:
                return AgentResult(
                    status="error",
                    evidence=evidence,
                    error_report="no entity passes the threshold",
                )
            evidence.append({"type": "entities", "names": keep})
        else:  # passthrough
            for payload in evidence:
                if payload.get("type") == "tool_call" and payload.get("ok"):
                    columns = payload.get("columns") or []
                    rows = payload.get("rows") or []
                    if rows and columns and columns[-1] in ("duration_s", "distance_m"):
                        kind = "duration" if columns[-1] == "duration_s" else "distance"
                        evidence.append(
                            {"type": "value", "kind": kind, "value": rows[0][-1]}
                        )
            if last_columns and "name" in last_columns:
                name_idx = list(last_columns).index("name")
                evidence.append(
                    {"type": "entities", "names": [str(r[name_idx]) for r in last_rows]}
                )
        if not evidence:
            return AgentResult(
                status="error", evidence=[], error_report="tool execution produced no evidence"
            )
        return AgentResult(status="success", evidence=evidence)

    # --- dispatch entry point ------------------------------------------------------------

    def handle(self, task: AgentTask) -> AgentResult:
        injected = self.inject_gold_tools.get(task.question)
        if injected is not None:
            decisions = [
                ToolDecision(
                    function=step.function,
                    params={k: v for k, v in step.params.items() if k != "time_bucket"},
                    bucket=step.params.get("time_bucket"),
                )
                for step in injected
            ]
            rule = SynthesisRule(kind="passthrough")
        else:
            try:
                decisions, rule, unable = self.decide_tools(task)
            except BackendError as exc:
                return AgentResult(status="error", error_report=str(exc))
            if unable:
                return AgentResult(status="unable", error_report=unable)
            if not decisions:
                return AgentResult(
                    status="unable",
                    error_report="no parseable tool decisions for this sub-task",
                )
        return self.invoke_and_synthesize(decisions, rule, task.coordinates)
