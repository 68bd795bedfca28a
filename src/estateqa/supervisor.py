"""Supervisor agent: plan, dispatch, accumulate, replan, finalize.

The supervisor turns SLU output into an ordered plan of specialist directives,
dispatches them one at a time, folds returned evidence into its context
(coordinates feed later map calls), and replans on specialist error or
inability. Episodes always halt: every loop iteration consumes step budget and
the cap (default 25) converts exhaustion into an "unanswerable" verdict.

Directive and answer envelopes are strict line-oriented formats (see
:mod:`estateqa.backends`); chain-of-thought text around them is ignored.
"""

from __future__ import annotations

import json
import re
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Mapping, Protocol, Sequence

from .backends import (
    BackendError,
    ChatBackend,
    build_task_message,
    parse_answer,
)
from .domain import CanonicalAnswer, GeoPoint, SlotAnnotation
from .prompts import load_prompt

DEFAULT_STEP_CAP = 25
SPECIALIST_NAMES = ("db_agent", "map_agent")

_DISPATCH_RE = re.compile(r"^\s*DISPATCH\s+([a-z_]+)\s*:\s*(.+?)\s*$", re.MULTILINE)
_SUFFICIENT_RE = re.compile(r"^\s*SUFFICIENT\s*:\s*(yes|no)\s*$", re.IGNORECASE | re.MULTILINE)


@dataclass(frozen=True)
class Directive:
    specialist: str
    description: str


@dataclass
class AgentTask:
    description: str
    question: str
    intents: tuple[str, ...]
    slots: tuple[SlotAnnotation, ...]
    coordinates: dict[str, GeoPoint] = field(default_factory=dict)
    evidence: list[dict[str, Any]] = field(default_factory=list)
    history: tuple[str, ...] = ()


@dataclass
class AgentResult:
    status: str  # success | error | unable
    evidence: list[dict[str, Any]] = field(default_factory=list)
    error_report: str = ""

    def __post_init__(self) -> None:
        if self.status not in ("success", "error", "unable"):
            raise ValueError(f"unknown result status {self.status!r}")
        if self.status == "success" and not self.evidence:
            raise ValueError("successful results must carry evidence")
        if self.status != "success" and not self.error_report:
            raise ValueError("error/unable results must carry an error report")


class Specialist(Protocol):
    def handle(self, task: AgentTask) -> AgentResult: ...


@dataclass
class Exchange:
    specialist: str
    description: str
    status: str
    evidence: list[dict[str, Any]]
    error_report: str = ""


@dataclass
class EpisodeTranscript:
    instance_id: str
    question: str
    dispatches: list[Exchange] = field(default_factory=list)
    backend_events: list[dict[str, str]] = field(default_factory=list)
    final_answer: CanonicalAnswer | None = None
    step_count: int = 0
    failure: str = ""

    @property
    def specialist_sequence(self) -> tuple[str, ...]:
        return tuple(e.specialist for e in self.dispatches)

    def evidence_payloads(self, payload_type: str) -> list[dict[str, Any]]:
        out = []
        for exchange in self.dispatches:
            out.extend(p for p in exchange.evidence if p.get("type") == payload_type)
        return out

    @property
    def sql_candidates(self) -> list[dict[str, Any]]:
        return self.evidence_payloads("sql")

    @property
    def tool_calls(self) -> list[dict[str, Any]]:
        return self.evidence_payloads("tool_call")

    def to_dict(self) -> dict[str, Any]:
        return {
            "instance_id": self.instance_id,
            "question": self.question,
            "dispatches": [
                {
                    "specialist": e.specialist,
                    "description": e.description,
                    "status": e.status,
                    "evidence": e.evidence,
                    "error_report": e.error_report,
                }
                for e in self.dispatches
            ],
            "backend_events": self.backend_events,
            "final_answer": None if self.final_answer is None else self.final_answer.to_dict(),
            "step_count": self.step_count,
            "failure": self.failure,
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "EpisodeTranscript":
        return cls(
            instance_id=data["instance_id"],
            question=data["question"],
            dispatches=[
                Exchange(
                    specialist=d["specialist"],
                    description=d["description"],
                    status=d["status"],
                    evidence=d["evidence"],
                    error_report=d.get("error_report", ""),
                )
                for d in data["dispatches"]
            ],
            backend_events=list(data.get("backend_events", [])),
            final_answer=(
                None
                if data.get("final_answer") is None
                else CanonicalAnswer.from_dict(data["final_answer"])
            ),
            step_count=int(data["step_count"]),
            failure=data.get("failure", ""),
        )


class PlanParseFailure(RuntimeError):
    pass


class Supervisor:
    """Orchestrates one episode per question over registered specialists."""

    def __init__(
        self,
        backend: ChatBackend,
        specialists: Mapping[str, Specialist],
        step_cap: int = DEFAULT_STEP_CAP,
        sufficiency: str = "rule",  # rule | backend
    ) -> None:
        if step_cap < 1:
            raise ValueError("step_cap must be >= 1")
        self.backend = backend
        self.specialists = dict(specialists)
        self.step_cap = step_cap
        self.sufficiency = sufficiency
        self.system_prompt = load_prompt("supervisor_system")

    # --- backend envelopes ------------------------------------------------------

    def _complete(self, transcript: EpisodeTranscript, stage: str, content: str) -> str:
        try:
            reply = self.backend.complete(
                self.system_prompt, [{"role": "user", "content": content}]
            )
        except BackendError as exc:
            transcript.backend_events.append({"stage": stage, "error": str(exc)})
            raise
        transcript.backend_events.append({"stage": stage, "response": reply})
        return reply

    def _parse_directives(self, reply: str) -> list[Directive]:
        return [
            Directive(specialist, description)
            for specialist, description in _DISPATCH_RE.findall(reply)
        ]

    def plan(
        self,
        transcript: EpisodeTranscript,
        question: str,
        intents: Sequence[str],
        slots: Sequence[SlotAnnotation],
        stage: str = "plan",
        extra: str = "",
    ) -> list[Directive]:
        """One planning (or replanning) call; a reply without directives gets
        exactly one reprompt before failing."""
        content = build_task_message(
            stage,
            question,
            intents=", ".join(intents),
            slots="; ".join(f"{s.slot_type}={s.value}" for s in slots),
            specialists=", ".join(sorted(self.specialists)),
        )
        if extra:
            content += "\n" + extra
        for attempt in range(2):
            reply = self._complete(transcript, stage, content)
            directives = self._parse_directives(reply)
            if directives:
                return directives
            content += (
                "\n\nYour previous reply contained no directive lines. Reply with"
                " one `DISPATCH <specialist>: <sub-task>` line per step."
            )
        raise PlanParseFailure(f"no parseable directives after reprompt ({stage})")

    def _sufficient(self, transcript: EpisodeTranscript, question: str, dispatched: int) -> bool:
        content = build_task_message("sufficiency", question, dispatched=str(dispatched))
        try:
            reply = self._complete(transcript, "sufficiency", content)
        except BackendError:
            return False
        match = _SUFFICIENT_RE.search(reply)
        return bool(match and match.group(1).casefold() == "yes")

    def finalize(
        self,
        transcript: EpisodeTranscript,
        question: str,
        evidence: list[dict[str, Any]],
    ) -> CanonicalAnswer:
        """Synthesize gathered evidence into a canonical answer. A reply without
        a well-formed envelope degrades to a raw-text answer."""
        content = build_task_message("finalize", question)
        content += "\n\nEvidence:\n" + "\n".join(
            json.dumps(p, ensure_ascii=False, default=str) for p in evidence
        )
        reply = self._complete(transcript, "finalize", content)
        parsed = parse_answer(reply)
        if parsed is None:
            transcript.failure = transcript.failure or "answer_parse_degraded"
            return CanonicalAnswer.from_text(reply.strip())
        return parsed

    # --- episode loop --------------------------------------------------------------

    def run_episode(
        self,
        question: str,
        intents: Sequence[str],
        slots: Sequence[SlotAnnotation],
        instance_id: str = "",
    ) -> EpisodeTranscript:
        transcript = EpisodeTranscript(instance_id=instance_id, question=question)
        evidence: list[dict[str, Any]] = []
        coordinates: dict[str, GeoPoint] = {}
        history: list[str] = []

        try:
            transcript.step_count += 1  # planning consumes budget
            queue = deque(self.plan(transcript, question, intents, slots))
        except (PlanParseFailure, BackendError):
            transcript.failure = "plan_failure"
            return transcript

        finalize_now = False
        while queue and transcript.step_count < self.step_cap:
            directive = queue.popleft()
            transcript.step_count += 1
            task = AgentTask(
                description=directive.description,
                question=question,
                intents=tuple(intents),
                slots=tuple(slots),
                coordinates=dict(coordinates),
                evidence=list(evidence),
                history=tuple(history),
            )
            specialist = self.specialists.get(directive.specialist)
            if specialist is None:
                result = AgentResult(
                    status="unable",
                    error_report=f"no specialist named {directive.specialist!r}",
                )
            else:
                result = specialist.handle(task)
            transcript.dispatches.append(
                Exchange(
                    specialist=directive.specialist,
                    description=directive.description,
                    status=result.status,
                    evidence=list(result.evidence),
                    error_report=result.error_report,
                )
            )
            history.append(f"{directive.specialist} -> {result.status}")

            if result.status == "success":
                evidence.extend(result.evidence)
                for payload in result.evidence:
                    if payload.get("type") == "coordinates":
                        for name, (lat, lon) in payload.get("entries", {}).items():
                            coordinates[name] = GeoPoint(float(lat), float(lon))
                if not queue:
                    finalize_now = True
                elif self.sufficiency == "backend" and self._sufficient(
                    transcript, question, len(transcript.dispatches)
                ):
                    finalize_now = True
                    queue.clear()
                continue

            # error or inability: replan with the failure in view
            if transcript.step_count >= self.step_cap:
                break
            transcript.step_count += 1
            try:
                directives = self.plan(
                    transcript,
                    question,
                    intents,
                    slots,
                    stage="replan",
                    extra=(
                        f"PREVIOUS_FAILURE: {directive.specialist} reported"
                        f" {result.status}: {result.error_report}"
                    ),
                )
            except (PlanParseFailure, BackendError):
                transcript.failure = "replan_failure"
                return transcript
            queue = deque(directives)

        if not finalize_now:
            transcript.failure = transcript.failure or "step_cap_exhausted"
            return transcript  # final_answer stays None: unanswerable

        try:
            transcript.final_answer = self.finalize(transcript, question, evidence)
        except BackendError:
            transcript.failure = "finalize_backend_failure"
        return transcript
