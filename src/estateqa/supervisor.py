"""Supervisor agent: plan, dispatch, accumulate, replan, finalize.

The supervisor turns SLU output into an ordered plan of specialist directives,
dispatches them one at a time, folds returned evidence into its context
(the coordinates in SQL results feed later map calls), and replans on
specialist error or inability. An episode is one loop of steps: each step
either plans (at the start, or as a replan after a failed dispatch) or
dispatches one directive. It finalizes once a dispatch succeeds with the plan
queue empty, sending the evidence gathered so far. Episodes always halt: the
step cap (default 25) converts exhaustion into an "unanswerable" verdict, and
a plan or replan without directives ends the episode as its stage's failure.

Specialists hold no backend: each dispatch hands one a ``send`` bound to the
episode, so every exchange, the supervisor's and the specialists', goes
through :meth:`Supervisor._send` and lands in ``backend_events`` in order.
Directive and answer envelopes are strict line-oriented formats (see
:mod:`estateqa.backends`); chain-of-thought text around them is ignored.
"""

from __future__ import annotations

import json
import re
from collections import deque
from dataclasses import dataclass, field, replace
from functools import partial
from typing import Any, Callable, Mapping, Protocol, Sequence

from .backends import (
    BackendError,
    ChatBackend,
    ask,
    build_task_message,
    parse_answer,
    reprompt_once,
)
from .domain import CanonicalAnswer, GeoPoint, SlotAnnotation, SluPrediction
from .prompts import load_prompt
from .store import extract_coordinates

DEFAULT_STEP_CAP = 25

_DISPATCH_RE = re.compile(r"^\s*DISPATCH\s+([a-z_]+)\s*:\s*(.+?)\s*$", re.MULTILINE)
_PLAN_NUDGE = (
    "\n\nYour previous reply contained no directive lines. Reply with"
    " one `DISPATCH <specialist>: <sub-task>` line per step."
)


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


@dataclass(kw_only=True)
class Exchange:
    """One dispatch and its outcome. A specialist returns it without the two
    directive fields, which :meth:`Supervisor.run_episode` fills in."""

    specialist: str = ""
    description: str = ""
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


# (stage, system prompt, content) -> reply text, recorded in the episode's transcript
Send = Callable[[str, str, str], str]


class Specialist(Protocol):
    def handle(self, task: AgentTask, send: Send) -> Exchange: ...


@dataclass
class EpisodeTranscript:
    instance_id: str
    question: str
    dispatches: list[Exchange] = field(default_factory=list)
    backend_events: list[dict[str, str]] = field(default_factory=list)
    final_answer: CanonicalAnswer | None = None
    step_count: int = 0
    failure: str = ""
    # the SLU prediction the episode started from; None when gold SLU was injected
    slu: SluPrediction | None = None

    def __post_init__(self) -> None:
        # run_episode fills both from the directive; a specialist's Exchange has neither
        if not all(e.specialist and e.description for e in self.dispatches):
            raise ValueError("every dispatch must name its specialist and description")

    @property
    def specialist_sequence(self) -> tuple[str, ...]:
        return tuple(e.specialist for e in self.dispatches)

    def evidence_payloads(self, payload_type: str) -> list[dict[str, Any]]:
        out = []
        for exchange in self.dispatches:
            out.extend(p for p in exchange.evidence if p.get("type") == payload_type)
        return out


class Supervisor:
    """Orchestrates one episode per question over registered specialists;
    ``injected`` maps a specialist's name to the backend it asks instead."""

    def __init__(
        self,
        backend: ChatBackend,
        specialists: Mapping[str, Specialist],
        step_cap: int = DEFAULT_STEP_CAP,
        injected: Mapping[str, ChatBackend] | None = None,
    ) -> None:
        if step_cap < 1:
            raise ValueError("step_cap must be >= 1")
        self.backend = backend
        self.specialists = dict(specialists)
        self.step_cap = step_cap
        self.injected = dict(injected or {})
        self.system_prompt = load_prompt("supervisor_system")

    # --- backend envelopes ------------------------------------------------------

    def _send(
        self, transcript: EpisodeTranscript, backend: ChatBackend, stage: str,
        system_prompt: str, content: str,
    ) -> str:
        """The episode's one send: ask, and record the reply or error under ``stage``."""
        try:
            reply = ask(backend, system_prompt, content)
        except BackendError as exc:
            transcript.backend_events.append({"stage": stage, "error": str(exc)})
            raise
        transcript.backend_events.append({"stage": stage, "response": reply})
        return reply

    def _parse_directives(self, reply: str) -> list[Directive] | None:
        """The reply's directives in order, or None when it has none."""
        return [
            Directive(specialist, description)
            for specialist, description in _DISPATCH_RE.findall(reply)
        ] or None

    def plan(
        self,
        transcript: EpisodeTranscript,
        question: str,
        intents: Sequence[str],
        slots: Sequence[SlotAnnotation],
        stage: str = "plan",
    ) -> list[Directive] | None:
        """One planning (or replanning) call: the directives, or None when
        neither the reply nor its one reprompt holds any. A replan shows the
        backend the transcript's last, failed dispatch."""
        content = build_task_message(
            stage,
            question,
            intents=", ".join(intents),
            slots="; ".join(f"{s.slot_type}={s.value}" for s in slots),
            specialists=", ".join(sorted(self.specialists)),
        )
        if stage == "replan":
            failed = transcript.dispatches[-1]
            content += (
                f"\nPREVIOUS_FAILURE: {failed.specialist} reported"
                f" {failed.status}: {failed.error_report}"
            )
        send = partial(self._send, transcript, self.backend, stage, self.system_prompt)
        return reprompt_once(send, content, self._parse_directives, _PLAN_NUDGE)

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
            json.dumps(p, ensure_ascii=False) for p in evidence
        )
        reply = self._send(transcript, self.backend, "finalize", self.system_prompt, content)
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
        queue: deque[Directive] = deque()

        while transcript.step_count < self.step_cap:
            transcript.step_count += 1
            if not queue:  # the start, or the last dispatch failed
                stage = "replan" if transcript.dispatches else "plan"
                try:
                    directives = self.plan(transcript, question, intents, slots, stage=stage)
                except BackendError:
                    directives = None
                if directives is None:
                    transcript.failure = f"{stage}_failure"
                    return transcript
                queue.extend(directives)
                continue

            directive = queue.popleft()
            task = AgentTask(
                description=directive.description,
                question=question,
                intents=tuple(intents),
                slots=tuple(slots),
                coordinates=dict(coordinates),
            )
            specialist = self.specialists.get(directive.specialist)
            if specialist is None:
                result = Exchange(
                    status="unable",
                    error_report=f"no specialist named {directive.specialist!r}",
                )
            else:
                backend = self.injected.get(directive.specialist, self.backend)
                result = specialist.handle(task, partial(self._send, transcript, backend))
            transcript.dispatches.append(
                replace(
                    result,
                    specialist=directive.specialist,
                    description=directive.description,
                )
            )

            if result.status != "success":
                queue.clear()  # replan with the failure in view
                continue
            evidence.extend(result.evidence)
            for payload in result.evidence:
                if payload.get("type") == "sql" and payload.get("ok"):
                    coordinates.update(
                        extract_coordinates(payload["columns"], payload["rows"])
                    )
            if not queue:
                try:
                    transcript.final_answer = self.finalize(transcript, question, evidence)
                except BackendError:
                    transcript.failure = "finalize_backend_failure"
                return transcript

        transcript.failure = "step_cap_exhausted"
        return transcript  # final_answer stays None: unanswerable
