"""Backend test doubles: a scripted backend that answers by task, one that
always fails, and one that breaks chosen stages of the oracle."""

from __future__ import annotations

from typing import Any, Sequence

from estateqa.backends import BackendError, ChatBackend, Message, parse_task_header


class ScriptedBackend:
    """Deterministic canned-response backend for tests and sabotage studies.

    ``responses`` maps a task name to a fixed reply or a list consumed in
    order; ``default`` answers anything unmapped.
    """

    def __init__(
        self,
        responses: dict[str, Any] | None = None,
        default: str = "",
    ) -> None:
        self.responses = dict(responses or {})
        self.default = default
        self.calls: list[dict[str, str]] = []

    def complete(self, system_prompt: str, messages: Sequence[Message]) -> str:
        header = parse_task_header(messages)
        self.calls.append(header)
        task = header.get("task", "")
        reply = self.responses.get(task, self.default)
        if isinstance(reply, list):
            if not reply:
                return self.default
            return reply.pop(0)
        return reply


class RaisingBackend:
    """Backend that always fails; used for termination and degradation tests."""

    def __init__(self, message: str = "backend unavailable") -> None:
        self.message = message

    def complete(self, system_prompt: str, messages: Sequence[Message]) -> str:
        raise BackendError(self.message)


# replies in the right envelope whose content is broken: two tool calls the
# map agent cannot build, a threshold bound that is no number, and SLU slots
# that are no list
MALFORMED_REPLIES = {
    "decide_tools": 'TOOL: time_query PARAMS: {"origin_lat": 1, "mode": "walking"}\n'
                    'TOOL: time_query PARAMS: {"origin_lat": [1], "origin_lon": 2}\n'
                    "SYNTHESIZE: threshold_filter <= 1.2.3",
    "slu": '{"intents": ["walk_time"], "slots": null}',
}
SABOTAGE_MODES = ("garbage", "raise", "malformed")


class SabotageBackend:
    """Another backend (the oracle, in practice) everywhere except the broken
    stages. Those reply with no envelope (``garbage``), raise
    :class:`BackendError` (``raise``), or give their ``MALFORMED_REPLIES``
    entry (``malformed``)."""

    def __init__(self, inner: ChatBackend, *broken_stages: str, mode: str = "garbage") -> None:
        if mode not in SABOTAGE_MODES:
            raise ValueError(f"unknown sabotage mode {mode!r}")
        self.inner = inner
        self.broken_stages = broken_stages
        self.mode = mode

    def complete(self, system_prompt: str, messages: Sequence[Message]) -> str:
        task = parse_task_header(messages).get("task")
        if task not in self.broken_stages:
            return self.inner.complete(system_prompt, messages)
        if self.mode == "raise":
            raise BackendError(f"sabotaged stage {task}")
        if self.mode == "malformed":
            return MALFORMED_REPLIES[task]
        return "I cannot comply with the requested format."
