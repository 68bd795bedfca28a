"""Backend test doubles: a scripted backend that answers by task, and one that
always fails."""

from __future__ import annotations

from typing import Any, Sequence

from estateqa.backends import BackendError, Message, parse_task_header


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
