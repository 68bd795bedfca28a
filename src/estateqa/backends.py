"""Chat backends and the structured envelopes agents parse out of them.

Free-form chain-of-thought is allowed anywhere in a completion; parsers only
react to the envelope lines documented here:

    plan/replan     DISPATCH <specialist>: <sub-task description>
    SQL             fenced ```sql ... ``` block with exactly one statement
    tool decisions  TOOL: <function> PARAMS: <json object>
                    SYNTHESIZE: <passthrough|argmin|argmax|count|threshold_filter>
    final answer    ANSWER_KIND: <kind> / ANSWER: <payload> / UNIT: <unit>

Backends implement ``complete(system_prompt, messages) -> text``. The oracle
backend replays gold supervision and is the harness's self-test; the HTTP
backend speaks the de-facto chat-completion wire format with the key taken
from an environment variable, never from config values. It loads the HTTP
client modules (``http.client``, ``urllib.request`` and the ``ssl`` and
``email`` packages they pull in) at its first request, so no other backend or
command pays for them.

In an episode, the supervisor's one send calls :func:`ask` (one user message
under a system prompt) and records the exchange; specialists get that send,
not a backend. :func:`reprompt_once` resends once, with the stage's nudge
appended, when a reply lacks its envelope.
"""

from __future__ import annotations

import json
import os
import re
from typing import Callable, Mapping, Protocol, Sequence, TypeVar

from .domain import ANSWER_KINDS, CanonicalAnswer, QAInstance
from .tools import split_step_params

Message = Mapping[str, str]
T = TypeVar("T")


class BackendError(RuntimeError):
    """Backend unreachable or returned an unusable response."""


class ChatBackend(Protocol):
    def complete(self, system_prompt: str, messages: Sequence[Message]) -> str: ...


def ask(backend: ChatBackend, system_prompt: str, content: str) -> str:
    """Send one user message under a system prompt; returns the reply text."""
    return backend.complete(system_prompt, [{"role": "user", "content": content}])


def reprompt_once(
    send: Callable[[str], str], content: str, parse: Callable[[str], T | None], nudge: str
) -> T | None:
    """Send ``content`` and parse the reply; when ``parse`` finds no envelope
    (returns None), send ``content + nudge`` once more. None if both fail."""
    for prompt in (content, content + nudge):
        parsed = parse(send(prompt))
        if parsed is not None:
            return parsed
    return None


# --- request headers ------------------------------------------------------------

_HEADER_RE = re.compile(r"^([A-Z_]+):[ \t]*(.*)$")


def build_task_message(task: str, question: str, **fields: str) -> str:
    lines = [f"TASK: {task}", f"QUESTION: {question}"]
    lines.extend(f"{key.upper()}: {value}" for key, value in fields.items())
    return "\n".join(lines)


def parse_task_header(messages: Sequence[Message]) -> dict[str, str]:
    """Read the structured header fields of the last user message: its lines
    before the first empty one, where every prompt's evidence or examples start."""
    for message in reversed(messages):
        if message.get("role") == "user":
            fields: dict[str, str] = {}
            for line in message.get("content", "").partition("\n\n")[0].splitlines():
                match = _HEADER_RE.match(line)
                if match:
                    fields.setdefault(match.group(1).casefold(), match.group(2))
            return fields
    return {}


# --- answer envelope ----------------------------------------------------------------


# The answer kinds a reply may name: the kinds the answer rules derive.
REPLY_KINDS = tuple(kind for kind in ANSWER_KINDS if kind != "boolean")

# How an ANSWER line reads into the first payload field of its kind.
_PAYLOAD_READERS: dict[str, Callable[[str], object]] = {
    "entities": lambda payload: tuple(e.strip() for e in payload.split("|") if e.strip()),
    "value": float,
    "text": str,
}


def render_answer(answer: CanonicalAnswer) -> str:
    """The kind's first payload field on the ANSWER line, and its unit, if
    it has one, on a UNIT line."""
    payload, *unit = (getattr(answer, name) for name in ANSWER_KINDS[answer.kind])
    if type(payload) is tuple:
        payload = " | ".join(payload)
    lines = [f"ANSWER_KIND: {answer.kind}", f"ANSWER: {payload}"]
    lines.extend(f"UNIT: {u}" for u in unit if u)
    return "\n".join(lines)


def parse_answer(text: str) -> CanonicalAnswer | None:
    """Parse the answer envelope; returns None when no well-formed envelope is
    present (the caller degrades to a raw-text answer)."""
    header: dict[str, str] = {}  # the last line of each key wins
    for line in text.splitlines():
        match = _HEADER_RE.match(line.strip())
        if match:
            header[match.group(1)] = match.group(2).strip()
    kind, payload = header.get("ANSWER_KIND", "").casefold(), header.get("ANSWER")
    if payload is None or kind not in REPLY_KINDS:
        return None
    first, *rest = ANSWER_KINDS[kind]  # rest is the unit field, if the kind has one
    try:
        read = _PAYLOAD_READERS[first](payload)
        return CanonicalAnswer(kind, **{first: read}, **dict.fromkeys(rest, header.get("UNIT", "")))
    except ValueError:  # a value that is no number, or a DomainError (no entities, < 0)
        return None


# --- concrete backends -----------------------------------------------------------------


class OracleBackend:
    """Replays gold supervision for whichever stage is being prompted.

    Keyed by question text, which the generator keeps globally unique. Stage
    dispatch reads the TASK header the agents embed in their prompts.
    """

    def __init__(self, instances: Sequence[QAInstance], captions_by_table: Mapping[str, str]):
        self._by_question: dict[str, QAInstance] = {}
        for inst in instances:
            if inst.question in self._by_question:
                raise ValueError(f"duplicate question text: {inst.question!r}")
            self._by_question[inst.question] = inst
        self._captions_by_table = dict(captions_by_table)

    def _gold(self, header: Mapping[str, str]) -> QAInstance:
        question = header.get("question", "")
        try:
            return self._by_question[question]
        except KeyError:
            raise BackendError(f"oracle has no gold for question {question!r}") from None

    def complete(self, system_prompt: str, messages: Sequence[Message]) -> str:
        header = parse_task_header(messages)
        task = header.get("task", "")
        gold = self._gold(header)
        if task in ("plan", "replan"):
            return "\n".join(
                f"DISPATCH {agent}: {'query tables' if agent == 'db_agent' else 'call map tools'}"
                for agent in gold.agent_route
            )
        if task == "finalize":
            return render_answer(gold.answer)
        if task == "caption_summary":
            table = _first_table(gold.sql_trace[0].statement)
            return self._captions_by_table.get(table or "", table or "")
        if task == "generate_sql":
            return f"```sql\n{gold.sql_trace[0].statement}\n```"
        if task == "decide_tools":
            lines = []
            for step in gold.tool_trace:
                params, bucket = split_step_params(step.params)
                lines.append(
                    f"TOOL: {step.function} PARAMS: "
                    + json.dumps(params, sort_keys=True)
                    + f" BUCKET: {bucket or ''}"
                )
            lines.append("SYNTHESIZE: passthrough")
            return "\n".join(lines)
        if task == "slu":
            return json.dumps(gold.slu_labels(), ensure_ascii=False)
        raise BackendError(f"oracle does not understand task {task!r}")


_FROM_RE = re.compile(r"\bFROM\s+([A-Za-z_][A-Za-z0-9_]*)", re.IGNORECASE)


def _first_table(statement: str) -> str | None:
    match = _FROM_RE.search(statement)
    return match.group(1) if match else None


HTTP_TIMEOUT_S = 60.0


class HttpBackend:
    """Chat-completion client over HTTP in the standard message-list format.

    The API key is read from the named environment variable at call time and
    sent as a bearer token; requests carry {model, messages, temperature 0}.
    Any transport, HTTP-protocol or decoding failure, and a reply whose
    content is not text, raises :class:`BackendError`.
    """

    def __init__(self, endpoint: str, model: str, api_key_env: str = "ESTATEQA_API_KEY") -> None:
        self.endpoint = endpoint
        self.model = model
        self.api_key_env = api_key_env

    def complete(self, system_prompt: str, messages: Sequence[Message]) -> str:
        import http.client  # loaded at the first request; see the module docstring
        import urllib.request

        payload = {
            "model": self.model,
            "temperature": 0.0,
            "messages": [{"role": "system", "content": system_prompt}, *map(dict, messages)],
        }
        headers = {"Content-Type": "application/json"}
        api_key = os.environ.get(self.api_key_env)
        if api_key:
            headers["Authorization"] = f"Bearer {api_key}"
        request = urllib.request.Request(
            self.endpoint,
            data=json.dumps(payload).encode("utf-8"),
            headers=headers,
            method="POST",
        )
        try:
            with urllib.request.urlopen(request, timeout=HTTP_TIMEOUT_S) as response:
                body = json.loads(response.read().decode("utf-8"))
        except (OSError, ValueError, http.client.HTTPException) as exc:
            # URLError is an OSError; JSON and UTF-8 decoding errors are ValueErrors
            raise BackendError(f"chat backend request failed: {exc}") from exc
        try:
            content = body["choices"][0]["message"]["content"]
        except (KeyError, IndexError, TypeError):
            content = None
        if not isinstance(content, str):
            raise BackendError(f"malformed chat completion response: {body!r}")
        return content
