"""Backends: envelope round-trips, oracle replay, and the HTTP chat-completion
wire format exercised against a local server."""

from __future__ import annotations

import json
import random
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer

import pytest

from doubles import RaisingBackend, ScriptedBackend, send_to
from estateqa.backends import (
    BackendError,
    REPLY_KINDS,
    HttpBackend,
    OracleBackend,
    build_task_message,
    parse_answer,
    parse_task_header,
    render_answer,
)
from estateqa.db_agent import DbAgent, extract_sql
from estateqa.domain import TOOL_FUNCTIONS, CanonicalAnswer, answer_equal
from estateqa.map_agent import MapAgent, parse_decisions
from estateqa.prompts import load_prompt
from estateqa.supervisor import AgentTask, Exchange, Supervisor
from estateqa.tools import ToolCache


# --- envelopes ---------------------------------------------------------------------


def _random_answer(rng: random.Random) -> CanonicalAnswer:
    kind = rng.choice(REPLY_KINDS)
    if kind == "entity_set":
        return CanonicalAnswer.entity_set(
            [f"Entity {rng.randint(1, 9)}" for _ in range(rng.randint(1, 4))]
        )
    if kind == "number":
        return CanonicalAnswer.number(rng.randint(0, 9999) / 4, rng.choice(["count", "percent", ""]))
    if kind == "duration":
        return CanonicalAnswer.duration(rng.randint(0, 9999))
    if kind == "distance":
        return CanonicalAnswer.distance(rng.randint(0, 9999))
    return CanonicalAnswer.from_text("some answer text")


def test_the_supervisor_prompt_offers_exactly_the_reply_kinds():
    prompt = load_prompt("supervisor_system")
    assert f"ANSWER_KIND: <{'|'.join(REPLY_KINDS)}>" in prompt


def test_the_map_prompt_names_what_the_tool_table_declares():
    prompt = load_prompt("tool_descriptions")
    for name, function in TOOL_FUNCTIONS.items():
        section = prompt.partition(f"\n{name}\n")[2].partition("\n\n")[0]
        assert section, name
        words = [*function.coordinates, function.enum, *function.columns]
        if function.values:
            words.append(f"{function.enum} ({'|'.join(function.values)})")
        assert [w for w in words if w not in section] == [], name


def test_a_boolean_answer_renders_and_does_not_parse():
    rendered = render_answer(CanonicalAnswer(kind="boolean", flag=True))
    assert rendered == "ANSWER_KIND: boolean\nANSWER: True"
    assert parse_answer(rendered) is None


def test_answer_envelope_round_trip():
    rng = random.Random(77)
    for _ in range(300):
        answer = _random_answer(rng)
        parsed = parse_answer(render_answer(answer))
        assert parsed is not None
        assert answer_equal(parsed, answer), (answer, parsed)


def test_answer_envelope_ignores_surrounding_prose():
    text = "Let me think...\nreasoning here\n" + render_answer(
        CanonicalAnswer.duration(936)
    ) + "\n"
    assert parse_answer(text) == CanonicalAnswer.duration(936)


def test_parse_answer_garbage_is_none():
    assert parse_answer("I do not know") is None
    assert parse_answer("ANSWER_KIND: entity_set\nANSWER: ") is None
    assert parse_answer("ANSWER_KIND: number\nANSWER: not-a-number") is None
    assert parse_answer("ANSWER_KIND: nonsense\nANSWER: 1") is None


def test_task_header_round_trip():
    content = build_task_message("plan", "What is life?", intents="a, b", extra="x")
    header = parse_task_header([{"role": "user", "content": content}])
    assert header["task"] == "plan"
    assert header["question"] == "What is life?"
    assert header["intents"] == "a, b"
    assert header["extra"] == "x"


def test_task_header_reads_last_user_message():
    messages = [
        {"role": "user", "content": "TASK: old"},
        {"role": "assistant", "content": "ok"},
        {"role": "user", "content": "TASK: new\nQUESTION: q"},
    ]
    assert parse_task_header(messages)["task"] == "new"


def test_task_header_ends_at_the_first_empty_line():
    """Evidence and worked examples below the header are not header fields,
    even where a line of theirs looks like one."""
    content = build_task_message("finalize", "Where?", intents="a")
    content += "\nPREVIOUS_FAILURE: db_agent reported error: no rows"
    content += "\n\nWorked examples:\nTASK: plan\nQUESTION: other\nUNIT: km\n\nSOURCE: x"
    assert parse_task_header([{"role": "user", "content": content}]) == {
        "task": "finalize", "question": "Where?", "intents": "a",
        "previous_failure": "db_agent reported error: no rows",
    }


# --- scripted/raising ------------------------------------------------------------------


def test_scripted_backend_by_task_and_list():
    backend = ScriptedBackend(responses={"plan": ["first", "second"]}, default="dflt")
    msg = [{"role": "user", "content": build_task_message("plan", "q")}]
    assert backend.complete("", msg) == "first"
    assert backend.complete("", msg) == "second"
    assert backend.complete("", msg) == "dflt"
    other = [{"role": "user", "content": build_task_message("finalize", "q")}]
    assert backend.complete("", other) == "dflt"
    assert len(backend.calls) == 4


def test_raising_backend():
    with pytest.raises(BackendError):
        RaisingBackend().complete("", [])


# --- oracle ------------------------------------------------------------------------------


def test_oracle_rejects_duplicate_questions(desk_instances):
    from dataclasses import replace

    dupe = replace(desk_instances[0], id="other-id")
    with pytest.raises(ValueError, match="duplicate question"):
        OracleBackend([desk_instances[0], dupe], {})


def test_oracle_stage_envelopes_parse(desk_instances, desk_store):
    captions = {c.table_id: c.caption for c in desk_store.list_captions()}
    backend = OracleBackend(desk_instances, captions)
    inst = next(i for i in desk_instances if i.question_type == 3)

    def ask(task, **fields):
        return backend.complete(
            "", [{"role": "user", "content": build_task_message(task, inst.question, **fields)}]
        )

    plan = ask("plan")
    assert [line.split()[1].rstrip(":") for line in plan.splitlines()] == list(inst.agent_route)

    statement = extract_sql(ask("generate_sql"))
    assert statement == inst.sql_trace[0].statement

    summary = ask("caption_summary")
    assert inst.city in summary

    decisions, rule, unable = parse_decisions(ask("decide_tools"))
    assert not unable
    assert [d.function for d in decisions] == [t.function for t in inst.tool_trace]
    assert rule.kind == "passthrough"

    final = parse_answer(ask("finalize"))
    assert final is not None and answer_equal(final, inst.answer)


def test_oracle_unknown_question_raises(desk_instances, desk_store):
    backend = OracleBackend(desk_instances[:5], {})
    with pytest.raises(BackendError):
        backend.complete(
            "", [{"role": "user", "content": build_task_message("plan", "never seen")}]
        )


# --- the shared reprompt ---------------------------------------------------------------


class RecordingBackend:
    """Replies from a per-task queue and records every (task, system, user text)."""

    def __init__(self, replies: dict[str, list[str]]) -> None:
        self.replies = replies
        self.prompts: list[tuple[str, str, str]] = []

    def complete(self, system_prompt, messages):
        (message,) = messages
        assert message["role"] == "user"
        task = parse_task_header(messages)["task"]
        self.prompts.append((task, system_prompt, message["content"]))
        return self.replies[task].pop(0)


class _OkSpecialist:
    def handle(self, task, send):
        return Exchange(status="success", evidence=[{"type": "rows", "rows": []}])


def _plan_outcome(backend, store):
    transcript = Supervisor(backend, {"db_agent": _OkSpecialist()}).run_episode("q", [], [])
    assert [e["stage"] for e in transcript.backend_events][:2] == ["plan", "plan"]
    return transcript.failure


def _db_outcome(backend, store):
    task = AgentTask(description="count", question="q", intents=(), slots=())
    return DbAgent(store).handle(task, send_to(backend)).error_report


def _map_outcome(backend, store):
    task = AgentTask(description="route", question="q", intents=(), slots=())
    return MapAgent(ToolCache()).handle(task, send_to(backend)).error_report


# stage: (runner, a reply with the envelope, other replies, nudge,
#         outcome after a good second reply, outcome after two bad replies)
REPROMPT_STAGES = {
    "plan": (
        _plan_outcome,
        "DISPATCH db_agent: fetch",
        {"finalize": [render_answer(CanonicalAnswer.number(1, "count"))]},
        "\n\nYour previous reply contained no directive lines. Reply with"
        " one `DISPATCH <specialist>: <sub-task>` line per step.",
        "",
        "plan_failure",
    ),
    "generate_sql": (
        _db_outcome,
        "```sql\nSELECT COUNT(*) AS n FROM community_guangzhou\n```",
        {"caption_summary": ["Table for Communities in Guangzhou"]},
        "\n\nYour previous reply had no ```sql fenced block."
        " Reply with exactly one statement inside ```sql ... ```.",
        "",
        "no ```sql fenced block after reprompt",
    ),
    "decide_tools": (
        _map_outcome,
        "UNABLE: no coordinates in context",
        {},
        "\n\nYour previous reply contained no TOOL lines. Use the"
        " `TOOL: <function> PARAMS: {...}` format, or `UNABLE: <reason>`.",
        "no coordinates in context",
        "no parseable tool decisions for this sub-task",
    ),
}


@pytest.mark.parametrize("second_ok", [True, False], ids=["then_ok", "twice_bad"])
@pytest.mark.parametrize("stage", sorted(REPROMPT_STAGES))
def test_envelope_less_reply_gets_one_reprompt(desk_store, stage, second_ok):
    run, good_reply, other_replies, nudge, recovered, failure = REPROMPT_STAGES[stage]
    second = good_reply if second_ok else "thinking aloud, no envelope"
    replies = {task: list(queue) for task, queue in other_replies.items()}
    backend = RecordingBackend({stage: ["thinking aloud, no envelope", second], **replies})
    outcome = run(backend, desk_store)
    sent = [(system, text) for task, system, text in backend.prompts if task == stage]
    assert len(sent) == 2
    (first_system, first_text), (second_system, second_text) = sent
    assert second_system == first_system
    assert second_text == first_text + nudge
    assert outcome == (recovered if second_ok else failure)


# --- HTTP backend ---------------------------------------------------------------------------


class _Handler(BaseHTTPRequestHandler):
    requests: list[dict] = []
    response_body: bytes = b""
    status: int = 200
    raw: bool = False  # write response_body as the whole response, status line included

    def do_POST(self):
        length = int(self.headers.get("Content-Length", 0))
        body = json.loads(self.rfile.read(length))
        type(self).requests.append(
            {"body": body, "auth": self.headers.get("Authorization")}
        )
        if self.raw:
            self.wfile.write(self.response_body)
            return
        self.send_response(self.status)
        self.send_header("Content-Type", "application/json")
        self.end_headers()
        self.wfile.write(self.response_body)

    def log_message(self, *args):
        pass


@pytest.fixture()
def http_server():
    _Handler.requests = []
    _Handler.response_body = json.dumps(
        {"choices": [{"message": {"role": "assistant", "content": "pong"}}]}
    ).encode()
    _Handler.status = 200
    _Handler.raw = False
    server = HTTPServer(("127.0.0.1", 0), _Handler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{server.server_port}/v1/chat/completions", _Handler
    server.shutdown()
    server.server_close()


def test_http_backend_wire_format(http_server, monkeypatch):
    endpoint, handler = http_server
    monkeypatch.setenv("TEST_API_KEY", "sk-secret")
    backend = HttpBackend(endpoint, model="demo-model", api_key_env="TEST_API_KEY")
    reply = backend.complete("sys prompt", [{"role": "user", "content": "ping"}])
    assert reply == "pong"
    sent = handler.requests[0]
    assert sent["auth"] == "Bearer sk-secret"
    assert sent["body"]["model"] == "demo-model"
    assert sent["body"]["messages"][0] == {"role": "system", "content": "sys prompt"}
    assert sent["body"]["messages"][1] == {"role": "user", "content": "ping"}
    assert sent["body"]["temperature"] == 0.0


def test_http_backend_no_key_no_header(http_server, monkeypatch):
    endpoint, handler = http_server
    monkeypatch.delenv("ESTATEQA_API_KEY", raising=False)
    backend = HttpBackend(endpoint, model="demo-model")
    backend.complete("s", [])
    assert handler.requests[0]["auth"] is None


def test_http_backend_malformed_response(http_server):
    endpoint, handler = http_server
    backend = HttpBackend(endpoint, model="m")
    # (raw response, body, expected message)
    for raw, body, match in (
        (False, json.dumps({"unexpected": True}).encode(), "malformed"),
        (False, b'{"choices": [{"message": {"content": null}}]}', "malformed"),
        (False, b"\xff\xfe not utf-8", "request failed"),
        (True, b"HTTP/1.0 200 OK\r\nContent-Length: 100\r\n\r\n{\"choices\"", "request failed"),
        (True, b"NOT-HTTP garbage\r\n\r\n", "request failed"),
    ):
        handler.raw, handler.response_body = raw, body
        with pytest.raises(BackendError, match=match):
            backend.complete("s", [])


def test_http_backend_unreachable():
    backend = HttpBackend("http://127.0.0.1:9/nothing", model="m")
    with pytest.raises(BackendError):
        backend.complete("s", [])
