"""Supervisor state machine: plan parsing, replanning on failure, step-cap
termination, transcript completeness, specialists' exchanges included."""

from __future__ import annotations

import json

import pytest

from doubles import RaisingBackend, SabotageBackend, ScriptedBackend
from estateqa.backends import render_answer
from estateqa.db_agent import DbAgent
from estateqa.domain import CanonicalAnswer, answer_equal, decode, encode
from estateqa.evaluator import make_oracle_backend
from estateqa.map_agent import MapAgent
from estateqa.supervisor import (
    DEFAULT_STEP_CAP,
    AgentTask,
    EpisodeTranscript,
    Exchange,
    Send,
    Supervisor,
    Directive,
)


class StubSpecialist:
    """Scripted specialist returning queued results (last one repeats)."""

    def __init__(self, *results: Exchange) -> None:
        self.queue = list(results)
        self.tasks: list[AgentTask] = []

    def handle(self, task: AgentTask, send: Send) -> Exchange:
        self.tasks.append(task)
        if len(self.queue) > 1:
            return self.queue.pop(0)
        return self.queue[0]


def ok(evidence=None):
    return Exchange(status="success", evidence=evidence or [{"type": "rows", "rows": []}])


def unable(report="cannot handle this"):
    return Exchange(status="unable", error_report=report)


def error(report="boom"):
    return Exchange(status="error", error_report=report)


ANSWER_42 = render_answer(CanonicalAnswer.number(42, "count"))


def test_plan_parses_directives_in_order():
    backend = ScriptedBackend(
        responses={
            "plan": "Thinking out loud...\nDISPATCH db_agent: get rows\nDISPATCH map_agent: compute times\n"
        }
    )
    supervisor = Supervisor(backend, {"db_agent": StubSpecialist(ok())})
    transcript = EpisodeTranscript(instance_id="", question="q")
    directives = supervisor.plan(transcript, "q", [], [])
    assert directives == [
        Directive("db_agent", "get rows"),
        Directive("map_agent", "compute times"),
    ]


def test_plan_reprompts_once_then_succeeds():
    backend = ScriptedBackend(
        responses={"plan": ["no directives here", "DISPATCH db_agent: work"],
                   "finalize": ANSWER_42}
    )
    supervisor = Supervisor(backend, {"db_agent": StubSpecialist(ok())})
    transcript = supervisor.run_episode("q", [], [])
    assert transcript.final_answer == CanonicalAnswer.number(42, "count")
    plan_events = [e for e in transcript.backend_events if e["stage"] == "plan"]
    assert len(plan_events) == 2


def test_unparseable_plan_fails_episode():
    backend = ScriptedBackend(default="just prose, no structure")
    supervisor = Supervisor(backend, {})
    transcript = supervisor.run_episode("q", [], [])
    assert transcript.final_answer is None
    assert transcript.failure == "plan_failure"


def test_backend_exception_at_plan_time():
    supervisor = Supervisor(RaisingBackend(), {})
    transcript = supervisor.run_episode("q", [], [])
    assert transcript.final_answer is None
    assert transcript.failure == "plan_failure"
    assert transcript.step_count <= 25


def test_happy_path_single_dispatch():
    backend = ScriptedBackend(
        responses={"plan": "DISPATCH db_agent: fetch", "finalize": ANSWER_42}
    )
    db = StubSpecialist(ok([{"type": "rows", "columns": ["n"], "rows": [[42]]}]))
    supervisor = Supervisor(backend, {"db_agent": db})
    transcript = supervisor.run_episode("how many?", ["poi_count"], [])
    assert transcript.final_answer == CanonicalAnswer.number(42, "count")
    assert transcript.specialist_sequence == ("db_agent",)
    assert transcript.step_count == 2  # plan + dispatch
    assert db.tasks[0].question == "how many?"
    assert db.tasks[0].intents == ("poi_count",)


def test_always_error_specialist_terminates_unanswerable():
    backend = ScriptedBackend(
        responses={"plan": "DISPATCH db_agent: try", "replan": "DISPATCH db_agent: try again"}
    )
    supervisor = Supervisor(backend, {"db_agent": StubSpecialist(error())})
    transcript = supervisor.run_episode("q", [], [])
    assert transcript.final_answer is None
    assert transcript.step_count <= 25
    assert transcript.failure == "step_cap_exhausted"
    assert all(e.status == "error" for e in transcript.dispatches)


@pytest.mark.parametrize("cap", range(1, 7))
def test_step_accounting_with_an_always_failing_specialist(cap):
    # steps alternate plan, dispatch, replan, dispatch, ...: each uses one step
    backend = ScriptedBackend(
        responses={"plan": "DISPATCH db_agent: try", "replan": "DISPATCH db_agent: try again"}
    )
    supervisor = Supervisor(backend, {"db_agent": StubSpecialist(error())}, step_cap=cap)
    transcript = supervisor.run_episode("q", [], [])
    stages = [e["stage"] for e in transcript.backend_events]
    assert transcript.step_count == cap
    assert len(transcript.dispatches) == cap // 2
    assert stages == ["plan"] + ["replan"] * ((cap - 1) // 2)
    assert transcript.failure == "step_cap_exhausted"
    assert transcript.final_answer is None


def test_misroute_recovery_via_replanning():
    # type-1 shaped question wrongly routed to map_agent first
    backend = ScriptedBackend(
        responses={
            "plan": "DISPATCH map_agent: answer from the map",
            "replan": "DISPATCH db_agent: look it up in the tables",
            "finalize": ANSWER_42,
        }
    )
    map_stub = StubSpecialist(unable("tools cannot answer a price lookup"))
    db_stub = StubSpecialist(ok())
    supervisor = Supervisor(backend, {"db_agent": db_stub, "map_agent": map_stub})
    transcript = supervisor.run_episode("what is the price?", [], [])
    assert transcript.specialist_sequence == ("map_agent", "db_agent")
    assert transcript.final_answer == CanonicalAnswer.number(42, "count")
    assert transcript.dispatches[0].status == "unable"
    assert transcript.dispatches[1].status == "success"


def test_unknown_specialist_triggers_replan():
    backend = ScriptedBackend(
        responses={
            "plan": "DISPATCH web_agent: google it",
            "replan": "DISPATCH db_agent: proper route",
            "finalize": ANSWER_42,
        }
    )
    supervisor = Supervisor(backend, {"db_agent": StubSpecialist(ok())})
    transcript = supervisor.run_episode("q", [], [])
    assert transcript.specialist_sequence == ("web_agent", "db_agent")
    assert transcript.final_answer is not None


def test_coordinates_flow_between_specialists():
    backend = ScriptedBackend(
        responses={
            "plan": "DISPATCH db_agent: coords\nDISPATCH map_agent: times",
            "finalize": ANSWER_42,
        }
    )
    db = StubSpecialist(
        ok([{"type": "sql", "statement": "SELECT ...", "ok": True,
             "columns": ["name", "latitude", "longitude"], "rows": [["Jade Court", 23.0, 113.0]]}])
    )
    map_stub = StubSpecialist(ok([{"type": "value", "kind": "duration", "value": 10}]))
    supervisor = Supervisor(backend, {"db_agent": db, "map_agent": map_stub})
    transcript = supervisor.run_episode("q", [], [])
    assert transcript.final_answer is not None
    task = map_stub.tasks[0]
    assert "Jade Court" in task.coordinates
    assert task.coordinates["Jade Court"].latitude == 23.0


def test_finalize_parse_failure_degrades_to_text():
    backend = ScriptedBackend(
        responses={"plan": "DISPATCH db_agent: fetch", "finalize": "it is big, trust me"}
    )
    supervisor = Supervisor(backend, {"db_agent": StubSpecialist(ok())})
    transcript = supervisor.run_episode("q", [], [])
    assert transcript.final_answer == CanonicalAnswer.from_text("it is big, trust me")
    assert transcript.failure == "answer_parse_degraded"


def test_a_boolean_answer_kind_degrades_to_text():
    # no answer rule derives a boolean, so the envelope does not offer one
    reply = "ANSWER_KIND: boolean\nANSWER: true"
    backend = ScriptedBackend(responses={"plan": "DISPATCH db_agent: fetch", "finalize": reply})
    supervisor = Supervisor(backend, {"db_agent": StubSpecialist(ok())})
    transcript = supervisor.run_episode("q", [], [])
    assert transcript.final_answer == CanonicalAnswer.from_text(reply)
    assert transcript.failure == "answer_parse_degraded"


def test_replan_parse_failure_is_unanswerable():
    backend = ScriptedBackend(
        responses={"plan": "DISPATCH db_agent: fetch", "replan": "no structure"}
    )
    supervisor = Supervisor(backend, {"db_agent": StubSpecialist(error())})
    transcript = supervisor.run_episode("q", [], [])
    assert transcript.final_answer is None
    assert transcript.failure == "replan_failure"


def test_step_cap_one_cannot_dispatch():
    backend = ScriptedBackend(
        responses={"plan": "DISPATCH db_agent: fetch", "finalize": ANSWER_42}
    )
    supervisor = Supervisor(backend, {"db_agent": StubSpecialist(ok())}, step_cap=1)
    transcript = supervisor.run_episode("q", [], [])
    assert transcript.final_answer is None
    assert transcript.step_count == 1


def test_step_cap_validation():
    with pytest.raises(ValueError):
        Supervisor(ScriptedBackend(), {}, step_cap=0)


def test_transcript_serialization_round_trip():
    backend = ScriptedBackend(
        responses={"plan": "DISPATCH db_agent: fetch", "finalize": ANSWER_42}
    )
    supervisor = Supervisor(backend, {"db_agent": StubSpecialist(ok())})
    transcript = supervisor.run_episode("q", ["intent_x"], [], instance_id="abc")
    data = json.loads(json.dumps(transcript, default=encode))
    again = decode(EpisodeTranscript, data)
    assert again == transcript
    assert json.loads(json.dumps(again, default=encode)) == data
    assert again.instance_id == "abc" and again.slu is None
    assert data["final_answer"] == transcript.final_answer.to_dict()


def test_every_backend_call_recorded():
    backend = ScriptedBackend(
        responses={
            "plan": "DISPATCH db_agent: fetch",
            "replan": "DISPATCH db_agent: retry",
            "finalize": ANSWER_42,
        }
    )
    db = StubSpecialist(error(), ok())
    supervisor = Supervisor(backend, {"db_agent": db})
    transcript = supervisor.run_episode("q", [], [])
    stages = [e["stage"] for e in transcript.backend_events]
    assert stages == ["plan", "replan", "finalize"]
    assert len(transcript.dispatches) == 2


# --- one recorded send per episode ------------------------------------------------------


def _desk_episode(backend, desk_store, desk_cache, inst, step_cap=DEFAULT_STEP_CAP):
    specialists = {"db_agent": DbAgent(desk_store), "map_agent": MapAgent(desk_cache)}
    supervisor = Supervisor(backend, specialists, step_cap=step_cap)
    return supervisor.run_episode(inst.question, inst.intents, inst.slots, instance_id=inst.id)


def test_a_transcript_carries_every_specialist_exchange(desk_store, desk_cache, desk_instances):
    """The specialists ask through the episode's send, so their exchanges sit
    between the supervisor's, in the order they were made."""
    inst = next(i for i in desk_instances if i.question_type == 2)
    assert inst.agent_route == ("db_agent", "map_agent")
    transcript = _desk_episode(
        make_oracle_backend([inst], desk_store), desk_store, desk_cache, inst
    )
    assert answer_equal(transcript.final_answer, inst.answer)
    events = transcript.backend_events
    stages = ["plan", "caption_summary", "generate_sql", "decide_tools", "finalize"]
    assert [e["stage"] for e in events] == stages
    assert all(set(e) == {"stage", "response"} for e in events)
    assert events[2]["response"] == f"```sql\n{inst.sql_trace[0].statement}\n```"


def test_a_failed_specialist_exchange_is_recorded_as_an_error(
    desk_store, desk_cache, desk_instances
):
    inst = next(i for i in desk_instances if i.question_type == 2)
    backend = SabotageBackend(
        make_oracle_backend([inst], desk_store), "generate_sql", mode="raise"
    )
    transcript = _desk_episode(backend, desk_store, desk_cache, inst, step_cap=3)
    events = transcript.backend_events
    assert [e["stage"] for e in events] == ["plan", "caption_summary", "generate_sql", "replan"]
    assert events[2] == {"stage": "generate_sql", "error": "sabotaged stage generate_sql"}
    assert transcript.dispatches[0].error_report == "sabotaged stage generate_sql"
