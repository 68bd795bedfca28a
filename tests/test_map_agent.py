"""Map agent: decision parsing, coordinate resolution from context, synthesis
rules, attempt cap, and gold tool injection through the oracle."""

from __future__ import annotations

import pytest

from doubles import ScriptedBackend
from estateqa.domain import GeoPoint
from estateqa.evaluator import make_oracle_backend
from estateqa.map_agent import (
    MapAgent,
    SynthesisRule,
    ToolDecision,
    parse_decisions,
)
from estateqa.supervisor import AgentTask, Supervisor
from estateqa.tools import RESULT_SCHEMAS, ToolCache, ToolResult


class StubProvider:
    """Provider returning scripted durations keyed by (origin_lat, mode)."""

    name = "stub"

    def __init__(self, durations: dict) -> None:
        self.durations = durations

    def resolve(self, request):
        p = request.params_dict
        key = (p["origin_lat"], p.get("mode", p.get("kind")))
        value = self.durations[key]
        if request.function == "distance_query":
            return ToolResult(RESULT_SCHEMAS["distance_query"], ((p["kind"], value),))
        return ToolResult(
            RESULT_SCHEMAS[request.function], ((p["mode"], request.time_bucket, value),)
        )


def _decision(origin_lat, mode="driving", function="time_query", label=""):
    return ToolDecision(
        function=function,
        params={
            "origin_lat": origin_lat,
            "origin_lon": 113.0,
            "dest_lat": 24.0,
            "dest_lon": 114.0,
            "mode": mode,
        },
        label=label,
    )


def _agent(durations, backend=None):
    cache = ToolCache(provider=StubProvider(durations))
    return MapAgent(cache, backend or ScriptedBackend())


def _task(question="q", coordinates=None):
    return AgentTask(
        description="map work",
        question=question,
        intents=(),
        slots=(),
        coordinates=coordinates or {},
    )


# --- parsing ------------------------------------------------------------------


def test_parse_decisions_tools_and_synthesis():
    reply = (
        "I will call the tools.\n"
        'TOOL: time_query PARAMS: {"origin_lat": 1.0, "origin_lon": 2.0, "dest_lat": 3.0,'
        ' "dest_lon": 4.0, "mode": "driving"} BUCKET: peak_08\n'
        'TOOL: distance_query PARAMS: {"origin": "Jade Court", "destination": "Park",'
        ' "kind": "straight"}\n'
        "SYNTHESIZE: threshold_filter <= 900\n"
    )
    decisions, rule, unable = parse_decisions(reply)
    assert not unable
    assert len(decisions) == 2
    assert decisions[0].function == "time_query"
    assert decisions[0].bucket == "peak_08"
    assert decisions[1].params["origin"] == "Jade Court"
    assert rule == SynthesisRule(kind="threshold_filter", op="<=", value=900.0)


def test_parse_decisions_unable():
    decisions, _, unable = parse_decisions("UNABLE: no coordinates in context")
    assert decisions == []
    assert unable == "no coordinates in context"


def test_parse_decisions_empty_unable_does_not_take_the_next_line_as_reason():
    decisions, _, unable = parse_decisions(
        'UNABLE:\nTOOL: time_query PARAMS: {"mode": "driving"}'
    )
    assert unable == ""
    assert [d.function for d in decisions] == ["time_query"]
    assert decisions[0].params == {"mode": "driving"}


def test_parse_decisions_trailing_empty_unable_keeps_tool_lines():
    decisions, _, unable = parse_decisions(
        'TOOL: time_query PARAMS: {"mode": "driving"}\n'
        'TOOL: distance_query PARAMS: {"mode": "walking"}\nUNABLE: '
    )
    assert unable == ""
    assert [d.function for d in decisions] == ["time_query", "distance_query"]


def test_parse_decisions_unable_reason_after_an_empty_one():
    assert parse_decisions("UNABLE: \t\nUNABLE: no coordinates")[2] == "no coordinates"
    assert parse_decisions("UNABLE: \t") is None


def test_parse_decisions_garbage():
    assert parse_decisions("I'd rather write a poem") is None
    assert parse_decisions("SYNTHESIZE: passthrough") is None  # no TOOL line
    _, rule, unable = parse_decisions('TOOL: time_query PARAMS: {"mode": "driving"}')
    assert not unable
    assert rule.kind == "passthrough"


def test_parse_compare_aliases_argmin():
    _, rule, _ = parse_decisions('TOOL: time_query PARAMS: {}\nSYNTHESIZE: compare')
    assert rule.kind == "argmin"


def test_bound_that_is_no_number_fails_the_dispatch_not_the_episode():
    """A bound like 1.2.3 reads as no bound: the map dispatch fails with the
    threshold error, and the supervisor goes on to its next step."""
    _, rule, _ = parse_decisions(
        'TOOL: time_query PARAMS: {}\nSYNTHESIZE: threshold_filter <= 1.2.3'
    )
    assert rule == SynthesisRule(kind="threshold_filter", op="<=", value=None)
    reply = (
        'TOOL: time_query PARAMS: {"origin_lat": 1.0, "origin_lon": 113.0, "dest_lat": 24.0,'
        ' "dest_lon": 114.0, "mode": "driving"}\nSYNTHESIZE: threshold_filter <= 1.2.3'
    )
    backend = ScriptedBackend(
        {"plan": "DISPATCH map_agent: times", "decide_tools": reply,
         "replan": "UNABLE: no route"}
    )
    agent = _agent({(1.0, "driving"): 500}, backend=backend)
    transcript = Supervisor(backend, {"map_agent": agent}).run_episode("q", [], [])
    (dispatch,) = transcript.dispatches
    assert dispatch.status == "error" and dispatch.error_report == "threshold missing a bound"
    assert transcript.final_answer is None


# --- synthesis ----------------------------------------------------------------------


def test_argmin_picks_smallest_of_three():
    durations = {(1.0, "driving"): 600, (2.0, "driving"): 900, (3.0, "driving"): 450}
    agent = _agent(durations)
    decisions = [
        _decision(1.0, label="Alpha"),
        _decision(2.0, label="Beta"),
        _decision(3.0, label="Gamma"),
    ]
    result = agent.invoke_and_synthesize(decisions, SynthesisRule(kind="argmin"))
    assert result.status == "success"
    entities = next(p for p in result.evidence if p["type"] == "entities")
    assert entities["names"] == ["Gamma"]


def test_argmin_tie_breaks_by_name():
    durations = {(1.0, "driving"): 500, (2.0, "driving"): 500}
    agent = _agent(durations)
    decisions = [_decision(1.0, label="Zulu"), _decision(2.0, label="Alpha")]
    result = agent.invoke_and_synthesize(decisions, SynthesisRule(kind="argmin"))
    assert next(p for p in result.evidence if p["type"] == "entities")["names"] == ["Alpha"]


def test_argmin_permutation_invariant():
    durations = {(1.0, "driving"): 700, (2.0, "driving"): 300, (3.0, "driving"): 500}
    labeled = [(1.0, "A"), (2.0, "B"), (3.0, "C")]
    agent = _agent(durations)
    for order in ([0, 1, 2], [2, 1, 0], [1, 2, 0]):
        decisions = [_decision(labeled[i][0], label=labeled[i][1]) for i in order]
        result = agent.invoke_and_synthesize(decisions, SynthesisRule(kind="argmin"))
        assert next(p for p in result.evidence if p["type"] == "entities")["names"] == ["B"]


def test_passthrough_single_distance():
    durations = {(1.0, "straight"): 1234}
    agent = _agent(durations)
    decision = ToolDecision(
        function="distance_query",
        params={"origin_lat": 1.0, "origin_lon": 2.0, "dest_lat": 3.0, "dest_lon": 4.0,
                "kind": "straight"},
    )
    result = agent.invoke_and_synthesize([decision], SynthesisRule(kind="passthrough"))
    assert result.status == "success"
    value = next(p for p in result.evidence if p["type"] == "value")
    assert value == {"type": "value", "kind": "distance", "value": 1234}


def test_threshold_filter():
    durations = {(1.0, "driving"): 500, (2.0, "driving"): 1500}
    agent = _agent(durations)
    decisions = [_decision(1.0, label="Near"), _decision(2.0, label="Far")]
    result = agent.invoke_and_synthesize(
        decisions, SynthesisRule(kind="threshold_filter", op="<=", value=900)
    )
    assert next(p for p in result.evidence if p["type"] == "entities")["names"] == ["Near"]


def test_threshold_nobody_passes_is_error():
    durations = {(1.0, "driving"): 5000}
    agent = _agent(durations)
    result = agent.invoke_and_synthesize(
        [_decision(1.0, label="Far")], SynthesisRule(kind="threshold_filter", value=900)
    )
    assert result.status == "error"
    assert "threshold" in result.error_report


def test_count_rule():
    cache = ToolCache()
    cache._entries = {}
    agent = MapAgent(cache, ScriptedBackend())
    # preload one surrounding result through a stub provider
    rows = (("P1", "park", 23.0, 113.0, 100), ("P2", "park", 23.0, 113.0, 200))

    class Stub:
        name = "stub"

        def resolve(self, request):
            return ToolResult(RESULT_SCHEMAS["surrounding_pois_query"], rows)

    agent.cache.provider = Stub()
    decision = ToolDecision(
        function="surrounding_pois_query",
        params={"center_lat": 23.0, "center_lon": 113.0, "radius_m": 1000, "label": "park"},
    )
    result = agent.invoke_and_synthesize([decision], SynthesisRule(kind="count"))
    value = next(p for p in result.evidence if p["type"] == "value")
    assert value["value"] == 2 and value["unit"] == "count"


# --- attempt cap and failure handling ---------------------------------------------------


def test_all_calls_missing_errors_within_attempt_cap():
    cache = ToolCache()  # frozen and empty
    agent = MapAgent(cache, ScriptedBackend())
    decisions = [_decision(float(i)) for i in range(10)]
    result = agent.invoke_and_synthesize(decisions, SynthesisRule(kind="passthrough"))
    assert result.status == "error"
    failed_calls = [p for p in result.evidence if p["type"] == "tool_call" and not p["ok"]]
    assert len(failed_calls) == 3  # stopped at the cap, not all ten
    assert "attempts" in result.error_report


@pytest.mark.parametrize("params, error", [
    ({"origin_lat": 1, "mode": "walking"}, "time_query: missing param origin_lon"),
    ({"origin_lat": [1], "origin_lon": 2}, "origin_lat must be numeric, got [1]"),
], ids=["missing_origin_lon", "list_coordinate"])
def test_malformed_call_is_a_failed_call_and_the_rest_still_run(params, error):
    durations = {(1.0, "driving"): 600, (2.0, "driving"): 900}
    agent = _agent(durations)
    decisions = [
        _decision(1.0, label="Alpha"),
        ToolDecision(function="time_query", params=params),
        _decision(2.0, label="Beta"),
    ]
    result = agent.invoke_and_synthesize(decisions, SynthesisRule(kind="argmin"))
    assert result.status == "success"
    calls = [p for p in result.evidence if p["type"] == "tool_call"]
    assert [call["ok"] for call in calls] == [True, False, True]
    assert calls[1] == {"type": "tool_call", "function": "time_query", "params": params,
                        "ok": False, "error": error}
    assert next(p for p in result.evidence if p["type"] == "entities")["names"] == ["Alpha"]


def test_missing_coordinates_is_unable():
    agent = _agent({})
    decision = ToolDecision(
        function="time_query",
        params={"origin": "Nowhere Court", "destination": "Lost Park", "mode": "driving"},
    )
    result = agent.invoke_and_synthesize(
        [decision], SynthesisRule(), coordinates={"Somewhere": GeoPoint(1, 2)}
    )
    assert result.status == "unable"
    assert "coordinates" in result.error_report
    assert "Nowhere Court" in result.error_report


def test_entity_name_params_resolved_from_context():
    durations = {(23.0, "driving"): 777}
    agent = _agent(durations)
    decision = ToolDecision(
        function="time_query",
        params={"origin": "Jade Court", "destination": "Lotus Park", "mode": "driving"},
    )
    coords = {"Jade Court": GeoPoint(23.0, 113.0), "Lotus Park": GeoPoint(24.0, 114.0)}
    result = agent.invoke_and_synthesize([decision], SynthesisRule(), coordinates=coords)
    assert result.status == "success"
    call = next(p for p in result.evidence if p["type"] == "tool_call")
    assert call["params"]["origin_lat"] == 23.0
    assert call["params"]["dest_lat"] == 24.0


# --- dispatch entry -------------------------------------------------------------------------


def test_handle_unable_reply_from_backend():
    agent = _agent({}, backend=ScriptedBackend(default="UNABLE: nothing in context"))
    result = agent.handle(_task())
    assert result.status == "unable"
    assert "nothing in context" in result.error_report


def test_handle_no_decisions_after_reprompt_is_unable():
    agent = _agent({}, backend=ScriptedBackend(default="let me think..."))
    result = agent.handle(_task())
    assert result.status == "unable"
    assert "no parseable tool decisions" in result.error_report


def test_handle_injected_gold_tools(desk_cache, desk_store, desk_instances):
    inst = next(i for i in desk_instances if i.question_type == 2)
    agent = MapAgent(desk_cache, make_oracle_backend([inst], desk_store))
    result = agent.handle(_task(inst.question))
    assert result.status == "success"
    calls = [p for p in result.evidence if p["type"] == "tool_call"]
    assert [(c["function"], c["params"]) for c in calls] == [
        (t.function, dict(t.params)) for t in inst.tool_trace
    ]
    assert all(
        tuple(tuple(r) for r in c["rows"]) == t.expected_rows
        for c, t in zip(calls, inst.tool_trace)
    )


def test_gold_injection_passthrough_carries_type2_answers(
    desk_cache, desk_store, desk_instances, desk_templates
):
    """With gold calls injected, passthrough evidence carries the gold answer
    for every type 2 instance: the scalar value for duration/distance rules,
    and the (sorted, limit-prefixed) entity list for listing rules."""
    registry = {t.template_id: t for t in desk_templates}
    agent = MapAgent(desk_cache, make_oracle_backend(desk_instances, desk_store))
    checked = 0
    for inst in desk_instances:
        if inst.question_type != 2:
            continue
        result = agent.handle(_task(inst.question))
        assert result.status == "success", (inst.id, result.error_report)
        rule = registry[inst.template_id].answer_rule
        if rule["kind"] == "tool_value":
            value = next(p for p in result.evidence if p["type"] == "value")
            assert float(value["value"]) == inst.answer.value, inst.id
        else:  # tool_list: answer is a prefix of the distance-sorted names
            names = next(p for p in result.evidence if p["type"] == "entities")["names"]
            k = len(inst.answer.entities)
            assert tuple(names[:k]) == inst.answer.entities, inst.id
        checked += 1
    assert checked >= 100


def test_gold_injection_synthesis_matches_gold_answers(desk_cache, desk_instances, desk_templates):
    """With gold calls injected and the template's own rule applied, synthesis
    reproduces the gold answer for tool-determined answers."""
    registry = {t.template_id: t for t in desk_templates}
    rule_map = {
        "tool_argmin": "argmin",
        "tool_argmax": "argmax",
        "tool_count": "count",
        "tool_threshold": "threshold_filter",
    }
    checked = 0
    for inst in desk_instances:
        template = registry[inst.template_id]
        rule_kind = template.answer_rule["kind"]
        if rule_kind not in rule_map or inst.question_type != 3:
            continue
        # threshold bound comes from the template's derived slot values
        bound = None
        if rule_kind == "tool_threshold":
            minutes = next(s.value for s in inst.slots if s.slot_type == "minutes")
            bound = int(minutes) * 60
        labels = []
        coord_map = {}
        from estateqa.store import extract_coordinates

        for step in inst.sql_trace:
            coord_map.update(extract_coordinates(step.expected_columns, step.expected_rows))
        agent = MapAgent(desk_cache, ScriptedBackend())
        decisions = []
        for step, label in zip(inst.tool_trace, template.answer_rule.get("labels", [])):
            params = {k: v for k, v in step.params.items() if k != "time_bucket"}
            resolved_label = label
            if label.startswith("{"):
                target = (round(params["origin_lat"], 6), round(params["origin_lon"], 6))
                resolved_label = next(
                    name
                    for name, point in coord_map.items()
                    if (round(point.latitude, 6), round(point.longitude, 6)) == target
                )
            decisions.append(
                ToolDecision(
                    function=step.function,
                    params=params,
                    bucket=step.params.get("time_bucket"),
                    label=resolved_label,
                )
            )
        if not decisions:  # count rule has no labels
            decisions = [
                ToolDecision(
                    function=step.function,
                    params={k: v for k, v in step.params.items() if k != "time_bucket"},
                    bucket=step.params.get("time_bucket"),
                )
                for step in inst.tool_trace
            ]
        result = agent.invoke_and_synthesize(
            decisions, SynthesisRule(kind=rule_map[rule_kind], value=bound)
        )
        assert result.status == "success", (inst.id, result.error_report)
        if rule_kind in ("tool_argmin", "tool_argmax", "tool_threshold"):
            names = next(p for p in result.evidence if p["type"] == "entities")["names"]
            assert sorted(names) == sorted(inst.answer.entities), inst.id
        else:
            value = next(p for p in result.evidence if p["type"] == "value")
            assert value["value"] == inst.answer.value, inst.id
        checked += 1
    assert checked >= 50
