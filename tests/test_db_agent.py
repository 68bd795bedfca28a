"""Database agent: SQL envelope extraction, caption retrieval, execution
packaging, write protection, and gold-SQL injection."""

from __future__ import annotations

import pytest

from estateqa.backends import RaisingBackend, ScriptedBackend
from estateqa.db_agent import DbAgent, SqlExtractionError, execute_and_package, extract_sql
from estateqa.supervisor import AgentTask


def _task(question="q", description="fetch"):
    return AgentTask(description=description, question=question, intents=(), slots=())


# --- extraction ---------------------------------------------------------------


def test_extract_sql_from_fence():
    reply = "Reasoning...\n```sql\nSELECT 1\n```\ndone"
    assert extract_sql(reply) == "SELECT 1"


def test_extract_sql_strips_trailing_semicolon():
    assert extract_sql("```sql\nSELECT 1;\n```") == "SELECT 1"


def test_extract_sql_requires_fence():
    with pytest.raises(SqlExtractionError):
        extract_sql("SELECT 1")
    with pytest.raises(SqlExtractionError):
        extract_sql("```sql\n\n```")


# --- execute/package -------------------------------------------------------------


def test_execute_and_package_coordinates(desk_store):
    names = [c.name for c in desk_store.communities("Guangzhou")[:2]]
    quoted = ", ".join(f"'{n}'" for n in names)
    result = execute_and_package(
        desk_store,
        f"SELECT name, latitude, longitude FROM community_guangzhou WHERE name IN ({quoted})",
    )
    assert result.status == "success"
    coords = next(p for p in result.evidence if p["type"] == "coordinates")
    assert set(coords["entries"]) == set(names)
    sql_payload = next(p for p in result.evidence if p["type"] == "sql")
    assert sql_payload["ok"] is True
    assert len(sql_payload["rows"]) == 2


def test_execute_and_package_sql_error(desk_store):
    result = execute_and_package(desk_store, "SELECT col FROM missing_table")
    assert result.status == "error"
    assert "no such table" in result.error_report
    sql_payload = result.evidence[0]
    assert sql_payload["type"] == "sql" and sql_payload["ok"] is False


def test_execute_and_package_write_protection(desk_store):
    result = execute_and_package(desk_store, "DELETE FROM community_guangzhou")
    assert result.status == "error"
    assert "SELECT" in result.error_report


def test_coordinate_map_keys_are_name_values(desk_store):
    result = execute_and_package(
        desk_store,
        "SELECT name, latitude, longitude FROM community_suzhou LIMIT 5",
    )
    coords = next(p for p in result.evidence if p["type"] == "coordinates")
    rows_payload = next(p for p in result.evidence if p["type"] == "rows")
    assert set(coords["entries"]) == {r[0] for r in rows_payload["rows"]}


# --- full dispatch ----------------------------------------------------------------


def test_caption_self_retrieval_rank_one(desk_store):
    captions = desk_store.list_captions()
    backend = ScriptedBackend()  # unused for retrieval itself
    agent = DbAgent(desk_store, backend)
    for caption in captions:
        best, _ = agent.retrieve_caption(caption.caption)
        assert best.table_id == caption.table_id


def test_generate_sql_reprompts_once(desk_store):
    backend = ScriptedBackend(
        responses={
            "caption_summary": "Table for Communities in Guangzhou",
            "generate_sql": [
                "here is your query: SELECT...",
                "```sql\nSELECT COUNT(*) AS n FROM community_guangzhou\n```",
            ],
        }
    )
    agent = DbAgent(desk_store, backend)
    result = agent.handle(_task("how many communities?"))
    assert result.status == "success"
    rows = next(p for p in result.evidence if p["type"] == "rows")
    assert rows["rows"] == [[220]]


def test_generate_sql_double_failure_is_error(desk_store):
    backend = ScriptedBackend(
        responses={"caption_summary": "Table for Communities in Guangzhou"},
        default="no fence anywhere",
    )
    agent = DbAgent(desk_store, backend)
    result = agent.handle(_task())
    assert result.status == "error"
    assert "fenced" in result.error_report


def test_backend_failure_is_error_result(desk_store):
    agent = DbAgent(desk_store, RaisingBackend())
    result = agent.handle(_task())
    assert result.status == "error"


def test_injected_gold_sql_skips_backend(desk_store, desk_instances):
    inst = desk_instances[0]
    agent = DbAgent(
        desk_store,
        RaisingBackend(),  # would explode if consulted
        inject_gold_sql={inst.question: inst.sql_trace[0].statement},
    )
    result = agent.handle(_task(inst.question))
    assert result.status == "success"
    sql_payload = next(p for p in result.evidence if p["type"] == "sql")
    assert sql_payload["statement"] == inst.sql_trace[0].statement
    rows = next(p for p in result.evidence if p["type"] == "rows")
    assert [tuple(r) for r in rows["rows"]] == list(inst.sql_trace[0].expected_rows)


def test_injection_succeeds_on_all_generated_instances(desk_store, desk_instances):
    agent = DbAgent(
        desk_store,
        RaisingBackend(),
        inject_gold_sql={i.question: i.sql_trace[0].statement for i in desk_instances},
    )
    for inst in desk_instances:
        assert agent.handle(_task(inst.question)).status == "success"


def test_caption_evidence_recorded(desk_store, desk_instances):
    inst = desk_instances[0]
    gold_caption = f"Table for Communities in {inst.city}"
    backend = ScriptedBackend(
        responses={
            "caption_summary": gold_caption,
            "generate_sql": f"```sql\n{inst.sql_trace[0].statement}\n```",
        }
    )
    agent = DbAgent(desk_store, backend)
    result = agent.handle(_task(inst.question))
    assert result.status == "success"
    caption_payload = next(p for p in result.evidence if p["type"] == "caption")
    assert caption_payload["caption"] == gold_caption
    assert caption_payload["score"] > 0
