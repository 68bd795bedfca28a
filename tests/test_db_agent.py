"""Database agent: SQL envelope extraction, caption retrieval, execution
packaging, write protection, and gold-SQL injection through the oracle."""

from __future__ import annotations

import pytest

from doubles import RaisingBackend, ScriptedBackend, send_to
from estateqa.db_agent import DbAgent, execute_and_package, extract_sql
from estateqa.evaluator import make_oracle_backend
from estateqa.store import extract_coordinates
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
    assert extract_sql("SELECT 1") is None
    assert extract_sql("```sql\n\n```") is None


# --- execute/package -------------------------------------------------------------


def test_execute_and_package_coordinates(desk_store):
    names = [c.name for c in desk_store.communities("Guangzhou")[:2]]
    quoted = ", ".join(f"'{n}'" for n in names)
    result = execute_and_package(
        desk_store,
        f"SELECT name, latitude, longitude FROM community_guangzhou WHERE name IN ({quoted})",
    )
    assert result.status == "success"
    assert [p["type"] for p in result.evidence] == ["sql"]
    sql_payload = result.evidence[0]
    coords = extract_coordinates(sql_payload["columns"], sql_payload["rows"])
    assert set(coords) == set(names)
    assert sql_payload["ok"] is True
    assert len(sql_payload["rows"]) == 2


def test_execute_and_package_sql_error(desk_store):
    result = execute_and_package(desk_store, "SELECT col FROM missing_table")
    assert result.status == "error"
    assert "no such table" in result.error_report
    sql_payload = result.evidence[0]
    assert sql_payload["type"] == "sql" and sql_payload["ok"] is False


@pytest.mark.parametrize("statement", [
    "SELECT x'41' AS name",
    "SELECT 1 AS n, 'a' AS name UNION ALL SELECT 2, CAST('b' AS BLOB)",
])
def test_blob_cell_is_error_result(desk_store, statement):
    """A BLOB cell has no JSON form, so the store refuses it, naming the column."""
    result = execute_and_package(desk_store, statement)
    assert result.status == "error"
    assert "column name holds a BLOB" in result.error_report
    assert result.evidence == [
        {"type": "sql", "statement": statement, "ok": False, "error": result.error_report}
    ]


def test_execute_and_package_write_protection(desk_store):
    result = execute_and_package(desk_store, "DELETE FROM community_guangzhou")
    assert result.status == "error"
    assert "SELECT" in result.error_report


def test_coordinate_map_keys_are_name_values(desk_store):
    result = execute_and_package(
        desk_store,
        "SELECT name, latitude, longitude FROM community_suzhou LIMIT 5",
    )
    sql_payload = next(p for p in result.evidence if p["type"] == "sql")
    coords = extract_coordinates(sql_payload["columns"], sql_payload["rows"])
    assert set(coords) == {r[0] for r in sql_payload["rows"]}


# --- full dispatch ----------------------------------------------------------------


def test_caption_self_retrieval_rank_one(desk_store):
    captions = desk_store.list_captions()
    agent = DbAgent(desk_store)
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
    result = DbAgent(desk_store).handle(_task("how many communities?"), send_to(backend))
    assert result.status == "success"
    sql_payload = next(p for p in result.evidence if p["type"] == "sql")
    assert sql_payload["rows"] == [[220]]


def test_generate_sql_double_failure_is_error(desk_store):
    backend = ScriptedBackend(
        responses={"caption_summary": "Table for Communities in Guangzhou"},
        default="no fence anywhere",
    )
    result = DbAgent(desk_store).handle(_task(), send_to(backend))
    assert result.status == "error"
    assert "fenced" in result.error_report


def test_unencodable_sql_is_error_result(desk_store):
    # a chat reply can carry a lone surrogate through the JSON escape \ud800
    backend = ScriptedBackend(
        responses={
            "caption_summary": "Table for Communities in Guangzhou",
            "generate_sql": "```sql\nSELECT name FROM community_guangzhou WHERE name = '\ud800'\n```",
        }
    )
    result = DbAgent(desk_store).handle(_task(), send_to(backend))
    assert result.status == "error"
    assert "surrogates not allowed" in result.error_report
    sql_payload = next(p for p in result.evidence if p["type"] == "sql")
    assert sql_payload["ok"] is False


def test_backend_failure_is_error_result(desk_store):
    result = DbAgent(desk_store).handle(_task(), send_to(RaisingBackend()))
    assert result.status == "error"


def test_injected_gold_sql_skips_backend(desk_store, desk_instances):
    inst = desk_instances[0]
    # the agent asks only the oracle; no other backend exists to consult
    oracle = make_oracle_backend([inst], desk_store)
    result = DbAgent(desk_store).handle(_task(inst.question), send_to(oracle))
    assert result.status == "success"
    sql_payload = next(p for p in result.evidence if p["type"] == "sql")
    assert sql_payload["statement"] == inst.sql_trace[0].statement
    assert [tuple(r) for r in sql_payload["rows"]] == list(inst.sql_trace[0].expected_rows)


def test_injection_succeeds_on_all_generated_instances(desk_store, desk_instances):
    agent, send = DbAgent(desk_store), send_to(make_oracle_backend(desk_instances, desk_store))
    for inst in desk_instances:
        assert agent.handle(_task(inst.question), send).status == "success"


def test_caption_evidence_recorded(desk_store, desk_instances):
    inst = desk_instances[0]
    gold_caption = f"Table for Communities in {inst.city}"
    backend = ScriptedBackend(
        responses={
            "caption_summary": gold_caption,
            "generate_sql": f"```sql\n{inst.sql_trace[0].statement}\n```",
        }
    )
    result = DbAgent(desk_store).handle(_task(inst.question), send_to(backend))
    assert result.status == "success"
    caption_payload = next(p for p in result.evidence if p["type"] == "caption")
    assert caption_payload["caption"] == gold_caption
    assert caption_payload["score"] > 0
