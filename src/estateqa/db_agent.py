"""Database interaction specialist: hypothetical-caption retrieval over BM25,
few-shot SQL generation, read-only execution, and coordinate packaging.

The caption stage asks the backend for a one-line description of the ideal
table ("hypothetical caption"), ranks the real caption catalog against it with
BM25, and hands the winning schema to the SQL stage. Generated SQL must arrive
inside a fenced ```sql block; one reprompt is allowed before the dispatch
fails. With gold SQL injected, generation is skipped entirely.
"""

from __future__ import annotations

import re
from typing import Any, Mapping

from .backends import BackendError, ChatBackend, build_task_message
from .bm25 import Bm25Index
from .prompts import load_prompt
from .store import GeoStore, SqlExecutionError, TableCaption, extract_coordinates
from .supervisor import AgentResult, AgentTask

_SQL_FENCE_RE = re.compile(r"```sql\s+(.*?)```", re.DOTALL | re.IGNORECASE)


class SqlExtractionError(RuntimeError):
    pass


def extract_sql(reply: str) -> str:
    """Pull the single statement out of a mandated ```sql fenced envelope."""
    match = _SQL_FENCE_RE.search(reply)
    if not match:
        raise SqlExtractionError("no ```sql fenced block in reply")
    statement = match.group(1).strip().rstrip(";")
    if not statement:
        raise SqlExtractionError("empty ```sql fenced block")
    return statement


def execute_and_package(store: GeoStore, statement: str) -> AgentResult:
    """Run a candidate statement and fold the outcome into an AgentResult.

    Success carries the rows plus a coordinate map extracted from name/lat/lon
    columns; failure carries the engine message so the supervisor can replan.
    The SQL payload itself is always recorded (executable-ratio accounting
    needs failed candidates too).
    """
    sql_payload: dict[str, Any] = {"type": "sql", "statement": statement}
    try:
        columns, rows = store.execute_sql(statement)
    except SqlExecutionError as exc:
        sql_payload.update(ok=False, error=str(exc))
        return AgentResult(status="error", evidence=[sql_payload], error_report=str(exc))
    sql_payload.update(ok=True, columns=list(columns), rows=[list(r) for r in rows])
    evidence: list[dict[str, Any]] = [
        sql_payload,
        {"type": "rows", "columns": list(columns), "rows": [list(r) for r in rows]},
    ]
    coordinates = extract_coordinates(columns, rows)
    if coordinates:
        evidence.append(
            {
                "type": "coordinates",
                "entries": {
                    name: [p.latitude, p.longitude] for name, p in coordinates.items()
                },
            }
        )
    return AgentResult(status="success", evidence=evidence)


class DbAgent:
    def __init__(
        self,
        store: GeoStore,
        backend: ChatBackend,
        inject_gold_sql: Mapping[str, str] | None = None,
    ) -> None:
        self.store = store
        self.backend = backend
        self.inject_gold_sql = dict(inject_gold_sql or {})
        self.system_prompt = load_prompt("db_agent_system")
        self.caption_examples = load_prompt("db_fewshot_caption")
        self.sql_examples = load_prompt("db_fewshot_sql")
        captions = store.list_captions()
        self._by_text = {c.caption: c for c in captions}
        self.index = Bm25Index([c.caption for c in captions])

    # --- pipeline stages -----------------------------------------------------

    def caption_summary(self, task: AgentTask) -> str:
        content = build_task_message(
            "caption_summary",
            task.question,
            subtask=task.description,
            intents=", ".join(task.intents),
            slots="; ".join(f"{s.slot_type}={s.value}" for s in task.slots),
        )
        content += "\n\nWorked examples:\n" + self.caption_examples
        reply = self.backend.complete(self.system_prompt, [{"role": "user", "content": content}])
        return reply.strip().splitlines()[0].strip() if reply.strip() else ""

    def retrieve_caption(self, summary: str) -> tuple[TableCaption, float]:
        """The best-scoring real caption for a hypothetical one, with its score."""
        (best,) = self.index.rank(summary, k=1)
        return self._by_text[best.caption], best.score

    def generate_sql(self, task: AgentTask, caption: TableCaption) -> str:
        content = build_task_message(
            "generate_sql",
            task.question,
            subtask=task.description,
            intents=", ".join(task.intents),
            slots="; ".join(f"{s.slot_type}={s.value}" for s in task.slots),
            caption=caption.caption,
            table=caption.table_id,
            columns=", ".join(caption.columns),
        )
        content += "\n\nWorked examples:\n" + self.sql_examples
        for attempt in range(2):
            reply = self.backend.complete(
                self.system_prompt, [{"role": "user", "content": content}]
            )
            try:
                return extract_sql(reply)
            except SqlExtractionError:
                content += (
                    "\n\nYour previous reply had no ```sql fenced block."
                    " Reply with exactly one statement inside ```sql ... ```."
                )
        raise SqlExtractionError("no ```sql fenced block after reprompt")

    # --- dispatch entry point ---------------------------------------------------

    def handle(self, task: AgentTask) -> AgentResult:
        injected = self.inject_gold_sql.get(task.question)
        caption_payload: dict[str, Any] | None = None
        if injected is not None:
            statement = injected
        else:
            try:
                summary = self.caption_summary(task)
                caption, score = self.retrieve_caption(summary)
                caption_payload = {
                    "type": "caption",
                    "summary": summary,
                    "caption": caption.caption,
                    "table_id": caption.table_id,
                    "score": score,
                }
                statement = self.generate_sql(task, caption)
            except (BackendError, SqlExtractionError) as exc:
                return AgentResult(status="error", error_report=str(exc))
        result = execute_and_package(self.store, statement)
        if caption_payload is not None:
            result.evidence.insert(0, caption_payload)
        return result
