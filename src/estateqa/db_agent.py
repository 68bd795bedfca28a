"""Database interaction specialist: hypothetical-caption retrieval over BM25,
few-shot SQL generation, and read-only execution.

The caption stage asks for a one-line description of the ideal table
("hypothetical caption"), ranks the real caption catalog against it with BM25,
and hands the winning schema to the SQL stage. Generated SQL must arrive
inside a fenced ```sql block: :func:`extract_sql` returns the statement or
None, and a reply without one gets one reprompt before the dispatch fails.
Both stages ask through the dispatch's ``send``; the agent holds no backend.
"""

from __future__ import annotations

import re
from functools import partial
from typing import Any

from .backends import BackendError, build_task_message, reprompt_once
from .bm25 import Bm25Index
from .prompts import load_prompt
from .store import GeoStore, SqlExecutionError, TableCaption
from .supervisor import AgentTask, Exchange, Send

_SQL_FENCE_RE = re.compile(r"```sql\s+(.*?)```", re.DOTALL | re.IGNORECASE)
_SQL_NUDGE = (
    "\n\nYour previous reply had no ```sql fenced block."
    " Reply with exactly one statement inside ```sql ... ```."
)


def extract_sql(reply: str) -> str | None:
    """The single statement of the mandated ```sql fenced envelope, or None
    when the reply has no such block or only an empty one."""
    match = _SQL_FENCE_RE.search(reply)
    statement = match.group(1).strip().rstrip(";") if match else ""
    return statement or None


def execute_and_package(store: GeoStore, statement: str) -> Exchange:
    """Run a candidate statement and fold the outcome into an Exchange.

    Success carries the SQL payload with its columns and rows; failure
    carries the engine message so the supervisor can replan.
    The SQL payload itself is always recorded (executable-ratio accounting
    needs failed candidates too).
    """
    sql_payload: dict[str, Any] = {"type": "sql", "statement": statement}
    try:
        columns, rows = store.execute_sql(statement)
    except SqlExecutionError as exc:
        sql_payload.update(ok=False, error=str(exc))
        return Exchange(status="error", evidence=[sql_payload], error_report=str(exc))
    sql_payload.update(ok=True, columns=list(columns), rows=[list(r) for r in rows])
    return Exchange(status="success", evidence=[sql_payload])


class DbAgent:
    def __init__(self, store: GeoStore) -> None:
        self.store = store
        self.system_prompt = load_prompt("db_agent_system")
        self.caption_examples = load_prompt("db_fewshot_caption")
        self.sql_examples = load_prompt("db_fewshot_sql")
        self.captions = store.list_captions()
        self.index = Bm25Index([c.caption for c in self.captions])

    # --- pipeline stages -----------------------------------------------------

    def _prompt(self, stage: str, task: AgentTask, examples: str, **fields: str) -> str:
        content = build_task_message(
            stage,
            task.question,
            subtask=task.description,
            intents=", ".join(task.intents),
            slots="; ".join(f"{s.slot_type}={s.value}" for s in task.slots),
            **fields,
        )
        return content + "\n\nWorked examples:\n" + examples

    def caption_summary(self, task: AgentTask, send: Send) -> str:
        content = self._prompt("caption_summary", task, self.caption_examples)
        reply = send("caption_summary", self.system_prompt, content)
        return reply.strip().splitlines()[0].strip() if reply.strip() else ""

    def retrieve_caption(self, summary: str) -> tuple[TableCaption, float]:
        """The best-scoring real caption for a hypothetical one, with its score."""
        best, score = self.index.rank(summary)
        return self.captions[best], score

    def generate_sql(self, task: AgentTask, caption: TableCaption, send: Send) -> str | None:
        content = self._prompt(
            "generate_sql",
            task,
            self.sql_examples,
            caption=caption.caption,
            table=caption.table_id,
            columns=", ".join(caption.columns),
        )
        send_stage = partial(send, "generate_sql", self.system_prompt)
        return reprompt_once(send_stage, content, extract_sql, _SQL_NUDGE)

    # --- dispatch entry point ---------------------------------------------------

    def handle(self, task: AgentTask, send: Send) -> Exchange:
        try:
            summary = self.caption_summary(task, send)
            caption, score = self.retrieve_caption(summary)
            statement = self.generate_sql(task, caption, send)
        except BackendError as exc:
            return Exchange(status="error", error_report=str(exc))
        if statement is None:
            return Exchange(
                status="error", error_report="no ```sql fenced block after reprompt"
            )
        result = execute_and_package(self.store, statement)
        result.evidence.insert(
            0,
            {
                "type": "caption",
                "summary": summary,
                "caption": caption.caption,
                "table_id": caption.table_id,
                "score": score,
            },
        )
        return result
