"""Spans around the public calls of each estateqa module, recorded from outside.

The benchmark installs a :class:`Recorder` in the process that runs an
estateqa command. Wrapping replaces a public function in every estateqa
module that imported it and a public method on its class, so nothing under
``src/`` changes. A span holds its name, start, end, parent span and episode
id; spans stay in memory and are written when the process ends.

Two levels exist. ``install(recorder, full=False)`` wraps only the episode
boundaries (SLU predict, ``Supervisor.run_episode``) and the backends'
``complete``, which is what the untraced end-to-end metrics need: episode
latency and backend calls. ``full=True`` wraps every layer listed in
``TARGETS``.

Known limit: the wait for ``GeoStore``'s internal lock happens inside
``execute_sql``, so it is counted as that call's self time. Separating it
needs spans inside the program.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import statistics
import sys
import threading
import time
from collections import defaultdict
from typing import Any, Callable

# (module, attribute, span name). Methods are "Class.method".
EPISODE_TARGETS = (
    ("slu", "LexiconSlu.predict", "slu.predict"),
    ("slu", "FewShotSlu.predict", "slu.predict"),
    ("supervisor", "Supervisor.run_episode", "supervisor.run_episode"),
    ("backends", "OracleBackend.complete", "backends.complete"),
    ("backends", "HttpBackend.complete", "backends.complete"),
)

TARGETS = EPISODE_TARGETS + (
    ("fixtures", "write_fixture", "fixtures.write_fixture"),
    ("store", "GeoStore.open", "store.open"),
    ("store", "GeoStore.ingest_fixture", "store.ingest_fixture"),
    ("store", "GeoStore.build_proximity_pairs", "store.build_proximity_pairs"),
    ("store", "GeoStore.execute_sql", "store.execute_sql"),
    ("store", "GeoStore.communities", "store.communities"),
    ("store", "GeoStore.pois", "store.pois"),
    ("store", "GeoStore.all_pois", "store.all_pois"),
    ("store", "GeoStore.districts", "store.districts"),
    ("tools", "SyntheticProvider.resolve", "tools.provider.resolve"),
    ("tools", "ToolCache.execute", "tools.execute"),
    ("tools", "ToolCache.save", "tools.save"),
    ("tools", "ToolCache.load", "tools.load"),
    ("generator", "generate", "generator.generate"),
    ("generator", "sample_bindings", "generator.sample_bindings"),
    ("generator", "instantiate", "generator.instantiate"),
    ("generator", "revalidate_instance", "generator.revalidate"),
    ("generator", "stratified_split", "generator.stratified_split"),
    ("slu", "Gazetteer.from_store", "slu.gazetteer_build"),
    ("bm25", "Bm25Index.rank", "bm25.rank"),
    ("supervisor", "Supervisor.plan", "supervisor.plan"),
    ("supervisor", "Supervisor.finalize", "supervisor.finalize"),
    ("db_agent", "DbAgent.handle", "db_agent.handle"),
    ("db_agent", "DbAgent.caption_summary", "db_agent.caption_summary"),
    ("db_agent", "DbAgent.generate_sql", "db_agent.generate_sql"),
    ("map_agent", "MapAgent.handle", "map_agent.handle"),
    ("map_agent", "MapAgent.decide_tools", "map_agent.decide_tools"),
    ("map_agent", "MapAgent.invoke_and_synthesize", "map_agent.invoke"),
    ("evaluator", "run_suite", "evaluator.run_suite"),
    ("evaluator", "aggregate", "evaluator.aggregate"),
    ("domain", "write_instances", "domain.write_instances"),
    ("domain", "read_instances", "domain.read_instances"),
)

ENTITY_READS = ("store.communities", "store.pois", "store.all_pois", "store.districts")

# Span fields, in tuple order.
ID, PARENT, EPISODE, NAME, START, END, ERROR = range(7)


class Recorder:
    """Collects spans, per-episode intervals and counters for one process."""

    def __init__(self) -> None:
        self.spans: list[tuple[int, int, int, str, int, int, str]] = []
        self.episodes: list[tuple[int, int, int]] = []  # (episode id, start ns, end ns)
        self.counters: dict[str, float] = defaultdict(float)
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    def add(self, name: str, amount: float) -> None:
        with self._lock:
            self.counters[name] += amount

    def wrap(
        self,
        fn: Callable[..., Any],
        name: str,
        on_result: Callable[["Recorder", tuple, dict, Any], None] | None = None,
    ) -> Callable[..., Any]:
        if inspect.isgeneratorfunction(fn):
            return self._wrap_generator(fn, name)
        opens_episode = name in ("slu.predict", "supervisor.run_episode")
        closes_episode = name == "supervisor.run_episode"

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            local = self._local
            stack = local.__dict__.setdefault("stack", [])
            span_id = next(self._ids)
            start = time.perf_counter_ns()
            if opens_episode and not getattr(local, "episode", 0):
                local.episode = span_id
                local.episode_start = start
                local.episode_depth = len(stack)
            parent = stack[-1] if stack else 0
            stack.append(span_id)
            error = ""
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                error = type(exc).__name__
                raise
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                episode = getattr(local, "episode", 0)
                self.spans.append((span_id, parent, episode, name, start, end, error))
                if closes_episode and len(stack) == local.episode_depth:
                    self.episodes.append((episode, local.episode_start, end))
                    local.episode = 0
            if on_result is not None:
                on_result(self, args, kwargs, result)
            return result

        return wrapper

    def _wrap_generator(self, fn: Callable[..., Any], name: str) -> Callable[..., Any]:
        """A generator's work happens in its consumer's loop, interleaved with
        other calls, so it is counted as busy time rather than as a span."""

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            inner = fn(*args, **kwargs)
            busy = 0
            try:
                while True:
                    start = time.perf_counter_ns()
                    try:
                        item = next(inner)
                    except StopIteration:
                        break
                    finally:
                        busy += time.perf_counter_ns() - start
                    yield item
            finally:
                inner.close()
                self.add(name + ".busy_ns", busy)

        return wrapper

    def dump_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(
                    ("id", "parent", "episode", "name", "start_ns", "end_ns", "error"), span
                ))) + "\n")


# --- counters taken from return values ----------------------------------------------


def _rows_returned(rec: Recorder, args: tuple, kwargs: dict, result: Any) -> None:
    rec.add("store.rows_returned", len(result[1]))


def _pair_rows(rec: Recorder, args: tuple, kwargs: dict, result: Any) -> None:
    rec.add("store.pair_rows", sum(result.values()))


def _generated(rec: Recorder, args: tuple, kwargs: dict, result: Any) -> None:
    report = result[1]
    rec.add("generator.attempts", report.attempted)
    rec.add("generator.accepted", report.accepted)


def _cache_saved(rec: Recorder, args: tuple, kwargs: dict, result: Any) -> None:
    rec.counters["tools.cache_entries"] = result


def _cache_loaded(rec: Recorder, args: tuple, kwargs: dict, result: Any) -> None:
    rec.counters["tools.cache_entries"] = len(result)


def _gazetteer(rec: Recorder, args: tuple, kwargs: dict, result: Any) -> None:
    rec.counters["slu.gazetteer_entries"] = len(result.entries)


def _episode_steps(rec: Recorder, args: tuple, kwargs: dict, result: Any) -> None:
    rec.add("supervisor.steps", result.step_count)


def _planned(rec: Recorder, args: tuple, kwargs: dict, result: Any) -> None:
    if kwargs.get("stage", args[5] if len(args) > 5 else "plan") == "replan":
        rec.add("supervisor.replans", 1)


def _completed(rec: Recorder, args: tuple, kwargs: dict, result: Any) -> None:
    system_prompt, messages = args[1], args[2]
    rec.add(
        "backends.prompt_chars",
        len(system_prompt) + sum(len(m.get("content", "")) for m in messages),
    )
    rec.add("backends.reply_chars", len(result))


ON_RESULT = {
    "store.execute_sql": _rows_returned,
    "store.build_proximity_pairs": _pair_rows,
    "generator.generate": _generated,
    "tools.save": _cache_saved,
    "tools.load": _cache_loaded,
    "slu.gazetteer_build": _gazetteer,
    "supervisor.run_episode": _episode_steps,
    "supervisor.plan": _planned,
    "backends.complete": _completed,
}


def install(recorder: Recorder, full: bool) -> None:
    """Wrap the targets in every loaded ``estateqa`` module."""
    importlib.import_module("estateqa.cli")
    for module_name, attribute, name in TARGETS if full else EPISODE_TARGETS:
        module = importlib.import_module(f"estateqa.{module_name}")
        on_result = ON_RESULT.get(name) if full else None
        if "." in attribute:
            class_name, method = attribute.split(".")
            owner = getattr(module, class_name)
            raw = owner.__dict__[method]
            if isinstance(raw, classmethod):
                setattr(owner, method, classmethod(recorder.wrap(raw.__func__, name, on_result)))
            else:
                setattr(owner, method, recorder.wrap(raw, name, on_result))
            continue
        original = getattr(module, attribute)
        wrapped = recorder.wrap(original, name, on_result)
        for loaded_name, loaded in list(sys.modules.items()):
            if loaded_name.startswith("estateqa") and loaded is not None:
                if loaded.__dict__.get(attribute) is original:
                    setattr(loaded, attribute, wrapped)


# --- summaries -----------------------------------------------------------------------


def episode_summary(recorder: Recorder) -> dict[str, Any]:
    """Episode latencies and backend calls, from the boundary spans."""
    latencies = [(end - start) / 1e6 for _, start, end in recorder.episodes]
    calls = sum(1 for span in recorder.spans if span[NAME] == "backends.complete")
    summary: dict[str, Any] = {"latencies_ms": latencies, "backend_calls": calls}
    if recorder.episodes:
        summary["first_start_ns"] = min(start for _, start, _ in recorder.episodes)
        summary["last_end_ns"] = max(end for _, _, end in recorder.episodes)
    return summary


def _ms(ns: float) -> float:
    return ns / 1e6


def layer_metrics(recorder: Recorder) -> dict[str, float]:
    """Per-layer counts and times; self time is duration minus child coverage."""
    spans = recorder.spans
    names = {span[ID]: span[NAME] for span in spans}
    covered: dict[int, int] = defaultdict(int)
    children: dict[int, list[str]] = defaultdict(list)
    for span in spans:
        covered[span[PARENT]] += span[END] - span[START]
        children[span[PARENT]].append(span[NAME])
    calls: dict[str, int] = defaultdict(int)
    total: dict[str, int] = defaultdict(int)
    own: dict[str, int] = defaultdict(int)
    durations: dict[str, list[int]] = defaultdict(list)
    for span in spans:
        duration = span[END] - span[START]
        calls[span[NAME]] += 1
        total[span[NAME]] += duration
        own[span[NAME]] += duration - covered[span[ID]]
        durations[span[NAME]].append(duration)

    def p50_us(name: str) -> float:
        return statistics.median(durations[name]) / 1e3 if durations[name] else 0.0

    entity = [
        span for span in spans
        if span[NAME] in ENTITY_READS and names.get(span[PARENT]) not in ENTITY_READS
    ]
    executes = [span for span in spans if span[NAME] == "tools.execute"]
    hits = sum(
        1 for span in executes
        if not span[ERROR] and "tools.provider.resolve" not in children[span[ID]]
    )
    generate_sql = [span for span in spans if span[NAME] == "db_agent.generate_sql"]
    reprompts = sum(
        max(0, children[span[ID]].count("backends.complete") - 1) for span in generate_sql
    )
    counters = recorder.counters
    episodes = len(recorder.episodes)
    latencies = sum(end - start for _, start, end in recorder.episodes)
    phase = (
        max(end for _, _, end in recorder.episodes) - min(s for _, s, _ in recorder.episodes)
        if episodes else 0
    )
    attempts = counters["generator.attempts"]
    episode_ns = sum(total[n] for n in ("supervisor.run_episode", "slu.predict"))
    episode_sql_ns = sum(
        s[END] - s[START] for s in spans if s[NAME] == "store.execute_sql" and s[EPISODE]
    )
    generate_ns = total["generator.generate"]
    return {
        "fixtures.write_s": total["fixtures.write_fixture"] / 1e9,
        "store.ingest_s": total["store.ingest_fixture"] / 1e9,
        "store.build_proximity_pairs_s": total["store.build_proximity_pairs"] / 1e9,
        "store.pair_rows": counters["store.pair_rows"],
        "store.execute_sql.calls": calls["store.execute_sql"],
        "store.execute_sql.self_ms": _ms(own["store.execute_sql"]),
        "store.execute_sql.p50_us": p50_us("store.execute_sql"),
        "store.rows_returned": counters["store.rows_returned"],
        "store.entity_reads": len(entity),
        "store.entity_reads_ms": _ms(sum(s[END] - s[START] for s in entity)),
        "generator.attempts": attempts,
        "generator.accepted": counters["generator.accepted"],
        "generator.accept_ratio": counters["generator.accepted"] / attempts if attempts else 0.0,
        "generator.sample_bindings.self_ms": _ms(own["generator.sample_bindings"]),
        "generator.instantiate.self_ms": _ms(own["generator.instantiate"]),
        "generator.revalidate.self_ms": _ms(own["generator.revalidate"]),
        "tools.provider.resolve.calls": calls["tools.provider.resolve"],
        "tools.provider.resolve.self_ms": _ms(own["tools.provider.resolve"]),
        "tools.execute.calls": len(executes),
        "tools.execute.hit_ratio": hits / len(executes) if executes else 0.0,
        "tools.cache_entries": counters["tools.cache_entries"],
        "tools.cache_save_ms": _ms(total["tools.save"]),
        "tools.cache_load_ms": _ms(total["tools.load"]),
        "domain.write_instances_ms": _ms(total["domain.write_instances"]),
        "domain.read_instances_ms": _ms(counters["domain.read_instances.busy_ns"]),
        "slu.gazetteer_build_ms": _ms(total["slu.gazetteer_build"]),
        "slu.gazetteer_entries": counters["slu.gazetteer_entries"],
        "slu.predict.self_ms": _ms(own["slu.predict"]),
        "slu.predict.p50_us": p50_us("slu.predict"),
        "bm25.rank.calls": calls["bm25.rank"],
        "bm25.rank.self_ms": _ms(own["bm25.rank"]),
        "backends.complete.calls": calls["backends.complete"] / episodes if episodes else 0.0,
        "backends.prompt_chars": counters["backends.prompt_chars"] / episodes if episodes else 0.0,
        "backends.reply_chars": counters["backends.reply_chars"] / episodes if episodes else 0.0,
        "backends.complete.self_ms": _ms(own["backends.complete"]),
        "backends.complete.total_ms": _ms(total["backends.complete"]),
        "supervisor.run_episode.self_ms": _ms(own["supervisor.run_episode"]),
        "supervisor.plan.self_ms": _ms(own["supervisor.plan"]),
        "supervisor.finalize.self_ms": _ms(own["supervisor.finalize"]),
        "supervisor.steps_per_episode": counters["supervisor.steps"] / episodes if episodes else 0.0,
        "supervisor.replans": counters["supervisor.replans"],
        "db_agent.reprompts": reprompts,
        "db_agent.handle.self_ms": _ms(own["db_agent.handle"]),
        "db_agent.caption_summary.self_ms": _ms(own["db_agent.caption_summary"]),
        "db_agent.generate_sql.self_ms": _ms(own["db_agent.generate_sql"]),
        "map_agent.handle.self_ms": _ms(own["map_agent.handle"]),
        "map_agent.decide_tools.self_ms": _ms(own["map_agent.decide_tools"]),
        "map_agent.invoke.self_ms": _ms(own["map_agent.invoke"]),
        "evaluator.aggregate_ms": _ms(total["evaluator.aggregate"]),
        "evaluator.concurrency": latencies / phase if phase else 0.0,
        # wiring checks: where generate and episode time goes
        "trace.generate_bindings_share": (
            total["generator.sample_bindings"] / generate_ns if generate_ns else 0.0
        ),
        "trace.episode_sql_slu_share": (
            (episode_sql_ns + total["slu.predict"]) / episode_ns
            if episode_ns else 0.0
        ),
        "trace.spans": len(spans),
        "trace.episodes": episodes,
    }
