"""Every layer that the benchmark's tracer (`perfbench/tracer.py`) wraps still
exists under the name it looks up, so a traced benchmark run can install its
spans, and the counters it reads from call arguments still count."""

from __future__ import annotations

import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

from estateqa.domain import write_instances

ROOT = Path(__file__).parents[1]
TRACER = ROOT / "perfbench" / "tracer.py"


def _tracer_targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.TARGETS


def test_every_tracer_target_exists():
    """Resolve each target as the tracer's `install` does: a `Class.method`
    must be defined on the class itself, since it reads `owner.__dict__`."""
    targets = _tracer_targets()
    assert targets
    missing = []
    for module_name, attribute, _ in targets:
        module = importlib.import_module(f"estateqa.{module_name}")
        if "." in attribute:
            class_name, method = attribute.split(".")
            owner = getattr(module, class_name, None)
            if owner is None or method not in owner.__dict__:
                missing.append(f"{module_name}.{attribute}")
        elif not callable(getattr(module, attribute, None)):
            missing.append(f"{module_name}.{attribute}")
    assert missing == []


# Installs the full tracer, generates a few instances and saves their cache,
# then prints the layer metrics. It then loads a cache, runs an oracle suite and
# one episode whose SQL replies lose their fence (a reprompt, then the replan
# that the step cap of 3 stops at), and prints the layer metrics again. The
# unfenced backend still calls the traced oracle, so each of its calls is a
# `backends.complete` span. It runs in a subprocess of its own, since
# `install` patches the estateqa modules for good.
_TRACED_SUITE = """
import importlib.util, json, sys
spec = importlib.util.spec_from_file_location("perfbench_tracer", sys.argv[1])
tracer = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracer)
recorder = tracer.Recorder()
tracer.install(recorder, full=True)

from estateqa import evaluator
from estateqa.domain import read_instances
from estateqa.generator import generate
from estateqa.store import GeoStore
from estateqa.templates import default_templates
from estateqa.tools import SyntheticProvider, ToolCache

store = GeoStore.open(sys.argv[2])
generated = ToolCache(provider=SyntheticProvider(store))
generate(default_templates(), store, generated, seed=5, per_template=2)
generated.save("generated_cache.jsonl")
print(json.dumps(tracer.layer_metrics(recorder)))

instances = list(read_instances(sys.argv[3]))
cache = ToolCache.load(sys.argv[4])
oracle = evaluator.make_oracle_backend(instances, store)

class Unfenced:
    def complete(self, system_prompt, messages):
        return oracle.complete(system_prompt, messages).replace("```", "")

for backend, config, pool in (
    (oracle, evaluator.RunConfig(), instances),
    (Unfenced(), evaluator.RunConfig(step_cap=3), instances[:1]),
):
    evaluator.run_suite(pool, store, cache, backend, config, default_templates())
store.close()
print(json.dumps(tracer.layer_metrics(recorder)))
"""


def test_the_full_tracer_counts_prompts_replies_replans_and_reprompts(
    tmp_path, desk_store, desk_cache, desk_instances
):
    """`_completed` reads `complete(system_prompt, messages)` by position,
    `_planned` reads `plan`'s `stage` keyword, and `db_agent.reprompts` counts
    the backend calls inside a `generate_sql` span. A change to how agents
    send would zero these counters without failing the target check above.
    So would a change to what `generate`, `ToolCache.save` and
    `ToolCache.load` return, which the generator and cache counters read."""
    pool = [i for qtype in (1, 2, 3) for i in desk_instances if i.question_type == qtype][::20]
    dataset, cache = tmp_path / "dataset.jsonl", tmp_path / "cache.jsonl"
    write_instances(str(dataset), pool)
    desk_cache.save(cache)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, "-c", _TRACED_SUITE, str(TRACER), str(desk_store.path),
         str(dataset), str(cache)],
        capture_output=True, text=True, env=env, cwd=tmp_path, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    *_, generated, metrics = (json.loads(line) for line in done.stdout.splitlines())
    for name in ("generator.attempts", "generator.accepted", "tools.cache_entries"):
        assert generated[name] > 0, name
    assert metrics["tools.cache_entries"] > 0 and metrics["bm25.rank.calls"] > 0
    assert metrics["trace.episodes"] == len(pool) + 1
    assert metrics["backends.prompt_chars"] > 0 and metrics["backends.reply_chars"] > 0
    assert metrics["supervisor.replans"] == 1
    assert metrics["db_agent.reprompts"] == 1
