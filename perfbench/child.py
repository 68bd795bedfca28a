"""Run estateqa CLI commands in this process and report what they took.

Usage: python3 perfbench/child.py SPEC.json

The spec names the checkout's ``src`` directory, the commands to run (each an
argument list for ``estateqa.cli.main``), whether to trace every layer, and
where to write the result. Each command's wall and CPU time is taken around
``cli.main``; a command that exits non-zero stops the sequence. When the
spec names an ``episodes`` check, the transcripts of the last ``run`` command
are compared with the gold answers after timing ends.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time
from pathlib import Path


def check_episodes(transcripts_path: str, dataset_path: str) -> dict[str, int]:
    """Strict exact match of every episode against gold; any failed tool call
    (a frozen-cache miss included) also fails the episode."""
    from estateqa.domain import CanonicalAnswer, answer_equal, read_instances

    gold = {instance.id: instance.answer for instance in read_instances(dataset_path)}
    seen = failed = cache_misses = 0
    with open(transcripts_path, encoding="utf-8") as fh:
        for line in fh:
            record = json.loads(line)
            seen += 1
            misses = sum(
                1
                for dispatch in record["dispatches"]
                for payload in dispatch["evidence"]
                if payload.get("type") == "tool_call" and not payload.get("ok")
            )
            cache_misses += misses
            answer = record["final_answer"]
            correct = (
                answer is not None
                and not record["failure"]
                and not misses
                and record["instance_id"] in gold
                and answer_equal(CanonicalAnswer.from_dict(answer), gold[record["instance_id"]])
            )
            failed += not correct
    missing = len(gold) - seen
    return {
        "episodes": len(gold),
        "failed": failed + max(0, missing),
        "cache_misses": cache_misses,
    }


def main(spec_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text(encoding="utf-8"))
    sys.path.insert(0, spec["src"])
    import tracer
    from estateqa import cli

    recorder = tracer.Recorder()
    tracer.install(recorder, full=spec["trace"])

    steps = []
    for name, argv in spec["commands"]:
        out = io.StringIO()
        cpu = time.process_time_ns()
        start = time.perf_counter_ns()
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
        end = time.perf_counter_ns()
        steps.append(
            {"name": name, "code": code, "start_ns": start, "end_ns": end,
             "cpu_ns": time.process_time_ns() - cpu, "stdout": out.getvalue()[-4000:]}
        )
        if code != 0:
            break
    result = {
        "steps": steps,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "episodes": tracer.episode_summary(recorder),
    }
    if spec["trace"]:
        result["layers"] = tracer.layer_metrics(recorder)
        if spec.get("spans"):
            recorder.dump_spans(spec["spans"])
    check = spec.get("check_episodes")
    if check and all(step["code"] == 0 for step in steps):
        result["check"] = check_episodes(check["transcripts"], check["dataset"])
    Path(spec["result"]).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
