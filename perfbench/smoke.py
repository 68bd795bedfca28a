"""Smoke test of the benchmark at a tiny scale; not part of the tier-1 suite.

Usage (from the root of a checkout): python3 perfbench/smoke.py

It checks four things. Every workload prints each of its end-to-end metrics
with its unit and sample count. The JSON line carries every metric that
``BENCHMARK.json`` lists, for both ``--trace 0`` and ``--trace 1``. The
episode gate counts a wrong final answer and a failed tool call (a frozen-cache
miss) in doctored transcripts. A frozen cache with one altered payload makes
the run report a correctness failure. Exit code 0 means all checks passed.
"""

from __future__ import annotations

import contextlib
import io
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

# Each workload's report metrics with their units, as the benchmark documents them.
COMMON = {"setup_s": "s", "peak_rss_mb": "MB", "failed_share": "ratio"}
REPORTED = {
    "build-M": {**COMMON, "build_s": "s", "pairs_s": "s", "generate_s": "s", "validate_s": "s"},
    "episodes-local": {
        **COMMON, "run_s": "s", "episodes_per_s": "1/s", "episode_p50_ms": "ms",
        "episode_p99_ms": "ms", "backend_calls_per_episode": "count",
    },
}
REPORTED["episodes-remote"] = REPORTED["episodes-local"]


def bench(*args: str) -> tuple[int, str]:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--scale", "tiny", "--seconds", "1", *args],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    return proc.returncode, proc.stdout


def check_report(stdout: str, spec: dict, trace: bool) -> list[str]:
    problems = []
    sections = re.split(r"^== (\S+)$", stdout, flags=re.M)
    reports = dict(zip(sections[1::2], sections[2::2]))
    result = json.loads(stdout.strip().splitlines()[-1])
    if not result["correct"]:
        problems.append("a clean tiny run reported a correctness failure")
    listed = spec["per_layer"] if trace else spec["end_to_end"]
    for workload in REPORTED:
        if workload not in reports:
            problems.append(f"{workload}: no report section")
            continue
        if not trace:
            for metric, unit in REPORTED[workload].items():
                if not re.search(rf"^  {re.escape(metric)} +\S+ {re.escape(unit)} +\(n=\d+\)$",
                                 reports[workload], flags=re.M):
                    problems.append(f"{workload}: {metric} [{unit}] with its n is not printed")
        for metric in listed:
            entry = result["metrics"].get(f"{workload}/{metric['name']}")
            if entry is None or entry["unit"] != metric["unit"]:
                problems.append(f"{workload}: JSON lacks {metric['name']} [{metric['unit']}]")
    return problems


def doctor_transcripts(path: Path) -> None:
    """Give one episode a wrong final answer and mark a tool call of another
    episode as failed, as a frozen-cache miss would."""
    records = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]
    missed = next(
        r for r in records
        if any(e.get("type") == "tool_call" for d in r["dispatches"] for e in d["evidence"])
    )
    next(e for d in missed["dispatches"] for e in d["evidence"] if e.get("type") == "tool_call")["ok"] = False
    wrong = next(r for r in records if r is not missed and r["final_answer"] is not None)
    answer = wrong["final_answer"]
    if answer["kind"] == "boolean":
        answer["flag"] = not answer["flag"]
    else:
        wrong["final_answer"] = {"kind": "boolean", "flag": True}
    path.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")


def check_episode_gate(pool: Path) -> list[str]:
    """Run the pool's episodes once, then check that ``child.check_episodes``
    passes the clean transcripts and fails the doctored ones."""
    import child
    from estateqa import cli

    work = ROOT / ".perfbench" / "smoke"
    shutil.rmtree(work, ignore_errors=True)
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main([
                "run", "--store", str(pool / "store.db"), "--cache", str(pool / "cache.jsonl"),
                "--dataset", str(pool / "dataset.jsonl"), "--out", str(work), "--overwrite",
                "--backend", "oracle", "--agents", "live", "--slu", "lexicon",
            ])
        if code != 0:
            return [f"`estateqa run` on the tiny pool exited {code}"]
        transcripts = work / "transcripts.jsonl"
        clean = child.check_episodes(str(transcripts), str(pool / "dataset.jsonl"))
        doctor_transcripts(transcripts)
        doctored = child.check_episodes(str(transcripts), str(pool / "dataset.jsonl"))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    problems = []
    if clean["failed"] or clean["cache_misses"]:
        problems.append(f"the episode gate failed clean transcripts: {clean}")
    if doctored["failed"] != 2 or doctored["cache_misses"] != 1:
        problems.append(f"the episode gate missed a doctored answer or tool call: {doctored}")
    return problems


def alter_one_payload(pool: Path) -> None:
    """Change one cell of a cache entry that a dataset instance replays."""
    used = None
    with open(pool / "dataset.jsonl", encoding="utf-8") as fh:
        for line in fh:
            trace = json.loads(line)["tool_trace"]
            if trace:
                step = trace[0]
                params = {k: v for k, v in step["params"].items() if k != "time_bucket"}
                used = (step["function"], params, step["params"]["time_bucket"])
                break
    if used is None:
        raise AssertionError("the tiny pool has no instance with a tool call")
    lines = (pool / "cache.jsonl").read_text(encoding="utf-8").splitlines()
    for i, line in enumerate(lines):
        entry = json.loads(line)
        if (entry["function"], entry["params"], entry["bucket"]) == used:
            row = entry["payload"]["rows"][0]
            row[-1] = row[-1] + 1 if isinstance(row[-1], (int, float)) else f"{row[-1]}x"
            lines[i] = json.dumps(entry, sort_keys=True, ensure_ascii=True, separators=(",", ":"))
            break
    else:
        raise AssertionError("no cache entry matches the instance's tool call")
    (pool / "cache.jsonl").write_text("\n".join(lines) + "\n", encoding="utf-8")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems = []
    for trace in (False, True):
        code, stdout = bench("--workload", "all", "--trace", str(int(trace)))
        if code != 0:
            problems.append(f"tiny run with --trace {int(trace)} exited {code}")
        problems += check_report(stdout, spec, trace)

    sys.path[:0] = [str(ROOT / "src"), str(BENCH)]
    import run

    pool = run.ensure_pools("tiny", [])["episodes-local"]
    problems += check_episode_gate(pool)
    try:
        alter_one_payload(pool)
        code, stdout = bench("--workload", "episodes-local")
        result = json.loads(stdout.strip().splitlines()[-1])
        if code == 0 or result["correct"] or "CORRECTNESS FAILURE" not in stdout:
            problems.append("an altered cache payload did not fail the run")
    finally:
        shutil.rmtree(pool)  # the next tiny run rebuilds it unaltered

    for problem in problems:
        print(f"FAIL {problem}")
    print("smoke: " + ("FAILED" if problems else "OK"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
