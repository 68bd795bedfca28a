"""The estateqa benchmark: three workloads, their metrics and correctness gates.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload build-M|episodes-local|episodes-remote|all
        [--seed N] [--seconds S] [--trace 0|1] [--scale default|tiny]

Every estateqa command runs in a child process (``perfbench/child.py``) that
imports the checkout's ``src`` and calls ``estateqa.cli.main``. The child
times each command and measures its own peak RSS. With ``--trace 0`` the
child wraps only the episode boundaries and the backends' ``complete``
(episode latency, backend calls). With ``--trace 1`` each run also repeats
the work with every layer wrapped (``perfbench/tracer.py``). It then prints
per-layer metrics and the tracing overhead, which is traced minus untraced
wall time.

Inputs come from ``--seed`` and are made by the checkout's own code outside
the timed region. build-M makes everything from the seed on every run. The
episode workloads read a pool of store, frozen cache and dataset. The pool is
built once per checkout from fixed seeds under ``.perfbench/pools`` and is
keyed by a digest of ``src/estateqa``; the pools of the previous source
version are kept too, so two versions can be benchmarked in turn. The seed
picks the episodes and their order. Temporary stores live under
``.perfbench/runs`` and are removed at exit.

The report lists every metric with its unit and sample count, the sha256 of
the dataset, cache and split files, and an environment record. The last
stdout line is one JSON object, ``{"correct", "attempted", "failed",
"metrics"}``. The exit code is 0 when every correctness gate passes, 1 when
one fails and 2 when the checkout cannot be benchmarked at all.
"""

from __future__ import annotations

import argparse
import hashlib
import http.client
import json
import os
import platform
import random
import re
import shutil
import signal
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager, nullcontext
from pathlib import Path
from typing import Any, Iterator

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

WORKLOADS = ("build-M", "episodes-local", "episodes-remote")
CITIES = "Guangzhou,Suzhou"
DEFAULT_SEED = 1
POOL_FIXTURE_SEED = 7  # the README's seeds
POOL_GENERATE_SEED = 11
POOL_FORMAT = 1  # bump when the pool recipe changes
BUILD_STAGES = ("ingest", "pairs", "generate", "validate", "split")
MIN_REPS = 3  # episode workloads run `estateqa run` at least this often
SETUP_REPS = 9  # build-M runs `fixture` this often, back to back, before ingest
DEADLINE_S = 170.0  # a run must end within 180 s ...
POOL_TIMEOUT_S = 700.0  # ... except the first in a checkout, which builds the pools

SCALES: dict[str, dict[str, dict[str, Any]]] = {
    "default": {
        "build-M": {"communities": 1500, "pois": 1200, "per_template": 30},
        "episodes-local": {
            "communities": 1500, "pois": 1200, "per_template": 60,
            "episodes": None, "parallelism": 1, "backend": "oracle",
        },
        "episodes-remote": {
            "communities": 220, "pois": 160, "per_template": 60,
            "episodes": 250, "parallelism": 2, "backend": "http",
        },
    },
    "tiny": {
        "build-M": {"communities": 60, "pois": 50, "per_template": 5},
        "episodes-local": {
            "communities": 60, "pois": 50, "per_template": 5,
            "episodes": None, "parallelism": 1, "backend": "oracle",
        },
        "episodes-remote": {
            "communities": 60, "pois": 50, "per_template": 5,
            "episodes": 40, "parallelism": 2, "backend": "http",
        },
    },
}

# The end-to-end metrics the JSON line carries on every workload.
CONTRACT = {"setup_s": "s", "peak_rss_mb": "MB", "wall_s": "s", "items_per_s": "1/s"}
STARTED = time.monotonic()  # reset when each workload starts


class BenchError(RuntimeError):
    """The program under test failed; the run reports a correctness failure."""


# --- helpers -----------------------------------------------------------------------------


def sha256_file(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def source_digest() -> str:
    digest = hashlib.sha256()
    package = SRC / "estateqa"
    for path in sorted(package.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(package)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def git_rev() -> str:
    try:
        top = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"],
            cwd=ROOT, capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return "unknown (not a git checkout)"
    return lines[1]


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    # the stand-in model listens on loopback; never route it through a proxy
    env["no_proxy"] = env["NO_PROXY"] = "127.0.0.1,localhost"
    return env


def remaining() -> float:
    return DEADLINE_S - (time.monotonic() - STARTED)


def run_child(
    run_dir: Path,
    tag: str,
    commands: list[tuple[str, list[str]]],
    spans: Path | None = None,
    check_episodes: dict[str, str] | None = None,
    timeout: float | None = None,
) -> dict[str, Any]:
    """Run CLI commands in one child process; raise BenchError if one fails.

    With a ``spans`` path the child traces every layer and writes its spans
    there."""
    spec = {
        "src": str(SRC),
        "commands": commands,
        "trace": spans is not None,
        "check_episodes": check_episodes,
        "result": str(run_dir / f"{tag}.result.json"),
        "spans": str(spans) if spans else None,
    }
    spec_path = run_dir / f"{tag}.spec.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    log_path = run_dir / f"{tag}.log"
    with open(log_path, "w", encoding="utf-8") as log:
        try:
            proc = subprocess.run(
                [sys.executable, str(BENCH / "child.py"), str(spec_path)],
                cwd=ROOT, env=child_env(), stdout=log, stderr=subprocess.STDOUT,
                timeout=timeout or max(1.0, remaining()),
            )
        except subprocess.TimeoutExpired:
            raise BenchError(f"{tag}: did not finish within the run's deadline") from None
    tail = log_path.read_text(encoding="utf-8", errors="replace")[-2000:]
    if proc.returncode != 0:
        raise BenchError(f"{tag}: child exited {proc.returncode}\n{tail}")
    result = json.loads(Path(spec["result"]).read_text(encoding="utf-8"))
    for step in result["steps"]:
        if step["code"] != 0:
            raise BenchError(
                f"{tag}: `estateqa {step['name']}` exited {step['code']}\n"
                f"{step['stdout']}{tail}"
            )
    return result


def spans_path(workload: str, seed: int) -> Path:
    """Spans of a traced run are kept here for inspection, one file per
    workload and seed."""
    (WORK / "spans").mkdir(parents=True, exist_ok=True)
    return WORK / "spans" / f"{workload}-seed{seed}.jsonl"


def wall_s(step: dict[str, Any]) -> float:
    return (step["end_ns"] - step["start_ns"]) / 1e9


def steps_by_name(result: dict[str, Any]) -> dict[str, dict[str, Any]]:
    return {step["name"]: step for step in result["steps"]}


def parse(pattern: str, text: str) -> tuple[int, ...]:
    match = re.search(pattern, text)
    if not match:
        raise BenchError(f"unexpected command output: {text[-300:]!r}")
    return tuple(int(g) for g in match.groups())


def validate_counts(step: dict[str, Any]) -> tuple[int, int]:
    """(instances, mismatches) from `estateqa validate` output."""
    text = step["stdout"]
    if "validation OK" in text:
        (instances,) = parse(r"validation OK: (\d+) instances", text)
        return instances, 0
    mismatches, instances = parse(r"(\d+) mismatches over (\d+) instances", text)
    return instances, mismatches


def percentile(values: list[float], share: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * share // 1))
    return ordered[int(rank) - 1]


def cli_fixture(out: Path, cfg: dict[str, Any], seed: int) -> list[str]:
    return ["fixture", "--out", str(out), "--cities", CITIES,
            "--communities", str(cfg["communities"]), "--pois", str(cfg["pois"]),
            "--seed", str(seed)]


def cli_build(d: Path, cfg: dict[str, Any], seed: int, gen_seed: int) -> list[tuple[str, list[str]]]:
    """The dataset-authoring commands after fixture synthesis, as users run them."""
    store, cache, dataset = str(d / "store.db"), str(d / "cache.jsonl"), str(d / "dataset.jsonl")
    return [
        ("ingest", ["ingest", "--fixtures", str(d / "fx"), "--store", store,
                    "--cities", CITIES, "--seed", str(seed), "--overwrite"]),
        ("pairs", ["pairs", "--store", store]),
        ("generate", ["generate", "--store", store, "--out", dataset, "--cache", cache,
                      "--seed", str(gen_seed), "--per-template", str(cfg["per_template"]),
                      "--report", str(d / "generate.json")]),
        ("validate", ["validate", "--store", store, "--cache", cache, "--dataset", dataset]),
    ]


# --- pools for the episode workloads --------------------------------------------------------


def ensure_pools(scale: str, report: list[str]) -> dict[str, Path]:
    """Build (once per checkout and source version) the store, frozen cache and
    dataset every episode workload of this scale reads. All missing pools are
    built together, so only the first run in a checkout pays for them."""
    source = source_digest()
    pools: dict[str, Path] = {}
    missing = []
    for workload in WORKLOADS[1:]:
        cfg = SCALES[scale][workload]
        recipe = {k: cfg[k] for k in ("communities", "pois", "per_template")}
        key = hashlib.sha256(
            json.dumps([POOL_FORMAT, source, scale, recipe]).encode()
        ).hexdigest()[:16]
        pools[workload] = WORK / "pools" / f"{scale}-{workload}-{key}"
        if not (pools[workload] / "dataset.jsonl").is_file():
            missing.append(workload)
    for workload in missing:
        final = pools[workload]
        # keep the newest pool of another source version; remove older ones and
        # the leftovers of interrupted builds
        found = sorted(final.parent.glob(f"{scale}-{workload}-*"), key=lambda p: p.stat().st_mtime)
        kept = [p for p in found if not p.name.endswith(".tmp")][-1:]
        for stale in found:
            if stale not in kept:
                shutil.rmtree(stale)
        tmp = final.with_name(final.name + ".tmp")
        tmp.mkdir(parents=True)
        cfg = SCALES[scale][workload]
        started = time.monotonic()
        commands = [("fixture", cli_fixture(tmp / "fx", cfg, POOL_FIXTURE_SEED))]
        commands += cli_build(tmp, cfg, POOL_FIXTURE_SEED, POOL_GENERATE_SEED)[:3]
        run_child(tmp, "pool", commands, timeout=POOL_TIMEOUT_S)
        shutil.rmtree(tmp / "fx")
        tmp.rename(final)
        report.append(f"built {workload} pool in {time.monotonic() - started:.1f} s: {final.name}")
    return pools


# --- workloads ---------------------------------------------------------------------------


class Outcome:
    """What one workload run measured and checked."""

    def __init__(self) -> None:
        self.metrics: dict[str, tuple[float, str, int]] = {}  # name -> (value, unit, n)
        self.layers: dict[str, float] = {}
        self.digests: dict[str, str] = {}
        self.problems: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []

    def put(self, name: str, values: list[float], unit: str, how: str = "median") -> None:
        value = max(values) if how == "max" else statistics.median(values)
        self.metrics[name] = (value, unit, len(values))


def build_workload(cfg: dict, seed: int, seconds: float, trace: bool, run_dir: Path) -> Outcome:
    """fixture (set-up) -> ingest -> pairs -> generate -> validate -> split.

    build_s runs from the start of ingest to the end of split."""
    out = Outcome()
    iterations: list[dict[str, Any]] = []
    traced = None
    started = time.monotonic()
    while True:
        d = run_dir / f"build{len(iterations)}"
        d.mkdir()
        stages = cli_build(d, cfg, seed, seed)
        stages.append(("split", ["split", "--dataset", str(d / "dataset.jsonl"),
                                 "--out-dir", str(d / "splits"), "--seed", str(seed)]))
        tracing = trace and len(iterations) == 1
        # set-up repeats so that setup_s is a median; each run writes the same
        # files. The traced pass sets up once, so fixtures.write_s is one set-up.
        reps = 1 if tracing else SETUP_REPS
        commands = [("fixture", cli_fixture(d / "fx", cfg, seed))] * reps + stages
        result = run_child(d, "build", commands, spans=spans_path("build-M", seed) if tracing else None)
        if tracing:
            traced = result
        else:
            iterations.append(result)
        digests = {"dataset": sha256_file(d / "dataset.jsonl"), "cache": sha256_file(d / "cache.jsonl")}
        for split in sorted((d / "splits").glob("*.jsonl")):
            digests[f"split/{split.name}"] = sha256_file(split)
        if out.digests and digests != out.digests:
            out.problems.append("outputs differ between two builds from one seed")
        out.digests = digests
        for leftover in ("store.db", "fx"):
            path = d / leftover
            shutil.rmtree(path) if path.is_dir() else path.unlink(missing_ok=True)
        if trace and traced is None:
            continue
        if trace or time.monotonic() - started >= seconds:
            break
        if remaining() < 1.5 * (time.monotonic() - started) / len(iterations):
            break

    fixture_walls, builds, cpus = [], [], []
    per_stage: dict[str, list[float]] = {name: [] for name in ("pairs", "generate", "validate")}
    rates = []
    for result in iterations:
        fixture_walls += [wall_s(s) for s in result["steps"] if s["name"] == "fixture"]
        steps = steps_by_name(result)
        build = (steps["split"]["end_ns"] - steps["ingest"]["start_ns"]) / 1e9
        builds.append(build)
        cpus.append(sum(steps[name]["cpu_ns"] for name in BUILD_STAGES) / 1e9)
        for name in per_stage:
            per_stage[name].append(wall_s(steps[name]))
        instances, mismatches = validate_counts(steps["validate"])
        out.attempted += instances
        out.failed += mismatches
        rates.append(instances / build)
        accepted, attempted = parse(r"accepted (\d+)/(\d+)", steps["generate"]["stdout"])
        (poi_pairs, community_pairs) = parse(r"built (\d+) poi_community and (\d+)", steps["pairs"]["stdout"])
        out.notes.append(
            f"generate accepted {accepted}/{attempted}; pairs {poi_pairs}+{community_pairs}"
        )
    if out.failed:
        out.problems.append(f"validate reported {out.failed} mismatches")
    out.put("setup_s", fixture_walls, "s")
    out.put("peak_rss_mb", [r["peak_rss_mb"] for r in iterations], "MB", "max")
    out.put("wall_s", builds, "s")
    out.put("items_per_s", rates, "1/s")
    out.put("cpu_s", cpus, "s")
    out.put("build_s", builds, "s")
    for name, values in per_stage.items():
        out.put(f"{name}_s", values, "s")
    out.metrics["failed_share"] = (out.failed / max(1, out.attempted), "ratio", out.attempted)
    if traced is not None:
        steps = steps_by_name(traced)
        traced_build = (steps["split"]["end_ns"] - steps["ingest"]["start_ns"]) / 1e9
        out.layers = dict(traced["layers"])
        out.layers["trace.overhead_s"] = traced_build - statistics.median(builds)
        out.layers["trace.overhead_share"] = out.layers["trace.overhead_s"] / statistics.median(builds)
    return out


@contextmanager
def standin(run_dir: Path, store: Path, dataset: Path) -> Iterator[int]:
    """Start the stand-in model server in its own process; yield its port."""
    ready = run_dir / "standin.port"
    with open(run_dir / "standin.log", "w", encoding="utf-8") as log:
        proc = subprocess.Popen(
            [sys.executable, str(BENCH / "standin.py"), "--store", str(store),
             "--dataset", str(dataset), "--ready-file", str(ready)],
            cwd=ROOT, env=child_env(), stdout=log, stderr=subprocess.STDOUT,
        )
        try:
            deadline = time.monotonic() + 60
            while not ready.exists():
                if proc.poll() is not None or time.monotonic() > deadline:
                    raise BenchError("the stand-in model server did not start")
                time.sleep(0.02)
            yield int(ready.read_text(encoding="utf-8"))
        finally:
            proc.terminate()
            try:
                proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()


def standin_stats(port: int) -> dict[str, float]:
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=10)
    try:
        conn.request("GET", "/stats")
        return json.loads(conn.getresponse().read())
    finally:
        conn.close()


def episodes_workload(
    name: str, cfg: dict, seed: int, seconds: float, trace: bool, run_dir: Path, pool: Path
) -> Outcome:
    """`estateqa run` over the seed's episodes, repeated until `seconds` pass."""
    out = Outcome()
    # gate: the pool's store, frozen cache and dataset still agree
    check = run_child(run_dir, "validate", [("validate", [
        "validate", "--store", str(pool / "store.db"), "--cache", str(pool / "cache.jsonl"),
        "--dataset", str(pool / "dataset.jsonl")])])
    instances, mismatches = validate_counts(check["steps"][0])
    out.attempted += instances
    out.failed += mismatches
    if mismatches:
        out.problems.append(f"validate reported {mismatches} mismatches on the pool")

    lines = (pool / "dataset.jsonl").read_text(encoding="utf-8").splitlines(keepends=True)
    rng = random.Random(seed)
    if cfg["episodes"]:
        lines = rng.sample(lines, min(cfg["episodes"], len(lines)))
    else:
        rng.shuffle(lines)
    dataset = run_dir / "episodes.jsonl"
    dataset.write_text("".join(lines), encoding="utf-8")
    out.digests = {
        "pool_dataset": sha256_file(pool / "dataset.jsonl"),
        "pool_cache": sha256_file(pool / "cache.jsonl"),
        "episodes": sha256_file(dataset),
    }

    def argv(port: int | None) -> list[str]:
        args = ["run", "--store", str(pool / "store.db"), "--cache", str(pool / "cache.jsonl"),
                "--dataset", str(dataset), "--out", str(run_dir / "run"), "--overwrite",
                "--backend", cfg["backend"], "--agents", "live", "--slu", "lexicon",
                "--parallelism", str(cfg["parallelism"])]
        if port is not None:
            args += ["--endpoint", f"http://127.0.0.1:{port}/v1/chat/completions",
                     "--model", "standin"]
        return args

    reps: list[dict[str, Any]] = []
    traced: list[dict[str, Any]] = []
    server = (
        standin(run_dir, pool / "store.db", dataset)
        if cfg["backend"] == "http" else nullcontext(None)
    )
    with server as port:
        started = time.monotonic()
        while True:
            tracing = trace and len(reps) > len(traced)
            before = standin_stats(port) if port else None
            result = run_child(
                run_dir, f"rep{len(reps) + len(traced)}", [("run", argv(port))],
                spans=spans_path(name, seed) if tracing else None,
                check_episodes={"transcripts": str(run_dir / "run" / "transcripts.jsonl"),
                                "dataset": str(dataset)},
            )
            if port:
                after = standin_stats(port)
                result["server"] = {k: after[k] - before[k] for k in after}
            result["report_sha256"] = sha256_file(run_dir / "run" / "report.json")
            (traced if tracing else reps).append(result)
            elapsed = time.monotonic() - started
            done = len(reps) >= (1 if trace else MIN_REPS) and (not trace or traced)
            if done and elapsed >= seconds:
                break
            if done and remaining() < 2 * elapsed / (len(reps) + len(traced)):
                break

    out.digests["report"] = reps[0]["report_sha256"]
    latencies: list[float] = []
    setups, runs, cpus, rates, calls, episodes = [], [], [], [], 0, 0
    for rep in reps + traced:
        check = rep["check"]
        out.attempted += check["episodes"]
        out.failed += check["failed"]
        if check["cache_misses"]:
            out.problems.append(f"{check['cache_misses']} frozen-cache misses")
        if rep["report_sha256"] != reps[0]["report_sha256"]:
            out.problems.append("episode reports differ between repetitions of one seed")
        if rep.get("server", {}).get("errors"):
            out.problems.append(f"stand-in answered {rep['server']['errors']} requests with errors")
    for rep in reps:
        step = rep["steps"][0]
        ep = rep["episodes"]
        if not ep["latencies_ms"]:
            raise BenchError("`estateqa run` completed no episode")
        runs.append(wall_s(step))
        cpus.append(step["cpu_ns"] / 1e9)
        setups.append((ep["first_start_ns"] - step["start_ns"]) / 1e9)
        rates.append(len(ep["latencies_ms"]) / ((ep["last_end_ns"] - ep["first_start_ns"]) / 1e9))
        latencies += ep["latencies_ms"]
        calls += ep["backend_calls"]
        episodes += len(ep["latencies_ms"])
    failed_episodes = sum(r["check"]["failed"] for r in reps + traced)
    if failed_episodes:
        out.problems.append(f"{failed_episodes} episodes not strictly exact-match correct")
    out.put("setup_s", setups, "s")
    out.put("peak_rss_mb", [r["peak_rss_mb"] for r in reps], "MB", "max")
    out.put("wall_s", runs, "s")
    out.put("items_per_s", rates, "1/s")
    out.put("cpu_s", cpus, "s")
    out.put("run_s", runs, "s")
    out.put("episodes_per_s", rates, "1/s")
    out.metrics["episode_p50_ms"] = (statistics.median(latencies), "ms", len(latencies))
    out.metrics["episode_p99_ms"] = (percentile(latencies, 0.99), "ms", len(latencies))
    out.metrics["backend_calls_per_episode"] = (calls / episodes, "count", episodes)
    ran = sum(r["check"]["episodes"] for r in reps + traced)
    out.metrics["failed_share"] = (failed_episodes / max(1, ran), "ratio", ran)
    if cfg["backend"] == "http":
        requests = sum(r["server"]["requests"] for r in reps)
        handling = sum(r["server"]["handling_ms"] for r in reps)
        out.notes.append(
            f"stand-in: {requests} requests, {handling / max(1, requests):.2f} ms handling each"
        )
        if requests != calls:
            out.problems.append(f"stand-in saw {requests} requests, client made {calls}")
    if traced:
        last = traced[-1]
        out.layers = dict(last["layers"])
        traced_run = statistics.median(wall_s(r["steps"][0]) for r in traced)
        out.layers["trace.overhead_s"] = traced_run - statistics.median(runs)
        out.layers["trace.overhead_share"] = out.layers["trace.overhead_s"] / statistics.median(runs)
        if "server" in last:
            requests = max(1, last["server"]["requests"])
            out.layers["backends.http_overhead_ms"] = (
                last["layers"]["backends.complete.total_ms"] - last["server"]["handling_ms"]
            ) / requests
    return out


# --- reporting ---------------------------------------------------------------------------


def load_expected_digests() -> dict[str, dict[str, str]]:
    path = BENCH / "digests.json"
    return json.loads(path.read_text(encoding="utf-8")) if path.is_file() else {}


def environment(args: argparse.Namespace, load_start: tuple[float, ...]) -> dict[str, Any]:
    try:
        affinity = len(os.sched_getaffinity(0))
    except AttributeError:
        affinity = os.cpu_count()
    return {
        "git_rev": git_rev(),
        "source_sha256": source_digest(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": affinity,
        "cpu_count": os.cpu_count(),
        "loadavg_start": load_start,
        "loadavg_end": os.getloadavg(),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "scale": args.scale,
        "scale_params": {w: SCALES[args.scale][w] for w in args.workloads},
        "pool_seeds": {"fixture": POOL_FIXTURE_SEED, "generate": POOL_GENERATE_SEED},
    }


def run_workload(name: str, args: argparse.Namespace, report: list[str]) -> Outcome:
    global STARTED
    cfg = SCALES[args.scale][name]
    run_dir = WORK / "runs" / f"{name}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    try:
        # every workload makes sure the pools exist, so whichever run comes
        # first in a checkout builds them all
        pools = ensure_pools(args.scale, report)
        STARTED = time.monotonic()
        if name == "build-M":
            outcome = build_workload(cfg, args.seed, args.seconds, args.trace, run_dir)
        else:
            outcome = episodes_workload(
                name, cfg, args.seed, args.seconds, args.trace, run_dir, pools[name]
            )
    except BenchError as exc:
        outcome = Outcome()
        outcome.problems.append(str(exc))
        outcome.attempted = outcome.failed = 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    expected = load_expected_digests().get(args.scale, {}).get(name)
    if args.seed == DEFAULT_SEED and expected and outcome.digests:
        for key, value in expected.items():
            if outcome.digests.get(key) != value:
                outcome.problems.append(f"digest of {key} differs from the recorded default-seed digest")
    return outcome


def render(name: str, outcome: Outcome, report: list[str]) -> None:
    report.append(f"== {name}")
    for metric, (value, unit, n) in outcome.metrics.items():
        report.append(f"  {metric:<27} {value:>14.6g} {unit:<6} (n={n})")
    for key, value in outcome.digests.items():
        report.append(f"  sha256 {key:<22} {value}")
    for note in outcome.notes:
        report.append(f"  {note}")
    if outcome.layers:
        report.append("  per-layer (traced run):")
        for metric, value in outcome.layers.items():
            report.append(f"    {metric:<40} {value:.6g}")
    for problem in outcome.problems:
        report.append(f"  CORRECTNESS FAILURE: {problem}")


def result_line(outcomes: dict[str, Outcome], trace: bool, units: dict[str, str]) -> dict[str, Any]:
    metrics: dict[str, dict[str, Any]] = {}
    single = len(outcomes) == 1
    for name, outcome in outcomes.items():
        prefix = "" if single else f"{name}/"
        if trace:
            for metric, unit in units.items():
                metrics[prefix + metric] = {"value": outcome.layers.get(metric, 0.0), "unit": unit}
        else:
            for metric, unit in CONTRACT.items():
                value = outcome.metrics.get(metric, (0.0, unit, 0))[0]
                metrics[prefix + metric] = {"value": value, "unit": unit}
    return {
        "correct": all(not o.problems for o in outcomes.values()),
        "attempted": max(1, sum(o.attempted for o in outcomes.values())),
        "failed": sum(o.failed for o in outcomes.values()),
        "metrics": metrics,
    }


def per_layer_units() -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer"]}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="estateqa benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=tuple(SCALES), default="default")
    args = parser.parse_args(argv)
    args.workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    if not (SRC / "estateqa" / "cli.py").is_file():
        print(f"error: no estateqa sources under {SRC}", file=sys.stderr)
        return 2
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    load_start = os.getloadavg()
    units = per_layer_units() if args.trace else {}

    report: list[str] = []
    outcomes = {name: run_workload(name, args, report) for name in args.workloads}
    for name, outcome in outcomes.items():
        render(name, outcome, report)
    env = environment(args, load_start)
    line = result_line(outcomes, bool(args.trace), units)
    print("\n".join(report))
    print("env " + json.dumps(env, sort_keys=True))
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
