"""Command-line pipeline: fixtures, store, cache, generation, validation,
splits, agent runs, evaluation, and the injection-ladder ablation.

Exit codes: 0 success, 1 validation failure, 2 configuration error,
3 backend failure. Secrets travel only through environment variables. A JSON
config file may supply defaults for any flag value (flags win).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any, Sequence

from .backends import HttpBackend
from .domain import (
    MalformedRecordError,
    QAInstance,
    read_instances,
    read_json_lines,
    write_instances,
)
from .evaluator import (
    EvalReport,
    RunConfig,
    aggregate,
    make_oracle_backend,
    run_ablation,
    run_suite,
)
from .fixtures import write_fixture
from .generator import (
    SplitSpec,
    generate,
    revalidate_instance,
    stratified_split,
)
from .slu import build_fewshot_pool
from .store import GeoStore, IngestError, StoreConfig
from .supervisor import EpisodeTranscript
from .templates import default_templates, load_template_dir
from .tools import SyntheticProvider, ToolCache

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_CONFIG = 2
EXIT_BACKEND = 3


class CliError(Exception):
    def __init__(self, message: str, code: int = EXIT_CONFIG) -> None:
        super().__init__(message)
        self.code = code


def _load_config_file(path: str | None) -> dict[str, Any]:
    if not path:
        return {}
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise CliError(f"cannot read config file {path}: {exc}")


def _setting(args: argparse.Namespace, config: dict[str, Any], key: str, default: Any = None) -> Any:
    value = getattr(args, key, None)
    if value is not None:
        return value
    return config.get(key, default)


def _require(args: argparse.Namespace, config: dict[str, Any], key: str) -> Any:
    value = _setting(args, config, key)
    if value is None:
        raise CliError(f"missing required setting --{key.replace('_', '-')}")
    return value


def _templates(args: argparse.Namespace, config: dict[str, Any]):
    directory = _setting(args, config, "templates")
    return load_template_dir(directory) if directory else default_templates()


def _open_store(path: str) -> GeoStore:
    if not Path(path).exists():
        raise CliError(f"store file {path} does not exist")
    return GeoStore.open(path)


def _provider_cache(store: GeoStore, cache_path: str | None) -> ToolCache:
    provider = SyntheticProvider(store)
    if cache_path and Path(cache_path).exists():
        return ToolCache.load(cache_path, provider=provider)
    return ToolCache(provider=provider)


def _frozen_cache(cache_path: str) -> ToolCache:
    if not Path(cache_path).exists():
        raise CliError(f"cache file {cache_path} does not exist")
    return ToolCache.load(cache_path)


def _prepare_run_dir(path: str, overwrite: bool) -> Path:
    run_dir = Path(path)
    if run_dir.exists() and any(run_dir.iterdir()) and not overwrite:
        raise CliError(f"run directory {run_dir} is not empty (use --overwrite)")
    run_dir.mkdir(parents=True, exist_ok=True)
    return run_dir


def _build_backend(args: argparse.Namespace, config: dict[str, Any], instances, store):
    backend_kind = _setting(args, config, "backend")
    if backend_kind is None:
        raise CliError("no backend configured: pass --backend oracle or --backend http")
    if backend_kind == "oracle":
        return make_oracle_backend(instances, store)
    if backend_kind == "http":
        endpoint = _require(args, config, "endpoint")
        model = _require(args, config, "model")
        key_env = _setting(args, config, "key_env", "ESTATEQA_API_KEY")
        return HttpBackend(endpoint=endpoint, model=model, api_key_env=key_env)
    raise CliError(f"unknown backend kind {backend_kind!r}")


def _fewshot_pool(
    args: argparse.Namespace, config: dict[str, Any], seed: int
) -> list[QAInstance] | None:
    pool_path = _setting(args, config, "fewshot_pool")
    if not pool_path:
        return None
    return build_fewshot_pool(list(read_instances(pool_path)), seed=seed)


def _run_config(args: argparse.Namespace, config: dict[str, Any]) -> RunConfig:
    inject = set(filter(None, (_setting(args, config, "inject") or "").split(",")))
    unknown = inject - {"slu", "sql", "api"}
    if unknown:
        raise CliError(f"unknown --inject stages: {','.join(sorted(unknown))}")
    return RunConfig(
        inject_slu="slu" in inject,
        inject_sql="sql" in inject,
        inject_api="api" in inject,
        step_cap=int(_setting(args, config, "step_cap", 25)),
        seed=int(_setting(args, config, "seed", 0)),
        parallelism=int(_setting(args, config, "parallelism", 1)),
        slu_strategy=_setting(args, config, "slu", "lexicon"),
        agents=_setting(args, config, "agents", "live"),
    )


# --- commands -----------------------------------------------------------------


def cmd_fixture(args: argparse.Namespace, config: dict[str, Any]) -> int:
    cities = tuple(c.strip() for c in _require(args, config, "cities").split(",") if c.strip())
    store_config = StoreConfig(cities=cities, fixture_seed=int(_setting(args, config, "seed", 0)))
    paths = write_fixture(
        store_config,
        _require(args, config, "out"),
        communities_per_city=int(_setting(args, config, "communities", 220)),
        pois_per_city=int(_setting(args, config, "pois", 160)),
    )
    print(f"wrote {len(paths)} fixture files under {args.out}")
    return EXIT_OK


def cmd_ingest(args: argparse.Namespace, config: dict[str, Any]) -> int:
    store_path = Path(_require(args, config, "store"))
    if store_path.exists():
        if not args.overwrite:
            raise CliError(f"store file {store_path} exists (use --overwrite)")
        store_path.unlink()
    cities = tuple(c.strip() for c in _require(args, config, "cities").split(",") if c.strip())
    store_config = StoreConfig(
        cities=cities,
        poi_pairing_radius=float(_setting(args, config, "poi_radius", 3000.0)),
        community_pairing_radius=float(_setting(args, config, "community_radius", 1000.0)),
        fixture_seed=int(_setting(args, config, "seed", 0)),
    )
    store = GeoStore(store_config, store_path)
    try:
        counts = store.ingest_fixture(_require(args, config, "fixtures"))
    except IngestError as exc:
        print(f"ingestion error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    print(
        f"ingested {counts['community']} communities and {counts['poi']} POIs;"
        f" {len(store.list_captions())} captions"
    )
    return EXIT_OK


def cmd_pairs(args: argparse.Namespace, config: dict[str, Any]) -> int:
    store = _open_store(_require(args, config, "store"))
    counts = store.build_proximity_pairs()
    print(
        f"built {counts['poi_community']} poi_community and"
        f" {counts['community_community']} community_community pairs"
    )
    return EXIT_OK


def cmd_generate(args: argparse.Namespace, config: dict[str, Any]) -> int:
    store = _open_store(_require(args, config, "store"))
    cache = _provider_cache(store, _setting(args, config, "cache"))
    templates = _templates(args, config)
    instances, report = generate(
        templates,
        store,
        cache,
        seed=int(_setting(args, config, "seed", 0)),
        per_template=int(_setting(args, config, "per_template", 50)),
    )
    out = _require(args, config, "out")
    write_instances(out, instances)
    cache_path = _setting(args, config, "cache")
    if cache_path:
        cache.save(cache_path)
    report_path = _setting(args, config, "report")
    if report_path:
        Path(report_path).write_text(
            json.dumps(report.to_dict(), indent=2) + "\n", encoding="utf-8"
        )
    print(
        f"accepted {report.accepted}/{report.attempted} instances -> {out};"
        f" rejections: {report.rejected_by_reason() or 'none'}"
    )
    return EXIT_OK


def cmd_validate(args: argparse.Namespace, config: dict[str, Any]) -> int:
    store = _open_store(_require(args, config, "store"))
    cache = _frozen_cache(_require(args, config, "cache"))
    templates = {t.template_id: t for t in _templates(args, config)}
    mismatches = 0
    total = 0
    for instance in read_instances(_require(args, config, "dataset")):
        total += 1
        problems = revalidate_instance(instance, store, cache, templates)
        for problem in problems:
            mismatches += 1
            print(f"{instance.id}: {problem}", file=sys.stderr)
    if mismatches:
        print(f"validation FAILED: {mismatches} mismatches over {total} instances")
        return EXIT_VALIDATION
    print(f"validation OK: {total} instances, 0 mismatches")
    return EXIT_OK


def cmd_split(args: argparse.Namespace, config: dict[str, Any]) -> int:
    instances = list(read_instances(_require(args, config, "dataset")))
    spec = SplitSpec(seed=int(_setting(args, config, "seed", 0)))
    splits, warnings = stratified_split(instances, spec)
    out_dir = Path(_require(args, config, "out_dir"))
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, members in splits.items():
        write_instances(str(out_dir / f"{name}.jsonl"), members)
    for warning in warnings:
        print(f"warning: {warning}", file=sys.stderr)
    print(
        "split sizes: "
        + ", ".join(f"{name}={len(members)}" for name, members in splits.items())
    )
    return EXIT_OK


def _write_report(run_dir: Path, name: str, report: EvalReport) -> None:
    (run_dir / f"{name}.json").write_text(
        json.dumps(report.to_dict(), indent=2) + "\n", encoding="utf-8"
    )
    (run_dir / f"{name}.txt").write_text(report.render_table() + "\n", encoding="utf-8")


def cmd_run(args: argparse.Namespace, config: dict[str, Any]) -> int:
    store = _open_store(_require(args, config, "store"))
    cache = _frozen_cache(_require(args, config, "cache"))
    instances = list(read_instances(_require(args, config, "dataset")))
    run_config = _run_config(args, config)
    backend = _build_backend(args, config, instances, store)
    fewshot_pool = _fewshot_pool(args, config, run_config.seed)
    run_dir = _prepare_run_dir(_require(args, config, "out"), args.overwrite)

    report, records = run_suite(instances, store, cache, backend, run_config, fewshot_pool)
    with open(run_dir / "transcripts.jsonl", "w", encoding="utf-8") as fh:
        for record in records:
            fh.write(json.dumps(record.transcript.to_dict(), ensure_ascii=False) + "\n")
    _write_report(run_dir, "report", report)
    print(report.render_table())

    backend_kind = _setting(args, config, "backend")
    if (
        backend_kind == "http"
        and report.episodes
        and report.failures.get("plan_failure", 0) == report.episodes
    ):
        print("backend produced no usable completions", file=sys.stderr)
        return EXIT_BACKEND
    return EXIT_OK


def cmd_eval(args: argparse.Namespace, config: dict[str, Any]) -> int:
    """Recompute the metric suite from persisted transcripts."""
    run_dir = Path(_require(args, config, "run"))
    transcripts_path = run_dir / "transcripts.jsonl"
    if not transcripts_path.exists():
        raise CliError(f"{transcripts_path} does not exist")
    instances = {i.id: i for i in read_instances(_require(args, config, "dataset"))}
    transcripts: list[EpisodeTranscript] = []
    golds = []
    for transcript in read_json_lines(transcripts_path, EpisodeTranscript.from_dict):
        gold = instances.get(transcript.instance_id)
        if gold is None:
            print(f"no gold instance for {transcript.instance_id}", file=sys.stderr)
            return EXIT_VALIDATION
        transcripts.append(transcript)
        golds.append(gold)
    from .evaluator import EpisodeRecord

    records = [EpisodeRecord(g, t, None) for g, t in zip(golds, transcripts)]
    report = aggregate(records, _run_config(args, config))
    _write_report(run_dir, "eval", report)
    print(report.render_table())
    return EXIT_OK


def cmd_ablate(args: argparse.Namespace, config: dict[str, Any]) -> int:
    store = _open_store(_require(args, config, "store"))
    cache = _frozen_cache(_require(args, config, "cache"))
    instances = list(read_instances(_require(args, config, "dataset")))
    run_config = _run_config(args, config)
    backend = _build_backend(args, config, instances, store)
    fewshot_pool = _fewshot_pool(args, config, run_config.seed)
    run_dir = _prepare_run_dir(_require(args, config, "out"), args.overwrite)
    reports = run_ablation(instances, store, cache, backend, run_config, fewshot_pool)
    for name, report in reports.items():
        _write_report(run_dir, f"ablation_{name}", report)
        print(f"--- {name} ---")
        print(report.render_table())
    return EXIT_OK


# --- argument wiring --------------------------------------------------------------


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="JSON file supplying defaults for any flag")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="estateqa",
        description="Deterministic real-estate QA benchmark and agent harness",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fixture", help="write synthetic fixture CSVs")
    p.add_argument("--out")
    p.add_argument("--cities")
    p.add_argument("--communities", type=int)
    p.add_argument("--pois", type=int)
    p.add_argument("--seed", type=int)
    _add_common(p)
    p.set_defaults(func=cmd_fixture)

    p = sub.add_parser("ingest", help="create a store from fixture CSVs")
    p.add_argument("--fixtures")
    p.add_argument("--store")
    p.add_argument("--cities")
    p.add_argument("--poi-radius", dest="poi_radius", type=float)
    p.add_argument("--community-radius", dest="community_radius", type=float)
    p.add_argument("--seed", type=int)
    p.add_argument("--overwrite", action="store_true")
    _add_common(p)
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("pairs", help="build proximity pair tables")
    p.add_argument("--store")
    _add_common(p)
    p.set_defaults(func=cmd_pairs)

    p = sub.add_parser("generate", help="generate a validated dataset")
    p.add_argument("--store")
    p.add_argument("--out")
    p.add_argument("--cache")
    p.add_argument("--templates")
    p.add_argument("--report")
    p.add_argument("--seed", type=int)
    p.add_argument("--per-template", dest="per_template", type=int)
    _add_common(p)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("validate", help="re-verify every instance's supervision")
    p.add_argument("--store")
    p.add_argument("--cache")
    p.add_argument("--dataset")
    p.add_argument("--templates")
    _add_common(p)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("split", help="stratified 8:1:1 split")
    p.add_argument("--dataset")
    p.add_argument("--out-dir", dest="out_dir")
    p.add_argument("--seed", type=int)
    _add_common(p)
    p.set_defaults(func=cmd_split)

    p = sub.add_parser("run", help="run agent episodes over a dataset")
    p.add_argument("--store")
    p.add_argument("--cache")
    p.add_argument("--dataset")
    p.add_argument("--out")
    p.add_argument("--backend", choices=("oracle", "http"))
    p.add_argument("--endpoint")
    p.add_argument("--model")
    p.add_argument("--key-env", dest="key_env")
    p.add_argument("--agents", choices=("live", "oracle"))
    p.add_argument("--slu", choices=("lexicon", "fewshot"))
    p.add_argument("--fewshot-pool", dest="fewshot_pool")
    p.add_argument("--inject")
    p.add_argument("--step-cap", dest="step_cap", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--parallelism", type=int)
    p.add_argument("--overwrite", action="store_true")
    _add_common(p)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("eval", help="recompute metrics from persisted transcripts")
    p.add_argument("--run")
    p.add_argument("--dataset")
    p.add_argument("--inject")
    p.add_argument("--step-cap", dest="step_cap", type=int)
    p.add_argument("--seed", type=int)
    _add_common(p)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("ablate", help="sweep the GT-injection ladder")
    p.add_argument("--store")
    p.add_argument("--cache")
    p.add_argument("--dataset")
    p.add_argument("--out")
    p.add_argument("--backend", choices=("oracle", "http"))
    p.add_argument("--endpoint")
    p.add_argument("--model")
    p.add_argument("--key-env", dest="key_env")
    p.add_argument("--agents", choices=("live", "oracle"))
    p.add_argument("--slu", choices=("lexicon", "fewshot"))
    p.add_argument("--fewshot-pool", dest="fewshot_pool")
    p.add_argument("--inject")
    p.add_argument("--step-cap", dest="step_cap", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--parallelism", type=int)
    p.add_argument("--overwrite", action="store_true")
    _add_common(p)
    p.set_defaults(func=cmd_ablate)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = _load_config_file(getattr(args, "config", None))
        return args.func(args, config)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except (IngestError, MalformedRecordError) as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
