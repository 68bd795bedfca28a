"""Command-line pipeline: fixtures, store, cache, generation, validation,
splits, agent runs, evaluation, and the injection-ladder ablation.

Exit codes: 0 success, 1 validation failure, 2 configuration error,
3 backend failure. Secrets travel only through environment variables. A JSON
config file, a JSON object, may supply any setting (flags win).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from contextlib import closing
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Sequence

from .backends import HttpBackend
from .domain import (
    DomainError,
    MalformedRecordError,
    RecordTypeError,
    decode,
    encode,
    read_instances,
    read_json_lines,
    write_instances,
)
from .evaluator import (
    EpisodeRecord,
    EvalReport,
    RunConfig,
    aggregate,
    make_oracle_backend,
    run_ablation,
    run_suite,
)
from .fixtures import write_fixture
from .generator import generate, revalidate_instance, stratified_split
from .slu import build_fewshot_pool
from .store import FAMILIES, GeoStore, IngestError, StoreConfig
from .supervisor import DEFAULT_STEP_CAP, EpisodeTranscript
from .templates import TemplateError, default_templates, load_template_dir
from .tools import SyntheticProvider, ToolCache

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_CONFIG = 2
EXIT_BACKEND = 3


class CliError(Exception):
    def __init__(self, message: str, code: int = EXIT_CONFIG) -> None:
        super().__init__(message)
        self.code = code


@dataclass(frozen=True)
class Setting:
    """One setting of a command: its ``--flag`` and the config-file key of the same name."""

    name: str
    # text | list (comma-separated text) | int | number (> 0) | flag | file (an input
    # that exists) | outfile (in an existing directory) | outdir (made if missing)
    kind: str = "text"
    default: Any = None
    required: bool = False
    choices: tuple[str, ...] = ()
    minimum: int | None = None


def _flag(name: str) -> str:
    return "--" + name.replace("_", "-")


def _resolve(setting: Setting, flag_value: Any, config: dict[str, Any]) -> Any:
    """One setting's value: the flag, else the config-file key of the same
    name, else the default; checked, and in the form the commands use."""
    name, kind = setting.name, setting.kind
    value = config.get(name) if flag_value is None else flag_value
    if value is None:
        if setting.required:
            raise CliError(f"missing required setting {_flag(name)}")
        return setting.default
    if kind == "int":
        if isinstance(value, bool) or not isinstance(value, int):
            raise CliError(f"{name} must be an integer, got {value!r}")
    elif kind == "number":
        if isinstance(value, bool) or not isinstance(value, (int, float)) or not 0 < value < math.inf:
            raise CliError(f"{name} must be a positive number, got {value!r}")
        value = float(value)
    elif kind == "flag":
        if not isinstance(value, bool):
            raise CliError(f"{name} must be true or false, got {value!r}")
    elif not isinstance(value, str):
        raise CliError(f"{name} must be a string, got {value!r}")
    elif kind == "list":
        value = tuple(item.strip() for item in value.split(",") if item.strip())
        if setting.required and not value:
            raise CliError(f"{name} must name at least one value")
    elif kind == "file" and not Path(value).is_file():
        raise CliError(f"{name} file {value} does not exist")
    elif kind == "outfile" and (Path(value).is_dir() or not Path(value).parent.is_dir()):
        raise CliError(f"{name} {value} must be a file in an existing directory")
    elif kind == "outdir":
        existing = next(p for p in (Path(value), *Path(value).parents) if p.exists())
        if not existing.is_dir():
            raise CliError(
                f"{name} directory {value} cannot be made: {existing} is not a directory"
            )
    if setting.minimum is not None and value < setting.minimum:
        raise CliError(f"{name} must be >= {setting.minimum}")
    unknown = set(value if kind == "list" else [value]) - set(setting.choices)
    if setting.choices and unknown:
        raise CliError(
            f"{name} must be one of {', '.join(setting.choices)};"
            f" got {', '.join(map(repr, sorted(unknown)))}"
        )
    return value


def _load_config_file(path: str | None) -> dict[str, Any]:
    if not path:
        return {}
    try:
        config = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise CliError(f"cannot read config file {path}: {exc}")
    if not isinstance(config, dict):
        raise CliError(f"config file {path} must hold a JSON object")
    # a key of another command is ignored, so one file can serve the whole pipeline
    declared = {setting.name for _, _, settings in COMMANDS.values() for setting in settings}
    unknown = sorted(set(config) - declared)
    if unknown:
        raise CliError(f"config file {path} has unknown keys: {', '.join(unknown)}")
    return config


def _templates(opts: argparse.Namespace):
    return load_template_dir(opts.templates) if opts.templates else default_templates()


def _build_backend(opts: argparse.Namespace, instances, store):
    for key in ("endpoint", "model"):  # required by the http backend only
        if opts.backend == "http" and getattr(opts, key) is None:
            raise CliError(f"missing required setting {_flag(key)}")
    # built for every run, so a dataset that repeats a question is refused
    # before any episode runs: the oracle keys gold by question text
    try:
        oracle = make_oracle_backend(instances, store)
    except ValueError as exc:
        raise MalformedRecordError(f"{opts.dataset}: {exc}") from None
    if opts.backend == "oracle":
        return oracle
    return HttpBackend(endpoint=opts.endpoint, model=opts.model, api_key_env=opts.key_env)


# --- commands -----------------------------------------------------------------


def _store_config(opts: argparse.Namespace, **radii: float) -> StoreConfig:
    """The store config of `fixture` and `ingest`; one it refuses, such as
    two cities with one slug, is a configuration error."""
    try:
        return StoreConfig(cities=opts.cities, fixture_seed=opts.seed, **radii)
    except DomainError as exc:
        raise CliError(str(exc)) from None


def cmd_fixture(opts: argparse.Namespace) -> int:
    store_config = _store_config(opts)
    paths = write_fixture(
        store_config, opts.out, communities_per_city=opts.communities, pois_per_city=opts.pois
    )
    print(f"wrote {len(paths)} fixture files under {opts.out}")
    return EXIT_OK


def cmd_ingest(opts: argparse.Namespace) -> int:
    store_path = Path(opts.store)
    if store_path.exists() and not opts.overwrite:
        raise CliError(f"store file {store_path} exists (use --overwrite)")
    store_config = _store_config(
        opts, poi_pairing_radius=opts.poi_radius, community_pairing_radius=opts.community_radius
    )
    store_path.unlink(missing_ok=True)
    try:
        counts = GeoStore.ingest_fixture(store_config, store_path, opts.fixtures)
    except BaseException:
        store_path.unlink(missing_ok=True)  # a failed ingest leaves no store behind
        raise
    print(
        f"ingested {counts['community']} communities and {counts['poi']} POIs;"
        f" {len(FAMILIES) * len(store_config.cities)} captions"
    )
    return EXIT_OK


def cmd_pairs(opts: argparse.Namespace) -> int:
    with closing(GeoStore.open(opts.store)) as store:
        counts = store.build_proximity_pairs()
    print(
        f"built {counts['poi_community']} poi_community and"
        f" {counts['community_community']} community_community pairs"
    )
    return EXIT_OK


def cmd_generate(opts: argparse.Namespace) -> int:
    # closed here: a connection left to the cyclic GC keeps its page cache
    with closing(GeoStore.open(opts.store)) as store:
        cache = ToolCache(provider=SyntheticProvider(store))
        instances, report = generate(
            _templates(opts), store, cache, seed=opts.seed, per_template=opts.per_template
        )
    write_instances(opts.out, instances)
    cache.save(opts.cache)
    if opts.report:
        Path(opts.report).write_text(
            json.dumps(report.to_dict(), indent=2) + "\n", encoding="utf-8"
        )
    print(
        f"accepted {report.accepted}/{report.attempted} instances -> {opts.out};"
        f" rejections: {report.rejected_by_reason() or 'none'}"
    )
    return EXIT_OK


def cmd_validate(opts: argparse.Namespace) -> int:
    with closing(GeoStore.open(opts.store)) as store:
        cache = ToolCache.load(opts.cache)
        templates = {t.template_id: t for t in _templates(opts)}
        mismatches = 0
        total = 0
        for instance in read_instances(opts.dataset):
            total += 1
            for problem in revalidate_instance(instance, store, cache, templates):
                mismatches += 1
                print(f"{instance.id}: {problem}", file=sys.stderr)
    if mismatches:
        print(f"validation FAILED: {mismatches} mismatches over {total} instances")
        return EXIT_VALIDATION
    print(f"validation OK: {total} instances, 0 mismatches")
    return EXIT_OK


def cmd_split(opts: argparse.Namespace) -> int:
    instances = list(read_instances(opts.dataset))
    splits, warnings = stratified_split(instances, opts.seed)
    out_dir = Path(opts.out_dir)
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
        json.dumps(report, default=encode, indent=2) + "\n", encoding="utf-8"
    )
    (run_dir / f"{name}.txt").write_text(report.render_table() + "\n", encoding="utf-8")


def _suite_inputs(opts: argparse.Namespace) -> tuple[tuple, Path]:
    """The set-up `run` and `ablate` share: the positional arguments of
    :func:`run_suite` / :func:`run_ablation`, and the run directory. A
    non-empty directory is refused before any input is read, and the
    directory is made only once the rest of the set-up has succeeded."""
    if (opts.slu == "fewshot") != bool(opts.fewshot_pool):
        raise CliError("--slu fewshot and --fewshot-pool go together: give both or neither")
    run_dir = Path(opts.out)
    if run_dir.exists() and any(run_dir.iterdir()) and not opts.overwrite:
        raise CliError(f"run directory {run_dir} is not empty (use --overwrite)")
    store = GeoStore.open(opts.store)
    cache = ToolCache.load(opts.cache)
    instances = list(read_instances(opts.dataset))
    run_config = RunConfig(  # `ablate` has no --inject: each rung sets its own
        **{f"inject_{stage}": True for stage in getattr(opts, "inject", ())},
        step_cap=opts.step_cap, agents=opts.agents, slu_strategy=opts.slu, seed=opts.seed,
    )
    templates = _templates(opts)
    backend = _build_backend(opts, instances, store)
    fewshot_pool = None
    if opts.fewshot_pool:
        fewshot_pool = build_fewshot_pool(list(read_instances(opts.fewshot_pool)), seed=opts.seed)
    run_dir.mkdir(parents=True, exist_ok=True)
    return (instances, store, cache, backend, run_config, templates, fewshot_pool), run_dir


def cmd_run(opts: argparse.Namespace) -> int:
    suite_args, run_dir = _suite_inputs(opts)
    with closing(suite_args[1]):  # the store
        report, records = run_suite(*suite_args, parallelism=opts.parallelism)
    # a lone surrogate from a model reply is written as its JSON escape
    path = run_dir / "transcripts.jsonl"
    with open(path, "w", encoding="utf-8", errors="backslashreplace") as fh:
        for record in records:
            fh.write(json.dumps(record.transcript, default=encode, ensure_ascii=False) + "\n")
    _write_report(run_dir, "report", report)
    print(report.render_table())

    if (
        opts.backend == "http"
        and report.episodes
        and report.failures.get("plan_failure", 0) == report.episodes
    ):
        print("backend produced no usable completions", file=sys.stderr)
        return EXIT_BACKEND
    return EXIT_OK


def cmd_eval(opts: argparse.Namespace) -> int:
    """Recompute the metric suite from persisted transcripts, under the
    settings the run's own report records."""
    run_dir = Path(opts.run)
    transcripts_path, report_path = run_dir / "transcripts.jsonl", run_dir / "report.json"
    for path in (transcripts_path, report_path):
        if not path.exists():
            raise CliError(f"{path} does not exist")
    try:
        recorded = json.loads(report_path.read_text(encoding="utf-8"))["config"]
        run_config = decode(RunConfig, recorded)
    except (KeyError, TypeError, ValueError) as exc:
        error = exc.under("config") if isinstance(exc, RecordTypeError) else exc
        raise MalformedRecordError(f"{report_path}: {type(error).__name__}: {error}") from None
    instances = {i.id: i for i in read_instances(opts.dataset)}
    first_has_slu: bool | None = None

    def parse(raw: Any) -> EpisodeTranscript:
        # the SLU metrics score every line or none, as a run writes them
        nonlocal first_has_slu
        transcript = decode(EpisodeTranscript, raw)
        has_slu = transcript.slu is not None
        if first_has_slu is None:
            first_has_slu = has_slu
        elif has_slu != first_has_slu:
            state = "an object" if has_slu else "null"
            raise ValueError(f"slu is {state} here, unlike on the first line")
        return transcript

    records = []
    for transcript in read_json_lines(transcripts_path, parse):
        gold = instances.get(transcript.instance_id)
        if gold is None:
            print(f"no gold instance for {transcript.instance_id}", file=sys.stderr)
            return EXIT_VALIDATION
        records.append(EpisodeRecord(gold, transcript))
    report = aggregate(records, run_config)
    _write_report(run_dir, "eval", report)
    print(report.render_table())
    return EXIT_OK


def cmd_ablate(opts: argparse.Namespace) -> int:
    suite_args, run_dir = _suite_inputs(opts)
    with closing(suite_args[1]):  # the store
        reports = run_ablation(*suite_args, parallelism=opts.parallelism)
    for name, report in reports.items():
        _write_report(run_dir, f"ablation_{name}", report)
        print(f"--- {name} ---")
        print(report.render_table())
    return EXIT_OK


# --- the settings of each command ----------------------------------------------------

_SEED = Setting("seed", "int", 0)
_STORE = Setting("store", "file", required=True)
_CACHE = Setting("cache", "file", required=True)
_DATASET = Setting("dataset", "file", required=True)
_OUT = Setting("out", "outdir", required=True)
_CITIES = Setting("cities", "list", required=True)
_OVERWRITE = Setting("overwrite", "flag", False)
_TEMPLATES = Setting("templates")
_SUITE = (  # `run`, and `ablate` but for `inject`, in help order
    _STORE, _CACHE, _DATASET, _OUT,
    Setting("backend", required=True, choices=("oracle", "http")),
    Setting("endpoint"),
    Setting("model"),
    Setting("key_env", default="ESTATEQA_API_KEY"),
    Setting("agents", default="live", choices=("live",)),
    Setting("slu", default="lexicon", choices=("lexicon", "fewshot")),
    Setting("fewshot_pool", "file"),
    _TEMPLATES, Setting("inject", "list", (), choices=("slu", "sql", "api")),
    Setting("step_cap", "int", DEFAULT_STEP_CAP, minimum=1), _SEED,
    Setting("parallelism", "int", 1, minimum=1),
    _OVERWRITE,
)

COMMANDS: dict[str, tuple[Callable[[argparse.Namespace], int], str, tuple[Setting, ...]]] = {
    "fixture": (cmd_fixture, "write synthetic fixture CSVs", (
        _OUT, _CITIES,
        Setting("communities", "int", 220, minimum=1),
        Setting("pois", "int", 160, minimum=1),
        _SEED,
    )),
    "ingest": (cmd_ingest, "create a store from fixture CSVs", (
        Setting("fixtures", required=True),
        Setting("store", "outfile", required=True),
        _CITIES,
        Setting("poi_radius", "number", 3000.0),
        Setting("community_radius", "number", 1000.0),
        _SEED, _OVERWRITE,
    )),
    "pairs": (
        cmd_pairs,
        "count the proximity pairs (views made at ingest), by a latitude-strip sweep",
        (_STORE,),
    ),
    "generate": (cmd_generate, "generate a validated dataset", (
        _STORE, Setting("out", "outfile", required=True),
        Setting("cache", "outfile", required=True),
        _TEMPLATES, Setting("report", "outfile"), _SEED,
        Setting("per_template", "int", 50, minimum=1),
    )),
    "validate": (cmd_validate, "re-verify every instance's supervision", (
        _STORE, _CACHE, _DATASET, _TEMPLATES,
    )),
    "split": (cmd_split, "stratified 8:1:1 split", (
        _DATASET, Setting("out_dir", "outdir", required=True), _SEED,
    )),
    "run": (cmd_run, "run agent episodes over a dataset", _SUITE),
    "eval": (cmd_eval, "recompute metrics from persisted transcripts", (
        Setting("run", required=True), _DATASET,
    )),
    "ablate": (
        cmd_ablate,
        "sweep the GT-injection ladder",
        tuple(setting for setting in _SUITE if setting.name != "inject"),
    ),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="estateqa",
        description="Deterministic real-estate QA benchmark and agent harness",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, help_text, settings) in COMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        for setting in settings:
            if setting.kind == "flag":
                # None, not False, when absent, so that the config file is read
                p.add_argument(_flag(setting.name), action="store_true", default=None)
            else:
                p.add_argument(
                    _flag(setting.name),
                    type={"int": int, "number": float}.get(setting.kind),
                    choices=setting.choices if setting.kind == "text" and setting.choices else None,
                )
        p.add_argument("--config", help="JSON file supplying defaults for any flag")
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    handler, _, settings = COMMANDS[args.command]
    try:
        config = _load_config_file(args.config)
        opts = argparse.Namespace(
            **{s.name: _resolve(s, getattr(args, s.name), config) for s in settings}
        )
        return handler(opts)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except TemplateError as exc:
        print(f"error: cannot load templates: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (IngestError, MalformedRecordError) as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
