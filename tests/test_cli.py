"""CLI pipeline: command round-trips, exit codes, idempotence."""

from __future__ import annotations

import argparse
import json
import os
import re
import shlex
import shutil
import sqlite3
from contextlib import closing
from dataclasses import asdict
from functools import partial
from pathlib import Path

import pytest

from estateqa import cli, evaluator
from estateqa.backends import parse_task_header
from estateqa.cli import _flag, build_parser, main
from estateqa.domain import decode, read_instances, read_json_lines
from estateqa.slu import build_fewshot_pool
from estateqa.store import GeoStore, StoreConfig
from estateqa.supervisor import EpisodeTranscript
from estateqa.templates import DEFAULT_TEMPLATE_DICTS

CITIES = "Guangzhou,Suzhou"


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """A fully-built pipeline directory shared by the read-only CLI tests."""
    root = tmp_path_factory.mktemp("cli")
    assert main(["fixture", "--out", str(root / "fx"), "--cities", CITIES,
                 "--communities", "80", "--pois", "60", "--seed", "7"]) == 0
    assert main(["ingest", "--fixtures", str(root / "fx"), "--store", str(root / "store.db"),
                 "--cities", CITIES, "--seed", "7"]) == 0
    assert main(["pairs", "--store", str(root / "store.db")]) == 0
    assert main(["generate", "--store", str(root / "store.db"),
                 "--out", str(root / "dataset.jsonl"), "--cache", str(root / "cache.jsonl"),
                 "--seed", "11", "--per-template", "6",
                 "--report", str(root / "genreport.json")]) == 0
    assert main(["split", "--dataset", str(root / "dataset.jsonl"),
                 "--out-dir", str(root / "splits"), "--seed", "3"]) == 0
    return root


def test_pairs_prints_the_pair_counts(workdir, capsys):
    assert main(["pairs", "--store", str(workdir / "store.db")]) == 0
    out = capsys.readouterr().out
    assert re.fullmatch(r"built \d+ poi_community and \d+ community_community pairs\n", out)
    # the pattern perfbench/run.py reads the counts with
    counts = [int(n) for n in re.search(r"built (\d+) poi_community and (\d+)", out).groups()]
    with closing(sqlite3.connect(workdir / "store.db")) as conn:
        expected = [
            sum(
                conn.execute(f"SELECT COUNT(*) FROM {family}_{city.casefold()}").fetchone()[0]
                for city in CITIES.split(",")
            )
            for family in ("poi_community", "community_community")
        ]
    assert counts == expected and min(counts) > 0


def test_validate_ok(workdir):
    assert main(["validate", "--store", str(workdir / "store.db"),
                 "--cache", str(workdir / "cache.jsonl"),
                 "--dataset", str(workdir / "dataset.jsonl")]) == 0


def test_generate_idempotent(workdir, tmp_path):
    out = tmp_path / "again.jsonl"
    cache = tmp_path / "again_cache.jsonl"
    assert main(["generate", "--store", str(workdir / "store.db"), "--out", str(out),
                 "--cache", str(cache), "--seed", "11", "--per-template", "6"]) == 0
    assert out.read_bytes() == (workdir / "dataset.jsonl").read_bytes()
    assert cache.read_bytes() == (workdir / "cache.jsonl").read_bytes()


def test_split_deterministic(workdir, tmp_path):
    assert main(["split", "--dataset", str(workdir / "dataset.jsonl"),
                 "--out-dir", str(tmp_path / "splits2"), "--seed", "3"]) == 0
    for name in ("train", "val", "test"):
        assert (tmp_path / "splits2" / f"{name}.jsonl").read_bytes() == (
            workdir / "splits" / f"{name}.jsonl"
        ).read_bytes()


def test_oracle_run_and_eval(workdir, tmp_path):
    run_dir = tmp_path / "run"
    assert main(["run", "--store", str(workdir / "store.db"),
                 "--cache", str(workdir / "cache.jsonl"),
                 "--dataset", str(workdir / "splits" / "test.jsonl"),
                 "--out", str(run_dir), "--backend", "oracle", "--inject", "slu,sql,api"]) == 0
    report = json.loads((run_dir / "report.json").read_text())
    assert report["overall"]["acc"] == 1.0
    assert (run_dir / "transcripts.jsonl").exists()
    assert main(["eval", "--run", str(run_dir),
                 "--dataset", str(workdir / "splits" / "test.jsonl")]) == 0
    recomputed = json.loads((run_dir / "eval.json").read_text())
    assert recomputed["overall"] == report["overall"]
    assert recomputed["trace"] == report["trace"]


@pytest.mark.parametrize("settings", [
    [],
    ["--inject", "slu"],
    ["--inject", "sql,api", "--step-cap", "9", "--seed", "5"],
    ["--slu", "fewshot", "--fewshot-pool", "splits/train.jsonl"],
], ids=["default", "inject_slu", "inject_sql_api", "fewshot"])
def test_eval_of_a_run_equals_its_report(workdir, tmp_path, settings):
    """`eval` takes the run's settings from its report.json, so it writes the
    same bytes back as eval.json."""
    run_dir = tmp_path / "run"
    test_split = str(workdir / "splits" / "test.jsonl")
    settings = [str(workdir / s) if s.endswith(".jsonl") else s for s in settings]
    assert main(["run", "--store", str(workdir / "store.db"),
                 "--cache", str(workdir / "cache.jsonl"), "--dataset", test_split,
                 "--out", str(run_dir), "--backend", "oracle", *settings]) == 0
    lines = [json.loads(line) for line in
             (run_dir / "transcripts.jsonl").read_text(encoding="utf-8").splitlines()]
    injected_slu = "slu" in settings
    if injected_slu:
        assert all(line["slu"] is None for line in lines)
    else:
        assert all(line["slu"]["intents"] for line in lines)
    assert main(["eval", "--run", str(run_dir), "--dataset", test_split]) == 0
    report = json.loads((run_dir / "report.json").read_text())
    assert (report["slu"] is None) == injected_slu
    assert report["config"]["slu_strategy"] == ("fewshot" if "fewshot" in settings else "lexicon")
    assert (run_dir / "eval.json").read_bytes() == (run_dir / "report.json").read_bytes()


def test_eval_ignores_run_settings_of_a_shared_config_file(finished_run, workdir, tmp_path):
    """A config file shared with `run` may set `inject`, `step_cap` and
    `seed`; `eval` ignores them and keeps the settings of report.json."""
    for name in ("transcripts.jsonl", "report.json"):
        shutil.copy(finished_run / name, tmp_path)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"inject": "slu", "step_cap": 3, "seed": 9}))
    assert main(["eval", "--config", str(config), "--run", str(tmp_path),
                 "--dataset", str(workdir / "splits" / "test.jsonl")]) == 0
    assert (tmp_path / "eval.json").read_bytes() == (tmp_path / "report.json").read_bytes()


def test_eval_without_a_report_is_config_error(finished_run, workdir, tmp_path, capsys):
    shutil.copy(finished_run / "transcripts.jsonl", tmp_path)
    assert main(["eval", "--run", str(tmp_path),
                 "--dataset", str(workdir / "splits" / "test.jsonl")]) == 2
    err = capsys.readouterr().err
    assert f"{tmp_path / 'report.json'} does not exist" in err and "Traceback" not in err
    assert not (tmp_path / "eval.json").exists()


@pytest.mark.parametrize("content, detail", [
    ('{"config": {"step_cap": "x"}}', "RecordTypeError: config.step_cap: expected int, got str"),
    ('{"config": {"inject_sql": 1}}', "RecordTypeError: config.inject_sql: expected bool, got int"),
    ('{"config": []}', "RecordTypeError: config: expected dict, got list"),
    ('{"overall": {}}', "KeyError: 'config'"),
    ("[1]", "TypeError: list indices must be integers"),
    ("not json", "JSONDecodeError: "),
], ids=["step_cap", "inject_sql", "config_list", "no_config", "not_object", "not_json"])
def test_eval_of_a_malformed_report_is_validation_failure(
    finished_run, workdir, tmp_path, capsys, content, detail
):
    """A report.json that does not parse, or whose config holds a value of
    the wrong type, exits 1 naming the file and the field, with no traceback."""
    shutil.copy(finished_run / "transcripts.jsonl", tmp_path)
    (tmp_path / "report.json").write_text(content, encoding="utf-8")
    assert main(["eval", "--run", str(tmp_path),
                 "--dataset", str(workdir / "splits" / "test.jsonl")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"validation error: {tmp_path / 'report.json'}: {detail}")
    assert "Traceback" not in err and not (tmp_path / "eval.json").exists()


def test_run_dir_append_only(workdir, tmp_path):
    run_dir = tmp_path / "run"
    args = ["run", "--store", str(workdir / "store.db"),
            "--cache", str(workdir / "cache.jsonl"),
            "--dataset", str(workdir / "splits" / "test.jsonl"),
            "--out", str(run_dir), "--backend", "oracle", "--inject", "slu,sql,api"]
    assert main(args) == 0
    assert main(args) == 2  # refuses to clobber
    assert main(args + ["--overwrite"]) == 0


@pytest.mark.parametrize("command", ["run", "ablate"])
@pytest.mark.parametrize("fault", ["truncated_dataset", "http_without_endpoint"])
def test_non_empty_run_dir_is_reported_before_set_up(workdir, tmp_path, capsys, command, fault):
    run_dir = tmp_path / "run"
    run_dir.mkdir()
    (run_dir / "kept").write_bytes(b"kept")
    dataset = workdir / "splits" / "test.jsonl"
    if fault == "truncated_dataset":
        dataset = tmp_path / "truncated.jsonl"
        dataset.write_bytes((workdir / "splits" / "test.jsonl").read_bytes()[:300])
    argv = [command, "--store", str(workdir / "store.db"), "--cache", str(workdir / "cache.jsonl"),
            "--dataset", str(dataset), "--out", str(run_dir),
            "--backend", "oracle" if fault == "truncated_dataset" else "http"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert f"run directory {run_dir} is not empty (use --overwrite)" in err
    assert "Traceback" not in err
    assert [p.name for p in run_dir.iterdir()] == ["kept"]


def test_run_without_backend_is_config_error(workdir, tmp_path):
    assert main(["run", "--store", str(workdir / "store.db"),
                 "--cache", str(workdir / "cache.jsonl"),
                 "--dataset", str(workdir / "splits" / "test.jsonl"),
                 "--out", str(tmp_path / "r")]) == 2


def test_unknown_inject_stage_is_config_error(workdir, tmp_path):
    assert main(["run", "--store", str(workdir / "store.db"),
                 "--cache", str(workdir / "cache.jsonl"),
                 "--dataset", str(workdir / "splits" / "test.jsonl"),
                 "--out", str(tmp_path / "r2"), "--backend", "oracle",
                 "--inject", "slu,everything"]) == 2


def test_http_backend_requires_endpoint(workdir, tmp_path):
    assert main(["run", "--store", str(workdir / "store.db"),
                 "--cache", str(workdir / "cache.jsonl"),
                 "--dataset", str(workdir / "splits" / "test.jsonl"),
                 "--out", str(tmp_path / "r3"), "--backend", "http"]) == 2
    assert not (tmp_path / "r3").exists()  # the run directory is made after set-up


def test_unreachable_http_backend_exits_backend_failure(workdir, tmp_path):
    assert main(["run", "--store", str(workdir / "store.db"),
                 "--cache", str(workdir / "cache.jsonl"),
                 "--dataset", str(workdir / "splits" / "test.jsonl"),
                 "--out", str(tmp_path / "r4"), "--backend", "http",
                 "--endpoint", "http://127.0.0.1:9/unreachable",
                 "--model", "m"]) == 3


@pytest.mark.parametrize("statement, error", [
    ("SELECT '\ud800'", "surrogates not allowed"),
    ("SELECT CAST(name AS BLOB) AS name, latitude, longitude FROM community_guangzhou LIMIT 1",
     "column name holds a BLOB"),
], ids=["lone_surrogate", "blob"])
def test_run_survives_agent_sql_that_fails_to_execute(
    workdir, tmp_path, monkeypatch, capsys, statement, error
):
    """Agent SQL with a lone surrogate (a model reply can carry one through
    the JSON escape \\ud800), or whose result holds a BLOB, fails as an error
    result. The run goes on and writes its report, and its transcripts keep
    the statement as written and read back for `eval`."""
    build_backend = cli._build_backend

    class FixedSql:
        def __init__(self, oracle):
            self.oracle = oracle

        def complete(self, system_prompt, messages):
            if parse_task_header(messages).get("task") == "generate_sql":
                return f"```sql\n{statement}\n```"
            return self.oracle.complete(system_prompt, messages)

    monkeypatch.setattr(cli, "_build_backend", lambda *args: FixedSql(build_backend(*args)))
    out = tmp_path / "run"
    test_split = str(workdir / "splits" / "test.jsonl")
    assert main(["run", "--store", str(workdir / "store.db"),
                 "--cache", str(workdir / "cache.jsonl"), "--dataset", test_split,
                 "--out", str(out), "--backend", "oracle"]) == 0
    report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    transcripts = list(read_json_lines(out / "transcripts.jsonl",
                                       partial(decode, EpisodeTranscript)))
    assert len(transcripts) == report["episodes"] > 0
    sql = [p for t in transcripts for p in t.sql_candidates]
    assert sql and all(p["statement"] == statement for p in sql)
    assert all(p["ok"] is False and error in p["error"] for p in sql)
    assert main(["eval", "--run", str(out), "--dataset", test_split]) == 0
    assert "Traceback" not in capsys.readouterr().err


def test_validate_catches_tampering(workdir, tmp_path):
    lines = (workdir / "dataset.jsonl").read_text().splitlines()
    record = json.loads(lines[0])
    record["answer"] = {"kind": "text", "text": "tampered"}
    tampered = tmp_path / "tampered.jsonl"
    tampered.write_text("\n".join([json.dumps(record)] + lines[1:]) + "\n")
    assert main(["validate", "--store", str(workdir / "store.db"),
                 "--cache", str(workdir / "cache.jsonl"),
                 "--dataset", str(tampered)]) == 1


@pytest.mark.parametrize("damaged", ["cache", "dataset", "transcripts", "repeated_question"])
def test_validate_truncated_input_is_validation_failure(workdir, tmp_path, capsys, damaged):
    paths = {name: workdir / f"{name}.jsonl" for name in ("cache", "dataset")}
    test_split = str(workdir / "splits" / "test.jsonl")
    run_dir = tmp_path / "run"
    if damaged == "transcripts":
        assert main(["run", "--store", str(workdir / "store.db"),
                     "--cache", str(paths["cache"]), "--dataset", test_split,
                     "--out", str(run_dir), "--backend", "oracle", "--inject", "slu,sql,api"]) == 0
        truncated = run_dir / "transcripts.jsonl"
        truncated.write_bytes(truncated.read_bytes()[:300])
        argv = ["eval", "--run", str(run_dir), "--dataset", test_split]
    elif damaged == "repeated_question":
        # the oracle keys gold by question text; an injected specialist asks it
        lines = Path(test_split).read_text().splitlines(keepends=True)
        repeated = tmp_path / "repeated.jsonl"
        repeated.write_text("".join(lines + lines[:1]))
        argv = ["run", "--store", str(workdir / "store.db"), "--cache", str(paths["cache"]),
                "--dataset", str(repeated), "--out", str(run_dir), "--backend", "http",
                "--endpoint", "http://127.0.0.1:9/unreachable", "--model", "m",
                "--inject", "sql"]
        question = json.loads(lines[0])["question"]
    else:
        truncated = paths[damaged] = tmp_path / f"{damaged}.jsonl"
        truncated.write_bytes((workdir / f"{damaged}.jsonl").read_bytes()[:300])
        argv = ["validate", "--store", str(workdir / "store.db"),
                "--cache", str(paths["cache"]), "--dataset", str(paths["dataset"])]
    assert main(argv) == 1
    err = capsys.readouterr().err
    if damaged == "repeated_question":
        assert err.startswith("validation error:") and repr(question) in err
        assert "Traceback" not in err and not run_dir.exists()  # no episode ran
    else:
        assert f"{truncated}:1:" in err


@pytest.mark.parametrize("null_line, differing_line", [(3, 3), (1, 2)])
def test_eval_refuses_lines_with_and_without_slu(
    workdir, finished_run, tmp_path, capsys, null_line, differing_line
):
    """A transcript whose lines differ in carrying an SLU prediction exits 1,
    naming the first line that differs from line 1, with no traceback."""
    source = finished_run / "transcripts.jsonl"
    records = [json.loads(line) for line in source.read_text(encoding="utf-8").splitlines()]
    assert len(records) > 3 and all(record["slu"] for record in records)
    records[null_line - 1]["slu"] = None
    path = tmp_path / source.name
    path.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
    shutil.copy(finished_run / "report.json", tmp_path)
    test_split = str(workdir / "splits" / "test.jsonl")
    assert main(["eval", "--run", str(tmp_path), "--dataset", test_split]) == 1
    err = capsys.readouterr().err
    assert err.startswith("validation error:") and "Traceback" not in err
    assert f"{path}:{differing_line}: ValueError: slu is " in err
    assert not (tmp_path / "eval.json").exists()


def _set(path, value):
    """A change to a record that sets the value at ``path`` (keys and indexes)."""

    def change(record):
        for step in path[:-1]:
            record = record[step]
        record[path[-1]] = value

    return change


@pytest.mark.parametrize(
    "command, damaged, change, field",
    [
        ("split", "dataset", _set(["id"], 7), "id"),
        ("run", "dataset", _set(["id"], 7), "id"),
        ("run", "dataset", _set(["sql_trace", 0, "expected_rows"], [[[1]]]),
         "sql_trace[0].expected_rows[0][0]"),
        ("eval", "transcripts", _set(["dispatches", 0, "evidence"], 5), "dispatches[0].evidence"),
        ("eval", "transcripts", _set(["failure"], ["x"]), "failure"),
        ("eval", "transcripts", _set(["final_answer"], {"kind": "entity_set", "entities": "abc"}),
         "final_answer.entities"),
        ("validate", "cache", _set(["bucket"], [1]), "bucket"),
        ("validate", "cache", _set(["params", "mode"], [1]), "params.mode"),
    ],
    ids=["split-id", "run-id", "run-row_cell", "eval-evidence", "eval-failure",
         "eval-entities_string", "validate-bucket", "validate-param"],
)
def test_wrong_json_type_is_validation_failure(
    workdir, finished_run, tmp_path, capsys, command, damaged, change, field
):
    """A record with one value of the wrong JSON type exits 1, naming the
    file, line and field, with no traceback."""
    test_split = workdir / "splits" / "test.jsonl"
    source = {"dataset": test_split, "cache": workdir / "cache.jsonl",
              "transcripts": finished_run / "transcripts.jsonl"}[damaged]
    path = tmp_path / source.name
    lines = source.read_text(encoding="utf-8").splitlines(keepends=True)
    record = json.loads(lines[0])
    change(record)
    path.write_text(json.dumps(record) + "\n" + "".join(lines[1:]), encoding="utf-8")
    if damaged == "transcripts":
        shutil.copy(finished_run / "report.json", tmp_path)
    dataset = path if damaged == "dataset" else test_split
    cache = path if damaged == "cache" else workdir / "cache.jsonl"
    store = ["--store", str(workdir / "store.db")]
    argv = {
        "split": ["split", "--dataset", str(dataset), "--out-dir", str(tmp_path / "splits")],
        "run": ["run", *store, "--cache", str(cache), "--dataset", str(dataset),
                "--out", str(tmp_path / "run"), "--backend", "oracle"],
        "eval": ["eval", "--run", str(tmp_path), "--dataset", str(dataset)],
        "validate": ["validate", *store, "--cache", str(cache), "--dataset", str(dataset)],
    }[command]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("validation error:") and "Traceback" not in err
    assert f"{path}:1: RecordTypeError: {field}: expected " in err


def test_ingest_refuses_existing_store(workdir, tmp_path):
    assert main(["ingest", "--fixtures", str(workdir / "fx"),
                 "--store", str(workdir / "store.db"), "--cities", CITIES]) == 2


def test_ingest_malformed_fixture(tmp_path):
    fx = tmp_path / "fx"
    fx.mkdir()
    (fx / "communities_testville.csv").write_text(
        "id,city,name,district,address,latitude,longitude,greening_rate,avg_price,"
        "property_type,sales_status\n"
        "c0,Testville,A,D,Addr,95.0,113.0,30,1000,villa,on sale\n"
    )
    (fx / "pois_testville.csv").write_text("id,city,name,category,label,latitude,longitude\n")
    assert main(["ingest", "--fixtures", str(fx), "--store", str(tmp_path / "s.db"),
                 "--cities", "Testville"]) == 1


def test_missing_store_is_config_error(tmp_path):
    assert main(["pairs", "--store", str(tmp_path / "missing.db")]) == 2


@pytest.mark.parametrize(
    "config_text",
    [
        "not json",
        json.dumps({"cities": ["A"]}),
        json.dumps({**asdict(StoreConfig(cities=("A",))), "colour": "blue"}),
        json.dumps({**asdict(StoreConfig(cities=("A",))), "cities": "AB"}),
        json.dumps({**asdict(StoreConfig(cities=("A",))), "poi_pairing_radius": "3000"}),
    ],
    ids=["non_json", "missing_key", "unknown_key", "cities_string", "radius_string"],
)
def test_corrupt_store_config_is_validation_failure(tmp_path, capsys, config_text):
    path = tmp_path / "store.db"
    GeoStore(StoreConfig(cities=("A",)), path).close()
    conn = sqlite3.connect(path)
    conn.execute("UPDATE _meta SET value = ? WHERE key = 'config'", (config_text,))
    conn.commit()
    conn.close()
    assert main(["pairs", "--store", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("validation error:") and "Traceback" not in err
    assert str(path) in err


def _template_dir(tmp_path, case):
    directory = tmp_path / "templates"
    directory.mkdir()
    doc = dict(DEFAULT_TEMPLATE_DICTS[0])
    if case == "bad_json":
        (directory / "t.json").write_text("{not json")
    elif case == "missing_key":
        del doc["intents"]
        (directory / "t.json").write_text(json.dumps(doc))
    elif case == "schema_violation":
        (directory / "t.json").write_text(json.dumps({**doc, "question_type": 5}))
    return directory


@pytest.mark.parametrize("command", ["generate", "validate", "run"])
@pytest.mark.parametrize("case", ["bad_json", "missing_key", "schema_violation", "empty_dir"])
def test_unloadable_template_dir_is_config_error(workdir, tmp_path, capsys, case, command):
    directory = _template_dir(tmp_path, case)
    inputs = ["--store", str(workdir / "store.db"), "--cache", str(workdir / "cache.jsonl")]
    if command == "generate":
        argv = ["generate", *inputs[:2], "--out", str(tmp_path / "d.jsonl"),
                "--templates", str(directory)]
    elif command == "validate":
        argv = ["validate", *inputs, "--dataset", str(workdir / "dataset.jsonl"),
                "--templates", str(directory)]
    else:  # here the config file supplies `templates`
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"templates": str(directory)}))
        argv = ["run", *inputs, "--dataset", str(workdir / "splits" / "test.jsonl"),
                "--out", str(tmp_path / "r"), "--backend", "oracle", "--config", str(config)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot load templates:")
    assert str(directory if case == "empty_dir" else directory / "t.json") in err


@pytest.mark.parametrize("command", ["run", "ablate"])
def test_step_cap_below_one_is_config_error(workdir, tmp_path, capsys, command):
    assert main([command, "--store", str(workdir / "store.db"),
                 "--cache", str(workdir / "cache.jsonl"),
                 "--dataset", str(workdir / "splits" / "test.jsonl"),
                 "--out", str(tmp_path / "r"), "--backend", "oracle",
                 "--step-cap", "0"]) == 2
    assert "step_cap must be >= 1" in capsys.readouterr().err


@pytest.fixture(scope="module")
def finished_run(workdir):
    """A run directory for `eval` to read."""
    run_dir = workdir / "finished_run"
    assert main(["run", "--store", str(workdir / "store.db"),
                 "--cache", str(workdir / "cache.jsonl"),
                 "--dataset", str(workdir / "splits" / "test.jsonl"), "--out", str(run_dir),
                 "--backend", "oracle", "--inject", "sql,api"]) == 0
    return run_dir


def _valid_settings(workdir, tmp_path, command):
    """Settings with which `command` succeeds, writing only under `tmp_path`."""
    store, cache = str(workdir / "store.db"), str(workdir / "cache.jsonl")
    dataset, test_split = str(workdir / "dataset.jsonl"), str(workdir / "splits" / "test.jsonl")
    out = str(tmp_path / "out")
    suite = {"store": store, "cache": cache, "dataset": test_split, "out": out,
             "backend": "oracle", "inject": "sql,api"}
    return {
        "fixture": {"out": out, "cities": CITIES},
        "ingest": {"fixtures": str(workdir / "fx"), "store": out, "cities": CITIES,
                   "overwrite": True},
        "pairs": {"store": store},
        "generate": {"store": store, "out": out, "cache": str(tmp_path / "cache.jsonl")},
        "validate": {"store": store, "cache": cache, "dataset": dataset},
        "split": {"dataset": dataset, "out_dir": out},
        "run": suite,
        "ablate": suite,
        "eval": {"run": str(tmp_path / "run"), "dataset": test_split},
    }[command]


def _assert_config_error(workdir, finished_run, tmp_path, capsys, command, flags, settings,
                         message):
    """`command`, given `flags` and a config file holding `settings` on top of
    valid settings, exits 2 with `message`, no traceback and no output.
    It runs in `tmp_path`, which holds `afile`, a file, and `adir`, an empty
    directory, for the output-path cases."""
    (tmp_path / "afile").write_bytes(b"kept")
    (tmp_path / "adir").mkdir()
    config = tmp_path / "config.json"
    config.write_text(json.dumps(settings))
    valid = _valid_settings(workdir, tmp_path, command)
    argv = [command, "--config", str(config)]
    for key, value in valid.items():
        if key not in settings:  # the config file supplies it
            argv += [_flag(key)] if value is True else [_flag(key), value]
    out = tmp_path / "out"
    if command == "ingest":
        out.write_bytes(b"kept")  # a store that --overwrite would replace
    if command == "eval":
        (tmp_path / "run").mkdir()
        shutil.copy(finished_run / "transcripts.jsonl", tmp_path / "run")
        shutil.copy(finished_run / "report.json", tmp_path / "run")
    cwd = Path.cwd()
    os.chdir(tmp_path)
    try:
        code = main([*argv, *flags])
    except SystemExit as exc:  # argparse refuses a flag value of the wrong type itself
        code = exc.code
    finally:
        os.chdir(cwd)
    err = capsys.readouterr().err
    assert code == 2
    assert message in err and "Traceback" not in err
    assert (tmp_path / "afile").read_bytes() == b"kept" and not any((tmp_path / "adir").iterdir())
    if command == "ingest":
        assert out.read_bytes() == b"kept"
    else:
        assert not out.exists() and not (tmp_path / "cache.jsonl").exists()
        assert not (tmp_path / "run" / "eval.json").exists()


def _bad_values(setting):
    """(flags, config settings, message) cases that give `setting` a bad value:
    one from its flag wherever argparse passes the string on, and one from the
    config file."""
    key, flag, missing = setting.name, _flag(setting.name), "no/such/file.jsonl"
    if setting.kind == "int":
        yield [flag, "x"], {}, f"argument {flag}: invalid int value: 'x'"
        yield [], {key: "x"}, f"{key} must be an integer, got 'x'"
        yield [], {key: True}, f"{key} must be an integer, got True"
        if setting.minimum is not None:
            below = setting.minimum - 1
            yield [flag, str(below)], {}, f"{key} must be >= {setting.minimum}"
            yield [], {key: below}, f"{key} must be >= {setting.minimum}"
    elif setting.kind == "number":
        yield [flag, "-5"], {}, f"{key} must be a positive number, got -5.0"
        yield [], {key: "far"}, f"{key} must be a positive number, got 'far'"
    elif setting.kind == "flag":
        yield [], {key: "yes"}, f"{key} must be true or false, got 'yes'"
    else:
        yield [], {key: 5}, f"{key} must be a string, got 5"
    if setting.kind == "file":
        yield [flag, missing], {}, f"{key} file {missing} does not exist"
        yield [], {key: missing}, f"{key} file {missing} does not exist"
    if setting.kind == "outfile":
        for bad in ("no/dir/out.jsonl", "adir"):
            yield [flag, bad], {}, f"{key} {bad} must be a file in an existing directory"
            yield [], {key: bad}, f"{key} {bad} must be a file in an existing directory"
    if setting.kind == "outdir":
        for bad in ("afile", "afile/sub"):
            made = f"{key} directory {bad} cannot be made: afile is not a directory"
            yield [flag, bad], {}, made
            yield [], {key: bad}, made
    if setting.kind == "list" and setting.required:
        yield [flag, " , "], {}, f"{key} must name at least one value"
        yield [], {key: " , "}, f"{key} must name at least one value"
    if setting.choices:
        bad = "slu,everything" if setting.kind == "list" else "bogus"
        chosen = f"{key} must be one of {', '.join(setting.choices)}"
        if setting.kind == "text":
            yield [flag, bad], {}, f"argument {flag}: invalid choice: 'bogus'"
        else:
            yield [flag, bad], {}, f"{chosen}; got 'everything'"
        yield [], {key: bad}, chosen


def _bad_setting_cases():
    for command, (_, _, settings) in cli.COMMANDS.items():
        for setting in settings:
            for flags, config, message in _bad_values(setting):
                via = "flag" if flags else "config"
                yield pytest.param(command, flags, config, message,
                                   id=f"{command}-{setting.name}-{via}-{message}")
    extra = [
        ("fixture", ["--communities", "-3"], {}, "communities must be >= 1"),
        ("fixture", [], {"cities": ["Guangzhou"]}, "cities must be a string, got ['Guangzhou']"),
        ("ingest", [], {"cities": ["Guangzhou"]}, "cities must be a string, got ['Guangzhou']"),
        ("run", [], {"inject": ["slu"]}, "inject must be a string, got ['slu']"),
        ("run", ["--parallelism", "-1"], {}, "parallelism must be >= 1"),
        ("run", [], {"parallelism": "2"}, "parallelism must be an integer, got '2'"),
        ("run", [], {"seed": "11"}, "seed must be an integer, got '11'"),
        ("pairs", [], {"colour": "blue"}, "has unknown keys: colour"),
        ("pairs", [], ["store"], "must hold a JSON object"),
    ]
    for command, flags, config, message in extra:
        yield pytest.param(command, flags, config, message, id=f"{command}-{message}")


@pytest.mark.parametrize("command, flags, settings, message", _bad_setting_cases())
def test_bad_setting_is_config_error(
    workdir, finished_run, tmp_path, capsys, command, flags, settings, message
):
    """Every typed setting of every command, from its flag and from the config file."""
    _assert_config_error(workdir, finished_run, tmp_path, capsys, command, flags, settings,
                         message)


@pytest.mark.parametrize(
    "flags, settings, message",
    [
        (["--per-template", "0"], {}, "per_template must be >= 1"),
        (["--per-template", "-3"], {}, "per_template must be >= 1"),
        ([], {"per_template": 0}, "per_template must be >= 1"),
        ([], {"per_template": "x"}, "per_template must be an integer, got 'x'"),
        ([], {"seed": "x"}, "seed must be an integer, got 'x'"),
    ],
)
def test_bad_generate_setting_is_config_error(
    workdir, finished_run, tmp_path, capsys, flags, settings, message
):
    _assert_config_error(workdir, finished_run, tmp_path, capsys, "generate", flags, settings,
                         message)


@pytest.mark.parametrize(
    "command, flags, settings, message",
    [
        ("fixture", ["--seed", "x"], {}, "argument --seed: invalid int value: 'x'"),
        ("fixture", [], {"seed": "x"}, "seed must be an integer, got 'x'"),
        ("fixture", [], {"communities": "many"}, "communities must be an integer, got 'many'"),
        ("fixture", [], {"pois": 1.5}, "pois must be an integer, got 1.5"),
        ("ingest", ["--seed", "x"], {}, "argument --seed: invalid int value: 'x'"),
        ("ingest", [], {"seed": "x"}, "seed must be an integer, got 'x'"),
        ("ingest", ["--poi-radius", "-5"], {}, "poi_radius must be a positive number"),
        ("ingest", ["--community-radius", "nan"], {}, "community_radius must be a positive"),
        ("ingest", [], {"poi_radius": "far"}, "poi_radius must be a positive number"),
        ("ingest", [], {"community_radius": 0}, "community_radius must be a positive number"),
        ("split", ["--seed", "x"], {}, "argument --seed: invalid int value: 'x'"),
        ("split", [], {"seed": "x"}, "seed must be an integer, got 'x'"),
    ],
)
def test_bad_build_setting_is_config_error(
    workdir, finished_run, tmp_path, capsys, command, flags, settings, message
):
    _assert_config_error(workdir, finished_run, tmp_path, capsys, command, flags, settings,
                         message)


@pytest.mark.parametrize("content", [b"not json", b"\xff{}"], ids=["non_json", "non_utf8"])
def test_unreadable_config_file_is_config_error(workdir, tmp_path, capsys, content):
    config = tmp_path / "config.json"
    config.write_bytes(content)
    assert main(["pairs", "--config", str(config), "--store", str(workdir / "store.db")]) == 2
    err = capsys.readouterr().err
    assert f"cannot read config file {config}" in err and "Traceback" not in err


def test_config_key_of_another_command_is_ignored(workdir, tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"store": str(workdir / "store.db"), "cities": "Elsewhere"}))
    assert main(["pairs", "--config", str(config)]) == 0


def test_config_file_overwrite_replaces_the_store(workdir, tmp_path, capsys):
    store = tmp_path / "store.db"
    store.write_bytes(b"old")
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"overwrite": True}))
    argv = ["ingest", "--fixtures", str(workdir / "fx"), "--store", str(store), "--cities", CITIES]
    assert main(argv) == 2
    assert "exists (use --overwrite)" in capsys.readouterr().err
    assert main([*argv, "--config", str(config)]) == 0
    assert GeoStore.open(str(store)).build_proximity_pairs()["poi_community"] > 0


_FLAGS = {  # every command's flags; --templates is new on run and ablate
    "fixture": "--out --cities --communities --pois --seed",
    "ingest": "--fixtures --store --cities --poi-radius --community-radius --seed --overwrite",
    "pairs": "--store",
    "generate": "--store --out --cache --templates --report --seed --per-template",
    "validate": "--store --cache --dataset --templates",
    "split": "--dataset --out-dir --seed",
    "run": "--store --cache --dataset --out --backend --endpoint --model --key-env --agents"
           " --slu --fewshot-pool --templates --inject --step-cap --seed --parallelism --overwrite",
    "eval": "--run --dataset",
}
_FLAGS["ablate"] = _FLAGS["run"]


def test_every_command_exposes_exactly_its_flags():
    (commands,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    exposed = {
        name: {flag for action in parser._actions for flag in action.option_strings}
        for name, parser in commands.choices.items()
    }
    assert exposed == {
        name: {*flags.split(), "--config", "-h", "--help"} for name, flags in _FLAGS.items()
    }


def test_quick_start_commands_use_declared_flags():
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Quick start", 1)[1].split("```bash", 1)[1].split("```", 1)[0]
    lines = block.replace("\\\n", " ").splitlines()
    documented = [shlex.split(line)[1:] for line in lines if line.startswith("estateqa ")]
    assert [argv[0] for argv in documented] == [
        "fixture", "ingest", "pairs", "generate", "validate", "split", "run", "run", "ablate"
    ]
    parser = build_parser()
    for argv in documented:
        assert parser.parse_args(argv).command == argv[0]
        declared = {_flag(setting.name) for setting in cli.COMMANDS[argv[0]][2]}
        assert {token for token in argv if token.startswith("--")} <= declared, argv


def test_config_file_supplies_defaults(workdir, tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "store": str(workdir / "store.db"),
        "cache": str(workdir / "cache.jsonl"),
        "dataset": str(workdir / "splits" / "test.jsonl"),
    }))
    run_dir = tmp_path / "cfg_run"
    assert main(["run", "--config", str(config), "--out", str(run_dir),
                 "--backend", "oracle", "--inject", "slu,sql,api"]) == 0


def test_ablate_writes_four_reports(workdir, tmp_path):
    out = tmp_path / "ablation"
    assert main(["ablate", "--store", str(workdir / "store.db"),
                 "--cache", str(workdir / "cache.jsonl"),
                 "--dataset", str(workdir / "splits" / "test.jsonl"),
                 "--out", str(out), "--backend", "oracle", "--inject", "sql,api"]) == 0
    names = sorted(p.name for p in out.glob("ablation_*.json"))
    assert names == [
        "ablation_gt_slu.json",
        "ablation_gt_slu_sql.json",
        "ablation_gt_slu_sql_api.json",
        "ablation_none.json",
    ]
    for name in names:
        report = json.loads((out / name).read_text())
        assert report["overall"]["acc"] == 1.0


def test_ablate_fewshot_pool_reaches_every_rung(workdir, tmp_path, monkeypatch):
    pools = []
    run_suite = evaluator.run_suite

    def recording_run_suite(*args, **kwargs):
        pools.append(args[-1])
        return run_suite(*args, **kwargs)

    monkeypatch.setattr(evaluator, "run_suite", recording_run_suite)
    train = workdir / "splits" / "train.jsonl"
    assert main(["ablate", "--store", str(workdir / "store.db"),
                 "--cache", str(workdir / "cache.jsonl"),
                 "--dataset", str(workdir / "splits" / "test.jsonl"),
                 "--out", str(tmp_path / "ablation"), "--backend", "oracle",
                 "--inject", "sql,api", "--slu", "fewshot",
                 "--fewshot-pool", str(train), "--seed", "5"]) == 0
    expected = build_fewshot_pool(list(read_instances(str(train))), seed=5)
    assert expected
    assert pools == [expected] * 4


def test_help_smoke(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["--help"])
    assert exit_info.value.code == 0
    assert "estateqa" in capsys.readouterr().out
