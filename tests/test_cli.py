"""CLI pipeline: command round-trips, exit codes, idempotence."""

from __future__ import annotations

import json

import pytest

from estateqa import evaluator
from estateqa.cli import main
from estateqa.domain import read_instances
from estateqa.slu import build_fewshot_pool

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
                 "--out", str(run_dir), "--backend", "oracle", "--agents", "oracle",
                 "--inject", "slu"]) == 0
    report = json.loads((run_dir / "report.json").read_text())
    assert report["overall"]["acc"] == 1.0
    assert (run_dir / "transcripts.jsonl").exists()
    assert main(["eval", "--run", str(run_dir),
                 "--dataset", str(workdir / "splits" / "test.jsonl")]) == 0
    recomputed = json.loads((run_dir / "eval.json").read_text())
    assert recomputed["overall"] == report["overall"]
    assert recomputed["trace"] == report["trace"]


def test_run_dir_append_only(workdir, tmp_path):
    run_dir = tmp_path / "run"
    args = ["run", "--store", str(workdir / "store.db"),
            "--cache", str(workdir / "cache.jsonl"),
            "--dataset", str(workdir / "splits" / "test.jsonl"),
            "--out", str(run_dir), "--backend", "oracle", "--agents", "oracle",
            "--inject", "slu"]
    assert main(args) == 0
    assert main(args) == 2  # refuses to clobber
    assert main(args + ["--overwrite"]) == 0


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


def test_unreachable_http_backend_exits_backend_failure(workdir, tmp_path):
    assert main(["run", "--store", str(workdir / "store.db"),
                 "--cache", str(workdir / "cache.jsonl"),
                 "--dataset", str(workdir / "splits" / "test.jsonl"),
                 "--out", str(tmp_path / "r4"), "--backend", "http",
                 "--endpoint", "http://127.0.0.1:9/unreachable",
                 "--model", "m"]) == 3


def test_validate_catches_tampering(workdir, tmp_path):
    lines = (workdir / "dataset.jsonl").read_text().splitlines()
    record = json.loads(lines[0])
    record["answer"] = {"kind": "text", "text": "tampered"}
    tampered = tmp_path / "tampered.jsonl"
    tampered.write_text("\n".join([json.dumps(record)] + lines[1:]) + "\n")
    assert main(["validate", "--store", str(workdir / "store.db"),
                 "--cache", str(workdir / "cache.jsonl"),
                 "--dataset", str(tampered)]) == 1


@pytest.mark.parametrize("damaged", ["cache", "dataset", "transcripts"])
def test_validate_truncated_input_is_validation_failure(workdir, tmp_path, capsys, damaged):
    paths = {name: workdir / f"{name}.jsonl" for name in ("cache", "dataset")}
    if damaged == "transcripts":
        run_dir = tmp_path / "run"
        test_split = str(workdir / "splits" / "test.jsonl")
        assert main(["run", "--store", str(workdir / "store.db"),
                     "--cache", str(paths["cache"]), "--dataset", test_split,
                     "--out", str(run_dir), "--backend", "oracle", "--agents", "oracle",
                     "--inject", "slu"]) == 0
        truncated = run_dir / "transcripts.jsonl"
        truncated.write_bytes(truncated.read_bytes()[:300])
        argv = ["eval", "--run", str(run_dir), "--dataset", test_split]
    else:
        truncated = paths[damaged] = tmp_path / f"{damaged}.jsonl"
        truncated.write_bytes((workdir / f"{damaged}.jsonl").read_bytes()[:300])
        argv = ["validate", "--store", str(workdir / "store.db"),
                "--cache", str(paths["cache"]), "--dataset", str(paths["dataset"])]
    assert main(argv) == 1
    assert f"{truncated}:1:" in capsys.readouterr().err


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


def test_config_file_supplies_defaults(workdir, tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "store": str(workdir / "store.db"),
        "cache": str(workdir / "cache.jsonl"),
        "dataset": str(workdir / "splits" / "test.jsonl"),
    }))
    run_dir = tmp_path / "cfg_run"
    assert main(["run", "--config", str(config), "--out", str(run_dir),
                 "--backend", "oracle", "--agents", "oracle", "--inject", "slu"]) == 0


def test_ablate_writes_four_reports(workdir, tmp_path):
    out = tmp_path / "ablation"
    assert main(["ablate", "--store", str(workdir / "store.db"),
                 "--cache", str(workdir / "cache.jsonl"),
                 "--dataset", str(workdir / "splits" / "test.jsonl"),
                 "--out", str(out), "--backend", "oracle", "--agents", "oracle"]) == 0
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

    def recording_run_suite(*args):
        pools.append(args[-1])
        return run_suite(*args)

    monkeypatch.setattr(evaluator, "run_suite", recording_run_suite)
    train = workdir / "splits" / "train.jsonl"
    assert main(["ablate", "--store", str(workdir / "store.db"),
                 "--cache", str(workdir / "cache.jsonl"),
                 "--dataset", str(workdir / "splits" / "test.jsonl"),
                 "--out", str(tmp_path / "ablation"), "--backend", "oracle",
                 "--agents", "oracle", "--slu", "fewshot",
                 "--fewshot-pool", str(train), "--seed", "5"]) == 0
    expected = build_fewshot_pool(list(read_instances(str(train))), seed=5)
    assert expected
    assert pools == [expected] * 4


def test_help_smoke(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["--help"])
    assert exit_info.value.code == 0
    assert "estateqa" in capsys.readouterr().out
