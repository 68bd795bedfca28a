"""Fixture generation: the bytes each (config, sizes) pair writes are pinned,
names stay unique per city, and zero POIs writes header-only POI files."""

from __future__ import annotations

import csv
import hashlib
import re
from collections import defaultdict

import pytest

from estateqa.fixtures import write_fixture
from estateqa.store import StoreConfig

# the fixture perfbench's build-M workload writes at seed 1
BUILD_M = (StoreConfig(cities=("Guangzhou", "Suzhou"), fixture_seed=1), 1500, 1200)
# a city without a known center, and 300 POI base names (10 labels of 30) under
# 30,000 POIs per city: each repeats about 100 times per city, so the " No.k"
# suffixes run three digits deep
DENSE = (StoreConfig(cities=("Hangzhou", "Atlantis"), fixture_seed=7), 600, 30000)

PINNED = {
    "build-M": (BUILD_M, {
        "communities_guangzhou.csv":
            "228ee9e83fc27b08c863f178fd6dbc48edb5bc46a49a9bed93a1532a3310321d",
        "pois_guangzhou.csv": "7dbb3633376f820888d191d73d942671e0212c0f5d982220bfaa3257096ea9cb",
        "communities_suzhou.csv":
            "871ebcb31f6838807b97d633911d0219d4996b029eafb078991b2ce99e8f4363",
        "pois_suzhou.csv": "506aed0dae916c3f5ad7b64f6cbb26cdc47afc040a84a5655b9b98747abe2a89",
    }),
    "dense": (DENSE, {
        "communities_hangzhou.csv":
            "58c9a84501608660c04b3d04f4c7310ed1100fb3a9a7b2b728b1812f7b1cfd98",
        "pois_hangzhou.csv": "23ea43cb91a9e752d46c06ec71fb55d3bed6a256054f993dda8aebf49bb5b279",
        "communities_atlantis.csv":
            "624f1ca87de277b51064b8a6b751ec8a188b70106175110880bafdd700766aa3",
        "pois_atlantis.csv": "71924c6db1430b383c4e32764cde1ed9b8c073f6003b63c1fa45dd6b36fe439b",
    }),
}


def _write(tmp_path, case):
    config, communities, pois = case
    return write_fixture(config, tmp_path, communities_per_city=communities, pois_per_city=pois)


@pytest.mark.parametrize("name", sorted(PINNED))
def test_fixture_bytes_are_pinned(tmp_path, name):
    case, expected = PINNED[name]
    paths = _write(tmp_path, case)
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in paths}
    assert digests == expected


@pytest.mark.parametrize("name", sorted(PINNED))
def test_two_writes_give_the_same_bytes(tmp_path, name):
    case, _ = PINNED[name]
    first = {p.name: p.read_bytes() for p in _write(tmp_path / "a", case)}
    second = {p.name: p.read_bytes() for p in _write(tmp_path / "b", case)}
    assert first == second


def test_each_base_name_is_numbered_without_gaps(tmp_path):
    deepest = 0
    for path in _write(tmp_path, DENSE):
        with open(path, encoding="utf-8", newline="") as fh:
            names = [row["name"] for row in csv.DictReader(fh)]
        assert len(set(names)) == len(names)
        numbers = defaultdict(list)
        for name in names:
            base, number = re.fullmatch(r"(.*?)(?: No\.(\d+))?", name).groups()
            numbers[base].append(int(number or 1))
        assert all(n == list(range(1, len(n) + 1)) for n in numbers.values())
        deepest = max(deepest, *map(len, numbers.values()))
    assert deepest > 90


def test_no_pois_writes_header_only_poi_files(tmp_path):
    config = StoreConfig(cities=("Suzhou",))
    paths = write_fixture(config, tmp_path, communities_per_city=3, pois_per_city=0)
    assert [p.name for p in paths] == ["communities_suzhou.csv", "pois_suzhou.csv"]
    assert paths[1].read_text(encoding="utf-8").count("\n") == 1  # the header alone
