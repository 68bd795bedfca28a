"""Synthetic fixture generation: city-clustered communities and POIs.

Stand-in for real listing and map data, which is out of reach here. Points
scatter around a per-city center inside a few-kilometer box so that proximity
pairs and walkable distances actually occur. Output is byte-stable for a
given (config, sizes) pair. POI labels cycle through the fixed taxonomy of
``store.POI_TAXONOMY``. The cost is linear in the number of entities: each
name list is built once, and a repeated name takes its next ` No.k` suffix
from a counter.
"""

from __future__ import annotations

import csv
import random
from pathlib import Path

from .store import FAMILY_COLUMNS, LABEL_CATEGORY, POI_LABELS, StoreConfig, city_slug

# Approximate metro centers; unknown cities fall back to a seeded location.
CITY_CENTERS = {
    "Beijing": (39.904, 116.407),
    "Guangzhou": (23.129, 113.264),
    "Shenzhen": (22.543, 114.058),
    "Suzhou": (31.299, 120.585),
    "Hangzhou": (30.274, 120.155),
    "Wuhan": (30.593, 114.306),
    "Nanjing": (32.060, 118.797),
    "Tianjin": (39.343, 117.362),
}

_ADJECTIVES = (
    "Jade", "Golden", "Harmony", "Riverside", "Sunshine", "Lakeview", "Phoenix",
    "Royal", "Silver", "Evergreen", "Crystal", "Grand", "Azure", "Fortune",
    "Spring", "Orchid", "Lotus", "Bamboo", "Maple", "Willow", "Osmanthus",
    "Peony", "Magnolia", "Starlight", "Cloudgate", "Brightwater", "Stonebridge",
    "Redhill", "Greenfield", "Pearl",
)
_COMMUNITY_SUFFIXES = (
    "Court", "Garden", "Residence", "Mansion", "Villa Park", "Estate",
    "Towers", "Terrace", "Bay", "Heights",
)
_COMMUNITY_NAMES = tuple(f"{a} {s}" for a in _ADJECTIVES for s in _COMMUNITY_SUFFIXES)
_DISTRICT_STEMS = ("North", "South", "East", "West", "Lakeside", "Old Town", "Harbor", "Hilltop")
_STREETS = ("Peace", "Unity", "Victory", "Prosperity", "Camphor", "Ginkgo", "Plane Tree", "Canal")

_PROPERTY_TYPES = ("second-hand property", "new home", "villa", "apartment")
_SALES_STATUSES = ("on sale", "sold out", "pre-sale")

_POI_NAMES = {label: tuple(f"{a} {label.title()}" for a in _ADJECTIVES) for label in POI_LABELS}


def city_center(city: str, seed: int) -> tuple[float, float]:
    if city in CITY_CENTERS:
        return CITY_CENTERS[city]
    rng = random.Random(f"center:{seed}:{city}")
    return round(rng.uniform(20.0, 45.0), 3), round(rng.uniform(100.0, 125.0), 3)


def _unique_name(rng: random.Random, names: tuple[str, ...], drawn: dict[str, int]) -> str:
    """Draw a base name; its k-th draw in a city is named `base No.k` (k >= 2).
    No base contains ` No.`, so no two draws give one name."""
    base = rng.choice(names)
    drawn[base] = k = drawn.get(base, 0) + 1
    return base if k == 1 else f"{base} No.{k}"


def write_fixture(
    config: StoreConfig,
    out_dir: str | Path,
    communities_per_city: int = 220,
    pois_per_city: int = 160,
) -> list[Path]:
    """Write communities/pois CSVs for every configured city; returns the paths."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []
    for city in config.cities:
        rng = random.Random(f"fixture:{config.fixture_seed}:{city}")
        slug = city_slug(city)
        lat0, lon0 = city_center(city, config.fixture_seed)
        districts = [f"{stem} District" for stem in _DISTRICT_STEMS[:4]]
        drawn: dict[str, int] = {}
        com_path = out_dir / f"communities_{slug}.csv"
        with open(com_path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(FAMILY_COLUMNS["community"])
            for i in range(communities_per_city):
                name = _unique_name(rng, _COMMUNITY_NAMES, drawn)
                district = rng.choice(districts)
                lat = round(lat0 + rng.uniform(-0.030, 0.030), 6)
                lon = round(lon0 + rng.uniform(-0.030, 0.030), 6)
                writer.writerow(
                    [
                        f"c-{slug}-{i:04d}",
                        city,
                        name,
                        district,
                        f"{rng.randint(1, 200)} {rng.choice(_STREETS)} Road, {district}, {city}",
                        lat,
                        lon,
                        round(rng.uniform(10.0, 60.0), 1),
                        float(rng.randint(8_000, 80_000)),
                        rng.choice(_PROPERTY_TYPES),
                        rng.choice(_SALES_STATUSES),
                    ]
                )
        written.append(com_path)

        poi_path = out_dir / f"pois_{slug}.csv"
        with open(poi_path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(FAMILY_COLUMNS["poi"])
            for i in range(pois_per_city):
                # cycle labels so every label has coverage, then shuffle position
                label = POI_LABELS[i % len(POI_LABELS)]
                category = LABEL_CATEGORY[label]
                name = _unique_name(rng, _POI_NAMES[label], drawn)
                lat = round(lat0 + rng.uniform(-0.030, 0.030), 6)
                lon = round(lon0 + rng.uniform(-0.030, 0.030), 6)
                writer.writerow([f"p-{slug}-{i:04d}", city, name, category, label, lat, lon])
        written.append(poi_path)
    return written
