"""estateqa: deterministic real-estate geospatial QA benchmark with a
hierarchical supervisor/specialist agent harness and metric suite."""
