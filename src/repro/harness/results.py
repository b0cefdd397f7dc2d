"""Experiment result container and on-disk persistence.

Every harness function returns an :class:`ExperimentResult`; benchmarks
persist them under ``benchmarks/results/`` (JSON for the structured data,
``.txt`` for the rendered table), one pair per table or figure.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from pathlib import Path

from repro.utils.format import render_table

__all__ = ["ExperimentResult", "results_dir", "save_result"]


@dataclass
class ExperimentResult:
    """Structured output of one regenerated table/figure."""

    experiment_id: str  # e.g. "table4"
    title: str
    headers: list[str]
    rows: list[list[object]]
    # Optional extras: named series (for figures) and free-form scalars.
    series: dict[str, list[float]] = field(default_factory=dict)
    notes: dict[str, object] = field(default_factory=dict)

    def render(self) -> str:
        return render_table(self.headers, self.rows, title=self.title)

    def to_json(self) -> dict:
        return {
            "experiment_id": self.experiment_id,
            "title": self.title,
            "headers": self.headers,
            "rows": [[_jsonable(c) for c in row] for row in self.rows],
            "series": self.series,
            "notes": {k: _jsonable(v) for k, v in self.notes.items()},
        }


def _jsonable(value: object) -> object:
    if hasattr(value, "item"):  # numpy scalar
        return value.item()
    return value


def results_dir() -> Path:
    """Directory for persisted experiment outputs (created on demand).

    Override with the ``REPRO_RESULTS_DIR`` environment variable.
    """
    root = os.environ.get("REPRO_RESULTS_DIR")
    if root is None:
        root = Path(__file__).resolve().parents[3] / "benchmarks" / "results"
    path = Path(root)
    path.mkdir(parents=True, exist_ok=True)
    return path


def save_result(result: ExperimentResult) -> Path:
    """Persist JSON + rendered text; returns the JSON path."""
    out = results_dir()
    json_path = out / f"{result.experiment_id}.json"
    json_path.write_text(json.dumps(result.to_json(), indent=2))
    (out / f"{result.experiment_id}.txt").write_text(result.render() + "\n")
    return json_path
