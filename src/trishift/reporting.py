"""Deterministic report assembly and JSON/CSV emission.

Reports are plain dict trees serialized with sorted keys and repr-based float
text, so running the same configuration twice yields byte-identical files.
Non-finite numbers are never serialized: they are replaced by null and the
offending paths recorded under an ``errors`` key.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path
from typing import Any, Iterable, Sequence

import numpy as np

from .analysis import (
    CriterionReport,
    DecompositionResult,
    EquivalenceDiagnostics,
    IndexData,
)
from .sequences import AssumptionReport


def to_jsonable(value: Any) -> Any:
    """Convert numpy scalars/arrays to plain Python containers."""
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, np.bool_):
        return bool(value)
    if isinstance(value, np.ndarray):
        return [to_jsonable(v) for v in value.tolist()]
    if isinstance(value, complex):
        return [value.real, value.imag]
    if isinstance(value, dict):
        return {k: to_jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [to_jsonable(v) for v in value]
    return value


def sanitize(tree: Any) -> tuple[Any, list[str]]:
    """Replace non-finite floats with null, returning the offending paths."""
    errors: list[str] = []

    def walk(node: Any, path: str) -> Any:
        if isinstance(node, float):
            if node != node or node in (float("inf"), float("-inf")):
                errors.append(path)
                return None
            return node
        if isinstance(node, dict):
            return {k: walk(v, f"{path}.{k}" if path else str(k)) for k, v in node.items()}
        if isinstance(node, list):
            return [walk(v, f"{path}[{i}]") for i, v in enumerate(node)]
        return node

    return walk(tree, ""), errors


def assumptions_dict(rep: AssumptionReport) -> dict:
    return {
        "eps_hat": rep.eps_hat,
        "M_hat": rep.m_hat,
        "r_hat": rep.r_hat,
        "n0_hat": rep.n0_hat,
        "tail_window": rep.tail_window,
        "flags": rep.flags(),
    }


def criterion_dict(crit: CriterionReport) -> dict:
    return {
        "verdict": crit.verdict,
        "trailing_max_ratio_dev": crit.trailing_max_ratio_dev,
        "trailing_max_diff_dev": crit.trailing_max_diff_dev,
    }


def decomposition_dict(deco: DecompositionResult) -> dict:
    return {
        "column_decay": to_jsonable(deco.column_decay),
        "isometry_defect": deco.isometry_defect,
        "route": deco.route,
        "margin": deco.margin,
        "s_min": deco.s_min,
    }


def index_data_dict(data: IndexData) -> dict:
    return {
        "dim_ker": data.dim_ker,
        "dim_coker": data.dim_coker,
        "ker_route": data.ker_route,
        "coker_route": data.coker_route,
        "ker_margin": data.ker_margin,
        "coker_margin": data.coker_margin,
    }


def check_report(label: str, N: int, rep: AssumptionReport, crit: CriterionReport) -> dict:
    return {
        "label": label,
        "N": N,
        "assumptions": assumptions_dict(rep),
        "criterion": criterion_dict(crit),
    }


def decompose_report(
    label: str, N: int, pad: int, rep: AssumptionReport, deco: DecompositionResult
) -> dict:
    """``pad`` is the effective pad: the rows past ``N`` that actually ran."""
    return {
        "label": label,
        "N": N,
        "pad": pad,
        "assumptions": assumptions_dict(rep),
        "decomposition": decomposition_dict(deco),
    }


def full_report(
    label: str,
    N: int,
    pad: int,
    rep: AssumptionReport,
    crit: CriterionReport,
    diag: EquivalenceDiagnostics,
) -> dict:
    """``pad`` is the effective pad, as in :func:`decompose_report`."""
    return {
        "label": label,
        "N": N,
        "pad": pad,
        "assumptions": assumptions_dict(rep),
        "criterion": criterion_dict(crit),
        "profiles": {
            "L_minus_Mstar": to_jsonable(diag.tails_ltstar),
            "I_minus_TstarT": to_jsonable(diag.tails_itt),
            "I_minus_TTstar": to_jsonable(diag.tails_ittstar),
        },
        "index": diag.index_data.index,
        "index_data": index_data_dict(diag.index_data),
        "decomposition": decomposition_dict(diag.decomposition),
    }


def render_json(tree: Any) -> tuple[str, list[str]]:
    """Serialize with sorted keys after sanitizing non-finite numbers."""
    clean, errors = sanitize(to_jsonable(tree))
    if errors:
        clean = dict(clean)
        clean["errors"] = [f"non-finite value at {p}" for p in errors]
    return json.dumps(clean, indent=2, sort_keys=True) + "\n", errors


def write_json(tree: Any, path: str | Path) -> list[str]:
    text, errors = render_json(tree)
    Path(path).write_text(text, encoding="utf-8")
    return errors


def _cell(value: Any) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        if value != value or value in (float("inf"), float("-inf")):
            return ""
        return repr(float(value))  # plain text for numpy float subclasses
    return str(value)


def write_csv(path: str | Path, header: Sequence[str], rows: Iterable[Sequence[Any]]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(list(header))
        for row in rows:
            writer.writerow([_cell(v) for v in row])


def flatten_scalars(tree: Any, prefix: str = "") -> list[tuple[str, Any]]:
    """Dotted-path scalar rows for CSV-format reports; arrays are skipped
    (they are emitted to their dedicated CSV files)."""
    rows: list[tuple[str, Any]] = []
    if isinstance(tree, dict):
        for key in sorted(tree):
            sub = f"{prefix}.{key}" if prefix else str(key)
            rows.extend(flatten_scalars(tree[key], sub))
        return rows
    if isinstance(tree, list):
        return rows
    rows.append((prefix, tree))
    return rows


def write_report(tree: Any, path: Path, fmt: str) -> None:
    """Write a report dict as JSON or as flattened key/value CSV."""
    if fmt == "json":
        write_json(tree, path)
        return
    clean, errors = sanitize(to_jsonable(tree))
    rows = flatten_scalars(clean)
    if errors:
        rows.extend((f"errors.{i}", f"non-finite value at {p}") for i, p in enumerate(errors))
    write_csv(path, ["key", "value"], rows)


__all__ = [
    "assumptions_dict",
    "check_report",
    "criterion_dict",
    "decompose_report",
    "decomposition_dict",
    "flatten_scalars",
    "full_report",
    "index_data_dict",
    "render_json",
    "sanitize",
    "to_jsonable",
    "write_csv",
    "write_json",
    "write_report",
]
