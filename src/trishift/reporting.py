"""Deterministic report assembly and JSON/CSV emission.

Every report shape is built here, from the analysis value types, as a plain
dict tree whose leaves may still be numpy scalars and arrays.  One walk,
:func:`sanitize`, turns a tree into Python values: numpy values through
``.tolist()``, a complex number as ``[re, im]`` and a non-finite float as
null, its path recorded.  :func:`write_report` writes the sanitized tree as
JSON with sorted keys, the paths listed under an ``errors`` key, or as
sorted ``key,value`` rows of its scalars, the paths as ``errors.<i>`` rows.
Floats are written as their ``repr`` and flags in a CSV cell as ``1``/``0``,
so the same configuration gives the same bytes on every run.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import asdict
from pathlib import Path
from typing import Any, Iterable, Sequence

import numpy as np

from .analysis import CriterionReport, DecompositionResult, EquivalenceDiagnostics
from .sequences import AssumptionReport


def sanitize(tree: Any) -> tuple[Any, list[str]]:
    """Plain Python copy of ``tree``: numpy values through ``.tolist()``,
    tuples as lists, a complex number as ``[re, im]`` and a non-finite float
    as None.  Returns the copy and the paths of the non-finite floats."""
    errors: list[str] = []

    def walk(node: Any, path: str) -> Any:
        if isinstance(node, (np.ndarray, np.generic)):
            node = node.tolist()
        if isinstance(node, complex):
            node = [node.real, node.imag]
        if isinstance(node, float) and not math.isfinite(node):
            errors.append(path)
            return None
        if isinstance(node, dict):
            return {k: walk(v, f"{path}.{k}" if path else str(k)) for k, v in node.items()}
        if isinstance(node, (list, tuple)):
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
        "decomposition": asdict(deco),
    }


def full_report(
    label: str,
    N: int,
    pad: int,
    rep: AssumptionReport,
    crit: CriterionReport,
    diag: EquivalenceDiagnostics,
) -> dict:
    """The check and decompose reports' keys plus the three tail profiles
    and the index; ``pad`` is the effective pad, as in
    :func:`decompose_report`."""
    return {
        **check_report(label, N, rep, crit),
        **decompose_report(label, N, pad, rep, diag.decomposition),
        "profiles": {
            "L_minus_Mstar": diag.tails_ltstar,
            "I_minus_TstarT": diag.tails_itt,
            "I_minus_TTstar": diag.tails_ittstar,
        },
        "index": diag.index_data.index,
        "index_data": asdict(diag.index_data),
    }


def kernel_report(
    label: str,
    N: int,
    pad: int,
    grid: tuple[float, int],
    gram_least_eigenvalue: float | None,
    terms: np.ndarray,
    converged: np.ndarray,
    residuals: Sequence[tuple[float, float]],
) -> dict:
    """Summary of a kernel sweep on the polar ``grid`` (radius, count) and
    of its adjoint residuals; ``pad`` is the effective pad."""
    radius, count = grid
    return {
        "label": label,
        "N": N,
        "pad": pad,
        "grid": {"radius": radius, "count": count},
        "gram_least_eigenvalue": gram_least_eigenvalue,
        "pairs_converged": converged.sum(),
        "pairs_total": converged.size,
        "max_terms_used": terms.max(),
        "max_residual": max(r for r, _ in residuals),
    }


def render_json(tree: Any) -> tuple[str, list[str]]:
    """Sanitize ``tree`` and serialize it with sorted keys, listing the
    non-finite paths under ``errors``; returns the text and the paths."""
    clean, errors = sanitize(tree)
    if errors:
        clean["errors"] = [f"non-finite value at {p}" for p in errors]
    return json.dumps(clean, indent=2, sort_keys=True) + "\n", errors


def _cell(value: Any) -> str:
    # floats fill most cells, so they are tested first; ``value - value`` is
    # 0.0 for a finite float and nan for nan or an infinity
    if type(value) is not float:
        if value is None:
            return ""
        if isinstance(value, bool):
            return "1" if value else "0"
        if not isinstance(value, float):
            return str(value)
        value = float(value)  # plain text for numpy float subclasses
    return repr(value) if value - value == 0.0 else ""


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
    """Write a report tree as JSON or as flattened ``key,value`` CSV."""
    if fmt == "json":
        Path(path).write_text(render_json(tree)[0], encoding="utf-8")
        return
    clean, errors = sanitize(tree)
    rows = flatten_scalars(clean)
    rows.extend((f"errors.{i}", f"non-finite value at {p}") for i, p in enumerate(errors))
    write_csv(path, ["key", "value"], rows)


__all__ = [
    "assumptions_dict",
    "check_report",
    "criterion_dict",
    "decompose_report",
    "flatten_scalars",
    "full_report",
    "kernel_report",
    "render_json",
    "sanitize",
    "write_csv",
    "write_report",
]
