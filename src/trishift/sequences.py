"""Coefficient sequences for bandwidth-one kernels and their derived data.

A :class:`SequencePair` materializes two scalar families ``a_0..a_N`` (all
nonzero) and ``b_0..b_N`` on a finite horizon.  From it we derive

* the ratio data ``|a_n/a_{n+1}|`` and ``|b_n/a_{n+1}|`` behind the
  standing-assumption report,
* the coupling coefficients ``c_n = (a_n/a_{n+2})(b_n/a_n - b_{n+1}/a_{n+1})``
  that populate the deep columns of the shift matrix,
* the left-inverse diagonal ``d_{n+1} = b_{n+1}/a_{n+1} - b_n/a_n``, tied to
  ``c_n`` by ``d_{n+1} = -(a_{n+2}/a_n) c_n``.

Every formula is evaluated in ratio form (entrywise quotients of the raw
arrays, never renormalized products), so an exactly representable rescaling
``(a, b) -> (lambda a, lambda b)`` leaves all derived quantities bit-for-bit
unchanged.  All functions are pure; arrays are frozen read-only after
construction.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Union

import numpy as np

from .expr import SequenceExpr, parse_sequence_expr


class SequenceSpecError(ValueError):
    """A sequence-spec document or source is structurally invalid."""


class ZeroCoefficientError(ValueError):
    """An ``a``-coefficient vanished; the family is not admissible."""

    def __init__(self, index: int) -> None:
        super().__init__(f"a[{index}] = 0 violates the nonzero-coefficient assumption")
        self.index = index


class HorizonError(ValueError):
    """An operation asked for sequence data beyond the materialized horizon."""


Source = Union[SequenceExpr, np.ndarray]


def _coerce_explicit(values: object, name: str) -> np.ndarray:
    arr = np.asarray(values, dtype=complex)
    if arr.ndim != 1:
        raise SequenceSpecError(f"explicit {name}-list must be one-dimensional")
    if arr.size < 2:
        raise SequenceSpecError(f"explicit {name}-list needs at least 2 entries")
    if not np.all(np.isfinite(arr)):
        raise SequenceSpecError(f"explicit {name}-list contains non-finite entries")
    return arr


@dataclass(frozen=True)
class CoefficientSpec:
    """Sources for the two coefficient families plus a report label."""

    a_source: Source
    b_source: Source
    label: str = ""

    def __post_init__(self) -> None:
        for name in ("a_source", "b_source"):
            src = getattr(self, name)
            if isinstance(src, SequenceExpr):
                continue
            object.__setattr__(self, name, _coerce_explicit(src, name[0]))

    def available_horizon(self) -> int | None:
        """Largest horizon explicit lists permit; None if unbounded (expressions)."""
        limit: int | None = None
        for src in (self.a_source, self.b_source):
            if isinstance(src, np.ndarray):
                n = src.size - 1
                limit = n if limit is None else min(limit, n)
        return limit


@dataclass(frozen=True)
class SequencePair:
    """Materialized coefficient arrays on a finite horizon.

    ``a`` and ``b`` have length ``horizon + 1`` and every ``a[n]`` is nonzero.
    """

    a: np.ndarray
    b: np.ndarray
    horizon: int

    def __post_init__(self) -> None:
        a = np.array(self.a, dtype=complex)
        b = np.array(self.b, dtype=complex)
        if self.horizon < 2:
            raise ValueError("horizon must be at least 2")
        if a.shape != (self.horizon + 1,) or b.shape != (self.horizon + 1,):
            raise ValueError(
                f"coefficient arrays must have length horizon+1 = {self.horizon + 1}"
            )
        if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
            raise ValueError("coefficient arrays must be finite")
        zero = np.flatnonzero(a == 0)
        if zero.size:
            raise ZeroCoefficientError(int(zero[0]))
        a.flags.writeable = False
        b.flags.writeable = False
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    def trimmed(self, horizon: int) -> "SequencePair":
        """Restriction to a shorter horizon (shares no mutable state)."""
        if horizon > self.horizon:
            raise HorizonError(
                f"cannot trim to horizon {horizon}; only {self.horizon} available"
            )
        return SequencePair(self.a[: horizon + 1], self.b[: horizon + 1], horizon)


@dataclass(frozen=True)
class AssumptionReport:
    """Finite-horizon estimates of the standing-assumption constants.

    ``eps_hat``/``m_hat`` bound ``|a_n/a_{n+1}|`` over the full horizon;
    ``r_hat`` is the max of ``|b_n/a_{n+1}|`` over the trailing window (the
    finite proxy for a limsup); ``n0_hat`` is the first index from which that
    ratio stays <= ``r_target`` (-1 when never attained).
    """

    eps_hat: float
    m_hat: float
    r_hat: float
    n0_hat: int
    tail_window: int
    a_nonzero: bool = True
    ratio_bounded_below: bool = field(default=True)
    ratio_bounded_above: bool = field(default=True)
    tail_ratio_below_target: bool = field(default=True)

    def flags(self) -> dict[str, bool]:
        return {
            "a_nonzero": self.a_nonzero,
            "ratio_bounded_below": self.ratio_bounded_below,
            "ratio_bounded_above": self.ratio_bounded_above,
            "tail_ratio_below_target": self.tail_ratio_below_target,
        }


def materialize(spec: CoefficientSpec, N: int) -> SequencePair:
    """Evaluate both sources on 0..N and validate the resulting pair."""
    if N < 2:
        raise ValueError("horizon N must be at least 2")
    a = _realize(spec.a_source, N, "a")
    b = _realize(spec.b_source, N, "b")
    return SequencePair(a=a, b=b, horizon=N)


def _realize(source: Source, N: int, name: str) -> np.ndarray:
    if isinstance(source, SequenceExpr):
        return np.array([source.evaluate(n) for n in range(N + 1)], dtype=complex)
    if source.size < N + 1:
        raise SequenceSpecError(
            f"explicit {name}-list has {source.size} entries; horizon {N} "
            f"needs {N + 1}"
        )
    return np.array(source[: N + 1], dtype=complex)


def validate_assumptions(seq: SequencePair, r_target: float = 0.95) -> AssumptionReport:
    """Measure the standing-assumption constants on the horizon.

    ``tail_window`` is the trailing half of the horizon.
    """
    if not 0.0 < r_target < 1.0:
        raise ValueError("r_target must lie in (0, 1)")
    N = seq.horizon
    ratios = np.abs(seq.a[:-1] / seq.a[1:])
    t = np.abs(seq.b[:-1] / seq.a[1:])
    tail_window = max(1, N // 2)
    eps_hat = float(ratios.min())
    m_hat = float(ratios.max())
    r_hat = float(t[N - tail_window :].max())
    # least n such that |b_m / a_{m+1}| <= r_target for all m >= n
    suffix_max = np.maximum.accumulate(t[::-1])[::-1]
    ok = suffix_max <= r_target
    if ok[-1]:
        n0_hat = int(np.argmax(ok))
        attained = True
    else:
        n0_hat = -1
        attained = False
    return AssumptionReport(
        eps_hat=eps_hat,
        m_hat=m_hat,
        r_hat=r_hat,
        n0_hat=n0_hat,
        tail_window=tail_window,
        a_nonzero=True,
        ratio_bounded_below=eps_hat > 0.0,
        ratio_bounded_above=bool(np.isfinite(m_hat)),
        tail_ratio_below_target=attained,
    )


def c_coefficients(seq: SequencePair) -> np.ndarray:
    """Coupling coefficients c_n, n = 0..horizon-2."""
    a, b = seq.a, seq.b
    return (a[:-2] / a[2:]) * (b[:-2] / a[:-2] - b[1:-1] / a[1:-1])


def d_coefficients(seq: SequencePair) -> np.ndarray:
    """Left-inverse diagonal; entry k holds d_{k+1} = b_{k+1}/a_{k+1} - b_k/a_k."""
    a, b = seq.a, seq.b
    return b[1:] / a[1:] - b[:-1] / a[:-1]


def spec_from_document(doc: object) -> CoefficientSpec:
    """Build a :class:`CoefficientSpec` from a parsed sequence-spec document.

    Schema: ``{"label": str, "a": str | [[re, im], ...], "b": same}``.
    """
    if not isinstance(doc, dict):
        raise SequenceSpecError("sequence spec must be a JSON object")
    label = doc.get("label", "")
    if not isinstance(label, str):
        raise SequenceSpecError("'label' must be a string")
    sources = {}
    for key in ("a", "b"):
        if key not in doc:
            raise SequenceSpecError(f"sequence spec is missing {key!r}")
        sources[key] = _decode_source(doc[key], key)
    return CoefficientSpec(a_source=sources["a"], b_source=sources["b"], label=label)


def _decode_source(raw: object, name: str) -> Source:
    if isinstance(raw, str):
        return parse_sequence_expr(raw)
    if isinstance(raw, list):
        values = []
        for i, pair in enumerate(raw):
            if (
                not isinstance(pair, (list, tuple))
                or len(pair) != 2
                or not all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in pair)
            ):
                raise SequenceSpecError(
                    f"{name}[{i}] must be a [re, im] pair of numbers"
                )
            values.append(complex(float(pair[0]), float(pair[1])))
        return _coerce_explicit(values, name)
    raise SequenceSpecError(f"{name!r} must be an expression string or a list of pairs")


def load_spec_file(path: str | Path) -> CoefficientSpec:
    """Read and validate a sequence-spec JSON file.

    I/O failures propagate as OSError; malformed JSON and schema violations
    raise :class:`SequenceSpecError`.
    """
    text = Path(path).read_text(encoding="utf-8")
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as err:
        raise SequenceSpecError(f"malformed JSON in {path}: {err}") from err
    return spec_from_document(doc)


__all__ = [
    "AssumptionReport",
    "CoefficientSpec",
    "HorizonError",
    "SequencePair",
    "SequenceSpecError",
    "Source",
    "ZeroCoefficientError",
    "c_coefficients",
    "d_coefficients",
    "load_spec_file",
    "materialize",
    "spec_from_document",
    "validate_assumptions",
]
