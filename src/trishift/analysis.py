"""Criterion decisions, equivalence tail profiles, polar splits, and bounds.

Limit statements become trailing-window trend estimates on the horizon: the
verdict is tri-state (holds / fails / inconclusive) with a 10x hysteresis gap
so a finite section never over-claims an asymptotic fact.  Products that a
square section cannot represent exactly (column Gram matrices, polar factors)
are computed from column-exact tall sections: the shift built on the full
materialized horizon, sliced to the first N columns.

The dense analysis rests on one thin SVD ``T = U S W^H`` of that tall
section.  The polar factor is ``V = U W^H`` and ``|T| = W S W^H``; the kernel
rank is read from ``S``; the ``I - T*T`` column tails are the column norms of
``(I - S^2) W^H``.  The near-singular test therefore compares a singular
value that double precision resolves.  Sections whose imaginary part is
exactly zero are factored and multiplied as real arrays.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .operators import (
    TruncatedOperator,
    _narrow,
    _neumann_partial_sums,
    build_left_inverse,
    build_shift,
    build_tail_blocks,
)
from .sequences import SequencePair, c_coefficients

VERDICT_HOLDS = "holds"
VERDICT_FAILS = "fails"
VERDICT_INCONCLUSIVE = "inconclusive"

DEFAULT_RANK_TOL = 1e-8
DEFAULT_SINGULAR_FLOOR = 1e-10
DEFAULT_MARGIN = 64


class NearSingularError(ArithmeticError):
    """The section's least singular value is at or below the threshold, so
    the polar factor cannot be formed (left-invertibility lost at this
    order)."""

    def __init__(self, least_singular: float, threshold: float) -> None:
        super().__init__(
            f"least singular value {least_singular:.3e} is below the "
            f"threshold {threshold:.3e}"
        )
        self.least_singular = least_singular
        self.threshold = threshold


class BoundUnavailableError(ValueError):
    """The measured tail ratio is >= 1, so no geometric bound exists."""


@dataclass(frozen=True)
class CriterionReport:
    """Trailing-window deviations of the two criterion sequences.

    ``verdict`` is ``holds`` iff both trailing maxima are below ``tol``,
    ``fails`` iff either trailing sequence stays at or above ``10 * tol``
    throughout the window, and ``inconclusive`` otherwise.
    """

    ratio_dev: np.ndarray
    diff_dev: np.ndarray
    trailing_max_ratio_dev: float
    trailing_max_diff_dev: float
    verdict: str
    tol: float
    window: int


@dataclass(frozen=True)
class IndexData:
    dim_ker: int
    dim_coker: int
    index: int


@dataclass(frozen=True)
class EquivalenceDiagnostics:
    """Per-column tail norms of the three compactness witnesses plus index."""

    tails_itt: np.ndarray        # ||(I - T*T) f_n||
    tails_ltstar: np.ndarray     # ||(L - T*) f_n||
    tails_ittstar: np.ndarray    # ||(I - TT*) f_n||
    index_data: IndexData


@dataclass(frozen=True)
class DecompositionResult:
    """Polar split T = V |T| recast as isometry plus remainder."""

    isometry_factor: TruncatedOperator
    compact_part: TruncatedOperator
    column_decay: np.ndarray
    isometry_defect: float


def check_main_criterion(
    seq: SequencePair, tol: float, window: int | None = None
) -> CriterionReport:
    """Decide the compact-plus-isometry criterion as a trailing-window trend.

    The two deviation sequences are ``| |a_n/a_{n+1}| - 1 |`` and
    ``|b_n/a_n - b_{n+1}/a_{n+1}|`` for n = 0..N-1.
    """
    if not 0.0 < tol < 1.0:
        raise ValueError("tol must lie in (0, 1)")
    N = seq.horizon
    if window is None:
        window = max(1, N // 4)
    if not 1 <= window <= N // 2:
        raise ValueError("window must lie in [1, N/2]")
    ratio_dev = np.abs(np.abs(seq.a[:-1] / seq.a[1:]) - 1.0)
    diff_dev = np.abs(seq.b[:-1] / seq.a[:-1] - seq.b[1:] / seq.a[1:])
    tr = ratio_dev[-window:]
    td = diff_dev[-window:]
    tmr = float(tr.max())
    tmd = float(td.max())
    if tmr < tol and tmd < tol:
        verdict = VERDICT_HOLDS
    elif float(tr.min()) >= 10.0 * tol or float(td.min()) >= 10.0 * tol:
        verdict = VERDICT_FAILS
    else:
        verdict = VERDICT_INCONCLUSIVE
    ratio_dev.flags.writeable = False
    diff_dev.flags.writeable = False
    return CriterionReport(
        ratio_dev=ratio_dev,
        diff_dev=diff_dev,
        trailing_max_ratio_dev=tmr,
        trailing_max_diff_dev=tmd,
        verdict=verdict,
        tol=tol,
        window=window,
    )


class _ShiftSection:
    """The shift section on the full materialized horizon, built once and
    shared by the analyses of one run.

    ``tall`` is its first ``N`` columns (column-exact) and ``square`` the
    leading ``N x N`` window.  ``svd`` is the thin SVD ``(U, s, W^H)`` of the
    tall section, with ``s`` descending, and ``ltstar_profile`` the column
    norms of ``L - T*`` over the first ``N`` columns.  Each is computed on
    first use and kept.
    """

    def __init__(self, seq: SequencePair, N: int) -> None:
        self.seq = seq
        self.N = N

    @cached_property
    def full(self) -> np.ndarray:
        return _narrow(build_shift(self.seq, self.seq.horizon).entries)

    @property
    def tall(self) -> np.ndarray:
        return self.full[:, : self.N]

    @property
    def square(self) -> np.ndarray:
        return self.full[: self.N, : self.N]

    @cached_property
    def svd(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return np.linalg.svd(self.tall, full_matrices=False)

    @cached_property
    def ltstar_profile(self) -> np.ndarray:
        L = build_left_inverse(self.seq, self.seq.horizon).entries
        # T* is the conjugate transpose of the horizon section, which is how
        # build_adjoint defines the adjoint
        tstar = self.full[: self.N].conj().T
        profile = np.linalg.norm(L[:, : self.N] - tstar, axis=0)
        profile.flags.writeable = False
        return profile


def column_norm_profile(
    seq: SequencePair, N: int, *, _section: _ShiftSection | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Column norms of (left inverse - adjoint) plus a term-dropping floor.

    Sections are built on the full materialized horizon and the first N
    columns reported, so a padded horizon makes the trailing columns honest.
    Returns ``(profile, lower_bound_sq)`` where
    ``lower_bound_sq[m] = |c_{m-2}|^2 + |a_m/a_{m-1} - conj(a_{m-1}/a_m)|^2``
    (the c-term absent for m < 2) and ``profile[m]**2 >= lower_bound_sq[m]``.
    The profile array is read-only.
    """
    if N < 4:
        raise ValueError("profile needs N >= 4")
    H = seq.horizon
    if N > H:
        raise ValueError(f"N = {N} exceeds the materialized horizon {H}")
    section = _ShiftSection(seq, N) if _section is None else _section
    rv = seq.a[1:] / seq.a[:-1] - np.conj(seq.a[:-1] / seq.a[1:])
    c = c_coefficients(seq)
    lower = np.zeros(N, dtype=float)
    lower[1:] = np.abs(rv[: N - 1]) ** 2
    lower[2:] += np.abs(c[: N - 2]) ** 2
    return section.ltstar_profile, lower


def index_data(seq: SequencePair, N: int) -> IndexData:
    """Kernel/cokernel dimensions from numerical ranks at ``DEFAULT_RANK_TOL``.

    The kernel rank uses the column-exact tall section (full columns, no
    truncation loss); the cokernel uses the square section, whose column
    space is exactly the window part of the range.  Only singular values are
    computed.
    """
    section = _ShiftSection(seq, N)
    s_tall = np.linalg.svd(section.tall, compute_uv=False)
    return _index_data(section, s_tall)


def _index_data(section: _ShiftSection, s_tall: np.ndarray) -> IndexData:
    N = section.N
    dim_ker = N - _numerical_rank(s_tall)
    s_square = np.linalg.svd(section.square, compute_uv=False)
    dim_coker = N - _numerical_rank(s_square)
    return IndexData(dim_ker=dim_ker, dim_coker=dim_coker, index=dim_ker - dim_coker)


def _numerical_rank(s: np.ndarray) -> int:
    """Number of descending singular values above ``DEFAULT_RANK_TOL * s[0]``."""
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.count_nonzero(s > DEFAULT_RANK_TOL * s[0]))


def equivalence_diagnostics(
    seq: SequencePair,
    N: int,
    *,
    _section: _ShiftSection | None = None,
) -> EquivalenceDiagnostics:
    """Tail-norm profiles of I - T*T, L - T*, I - TT*, plus index data.

    T*T comes from the tall section (columns padded to the horizon): with
    ``T = U S W^H`` its tails are the column norms of ``(I - S^2) W^H``.  TT*
    is exact on the window already because the shift rows are finitely
    supported.
    """
    if N < 8:
        raise ValueError("equivalence diagnostics need N >= 8")
    H = seq.horizon
    if N > H:
        raise ValueError(f"N = {N} exceeds the materialized horizon {H}")
    section = _ShiftSection(seq, N) if _section is None else _section
    _, s, wh = section.svd
    tails_itt = np.linalg.norm((1.0 - s * s)[:, None] * wh, axis=0)
    square = section.square
    proj = square @ square.conj().T
    tails_ittstar = np.linalg.norm(np.eye(N) - proj, axis=0)
    return EquivalenceDiagnostics(
        tails_itt=tails_itt,
        tails_ltstar=section.ltstar_profile,
        tails_ittstar=tails_ittstar,
        index_data=_index_data(section, s),
    )


def _polar_isometry(u: np.ndarray, s: np.ndarray, wh: np.ndarray) -> np.ndarray:
    """Polar isometry ``U W^H`` of a thin SVD with descending ``s``.

    Raises :class:`NearSingularError` when the least singular value is at or
    below ``DEFAULT_SINGULAR_FLOOR``.
    """
    least = float(s[-1])
    if least <= DEFAULT_SINGULAR_FLOOR:
        raise NearSingularError(least, DEFAULT_SINGULAR_FLOOR)
    return u @ wh


def polar_decompose(T: TruncatedOperator) -> tuple[TruncatedOperator, TruncatedOperator]:
    """Polar factors (V, P) with P = (T*T)^(1/2) and T = V P.

    Both come from one thin SVD ``T = U S W^H``: ``V = U W^H`` and
    ``P = W S W^H``, symmetrised so that P is exactly Hermitian.  V inherits
    T's shape (tall sections give V orthonormal columns).  Sections with no
    imaginary part are factored in real arithmetic.  Raises
    :class:`NearSingularError` when the least singular value of T is at or
    below ``DEFAULT_SINGULAR_FLOOR``.
    """
    u, s, wh = np.linalg.svd(_narrow(T.entries), full_matrices=False)
    V = _polar_isometry(u, s, wh)
    P = (wh.conj().T * s) @ wh
    P = (P + P.conj().T) / 2.0
    return (
        TruncatedOperator(V, T.order, T.basis_offset, None, T.exact_window),
        TruncatedOperator(P, T.order, T.basis_offset, None, T.exact_window),
    )


def compact_isometry_split(
    seq: SequencePair,
    N: int,
    margin: int = DEFAULT_MARGIN,
    *,
    _section: _ShiftSection | None = None,
) -> DecompositionResult:
    """Split the shift section into its polar isometry plus remainder.

    The polar isometry comes from the thin SVD of the column-exact tall
    section; the returned sections are the leading N x N windows, while
    ``column_decay`` holds the full-column remainder norms.  ``margin``
    columns at the right edge are excluded from the isometry-defect
    statistic to suppress boundary artifacts.
    """
    if N < 8:
        raise ValueError("decomposition needs N >= 8")
    H = seq.horizon
    if N > H:
        raise ValueError(f"N = {N} exceeds the materialized horizon {H}")
    section = _ShiftSection(seq, N) if _section is None else _section
    V = _polar_isometry(*section.svd)
    remainder = section.tall - V
    column_decay = np.linalg.norm(remainder, axis=0)
    vtv = V.conj().T @ V
    defect_cols = np.linalg.norm(vtv - np.eye(N), axis=0)
    interior = max(1, N - max(margin, 0))
    isometry_defect = float(defect_cols[:interior].max())
    column_decay.flags.writeable = False
    return DecompositionResult(
        isometry_factor=TruncatedOperator(V[:N], N, 0, None, N),
        compact_part=TruncatedOperator(remainder[:N], N, 0, None, N),
        column_decay=column_decay,
        isometry_defect=isometry_defect,
    )


def neumann_error_curve(
    seq: SequencePair, n0: int, N: int, m_max: int
) -> list[tuple[int, float, float]]:
    """Measured operator-norm error of the alternating partial sums against
    the assembled tail block, next to the geometric bound M0 r^(m+1)/(1-r).

    ``r`` is the supremum of the weights that enter the weighted shift
    (``|b_n/a_{n+1}|`` for n >= n0+2 on the horizon) and M0 the largest
    coupling coefficient magnitude.  Blocks with no imaginary part are
    multiplied and normed in real arithmetic.  Raises
    :class:`BoundUnavailableError` when r >= 1.
    """
    if m_max < 1:
        raise ValueError("m_max must be at least 1")
    W, D, A2 = build_tail_blocks(seq, n0, N)
    weights = np.abs(seq.b[n0 + 2 : -1] / seq.a[n0 + 3 :])
    r = float(weights.max()) if weights.size else 0.0
    if r >= 1.0:
        raise BoundUnavailableError(
            f"measured tail ratio {r:.4f} >= 1; no geometric bound exists"
        )
    m0 = float(np.abs(c_coefficients(seq)).max())
    rows: list[tuple[int, float, float]] = []
    assembled = _narrow(A2.entries)
    sums = _neumann_partial_sums(_narrow(W.entries), _narrow(D.entries))
    for m in range(m_max + 1):
        total = next(sums, None)
        if total is not None:  # otherwise the terms vanished: S_m = S_{m-1}
            err = float(np.linalg.norm(assembled - total, 2))
        bound = m0 * r ** (m + 1) / (1.0 - r) if r > 0.0 else 0.0
        rows.append((m, err, bound))
    return rows


__all__ = [
    "BoundUnavailableError",
    "CriterionReport",
    "DecompositionResult",
    "EquivalenceDiagnostics",
    "IndexData",
    "NearSingularError",
    "VERDICT_FAILS",
    "VERDICT_HOLDS",
    "VERDICT_INCONCLUSIVE",
    "check_main_criterion",
    "column_norm_profile",
    "compact_isometry_split",
    "equivalence_diagnostics",
    "index_data",
    "neumann_error_curve",
    "polar_decompose",
]
