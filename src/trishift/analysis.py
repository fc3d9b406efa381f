"""Criterion decisions, equivalence tail profiles, polar splits, and bounds.

Limit statements become trailing-window trend estimates on the horizon: the
verdict is tri-state (holds / fails / inconclusive) with a 10x hysteresis gap
so a finite section never over-claims an asymptotic fact.  Products that a
square section cannot represent exactly (column Gram matrices, polar factors)
are those of the column-exact tall section ``T``: the first N columns of the
shift on the full materialized horizon.

Below its subdiagonal, every column of the shift is a running product, so
``T`` and the left inverse ``L`` are read through their two-term recurrences
(``operators._ShiftRecurrence``) instead of built: ``G = T*T`` costs
O(N^2), ``T X`` O(H K) for an N x K block ``X``, and the column norms of ``L
- T*`` and ``I - TT*`` and the Frobenius norms of ``T`` and ``L`` cost O(N).

The polar split needs only ``G`` and its eigendecomposition ``G = W Λ
W^H``: the ``I - T*T`` column tails are the column norms of ``I - G``,
those of the remainder ``T - V`` of ``(Λ^{1/2} - I) W^H``, and ``V = T W
Λ^{-1/2} W^H``.  The Gram squares the condition number, so it is taken only
when the left inverse certifies that double precision resolves the least
singular value; otherwise one thin SVD of the dense tall section ``T = U S
W^H`` gives ``V = U W^H``.  So on the Gram route the dense O(N^3) work is
``eigh(G)``, ``(T W / s) W^H`` and ``V^H V`` alone; the dense horizon
section is built only for the SVD route and for an index rank that the left
inverse does not certify.  The factors ``W`` and ``T W / s`` of the Gram
route's product, and ``V`` before ``V^H V`` on both routes, have their
entries below ``2**-511`` zeroed first, which keeps the products out of
subnormal arithmetic and moves no reported bit.  The kernel and cokernel
ranks need no factorization: the left-inverse section is an exact left
inverse of the tall section and of the square section's nonzero block, and
its Frobenius norm bounds their least singular values.  Sections and
products carry their sequence pair's dtype, so real families are factored
and multiplied in real arithmetic.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .operators import (
    TruncatedOperator,
    _neumann_partial_sums,
    _ShiftRecurrence,
    build_shift,
    build_tail_blocks,
)
from .sequences import SequencePair, c_coefficients

VERDICT_HOLDS = "holds"
VERDICT_FAILS = "fails"
VERDICT_INCONCLUSIVE = "inconclusive"

DEFAULT_RANK_TOL = 1e-8
DEFAULT_SINGULAR_FLOOR = 1e-10

ROUTE_CERTIFIED = "certified"
ROUTE_GRAM = "gram"
ROUTE_SVD = "svd"

# entries below this magnitude have subnormal squares: products of two of
# them underflow, which costs x86 hardware tens of cycles each
_TINY = 2.0**-511
_FLUSH_ROWS = 64


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
    """Kernel and cokernel dimensions, and how each rank was decided.

    A route is ``"certified"`` when a left inverse proved the rank full and
    ``"svd"`` when singular values counted it.  A margin is
    ``2 * DEFAULT_RANK_TOL * s_up * ||X||_F`` for the section's left inverse
    ``X``: the rank is certified below 1.  It is ``None`` when no finite
    bound exists.  The index is ``dim_ker - dim_coker``.
    """

    dim_ker: int
    dim_coker: int
    ker_route: str
    coker_route: str
    ker_margin: float | None
    coker_margin: float | None

    @property
    def index(self) -> int:
        return self.dim_ker - self.dim_coker


@dataclass(frozen=True)
class EquivalenceDiagnostics:
    """Per-column tail norms of the three compactness witnesses, the
    term-dropping floor of the ``L - T*`` profile, the polar split and the
    index, all from one section and its one factorization."""

    tails_itt: np.ndarray        # ||(I - T*T) f_n||
    tails_ltstar: np.ndarray     # ||(L - T*) f_n||
    tails_ittstar: np.ndarray    # ||(I - TT*) f_n||
    ltstar_lower_sq: np.ndarray  # floor of tails_ltstar**2
    decomposition: DecompositionResult
    index_data: IndexData


@dataclass(frozen=True)
class DecompositionResult:
    """Polar split T = V |T| recast as isometry plus remainder, as numbers:
    the column norms of the remainder ``T - V``, the isometry defect of
    ``V`` and the tall section's least singular value ``s_min``.

    ``route`` is ``"gram"`` when the split came from the eigendecomposition
    of ``T*T`` and ``"svd"`` when it came from a thin SVD of ``T``.
    ``margin`` is ``H * eps * ||T||_F^2 * ||X||_F^2`` for the ``H``-row tall
    section ``T`` and its left inverse ``X``: the Gram route is taken below
    1.  It is ``None`` when no finite bound exists.  The sections themselves
    come from :func:`polar_decompose`."""

    column_decay: np.ndarray
    isometry_defect: float
    route: str
    margin: float | None
    s_min: float


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


def _dense_section(seq: SequencePair) -> Callable[[], np.ndarray]:
    """A function returning the shift section on the full materialized
    horizon, built on its first call only: the SVD fallbacks' input.  Its
    first ``N`` columns are the column-exact tall section, its leading ``N x
    N`` window the square section."""
    return functools.cache(lambda: build_shift(seq, seq.horizon).entries)


def column_norm_profile(seq: SequencePair, N: int) -> tuple[np.ndarray, np.ndarray]:
    """Column norms of (left inverse - adjoint) plus a term-dropping floor.

    The columns run to the full materialized horizon and the first N are
    reported, so a padded horizon makes the trailing columns honest; their
    norms come from the sections' recurrences in O(N).  Returns
    ``(profile, lower_bound_sq)`` where
    ``lower_bound_sq[m] = |c_{m-2}|^2 + |a_m/a_{m-1} - conj(a_{m-1}/a_m)|^2``
    (the c-term absent for m < 2) and ``profile[m]**2 >= lower_bound_sq[m]``.
    The profile array is read-only.
    """
    if N < 4:
        raise ValueError("profile needs N >= 4")
    return _ShiftRecurrence(seq, N).ltstar_profile()


def index_data(seq: SequencePair, N: int) -> IndexData:
    """Kernel/cokernel dimensions from numerical ranks at ``DEFAULT_RANK_TOL``.

    The kernel rank uses the column-exact tall section (full columns, no
    truncation loss); the cokernel uses the square section, whose column
    space is exactly the window part of the range.  Each rank is certified
    in O(N) from the left-inverse section's row norms; the dense section is
    built, and a values-only SVD counts the rank, only when that
    certificate fails.
    """
    shift = _ShiftRecurrence(seq, N)
    fro_tall, fro_square = shift.left_inverse_norms()
    s_up = math.sqrt(shift.fro_sq())
    return _index_data(_dense_section(seq), N, fro_tall, fro_square, s_up)


def _index_data(
    section: Callable[[], np.ndarray],
    N: int,
    fro_tall: float,
    fro_square: float,
    s_up: float,
    s_tall: np.ndarray | None = None,
) -> IndexData:
    """Index data of the tall and square sections, given the Frobenius norms
    of their left inverses, an upper bound ``s_up`` of the tall section's
    largest singular value and its singular values ``s_tall`` when an SVD
    already computed them; ``section`` returns the horizon section, which
    only a rank that its left inverse does not certify reads.

    ``L T = I``, ``L`` has one superdiagonal and ``T`` is strictly lower
    triangular, so ``L[:N] @ tall = I_N`` and ``sigma_min(tall) >= 1 /
    ||L[:N]||_F``.  The square section is ``[[0, 0], [R, 0]]`` with ``R =
    square[1:, :N-1]`` and ``L[:N-1, 1:N] @ R = I_{N-1}``: its singular
    values are ``R``'s, each at least ``1 / ||L[:N-1, 1:N]||_F``, and one
    exact zero.  ``s_up`` bounds the largest singular value of both
    sections: ``s_tall[0]``, ``sqrt`` of the Gram's largest eigenvalue, or
    ``||tall||_F``.  A rank is certified full
    when ``2 * DEFAULT_RANK_TOL * s_up * ||X||_F < 1``; the factor 2 covers
    the entries' rounding (``gamma_H`` relative) and the SVD's (about ``N
    eps s_max``), so the SVD would count the same rank.  Otherwise that
    section's values-only SVD counts it.
    """
    dim_ker, ker_route, ker_margin = _rank_deficiency(
        lambda: section()[:, :N], 0, s_up, fro_tall, s_tall
    )
    dim_coker, coker_route, coker_margin = _rank_deficiency(
        lambda: section()[:N, :N], 1, s_up, fro_square
    )
    return IndexData(
        dim_ker=dim_ker,
        dim_coker=dim_coker,
        ker_route=ker_route,
        coker_route=coker_route,
        ker_margin=ker_margin,
        coker_margin=coker_margin,
    )


def _rank_deficiency(
    section: Callable[[], np.ndarray],
    certified: int,
    s_up: float,
    fro: float,
    s: np.ndarray | None = None,
) -> tuple[int, str, float | None]:
    """``(columns - rank, route, margin)`` of the section that ``section()``
    returns, which has at least as many rows as columns: the deficiency is
    ``certified`` when its left inverse's norm ``fro`` certifies it, else
    counted from the singular values ``s`` (computed when not given)."""
    margin = 2.0 * DEFAULT_RANK_TOL * s_up * fro
    if not math.isfinite(margin):
        margin = None
    elif margin < 1.0:
        return certified, ROUTE_CERTIFIED, margin
    if s is None:
        s = np.linalg.svd(section(), compute_uv=False)
    return s.size - _numerical_rank(s), ROUTE_SVD, margin


def _numerical_rank(s: np.ndarray) -> int:
    """Number of descending singular values above ``DEFAULT_RANK_TOL * s[0]``."""
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.count_nonzero(s > DEFAULT_RANK_TOL * s[0]))


def equivalence_diagnostics(seq: SequencePair, N: int) -> EquivalenceDiagnostics:
    """Tail-norm profiles of I - T*T, L - T*, I - TT*, the floor of the
    L - T* profile, the polar split and the index data.

    T*T comes from the tall section (columns padded to the horizon): its
    tails and the split are :func:`compact_isometry_split`'s, from the same
    Gram matrix or SVD, so this raises :class:`NearSingularError` where that
    does.  TT* is exact on the window already because the shift rows are
    finitely supported.  The profile and the floor are
    :func:`column_norm_profile`'s.  Every norm but the split's comes from
    the sections' recurrences, and the dense horizon section is built at
    most once, for an SVD.
    """
    if N < 8:
        raise ValueError("equivalence diagnostics need N >= 8")
    shift = _ShiftRecurrence(seq, N)
    section = _dense_section(seq)
    fro_tall, fro_square = shift.left_inverse_norms()
    decomposition, tails_itt, s_up, s_tall = _polar_split(shift, fro_tall, section)
    tails_ltstar, ltstar_lower_sq = shift.ltstar_profile()
    return EquivalenceDiagnostics(
        tails_itt=tails_itt,
        tails_ltstar=tails_ltstar,
        tails_ittstar=shift.ittstar_norms(),
        ltstar_lower_sq=ltstar_lower_sq,
        decomposition=decomposition,
        index_data=_index_data(section, N, fro_tall, fro_square, s_up, s_tall),
    )


def _check_resolved(least: float) -> None:
    """Raise :class:`NearSingularError` unless the least singular value
    ``least`` exceeds ``DEFAULT_SINGULAR_FLOOR``."""
    if not least > DEFAULT_SINGULAR_FLOOR:
        raise NearSingularError(least, DEFAULT_SINGULAR_FLOOR)


def _polar_isometry(u: np.ndarray, s: np.ndarray, wh: np.ndarray) -> np.ndarray:
    """Polar isometry ``U W^H`` of a thin SVD with descending ``s``.

    Raises :class:`NearSingularError` when the least singular value is at or
    below ``DEFAULT_SINGULAR_FLOOR``.
    """
    _check_resolved(float(s[-1]))
    return u @ wh


def polar_decompose(T: TruncatedOperator) -> tuple[TruncatedOperator, TruncatedOperator]:
    """Polar factors (V, P) with P = (T*T)^(1/2) and T = V P.

    Both come from one thin SVD ``T = U S W^H``: ``V = U W^H`` and
    ``P = W S W^H``, symmetrised so that P is exactly Hermitian.  V inherits
    T's shape (tall sections give V orthonormal columns).  Real sections are
    factored in real arithmetic.  Raises
    :class:`NearSingularError` when the least singular value of T is at or
    below ``DEFAULT_SINGULAR_FLOOR``.  An arbitrary section has no left
    inverse to certify a Gram route, so this stays the SVD route: it is the
    reference that the tests hold the Gram route of
    :func:`compact_isometry_split` against.
    """
    u, s, wh = np.linalg.svd(T.entries, full_matrices=False)
    V = _polar_isometry(u, s, wh)
    P = (wh.conj().T * s) @ wh
    P = (P + P.conj().T) / 2.0
    return TruncatedOperator(V), TruncatedOperator(P)


def compact_isometry_split(seq: SequencePair, N: int) -> DecompositionResult:
    """Split the shift section into its polar isometry plus remainder.

    The split is that of the column-exact tall section ``T``.  With ``T*T =
    W Λ W^H``, the polar isometry is ``V = T W Λ^{-1/2} W^H`` and the
    remainder ``T - V = V (|T| - I)``; ``V`` has orthonormal columns, so
    ``column_decay``, the remainder's full-column norms, is the column norms
    of ``(Λ^{1/2} - I) W^H`` and the remainder is never formed.
    ``isometry_defect`` is the largest column norm of the computed ``V^H V -
    I`` over all N columns: every column of ``V`` is orthonormal to
    rounding, the right edge included.  This route is taken when the
    left-inverse section certifies that the Gram resolves the least singular
    value (``margin < 1``, see :class:`DecompositionResult`); otherwise the
    thin SVD ``T = U S W^H`` gives ``V = U W^H`` and the norms of ``(S - I)
    W^H``.  The Gram route forms ``T*T`` and ``T W`` by the shift's
    recurrences; only the SVD route builds the dense tall section.  Raises
    :class:`NearSingularError` when the least singular value is at or below
    ``DEFAULT_SINGULAR_FLOOR``.
    """
    if N < 8:
        raise ValueError("decomposition needs N >= 8")
    shift = _ShiftRecurrence(seq, N)
    fro_tall, _ = shift.left_inverse_norms()
    return _polar_split(shift, fro_tall, _dense_section(seq))[0]


def _polar_split(
    shift: _ShiftRecurrence, fro_tall: float, section: Callable[[], np.ndarray]
) -> tuple[DecompositionResult, np.ndarray, float, np.ndarray | None]:
    """The split of the ``H x N`` tall section ``T``, read through ``shift``,
    whose left inverse has Frobenius norm ``fro_tall``, with the column norms
    of ``I - T*T``, its largest singular value and, on the SVD route, all
    its singular values.  Only the SVD route reads the dense horizon
    section, from ``section()``.

    The computed Gram ``G = T*T`` and its eigenvalues carry an absolute
    error of about ``H eps ||T||_F^2``, while ``s_min(T)^2 >= 1 /
    ||X||_F^2`` for the left inverse ``X``.  The Gram route is taken when
    ``margin = H eps ||T||_F^2 ||X||_F^2 < 1``: that error then stays below
    ``s_min^2``, so double precision resolves the least singular value.
    """
    margin = shift.H * np.finfo(float).eps * shift.fro_sq() * fro_tall**2
    if not math.isfinite(margin):
        margin = None
    elif margin < 1.0:
        return _gram_split(shift, margin)
    return _svd_split(section()[:, : shift.N], margin)


def _gram_split(
    shift: _ShiftRecurrence, margin: float
) -> tuple[DecompositionResult, np.ndarray, float, None]:
    """:func:`_polar_split` from ``T*T = W Λ W^H``, with ``T*T`` and ``T
    W`` formed by the shift's recurrences."""
    G = shift.gram()
    lam, W = np.linalg.eigh(G)
    # G - I in place: its column norms are those of I - G, bit for bit
    G.flat[:: G.shape[0] + 1] -= 1.0
    tails_itt = np.linalg.norm(G, axis=0)
    del G
    s_min = math.sqrt(max(float(lam[0]), 0.0))
    _check_resolved(s_min)
    s = np.sqrt(lam)
    # column n of (S - I) W^H is row n of W (S - I), conjugated
    column_decay = np.linalg.norm(W * (s - 1.0), axis=1)
    column_decay.flags.writeable = False
    _flush_tiny(W)
    V = shift.apply(W)
    V /= s
    _flush_tiny(V)
    V = V @ W.conj().T
    deco = DecompositionResult(
        column_decay, _isometry_defect(V), ROUTE_GRAM, margin, s_min
    )
    return deco, tails_itt, float(s[-1]), None


def _svd_split(
    tall: np.ndarray, margin: float | None
) -> tuple[DecompositionResult, np.ndarray, float, np.ndarray]:
    """:func:`_polar_split` from the thin SVD ``T = U S W^H``."""
    u, s, wh = np.linalg.svd(tall, full_matrices=False)
    tails_itt = np.linalg.norm((1.0 - s * s)[:, None] * wh, axis=0)
    V = _polar_isometry(u, s, wh)
    column_decay = np.linalg.norm((s - 1.0)[:, None] * wh, axis=0)
    column_decay.flags.writeable = False
    deco = DecompositionResult(
        column_decay, _isometry_defect(V), ROUTE_SVD, margin, float(s[-1])
    )
    return deco, tails_itt, float(s[0]), s


def _flush_tiny(x: np.ndarray) -> None:
    """Zero, in place, every entry of ``x`` with ``|x| < 2**-511``, whose
    square would be subnormal, one block of rows at a time so that no
    temporary as large as ``x`` is formed.

    The split applies it to ``W`` (unitary), ``T W / s = V W`` and ``V``
    (orthonormal columns), whose entries are at most about 1, so each entry
    of ``(T W / s) W^H`` and ``V^H V`` moves by at most about ``H *
    2**-511``, about 1e-150.  ``T W`` applies ``T``, whose entries are not
    bounded by 1, to the flushed ``W`` by the shift's row recurrence; that
    is the same linear map as the dense product, so after the division by
    ``s`` its entries move by at most about ``κ(T) H * 2**-511``.  ``margin
    < 1`` bounds ``κ(T) <= ||T||_F ||X||_F``, ``X`` the left inverse, below
    ``(H eps)**-0.5``, about 1e6 at ``H`` of a few thousand, so every move
    stays far below half an ulp of anything the split reports.  ``G`` itself
    is not flushed.
    """
    for start in range(0, x.shape[0], _FLUSH_ROWS):
        block = x[start : start + _FLUSH_ROWS]
        block[np.abs(block) < _TINY] = 0.0


def _isometry_defect(V: np.ndarray) -> float:
    """The largest column norm of ``V^H V - I``, with ``V``'s sub-resolution
    entries flushed first (see :func:`_flush_tiny`)."""
    _flush_tiny(V)
    vtv = V.conj().T @ V
    vtv.flat[:: vtv.shape[0] + 1] -= 1.0  # in place, as vtv - I rounds
    return float(np.linalg.norm(vtv, axis=0).max())


def neumann_error_curve(
    seq: SequencePair, n0: int, N: int, m_max: int
) -> list[tuple[int, float, float]]:
    """Measured operator-norm error of the alternating partial sums against
    the assembled tail block, next to the geometric bound M0 r^(m+1)/(1-r).

    ``r`` is the supremum of the weights that enter the weighted shift
    (``|b_n/a_{n+1}|`` for n >= n0+2 on the horizon) and M0 the largest
    coupling coefficient magnitude.  Raises :class:`BoundUnavailableError`
    when r >= 1.
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
    sums = _neumann_partial_sums(np.diagonal(W.entries, -1), D.entries)
    for m in range(m_max + 1):
        total = next(sums, None)
        if total is not None:  # otherwise the terms vanished: S_m = S_{m-1}
            err = float(np.linalg.norm(A2.entries - total, 2))
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
