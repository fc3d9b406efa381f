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
O(N^2) time, and O(64 N) memory when it is read in panels of 64 rows cut at
the end of their diagonal block, the rest of ``G`` being their conjugate
transpose, ``T X`` O(H K) for an N x K block ``X``, and the column norms of
``L - T*`` and ``I - TT*`` and the Frobenius norms of ``T`` and ``L`` cost
O(N).

The polar split has three routes.  The Gram squares the condition number,
so ``G`` is used only when the left inverse certifies that double precision
resolves the least singular value; otherwise one thin SVD of the dense tall
section ``T = U S W^H`` gives ``V = U W^H`` (route ``"svd"``).  On ``G``,
the ``I - T*T`` column tails are the column norms of ``I - G``.  Where ``G``
is numerically block-tridiagonal (blocks of 64) with a positive Gershgorin
bracket, the band route (``"band"``) takes ``|T| = G^{1/2}`` and ``G^{-1/2}``
from a coupled Newton–Schulz iteration in block-tridiagonal arithmetic,
each Hermitian block-banded matrix stored as its lower half, and
certifies them a posteriori, the isometry defect of ``V = T G^{-1/2}``
included: the remainder ``T - V`` has the column norms of ``|T| - I``, and
``V`` is never formed; a weighted shift's diagonal ``G`` gives its split
in closed form.  Otherwise, or when a certificate fails, the dense Gram
route (``"gram"``) takes ``G = W Λ W^H``: the remainder has the column
norms of ``(Λ^{1/2} - I) W^H`` and ``V = T W Λ^{-1/2} W^H``, refined by
one Newton–Schulz step when it is not orthonormal to 1e-13.  So the band route forms no N x N array: it reads
``G``'s lower block triangle panel by panel and takes the rest by Hermitian
symmetry, and ``G`` is formed whole only for the dense Gram route, whose
O(N^3) work is ``eigh(G)``, ``(T W / s) W^H`` and ``V^H V`` alone, and the
dense horizon section is built only for the SVD route and for an index
rank that the left inverse does not certify.  The factors ``W`` and
``T W / s`` of the dense Gram route's product, the factors ``U`` and
``W^H`` of the SVD route's, ``V`` before ``V^H V`` on both dense routes and
the band route's iterates have their entries below ``2**-511`` zeroed
first, which keeps the products out of subnormal arithmetic; on the dense
routes it moves no reported bit.  The kernel and
cokernel ranks need no factorization: the left-inverse section is an exact
left inverse of the tall section and of the square section's nonzero block,
and its Frobenius norm bounds their least singular values.  Sections and
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
    _BLOCK,
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
ROUTE_BAND = "band"
ROUTE_SVD = "svd"

# entries below this magnitude have subnormal squares: products of two of
# them underflow, which costs x86 hardware tens of cycles each
_TINY = 2.0**-511
# _flush_tiny works on this many entries at a time (128 KB of float64, four
# blocks of order 64), and so does _band_column_norms
_FLUSH_CHUNK = 1 << 14

# the Gram route refines V by one Newton–Schulz step above this defect
_REFINE_DEFECT = 1e-13

# band route: block order, least block count, Newton–Schulz step cap, the
# ||M - I||_F below which one last step polishes, the ||ZY - I||_F that the
# last iterates must reach, and the certified accuracy of |T| and of the
# singular-value brackets
_BAND = _BLOCK  # one block row of G is one of its panels
_BAND_MIN_BLOCKS = 8
_BAND_STEPS = 10
_BAND_POLISH = 1e-8
_BAND_SETTLED = 1e-12
_BAND_TOL = 1e-13
# band products and G_b X: block columns per batched matmul, so that their
# scratch holds a few blocks, not a block diagonal
_BAND_CHUNK = 4
# edge brackets: Ritz block size, inverse-iteration cap
_RITZ_VECTORS = 8
_RITZ_STEPS = 24
# Neumann curve: Lanczos step cap, after which an order takes the dense
# norm, and the error bound, relative to the Ritz value, that settles one
_KRYLOV_STEPS = 32
_KRYLOV_TOL = 4 * np.finfo(float).eps


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

    ``route`` is ``"band"`` when the split came from a certified
    Newton–Schulz iteration on the block-tridiagonal part of ``T*T`` or in
    closed form from a weighted shift's weights, ``"gram"`` when it came
    from the eigendecomposition of ``T*T`` and ``"svd"`` when it came from
    a thin SVD of ``T``.  ``margin`` is ``H * eps * ||T||_F^2 * ||X||_F^2``
    for the ``H``-row tall section ``T`` and its left inverse ``X``:
    ``T*T`` is used (band or Gram route) below 1.
    It is ``None`` when no finite bound exists.  On the band route
    ``column_decay`` is certified within 1e-13 of the exact ``|T| - I``
    column norms, ``s_min`` is a proved lower bound within 1e-13 of the
    least singular value (a weighted shift's least weight modulus,
    exactly), and the isometry defect, at most 1e-13, is that of ``V = T
    (T*T)^{-1/2}`` for the computed inverse root.  The sections
    themselves come from :func:`polar_decompose`."""

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
    _check_resolved(float(s[-1]))
    V = u @ wh
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
    rounding, the right edge included.  The Gram is used when the
    left-inverse section certifies that it resolves the least singular
    value (``margin < 1``, see :class:`DecompositionResult`): by the band
    route where ``T*T`` is numerically block-tridiagonal and the route
    certifies its numbers, and by this dense Gram route otherwise.  Without
    that certificate the thin SVD ``T = U S W^H`` gives ``V = U W^H`` and
    the norms of ``(S - I) W^H``.  ``T*T`` and ``T W`` come from the
    shift's recurrences: the band route reads ``T*T`` in panels of 64 rows
    and holds no N x N array, and the dense Gram route forms it whole.  Only
    the SVD route builds the dense tall section.
    Raises
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
    The band route reads ``G`` panel by panel
    (:meth:`~operators._ShiftRecurrence.gram_panels`); ``G`` is formed whole
    only when the band route declines, for the dense Gram route.
    """
    margin = shift.H * np.finfo(float).eps * shift.fro_sq() * fro_tall**2
    if not math.isfinite(margin):
        margin = None
    elif margin < 1.0:
        return _band_split(shift, margin) or _gram_split(shift, shift.gram(), margin)
    return _svd_split(section()[:, : shift.N], margin)


def _gram_split(
    shift: _ShiftRecurrence, G: np.ndarray, margin: float
) -> tuple[DecompositionResult, np.ndarray, float, None]:
    """:func:`_polar_split` from ``T*T = W Λ W^H``, with ``G = T*T`` and
    ``T W`` formed by the shift's recurrences; ``G`` is overwritten.  When
    the computed ``V`` is not orthonormal to ``_REFINE_DEFECT``, one
    Newton–Schulz step ``V - V (V^H V - I) / 2`` refines it."""
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
    del W
    defect, vtv = _isometry_defect(V)
    if defect > _REFINE_DEFECT:
        V -= (V @ vtv) / 2.0
        del vtv
        defect, _ = _isometry_defect(V)
    deco = DecompositionResult(column_decay, defect, ROUTE_GRAM, margin, s_min)
    return deco, tails_itt, float(s[-1]), None


def _svd_split(
    tall: np.ndarray, margin: float | None
) -> tuple[DecompositionResult, np.ndarray, float, np.ndarray]:
    """:func:`_polar_split` from the thin SVD ``T = U S W^H``.  The column
    norms read ``W^H`` first; then ``U`` and ``W^H`` are flushed
    (:func:`_flush_tiny`), so that ``V = U W^H`` runs in normal arithmetic
    where the running products leave many of their entries below
    ``2**-511``."""
    u, s, wh = np.linalg.svd(tall, full_matrices=False)
    tails_itt = np.linalg.norm((1.0 - s * s)[:, None] * wh, axis=0)
    _check_resolved(float(s[-1]))
    column_decay = np.linalg.norm((s - 1.0)[:, None] * wh, axis=0)
    column_decay.flags.writeable = False
    _flush_tiny(u)
    _flush_tiny(wh)
    V = u @ wh
    del u, wh
    deco = DecompositionResult(
        column_decay, _isometry_defect(V)[0], ROUTE_SVD, margin, float(s[-1])
    )
    return deco, tails_itt, float(s[0]), s


def _band_split(
    shift: _ShiftRecurrence, margin: float
) -> tuple[DecompositionResult, np.ndarray, float, None] | None:
    """:func:`_polar_split` from the block-tridiagonal part ``G_b`` of ``G =
    T*T`` (blocks of order ``_BAND``), or ``None`` when the band route does
    not apply or does not certify its numbers.  ``G`` is read through the
    panels of ``shift`` (:func:`_band_blocks`): no N x N array is formed.

    It applies when ``G`` has at least ``_BAND_MIN_BLOCKS`` blocks.  A
    weighted shift (every ``c_j`` of the window zero, weights ``s_j = a_j /
    a_{j+1}``) splits exactly (Shields, "Weighted shift operators and
    analytic function theory", 1974): ``|T| = diag|s_j|``, and ``V`` is the
    unweighted shift carrying the phases of ``s_j``.  Its numbers take O(N)
    and read no panel of ``G``; the isometry defect is the largest ``|(|s_j|
    z_j)^2 - 1|`` for the computed ``z_j = 1 / |s_j|``, ``Z G Z - I``.

    Otherwise the bound on ``||G - G_b||_F`` of :func:`_band_blocks` must
    be at most ``eps hi`` and its Gershgorin bracket ``[lo, hi]`` must have
    ``lo > 0``.  The coupled Newton–Schulz iteration ``M = (3I - Z Y) /
    2``, ``Y <- Y M``, ``Z <- M Z`` from ``Y = G_b / c``, ``Z = I`` (``c``
    the bracket's centre, so that the spectrum lies in ``(0, 2)``) runs
    once (:func:`_newton_schulz`) in block-tridiagonal arithmetic, each
    product Hermitian (:func:`_band_product`) and truncated back to the
    band.  It must reach ``||ZY - I||_F <= _BAND_SETTLED`` within
    ``_BAND_STEPS`` steps.  Then ``Y ≈ |T| = G^{1/2}`` and ``Z ≈ G^{-1/2}``, exactly
    Hermitian, scaled back by ``sqrt(c)``.  ``column_decay`` is the column
    norms of ``Y - I`` and the isometry defect the largest column norm of
    ``Z G_b Z - I``, which is ``V^H V - I`` for ``V = T Z`` up to ``||G -
    G_b||``.

    Memory is counted in stacks of ``G_b``, ``3 nb b^2`` entries, the
    three block diagonals of a block-tridiagonal matrix.  Every Hermitian
    matrix keeps only its lower half (:func:`_band_product`): ``G_b``,
    ``Y``, ``Z`` and ``M`` two of the three diagonals, 2/3 of a stack
    each.  Every product reads its blocks straight from its factors'
    stacks, ``_BAND_CHUNK`` block columns at a time, through scratch of
    that many blocks for a block above a Hermitian diagonal and for its
    partial sums; the flush (:func:`_flush_tiny`) and the column norms
    work on a few blocks at a time too.  The iteration holds ``G_b``,
    ``Y``, ``Z``, ``M`` and one product, 3.33 stacks; the edge brackets
    hold ``G_b``, ``Y``, ``Z`` and two block Cholesky factors, 2/3 of a
    stack each, 3.33 too; ``Z (G_b Z)`` holds ``Z``, the offsets -1..2 of
    ``G_b Z``, the only ones its lower half reads, and its own four, 3.33
    again.  The split peaks at about 3.47 stacks (10.9 MB traced) on the
    Baseline at ``N = 2048``, in a fresh process as in a warm one: the
    edge brackets' start block (:func:`_start_block`) needs no
    ``numpy.random``.  It peaked at 4.1 when each product's scratch held
    whole block diagonals, 4.3 in a fresh process that imported
    ``numpy.random``, and 5.7 when every stack kept all three diagonals.

    Certificates, each a fallback to the dense route when it fails; they
    are computed from full products, so they cover whatever the truncated
    products of the iteration dropped.  The isometry defect must be at most
    ``_REFINE_DEFECT``, the defect above which the dense Gram route refines
    its own ``V``.  ``s_min`` and the largest singular value lie in
    brackets of width at most ``_BAND_TOL`` (see :func:`_edge_bracket`);
    ``s_min`` is the lower end of its bracket, the returned bound on the
    largest singular value the upper end of its own.  Every eigenvalue of
    ``G``, ``G_b`` and the identity that pads ``G_b`` is at least ``f^2``,
    ``f = min(s_min, 1)``, and one block Cholesky proves every eigenvalue
    of ``Y`` above ``f / 2``.  So ``||Y - G^{1/2}||_2 <= (||Y^2 - G_b||_F +
    ||G - G_b||_F) / (1.5 f)`` (the Sylvester equation ``Y E + E G_b^{1/2}
    = Y^2 - G_b`` for ``E = Y - G_b^{1/2}``), with ``Y^2`` formed in full;
    that bound must be at most ``_BAND_TOL``.  ``Y^2`` and ``Z (G_b Z)``
    are Hermitian products; ``G_b Z`` is a general one.  The Frobenius
    norms that only feed these decisions, of ``ZY - I`` in the iteration
    and of ``Y^2 - G_b``, are read off the lower halves
    (:func:`_band_norm`).
    """
    N = shift.N
    nb = -(-N // _BAND)
    if nb < _BAND_MIN_BLOCKS:
        return None
    if not shift.c[:N].any():  # a weighted shift: G = diag(s^2), |T| = diag(s)
        s = np.abs(shift.sub[:N])
        s_min = float(s.min())
        _check_resolved(s_min)
        column_decay = np.abs(s - 1.0)
        column_decay.flags.writeable = False
        defect = float(np.abs((s * (1.0 / s)) ** 2 - 1.0).max())
        deco = DecompositionResult(column_decay, defect, ROUTE_BAND, margin, s_min)
        return deco, np.abs(1.0 - s * s), float(s.max()), None
    S, tails_itt, lo, hi, dropped = _band_blocks(shift, nb)
    if not (lo > 0.0 and dropped <= np.finfo(float).eps * hi):
        return None
    # the identity that pads the last block widens the bracket to 1
    scale = (min(lo, 1.0) + max(hi, 1.0)) / 2.0
    eye = np.eye(_BAND)  # broadcast along the diagonal blocks
    roots = _newton_schulz(S, scale, eye)
    if roots is None:
        return None
    bottom = _edge_bracket(S, N, 1.0, lo)
    top = _edge_bracket(S, N, -1.0, -hi)
    if bottom is None or top is None:
        return None
    # singular-value brackets: G's eigenvalues lie within ||G - G_b||_2 of
    # G_b's, and top brackets the least eigenvalue of -G_b
    s_min, s_min_high = (
        math.sqrt(max(x, 0.0)) for x in (bottom[0] - dropped, bottom[1] + dropped)
    )
    s_up_low, s_up = (math.sqrt(max(-x, 0.0)) for x in (top[1] + dropped, top[0] - dropped))
    if max(s_min_high - s_min, s_up - s_up_low) > _BAND_TOL:
        return None
    _check_resolved(s_min)
    Y, Z = roots
    del roots
    Y *= math.sqrt(scale)
    Z /= math.sqrt(scale)
    floor = min(s_min, 1.0)
    if _block_cholesky(Y, nb * _BAND, 1.0, floor / 2.0) is None:
        return None
    residual = _band_product(Y, Y, hermitian=True)
    residual[:2] -= S
    if (_band_norm(residual) + dropped) / (1.5 * floor) > _BAND_TOL:
        return None
    del residual
    Y[0] -= eye
    column_decay = _band_column_norms(Y)[:N]
    column_decay.flags.writeable = False
    del Y
    # the lower half of Z (G_b Z) reads G_b Z at offsets -1..2 only
    gz = _band_product(S, Z, low=-1)
    del S
    _flush_tiny(gz)
    vtv = _band_product(Z, gz, hermitian=True, y_low=-1)
    del Z, gz
    vtv[0] -= eye
    defect = float(_band_column_norms(vtv)[:N].max())
    if defect > _REFINE_DEFECT:
        return None
    deco = DecompositionResult(column_decay, defect, ROUTE_BAND, margin, s_min)
    return deco, tails_itt, s_up, None


def _band_blocks(
    shift: _ShiftRecurrence, nb: int
) -> tuple[np.ndarray, np.ndarray, float, float, float]:
    """One pass over the Hermitian ``G = T*T`` of ``shift``, one panel of
    ``_BAND`` rows up to the end of their diagonal block at a time
    (:meth:`~operators._ShiftRecurrence.gram_panels`): the lower half ``S``
    of its block-tridiagonal part ``G_b`` (see :func:`_band_product`), a
    ``(2, nb, b, b)`` stack padded to ``nb`` blocks by the identity; the
    column norms of ``I - G``; its Gershgorin bracket ``lo, hi``; and a
    bound on ``||G - G_b||_F``.

    ``G``'s part right of a panel is the conjugate transpose of later
    panels' parts left of their diagonal blocks.  So the superdiagonal
    blocks are the subdiagonal stack ``S[1]`` conjugate-transposed, and
    each row's Gershgorin radius and squared norm are its panel's row sums
    plus the column sums of later panels, added into two vectors of length
    ``N``.  The bound is the norm of ``G``'s entries outside the
    block-tridiagonal part, summed directly with the part left of the band
    counted twice, plus ``2**-511`` for each entry of ``G_b`` below that,
    which is zeroed (:func:`_flush_tiny`) so that the band route's products
    stay out of subnormal arithmetic; a subdiagonal entry counts twice, as
    its mirror above the diagonal is dropped with it."""
    N, b = shift.N, _BAND
    S = np.zeros((2, nb, b, b), np.result_type(shift.r, 1.0))
    diag = shift.gram_diagonal()
    radius, norm_sq = np.empty(N), np.empty(N)
    mags = np.empty((min(b, N), N))
    outside_sq = 0.0
    for r0, rows in shift.gram_panels():
        i, r1 = r0 // b, r0 + rows.shape[0]
        on = (np.arange(r1 - r0), np.arange(r0, r1))
        S[0, i, : r1 - r0, : r1 - r0] = rows[:, r0:r1]
        if i:
            S[1, i - 1, : r1 - r0] = rows[:, r0 - b : r0]
        # row sums left of the block end; later panels add those right of it
        m = mags[: r1 - r0, :r1]
        np.abs(rows, out=m)
        m[on] = 0.0
        radius[r0:r1] = m.sum(axis=1)
        radius[:r0] += m[:, :r0].sum(axis=0)
        m[on] = np.abs(diag[r0:r1] - 1.0)
        m *= m
        norm_sq[r0:r1] = m.sum(axis=1)
        norm_sq[:r0] += m[:, :r0].sum(axis=0)
        outside_sq += 2.0 * float(m[:, : max(0, r0 - b)].sum())
    lo, hi = float((diag - radius).min()), float((diag + radius).max())
    tails = np.sqrt(norm_sq, out=norm_sq)
    pad = nb * b - N
    S[0, -1, b - pad :, b - pad :] = np.eye(pad)
    # a flushed subdiagonal entry's mirror above the diagonal is dropped too
    tiny = _flush_tiny(S[0]) + 2 * _flush_tiny(S[1])
    return S, tails, lo, hi, math.sqrt(outside_sq + tiny * _TINY**2)


def _band_product(
    X: np.ndarray,
    Y: np.ndarray,
    keep: int | None = None,
    hermitian: bool = False,
    low: int | None = None,
    y_low: int = 0,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """``X Y`` for a Hermitian block-banded ``X`` and a block-banded ``Y``,
    with the block offsets from ``low`` up to ``keep`` (all of them when
    ``keep`` is ``None``, and from the negative of the top one when ``low``
    is), written into ``out`` when given.

    A block-banded matrix with ``nb`` blocks of order ``b`` is a stack
    ``S`` of ``(nb, b, b)`` block diagonals, zero where a block row does not
    exist.  A Hermitian one with offsets up to ``p`` keeps its lower half, a
    ``(p + 1, nb, b, b)`` stack with ``S[d, j]`` the block in block row ``j
    + d`` and block column ``j``; its block ``(j - d, j)`` is ``S[d, j -
    d]^H``.  ``X`` is one of these; so is ``Y`` when ``y_low`` is 0, and
    otherwise ``Y`` is a general stack whose ``Y[k]`` holds offset ``y_low
    + k``.  Block ``(j + d, j)`` of ``X Y`` is the sum over ``e`` of
    ``X``'s block ``(j + d, j + e)`` times ``Y``'s block ``(j + e, j)``:
    for each chunk of ``_BAND_CHUNK`` block columns ``j``, one batched
    ``matmul`` over the chunk per pair ``(d, e)``, read straight from the
    two stacks, or, for a block above a Hermitian diagonal, from its mirror
    conjugate-transposed into a buffer of the chunk's blocks, the same bits
    that a stored upper half would hold.  A batched ``matmul`` multiplies
    each block on its own, so the chunks give the bits of one call over
    all ``nb`` blocks, and the sum over ``e`` runs in the same order; the
    scratch is a chunk of partial sums and at most two of mirrors, however
    large ``nb`` is.

    Without ``hermitian`` the result is a general stack from offset
    ``low``.  With it the caller states that ``X Y`` is Hermitian (``X``
    and ``Y`` commute, or ``X Y = Z A Z`` with ``A`` and ``Z`` Hermitian),
    and the result is its lower half, with the diagonal blocks ``(D + D^H)
    / 2``, so exactly Hermitian.  What that drops of a product that is
    Hermitian only approximately, the band route's a posteriori
    certificates cover.
    """
    p = X.shape[0] - 1
    q = Y.shape[0] - 1 + y_low
    r = p + q if keep is None else keep
    first = 0 if hermitian else -r if low is None else low
    nb, b = X.shape[1], X.shape[2]
    if out is None:
        out = np.zeros((r - first + 1, nb, b, b), np.result_type(X, Y))
    else:
        out.fill(0.0)
    chunk = min(_BAND_CHUNK, nb)
    buffer = np.empty((chunk, b, b), out.dtype)
    # at most one factor is read through its mirror, except below offset -1
    # of a general product of two Hermitian factors
    mirrors = np.empty((2 if first < -1 and y_low == 0 else 1, chunk, b, b), out.dtype)
    y_first = -q if y_low == 0 else y_low  # Y's lowest offset
    for c0 in range(0, nb, chunk):
        c1 = min(nb, c0 + chunk)
        for d in range(first, r + 1):
            for e in range(max(y_first, d - p), min(q, d + p) + 1):
                j0, j1 = max(c0, -d, -e), min(c1, nb - d, nb - e)
                if j0 >= j1:
                    continue
                part = buffer[: j1 - j0]
                x = _offset_blocks(X, 0, d - e, j0 + e, j1 + e, mirrors[0])
                y = _offset_blocks(Y, y_low, e, j0, j1, mirrors[-1])
                np.matmul(x, y, out=part)
                out[d - first, j0:j1] += part
        if hermitian:
            diagonal = out[0, c0:c1]
            diagonal += _adjoint_blocks(diagonal, buffer[: c1 - c0])
            diagonal /= 2.0
    return out


def _offset_blocks(
    S: np.ndarray, low: int, d: int, j0: int, j1: int, mirror: np.ndarray
) -> np.ndarray:
    """The blocks at offset ``d`` in block columns ``j0..j1`` of the stack
    ``S`` whose ``S[k]`` holds offset ``low + k``; below ``low``, ``S`` is a
    Hermitian lower half, and block ``(j + d, j)`` is ``S[-d, j + d]^H``,
    written into ``mirror``."""
    if d >= low:
        return S[d - low, j0:j1]
    return _adjoint_blocks(S[-d, j0 + d : j1 + d], mirror[: j1 - j0])


def _adjoint_blocks(blocks: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``out``, set to the conjugate transpose of each block of ``blocks``:
    copied through the transpose, then conjugated in place, so that no
    ufunc buffer (``np.getbufsize()`` entries) is allocated for a strided
    operand."""
    np.copyto(out, blocks.swapaxes(-1, -2))
    if out.dtype.kind == "c":
        np.conjugate(out, out=out)
    return out


def _band_column_norms(S: np.ndarray) -> np.ndarray:
    """Column norms of the Hermitian block-banded matrix whose lower half is
    the stack ``S`` (see :func:`_band_product`).

    A few block columns at a time, the squared moduli of all ``2p + 1``
    offsets are laid out as one C-contiguous ``(2p + 1, k, b, b)`` stack,
    the upper half mirrored from ``S``, and summed over offsets and rows:
    each column adds the same squares in the same order as it would over
    the full stack, so the norms are those bits, and no temporary larger
    than ``_FLUSH_CHUNK`` entries, or one block column's ``2p + 1`` blocks,
    is formed."""
    p, nb, b = S.shape[0] - 1, S.shape[1], S.shape[2]
    norms = np.empty((nb, b))
    step = max(1, _FLUSH_CHUNK // ((2 * p + 1) * b * b))
    chunk = np.empty((2 * p + 1) * min(step, nb) * b * b)
    for j0 in range(0, nb, step):
        j1 = min(nb, j0 + step)
        squares = chunk[: (2 * p + 1) * (j1 - j0) * b * b].reshape(2 * p + 1, j1 - j0, b, b)
        for d in range(p + 1):
            np.abs(S[d, j0:j1], out=squares[p + d])
        for d in range(1, p + 1):  # block (j - d, j) is (j, j - d)^H
            above = squares[p - d]
            k = min(max(j0, d), j1) - j0
            above[:k] = 0.0
            np.abs(S[d, j0 + k - d : j1 - d].swapaxes(-1, -2), out=above[k:])
        squares *= squares
        np.sum(squares, axis=(0, 2), out=norms[j0:j1])
    return np.sqrt(norms, out=norms).ravel()


def _newton_schulz(
    G: np.ndarray, scale: float, eye: np.ndarray
) -> tuple[np.ndarray, np.ndarray] | None:
    """``(Y, Z)`` with ``Y ≈ A^{1/2}`` and ``Z ≈ A^{-1/2}`` for ``A = G /
    scale``, Hermitian with spectrum in ``(0, 2)``, by the coupled
    Newton–Schulz iteration (Higham, *Functions of Matrices*, 2008, eq.
    6.35) from ``Y = A``, ``Z = I``, or ``None`` when it does not settle
    within ``_BAND_STEPS`` steps.  ``A`` is the first ``Y`` and the only
    copy of ``G`` made.  ``G`` is the lower half of a block-tridiagonal
    matrix, a ``(2, nb, b, b)`` stack, ``eye`` the identity of one block,
    added to the diagonal blocks, and every product is the truncated
    Hermitian ``_band_product(X, Y, keep=1, hermitian=True)``, written into
    one of four stacks that the iteration reuses: ``Y``, ``Z``, ``M`` and
    the spare that takes the next ``Y`` or ``Z``.

    Every iterate is a polynomial in ``A``, so Hermitian up to what the
    truncated products drop.  The first step forms no product with ``Z =
    I``: ``Z Y = Y`` and ``M Z = M`` exactly, the same bits that the
    products give when ``A``'s stacks are exactly Hermitian.  Once ``||M -
    I||_F <= _BAND_POLISH`` one more step squares the error away, and
    ``||ZY - I||_F <= _BAND_SETTLED`` must hold after it; both norms are
    read off the lower half (:func:`_band_norm`).  Every iterate has
    its sub-resolution entries flushed (:func:`_flush_tiny`).  What a
    truncated product drops is not bounded here: :func:`_band_split`
    certifies ``Y`` and ``Z`` afterwards from full products."""
    product = functools.partial(_band_product, keep=1, hermitian=True)
    Y, Z = G / scale, None
    P, spare = np.empty_like(Y), np.empty_like(Y)
    polished = False
    for _ in range(_BAND_STEPS):
        if Z is None:
            np.copyto(P, Y)
        else:
            product(Z, Y, out=P)
        P[0] -= eye
        delta = _band_norm(P)
        if polished:
            return (Y, Z) if delta <= _BAND_SETTLED else None
        polished = delta <= 2.0 * _BAND_POLISH
        P *= -0.5  # M = (3I - ZY) / 2 = I - (ZY - I) / 2
        P[0] += eye
        _flush_tiny(P)
        Y, spare = product(Y, P, out=spare), Y
        if Z is None:
            Z, P = P, np.empty_like(Y)
        else:
            Z, spare = product(P, Z, out=spare), Z
        _flush_tiny(Y)
        _flush_tiny(Z)
    return None


def _band_norm(S: np.ndarray) -> float:
    """The Frobenius norm of the Hermitian block-banded matrix whose lower
    half is the stack ``S``: ``sqrt(||D||^2 + 2 ||L||^2)`` for its diagonal
    stack ``D`` and the rest ``L``, which holds each block below the
    diagonal and is the mirror of those above."""
    diagonal, below = float(np.linalg.norm(S[0])), float(np.linalg.norm(S[1:]))
    return math.sqrt(diagonal**2 + 2.0 * below**2)


def _block_cholesky(
    S: np.ndarray, N: int, sign: float, sigma: float
) -> tuple[list[np.ndarray], list[np.ndarray]] | None:
    """The block Cholesky factor ``L`` of ``A - sigma I``, ``A = sign X`` on
    the leading ``N`` rows of the Hermitian block-tridiagonal ``X`` whose
    lower half is the stack ``S`` (its diagonal blocks ``S[0]``, those
    below them ``S[1]``), as the inverses of its diagonal blocks and its blocks
    below them; ``None`` when a diagonal block has no Cholesky factor.  By
    Sylvester's law of inertia the factor exists exactly when every
    eigenvalue of ``A`` exceeds ``sigma``."""
    nb, b = S.shape[1], S.shape[2]
    inv_diag: list[np.ndarray] = []
    below: list[np.ndarray] = []
    for i in range(nb):
        m = min(b, N - i * b)
        block = sign * S[0, i, :m, :m] - sigma * np.eye(m)
        if below:
            block -= below[-1] @ below[-1].conj().T
        try:
            inv = np.linalg.inv(np.linalg.cholesky(block))
        except np.linalg.LinAlgError:
            return None
        inv_diag.append(inv)
        if i + 1 < nb:
            below.append((sign * S[1, i, : min(b, N - (i + 1) * b), :m]) @ inv.conj().T)
    return inv_diag, below


def _block_solve(
    factor: tuple[list[np.ndarray], list[np.ndarray]], X: np.ndarray
) -> np.ndarray:
    """``(L L^H)^{-1} X`` for the factor of :func:`_block_cholesky` and a
    block ``X`` of as many rows as ``L``."""
    inv_diag, below = factor
    out = np.empty(X.shape, np.result_type(inv_diag[0], X))
    b = inv_diag[0].shape[0]
    spans = [slice(i * b, i * b + inv.shape[0]) for i, inv in enumerate(inv_diag)]
    prev = None
    for i, rows in enumerate(spans):
        rhs = X[rows] if prev is None else X[rows] - below[i - 1] @ prev
        out[rows] = prev = inv_diag[i] @ rhs
    nxt = None
    for i in range(len(spans) - 1, -1, -1):
        rows = spans[i]
        rhs = out[rows] if nxt is None else out[rows] - below[i].conj().T @ nxt
        out[rows] = nxt = inv_diag[i].conj().T @ rhs
    return out


def _band_apply(S: np.ndarray, N: int, X: np.ndarray) -> np.ndarray:
    """``G_b X`` for the leading ``N`` rows and columns of the Hermitian
    block-tridiagonal ``G_b`` whose lower half is the stack ``S`` and an
    ``N``-row block ``X``; the blocks above the diagonal are the
    subdiagonal ones conjugate-transposed, ``_BAND_CHUNK`` at a time, into
    one buffer of that many blocks (see :func:`_band_product`)."""
    nb, b = S.shape[1], S.shape[2]
    Xb = np.zeros((nb, b, X.shape[1]), np.result_type(S, X))
    Xb.reshape(nb * b, -1)[:N] = X
    out = S[0] @ Xb
    out[1:] += S[1, :-1] @ Xb[:-1]
    chunk = min(_BAND_CHUNK, nb)
    mirror = np.empty((chunk, b, b), S.dtype)
    for j0 in range(1, nb, chunk):
        j1 = min(nb, j0 + chunk)
        out[j0 - 1 : j1 - 1] += _offset_blocks(S, 0, -1, j0, j1, mirror) @ Xb[j0:j1]
    return out.reshape(nb * b, -1)[:N]


def _edge_bracket(
    S: np.ndarray, N: int, sign: float, bound: float
) -> tuple[float, float] | None:
    """``(low, high)`` with ``low < λ_min(A) <= high`` and ``high - low <=
    _BAND_TOL / 2`` for ``A = sign G_b`` on the leading ``N`` rows of
    ``G_b``'s lower half ``S``, whose spectrum Gershgorin puts at or above ``bound``; or
    ``None`` when no such bracket is found.

    Each side is proved by :func:`_block_cholesky`: the factor of ``A -
    low I`` exists and that of ``A - high I`` does not.  The bracket is
    seeded by inverse subspace iteration on ``_RITZ_VECTORS`` vectors with a
    proved lower bound as shift: the least Ritz value ``θ`` bounds
    ``λ_min`` from above, and a clustered edge still converges because the
    Ritz values converge as ``(λ_k - shift) / (λ_{R+1} - shift)`` for the
    block size ``R``.  When an iteration moves ``θ`` by less than a quarter
    of its distance to the shift, the shift is moved up to below ``θ`` by
    twice the error that the last two moves predict, if the factorization
    there exists; a closer shift speeds up the iteration.  The start block
    is the fixed :func:`_start_block`: the iteration needs only some weight
    on the edge's eigenvectors, which a fixed pseudo-random block has
    (Parlett, *The Symmetric Eigenvalue Problem*, 1998, ch. 14), and the
    same block on every run keeps the bracket, and the report, the same
    bits.  At most two factors are held at a time."""
    width = _BAND_TOL / 2.0
    scale = max(abs(bound), 1.0)
    shift, factor = bound, None
    for tries in range(3):
        shift = bound - N * np.finfo(float).eps * scale * 64.0**tries
        factor = _block_cholesky(S, N, sign, shift)
        if factor is not None:
            break
    if factor is None:
        return None
    X = _start_block(N, _RITZ_VECTORS)
    theta = move = math.inf
    for _ in range(_RITZ_STEPS):
        X, _ = np.linalg.qr(_block_solve(factor, X))
        ritz = X.conj().T @ (sign * _band_apply(S, N, X))
        least = float(np.linalg.eigvalsh((ritz + ritz.conj().T) / 2.0)[0])
        ratio = (theta - least) / move if move > 0.0 else 1.0
        move, theta = theta - least, min(theta, least)
        if theta - shift > width / 2.0 and move <= (theta - shift) / 4.0:
            # the error left in theta if it keeps converging at this ratio
            ahead = move * min(1.0, ratio / (1.0 - ratio)) if ratio < 1.0 else move
            probe = theta - max(width / 4.0, 2.0 * ahead)
            moved = _block_cholesky(S, N, sign, probe)
            if moved is not None:
                shift, factor = probe, moved
        if theta - shift <= width / 2.0:
            break
    else:
        return None
    factor = moved = None  # freed before the upper side is factorized
    high = shift + width
    if _block_cholesky(S, N, sign, high) is not None:
        return None
    return shift, high


def _start_block(rows: int, cols: int) -> np.ndarray:
    """A fixed ``rows x cols`` block of standard normal entries: the
    SplitMix64 outputs of seed 0 (Steele, Lea and Flood, "Fast splittable
    pseudorandom number generators", 2014), their top 53 bits taken as
    uniform in ``[0, 1)``, the first half as the radii and the second as
    the angles of the Box–Muller transform.  A normal block's weight on
    each eigenvector has the same distribution whatever the eigenvectors
    are, as the block that ``numpy.random`` drew had.  The integer hash
    runs in numpy's ``uint64`` arithmetic, which wraps, so no command
    imports ``numpy.random``."""
    z = np.arange(1, 2 * rows * cols + 1, dtype=np.uint64)
    z *= np.uint64(0x9E3779B97F4A7C15)
    z ^= z >> np.uint64(30)
    z *= np.uint64(0xBF58476D1CE4E5B9)
    z ^= z >> np.uint64(27)
    z *= np.uint64(0x94D049BB133111EB)
    z ^= z >> np.uint64(31)
    z >>= np.uint64(11)
    radius, angle = z.reshape(2, -1) * 2.0**-53
    radius += 2.0**-53  # in (0, 1]
    radius = np.sqrt(-2.0 * np.log(radius))
    return (radius * np.cos(2.0 * np.pi * angle)).reshape(rows, cols)


def _flush_tiny(x: np.ndarray) -> int:
    """Zero, in place, every entry of ``x`` with ``|x| < 2**-511``, whose
    square would be subnormal, and return how many nonzero entries it
    zeroed.  ``x`` is read as a matrix of rows along its last axis (a view,
    so a stack must be C-contiguous), ``_FLUSH_CHUNK`` entries at a time, so
    that no temporary as large as ``x`` is formed: not on an ``N x N``
    array, and not on a ``(p + 1, nb, b, b)`` stack of the band route
    either.

    The split applies it to ``W`` (unitary), ``T W / s = V W``, ``U`` and
    ``W^H`` of a thin SVD and ``V`` (orthonormal columns), whose entries are
    at most about 1, so each entry of ``(T W / s) W^H``, ``U W^H`` and ``V^H
    V`` moves by at most about ``H * 2**-511``, about 1e-150.  ``T W``
    applies ``T``, whose entries are not bounded by 1, to the flushed ``W``
    by the shift's row recurrence; that is the same linear map as the dense
    product, so after the division by ``s`` its entries move by at most
    about ``κ(T) H * 2**-511``.  ``margin < 1`` bounds ``κ(T) <= ||T||_F
    ||X||_F``, ``X`` the left inverse, below ``(H eps)**-0.5``, about 1e6 at
    ``H`` of a few thousand, so every move stays far below half an ulp of
    anything the split reports.  The dense Gram route's ``G`` is not
    flushed.  The SVD route flushes ``U`` and ``W^H`` after its column norms
    have read ``W^H``.  The band route flushes its stacks of ``G``'s band,
    read off ``G``'s panels (and counts what that drops into its ``||G -
    G_b||_F`` bound), its Newton–Schulz iterates, which its a posteriori
    certificates cover, and ``G_b Z``, which moves the isometry defect, the
    last of those certificates, by about ``2**-511``.
    """
    rows = x.reshape(-1, x.shape[-1])
    step = max(1, _FLUSH_CHUNK // rows.shape[1])
    flushed = 0
    for start in range(0, rows.shape[0], step):
        chunk = rows[start : start + step]
        small = np.abs(chunk) < _TINY
        # zeros are small too: count only the entries that the flush changes
        flushed += int(np.count_nonzero(small)) - chunk.size + int(np.count_nonzero(chunk))
        chunk[small] = 0.0
    return flushed


def _isometry_defect(V: np.ndarray) -> tuple[float, np.ndarray]:
    """The largest column norm of ``V^H V - I``, and ``V^H V - I``, with
    ``V``'s sub-resolution entries flushed first (see :func:`_flush_tiny`)."""
    _flush_tiny(V)
    vtv = V.conj().T @ V
    vtv.flat[:: vtv.shape[0] + 1] -= 1.0  # in place, as vtv - I rounds
    return float(np.linalg.norm(vtv, axis=0).max()), vtv


def neumann_error_curve(
    seq: SequencePair, n0: int, N: int, m_max: int
) -> list[tuple[int, float, float]]:
    """Operator-norm error of the alternating partial sums against the
    assembled tail block, next to the geometric bound M0 r^(m+1)/(1-r).

    The error of ``S_m = sum_{k<=m} (-W)^k D`` is the exact remainder
    ``A2 - S_m = (-W)^{m+1} A2``: the part of ``A2`` below its m-th
    subdiagonal, taken as rows of ``A2`` scaled by the weights' running
    products, not as the rounded difference of two matrices.  Its norms
    come from :func:`_remainder_norms`.  ``r`` is the supremum of the
    weights that enter the weighted shift (``|b_n/a_{n+1}|`` for n >= n0+2
    on the horizon) and M0 the largest coupling coefficient magnitude.
    Raises :class:`BoundUnavailableError` when r >= 1.
    """
    if m_max < 1:
        raise ValueError("m_max must be at least 1")
    _, _, A2 = build_tail_blocks(seq, n0, N)
    weights = np.abs(seq.b[n0 + 2 : -1] / seq.a[n0 + 3 :])
    r = float(weights.max()) if weights.size else 0.0
    if r >= 1.0:
        raise BoundUnavailableError(
            f"measured tail ratio {r:.4f} >= 1; no geometric bound exists"
        )
    m0 = float(np.abs(c_coefficients(seq)).max())
    K = A2.entries.shape[0]
    errors = _remainder_norms(A2.entries, weights[: K - 1], m_max)
    return [
        (m, err, m0 * r ** (m + 1) / (1.0 - r) if r > 0.0 else 0.0)
        for m, err in enumerate(errors)
    ]


def _remainder_norms(A2: np.ndarray, weights: np.ndarray, m_max: int) -> list[float]:
    """``||(-W)^{m+1} A2||_2`` for m = 0..m_max, ``W`` the weighted shift
    with subdiagonal ``weights`` and ``A2`` its assembled tail block.

    Row ``t + m + 1`` of the remainder ``E_m`` is ``g_m[t] A2[t]``, with
    ``g_m[t] = prod_{q=t}^{t+m} (-w_q)``.  Every entry of ``A2`` is a
    product, so its phases factor as ``α_i β_j`` and ``||E_m||_2 = || |E_m|
    ||_2``.  The norms are therefore those of real nonnegative matrices,
    whose Grams ``B_m = |A2|^T diag(|g_m|^2) |A2|`` have a nonnegative Perron
    vector ``p``.  The all-ones start of Lanczos overlaps it by ``sum(p) /
    sqrt(K) >= 1/sqrt(K)``, so the iteration cannot miss the top eigenvalue.

    One fully reorthogonalized Lanczos pass (Parlett, *The Symmetric
    Eigenvalue Problem*, 1998, ch. 13) runs on all orders at once, in real
    arithmetic: a step is two GEMMs through ``|A2|`` with the row weights
    applied between them.  Each row of ``|A2|`` and each order is scaled by
    exact powers of two, so that no product overflows; a zero row of ``A2``
    adds nothing to any remainder, and an order that reaches none but zero
    rows has norm 0.  The top Ritz value ``θ`` is accepted on either of two
    proofs that ``λ_max``, which is at least ``θ``, is within a few
    ``_KRYLOV_TOL θ`` of it:

    - the Krylov space is nearly invariant, ``sqrt(K) β <= _KRYLOV_TOL θ``,
      ``β`` the next off-diagonal.  With ``s = Q^T p``, ``Q`` the basis,
      ``||(T - λ_max) s|| <= β`` and ``||s|| >= 1/sqrt(K)``, so some Ritz
      value, hence ``θ``, lies within ``sqrt(K) β`` below ``λ_max``;
    - the Ritz residual ``ρ <= _KRYLOV_TOL θ`` and ``2θ - ρ + θ_3 + ... +
      θ_j > tr(B_m)``, the ``θ_i`` the lower Ritz values.  Some eigenvalue
      lies within ``ρ`` of ``θ``.  Were ``λ_max`` another one, above ``θ +
      ρ``, then by interlacing (``λ_i >= θ_i``) and ``B_m >= 0`` the trace
      would exceed that sum.

    Rounding in either test can only admit a ``λ_max`` above the bracket by
    a rounding-sized amount.  An order not accepted within
    ``_KRYLOV_STEPS`` steps takes :func:`_spectral_norm` of its exact tail
    ``tril(|A2|, -(m+1))``, which has ``E_m``'s norm.  It leaves for it
    earlier once the trace test cannot pass by the step cap: the Ritz
    values sum to ``tr(T)``, each later step adds a Rayleigh quotient, at
    most ``λ_max <= θ + sqrt(K) β`` (the first proof's bound), and the test's
    left side is at most ``tr(T) + θ``.  An order with a flat top spectrum,
    whose trace is many times ``λ_max``, so leaves well before the cap.
    """
    K = A2.shape[0]
    orders = m_max + 1
    norms = [0.0] * orders
    modulus = np.abs(A2)
    row_peaks = modulus.max(axis=1)
    top = float(row_peaks.max())
    if top == 0.0:
        return norms
    # each row of |A2| scaled by the power of two that brings its peak into
    # [1/2, 1); g holds |g_m| as columns, zero where row t + m + 1 falls
    # outside the block or row t of A2 is zero, times its row's scale over
    # the block's, so that no entry of g exceeds 1
    row_exponents = np.frexp(row_peaks)[1]
    A = np.ldexp(modulus, -row_exponents[:, None])
    g = np.zeros((K, orders))
    run = np.abs(weights)
    for m in range(min(orders, K - 1)):
        g[: K - 1 - m, m] = run
        run = run[:-1] * np.abs(weights[m + 1 :])
    g[row_peaks == 0.0] = 0.0
    shift = math.frexp(top)[1]
    g = np.ldexp(g, (row_exponents - shift)[:, None])
    peaks = g.max(axis=0)
    live = np.flatnonzero(peaks)
    if live.size == 0:
        return norms
    # order m's matrix is diag(h_m) A, h_m = g_m / 2**exponent, and its
    # Gram's trace the h_m**2-weighted sum of A's squared row norms
    exponents = np.frexp(peaks[live])[1]
    h2 = np.ldexp(g[:, live], -exponents).T ** 2
    traces = h2 @ np.einsum("ij,ij->i", A, A)
    steps = min(_KRYLOV_STEPS, K)
    Q = np.empty((live.size, steps, K))  # each order's Lanczos basis
    T = np.zeros((live.size, steps + 1, steps + 1))  # its tridiagonal
    x = np.full((live.size, K), 1.0 / math.sqrt(K))
    dense: list[int] = []
    for j in range(steps):
        Q[:, j] = x
        z = ((x @ A.T) * h2) @ A  # the rows of B_m x_m
        T[:, j, j] = np.einsum("ij,ij->i", x, z)
        basis = Q[:, : j + 1]
        for _ in range(2):  # classical Gram–Schmidt, twice
            z -= np.einsum("ijk,ij->ik", basis, np.einsum("ijk,ik->ij", basis, z))
        beta = np.linalg.norm(z, axis=1)
        ritz = T[:, : j + 1, : j + 1]
        values = np.linalg.eigvalsh(ritz)
        theta = values[:, -1]
        rho = beta * np.abs(_top_eigenvectors(ritz, theta)[:, -1])
        lower = values[:, :-2].sum(axis=1)
        invariant = math.sqrt(K) * beta <= _KRYLOV_TOL * theta
        traced = (rho <= _KRYLOV_TOL * theta) & (2.0 * theta - rho + lower > traces)
        proved = invariant | traced
        for i in np.flatnonzero(proved):
            norms[live[i]] = math.ldexp(math.sqrt(theta[i]), int(exponents[i]) + shift)
        # each later step adds to the Ritz values' sum one Rayleigh quotient,
        # at most λ_max <= θ + sqrt(K) β: an order whose trace that sum
        # cannot reach by the step cap leaves for the dense norm now
        reach = values.sum(axis=1) + (steps - j) * (theta + math.sqrt(K) * beta)
        hopeless = ~proved & (reach < traces)
        dense.extend(live[hopeless].tolist())
        if (proved | hopeless).any():
            keep = ~(proved | hopeless)
            live, exponents, traces = live[keep], exponents[keep], traces[keep]
            h2, Q, T, z, beta = h2[keep], Q[keep], T[keep], z[keep], beta[keep]
        if live.size == 0:
            break
        T[:, j + 1, j] = T[:, j, j + 1] = beta
        x = z / beta[:, None]
    for m in dense + live.tolist():
        norms[m] = _spectral_norm(np.tril(modulus, -(m + 1)))
    return norms


def _top_eigenvectors(T: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """Unit eigenvectors, as rows, of the stacked symmetric matrices ``T``
    for their largest eigenvalues ``theta``: three steps of inverse
    iteration from the all-ones vector, shifted ``2**-40 θ`` above ``θ``,
    where ``T - σI`` is negative definite, so no solve is singular."""
    shifted = T - (theta * (1.0 + 2.0**-40))[:, None, None] * np.eye(T.shape[-1])
    y = np.ones(T.shape[:2])
    for _ in range(3):
        y = np.linalg.solve(shifted, y[:, :, None])[:, :, 0]
        y /= np.linalg.norm(y, axis=1, keepdims=True)
    return y


def _spectral_norm(E: np.ndarray) -> float:
    """``||E||_2`` as the root of the largest eigenvalue of ``F^H F``, ``F``
    the matrix ``E`` scaled by the power of two that brings its largest
    entry into ``[1/2, 1)``, so that the Gram neither overflows nor
    underflows and the scaling is exact; ``0.0`` for a zero ``E``."""
    top = float(np.abs(E).max())
    if top == 0.0:
        return 0.0
    exponent = math.frexp(top)[1]
    half = -exponent // 2  # two factors, so that neither overflows
    F = E * 2.0**half * 2.0 ** (-exponent - half)
    lam = float(np.linalg.eigvalsh(F.conj().T @ F)[-1])
    return math.ldexp(math.sqrt(max(lam, 0.0)), exponent)


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
