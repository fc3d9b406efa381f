"""Finite sections of the shift, its adjoint, its left inverse, and blocks.

Matrix convention: column ``j`` of a section lists the basis coefficients of
the image of the ``j``-th basis vector, so sections compare entrywise against
the operator written out column by column.  The shift section is strictly
lower triangular and the left-inverse section carries one superdiagonal;
products of sections are therefore exact on leading windows whose size is
recorded in ``exact_window``.

Deep column entries are generated by running products (multiply-accumulate
down the column) rather than quotients of long products, so growing
coefficient families cannot overflow intermediate numerators or denominators.
Each factor is a direct entrywise ratio ``b_k / a_{k+1}``, preserving the
bit-level invariance of all sections under exactly representable rescalings
of ``(a, b)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .sequences import (
    HorizonError,
    SequencePair,
    c_coefficients,
    d_coefficients,
    validate_assumptions,
)


@dataclass(frozen=True)
class TruncatedOperator:
    """A dense finite section together with truncation metadata.

    ``entries`` has shape ``(rows, order)`` with ``rows >= order``; builders
    return square sections, while analysis routines may carry extra evaluated
    rows so that column Gram products are exact.  ``tail_bound`` (when
    available) bounds the l2 mass of each column's discarded rows;
    ``exact_window`` is the leading window on which products against
    same-size sections are exact.
    """

    entries: np.ndarray
    order: int
    basis_offset: int = 0
    tail_bound: np.ndarray | None = None
    exact_window: int | None = None

    def __post_init__(self) -> None:
        entries = np.array(self.entries, dtype=complex)
        if entries.ndim != 2:
            raise ValueError("entries must be a matrix")
        rows, cols = entries.shape
        if cols != self.order:
            raise ValueError(f"entries have {cols} columns, order is {self.order}")
        if rows < self.order:
            raise ValueError("entries must have at least `order` rows")
        window = self.order if self.exact_window is None else self.exact_window
        if not 0 <= window <= self.order:
            raise ValueError("exact_window must lie in [0, order]")
        tail = self.tail_bound
        if tail is not None:
            tail = np.array(tail, dtype=float)
            if tail.shape != (self.order,):
                raise ValueError("tail_bound must have one entry per column")
            if not np.all(np.isfinite(tail)) or np.any(tail < 0):
                raise ValueError("tail_bound entries must be finite and nonnegative")
            tail.flags.writeable = False
        entries.flags.writeable = False
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "tail_bound", tail)
        object.__setattr__(self, "exact_window", window)

    @property
    def rows(self) -> int:
        return self.entries.shape[0]


@dataclass(frozen=True)
class BlockSet:
    """Diagonal/lower-triangular blocks of the compressed difference operator.

    All four sections act on the span of the basis vectors from index 1 on
    (``basis_offset == 1``); ``u`` is the unweighted unilateral shift there.
    """

    b1: TruncatedOperator
    b2: TruncatedOperator
    b3: TruncatedOperator
    u: TruncatedOperator

    def __post_init__(self) -> None:
        k = self.b1.order
        for name in ("b1", "b2", "b3", "u"):
            op = getattr(self, name)
            if op.order != k or op.basis_offset != 1:
                raise ValueError(f"block {name} must be {k}x{k} at basis offset 1")


def _require_horizon(seq: SequencePair, needed: int, what: str) -> None:
    if needed > seq.horizon:
        raise HorizonError(
            f"{what} needs sequence data up to index {needed}; "
            f"horizon is {seq.horizon}"
        )


def monomial_in_basis(seq: SequencePair, n: int, M: int) -> np.ndarray:
    """Coefficients of the n-th monomial over basis vectors n..n+M.

    Entry ``m`` multiplies basis vector ``n+m``:
    ``(-1)^m (prod_{j<m} b_{n+j}) / (a_n prod_{j<m} a_{n+j+1})``, empty
    products equal to 1.
    """
    if n < 0 or M < 0:
        raise ValueError("n and M must be nonnegative")
    _require_horizon(seq, n + M, "monomial expansion")
    coef = np.empty(M + 1, dtype=complex)
    coef[0] = 1.0 / seq.a[n]
    if M:
        ratios = -(seq.b[n : n + M] / seq.a[n + 1 : n + M + 1])
        coef[1:] = coef[0] * np.cumprod(ratios)
    return coef


def _deep_column(start: complex, first_b: int, depth: int, seq: SequencePair) -> np.ndarray:
    """Running-product column: t_0 = start, t_{m+1} = t_m * (-b_{f+m}/a_{f+m+1})."""
    vals = np.empty(depth, dtype=complex)
    vals[0] = start
    if depth > 1:
        ratios = -(
            seq.b[first_b : first_b + depth - 1]
            / seq.a[first_b + 1 : first_b + depth]
        )
        vals[1:] = start * np.cumprod(ratios)
    return vals


def build_shift(seq: SequencePair, N: int) -> TruncatedOperator:
    """N x N section of the shift: subdiagonal a_n/a_{n+1}, then c_n and its
    alternating running products down each column."""
    if N < 2:
        raise ValueError("section order must be at least 2")
    _require_horizon(seq, N, "shift section")
    a = seq.a
    M = np.zeros((N, N), dtype=complex)
    idx = np.arange(N - 1)
    M[idx + 1, idx] = a[: N - 1] / a[1:N]
    c = c_coefficients(seq)
    for n in range(N - 2):
        M[n + 2 :, n] = _deep_column(c[n], n + 2, N - n - 2, seq)
    tail = _shift_tail_bounds(seq, N, c)
    return TruncatedOperator(M, N, 0, tail, N)


def _shift_tail_bounds(seq: SequencePair, N: int, c: np.ndarray) -> np.ndarray | None:
    H = seq.horizon
    rep = validate_assumptions(seq)
    if rep.r_hat >= 1.0 or H < N + 1:
        return None
    r2 = rep.r_hat * rep.r_hat
    factor = r2 / (1.0 - r2)
    bounds = np.zeros(N, dtype=float)
    for n in range(N):
        mass = 0.0
        if n + 1 >= N:  # subdiagonal entry was cut (last column)
            mass += abs(seq.a[n] / seq.a[n + 1]) ** 2
        depth = H - (n + 2) + 1
        vals = _deep_column(c[n], n + 2, depth, seq)
        cut = vals[max(0, N - (n + 2)) :]
        if cut.size:
            mass += float(np.sum(np.abs(cut) ** 2))
        last = abs(vals[-1])
        bounds[n] = math.sqrt(mass + last * last * factor)
    return bounds


def build_adjoint(seq: SequencePair, N: int) -> TruncatedOperator:
    """N x N section of the adjoint: entrywise conjugate transpose of the
    shift section, assembled row by row from the same running products."""
    if N < 2:
        raise ValueError("section order must be at least 2")
    _require_horizon(seq, N, "adjoint section")
    a = seq.a
    A = np.zeros((N, N), dtype=complex)
    idx = np.arange(N - 1)
    A[idx, idx + 1] = np.conj(a[: N - 1] / a[1:N])
    c = c_coefficients(seq)
    for n in range(N - 2):
        A[n, n + 2 :] = np.conj(_deep_column(c[n], n + 2, N - n - 2, seq))
    # adjoint columns are finitely supported, so nothing is discarded
    return TruncatedOperator(A, N, 0, np.zeros(N), N)


def build_left_inverse(seq: SequencePair, N: int) -> TruncatedOperator:
    """N x N section of the left inverse: zero first column, superdiagonal
    a_{n+1}/a_n, diagonal d_n, and alternating running products below."""
    if N < 2:
        raise ValueError("section order must be at least 2")
    _require_horizon(seq, N, "left-inverse section")
    a = seq.a
    L = np.zeros((N, N), dtype=complex)
    idx = np.arange(N - 1)
    L[idx, idx + 1] = a[1:N] / a[: N - 1]
    d = d_coefficients(seq)  # d[k] = d_{k+1}
    for j in range(1, N):
        L[j:, j] = _deep_column(d[j - 1], j, N - j, seq)
    tail = _left_inverse_tail_bounds(seq, N, d)
    return TruncatedOperator(L, N, 0, tail, N - 1)


def _left_inverse_tail_bounds(
    seq: SequencePair, N: int, d: np.ndarray
) -> np.ndarray | None:
    H = seq.horizon
    rep = validate_assumptions(seq)
    if rep.r_hat >= 1.0 or H < N + 1:
        return None
    r2 = rep.r_hat * rep.r_hat
    factor = r2 / (1.0 - r2)
    bounds = np.zeros(N, dtype=float)
    for j in range(1, N):
        depth = H - j + 1
        vals = _deep_column(d[j - 1], j, depth, seq)
        cut = vals[N - j :]
        mass = float(np.sum(np.abs(cut) ** 2)) if cut.size else 0.0
        last = abs(vals[-1])
        bounds[j] = math.sqrt(mass + last * last * factor)
    return bounds


def build_blocks(seq: SequencePair, N: int) -> BlockSet:
    """Blocks of the compressed difference (left inverse minus adjoint).

    On the span of basis vectors 1.. the difference equals
    ``b1 u* + b2* u*^2 + b3`` with ``b1`` diagonal and ``b2``/``b3`` lower
    triangular.  The bottom row of ``b2`` needs one coefficient beyond the
    horizon-N data and is zero-filled; ``exact_window`` records this.
    """
    if N < 3:
        raise ValueError("block construction needs N >= 3")
    _require_horizon(seq, N, "block construction")
    a = seq.a
    K = N - 1
    H = seq.horizon

    diag = a[2 : K + 2] / a[1 : K + 1] - np.conj(a[1 : K + 1] / a[2 : K + 2])
    b1 = TruncatedOperator(np.diag(diag), K, 1, None, K)

    c = c_coefficients(seq)
    Z2 = np.zeros((K, K), dtype=complex)
    row_cap = min(K - 1, H - 3)  # deep entries at row r need a_{r+3}
    col_cap = min(K - 1, H - 3)  # diagonal at column q needs c_{q+1}
    for q in range(col_cap + 1):
        depth = row_cap - q + 1
        if depth <= 0:
            continue
        Z2[q : q + depth, q] = _deep_column(-c[q + 1], q + 3, depth, seq)
    b2 = TruncatedOperator(Z2, K, 1, None, min(K, row_cap + 1))

    d = d_coefficients(seq)
    Z3 = np.zeros((K, K), dtype=complex)
    for q in range(K):
        Z3[q:, q] = _deep_column(d[q], q + 1, K - q, seq)
    b3 = TruncatedOperator(Z3, K, 1, None, K)

    U = np.zeros((K, K), dtype=complex)
    idx = np.arange(K - 1)
    U[idx + 1, idx] = 1.0
    u_tail = np.zeros(K)
    u_tail[K - 1] = 1.0  # the cut subdiagonal entry of the last column
    u = TruncatedOperator(U, K, 1, u_tail, K)
    return BlockSet(b1=b1, b2=b2, b3=b3, u=u)


def build_tail_blocks(
    seq: SequencePair, n0: int, N: int
) -> tuple[TruncatedOperator, TruncatedOperator, TruncatedOperator]:
    """Weighted-shift/diagonal/assembled sections driving the geometric tail.

    All three sections are K x K with K = N - n0 - 2 at basis offset n0: the
    weighted shift ``W`` with weights b_{n0+2+q}/a_{n0+3+q}, the diagonal
    ``D`` of -c_{n0+q}, and the directly assembled lower-triangular ``A2``
    whose columns alternate running products seeded by -c_{n0+q}.
    """
    if n0 < 0:
        raise ValueError("n0 must be nonnegative")
    if n0 + 2 >= N:
        raise ValueError("tail blocks need n0 + 2 < N")
    _require_horizon(seq, N, "tail blocks")
    K = N - n0 - 2
    c = c_coefficients(seq)

    W = np.zeros((K, K), dtype=complex)
    if K > 1:
        q = np.arange(K - 1)
        W[q + 1, q] = seq.b[n0 + 2 : n0 + 1 + K] / seq.a[n0 + 3 : n0 + 2 + K]
    w_op = TruncatedOperator(W, K, n0, None, K)

    D = np.diag(-c[n0 : n0 + K])
    d_op = TruncatedOperator(D, K, n0, None, K)

    A2 = np.zeros((K, K), dtype=complex)
    for q in range(K):
        A2[q:, q] = _deep_column(-c[n0 + q], n0 + q + 2, K - q, seq)
    a2_op = TruncatedOperator(A2, K, n0, None, K)
    return w_op, d_op, a2_op


def neumann_partial_sum(
    W: TruncatedOperator, D: TruncatedOperator, m: int
) -> TruncatedOperator:
    """Alternating partial sum S_m = sum_{k<=m} (-1)^k W^k D by iterated
    multiplication; exact on the window because the shift section is nilpotent."""
    if m < 0:
        raise ValueError("partial-sum order must be nonnegative")
    if W.entries.shape != D.entries.shape or W.basis_offset != D.basis_offset:
        raise ValueError("W and D must be same-shape sections at the same offset")
    total = D.entries.copy()
    term = D.entries
    for _ in range(m):
        term = -(W.entries @ term)
        if not term.any():
            break
        total += term
    window = min(W.exact_window, D.exact_window)
    return TruncatedOperator(total, W.order, W.basis_offset, None, window)


def dense_json(op: TruncatedOperator) -> dict:
    """Dense export: row-major [re, im] pairs plus order and basis offset."""
    doc = {
        "n": op.order,
        "offset": op.basis_offset,
        "entries": [[float(z.real), float(z.imag)] for z in op.entries.ravel()],
    }
    if op.rows != op.order:
        doc["rows"] = op.rows
    return doc


def sparse_triplets(op: TruncatedOperator) -> list[tuple[int, int, float, float]]:
    """Nonzero entries as (row, col, re, im), row-major."""
    rows, cols = np.nonzero(op.entries)
    order = np.lexsort((cols, rows))
    out = []
    for k in order:
        z = op.entries[rows[k], cols[k]]
        out.append((int(rows[k]), int(cols[k]), float(z.real), float(z.imag)))
    return out


__all__ = [
    "BlockSet",
    "TruncatedOperator",
    "build_adjoint",
    "build_blocks",
    "build_left_inverse",
    "build_shift",
    "build_tail_blocks",
    "dense_json",
    "monomial_in_basis",
    "neumann_partial_sum",
    "sparse_triplets",
]
