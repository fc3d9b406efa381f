"""Finite sections of the shift, its adjoint, its left inverse, and blocks.

Matrix convention: column ``j`` of a section lists the basis coefficients of
the image of the ``j``-th basis vector, so sections compare entrywise against
the operator written out column by column.  The shift section is strictly
lower triangular and the left-inverse section carries one superdiagonal.
A section is its matrix plus, where one is certified, a bound on each
column's discarded mass; its order is its column count.

Deep column entries are generated by running products (multiply-accumulate
down the column) rather than quotients of long products, so growing
coefficient families cannot overflow intermediate numerators or denominators.
Each factor is a direct entrywise ratio ``b_k / a_{k+1}``, preserving the
bit-level invariance of all sections under exactly representable rescalings
of ``(a, b)``.

One routine builds every such section by its row recurrence: the unscaled
products of all the columns begun so far are one vector, advanced by one
vectorised step per row, and each section row is that vector times the
columns' starts, written contiguously.  Each column's products are the ones
a running product down the column forms, and a section's entries do not
depend on its order, so every section is bit for bit the leading window of
the horizon section.  The rows past the section continue the
recurrence to the horizon in chunks of ``_BLOCK`` columns, each column's
run contiguous, and give the columns' tail bounds.  Given a row count in
place of a section, the routine writes no row and returns the same bounds,
bit for bit: that is how the kernel's adjoint residual grid gets the
shift's tails with no section.  :func:`build_adjoint` writes the shift
section's rows straight into the columns of its array, through the array's
transpose, and conjugates a complex family's band in place, row by row.

Where ``|b_n / a_{n+1}|`` decays, a column's products underflow to exact
zeros within a few hundred rows (about 160 on the Baseline
``sqrt(n+1)``/``0.5``), and a zero product stays zero.  So each row step
scales and writes only the live band, from the first column whose product
is nonzero, the tail pass skips every chunk left of it, and the adjoint
conjugates only the band: the work is O(N x band), not O(N^2).
Every live entry and every tail bound is formed by the same operations as
when every begun column ran on every row; the one difference is that an
entry left of the band holds the buffer's ``+0.0`` where the full run
could write ``-0.0``, and so does a complex adjoint's imaginary part
outside the band, which conjugation would negate.  Values, and with them
every report, are unchanged.  The same two-term recurrences along the
rows let ``_ShiftRecurrence`` apply the shift's tall section and form its Gram
matrix, whole or in panels of ``_BLOCK`` rows cut at the end of their
diagonal block (the rest of ``G`` is their conjugate transpose), and the
column norms that the analysis needs without building a section.

Every section takes the dtype of its :class:`SequencePair`: float64 for a
real family, complex128 otherwise.  A section owns the array it is built
from: every builder hands a fresh buffer to :class:`TruncatedOperator`, which
freezes it in place instead of copying it, and keeps no writable alias to it.
The blocks' diagonal ``b1`` and unit shift ``u`` hold one entry per column,
so their buffers are anonymous mappings that refuse huge pages: only the
4 KB pages that hold an entry become resident, not every 2 MB page that a
write touches.  A running-product section takes such a mapping too when
the band it is predicted to live in, from prefix sums of ``log2 |r_k|``
against the underflow, would make under a third of its pages resident,
the measured break-even of 4 KB against 2 MB page faults; a dense band
keeps numpy's huge-page array.  The pages are counted with the array at
the start of its mapping and placed so that row 0's band ends on a page's
last byte, and the mapping takes the placement with fewer: where every
row's diagonal then falls on a page's last slot, as in the blocks at N a
multiple of 512, a narrow band takes one page per row instead of two
(:func:`_section_zeros`).  The choice rests on the input alone: no option
selects it.
"""

from __future__ import annotations

import math
import mmap
from collections.abc import Iterator
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
    """A dense finite section: a matrix plus, optionally, its column tail
    bounds.

    ``entries`` has at least as many rows as columns, and its column count
    is the section's ``order``; builders return square sections, while
    analysis routines may carry extra evaluated rows so that column Gram
    products are exact.  ``tail_bound`` (when available) bounds the l2 mass
    of each column's discarded rows.

    The arrays passed become the section's storage and are made read-only
    in place.  Float64 and complex128 entries are kept as they are; any
    other dtype is converted into a new complex128 array.
    """

    entries: np.ndarray
    tail_bound: np.ndarray | None = None

    def __post_init__(self) -> None:
        entries = np.asarray(self.entries)
        if entries.dtype not in (np.float64, np.complex128):
            entries = entries.astype(np.complex128)
        if entries.ndim != 2:
            raise ValueError("entries must be a matrix")
        rows, cols = entries.shape
        if rows < cols:
            raise ValueError(f"entries have {rows} rows, fewer than their {cols} columns")
        tail = self.tail_bound
        if tail is not None:
            tail = np.asarray(tail, dtype=float)
            if tail.shape != (cols,):
                raise ValueError("tail_bound must have one entry per column")
            if not np.all(np.isfinite(tail)) or np.any(tail < 0):
                raise ValueError("tail_bound entries must be finite and nonnegative")
            tail.flags.writeable = False
        entries.flags.writeable = False
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "tail_bound", tail)

    @property
    def order(self) -> int:
        return self.entries.shape[1]


@dataclass(frozen=True)
class BlockSet:
    """Diagonal/lower-triangular blocks of the compressed difference operator.

    All four sections are K x K and act on the span of the basis vectors
    from index 1 on; ``u`` is the unweighted unilateral shift there.
    ``b1`` and ``u`` are dense ndarrays over anonymous mappings of their own,
    resident only in the 4 KB pages that hold their O(K) entries; ``b2``
    and ``b3`` are too when their running products underflow within a
    narrow band, placed in the mapping so that each row's band ends on a
    page's last byte where the row length allows it, and numpy arrays
    otherwise.
    """

    b1: TruncatedOperator
    b2: TruncatedOperator
    b3: TruncatedOperator
    u: TruncatedOperator

    def __post_init__(self) -> None:
        k = self.b1.order
        for name in ("b1", "b2", "b3", "u"):
            if getattr(self, name).entries.shape != (k, k):
                raise ValueError(f"block {name} must be {k}x{k}")


def _require_horizon(seq: SequencePair, needed: int, what: str) -> None:
    if needed > seq.horizon:
        raise HorizonError(
            f"{what} needs sequence data up to index {needed}; "
            f"horizon is {seq.horizon}"
        )


# rows and columns per block: the Gram's panels, the columns whose discarded
# rows are run together, the kernel's adjoint residual chunks and the row
# blocks of the analysis's _flush_tiny
_BLOCK = 64


def _running_columns(
    seq: SequencePair,
    out: np.ndarray | int,
    starts: np.ndarray,
    first: int,
    bound: bool = True,
) -> tuple[np.ndarray | None, np.ndarray]:
    """Fill ``out`` with running-product columns; return their tail bounds
    and each row's dead prefix.  Given a row count in place of ``out``, run
    the same recurrence over that many rows and ``len(starts)`` columns,
    write nothing, and return the same bounds, bit for bit.

    Column ``j`` is ``t_0 = starts[j]``, ``t_{m+1} = t_m r_{first+j+m}``,
    ``r_k = -b_k / a_{k+1}``, with ``t_m`` in row ``j + m``, run to basis
    vector H; entries above row ``j`` are left as they are.  Its bound is
    the root of the rest's squared norm plus ``|t_H|^2 r^2 / (1 - r^2)``,
    ``r = r_hat``, in :func:`_geometric_tail_norm`'s scaled sum; ``None``
    when ``bound`` is false, ``r_hat >= 1`` or under two rows lie below
    ``out``.

    The columns are built by rows: the unscaled products ``P_j = t_m /
    t_0`` of every column begun so far are one vector, each row step is
    ``P *= r`` and a new column's ``P_j = 1``, and row ``i`` is ``P *
    starts``, written contiguously.  ``P_j`` runs through the products that
    ``np.cumprod`` forms down column ``j``, so a real column is ``starts[j]
    * cumprod`` bit for bit; a complex step is :func:`_times`'s split
    product, so a complex column's bits do not depend on the section's
    order.  A product that has underflowed to zero stays zero under finite
    ratios, so the row steps keep ``lo``, the first begun column whose
    ``P_j`` is nonzero, and scale and write only columns ``lo`` on: the
    entries left of it stay as they are, which is zero in a fresh section.
    The second array returned holds ``lo`` for every row run.  The
    discarded rows continue the recurrence from the last section row,
    ``_BLOCK`` columns at a time, each column's run held contiguously for
    its bound; a chunk wholly left of ``lo`` has the bound 0.0 without
    being run, and a column that begins below ``out`` runs on its own.
    """
    H = seq.horizon
    if isinstance(out, np.ndarray):
        rows, cols = out.shape
    else:
        rows, cols, out = out, len(starts), None
    ratios = -(seq.b[:-1] / seq.a[1:])
    r = ratios.tolist()
    dies = bool(np.isfinite(ratios).all())  # 0 * inf would not stay zero
    P = np.empty(cols, seq.a.dtype)
    lows = np.empty(min(rows, H - first + 1), np.intp)
    lo = 0
    for i in range(len(lows)):
        k = min(i, cols)
        if k > lo:
            _scale(P[lo:k], r[first + i - 1])
            while dies and lo < k and P[lo] == 0:
                lo += 1
        if i < cols:
            P[i] = 1.0
            k += 1
        lows[i] = lo
        if out is not None:
            np.multiply(P[lo:k], starts[lo:k], out=out[i, lo:k])
    if not (bound and first + rows < H):
        return None, lows
    r_hat = validate_assumptions(seq).r_hat
    if not r_hat < 1.0:  # a NaN ratio gives no bound either
        return None, lows
    tail = np.empty(cols)
    begun = min(rows, cols)
    dead = lo - lo % _BLOCK  # the chunks wholly left of lo
    tail[:dead] = 0.0
    # row 0 of a chunk's runs is the last section row's products, then
    # column m + 1 is the discarded row m: one cumprod along each run
    run = np.empty((_BLOCK, H - first - rows + 2), seq.a.dtype)
    for j0 in range(dead, begun, _BLOCK):
        j1 = min(j0 + _BLOCK, begun)
        chunk = run[: j1 - j0]
        chunk[:, 0] = P[j0:j1]
        chunk[:, 1:] = ratios[first + rows - 1 :]
        np.cumprod(chunk, axis=1, out=chunk)
        chunk *= starts[j0:j1, None]
        tail[j0:j1] = _geometric_tail_norm(np.abs(chunk[:, 1:]), r_hat)
    for j in range(begun, cols):
        f = first + j
        vals = np.empty(H - f + 1, seq.a.dtype)
        vals[0] = starts[j]
        vals[1:] = starts[j] * np.cumprod(ratios[f:])
        tail[j] = _geometric_tail_norm(np.abs(vals), r_hat)
    return tail, lows


def _times(ar: np.ndarray, ai: np.ndarray, br, bi) -> tuple[np.ndarray, np.ndarray]:
    """The complex product ``(ar + i ai)(br + i bi)`` in split real form,
    ``(ar br - ai bi, ar bi + ai br)``: four products and two sums, each
    rounded on its own (the model of Higham, *Accuracy and Stability of
    Numerical Algorithms*, 2nd ed., 2002, section 3.6), as Python's
    ``complex`` product rounds it.

    This is the one rule by which trishift rounds the complex products of
    its running columns' steps, its Neumann terms and its kernel sums.  Each of the
    six operations is one exactly rounded real operation, so a product's
    bits depend on its operands alone, not on its lane in a vectorised
    loop, the length or layout of its array, or the SIMD target numpy
    dispatches to.  numpy's complex multiply makes no such promise: it may
    fuse multiply-adds, and with numpy 2.4 on x86-64 about one real or
    imaginary part in four differs from this form.  Hence complex sections
    are bit for bit the leading windows of the horizon section, and repeat
    runs are byte-identical."""
    return ar * br - ai * bi, ar * bi + ai * br


def _scale(P: np.ndarray, r: float | complex) -> None:
    """``P *= r`` in place.  A complex ``r`` takes the six operations of
    :func:`_times`, written in place, since its temporaries made the row
    step measurably slower; a test pins the two to the same bits."""
    if isinstance(r, complex):
        re, im = P.real, P.imag
        cross = im * r.imag
        im *= r.real
        im += re * r.imag
        re *= r.real
        re -= cross
    else:
        P *= r


def _geometric_tail_norm(mags: np.ndarray, r: float) -> float | np.ndarray:
    """l2 norm of the magnitudes ``mags`` continued past their last entry by
    the geometric factor ``r < 1``: ``m sqrt(sum (x/m)^2 + (x_last/m)^2 r^2 /
    (1 - r^2))`` with ``m`` the largest magnitude, so that squares below the
    double range still count; 0 when no magnitude is positive.  A matrix
    holds one run per row, each contiguous so that its sum is the pairwise
    sum of the run alone, and gives an array of norms; a vector gives a
    float.  Scales ``mags`` in place."""
    runs = mags.reshape(-1, mags.shape[-1])
    scale = runs.max(axis=1)
    live = scale > 0.0
    np.divide(runs, scale[:, None], out=runs, where=live[:, None])
    last = runs[:, -1]
    factor = r * r / (1.0 - r * r)
    norms = scale * np.sqrt(np.sum(runs * runs, axis=1) + last * last * factor)
    norms[~live] = 0.0
    return norms if mags.ndim > 1 else float(norms[0])


def _linear_recurrence(w: np.ndarray, f: np.ndarray) -> np.ndarray:
    """``x_0 = 0``, ``x_{k+1} = w_k x_k + f_k`` for real ``w`` and ``f``;
    returns ``x_0 .. x_{len(w)}``."""
    out = np.zeros(len(w) + 1)
    x = 0.0
    for k, (wk, fk) in enumerate(zip(w.tolist(), f.tolist()), 1):
        x = wk * x + fk
        out[k] = x
    return out


class _ShiftRecurrence:
    """The tall section ``T``, the first ``N`` columns of the horizon shift
    section (``H`` rows), and the horizon left-inverse section ``L``, read
    through their two-term recurrences instead of built.

    0-based, ``r_k = -b_k / a_{k+1}`` and ``P(m, k) = r_m ... r_{k-1}``:
    column ``j`` of ``T`` is ``s_j = a_j / a_{j+1}`` in row ``j + 1``, then
    ``c_j P(j + 2, k)`` in row ``k >= j + 2``; column ``n`` of ``L`` is
    ``a_n / a_{n-1}`` in row ``n - 1``, then ``d_n P(n, k)`` in row ``k >=
    n`` (``d_0 = 0``).  Entries past row ``H - 1`` are cut, as the sections
    cut them, so ``Q_m = sum_{k=m}^{H-1} |P(m, k)|^2 = 1 + |r_m|^2 Q_{m+1}``
    (``Q_H = 0``) is the squared mass of a running column from row ``m``
    down, per unit of its first entry.  Row ``k + 1`` of ``T`` left of
    column ``k - 1`` is ``r_k`` times row ``k``, and every product and
    column norm below follows a recurrence: nothing of size ``H x H`` or ``H
    x N`` is formed but the product ``T X``, and nothing of size ``N x N``
    but the Gram that :meth:`gram` returns; :meth:`gram_panels` gives its
    lower block triangle in ``O(N _BLOCK)`` memory.  Every factor is a
    direct ratio of the pair's entries, so exact rescalings keep every bit.
    """

    def __init__(self, seq: SequencePair, N: int) -> None:
        H = seq.horizon
        if N > H:
            raise ValueError(f"N = {N} exceeds the materialized horizon {H}")
        a = seq.a
        self.seq, self.H, self.N = seq, H, N
        # zero-padded past the last row each entry reaches
        self.r = np.zeros(H + 1, a.dtype)
        self.r[:H] = -(seq.b[:-1] / a[1:])
        self.sub = np.zeros(H, a.dtype)
        self.sub[: H - 1] = a[: H - 1] / a[1:H]
        self.c = np.zeros(H, a.dtype)
        self.c[: H - 2] = c_coefficients(seq)[: H - 2]
        self.r_sq = np.abs(self.r) ** 2
        self.q = np.zeros(H + 2)  # Q_0 .. Q_{H+1}
        self.q[: H + 1] = _linear_recurrence(self.r_sq[H - 1 :: -1], np.ones(H))[::-1]

    def gram_diagonal(self) -> np.ndarray:
        """``||T e_j||^2 = |s_j|^2 + |c_j|^2 Q_{j+2}``."""
        N = self.N
        return np.abs(self.sub[:N]) ** 2 + np.abs(self.c[:N]) ** 2 * self.q[2 : N + 2]

    def fro_sq(self) -> float:
        """``||T||_F^2``."""
        return float(np.sum(self.gram_diagonal()))

    def apply(self, X: np.ndarray) -> np.ndarray:
        """``T X`` for an ``N x K`` block ``X``, one row step at a time:
        ``y_i = s_{i-1} x_{i-1} + z_i`` and ``z_{i+1} = r_i z_i + c_{i-1}
        x_{i-1}``, with ``x_j = 0`` for ``j >= N``."""
        H, N = self.H, self.N
        Y = np.zeros((H, X.shape[1]), np.result_type(self.r, X))
        z = np.zeros(X.shape[1], Y.dtype)
        for i in range(1, min(N, H - 1) + 1):
            x = X[i - 1]
            np.multiply(x, self.sub[i - 1], out=Y[i])
            Y[i] += z
            z *= self.r[i]
            z += self.c[i - 1] * x
        for i in range(N + 1, H):
            Y[i] = z
            z *= self.r[i]
        return Y

    def gram_panels(self) -> Iterator[tuple[int, np.ndarray]]:
        """Yield ``(r0, G[r0:r1, :r1])`` for ``G = T*T`` in order of ``r0``,
        ``r1 = min(r0 + _BLOCK, N)``: the rows of each panel up to the end
        of their diagonal block, written into one buffer of ``_BLOCK`` rows,
        which the caller may overwrite and the next panel rewrites in full.
        The rest of ``G``'s rows is the conjugate transpose of later panels.

        For ``i < j``, ``G[i, j] = conj(T[j+1, i]) s_j + conj(T[j+2, i]) c_j
        Q_{j+2}``, and ``T[j+2, i] = r_{j+1} T[j+1, i]``, so row ``j`` left
        of the diagonal is ``T[j+1, :j]`` times ``conj(β_j)``, one number.
        A panel's rows left of the diagonal come from that row recurrence,
        whose state, row ``j + 1`` of ``T``, is carried from panel to
        panel; its upper part inside the diagonal block is their
        conjugate."""
        N = self.N
        r, c = self.r, self.c
        dtype = np.result_type(r, 1.0)
        beta = self.sub[:N] + np.conj(r[1 : N + 1]) * c[:N] * self.q[2 : N + 2]
        beta_conj = np.conj(beta)
        diagonal = self.gram_diagonal()
        buffer = np.empty((min(_BLOCK, N), N), dtype)
        row = np.zeros(N, dtype)  # row j + 1 of T, columns < j
        for r0 in range(0, N, _BLOCK):
            r1 = min(r0 + _BLOCK, N)
            panel = buffer[: r1 - r0, :r1]
            for j in range(r0, r1):
                if j:
                    lower = panel[j - r0, :j]
                    np.multiply(row[:j], beta_conj[j], out=lower)
                    panel[: j - r0, j] = np.conj(lower[r0:])
                panel[j - r0, j] = diagonal[j]
                row[:j] *= r[j + 1]
                row[j] = c[j]
            yield r0, panel

    def gram(self) -> np.ndarray:
        """``G = T*T`` in O(N^2): the panels of :meth:`gram_panels` copied
        into one array, each panel's part left of its diagonal block also
        conjugate-transposed into the column block above it, so that ``G``
        is exactly Hermitian."""
        G = np.empty((self.N, self.N), np.result_type(self.r, 1.0))
        for r0, rows in self.gram_panels():
            r1 = r0 + rows.shape[0]
            G[r0:r1, :r1] = rows
            # a real panel's conj() is the panel itself, and a plain
            # transposed copy is faster than np.conjugate(..., out=...)
            G[:r0, r0:r1] = rows[:, :r0].T.conj()
        return G

    def _row_masses(self) -> np.ndarray:
        """``R_k = ||T[k, :k-1]||^2``, ``k < N``: ``R_{k+1} = |r_k|^2 R_k +
        |c_{k-1}|^2``."""
        N = self.N
        c_sq = np.zeros(N - 1)
        c_sq[1:] = np.abs(self.c[: N - 2]) ** 2
        return _linear_recurrence(self.r_sq[: N - 1], c_sq)

    def ltstar_profile(self) -> tuple[np.ndarray, np.ndarray]:
        """Column norms of ``L - T*`` over columns ``n < N``, read-only:
        ``R_n + |a_n/a_{n-1} - conj(a_{n-1}/a_n)|^2 + |d_n|^2 Q_n``; and the
        floor ``|a_n/a_{n-1} - conj(a_{n-1}/a_n)|^2 + |c_{n-2}|^2`` that
        drops all but two terms."""
        N, seq = self.N, self.seq
        a = seq.a
        rv_sq = np.zeros(N)
        rv_sq[1:] = np.abs(a[1:N] / a[: N - 1] - np.conj(a[: N - 1] / a[1:N])) ** 2
        lower = rv_sq.copy()
        lower[2:] += np.abs(self.c[: N - 2]) ** 2
        d_sq = np.zeros(N)
        d_sq[1:] = np.abs(d_coefficients(seq)[: N - 1]) ** 2
        profile = np.sqrt(self._row_masses() + rv_sq + d_sq * self.q[:N])
        profile.flags.writeable = False
        return profile, lower

    def left_inverse_norms(self) -> tuple[float, float]:
        """``(||L[:N]||_F, ||L[:N-1, 1:]||_F)``, the Frobenius norms of the
        exact left inverses of ``T`` and of the square section's nonzero
        block, from the row norms ``||L[i]||^2 = |a_{i+1}/a_i|^2 + E_i``,
        ``E_i = |r_{i-1}|^2 E_{i-1} + |d_i|^2``.  The first is ``inf`` when
        the horizon holds no row ``N`` of ``T``."""
        N, seq = self.N, self.seq
        a = seq.a
        d_sq = np.abs(d_coefficients(seq)[: N - 1]) ** 2
        rows = _linear_recurrence(self.r_sq[: N - 1], d_sq)
        upper = min(N, self.H - 1)
        rows[:upper] += np.abs(a[1 : upper + 1] / a[:upper]) ** 2
        fro_square = math.sqrt(float(np.sum(rows[: N - 1])))
        if N == self.H:
            return math.inf, fro_square
        return math.sqrt(float(np.sum(rows))), fro_square

    def ittstar_norms(self) -> np.ndarray:
        """Column norms of ``I - T_N T_N*`` for the square section ``T_N``:
        ``(1 - |s_{k-1}|^2 - R_k)^2 + |γ_k|^2 Q^N_{k+1} + U_k`` with ``γ_k =
        c_{k-1} conj(s_{k-1}) + r_k R_k`` the entry below the diagonal,
        ``U_{k+1} = |r_k|^2 U_k + |γ_k|^2`` the mass above it and ``Q^N``
        the window-``N`` analogue of ``Q``."""
        N = self.N
        R = self._row_masses()
        s_prev = np.zeros(N, self.sub.dtype)
        s_prev[1:] = self.sub[: N - 1]
        c_prev = np.zeros(N, self.c.dtype)
        c_prev[1:] = self.c[: N - 1]
        gamma_sq = np.abs(c_prev * np.conj(s_prev) + self.r[:N] * R) ** 2
        above = _linear_recurrence(self.r_sq[: N - 1], gamma_sq[: N - 1])
        below = _linear_recurrence(self.r_sq[N - 1 :: -1], np.ones(N))[::-1]
        diag = 1.0 - np.abs(s_prev) ** 2 - R
        return np.sqrt(diag * diag + gamma_sq * below[1:] + above)


def monomial_in_basis(seq: SequencePair, n: int, M: int) -> np.ndarray:
    """Coefficients of the n-th monomial over basis vectors n..n+M.

    Entry ``m`` multiplies basis vector ``n+m``:
    ``(-1)^m (prod_{j<m} b_{n+j}) / (a_n prod_{j<m} a_{n+j+1})``, empty
    products equal to 1.
    """
    if n < 0 or M < 0:
        raise ValueError("n and M must be nonnegative")
    _require_horizon(seq, n + M, "monomial expansion")
    coef = np.empty(M + 1, dtype=seq.a.dtype)
    coef[0] = 1.0 / seq.a[n]
    coef[1:] = coef[0] * np.cumprod(-(seq.b[n : n + M] / seq.a[n + 1 : n + M + 1]))
    return coef


def _zeros(shape: tuple[int, int], dtype: np.dtype, offset: int = 0) -> np.ndarray:
    """A zero-filled array over an anonymous mapping of its own, which it
    owns through ``.base``, placed ``offset`` bytes into the mapping.

    numpy advises huge pages for every allocation of 4 MB or more, so the
    first write to any entry of such an array makes its whole 2 MB page
    resident.  This mapping refuses huge pages (``MADV_NOHUGEPAGE``, where
    ``mmap`` has it), also where the kernel would give them unasked: only
    the 4 KB pages that hold a written entry become resident, which is what
    a section holding one entry per column, or a narrow band, needs.  A
    dense section should not use it, since faulting its pages in 4 KB at a
    time is slower (:func:`_section_zeros`).  ``offset``, a multiple of the
    itemsize below ``mmap.PAGESIZE``, moves the page boundaries against the
    rows, so that :func:`_section_zeros` can put a band's row ends on page
    ends; the array is C-contiguous whatever it is."""
    nbytes = math.prod(shape) * dtype.itemsize
    buffer = mmap.mmap(-1, nbytes + offset)
    if hasattr(mmap, "MADV_NOHUGEPAGE"):
        buffer.madvise(mmap.MADV_NOHUGEPAGE)
    return np.ndarray(shape, dtype, buffer=buffer, offset=offset)


# 2^-1075, half the least subnormal, rounds to zero: a running product that
# falls this many binary orders below 1 has underflowed
_UNDERFLOW_BITS = 1075.0
# the share of an array's 4 KB pages below which they fault in faster than
# numpy's 2 MB pages fault in the whole array (see _section_zeros)
_SMALL_PAGE_SHARE = 1.0 / 3.0


def _section_zeros(
    seq: SequencePair, shape: tuple[int, int], first: int, at: tuple[int, int]
) -> np.ndarray:
    """A zero array for a section whose running columns
    :func:`_running_columns` writes into ``[at[0]:, at[1]:]`` from ratio
    ``first`` on: :func:`_zeros` when the band those columns live in is
    predicted to make under ``_SMALL_PAGE_SHARE`` of its 4 KB pages
    resident, numpy's ``np.zeros`` otherwise.

    Column ``j`` at row ``i`` of the window is ``P = r_{first+j} ...
    r_{first+i-1}`` times its start, so with ``lam_i = sum_{m<i} log2
    |r_{first+m}|`` it has underflowed once ``lam_j - lam_i`` exceeds
    ``_UNDERFLOW_BITS``.  Row ``i``'s band is predicted to begin at the
    first ``j`` where the running minimum of ``lam`` comes within
    ``_UNDERFLOW_BITS`` of ``lam_i``, which is never right of the first
    live column; a zero ratio, whose ``log2`` is ``-inf``, counts as twice
    the underflow, so it kills every begun column at once and leaves no
    NaN.

    The band's pages are counted at two placements of the array in its
    mapping: at its start, and ``offset`` bytes in, where row 0's band
    ends on a page's last byte.  The mapping takes the one with fewer
    pages.  Every row's band ends on the diagonal, which moves one row and
    one entry on per row.  Where that step fills whole pages, as for the
    blocks' ``K = N - 1`` at N a multiple of 512 (256 for complex entries),
    the second placement puts every diagonal entry on a page's last slot:
    a band narrower than a page then takes one page per row, where at the
    start each row would spill its diagonal entry onto a page of its own.
    Where the step does not fill whole pages, the start can be the better
    placement: the N x N sections' diagonal moves one entry further into
    the page on each row, and the Baseline's shift at N = 2048 takes 2583
    of its 8192 pages at the start, under the break-even, and 2832 placed,
    over it.
    The adjoint, which writes the shift's band into its transpose, asks as
    the shift does: the transposed band has the same row widths, give or
    take the staircase's steps.

    The break-even share is measured: first-touching a 4096 x 4096 float64
    array took 84 ms in 4 KB pages and 30 ms in 2 MB pages (2 vCPUs,
    transparent huge pages on ``madvise``), so a 4 KB page costs about 2.8
    times as much per byte, and the small pages win while they make less
    than 30/84 = 0.36 of the array resident; its lower triangle took 51
    against 30 ms, which puts the break-even near 0.3 for the triangular
    write pattern.  A third lies between."""
    H = seq.horizon
    dtype = seq.a.dtype
    rows = min(shape[0] - at[0], H - first + 1)
    cols = min(shape[1] - at[1], rows)
    with np.errstate(divide="ignore"):
        steps = np.log2(np.abs(seq.b[first : first + rows - 1] / seq.a[first + 1 : first + rows]))
    lam = np.zeros(rows)
    np.cumsum(np.maximum(steps, -2.0 * _UNDERFLOW_BITS), out=lam[1:])
    floor = np.minimum.accumulate(lam[:cols])
    i = np.arange(rows)
    hi = np.minimum(i + 1, cols)
    lo = np.minimum(np.searchsorted(-floor, -(lam + _UNDERFLOW_BITS)), hi)
    start = ((i + at[0]) * shape[1] + at[1]) * dtype.itemsize  # each row's byte
    begin, end = start + lo * dtype.itemsize, start + hi * dtype.itemsize

    def pages(offset: int) -> int:
        first_page = (begin + offset) // mmap.PAGESIZE
        last_page = (end + offset - 1) // mmap.PAGESIZE
        # both ends grow with the row, so each row adds the pages past the last
        seen = np.concatenate(([-1], last_page[:-1]))
        return int(np.sum(np.maximum(last_page - np.maximum(first_page, seen + 1) + 1, 0)))

    # an empty window (N = 2) has no row 0 to place
    offsets = (0, -int(end[0]) % mmap.PAGESIZE) if rows else (0,)
    count, offset = min((pages(offset), offset) for offset in offsets)
    total = -(-math.prod(shape) * dtype.itemsize // mmap.PAGESIZE)
    if count < _SMALL_PAGE_SHARE * total:
        return _zeros(shape, dtype, offset)
    return np.zeros(shape, dtype)


def _fill_shift(
    seq: SequencePair, M: np.ndarray, bound: bool = True
) -> tuple[np.ndarray | None, np.ndarray]:
    """Write the shift section into the zero square ``M``, which may be the
    transpose of a fresh array (:func:`build_adjoint`); return its tail
    bounds, or ``None`` when ``bound`` is false, and the dead prefix of
    each of its rows from 2 on, as :func:`_running_columns` returns it."""
    N = M.shape[0]
    a = seq.a
    idx = np.arange(N - 1)
    M[idx + 1, idx] = a[: N - 1] / a[1:N]
    return _shift_tails(seq, N, M[2:], bound)


def _shift_tails(
    seq: SequencePair, N: int, out: np.ndarray | None = None, bound: bool = True
) -> tuple[np.ndarray | None, np.ndarray]:
    """Column tail bounds of the N x N shift section, the section's rows
    from 2 on written into ``out`` when it is given and nowhere when not;
    the bounds are the same bits either way.  ``None`` when ``bound`` is
    false; the rows' dead prefixes come with them, as from
    :func:`_running_columns`."""
    a = seq.a
    rows = N - 2 if out is None else out
    tail, lows = _running_columns(seq, rows, c_coefficients(seq)[:N], 2, bound)
    if tail is not None:  # the last column's subdiagonal entry is cut too
        tail[N - 1] = math.hypot(abs(a[N - 1] / a[N]), tail[N - 1])
    return tail, lows


def build_shift(seq: SequencePair, N: int) -> TruncatedOperator:
    """N x N section of the shift: subdiagonal a_n/a_{n+1}, then c_n and its
    alternating running products down each column."""
    if N < 2:
        raise ValueError("section order must be at least 2")
    _require_horizon(seq, N, "shift section")
    M = _section_zeros(seq, (N, N), 2, (2, 0))
    tail, _ = _fill_shift(seq, M)
    return TruncatedOperator(M, tail)


def build_adjoint(seq: SequencePair, N: int) -> TruncatedOperator:
    """N x N section of the adjoint: the conjugate transpose of the shift
    section, built in place.  The shift's rows are written straight into
    the columns of ``A`` through its transpose, so the pages below the
    diagonal are never touched, and a complex family's band is then
    conjugated row by row: row ``r`` holds the shift's column ``r``, from
    its subdiagonal entry in column ``r + 1`` to the last column ``c``
    whose first possibly nonzero entry ``lows[c - 2]``, as
    :func:`_fill_shift` returns it, is at most ``r``.  A dense band pays
    for the one route: down the columns of a power-of-two order the stores
    fall into the same cache sets, and ``1``/``0.9`` at N = 4096 builds in
    about 215 ms, against 93 ms written by rows and moved up.  Its columns
    are finitely supported, so nothing is discarded and the shift's tail
    bounds are not run."""
    if N < 2:
        raise ValueError("section order must be at least 2")
    _require_horizon(seq, N, "adjoint section")
    A = _section_zeros(seq, (N, N), 2, (2, 0))
    _, lows = _fill_shift(seq, A.T, bound=False)
    if np.iscomplexobj(A):
        ends = np.searchsorted(lows, np.arange(N - 1), side="right") + 2
        for r, end in enumerate(ends.tolist()):
            band = A[r, r + 1 : end]
            np.conjugate(band, out=band)
    return TruncatedOperator(A, np.zeros(N))


def build_left_inverse(seq: SequencePair, N: int) -> TruncatedOperator:
    """N x N section of the left inverse: zero first column, superdiagonal
    a_{n+1}/a_n, diagonal d_n, and alternating running products below."""
    if N < 2:
        raise ValueError("section order must be at least 2")
    _require_horizon(seq, N, "left-inverse section")
    a = seq.a
    L = _section_zeros(seq, (N, N), 1, (1, 1))
    idx = np.arange(N - 1)
    L[idx, idx + 1] = a[1:N] / a[: N - 1]
    d = d_coefficients(seq)  # d[k] = d_{k+1}
    tail, _ = _running_columns(seq, L[1:, 1:], d[: N - 1], 1)
    if tail is not None:  # the first column is zero
        tail = np.concatenate(([0.0], tail))
    return TruncatedOperator(L, tail)


def build_blocks(seq: SequencePair, N: int) -> BlockSet:
    """Blocks of the compressed difference (left inverse minus adjoint).

    On the span of basis vectors 1.. the difference equals
    ``b1 u* + b2* u*^2 + b3`` with ``b1`` diagonal and ``b2``/``b3`` lower
    triangular: ``b2`` holds the negated shift columns 1.. from row 3 on and
    ``b3`` the left-inverse columns 1.. from row 1 on.  The bottom row of
    ``b2`` needs one coefficient beyond the horizon-N data and is
    zero-filled.
    """
    if N < 3:
        raise ValueError("block construction needs N >= 3")
    _require_horizon(seq, N, "block construction")
    a = seq.a
    K = N - 1

    diag = a[2 : K + 2] / a[1 : K + 1] - np.conj(a[1 : K + 1] / a[2 : K + 2])
    B1 = _zeros((K, K), seq.a.dtype)
    np.fill_diagonal(B1, diag)
    b1 = TruncatedOperator(B1)

    Z2 = _section_zeros(seq, (K, K), 3, (0, 0))
    _running_columns(seq, Z2, -c_coefficients(seq)[1 : K + 1], 3, bound=False)
    b2 = TruncatedOperator(Z2)

    Z3 = _section_zeros(seq, (K, K), 1, (0, 0))
    _running_columns(seq, Z3, d_coefficients(seq)[:K], 1, bound=False)
    b3 = TruncatedOperator(Z3)

    U = _zeros((K, K), seq.a.dtype)
    idx = np.arange(K - 1)
    U[idx + 1, idx] = 1.0
    u_tail = np.zeros(K)
    u_tail[K - 1] = 1.0  # the cut subdiagonal entry of the last column
    u = TruncatedOperator(U, u_tail)
    return BlockSet(b1=b1, b2=b2, b3=b3, u=u)


def build_tail_blocks(
    seq: SequencePair, n0: int, N: int
) -> tuple[TruncatedOperator, TruncatedOperator, TruncatedOperator]:
    """Weighted-shift/diagonal/assembled sections driving the geometric tail.

    All three sections are K x K with K = N - n0 - 2, indexed from n0: the
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

    W = np.zeros((K, K), dtype=seq.a.dtype)
    if K > 1:
        q = np.arange(K - 1)
        W[q + 1, q] = seq.b[n0 + 2 : n0 + 1 + K] / seq.a[n0 + 3 : n0 + 2 + K]
    w_op = TruncatedOperator(W)

    D = np.diag(-c[n0 : n0 + K])
    d_op = TruncatedOperator(D)

    A2 = np.zeros((K, K), dtype=seq.a.dtype)
    _running_columns(seq, A2, -c[n0 : n0 + K], n0 + 2, bound=False)
    a2_op = TruncatedOperator(A2)
    return w_op, d_op, a2_op


def neumann_partial_sum(
    W: TruncatedOperator, D: TruncatedOperator, m: int
) -> TruncatedOperator:
    """Alternating partial sum S_m = sum_{k<=m} (-1)^k W^k D by iterated
    multiplication; exact on the window because the shift section is nilpotent.
    ``W`` must be a weighted shift, nonzero on its subdiagonal only, as
    :func:`build_tail_blocks` builds it.

    ``W @ term`` is ``term`` moved down one row, row ``q + 1`` scaled by
    ``W``'s subdiagonal entry ``q``: the products a matrix multiply adds
    besides those are exact zeros.  Once a term vanishes every later partial
    sum equals the last one.  A complex product is formed by :func:`_times`.
    """
    if m < 0:
        raise ValueError("partial-sum order must be nonnegative")
    if W.entries.shape != D.entries.shape:
        raise ValueError("W and D must be same-shape sections")
    weights = np.diagonal(W.entries, -1)
    if np.count_nonzero(W.entries) != np.count_nonzero(weights):
        raise ValueError("W must be a weighted shift: nonzero on the subdiagonal only")
    negated = -weights[:, None]
    wr, wi = negated.real, negated.imag
    total = D.entries.copy()
    term = D.entries
    for _ in range(m):
        shifted = np.zeros(term.shape, np.result_type(negated, term))
        if np.iscomplexobj(shifted):
            tr, ti = term[:-1].real, term[:-1].imag
            shifted[1:].real, shifted[1:].imag = _times(wr, wi, tr, ti)
        else:
            np.multiply(negated, term[:-1], out=shifted[1:])
        term = shifted
        if not term.any():
            break
        total = total + term
    return TruncatedOperator(total)


__all__ = [
    "BlockSet",
    "TruncatedOperator",
    "build_adjoint",
    "build_blocks",
    "build_left_inverse",
    "build_shift",
    "build_tail_blocks",
    "monomial_in_basis",
    "neumann_partial_sum",
]
