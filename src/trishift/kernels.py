"""Kernel-side evaluation: basis functions, the kernel sum, Gram matrices,
the defect of the shift, and the adjoint eigenvector identity.

Each identity has one public route: :func:`kernel_sweep` for the kernel on
every pair of a point set, :func:`gram_matrix` for positivity,
:func:`defect_matrix` for ``I - M M*``, and :func:`adjoint_residual_grid` for
``M* k_w = conj(w) k_w`` on a point set (one point is a one-point grid).

The kernel k(z, w) = sum_n f_n(z) conj(f_n(w)) with f_n(z) = (a_n + b_n z) z^n
is summed with a certified stopping rule: the tail is bounded geometrically
using the measured trailing growth of (|a_n| + |b_n|).  When the certificate
cannot be driven below tolerance within the horizon the evaluation reports
non-convergence instead of fabricating a value.

One pair is one vectorized pass: the certificate over the whole horizon
gives the stopping index, then the basis values and their products up to it
are formed as split real and imaginary arrays, each complex product by
:func:`~trishift.operators._times`, and summed sequentially.  The result is
bit for bit the term-by-term sum.
A sweep over a point set forms each point's basis values once, over the
whole horizon, and each pair sums a prefix of them; the certificate depends
on the pair only through rho = |z||w|, so it is formed once per distinct
rho, and its sequence-only factors once per sweep.  Prefixes of the running
powers and of the elementwise passes are the values a shorter pass forms, so
every pair is bit for bit its single-pair evaluation.

Because ``M* kappa_w = conj(w) kappa_w``, the adjoint residual on the
N-window is exactly ``P_N M* (I - P_N) kappa_w / ||P_N kappa_w||``, and
``P_N M* (I - P_N)`` is the conjugate transpose of the shift's discarded
block.  Its certificate is therefore
``sqrt(sum_j tail_j^2) ||(I - P_N) kappa_w|| / ||P_N kappa_w||`` from the
shift section's column tail bounds ``tail_j``: no operator norm, and no
factorization.  A finite certificate also carries the rounding of the
computed residual, which is far above that term where ``kappa_w`` decays fast.

No adjoint section is formed either.  Row ``j`` of ``P_N M* P_N`` applied to
``kappa`` is ``conj(s_j) kappa_{j+1} + conj(c_j) y_{j+2}``, where ``y_m =
kappa_m + conj(r_m) y_{m+1}`` is Horner's rule on the shift's ratios ``r_m =
-b_m / a_{m+1}``, run backward over every point at once, 64 rows at a time,
with ``|A| |kappa|`` from the same recurrence on magnitudes.  Time is
O(N (N + points)) and memory O(N points).  The rounding term counts that
recurrence's own operations: ``gamma_{2N}`` for real ratios and
``gamma_{4N}`` for complex ones (Higham, *Accuracy and Stability of
Numerical Algorithms*, 2nd ed., 2002, section 5.1).
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from .operators import (
    _BLOCK,
    TruncatedOperator,
    _geometric_tail_norm,
    _require_horizon,
    _shift_tails,
    _times,
    build_shift,
)
from .sequences import SequencePair, c_coefficients


_UNIT_ROUNDOFF = 2.0**-53


class KernelDivergenceError(ArithmeticError):
    """The kernel tail could not be certified below tolerance."""


@dataclass(frozen=True)
class PointSet:
    """Finitely many points strictly inside the unit disc."""

    points: tuple[complex, ...]

    def __post_init__(self) -> None:
        pts = tuple(complex(z) for z in self.points)
        for z in pts:
            if not (math.isfinite(z.real) and math.isfinite(z.imag)):
                raise ValueError(f"point {z!r} is not finite")
            if abs(z) >= 1.0:
                raise ValueError(f"point {z!r} is not strictly inside the unit disc")
        object.__setattr__(self, "points", pts)

    def __len__(self) -> int:
        return len(self.points)

    def __iter__(self):
        return iter(self.points)


@dataclass(frozen=True)
class KernelValue:
    value: complex
    terms_used: int
    tail_estimate: float
    converged: bool


def eval_basis(seq: SequencePair, n: int, z: complex) -> complex:
    """f_n(z) = (a_n + b_n z) z^n."""
    if not 0 <= n <= seq.horizon:
        raise ValueError(f"basis index {n} outside horizon {seq.horizon}")
    z = complex(z)
    return complex((seq.a[n] + seq.b[n] * z) * z**n)


def _powers(x, count: int) -> np.ndarray:
    """1, x, x^2, ... (``count`` terms) by sequential multiplication."""
    p = np.full(count, x)
    p[:1] = 1.0
    return np.cumprod(p)


def _basis_parts(
    seq: SequencePair, z: complex, count: int
) -> tuple[np.ndarray, np.ndarray]:
    """Real and imaginary parts of f_0(z)..f_{count-1}(z) via a running
    power (no large exponentials)."""
    zp = _powers(z, count)
    a, b = seq.a[:count], seq.b[:count]
    bzr, bzi = _times(b.real, b.imag, z.real, z.imag)
    return _times(a.real + bzr, a.imag + bzi, zp.real, zp.imag)


def _growth_tables(seq: SequencePair) -> tuple[np.ndarray, np.ndarray]:
    """The sequence-only factors of :func:`eval_kernel`'s certificate:
    ``(|a_m| + |b_m|)^2`` and the squared suffix maximum of the growth
    ratios, before the powers of rho.  One sweep forms them once."""
    growth = np.abs(seq.a) + np.abs(seq.b)
    ratios = growth[1:] / growth[:-1]
    suffix = np.maximum.accumulate(ratios[::-1])[::-1]  # suffix[m] = max_{k>=m}
    with np.errstate(all="ignore"):
        # float_power squares with C pow, as Python's ** does; np.square
        # rounds differently in about one case in a thousand
        return growth * growth, np.float_power(np.append(suffix, suffix[-1]), 2)


def _stop_index(
    tables: tuple[np.ndarray, np.ndarray], rho: float, tol: float
) -> tuple[int, float, bool]:
    """Terms used, tail certificate and converged flag of :func:`eval_kernel`
    at ``rho = |z||w|``; they depend on the pair through ``rho`` alone."""
    growth_sq, suffix_sq = tables
    # the certificate runs over the whole horizon; past the stopping index
    # its terms may overflow, and those are never used
    with np.errstate(all="ignore"):
        q = suffix_sq * rho
        s = growth_sq * _powers(rho, growth_sq.size)
        tail = np.where(q < 1.0, s * q / (1.0 - q), math.inf)
    stops = np.flatnonzero(tail < tol)
    count = int(stops[0]) + 1 if stops.size else growth_sq.size
    return count, float(tail[count - 1]), bool(stops.size)


def _pair_sum(
    z_parts: tuple[np.ndarray, np.ndarray],
    w_parts: tuple[np.ndarray, np.ndarray],
    count: int,
) -> complex:
    """sum_{m < count} f_m(z) conj(f_m(w)) from the two points' split basis
    parts (each at least ``count`` long), summed sequentially."""
    (zr, zi), (wr, wi) = z_parts, w_parts
    re, im = _times(zr[:count], zi[:count], wr[:count], -wi[:count])
    # + 0.0 as the running total starts from +0.0
    return complex(np.cumsum(re)[-1] + 0.0, np.cumsum(im)[-1] + 0.0)


def eval_kernel(
    seq: SequencePair,
    z: complex,
    w: complex,
    tol: float = 1e-10,
) -> KernelValue:
    """Partial kernel sum with a measured-growth geometric tail certificate.

    Terms are added until ``s_m * Q / (1 - Q) < tol`` where
    ``s_m = (|a_m| + |b_m|)^2 rho^m`` dominates term m (rho = |z||w|) and
    ``Q`` is the suffix maximum of the measured term-growth ratios.  If the
    horizon is exhausted first, the value is returned with
    ``converged=False`` and the last certificate (infinite when none exists).
    """
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    z, w = complex(z), complex(w)
    if abs(z) >= 1.0 or abs(w) >= 1.0:
        raise ValueError("kernel arguments must lie strictly inside the unit disc")
    count, tail, converged = _stop_index(_growth_tables(seq), abs(z) * abs(w), tol)
    value = _pair_sum(_basis_parts(seq, z, count), _basis_parts(seq, w, count), count)
    return KernelValue(value, count, tail, converged)


def _point_parts(
    seq: SequencePair, points: Iterable[complex]
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Each point's split basis parts over the whole horizon of ``seq``."""
    return [_basis_parts(seq, complex(z), seq.horizon + 1) for z in points]


def kernel_sweep(
    seq: SequencePair, pts: Iterable[complex], tol: float = 1e-10
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """:func:`eval_kernel` at every pair of ``pts``, bit for bit.

    Returns k x k arrays of the values, terms used, tail estimates and
    converged flags.  Each point's basis values are formed once, over the
    whole horizon, and each pair sums a prefix of them.  Each pair ``i <=
    j`` is evaluated once; ``(j, i)`` mirrors it with ``k(w, z) = conj(k(z,
    w))`` term by term, the imaginary part negated as ``0.0 - imag`` so that
    a zero stays unsigned.  The stopping index is formed once per distinct
    ``rho = |z||w|``.
    """
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    points = list(pts)
    parts = _point_parts(seq, points)
    tables = _growth_tables(seq)
    stops: dict[float, tuple[int, float, bool]] = {}
    radii = [abs(z) for z in points]
    k = len(points)
    values = np.empty((k, k), dtype=complex)
    terms = np.empty((k, k), dtype=int)
    tails = np.empty((k, k))
    converged = np.empty((k, k), dtype=bool)
    for i in range(k):
        for j in range(i, k):
            rho = radii[i] * radii[j]
            if rho not in stops:
                stops[rho] = _stop_index(tables, rho, tol)
            count, tail, conv = stops[rho]
            value = _pair_sum(parts[i], parts[j], count)
            values[j, i] = complex(value.real, 0.0 - value.imag)
            values[i, j] = value  # second, so the diagonal keeps the value
            terms[i, j] = terms[j, i] = count
            tails[i, j] = tails[j, i] = tail
            converged[i, j] = converged[j, i] = conv
    return values, terms, tails, converged


def gram_matrix(seq: SequencePair, pts: PointSet, tol: float = 1e-10) -> np.ndarray:
    """Hermitian Gram matrix G[i, j] = k(z_i, z_j) on the point set.

    The values of :func:`kernel_sweep`: exactly Hermitian, each entry bit
    for bit its :func:`eval_kernel`; non-convergence at any pair raises.
    """
    if len(pts) == 0:
        raise ValueError("point set must be nonempty")
    G, _, tails, converged = kernel_sweep(seq, pts, tol)
    if not converged.all():
        i, j = np.argwhere(~converged)[0]  # converged is symmetric: i <= j
        raise KernelDivergenceError(
            f"kernel tail not certified for pair ({i}, {j}); "
            f"estimate {tails[i, j]:.3e}"
        )
    return G


def defect_matrix(seq: SequencePair, N: int) -> TruncatedOperator:
    """Defect section I - M M* from exact truncations (exact on the window).

    The product of the shift section with its adjoint is window-exact because
    shift rows are finitely supported; the result is symmetrized so it is
    Hermitian to the bit.
    """
    if N < 4:
        raise ValueError("defect section needs N >= 4")
    M = build_shift(seq, N).entries
    C = M @ M.conj().T
    # I - C in place: 0 - x, then + 1 on the diagonal, rounds as 1 - x does
    np.subtract(0.0, C, out=C)
    C.flat[:: N + 1] += 1.0
    C += C.conj().T
    C /= 2.0
    return TruncatedOperator(C)


def _gamma(n: int) -> float:
    """``gamma_n = n u / (1 - n u)``, the bound on ``n`` roundings."""
    return n * _UNIT_ROUNDOFF / (1.0 - n * _UNIT_ROUNDOFF)


def adjoint_residual_grid(
    seq: SequencePair, pts: PointSet, N: int
) -> list[tuple[float, float]]:
    """Relative residual of ``M* kappa_w = conj(w) kappa_w`` on the N-window
    at each point w, with its certificate, from the shift's recurrence.

    The residual ``||P_N M* (I - P_N) kappa_w|| / ||P_N kappa_w||`` is at
    most ``F ||(I - P_N) kappa_w|| / ||P_N kappa_w||``, where ``F``, the
    scaled root sum of squares of the shift section's column tail bounds,
    bounds the Frobenius norm of the shift's discarded block.  The
    coefficients N..H of kappa_w enter exactly; past H they are closed
    geometrically with the largest coefficient ratio measured on the
    window's trailing quarter.  The certificate is inf when the shift has no
    tail bound (``r_hat >= 1`` or horizon ``<= N``) or that ratio reaches 1.
    The tail bounds come from the shift's row recurrence with no row
    written, the bits :func:`~trishift.operators.build_shift` returns.

    No section is formed.  With ``r_m = -b_m / a_{m+1}``, ``s_j = a_j /
    a_{j+1}`` and ``c_j`` the shift's coefficients, row ``j`` of the adjoint
    section ``A`` applied to the window ``kappa`` (``kappa_m = 0`` for ``m >=
    N``) is ``conj(s_j) kappa_{j+1} + conj(c_j) y_{j+2}``, with ``y_m =
    kappa_m + conj(r_m) y_{m+1}`` and ``y_N = 0``: Horner's rule, run
    backward over every point at once, ``_BLOCK`` rows at a time.  Each
    chunk's squared residuals, and those of ``v = |A| |kappa|`` from the same
    recurrence on magnitudes, are added into one sum per point.  Every
    complex product is formed by :func:`~trishift.operators._times`, and
    each point's sums run in order down its own column, so a point's
    rounding does not depend on the other points: one point's residual is
    bit for bit its residual in any grid.

    A finite certificate adds the rounding term ``gamma_R (phi ||v|| /
    ||P_N kappa_w|| + |w|)``, with ``v = |A| |kappa_w|`` as computed,
    ``gamma_n = n u / (1 - n u)`` and ``u = 2^-53``; ``gamma_R`` bounds
    each computed residual entry's error by ``gamma_R (v_j + |w|
    |kappa_j|)``.  By Horner's error analysis (Higham, *Accuracy and
    Stability of Numerical Algorithms*, 2nd ed., 2002, section 5.1):

    * A real ratio costs a step of ``y`` two roundings, a product and a sum,
      on the real and imaginary parts apart, so ``kappa_k`` reaches ``y_m``
      through at most ``2(N - m) - 1`` of them.  Forming row ``j`` (a
      product, a sum) and subtracting ``conj(w) kappa_j`` (one rounding)
      bring it to ``2N - 2``; the split product ``conj(w) kappa_j`` costs
      ``sqrt(2) gamma_2 <= gamma_3``.  So ``gamma_R = gamma_{2N}``.
    * A complex ratio's split product costs ``sqrt(2) gamma_2 <= gamma_3``,
      so a step costs ``gamma_4``: ``4(N - m) - 3`` for ``y_m`` and at most
      ``4N - 6`` for a residual entry, and ``gamma_R = gamma_{4N}``.
    * ``||v||`` must not fall below the exact norm.  Its recurrence adds
      only non-negative terms, and every rounding then scales a term by at
      least ``1 - u``.  Counting each complex magnitude as three roundings
      (numpy's complex ``abs`` measures within 2.4 u), a ``v_j`` term passes
      through at most ``5N``; the squares, at most ``N`` additions of them,
      the root and the division by ``||P_N kappa_w||`` bring the computed
      norm to at least ``(1 - u)^{6N + 3}`` times the exact one, so
      ``phi = 1 + gamma_{6N + 3}``.
    """
    if N < 2:
        raise ValueError("section order must be at least 2")
    _require_horizon(seq, N, "adjoint residual")
    H = seq.horizon
    start = max(1, (3 * N) // 4)
    points = list(pts)
    K = len(points)
    # entry n of kappa_w is conj(f_n(w)), n <= H
    coeffs = np.empty((K, H + 1), dtype=complex)
    for row, (re, im) in zip(coeffs, _point_parts(seq, points)):
        row.real, row.imag = re, -im
    mags = np.abs(coeffs)
    tails, _ = _shift_tails(seq, N)
    block = math.inf if tails is None else _geometric_tail_norm(tails, 0.0)
    norms, truncation = [], []
    for k in range(K):
        norms.append(float(np.linalg.norm(coeffs[k, :N])))
        cur, nxt = mags[k, start : N - 1], mags[k, start + 1 : N]
        live = cur > 0.0
        if np.any(~live & (nxt > 0.0)):  # a zero coefficient before a nonzero one
            decay = math.inf
        else:
            decay = float(np.fmax.reduce(nxt[live] / cur[live], initial=0.0))
        if decay >= 1.0 or tails is None:
            truncation.append(math.inf)
        else:
            rest = _geometric_tail_norm(mags[k, N:], decay)
            truncation.append(block * rest / norms[-1])
    resid_sq, spread_sq = _residual_sums(seq, coeffs, mags, points, N)
    gamma = _gamma((4 if np.iscomplexobj(seq.a) else 2) * N)
    inflate = 1.0 + _gamma(6 * N + 3)
    out = []
    for k, w in enumerate(points):
        residual = math.sqrt(resid_sq[k]) / norms[k]
        certificate = truncation[k]
        if certificate < math.inf:
            spread = inflate * math.sqrt(spread_sq[k]) / norms[k]
            certificate += gamma * (spread + abs(w))
        out.append((residual, certificate))
    return out


def _residual_sums(
    seq: SequencePair,
    coeffs: np.ndarray,
    mags: np.ndarray,
    points: list[complex],
    N: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Per point, ``||A kappa - conj(w) kappa||^2`` and ``|| |A| |kappa|
    ||^2`` for the N x N adjoint section ``A`` and the window ``kappa =
    coeffs[:, :N]`` (magnitudes ``mags``), by the backward recurrence of
    :func:`adjoint_residual_grid`."""
    a = seq.a
    K = len(points)
    # row m holds Re kappa_m, Im kappa_m and |kappa_m| of every point, and
    # row N (kappa_N, cut by the window) zeros
    data = np.zeros((N + 1, 3, K))
    data[:N, 0] = coeffs[:, :N].real.T
    data[:N, 1] = coeffs[:, :N].imag.T
    data[:N, 2] = mags[:, :N].T
    # the conjugated coefficients; c_j for j >= N - 2 only meets y_N = 0
    rho = np.conj(-(seq.b[:N] / a[1 : N + 1]))
    s = np.conj(a[:N] / a[1 : N + 1])
    c = np.zeros(N, a.dtype)
    c[: min(N, seq.horizon - 1)] = np.conj(c_coefficients(seq)[:N])
    scale = np.stack([rho.real, rho.real, np.abs(rho)], axis=1)[:, :, None]
    cross = np.stack([-rho.imag, rho.imag], axis=1)[:, :, None] if np.iscomplexobj(rho) else None
    parts = np.stack([s.real, np.imag(s), np.abs(s), c.real, np.imag(c), np.abs(c)])[:, :, None]
    w = np.conj(np.array(points, dtype=complex))
    resid_sq = np.zeros(K)
    spread_sq = np.zeros(K)
    # y's real and imaginary parts and the magnitudes' z at rows r0 .. r1 + 1
    y = np.zeros((_BLOCK + 2, 3, K))
    for r0 in reversed(range(0, N, _BLOCK)):
        r1 = min(r0 + _BLOCK, N)
        n = r1 - r0
        y[n : n + 2] = y[:2]  # rows r1 and r1 + 1; zeros on the first chunk
        for i in range(n - 1, -1, -1):
            m = r0 + i
            # (rho_r yr - rho_i yi, rho_r yi + rho_i yr, |rho| z): the split
            # product of operators._times, fused with the magnitudes' step
            np.multiply(y[i + 1], scale[m], out=y[i])
            if cross is not None:
                y[i, :2] += y[i + 1, 1::-1] * cross[m]
            y[i] += data[m]
        rows, nxt = slice(r0, r1), slice(r0 + 1, r1 + 1)
        sr, si, sa, cr, ci, ca = parts[:, rows]
        er, ei = _times(data[nxt, 0], data[nxt, 1], sr, si)
        yr, yi = _times(y[2 : n + 2, 0], y[2 : n + 2, 1], cr, ci)
        wr, wi = _times(data[rows, 0], data[rows, 1], w.real, w.imag)
        er, ei = er + yr - wr, ei + yi - wi
        # running sums down each point's column: sequential whatever K is
        resid_sq += np.cumsum(er * er + ei * ei, axis=0)[-1]
        v = sa * data[nxt, 2] + ca * y[2 : n + 2, 2]
        spread_sq += np.cumsum(v * v, axis=0)[-1]
    return resid_sq, spread_sq


__all__ = [
    "KernelDivergenceError",
    "KernelValue",
    "PointSet",
    "adjoint_residual_grid",
    "defect_matrix",
    "eval_basis",
    "eval_kernel",
    "gram_matrix",
    "kernel_sweep",
]
