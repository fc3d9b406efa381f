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
are formed as split real and imaginary arrays, each complex product as
``(ar br - ai bi, ar bi + ai br)`` with every operation rounded on its own,
and summed sequentially.  The result is bit for bit the term-by-term sum.
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
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from .operators import (
    TruncatedOperator,
    _adjoint_entries,
    _geometric_tail_norm,
    build_shift,
)
from .sequences import SequencePair


_UNIT_ROUNDOFF = 2.0**-53
_ROW_BLOCK = 32  # rows of |A| formed at a time by adjoint_residual_grid


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


def _times(
    ar: np.ndarray, ai: np.ndarray, br, bi
) -> tuple[np.ndarray, np.ndarray]:
    """Split-real complex product ``(ar br - ai bi, ar bi + ai br)``, rounded
    operation by operation as the scalar complex product is (a complex array
    multiply may fuse the multiply-adds)."""
    return ar * br - ai * bi, ar * bi + ai * br


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


def _apply(A: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``A @ x`` for a complex vector ``x``.  A real ``A`` is applied to the
    real and imaginary parts apart, so that it is never cast to complex."""
    if np.iscomplexobj(A):
        return A @ x
    return A @ x.real + 1j * (A @ x.imag)


def adjoint_residual_grid(
    seq: SequencePair, pts: PointSet, N: int
) -> list[tuple[float, float]]:
    """Relative residual of ``M* kappa_w = conj(w) kappa_w`` on the N-window
    at each point w, with its certificate, sharing one adjoint section.

    The residual ``||P_N M* (I - P_N) kappa_w|| / ||P_N kappa_w||`` is at
    most ``F ||(I - P_N) kappa_w|| / ||P_N kappa_w||``, where ``F``, the
    scaled root sum of squares of the shift section's column tail bounds,
    bounds the Frobenius norm of the shift's discarded block.  The
    coefficients N..H of kappa_w enter exactly; past H they are closed
    geometrically with the largest coefficient ratio measured on the
    window's trailing quarter.  The certificate is inf when the shift has no
    tail bound (``r_hat >= 1`` or horizon ``<= N``) or that ratio reaches 1.

    A finite certificate adds the rounding term
    ``gamma_{N+2} (|| |A| |kappa_w| || / ||P_N kappa_w|| + |w|)``: the
    componentwise error bound of the computed ``A kappa_w - conj(w) kappa_w``
    (each row of the adjoint section ``A`` has at most N - 1 nonzeros),
    relative to ``||P_N kappa_w||``, with ``gamma_n = n u / (1 - n u)``.
    ``|A| |kappa_w|`` is one real product for the whole grid, a block of
    rows of ``|A|`` at a time.  Each point's residual applies ``A`` on its
    own, so one point's residual is bit for bit its residual in any grid.
    """
    H = seq.horizon
    start = max(1, (3 * N) // 4)
    points = list(pts)
    # entry n of kappa_w is conj(f_n(w)), n <= H
    coeffs = np.empty((len(points), H + 1), dtype=complex)
    for row, (re, im) in zip(coeffs, _point_parts(seq, points)):
        row.real, row.imag = re, -im
    mags = np.abs(coeffs)
    Astar, tails = _adjoint_entries(seq, N)
    block = math.inf if tails is None else _geometric_tail_norm(tails, 0.0)
    if tails is not None:
        # || |A| |kappa_w| ||^2 for every point, a block of rows at a time
        # so that no second N x N array is held
        spread_sq = sum(
            np.square(np.abs(Astar[i : i + _ROW_BLOCK]) @ mags[:, :N].T).sum(axis=0)
            for i in range(0, N, _ROW_BLOCK)
        )
        gamma = (N + 2) * _UNIT_ROUNDOFF / (1.0 - (N + 2) * _UNIT_ROUNDOFF)
    out = []
    for k, w in enumerate(points):
        kappa = coeffs[k, :N]
        resid_vec = _apply(Astar, kappa) - np.conj(w) * kappa
        norm_kappa = float(np.linalg.norm(kappa))
        residual = float(np.linalg.norm(resid_vec)) / norm_kappa
        cur, nxt = mags[k, start : N - 1], mags[k, start + 1 : N]
        live = cur > 0.0
        if np.any(~live & (nxt > 0.0)):  # a zero coefficient before a nonzero one
            decay = math.inf
        else:
            decay = float(np.fmax.reduce(nxt[live] / cur[live], initial=0.0))
        if decay >= 1.0 or tails is None:
            certificate = math.inf
        else:
            rest = _geometric_tail_norm(mags[k, N:], decay)
            spread = math.sqrt(spread_sq[k]) / norm_kappa
            certificate = block * rest / norm_kappa + gamma * (spread + abs(w))
        out.append((residual, certificate))
    return out


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
