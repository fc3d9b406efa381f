"""Kernel-side evaluation: basis functions, the kernel sum, Gram matrices,
the defect of the shift, and the adjoint eigenvector identity.

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
The operator norm in the adjoint certificate is taken in real arithmetic
when the adjoint section has no imaginary part.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .operators import TruncatedOperator, _narrow, build_adjoint, build_shift
from .sequences import SequencePair


class KernelDivergenceError(ArithmeticError):
    """The kernel tail could not be certified below tolerance."""


class AdjointIdentityError(AssertionError):
    """The adjoint eigenvector residual exceeded its certified tail."""


class DefectMismatchError(AssertionError):
    """The two evaluation routes of the defect disagreed beyond tolerance."""


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


def _basis_values(seq: SequencePair, z: complex, count: int) -> np.ndarray:
    """f_0(z)..f_{count-1}(z) via a running power (no large exponentials)."""
    out = np.empty(count, dtype=complex)
    out.real, out.imag = _basis_parts(seq, complex(z), count)
    return out


def eval_kernel(
    seq: SequencePair, z: complex, w: complex, tol: float = 1e-10
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
    H = seq.horizon
    rho = abs(z) * abs(w)
    growth = np.abs(seq.a) + np.abs(seq.b)
    ratios = growth[1:] / growth[:-1]
    suffix = np.maximum.accumulate(ratios[::-1])[::-1]  # suffix[m] = max_{k>=m}
    # the certificate runs over the whole horizon; past the stopping index
    # its terms may overflow, and those are never used
    with np.errstate(all="ignore"):
        # float_power squares with C pow, as Python's ** does; np.square
        # rounds differently in about one case in a thousand
        q = np.float_power(np.append(suffix, suffix[-1]), 2) * rho
        s = growth * growth * _powers(rho, H + 1)
        tail = np.where(q < 1.0, s * q / (1.0 - q), math.inf)
    stops = np.flatnonzero(tail < tol)
    count = int(stops[0]) + 1 if stops.size else H + 1
    zr, zi = _basis_parts(seq, z, count)
    wr, wi = _basis_parts(seq, w, count)
    re, im = _times(zr, zi, wr, -wi)  # f_m(z) conj(f_m(w))
    # sequential sums; + 0.0 as the running total starts from +0.0
    total = complex(np.cumsum(re)[-1] + 0.0, np.cumsum(im)[-1] + 0.0)
    return KernelValue(total, count, float(tail[count - 1]), bool(stops.size))


def _hermitian(upper: dict[tuple[int, int], complex], k: int) -> np.ndarray:
    """The k x k matrix with the given upper triangle (``i <= j``), its
    lower triangle filled by conjugation so that it is exactly Hermitian."""
    G = np.empty((k, k), dtype=complex)
    for (i, j), value in upper.items():
        G[j, i] = np.conj(value)
        G[i, j] = value
    return G


def gram_matrix(seq: SequencePair, pts: PointSet, tol: float = 1e-10) -> np.ndarray:
    """Hermitian Gram matrix G[i, j] = k(z_i, z_j) on the point set.

    The upper triangle is evaluated and the lower filled by conjugation, so
    the result is exactly Hermitian; non-convergence at any pair raises.
    """
    if len(pts) == 0:
        raise ValueError("point set must be nonempty")
    k = len(pts)
    points = list(pts)
    upper = {}
    for i in range(k):
        for j in range(i, k):
            kv = eval_kernel(seq, points[i], points[j], tol)
            if not kv.converged:
                raise KernelDivergenceError(
                    f"kernel tail not certified for pair ({i}, {j}); "
                    f"estimate {kv.tail_estimate:.3e}"
                )
            upper[(i, j)] = kv.value
    return _hermitian(upper, k)


def defect_matrix(seq: SequencePair, N: int) -> TruncatedOperator:
    """Defect section I - M M* from exact truncations (exact on the window).

    The product of the shift section with its adjoint is window-exact because
    shift rows are finitely supported; the result is symmetrized so it is
    Hermitian to the bit.
    """
    if N < 4:
        raise ValueError("defect section needs N >= 4")
    M = build_shift(seq, N).entries
    C = np.eye(N, dtype=complex) - M @ M.conj().T
    C = (C + C.conj().T) / 2.0
    return TruncatedOperator(C, N, 0, None, N)


def kernel_coefficients(seq: SequencePair, w: complex, count: int) -> np.ndarray:
    """Basis coefficients of k(. , w): entry n is conj(f_n(w))."""
    return np.conj(_basis_values(seq, complex(w), count))


def adjoint_eigen_residual(
    seq: SequencePair, w: complex, N: int
) -> tuple[float, float]:
    """Relative residual of M* kappa_w = conj(w) kappa_w on the N-window,
    together with its measured-decay tail certificate (inf when the kernel
    coefficients do not decay on the trailing quarter)."""
    if abs(complex(w)) >= 1.0:
        raise ValueError("w must lie strictly inside the unit disc")
    if not 2 <= N <= seq.horizon:
        raise ValueError(f"N must lie in [2, horizon = {seq.horizon}]")
    return adjoint_residual_grid(seq, PointSet((w,)), N)[0]


def adjoint_eigen_check(
    seq: SequencePair, w: complex, N: int, tol: float = 1e-10
) -> float:
    """Residual of the adjoint eigenvector identity, self-checked against the
    certified tail: raises :class:`AdjointIdentityError` when a finite
    certificate is exceeded by more than ``tol``."""
    residual, certificate = adjoint_eigen_residual(seq, w, N)
    if math.isfinite(certificate) and residual > certificate + tol:
        raise AdjointIdentityError(
            f"residual {residual:.3e} exceeds certified tail "
            f"{certificate:.3e} + tol {tol:.1e}"
        )
    return residual


def adjoint_residual_grid(
    seq: SequencePair, pts: PointSet, N: int
) -> list[tuple[float, float]]:
    """:func:`adjoint_eigen_residual` per point, sharing one adjoint section
    and its operator norm (taken when a first certificate needs it)."""
    Astar = build_adjoint(seq, N).entries
    opnorm = None
    start = max(1, (3 * N) // 4)
    out = []
    for w in pts:
        kappa = kernel_coefficients(seq, w, N)
        resid_vec = Astar @ kappa - np.conj(w) * kappa
        norm_kappa = float(np.linalg.norm(kappa))
        residual = float(np.linalg.norm(resid_vec)) / norm_kappa
        mags = np.abs(kappa)
        cur, nxt = mags[start : N - 1], mags[start + 1 : N]
        live = cur > 0.0
        if np.any(~live & (nxt > 0.0)):  # a zero coefficient before a nonzero one
            decay = math.inf
        else:
            decay = float(np.fmax.reduce(nxt[live] / cur[live], initial=0.0))
        if decay >= 1.0:
            certificate = math.inf
        else:
            tail_l2 = mags[N - 1] * decay / math.sqrt(1.0 - decay * decay) if decay else 0.0
            if opnorm is None:
                opnorm = float(np.linalg.norm(_narrow(Astar), 2))
            certificate = (opnorm + abs(w)) * tail_l2 / norm_kappa
        out.append((residual, certificate))
    return out


def defect_apply(seq: SequencePair, coeffs: np.ndarray, w: complex) -> complex:
    """Evaluate the defect applied to a function at w by two routes.

    Route one pairs the coefficient vector against the expansion of
    (1 - z conj(w)) k(., w); route two applies the defect section and
    evaluates pointwise.  The two must agree within a tolerance scaled by the
    truncation quality; disagreement raises :class:`DefectMismatchError`.
    Returns the first route's value.
    """
    w = complex(w)
    if abs(w) >= 1.0:
        raise ValueError("w must lie strictly inside the unit disc")
    coeffs = np.asarray(coeffs, dtype=complex)
    if coeffs.ndim != 1 or coeffs.size == 0:
        raise ValueError("coeffs must be a nonempty vector")
    H = seq.horizon
    if coeffs.size > H:
        raise ValueError(f"coeffs length {coeffs.size} exceeds horizon {H}")
    if H < 4:
        raise ValueError("defect evaluation needs horizon >= 4")
    f = np.zeros(H, dtype=complex)
    f[: coeffs.size] = coeffs
    kappa = kernel_coefficients(seq, w, H)
    M = build_shift(seq, H).entries
    gamma = kappa - np.conj(w) * (M @ kappa)
    route_pairing = complex(np.vdot(gamma, f))
    C = defect_matrix(seq, H).entries
    basis_vals = _basis_values(seq, w, H)
    route_matrix = complex(np.sum((C @ f) * basis_vals))
    norm_f = float(np.linalg.norm(f))
    scale = 1.0 + norm_f * float(np.linalg.norm(kappa))
    # |kappa_{H-1}| proxies the truncation quality of both routes
    threshold = max(1e-8 * scale, 10.0 * float(np.abs(kappa[H - 1])) * max(norm_f, 1.0))
    if abs(route_pairing - route_matrix) > threshold:
        raise DefectMismatchError(
            f"defect routes disagree by {abs(route_pairing - route_matrix):.3e} "
            f"(threshold {threshold:.3e})"
        )
    return route_pairing


__all__ = [
    "AdjointIdentityError",
    "DefectMismatchError",
    "KernelDivergenceError",
    "KernelValue",
    "PointSet",
    "adjoint_eigen_check",
    "adjoint_eigen_residual",
    "adjoint_residual_grid",
    "defect_apply",
    "defect_matrix",
    "eval_basis",
    "eval_kernel",
    "gram_matrix",
    "kernel_coefficients",
]
