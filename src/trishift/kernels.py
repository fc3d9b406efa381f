"""Kernel-side evaluation: basis functions, the kernel sum, Gram matrices,
the defect of the shift, and the adjoint eigenvector identity.

The kernel k(z, w) = sum_n f_n(z) conj(f_n(w)) with f_n(z) = (a_n + b_n z) z^n
is summed with a certified stopping rule: the tail is bounded geometrically
using the measured trailing growth of (|a_n| + |b_n|).  When the certificate
cannot be driven below tolerance within the horizon the evaluation reports
non-convergence instead of fabricating a value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .operators import TruncatedOperator, build_adjoint, build_shift
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


def _basis_values(seq: SequencePair, z: complex, count: int) -> np.ndarray:
    """f_0(z)..f_{count-1}(z) via a running power (no large exponentials)."""
    out = np.empty(count, dtype=complex)
    zp = 1.0 + 0.0j
    for n in range(count):
        out[n] = (seq.a[n] + seq.b[n] * z) * zp
        zp *= z
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

    total = 0.0j
    zp = 1.0 + 0.0j
    wp = 1.0 + 0.0j
    rho_pow = 1.0
    tail = math.inf
    for m in range(H + 1):
        fz = (seq.a[m] + seq.b[m] * z) * zp
        fw = (seq.a[m] + seq.b[m] * w) * wp
        total += fz * np.conj(fw)
        s_m = growth[m] * growth[m] * rho_pow
        q_idx = min(m, suffix.size - 1)
        q = float(suffix[q_idx]) ** 2 * rho
        tail = s_m * q / (1.0 - q) if q < 1.0 else math.inf
        if tail < tol:
            return KernelValue(complex(total), m + 1, float(tail), True)
        zp *= z
        wp *= w
        rho_pow *= rho
    return KernelValue(complex(total), H + 1, float(tail), False)


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
    seq: SequencePair, w: complex, N: int, _adjoint: np.ndarray | None = None,
    _opnorm: float | None = None,
) -> tuple[float, float]:
    """Relative residual of M* kappa_w = conj(w) kappa_w on the N-window,
    together with its measured-decay tail certificate (inf when the kernel
    coefficients do not decay on the trailing quarter)."""
    if abs(complex(w)) >= 1.0:
        raise ValueError("w must lie strictly inside the unit disc")
    if not 2 <= N <= seq.horizon:
        raise ValueError(f"N must lie in [2, horizon = {seq.horizon}]")
    kappa = kernel_coefficients(seq, w, N)
    Astar = build_adjoint(seq, N).entries if _adjoint is None else _adjoint
    resid_vec = Astar @ kappa - np.conj(complex(w)) * kappa
    norm_kappa = float(np.linalg.norm(kappa))
    residual = float(np.linalg.norm(resid_vec)) / norm_kappa
    mags = np.abs(kappa)
    start = max(1, (3 * N) // 4)
    decay = 0.0
    for i in range(start, N - 1):
        if mags[i] > 0.0:
            decay = max(decay, mags[i + 1] / mags[i])
        elif mags[i + 1] > 0.0:
            decay = math.inf
    if decay >= 1.0:
        certificate = math.inf
    else:
        tail_l2 = mags[N - 1] * decay / math.sqrt(1.0 - decay * decay) if decay else 0.0
        opnorm = (
            float(np.linalg.norm(Astar, 2)) if _opnorm is None else _opnorm
        )
        certificate = (opnorm + abs(complex(w))) * tail_l2 / norm_kappa
    return residual, certificate


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
    """(residual, certificate) per point, sharing one adjoint section."""
    Astar = build_adjoint(seq, N).entries
    opnorm = float(np.linalg.norm(Astar, 2))
    return [
        adjoint_eigen_residual(seq, w, N, _adjoint=Astar, _opnorm=opnorm)
        for w in pts
    ]


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
