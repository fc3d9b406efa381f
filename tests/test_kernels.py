import cmath
import math
import warnings

import numpy as np
import pytest

from corpus_families import CORPUS, family_pair
from trishift import (
    CoefficientSpec,
    KernelDivergenceError,
    PointSet,
    adjoint_eigen_check,
    adjoint_eigen_residual,
    adjoint_residual_grid,
    build_shift,
    defect_apply,
    defect_matrix,
    eval_basis,
    eval_kernel,
    gram_matrix,
    kernel_coefficients,
    materialize,
    parse_sequence_expr,
)
from trishift.kernels import KernelValue, _basis_values


def make_pair(a_text, b_text, N):
    spec = CoefficientSpec(parse_sequence_expr(a_text), parse_sequence_expr(b_text))
    return materialize(spec, N)


def szego(N=256):
    return make_pair("1", "0", N)


# ------------------------------------------------------------------ basis


def test_basis_at_origin():
    seq = make_pair("2 + 1/(n+1)", "0.25", 8)
    assert eval_basis(seq, 0, 0.0) == seq.a[0]
    for n in range(1, 5):
        assert eval_basis(seq, n, 0.0) == 0.0


def test_basis_half_point():
    seq = make_pair("1", "0.5", 8)
    assert eval_basis(seq, 2, 0.5) == (1 + 0.25) * 0.25


def test_basis_diagonal_family():
    seq = make_pair("sqrt(n+1)", "0", 8)
    z = 0.3 + 0.4j
    for n in range(5):
        assert abs(eval_basis(seq, n, z) - seq.a[n] * z**n) < 1e-15


def test_basis_index_bounds():
    seq = make_pair("1", "0", 8)
    with pytest.raises(ValueError):
        eval_basis(seq, 9, 0.1)


# ------------------------------------------------------------------ kernel


def test_szego_closed_form_samples():
    seq = szego()
    rng = np.random.default_rng(61)
    for _ in range(20):
        z = 0.85 * rng.uniform() * np.exp(2j * np.pi * rng.uniform())
        w = 0.85 * rng.uniform() * np.exp(2j * np.pi * rng.uniform())
        kv = eval_kernel(seq, z, w, 1e-10)
        assert kv.converged
        assert abs(kv.value - 1.0 / (1.0 - z * np.conj(w))) < 1e-9


def test_szego_half_value():
    kv = eval_kernel(szego(64), 0.5, 0.5, 1e-12)
    assert kv.converged
    assert abs(kv.value - 4.0 / 3.0) < 1e-11


def test_kernel_diagonal_is_real_nonnegative():
    families = (("1", "0"), ("sqrt(n+1)", "0.5"), ("1", "0.4*(-1)^n"))
    for fam in families + tuple((f.a, f.b) for f in CORPUS):
        seq = make_pair(fam[0], fam[1], 128)
        for z in (0.0, 0.3, 0.5 + 0.2j, -0.7j, 0.98j):
            kv = eval_kernel(seq, z, z, 1e-10)
            assert kv.value.imag.hex() == (0.0).hex()  # +0.0 exactly
            assert kv.value.real >= 0.0


def test_kernel_symmetry():
    seq = make_pair("sqrt(n+1)", "1/(n+2)", 128)
    rng = np.random.default_rng(67)
    for _ in range(10):
        z = 0.6 * rng.uniform() * np.exp(2j * np.pi * rng.uniform())
        w = 0.6 * rng.uniform() * np.exp(2j * np.pi * rng.uniform())
        kzw = eval_kernel(seq, z, w, 1e-11)
        kwz = eval_kernel(seq, w, z, 1e-11)
        assert abs(kzw.value - np.conj(kwz.value)) <= (
            kzw.tail_estimate + kwz.tail_estimate + 1e-12
        )


def test_kernel_flags_nonconvergence():
    # coefficients growing like 2^n cannot be certified at |z||w| close to 1
    seq = make_pair("2^n", "0", 24)
    kv = eval_kernel(seq, 0.9, 0.9, 1e-8)
    assert not kv.converged


def test_kernel_tail_estimate_shrinks_with_tolerance():
    seq = make_pair("sqrt(n+1)", "0", 512)
    estimates = []
    terms = []
    for tol in (1e-2, 1e-4, 1e-6, 1e-8, 1e-10):
        kv = eval_kernel(seq, 0.7, 0.6, tol)
        assert kv.converged
        estimates.append(kv.tail_estimate)
        terms.append(kv.terms_used)
    assert all(e1 <= e0 for e0, e1 in zip(estimates, estimates[1:]))
    assert all(t1 >= t0 for t0, t1 in zip(terms, terms[1:]))


# References: the term-by-term loops that the vectorized kernel replaced.


def reference_basis_values(seq, z, count):
    out = np.empty(count, dtype=complex)
    zp = 1.0 + 0.0j
    for n in range(count):
        out[n] = (seq.a[n] + seq.b[n] * z) * zp
        zp *= z
    return out


def reference_eval_kernel(seq, z, w, tol=1e-10):
    z, w = complex(z), complex(w)
    H = seq.horizon
    rho = abs(z) * abs(w)
    growth = np.abs(seq.a) + np.abs(seq.b)
    ratios = growth[1:] / growth[:-1]
    suffix = np.maximum.accumulate(ratios[::-1])[::-1]

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


def bits(x):
    """Exact bit pattern of a number (tells -0.0 from 0.0)."""
    x = complex(x)
    return (x.real.hex(), x.imag.hex())


def assert_matches_reference(seq, points, tol):
    for z in points:
        ref = reference_basis_values(seq, complex(z), seq.horizon + 1)
        assert _basis_values(seq, z, seq.horizon + 1).tobytes() == ref.tobytes()
        for w in points:
            want = reference_eval_kernel(seq, z, w, tol)
            got = eval_kernel(seq, z, w, tol)
            assert bits(got.value) == bits(want.value), (z, w)
            assert got.terms_used == want.terms_used
            assert got.tail_estimate.hex() == want.tail_estimate.hex()
            assert got.converged == want.converged


PARITY_POINTS = (
    tuple(0.98 * cmath.exp(2j * math.pi * j / 5) for j in range(5))
    + (0.0, 0.1, -0.5j, 0.3 - 0.6j)
)


@pytest.mark.parametrize("fam", CORPUS, ids=lambda f: f.name)
def test_kernel_bit_identical_to_reference_on_corpus(fam):
    assert_matches_reference(family_pair(fam, 256), PARITY_POINTS, 1e-10)


def test_kernel_bit_identical_to_reference_on_complex_family():
    rng = np.random.default_rng(83)
    H = 256
    a = (1.0 + 0.5 * rng.uniform(size=H + 1)) * np.exp(2j * np.pi * rng.uniform(size=H + 1))
    b = 0.4 * rng.uniform(size=H + 1) * np.exp(2j * np.pi * rng.uniform(size=H + 1))
    seq = materialize(CoefficientSpec(a, b), H)
    assert np.any(seq.a.imag) and np.any(seq.b.imag)
    points = PARITY_POINTS + tuple(
        0.95 * rng.uniform() * cmath.exp(2j * math.pi * rng.uniform()) for _ in range(7)
    )
    assert_matches_reference(seq, points, 1e-10)


def test_kernel_bit_identical_to_reference_without_convergence():
    seq = make_pair("2^n", "0", 24)
    assert not reference_eval_kernel(seq, 0.9, 0.9, 1e-8).converged
    assert_matches_reference(seq, (0.9, 0.85j, 0.1, 0.0), 1e-8)


def test_kernel_certificate_squares_like_python_pow():
    # here Python's ** and x * x round suffix[381]**2 differently
    bergman = next(f for f in CORPUS if f.name == "bergman")
    seq = family_pair(bergman, 1088)
    assert eval_kernel(seq, 0.95949, 0.95949, 1e-10).terms_used == 382
    assert_matches_reference(seq, (0.95949,), 1e-10)


def test_kernel_signed_zeros_match_reference():
    # a_n = -1 - 0j: some partial sums are -0.0, the loop's total is +0.0
    H = 16
    seq = materialize(CoefficientSpec(np.full(H + 1, complex(-1.0, -0.0)), np.zeros(H + 1)), H)
    assert_matches_reference(seq, (0.5, -0.5, complex(-0.0, -0.0), -0.5j), 1e-10)


def test_kernel_certificate_overflow_past_stop_is_silent():
    # (|a_m| + |b_m|)^2 overflows from m = 512 on; the sum stops at m = 7
    seq = make_pair("2^n", "0", 600)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        kv = eval_kernel(seq, 0.1, 0.1, 1e-10)
    assert kv.value == (1.0416666666598402 + 0j)
    assert kv.terms_used == 8
    assert kv.converged


def test_kernel_rejects_boundary_points():
    seq = szego(16)
    with pytest.raises(ValueError):
        eval_kernel(seq, 1.0, 0.0)
    with pytest.raises(ValueError):
        eval_kernel(seq, 0.0, -1.0)


# -------------------------------------------------------------------- gram


def test_gram_single_point():
    G = gram_matrix(szego(64), PointSet((0.4 + 0.1j,)), 1e-10)
    assert G.shape == (1, 1)
    assert G[0, 0].imag == 0.0
    assert G[0, 0].real > 0.0


def test_gram_szego_closed_form():
    G = gram_matrix(szego(128), PointSet((0.0, 0.5)), 1e-12)
    expect = np.array([[1.0, 1.0], [1.0, 4.0 / 3.0]], dtype=complex)
    assert np.max(np.abs(G - expect)) < 1e-11


def test_gram_least_eigenvalue_nonnegative():
    rng = np.random.default_rng(71)
    for fam in (("1", "0"), ("sqrt(n+1)", "0"), ("1", "1/(n+1)")):
        seq = make_pair(fam[0], fam[1], 256)
        pts = PointSet(
            tuple(
                0.6 * rng.uniform() * np.exp(2j * np.pi * rng.uniform())
                for _ in range(8)
            )
        )
        G = gram_matrix(seq, pts, 1e-10)
        least = np.linalg.eigvalsh(G)[0]
        assert least >= -1e-10 * len(pts)


def test_gram_is_exactly_hermitian():
    rng = np.random.default_rng(73)
    seq = make_pair("1", "1/(n+2)", 128)
    pts = PointSet(tuple(0.5 * np.exp(2j * np.pi * rng.uniform()) for _ in range(5)))
    G = gram_matrix(seq, pts, 1e-10)
    assert np.array_equal(G, G.conj().T)


def test_gram_propagates_nonconvergence():
    seq = make_pair("2^n", "0", 24)
    with pytest.raises(KernelDivergenceError):
        gram_matrix(seq, PointSet((0.9, 0.85)), 1e-10)


def test_point_set_validation():
    with pytest.raises(ValueError):
        PointSet((1.0,))
    with pytest.raises(ValueError):
        PointSet((0.5, 1.2j))
    assert len(PointSet((0.1, 0.2j))) == 2


# ------------------------------------------------------------------ defect


def test_defect_rank_one_for_szego():
    seq = szego(32)
    C = defect_matrix(seq, 16).entries
    expect = np.zeros((16, 16), dtype=complex)
    expect[0, 0] = 1.0
    assert np.max(np.abs(C - expect)) < 1e-14


def test_defect_rank_one_for_constant_half_b():
    seq = make_pair("1", "0.5", 32)
    C = defect_matrix(seq, 16).entries
    expect = np.zeros((16, 16), dtype=complex)
    expect[0, 0] = 1.0
    assert np.max(np.abs(C - expect)) < 1e-14


def test_defect_matches_product_and_trace_real():
    for fam in (("sqrt(n+1)", "1/(n+2)"), ("1", "0.4*(-1)^n")):
        seq = make_pair(fam[0], fam[1], 48)
        N = 32
        C = defect_matrix(seq, N).entries
        M = build_shift(seq, N).entries
        direct = np.eye(N) - M @ M.conj().T
        assert np.max(np.abs(C - direct)) < 1e-12
        assert np.trace(C).imag == 0.0
        assert np.array_equal(C, C.conj().T)


# -------------------------------------------------- adjoint eigenvector check


def test_adjoint_residual_zero_at_origin():
    seq = make_pair("sqrt(n+1)", "1/(n+2)", 64)
    residual, cert = adjoint_eigen_residual(seq, 0.0, 48)
    assert residual == 0.0
    assert cert == 0.0


def test_adjoint_residual_szego():
    residual = adjoint_eigen_check(szego(256), 0.5, 256, tol=1e-10)
    assert residual < 1e-10


def test_adjoint_residual_below_certificate_on_grid():
    # 25-point polar grid with |w| <= 0.9
    pts = PointSet(
        tuple(
            r * np.exp(2j * np.pi * k / 5)
            for r in (0.1, 0.3, 0.5, 0.7, 0.9)
            for k in range(5)
        )
    )
    for fam in (("1", "0"), ("sqrt(n+1)", "0"), ("1", "1/(n+1)")):
        seq = make_pair(fam[0], fam[1], 512)
        for residual, cert in adjoint_residual_grid(seq, pts, 512):
            assert residual <= cert + 1e-10


def test_kernel_coefficients_definition():
    seq = make_pair("1", "0.5", 32)
    w = 0.4 + 0.2j
    kappa = kernel_coefficients(seq, w, 8)
    for n in range(8):
        assert abs(kappa[n] - np.conj(eval_basis(seq, n, w))) < 1e-15


def test_adjoint_residual_uses_consistent_operator():
    # the one-point residual is the grid's, bit for bit
    seq = make_pair("1", "1/(n+1)", 128)
    one = adjoint_eigen_residual(seq, 0.4, 128)
    grid = adjoint_residual_grid(seq, PointSet((0.4, 0.3j, -0.7)), 128)
    assert np.array(one).tobytes() == np.array(grid[0]).tobytes()


# ------------------------------------------------------------- defect apply


def test_defect_apply_projects_onto_first_basis_vector():
    seq = szego(128)
    for w in (0.0, 0.3, -0.5j, 0.6 + 0.2j):
        value = defect_apply(seq, np.array([1.0 + 0j]), w)
        assert abs(value - 1.0) < 1e-10


def test_defect_apply_annihilates_second_basis_vector():
    seq = szego(128)
    for w in (0.2, -0.4, 0.5j):
        value = defect_apply(seq, np.array([0.0, 1.0 + 0j]), w)
        assert abs(value) < 1e-10


def test_defect_apply_consistency_at_origin():
    seq = make_pair("sqrt(n+1)", "1/(n+2)", 64)
    rng = np.random.default_rng(79)
    coeffs = rng.standard_normal(10) + 1j * rng.standard_normal(10)
    value = defect_apply(seq, coeffs, 0.0)
    # at w = 0 the pairing reduces to the zeroth coefficient of the defect image
    C = defect_matrix(seq, 64).entries
    f = np.zeros(64, dtype=complex)
    f[:10] = coeffs
    expect = (C @ f)[0] * seq.a[0]
    assert abs(value - expect) < 1e-10


def test_defect_apply_validates_input():
    seq = szego(16)
    with pytest.raises(ValueError):
        defect_apply(seq, np.ones(20, dtype=complex), 0.3)
    with pytest.raises(ValueError):
        defect_apply(seq, np.ones(4, dtype=complex), 1.5)
