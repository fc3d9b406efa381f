import cmath
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from corpus_families import CORPUS, complex_baseline_pair, family_pair, make_pair
from trishift import (
    CoefficientSpec,
    KernelDivergenceError,
    PointSet,
    SequencePair,
    adjoint_residual_grid,
    build_adjoint,
    build_shift,
    defect_matrix,
    eval_basis,
    eval_kernel,
    gram_matrix,
    kernel_sweep,
    materialize,
)
from trishift import kernels, operators
from trishift.kernels import KernelValue, _basis_parts


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
        re, im = _basis_parts(seq, complex(z), seq.horizon + 1)
        assert re.tobytes() == ref.real.tobytes()
        assert im.tobytes() == ref.imag.tobytes()
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


def assert_same_value(got, want):
    assert bits(got.value) == bits(want.value)
    assert got.terms_used == want.terms_used
    assert got.tail_estimate.hex() == want.tail_estimate.hex()
    assert got.converged == want.converged


def test_sweep_matches_reference_on_seeded_grids():
    # radii drawn from a few values give repeated rho = |z||w| groups; 2^n
    # at |z| = 0.9 cannot be certified at tol 1e-8; the zero points carry
    # signed zeros
    rng = np.random.default_rng(101)
    H = 256
    a = (1.0 + 0.5 * rng.uniform(size=H + 1)) * np.exp(2j * np.pi * rng.uniform(size=H + 1))
    b = 0.4 * rng.uniform(size=H + 1) * np.exp(2j * np.pi * rng.uniform(size=H + 1))
    cases = [
        (family_pair(f, H), 1e-10)
        for f in CORPUS
        if f.name in ("bergman-const-b", "high-const-b", "alt-b-half")
    ]
    cases.append((SequencePair(a, b), 1e-10))
    cases.append((make_pair("2^n", "0", 24), 1e-8))
    diverged = 0
    for seq, tol in cases:
        radii = rng.choice((0.0, 0.3, 0.5, 0.7, 0.85), size=8)
        points = [r * cmath.exp(2j * math.pi * rng.uniform()) for r in radii]
        points += [complex(-0.0, -0.0), complex(0.0, -0.0), 0.9, -0.9j]
        values, terms, tails, converged = kernel_sweep(seq, points, tol)
        k = len(points)
        assert values.shape == terms.shape == tails.shape == converged.shape == (k, k)
        assert len({abs(z) * abs(w) for z in points for w in points}) >= 6
        for i in range(k):
            for j in range(k):
                want = reference_eval_kernel(seq, points[i], points[j], tol)
                got = KernelValue(
                    complex(values[i, j]), int(terms[i, j]),
                    float(tails[i, j]), bool(converged[i, j]),
                )
                assert_same_value(got, want)
                assert_same_value(eval_kernel(seq, points[i], points[j], tol), want)
        if converged.all():
            G = gram_matrix(seq, PointSet(tuple(points)), tol)
            for i in range(k):
                for j in range(k):
                    direct = eval_kernel(seq, points[i], points[j], tol)
                    assert bits(G[i, j]) == bits(direct.value)
        else:
            diverged += 1
            with pytest.raises(KernelDivergenceError):
                gram_matrix(seq, PointSet(tuple(points)), tol)
    assert 0 < diverged < len(cases)


def test_sweep_forms_basis_values_once_per_point(monkeypatch):
    calls = []
    original = kernels._basis_parts

    def counting(seq, z, count):
        calls.append(count)
        return original(seq, z, count)

    monkeypatch.setattr(kernels, "_basis_parts", counting)
    pts = PointSet(tuple(0.5 * cmath.exp(2j * math.pi * k / 12) for k in range(12)))
    gram_matrix(szego(128), pts, 1e-10)
    assert calls == [129] * 12


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
    [(residual, cert)] = adjoint_residual_grid(seq, PointSet((0.0,)), 48)
    assert residual == 0.0
    assert cert == 0.0


def test_adjoint_residual_szego():
    [(residual, cert)] = adjoint_residual_grid(szego(256), PointSet((0.5,)), 256)
    assert residual < 1e-10
    assert residual <= cert


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
            assert residual <= cert


def test_adjoint_residual_below_certificate_on_padded_grid():
    # the grid test above at horizon N + 64, where every certificate is finite
    pts = PointSet(
        tuple(
            r * np.exp(2j * np.pi * k / 5)
            for r in (0.1, 0.3, 0.5, 0.7, 0.9)
            for k in range(5)
        )
    )
    for fam in (("1", "0"), ("sqrt(n+1)", "0"), ("1", "1/(n+1)")):
        seq = make_pair(fam[0], fam[1], 512 + 64)
        for residual, cert in adjoint_residual_grid(seq, pts, 512):
            assert math.isfinite(cert)
            assert residual <= cert


def cross_term(seq4, w, N):
    """Exact ||P_N M* (I - P_N) kappa_w|| / ||P_N kappa_w||, from the shift's
    discarded block and the kernel coefficients out to the horizon of seq4."""
    H4 = seq4.horizon
    block = build_shift(seq4, H4).entries[N:, :N]
    kappa = np.conj(reference_basis_values(seq4, w, H4))
    return np.linalg.norm(block.conj().T @ kappa[N:]) / np.linalg.norm(kappa[:N])


def test_adjoint_certificate_bounds_exact_cross_term():
    N, H = 128, 160
    pts = PointSet(
        (0.98, -0.98, 0.98j, 0.98 * cmath.exp(2j), 0.5 + 0.5j, -0.9j, 0.3, 0.0)
    )
    rng = np.random.default_rng(97)
    # unimodular a and |b| <= 0.005: the coefficient ratios stay below
    # 1 / 0.98, so the certificate is finite at |w| = 0.98
    a = np.exp(2j * np.pi * rng.uniform(size=4 * H + 1))
    b = 0.005 * rng.uniform(size=4 * H + 1) * np.exp(2j * np.pi * rng.uniform(size=4 * H + 1))
    families = [make_pair("sqrt(n+1)", "0.5", 4 * H)]
    families += [
        family_pair(f, 4 * H)
        for f in CORPUS
        if f.name in ("bergman", "harmonic-b", "high-const-b")
    ]
    families.append(SequencePair(a, b))
    cases = [(seq4, pts) for seq4 in families]
    # b_n = 0.9 e^{in}: the discarded block spreads over many columns, and
    # its largest column alone would not bound the cross term at these points
    n = np.arange(4 * H + 1)
    rotating = SequencePair(np.ones(4 * H + 1), 0.9 * np.exp(1j * n))
    cases.append((rotating, PointSet((0.5 * cmath.exp(1j * math.pi / 6), 0.3j))))
    for seq4, points in cases:
        grid = adjoint_residual_grid(seq4.trimmed(H), points, N)
        for w, (_, cert) in zip(points, grid):
            assert math.isfinite(cert)
            assert cross_term(seq4, w, N) <= cert


def test_adjoint_certificate_infinite_without_tail_bound():
    pts = PointSet((0.0, 0.3, 0.9j, -0.98))
    # horizon == N: no rows past the window
    for seq in (make_pair("sqrt(n+1)", "0.5", 64), family_pair(CORPUS[4], 64)):
        assert all(cert == math.inf for _, cert in adjoint_residual_grid(seq, pts, 64))
    # r_hat >= 1: padding, but no geometric closure
    seq = make_pair("1", "1.2", 96)
    assert build_shift(seq, 64).tail_bound is None
    assert all(cert == math.inf for _, cert in adjoint_residual_grid(seq, pts, 64))


def test_adjoint_residual_below_certificate_strictly():
    # the kernel command's residual rows at order 256 with its default pad of
    # 64, on grids 0.5:8 and 0.98:32, for the corpus and the benchmark family:
    # 840 rows, compared with no slack.  At |w| = 0.5 the residual is rounding
    # noise far above the truncation term, so this needs the rounding term
    N = 256
    seqs = [family_pair(fam, N + 64) for fam in CORPUS]
    seqs.append(make_pair("sqrt(n+1)", "0.5", N + 64))
    rows = finite = 0
    for radius, count in ((0.5, 8), (0.98, 32)):
        pts = PointSet(
            tuple(radius * cmath.exp(2j * math.pi * j / count) for j in range(count))
        )
        for seq in seqs:
            for residual, cert in adjoint_residual_grid(seq, pts, N):
                rows += 1
                finite += math.isfinite(cert)
                assert residual <= cert
    assert rows == 840
    assert finite >= 488
    assert adjoint_residual_grid(seqs[-1], PointSet(()), N) == []


def test_adjoint_residual_uses_consistent_operator():
    # the one-point residual is the grid's, bit for bit
    seq = make_pair("1", "1/(n+1)", 128)
    one = adjoint_residual_grid(seq, PointSet((0.4,)), 128)[0]
    grid = adjoint_residual_grid(seq, PointSet((0.4, 0.3j, -0.7)), 128)
    assert np.array(one).tobytes() == np.array(grid[0]).tobytes()


def test_adjoint_residual_recurrence_matches_dense_adjoint():
    # the backward recurrence against the dense adjoint section, at orders
    # whose last 64-row chunk is full, ragged, and one row long; each
    # point's row is bit for bit its one-point grid
    pts = PointSet((0.0, 0.98, 0.98 * cmath.exp(2j), -0.98j, 0.5 + 0.5j, -0.3))
    for N in (64, 200, 257):
        H = N + 64
        n = np.arange(H + 1)
        rotating = SequencePair(np.ones(H + 1), 0.9 * np.exp(1j * n))
        for seq in (make_pair("sqrt(n+1)", "0.5", H), complex_baseline_pair(2024, H), rotating):
            A = build_adjoint(seq, N).entries
            coeffs = np.array([re - 1j * im for re, im in (_basis_parts(seq, w, H + 1) for w in pts)])
            _, spread_sq = kernels._residual_sums(seq, coeffs, np.abs(coeffs), list(pts), N)
            grid = adjoint_residual_grid(seq, pts, N)
            for k, (w, (residual, cert)) in enumerate(zip(pts, grid)):
                one = adjoint_residual_grid(seq, PointSet((w,)), N)
                assert np.array(one).tobytes() == np.array([(residual, cert)]).tobytes()
                kappa = coeffs[k, :N]
                norm = np.linalg.norm(kappa)
                dense = np.linalg.norm(A @ kappa - np.conj(w) * kappa) / norm
                assert abs(residual - dense) <= 1e-15, (N, k)
                spread = np.linalg.norm(np.abs(A) @ np.abs(kappa))
                assert math.sqrt(spread_sq[k]) >= spread * (1.0 - 1e-12), (N, k)
                if math.isfinite(cert):
                    assert dense <= cert, (N, k)


def test_adjoint_residual_grid_forms_no_section(monkeypatch):
    # neither the shift nor the adjoint section is built: the tails come from
    # the row recurrence writing no row, and the grid holds O(N points)
    def refuse(*args):
        raise AssertionError("a dense section was built")

    pts = PointSet(tuple(0.98 * cmath.exp(2j * math.pi * j / 32) for j in range(32)))
    with monkeypatch.context() as patch:
        patch.setattr(operators, "_fill_shift", refuse)
        N = 1024
        grid = adjoint_residual_grid(make_pair("sqrt(n+1)", "0.5", N + 64), pts, N)
    assert all(math.isfinite(cert) for _, cert in grid)
    N = 4096
    seq = make_pair("sqrt(n+1)", "0.5", N + 64)
    tracemalloc.start()
    try:
        adjoint_residual_grid(seq, pts, N)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < N * N, peak  # the real adjoint section alone is 8 N^2 bytes
