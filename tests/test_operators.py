import tracemalloc

import numpy as np
import pytest

from trishift import (
    CoefficientSpec,
    HorizonError,
    SequencePair,
    TruncatedOperator,
    build_adjoint,
    build_blocks,
    build_left_inverse,
    build_shift,
    build_tail_blocks,
    c_coefficients,
    compact_isometry_split,
    d_coefficients,
    defect_matrix,
    dense_json,
    materialize,
    monomial_in_basis,
    neumann_partial_sum,
    parse_sequence_expr,
    polar_decompose,
    sparse_triplets,
)

from corpus_families import CORPUS, family_pair


def make_pair(a_text, b_text, N):
    spec = CoefficientSpec(parse_sequence_expr(a_text), parse_sequence_expr(b_text))
    return materialize(spec, N)


def random_pair(rng, N, b_scale=0.2):
    # |b_n| <= b_scale * sqrt(2) and |a_n| >= 0.5 keep |b_n/a_{n+1}| < 1
    mags = rng.uniform(0.5, 2.0, N + 1)
    phases = np.exp(2j * np.pi * rng.uniform(0.0, 1.0, N + 1))
    a = mags * phases
    b = b_scale * (rng.uniform(-1, 1, N + 1) + 1j * rng.uniform(-1, 1, N + 1))
    return SequencePair(a=a, b=b, horizon=N)


# ---------------------------------------------------------------- monomials


def test_monomial_diagonal_family():
    seq = make_pair("sqrt(n+1)", "0", 10)
    coef = monomial_in_basis(seq, 3, 5)
    assert coef[0] == 1.0 / seq.a[3]
    assert np.max(np.abs(coef[1:])) == 0.0


def test_monomial_constant_half():
    seq = make_pair("1", "0.5", 10)
    coef = monomial_in_basis(seq, 0, 3)
    assert np.array_equal(coef.real, [1.0, -0.5, 0.25, -0.125])


def test_monomial_geometric():
    seq = make_pair("2^n", "1", 10)
    coef = monomial_in_basis(seq, 0, 2)
    assert np.allclose(coef, [1.0, -0.5, 0.125], rtol=0, atol=0)


def test_monomial_exact_telescoping_remainder():
    # sum_m coef_m f_{n+m}(z) telescopes to z^n plus one explicit remainder
    rng = np.random.default_rng(5)
    for _ in range(10):
        seq = random_pair(rng, 24)
        n = int(rng.integers(0, 6))
        M = int(rng.integers(2, 18))
        coef = monomial_in_basis(seq, n, M)
        z = 0.4 * np.exp(2j * np.pi * rng.uniform())
        ks = n + np.arange(M + 1)
        basis = (seq.a[ks] + seq.b[ks] * z) * z**ks
        total = np.sum(coef * basis)
        remainder = coef[M] * seq.b[n + M] * z ** (n + M + 1)
        assert abs(total - (z**n + remainder)) < 1e-13


def test_monomial_horizon_overflow():
    seq = make_pair("1", "0", 6)
    with pytest.raises(HorizonError):
        monomial_in_basis(seq, 3, 4)


def test_monomial_inverse_recovers_basis_vector():
    # a_n z^n + b_n z^{n+1} maps back to the n-th standard basis vector
    rng = np.random.default_rng(17)
    seq = random_pair(rng, 30)
    for n in (0, 3, 7):
        M = 18
        mono_n = monomial_in_basis(seq, n, M + 1)
        mono_n1 = monomial_in_basis(seq, n + 1, M)
        vec = seq.a[n] * mono_n[: M + 1]
        vec[1:] += seq.b[n] * mono_n1[:M]
        expect = np.zeros(M + 1, dtype=complex)
        expect[0] = 1.0  # position n within the shifted window
        assert np.max(np.abs(vec - expect)) < 1e-12


# -------------------------------------------------------------- shift section


def test_shift_constant_b_is_unilateral():
    seq = make_pair("1", "0.5", 20)
    M = build_shift(seq, 12).entries
    expect = np.zeros((12, 12), dtype=complex)
    expect[np.arange(1, 12), np.arange(11)] = 1.0
    assert np.array_equal(M, expect)


def test_shift_diagonal_family_is_weighted():
    seq = make_pair("sqrt(n+1)", "0", 20)
    M = build_shift(seq, 10).entries
    weights = seq.a[:9] / seq.a[1:10]
    assert np.array_equal(np.diag(M, -1), weights)
    M2 = M.copy()
    M2[np.arange(1, 10), np.arange(9)] = 0
    assert np.max(np.abs(M2)) == 0.0


def test_shift_harmonic_entries():
    seq = make_pair("1", "1/(n+1)", 8)
    M = build_shift(seq, 4).entries
    assert M[2, 0] == 0.5
    assert abs(M[3, 0] - (-1.0 / 6.0)) < 1e-15


def test_shift_requires_horizon():
    seq = make_pair("1", "0", 6)
    with pytest.raises(HorizonError):
        build_shift(seq, 7)


def test_shift_tail_bounds_diagonal_family():
    seq = make_pair("sqrt(n+1)", "0", 24)
    op = build_shift(seq, 12)
    assert op.tail_bound is not None
    assert np.max(op.tail_bound[:-1]) == 0.0
    assert op.tail_bound[-1] == abs(seq.a[11] / seq.a[12])


def test_shift_tail_bounds_unavailable():
    # r_hat >= 1: refuse to guess
    seq = make_pair("1", "1.2", 24)
    assert build_shift(seq, 12).tail_bound is None
    # no evaluation margin beyond the section
    seq2 = make_pair("1", "0.5", 12)
    assert build_shift(seq2, 12).tail_bound is None


def test_shift_tail_bounds_dominate_measured_mass():
    seq = make_pair("1", "1/(n+2)", 64)
    N = 24
    op = build_shift(seq, N)
    big = build_shift(seq, 60).entries
    assert op.tail_bound is not None
    for n in range(N):
        cut = np.linalg.norm(big[N:60, n])
        assert op.tail_bound[n] >= cut - 1e-15


# ------------------------------------------------------------ adjoint section


def test_adjoint_equals_conjugate_transpose_exactly():
    rng = np.random.default_rng(11)
    for _ in range(8):
        seq = random_pair(rng, 24)
        M = build_shift(seq, 16)
        A = build_adjoint(seq, 16)
        assert np.array_equal(A.entries, M.entries.conj().T)


def test_adjoint_constant_b():
    seq = make_pair("1", "0.5", 16)
    A = build_adjoint(seq, 10).entries
    expect = np.zeros((10, 10), dtype=complex)
    expect[np.arange(9), np.arange(1, 10)] = 1.0
    assert np.array_equal(A, expect)


def test_adjoint_conjugates_complex_ratios():
    spec = CoefficientSpec([1j, 1.0, 1.0], [0.0, 0.0, 0.0])
    seq = materialize(spec, 2)
    A = build_adjoint(seq, 2).entries
    assert A[0, 1] == -1j


def test_adjoint_columns_are_complete():
    seq = make_pair("1", "1/(n+1)", 16)
    op = build_adjoint(seq, 8)
    assert op.tail_bound is not None
    assert np.max(op.tail_bound) == 0.0


# ------------------------------------------------------- left-inverse section


def test_left_inverse_constant_b_is_backward_shift():
    seq = make_pair("1", "0.25", 16)
    L = build_left_inverse(seq, 10).entries
    expect = np.zeros((10, 10), dtype=complex)
    expect[np.arange(9), np.arange(1, 10)] = 1.0
    assert np.array_equal(L, expect)


def test_left_inverse_diagonal_family():
    seq = make_pair("sqrt(n+1)", "0", 16)
    L = build_left_inverse(seq, 10).entries
    assert np.array_equal(np.diag(L, 1), seq.a[1:10] / seq.a[:9])
    L2 = L.copy()
    L2[np.arange(9), np.arange(1, 10)] = 0
    assert np.max(np.abs(L2)) == 0.0


def test_left_inverse_harmonic_entries():
    seq = make_pair("1", "1/(n+1)", 8)
    L = build_left_inverse(seq, 4).entries
    assert L[1, 1] == -0.5
    assert L[2, 1] == 0.25
    assert np.max(np.abs(L[:, 0])) == 0.0


def test_left_inverse_times_shift_is_identity_on_window():
    rng = np.random.default_rng(23)
    for _ in range(6):
        seq = random_pair(rng, 40)
        N = 32
        L = build_left_inverse(seq, N).entries
        M = build_shift(seq, N).entries
        prod = (L @ M)[: N - 1, : N - 1]
        assert np.max(np.abs(prod - np.eye(N - 1))) < 1e-12


def test_shift_times_left_inverse_is_rank_one_defect():
    rng = np.random.default_rng(29)
    for _ in range(6):
        seq = random_pair(rng, 40)
        N = 32
        L = build_left_inverse(seq, N).entries
        M = build_shift(seq, N).entries
        defect = np.eye(N) - M @ L
        expect = np.zeros((N, N), dtype=complex)
        expect[0, 0] = 1.0
        assert np.max(np.abs((defect - expect)[: N - 1, : N - 1])) < 1e-12


# -------------------------------------------------------------------- blocks


def test_blocks_b1_zero_for_unimodular_a():
    seq = make_pair("1", "1/(n+1)", 16)
    bl = build_blocks(seq, 12)
    assert np.max(np.abs(bl.b1.entries)) == 0.0


def test_blocks_b2_b3_zero_for_constant_b():
    seq = make_pair("1", "0.5", 16)
    bl = build_blocks(seq, 12)
    assert np.max(np.abs(bl.b2.entries)) == 0.0
    assert np.max(np.abs(bl.b3.entries)) == 0.0


def test_blocks_b2_diagonal_alternating():
    seq = make_pair("1", "0.5*(-1)^n", 20)
    bl = build_blocks(seq, 12)
    c = c_coefficients(seq)
    diag = np.diag(bl.b2.entries)
    assert np.array_equal(diag, -c[1:12])
    assert np.all(np.abs(diag) == 1.0)


def test_block_reconstruction_matches_compressed_difference():
    rng = np.random.default_rng(31)
    for pad in (0, 8):
        seq = random_pair(rng, 32 + pad)
        N = 32
        L = build_left_inverse(seq, N).entries
        A = build_adjoint(seq, N).entries
        target = (L - A)[1:, 1:]
        bl = build_blocks(seq, N)
        ustar = bl.u.entries.conj().T
        recon = (
            bl.b1.entries @ ustar
            + bl.b2.entries.conj().T @ (ustar @ ustar)
            + bl.b3.entries
        )
        w = N - 3
        assert np.max(np.abs((target - recon)[:w, :w])) < 1e-12


def test_blocks_offsets_and_structure():
    seq = make_pair("sqrt(n+1)", "1/(n+1)", 24)
    bl = build_blocks(seq, 12)
    for op in (bl.b1, bl.b2, bl.b3, bl.u):
        assert op.basis_offset == 1
        assert op.order == 11
    assert np.max(np.abs(np.triu(bl.b2.entries, 1))) == 0.0
    assert np.max(np.abs(np.triu(bl.b3.entries, 1))) == 0.0
    assert np.max(np.abs(bl.b1.entries - np.diag(np.diag(bl.b1.entries)))) == 0.0


# --------------------------------------------------------------- tail blocks


def test_tail_blocks_zero_coupling():
    seq = make_pair("1", "0.5", 20)
    W, D, A2 = build_tail_blocks(seq, 2, 16)
    assert np.max(np.abs(D.entries)) == 0.0
    assert np.max(np.abs(A2.entries)) == 0.0
    assert W.order == 12 and W.basis_offset == 2


def test_tail_blocks_harmonic_family():
    seq = make_pair("1", "1/(n+1)", 24)
    W, D, A2 = build_tail_blocks(seq, 1, 16)
    K = W.order
    weights = np.diag(W.entries, -1)
    m = np.arange(K - 1)
    assert np.allclose(weights, 1.0 / (m + 4.0), rtol=1e-15, atol=0)
    q = np.arange(K)
    assert np.allclose(np.diag(D.entries), -1.0 / ((q + 2.0) * (q + 3.0)), rtol=1e-14, atol=0)
    c = c_coefficients(seq)
    assert abs(A2.entries[1, 0] - c[1] * seq.b[3] / seq.a[4]) < 1e-16


def test_tail_blocks_match_partial_sum_limit():
    rng = np.random.default_rng(37)
    for _ in range(5):
        seq = random_pair(rng, 28)
        W, D, A2 = build_tail_blocks(seq, 1, 20)
        S = neumann_partial_sum(W, D, W.order + 1)
        assert np.max(np.abs(S.entries - A2.entries)) < 1e-14


def test_weighted_shift_powers_decay_geometrically():
    seq = make_pair("1", "1/(n+1)", 40)
    W, _, _ = build_tail_blocks(seq, 1, 32)
    r = np.max(np.abs(np.diag(W.entries, -1)))
    power = W.entries.copy()
    for m in range(2, 7):
        power = power @ W.entries
        assert np.linalg.norm(power, 2) <= r**m + 1e-12


def test_neumann_partial_sum_base_cases():
    seq = make_pair("1", "1/(n+1)", 20)
    W, D, _ = build_tail_blocks(seq, 1, 14)
    S0 = neumann_partial_sum(W, D, 0)
    assert np.array_equal(S0.entries, D.entries)
    zero = TruncatedOperator(np.zeros_like(D.entries), D.order, D.basis_offset)
    for m in (0, 3, 9):
        assert np.max(np.abs(neumann_partial_sum(W, zero, m).entries)) == 0.0


def test_tail_blocks_preconditions():
    seq = make_pair("1", "0", 12)
    with pytest.raises(ValueError):
        build_tail_blocks(seq, 10, 12)
    with pytest.raises(ValueError):
        build_tail_blocks(seq, -1, 12)


# ------------------------------------------------------------------- exports


def test_sparse_triplets_roundtrip():
    seq = make_pair("1", "1/(n+1)", 10)
    op = build_shift(seq, 6)
    dense = np.zeros((6, 6), dtype=complex)
    for row, col, re_, im_ in sparse_triplets(op):
        dense[row, col] = re_ + 1j * im_
    assert np.array_equal(dense, op.entries)


def test_dense_json_schema():
    seq = make_pair("1", "0.5", 10)
    op = build_shift(seq, 4)
    doc = dense_json(op)
    assert doc["n"] == 4
    assert doc["offset"] == 0
    assert len(doc["entries"]) == 16
    assert doc["entries"][4] == [1.0, 0.0]  # row 1, col 0


def test_truncated_operator_validation():
    with pytest.raises(ValueError):
        TruncatedOperator(np.zeros((3, 4), dtype=complex), 4)
    with pytest.raises(ValueError):
        TruncatedOperator(np.zeros((4, 4), dtype=complex), 4, tail_bound=np.ones(3))
    with pytest.raises(ValueError):
        TruncatedOperator(np.zeros((4, 4), dtype=complex), 4, tail_bound=-np.ones(4))
    with pytest.raises(ValueError):
        TruncatedOperator(np.zeros((4, 4), dtype=complex), 4, exact_window=5)
    op = TruncatedOperator(np.zeros((6, 4), dtype=complex), 4)
    assert op.rows == 6 and op.exact_window == 4


def test_sections_are_frozen():
    seq = make_pair("1", "0", 8)
    op = build_shift(seq, 4)
    with pytest.raises(ValueError):
        op.entries[0, 0] = 1.0


def test_section_takes_ownership_of_its_array():
    A = np.arange(12, dtype=complex).reshape(4, 3)
    tail = np.ones(3)
    op = TruncatedOperator(A, 3, tail_bound=tail)
    assert op.entries is A and op.tail_bound is tail
    assert not A.flags.writeable and not tail.flags.writeable
    with pytest.raises(ValueError):
        A[0, 0] = 1.0
    # another dtype is converted into a new array; the original is untouched
    R = np.eye(3)
    assert TruncatedOperator(R, 3).entries is not R
    assert R.flags.writeable


def _every_section(seq, N):
    blocks = build_blocks(seq, N)
    W, D, A2 = build_tail_blocks(seq, 1, N)
    tall = build_shift(seq, seq.horizon).entries[:, :N]
    V, P = polar_decompose(TruncatedOperator(tall, N))
    split = compact_isometry_split(seq, N)
    return {
        "shift": build_shift(seq, N),
        "adjoint": build_adjoint(seq, N),
        "left": build_left_inverse(seq, N),
        "b1": blocks.b1,
        "b2": blocks.b2,
        "b3": blocks.b3,
        "u": blocks.u,
        "W": W,
        "D": D,
        "A2": A2,
        "neumann": neumann_partial_sum(W, D, 3),
        "V": V,
        "P": P,
        "isometry": split.isometry_factor,
        "compact": split.compact_part,
        "defect": defect_matrix(seq, N),
    }


def test_every_section_and_tail_bound_rejects_writes():
    N = 24
    rng = np.random.default_rng(7)
    for seq in (make_pair("sqrt(n+1)", "0.5", 40), random_pair(rng, 40)):
        sections = _every_section(seq, N)
        for name in ("shift", "adjoint", "left", "u"):
            assert sections[name].tail_bound is not None, name
        for name, op in sections.items():
            assert not op.entries.flags.writeable, name
            with pytest.raises(ValueError):
                op.entries[0, 0] = 1.0
            if op.tail_bound is not None:
                assert not op.tail_bound.flags.writeable, name
                with pytest.raises(ValueError):
                    op.tail_bound[0] = 1.0


def _peak_traced_bytes(build, *args):
    tracemalloc.start()
    try:
        build(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_builders_hold_one_dense_array_per_section():
    # measured in K x K complex sections; a copy in the constructor would
    # add one per section
    N = 512
    seq = make_pair("sqrt(n+1)", "0.5", N + 64)
    for build in (build_shift, build_left_inverse, build_adjoint):
        units = _peak_traced_bytes(build, seq, N) / (16 * N * N)
        assert units <= 1.1, (build.__name__, units)
    K = N - 1
    units = _peak_traced_bytes(build_blocks, seq, N) / (16 * K * K)
    assert units <= 4.1, units


def test_corpus_members_build_cleanly():
    for fam in CORPUS:
        seq = family_pair(fam, 40)
        M = build_shift(seq, 32)
        A = build_adjoint(seq, 32)
        assert np.array_equal(A.entries, M.entries.conj().T)


def test_shift_columns_factor_through_monomial_expansion():
    # column n below the subdiagonal equals c_n a_{n+2} times the expansion
    # of the (n+2)-nd monomial; ties the two construction routes together
    rng = np.random.default_rng(83)
    seq = random_pair(rng, 40)
    N = 24
    M = build_shift(seq, N).entries
    c = c_coefficients(seq)
    for n in range(N - 2):
        mono = monomial_in_basis(seq, n + 2, N - n - 3)
        expect = c[n] * seq.a[n + 2] * mono
        assert np.max(np.abs(M[n + 2 :, n] - expect)) < 1e-13


def test_left_inverse_columns_factor_through_monomial_expansion():
    # column n from the diagonal down equals d_n a_n times the expansion
    # of the n-th monomial
    rng = np.random.default_rng(89)
    seq = random_pair(rng, 40)
    N = 24
    L = build_left_inverse(seq, N).entries
    d = d_coefficients(seq)
    for n in range(1, N):
        mono = monomial_in_basis(seq, n, N - n - 1)
        expect = d[n - 1] * seq.a[n] * mono
        assert np.max(np.abs(L[n:, n] - expect)) < 1e-13


# ------------------------------------------- one pass per column, to horizon


def _log_tail_norm(seq, starts, first, cut):
    # log of the l2 norm of rows cut..H of the columns
    # start_j * prod_{k=f}^{i-1} (-b_k / a_{k+1}), f = first + j, summed in
    # the log domain without forming any running product
    log_r = np.log(np.abs(seq.b[:-1] / seq.a[1:]))
    lam = np.concatenate(([0.0], np.cumsum(log_r)))  # lam[i] = sum_{k<i}
    out = np.empty(len(starts))
    for j, start in enumerate(starts):
        f = first + j
        rows = np.arange(max(cut, f), seq.horizon + 1)
        log_e = np.log(abs(start)) + lam[rows] - lam[f]
        out[j] = np.logaddexp.reduce(2.0 * log_e) / 2.0
    return out


def test_tail_bounds_survive_underflowing_squares():
    # the discarded entries are normal doubles whose squares are not
    a_text, b_text = "1", "0.001*(2+(-1)^n)"
    N, H = 128, 144
    seq = make_pair(a_text, b_text, H)
    long = make_pair(a_text, b_text, 4 * H)  # the remainder past H, too
    c, d = c_coefficients(long), d_coefficients(long)
    log_ref = {
        "shift": _log_tail_norm(long, c[:N], 2, N),
        "left": np.concatenate(([-np.inf], _log_tail_norm(long, d[: N - 1], 1, N))),
    }
    # the last shift column also loses its subdiagonal entry a_{N-1}/a_N
    log_sub = np.log(abs(long.a[N - 1] / long.a[N]))
    log_ref["shift"][N - 1] = np.logaddexp(2.0 * log_ref["shift"][N - 1], 2.0 * log_sub) / 2.0
    bounds = {
        "shift": build_shift(seq, N).tail_bound,
        "left": build_left_inverse(seq, N).tail_bound,
    }
    tiny = np.finfo(float).tiny
    for name, log_norm in log_ref.items():
        resolved = np.flatnonzero(log_norm >= np.log(tiny))
        assert resolved.size > 100
        ref = np.exp(log_norm[resolved])
        short = resolved[bounds[name][resolved] < ref * (1.0 - 1e-9)]
        assert short.size == 0, (name, short)


def test_sections_are_leading_windows_of_the_horizon_section():
    rng = np.random.default_rng(97)
    H = 64
    for _ in range(30):
        seq = random_pair(rng, H)
        for build in (build_shift, build_left_inverse):
            full = build(seq, H).entries
            for N in (8, 23, 47):
                assert np.array_equal(build(seq, N).entries, full[:N, :N])


def _seed_deep_column(start, first_b, depth, seq):
    # the seed's per-column construction, kept as a reference
    vals = np.empty(depth, dtype=complex)
    vals[0] = start
    if depth > 1:
        ratios = -(
            seq.b[first_b : first_b + depth - 1] / seq.a[first_b + 1 : first_b + depth]
        )
        vals[1:] = start * np.cumprod(ratios)
    return vals


def _seed_sections(seq, N):
    a, c, d = seq.a, c_coefficients(seq), d_coefficients(seq)
    M = np.zeros((N, N), dtype=complex)
    M[np.arange(1, N), np.arange(N - 1)] = a[: N - 1] / a[1:N]
    for n in range(N - 2):
        M[n + 2 :, n] = _seed_deep_column(c[n], n + 2, N - n - 2, seq)
    L = np.zeros((N, N), dtype=complex)
    L[np.arange(N - 1), np.arange(1, N)] = a[1:N] / a[: N - 1]
    for j in range(1, N):
        L[j:, j] = _seed_deep_column(d[j - 1], j, N - j, seq)
    K = N - 1
    cap = min(K - 1, seq.horizon - 3)
    Z2 = np.zeros((K, K), dtype=complex)
    for q in range(cap + 1):
        Z2[q : cap + 1, q] = _seed_deep_column(-c[q + 1], q + 3, cap - q + 1, seq)
    Z3 = np.zeros((K, K), dtype=complex)
    for q in range(K):
        Z3[q:, q] = _seed_deep_column(d[q], q + 1, K - q, seq)
    K2 = N - 3  # tail blocks at n0 = 1
    A2 = np.zeros((K2, K2), dtype=complex)
    for q in range(K2):
        A2[q:, q] = _seed_deep_column(-c[1 + q], q + 3, K2 - q, seq)
    return {"shift": M, "adjoint": M.conj().T, "left": L, "b2": Z2, "b3": Z3, "A2": A2}


def _sections(seq, N):
    blocks = build_blocks(seq, N)
    return {
        "shift": build_shift(seq, N).entries,
        "adjoint": build_adjoint(seq, N).entries,
        "left": build_left_inverse(seq, N).entries,
        "b2": blocks.b2.entries,
        "b3": blocks.b3.entries,
        "A2": build_tail_blocks(seq, 1, N)[2].entries,
    }


@pytest.mark.parametrize("pad", [0, 1, 8])
def test_sections_match_seed_column_construction(pad):
    N = 32
    for fam in CORPUS:
        seq = family_pair(fam, N + pad)
        got, ref = _sections(seq, N), _seed_sections(seq, N)
        for name in ref:
            assert np.array_equal(got[name], ref[name]), (fam.name, name)
    rng = np.random.default_rng(101)
    for _ in range(10):
        seq = random_pair(rng, N + pad)
        got, ref = _sections(seq, N), _seed_sections(seq, N)
        for name in ref:
            scale = np.max(np.abs(ref[name]))
            assert np.max(np.abs(got[name] - ref[name])) <= 1e-15 * scale, name
