import copy
import gc
import math
import mmap
import os
import pickle
import subprocess
import sys
import tracemalloc
from pathlib import Path

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
    materialize,
    monomial_in_basis,
    neumann_partial_sum,
    polar_decompose,
    validate_assumptions,
)
from trishift import operators
from trishift.operators import _shift_tails

from corpus_families import CORPUS, complex_baseline_pair, family_pair, make_pair, random_pair


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


def test_adjoint_of_narrow_and_dense_bands_is_the_conjugate_transposed_shift():
    # a narrow band (|b/a| = 2^-100, dead in 11 rows) takes the mapping and
    # a dense band numpy's array; both are written through the transpose,
    # and a complex band is conjugated row by row up to its last entry:
    # each is the shift's conjugate transpose, in a real and a complex
    # family whose rows span 16 KB
    rng = np.random.default_rng(41)
    for dtype, N in ((np.float64, 2048), (np.complex128, 1024)):
        phases = np.ones((2, N + 65), dtype)
        if dtype is np.complex128:
            phases = np.exp(2j * np.pi * rng.uniform(0.0, 1.0, (2, N + 65)))
        a = np.sqrt(np.arange(N + 65) + 1.0) * phases[0]
        for b, base in ((2.0**-100, mmap.mmap), (0.9, type(None))):
            seq = SequencePair(a=a, b=b * np.abs(a) * phases[1])
            A = build_adjoint(seq, N).entries
            assert type(A.base) is base and A.dtype == dtype, (b, dtype)
            assert np.array_equal(A, build_shift(seq, N).entries.conj().T), (b, dtype)


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
        assert op.order == 11
    assert np.max(np.abs(np.triu(bl.b2.entries, 1))) == 0.0
    assert np.max(np.abs(np.triu(bl.b3.entries, 1))) == 0.0
    assert np.max(np.abs(bl.b1.entries - np.diag(np.diag(bl.b1.entries)))) == 0.0


def test_blocks_b1_and_u_are_their_dense_matrices_bit_for_bit():
    # b1 and u live in mappings of their own; they must read, freeze, outlive
    # their BlockSet and copy like any other section's array
    for N in (12, 512):
        K = N - 1
        for seq in (make_pair("sqrt(n+1)", "0.5", N + 64),
                    complex_baseline_pair(2024, N + 64)):
            a = seq.a
            diag = a[2 : K + 2] / a[1 : K + 1] - np.conj(a[1 : K + 1] / a[2 : K + 2])
            U = np.zeros((K, K), a.dtype)
            U[np.arange(1, K), np.arange(K - 1)] = 1.0
            expected = {"b1": np.diag(diag), "u": U}
            bl = build_blocks(seq, N)
            for name, dense in expected.items():
                entries = getattr(bl, name).entries
                assert type(entries) is np.ndarray, (name, N)
                assert entries.dtype == dense.dtype, (name, N)
                assert not entries.flags.writeable, (name, N)
                assert entries.tobytes() == dense.tobytes(), (name, N, a.dtype)
            for clone in (pickle.loads(pickle.dumps(bl)), copy.deepcopy(bl)):
                for name in ("b1", "b2", "b3", "u"):
                    op, twin = getattr(bl, name), getattr(clone, name)
                    assert np.array_equal(op.entries, twin.entries), name
                    assert np.array_equal(op.tail_bound, twin.tail_bound), name
            view = bl.b1.entries[:, :]
            del bl, clone
            gc.collect()
            assert view.tobytes() == expected["b1"].tobytes(), (N, a.dtype)


def test_unbounded_sections_measure_no_assumptions(monkeypatch):
    # the blocks and the adjoint keep no tail bound, so they never need
    # r_hat; the bounded sections measure it once each
    calls = []
    monkeypatch.setattr(
        operators, "validate_assumptions",
        lambda seq, *args: calls.append(seq) or validate_assumptions(seq, *args),
    )
    seq = make_pair("sqrt(n+1)", "1/(n+1)", 40)
    build_blocks(seq, 24)
    build_tail_blocks(seq, 2, 24)
    build_adjoint(seq, 24)
    assert calls == []
    assert build_shift(seq, 24).tail_bound is not None
    assert build_left_inverse(seq, 24).tail_bound is not None
    assert len(calls) == 2


# --------------------------------------------------------------- tail blocks


def test_tail_blocks_zero_coupling():
    seq = make_pair("1", "0.5", 20)
    W, D, A2 = build_tail_blocks(seq, 2, 16)
    assert np.max(np.abs(D.entries)) == 0.0
    assert np.max(np.abs(A2.entries)) == 0.0
    assert W.order == 12


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
    zero = TruncatedOperator(np.zeros_like(D.entries))
    for m in (0, 3, 9):
        assert np.max(np.abs(neumann_partial_sum(W, zero, m).entries)) == 0.0


def test_neumann_partial_sum_requires_a_weighted_shift():
    seq = make_pair("1", "1/(n+1)", 20)
    W, D, _ = build_tail_blocks(seq, 1, 14)
    for q, r in ((0, 0), (2, 0), (5, 7)):
        entries = W.entries.copy()
        entries[r, q] = 0.5
        other = TruncatedOperator(entries)
        with pytest.raises(ValueError):
            neumann_partial_sum(other, D, 2)


def test_tail_blocks_preconditions():
    seq = make_pair("1", "0", 12)
    with pytest.raises(ValueError):
        build_tail_blocks(seq, 10, 12)
    with pytest.raises(ValueError):
        build_tail_blocks(seq, -1, 12)


# ----------------------------------------------------------- sections and memory


def test_truncated_operator_validation():
    with pytest.raises(ValueError):
        TruncatedOperator(np.zeros((3, 4), dtype=complex))
    with pytest.raises(ValueError):
        TruncatedOperator(np.zeros((4, 4), dtype=complex), tail_bound=np.ones(3))
    with pytest.raises(ValueError):
        TruncatedOperator(np.zeros((4, 4), dtype=complex), tail_bound=-np.ones(4))
    op = TruncatedOperator(np.zeros((6, 4), dtype=complex))
    assert op.order == 4


def test_sections_are_frozen():
    seq = make_pair("1", "0", 8)
    op = build_shift(seq, 4)
    with pytest.raises(ValueError):
        op.entries[0, 0] = 1.0


def test_section_takes_ownership_of_its_array():
    A = np.arange(12, dtype=complex).reshape(4, 3)
    tail = np.ones(3)
    op = TruncatedOperator(A, tail_bound=tail)
    assert op.entries is A and op.tail_bound is tail
    assert not A.flags.writeable and not tail.flags.writeable
    with pytest.raises(ValueError):
        A[0, 0] = 1.0
    # a real section is kept in place too
    R = np.eye(3)
    assert TruncatedOperator(R).entries is R
    assert not R.flags.writeable
    # another dtype is converted into a new array; the original is untouched
    Z = np.eye(3, dtype=np.int64)
    op = TruncatedOperator(Z)
    assert op.entries is not Z and op.entries.dtype == np.complex128
    assert Z.flags.writeable


def _every_section(seq, N):
    blocks = build_blocks(seq, N)
    W, D, A2 = build_tail_blocks(seq, 1, N)
    tall = build_shift(seq, seq.horizon).entries[:, :N]
    V, P = polar_decompose(TruncatedOperator(tall))
    split = compact_isometry_split(seq, N)
    with pytest.raises(ValueError):
        split.column_decay[0] = 1.0
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
        "defect": defect_matrix(seq, N),
    }


def test_sections_take_the_dtype_of_their_pair():
    # real families are stored, built and multiplied as float64; a complex
    # entry in either list makes the whole pair complex128
    N = 24
    H = 40
    rng = np.random.default_rng(13)
    real_list = rng.uniform(0.5, 2.0, H + 1) + 0j
    complex_b = 0.2 * np.exp(2j * np.pi * rng.uniform(0.0, 1.0, H + 1))
    cases = (
        (make_pair("sqrt(n+1)", "0.5", H), np.float64),
        (materialize(CoefficientSpec(real_list, 0.5 * real_list), H), np.float64),
        (materialize(CoefficientSpec(real_list, complex_b), H), np.complex128),
        (random_pair(rng, H), np.complex128),
    )
    for seq, dtype in cases:
        assert seq.a.dtype == dtype and seq.b.dtype == dtype
        assert monomial_in_basis(seq, 2, 5).dtype == dtype
        for name, op in _every_section(seq, N).items():
            assert op.entries.dtype == dtype, (name, dtype)


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
    """Peak traced bytes while ``build(*args)`` runs, and its result."""
    tracemalloc.start()
    try:
        result = build(*args)
        return tracemalloc.get_traced_memory()[1], result
    finally:
        tracemalloc.stop()


def test_builders_hold_one_dense_array_per_section():
    # measured in K x K sections of the section's own itemsize (8 bytes for
    # a real family, 16 for a complex one); a copy in the constructor, or a
    # complex work array behind a real section, would add at least one per
    # section
    N = 512
    K = N - 1
    rng = np.random.default_rng(29)
    for seq in (make_pair("sqrt(n+1)", "0.5", N + 64), random_pair(rng, N + 64)):
        for build in (build_shift, build_left_inverse, build_adjoint):
            peak, op = _peak_traced_bytes(build, seq, N)
            units = peak / (op.entries.itemsize * N * N)
            assert units <= 1.1, (build.__name__, seq.a.dtype, units)
        # b2 and b3; tracemalloc does not see the mappings that hold b1 and
        # u, whose resident size the test below measures
        peak, blocks = _peak_traced_bytes(build_blocks, seq, N)
        units = peak / (blocks.b2.entries.itemsize * K * K)
        assert units <= 2.1, (seq.a.dtype, units)


# the growth of the child's own peak RSS in KiB over one builder, in
# sections of the result's order and the family's itemsize: VmHWM where
# /proc/self/status exists, since ru_maxrss starts at the peak of the process
# that spawned it
_BUILDER_RSS_CHILD = """
import resource, sys
import trishift
from corpus_families import complex_baseline_pair
from trishift import CoefficientSpec, materialize, parse_sequence_expr

def peak_kib():
    try:
        with open("/proc/self/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

N = int(sys.argv[1])
if sys.argv[2] == "real":
    spec = CoefficientSpec(parse_sequence_expr("sqrt(n+1)"), parse_sequence_expr("0.5"))
    seq = materialize(spec, N + 64)
else:
    seq = complex_baseline_pair(2024, N + 64)
build = getattr(trishift, sys.argv[3])
before = peak_kib()
result = build(seq, N)
after = peak_kib()
order = getattr(result, "b1", result).order
print((after - before) * 1024 / (seq.a.itemsize * order ** 2))
"""


def _builder_rss_units(build: str, kind: str, N: int) -> float:
    """The growth of a fresh child's peak RSS over ``build`` on the
    Baseline (``kind`` "real") or its seeded complex twin, in sections."""
    tests = Path(__file__).resolve().parent
    src = Path(operators.__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(src), str(tests), env.get("PYTHONPATH")])
    )
    done = subprocess.run(
        [sys.executable, "-c", _BUILDER_RSS_CHILD, str(N), kind, build],
        env=env, capture_output=True, text=True, check=True,
    )
    return float(done.stdout)


def _transparent_huge_pages() -> str:
    try:
        return Path("/sys/kernel/mm/transparent_hugepage/enabled").read_text()
    except OSError:
        return ""


@pytest.mark.skipif(sys.platform != "linux", reason="peak RSS is read in KiB on Linux only")
@pytest.mark.skipif("[always]" in _transparent_huge_pages(),
                    reason="every anonymous mapping gets huge pages")
def test_build_blocks_keeps_b1_and_u_resident_only_where_they_hold_entries():
    # in K x K sections: b1 and u touch one 4 KB page per row, a quarter of
    # a real section at N = 2048, an eighth of a complex one and of a real
    # one at 4096 (fully resident, they would add nearly two).  b2 and b3
    # sit in their mappings so that every diagonal entry is a page's last
    # slot, and each row's band of about 165 entries takes one page: 1.02,
    # 0.51 and 0.505 measured.  At the start of the mapping the diagonal
    # was a page's first slot, each row took two pages, and the real
    # 2048-order blocks stayed in numpy's arrays: 2.46, 0.76 and 0.755
    for kind, N, gate in (("real", 2048, 1.3), ("complex", 2048, 0.65), ("real", 4096, 0.6)):
        units = _builder_rss_units("build_blocks", kind, N)
        assert units <= gate, (kind, N, units)


@pytest.mark.skipif(sys.platform != "linux", reason="peak RSS is read in KiB on Linux only")
@pytest.mark.skipif("[always]" in _transparent_huge_pages(),
                    reason="every anonymous mapping gets huge pages")
def test_narrow_band_sections_keep_only_their_band_resident():
    # in N x N sections of the real Baseline at N = 2048: the running
    # products underflow within about 180 rows, so a row's band takes one
    # or two of its four 4 KB pages (0.33 measured); in numpy's
    # huge-page-advised array every page became resident (1.0).  The
    # adjoint writes the band once, above the diagonal (0.33); written
    # below and moved up, both copies were resident, 0.42 in a mapping and
    # 0.98 in the numpy array it took then.  Its complex twin conjugates
    # only the band's entries (0.215; whole 64-column strips read 0.224,
    # and the tiles moved up in numpy's array 0.99)
    gates = (
        ("build_shift", "real", 0.45),
        ("build_left_inverse", "real", 0.45),
        ("build_adjoint", "real", 0.38),
        ("build_adjoint", "complex", 0.3),
    )
    for build, kind, gate in gates:
        units = _builder_rss_units(build, kind, 2048)
        assert units <= gate, (build, kind, units)


def _vm_flags(address: int) -> list[str]:
    """The VmFlags of the mapping in /proc/self/smaps that holds ``address``."""
    inside = False
    with open("/proc/self/smaps") as smaps:
        for line in smaps:
            head = line.split(maxsplit=1)[0]
            if "-" in head and not head.endswith(":"):
                lo, hi = (int(x, 16) for x in head.split("-"))
                inside = lo <= address < hi
            elif inside and head == "VmFlags:":
                return line.split()[1:]
    raise LookupError(f"no mapping holds {address:#x}")


@pytest.mark.skipif(not Path("/proc/self/smaps").exists(), reason="no /proc/self/smaps")
@pytest.mark.skipif(not hasattr(mmap, "MADV_NOHUGEPAGE"), reason="no MADV_NOHUGEPAGE")
def test_mapped_sections_refuse_huge_pages():
    # so that they stay resident in 4 KB pages where transparent huge pages
    # are "always", not only where numpy's advice is what would get them
    A = operators._zeros((1024, 1024), np.dtype(np.float64))
    assert "nh" in _vm_flags(A.ctypes.data)


def test_narrow_bands_choose_the_mapping_and_dense_ones_numpy():
    # the predicted band of each section at N = 4096, as its builder asks
    # (the adjoint asks as the shift does): the Baseline's and harmonic-b's
    # products underflow within about 160 and 100 rows; high-const-b's (0.9
    # per row), drifting-b's and the growing SVD-route family's never do
    # within the section
    N, K = 4096, 4095
    sections = {
        "shift": ((N, N), 2, (2, 0)),
        "left": ((N, N), 1, (1, 1)),
        "b2": ((K, K), 3, (0, 0)),
        "b3": ((K, K), 1, (0, 0)),
    }
    families = {
        ("sqrt(n+1)", "0.5"): mmap.mmap,
        ("1", "1/(n+1)"): mmap.mmap,
        ("1", "0.9"): type(None),
        ("1", "(n+1)/(n+3)"): type(None),
        ("1", "1.2 + 0.3*(-1)^n"): type(None),
    }
    for (a_text, b_text), base in families.items():
        seq = make_pair(a_text, b_text, N + 64)
        for name, args in sections.items():
            A = operators._section_zeros(seq, *args)
            assert type(A.base) is base, (b_text, name)
            assert A.shape == args[0] and A.dtype == np.float64


def test_block_bands_end_on_the_last_slot_of_a_page():
    # K = N - 1 puts diagonal entry i at 8 i N bytes from the array's start:
    # the mapping places the array so that each of these entries, where
    # every row's band ends, is a page's last slot, and the array is still
    # a C-contiguous K x K float64 array over its mapping
    N, K = 4096, 4095
    blocks = build_blocks(make_pair("sqrt(n+1)", "0.5", N + 64), N)
    rows = np.arange(K)
    for name in ("b2", "b3"):
        A = getattr(blocks, name).entries
        assert type(A.base) is mmap.mmap, name
        assert A.flags.c_contiguous and A.shape == (K, K) and A.dtype == np.float64
        ends = A.ctypes.data + (rows * K + rows + 1) * A.itemsize
        assert np.all(ends % mmap.PAGESIZE == 0), name
        last = K - 1 - np.argmax(A[:, ::-1] != 0.0, axis=1)
        assert np.array_equal(last, rows), name


def test_split_result_holds_no_section():
    # measured in H x N real sections; the split's numbers are O(N), so a
    # kept window or remainder section would add about one per section
    N = 512
    seq = make_pair("sqrt(n+1)", "0.5", N + 64)
    H = seq.horizon
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        split = compact_isometry_split(seq, N)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert split.column_decay.shape == (N,)
    assert held / (8 * H * N) <= 0.05


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


# ----------------------------------------------------- split complex product


def _spread_complex(rng, n, exponents):
    # parts m 2^(e + d), m in [1/2, 1) with a random sign, e the given
    # exponent shared by both parts and |d| <= 8; one part in ten is a
    # signed zero
    parts = rng.uniform(0.5, 1.0, (n, 2)) * rng.choice([-1.0, 1.0], (n, 2))
    parts = np.ldexp(parts, exponents[:, None] + rng.integers(-8, 9, (n, 2)))
    zero = rng.random((n, 2)) < 0.1
    parts[zero] = np.copysign(0.0, parts[zero])
    return parts[:, 0] + 1j * parts[:, 1]


def _bits(z):
    return np.ascontiguousarray(z, dtype=complex).view(np.uint64)


def test_split_product_rounds_as_the_python_complex_product():
    # 2000 products, operand and product exponents over about +-300 decimal
    # orders (+-996 binary); every partial product stays a normal double
    rng = np.random.default_rng(2025)
    n = 2000
    ea = rng.integers(-996, 997, n)
    eb = rng.integers(np.maximum(-996, -996 - ea), np.minimum(996, 996 - ea) + 1)
    x, y = _spread_complex(rng, n, ea), _spread_complex(rng, n, eb)
    re, im = operators._times(x.real, x.imag, y.real, y.imag)
    expected = np.array([complex(p) * complex(q) for p, q in zip(x, y)])
    assert np.array_equal(_bits(re), _bits(expected.real))
    assert np.array_equal(_bits(im), _bits(expected.imag))


def test_scale_on_a_complex_slice_is_the_split_product():
    # _scale is the running columns' row step, P[:k] *= r in place; the
    # exponents of P and r over +-498 binary orders keep every partial
    # product a normal double
    rng = np.random.default_rng(2026)
    n = 2000
    before = _spread_complex(rng, n, rng.integers(-498, 499, n))
    for r in _spread_complex(rng, 8, rng.integers(-498, 499, 8)).tolist():
        P = before.copy()
        k = int(rng.integers(1, n))
        operators._scale(P[:k], r)
        re, im = operators._times(before[:k].real, before[:k].imag, r.real, r.imag)
        assert np.array_equal(_bits(P[:k].real), _bits(re))
        assert np.array_equal(_bits(P[:k].imag), _bits(im))
        assert np.array_equal(_bits(P[k:]), _bits(before[k:]))
        expected = [complex(p) * r for p in before[:k].tolist()]
        assert np.array_equal(_bits(P[:k]), _bits(expected))


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


@pytest.mark.parametrize("pad", [0, 1, 8, 64])
def test_sections_match_seed_column_construction(pad):
    # orders 100 and 200 cross the chunks of 64 columns whose discarded rows
    # run together
    rng = np.random.default_rng(101)
    for N in (32, 100, 200):
        for fam in CORPUS:
            seq = family_pair(fam, N + pad)
            got, ref = _sections(seq, N), _seed_sections(seq, N)
            for name in ref:
                assert np.array_equal(got[name], ref[name]), (fam.name, N, name)
        for _ in range(10):
            seq = random_pair(rng, N + pad)
            got, ref = _sections(seq, N), _seed_sections(seq, N)
            for name in ref:
                scale = np.max(np.abs(ref[name]))
                assert np.max(np.abs(got[name] - ref[name])) <= 1e-15 * scale, (N, name)


def _seed_tail_norm(mags, r):
    # the seed's bound of one run, one column at a time
    scale = mags.max()
    if not scale > 0.0:
        return 0.0
    mags = mags / scale
    factor = r * r / (1.0 - r * r)
    return scale * math.sqrt(float(np.sum(mags * mags)) + mags[-1] * mags[-1] * factor)


def _seed_tails(seq, N):
    # every column run to the horizon on its own; its rows from N on give
    # its bound
    H, a = seq.horizon, seq.a
    r_hat = validate_assumptions(seq).r_hat
    if not (r_hat < 1.0 and N < H):
        return None, None
    c, d = c_coefficients(seq), d_coefficients(seq)
    shift = np.empty(N)
    for j in range(N):
        run = _seed_deep_column(c[j], j + 2, H - j - 1, seq)[max(N - j - 2, 0) :]
        shift[j] = _seed_tail_norm(np.abs(run), r_hat)
    shift[N - 1] = math.hypot(abs(a[N - 1] / a[N]), shift[N - 1])
    left = np.zeros(N)
    for j in range(1, N):
        run = _seed_deep_column(d[j - 1], j, H - j + 1, seq)[N - j :]
        left[j] = _seed_tail_norm(np.abs(run), r_hat)
    return shift, left


@pytest.mark.parametrize("pad", [0, 1, 2, 64, 130])
def test_tail_bounds_match_seed_column_construction(pad):
    # every bound, bit for bit, on the real corpus: pad 0 leaves none, and
    # the shift's last two columns begin below the section, the last one on
    # the horizon's last row when pad is 1
    for N in (100, 200):
        for fam in CORPUS:
            seq = family_pair(fam, N + pad)
            shift, left = _seed_tails(seq, N)
            got = {
                "shift": build_shift(seq, N).tail_bound,
                "adjoint": _shift_tails(seq, N)[0],
                "left": build_left_inverse(seq, N).tail_bound,
            }
            if shift is None:
                assert all(tail is None for tail in got.values()), fam.name
                continue
            for name, ref in (("shift", shift), ("adjoint", shift), ("left", left)):
                assert np.array_equal(got[name], ref), (fam.name, N, name)


def _dead_prefix_pairs(H):
    """Pairs whose running products die inside a window of 200 rows."""
    n = np.arange(H + 1)
    # b_37 = b_150 = 0: every column begun by then dies at once, and the
    # columns begun after start fresh
    b = 0.3 + 0.1 * np.cos(n)
    b[[37, 150]] = 0.0
    yield "zero b", SequencePair(a=np.ones(H + 1), b=b)
    # about 10 binary orders per row, and b_60 = b_61, b_100 = b_101: the
    # starts c_60 = c_100 = 0 and d_61 = d_101 = 0 beside live columns
    b = 0.001 * (2.0 + (-1.0) ** n)
    b[[61, 101]] = b[[60, 100]]
    yield "zero starts", SequencePair(a=np.ones(H + 1), b=b)
    # complex, each ratio real or imaginary, so that each part of every
    # product is one rounded real product, however numpy fuses it: the
    # seed's cumprod then rounds as the split product does, through about
    # eight rows of subnormal products per column
    b = 0.001 * (1.0 + (n % 7) / 8.0) * np.array([1, 1j, -1, -1j])[n % 4]
    yield "complex", SequencePair(a=np.ones(H + 1, complex), b=b)


@pytest.mark.parametrize("pad", [0, 1, 64])
def test_dead_prefix_matches_seed_column_construction(pad):
    # by row 200 the live band has left the first chunk of 64 columns (the
    # first two after b_150 = 0), so the chunks wholly left of it take the
    # bound 0 at the section's last rows without being run
    N = 200
    for name, seq in _dead_prefix_pairs(N + pad):
        got, ref = _sections(seq, N), _seed_sections(seq, N)
        for key in ref:
            assert np.array_equal(got[key], ref[key]), (name, key)
        tail, lows = _shift_tails(seq, N)
        assert lows[-1] >= operators._BLOCK, name
        shift, left = _seed_tails(seq, N)
        if pad == 0:
            assert shift is None and tail is None, name
            continue
        assert np.array_equal(build_shift(seq, N).tail_bound, shift), name
        assert np.array_equal(tail, shift), name
        assert np.array_equal(build_left_inverse(seq, N).tail_bound, left), name
        assert np.all(shift[: operators._BLOCK] == 0.0), name
        if name == "complex":  # its products pass through the subnormals to zero
            entries = np.abs(got["shift"])
            assert np.any((entries > 0.0) & (entries < np.finfo(float).tiny))
            assert np.count_nonzero(np.tril(entries, -2) == 0.0) > N * N // 4


def test_tail_bounds_reach_the_discarded_mass_on_random_complex_families():
    # the discarded rows N..H of each column, their norm summed in the log
    # domain, never exceed the column's bound
    N, pad = 200, 64
    rng = np.random.default_rng(103)
    tiny = np.finfo(float).tiny
    for _ in range(10):
        seq = random_pair(rng, N + pad)
        c, d = c_coefficients(seq), d_coefficients(seq)
        log_ref = {
            "shift": _log_tail_norm(seq, c[:N], 2, N),
            "left": _log_tail_norm(seq, d[: N - 1], 1, N),
        }
        log_sub = np.log(abs(seq.a[N - 1] / seq.a[N]))
        log_ref["shift"][N - 1] = np.logaddexp(2.0 * log_ref["shift"][N - 1], 2.0 * log_sub) / 2.0
        bounds = {
            "shift": build_shift(seq, N).tail_bound,
            "left": build_left_inverse(seq, N).tail_bound[1:],
        }
        for name, log_norm in log_ref.items():
            assert bounds[name] is not None, name
            resolved = np.flatnonzero(log_norm >= np.log(tiny))
            assert resolved.size > N // 2, name
            short = resolved[bounds[name][resolved] < np.exp(log_norm[resolved]) * (1.0 - 1e-9)]
            assert short.size == 0, (name, short)
