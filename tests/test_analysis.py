import functools
import math
import tracemalloc

import numpy as np
import pytest

from trishift import (
    BoundUnavailableError,
    CoefficientSpec,
    NearSingularError,
    SequencePair,
    TruncatedOperator,
    VERDICT_FAILS,
    VERDICT_HOLDS,
    VERDICT_INCONCLUSIVE,
    build_left_inverse,
    build_shift,
    build_tail_blocks,
    c_coefficients,
    check_main_criterion,
    column_norm_profile,
    compact_isometry_split,
    equivalence_diagnostics,
    index_data,
    materialize,
    neumann_error_curve,
    neumann_partial_sum,
    polar_decompose,
)

from trishift import analysis
from trishift.analysis import (
    DEFAULT_RANK_TOL,
    _BAND,
    _band_blocks,
    _band_product,
    _flush_tiny,
    _gram_split,
    _newton_schulz,
    _spectral_norm,
)
from trishift.operators import _ShiftRecurrence

from corpus_families import (
    CORPUS,
    FAILING,
    PASSING,
    complex_baseline_pair,
    family_pair,
    make_pair,
    random_pair,
)


# ----------------------------------------------------------------- criterion


def test_criterion_holds_for_bergman():
    seq = make_pair("sqrt(n+1)", "0", 512)
    rep = check_main_criterion(seq, tol=1e-2)
    assert rep.verdict == VERDICT_HOLDS


def test_criterion_fails_for_geometric_a():
    seq = make_pair("2^n", "1", 64)
    rep = check_main_criterion(seq, tol=1e-2)
    assert rep.verdict == VERDICT_FAILS
    assert abs(rep.trailing_max_ratio_dev - 0.5) < 1e-15


def test_criterion_fails_for_alternating_b():
    seq = make_pair("1", "0.5*(-1)^n", 64)
    rep = check_main_criterion(seq, tol=1e-2)
    assert rep.verdict == VERDICT_FAILS
    assert rep.trailing_max_diff_dev == 1.0


def test_criterion_inconclusive_band():
    # deviations sit between tol and 10*tol
    seq = make_pair("1", "0.03*(-1)^n", 64)
    rep = check_main_criterion(seq, tol=1e-2)
    assert rep.verdict == VERDICT_INCONCLUSIVE


def test_criterion_verdict_matches_invariant():
    rng = np.random.default_rng(41)
    for _ in range(20):
        seq = random_pair(rng, int(rng.integers(16, 64)))
        tol = float(rng.uniform(0.005, 0.2))
        rep = check_main_criterion(seq, tol=tol)
        tr = rep.ratio_dev[-rep.window :]
        td = rep.diff_dev[-rep.window :]
        if rep.verdict == VERDICT_HOLDS:
            assert tr.max() < tol and td.max() < tol
        elif rep.verdict == VERDICT_FAILS:
            assert tr.min() >= 10 * tol or td.min() >= 10 * tol
        else:
            assert not (tr.max() < tol and td.max() < tol)
            assert tr.min() < 10 * tol and td.min() < 10 * tol


def test_criterion_verdict_is_monotone_in_tol():
    # holds at t1 implies holds at every t2 > t1, and fails at t2 implies
    # fails at every t1 < t2; the tolerances include the trailing maxima
    # themselves, where the strict < decides, and the fail edges min / 10
    rng = np.random.default_rng(53)
    seen = set()
    for _ in range(24):
        N = int(rng.integers(16, 96))
        spread = 10.0 ** rng.uniform(-5.0, 0.0)
        a = 1.0 + spread * rng.uniform(-0.5, 0.5, N + 1)
        b = spread * rng.uniform(-1.0, 1.0, N + 1)
        if rng.uniform() < 0.5:
            a = a * np.exp(2j * np.pi * rng.uniform(0.0, 1.0, N + 1))
        seq = SequencePair(a=a, b=b)
        probe = check_main_criterion(seq, tol=0.5)
        tr = probe.ratio_dev[-probe.window :]
        td = probe.diff_dev[-probe.window :]
        edges = [probe.trailing_max_ratio_dev, probe.trailing_max_diff_dev,
                 tr.min() / 10.0, td.min() / 10.0]
        tols = set(10.0 ** rng.uniform(-7.0, 0.0, 12))
        for e in edges:
            tols.update(float(t) for t in (e, np.nextafter(e, 0.0), np.nextafter(e, 1.0)))
        tols = sorted(t for t in tols if 0.0 < t < 1.0)
        verdicts = [check_main_criterion(seq, tol=t).verdict for t in tols]
        seen.update(verdicts)
        for i, (t1, v1) in enumerate(zip(tols, verdicts)):
            for v2 in verdicts[i + 1 :]:
                assert v1 != VERDICT_HOLDS or v2 == VERDICT_HOLDS, (t1, v1, v2)
                assert v2 != VERDICT_FAILS or v1 == VERDICT_FAILS, (t1, v1, v2)
        top = max(edges[:2])
        if 0.0 < top < 1.0:
            assert check_main_criterion(seq, tol=top).verdict != VERDICT_HOLDS
            if np.nextafter(top, 1.0) < 1.0:
                assert check_main_criterion(
                    seq, tol=float(np.nextafter(top, 1.0))
                ).verdict == VERDICT_HOLDS
    assert seen == {VERDICT_HOLDS, VERDICT_FAILS, VERDICT_INCONCLUSIVE}


def test_criterion_window_validation():
    seq = make_pair("1", "0", 16)
    with pytest.raises(ValueError):
        check_main_criterion(seq, tol=1e-2, window=9)
    with pytest.raises(ValueError):
        check_main_criterion(seq, tol=1.5)


def test_criterion_diagonal_reduction():
    # b == 0: verdict coincides with the weighted-shift test on | |w_n| - 1 |
    for fam_a, expected in (("sqrt(n+1)", VERDICT_HOLDS), ("2^((-1)^n)", VERDICT_FAILS)):
        seq = make_pair(fam_a, "0", 256)
        rep = check_main_criterion(seq, tol=1e-2)
        w = np.abs(seq.a[:-1] / seq.a[1:])
        dev = np.abs(w - 1.0)[-rep.window :]
        shifted_verdict = VERDICT_HOLDS if dev.max() < 1e-2 else (
            VERDICT_FAILS if dev.min() >= 0.1 else VERDICT_INCONCLUSIVE
        )
        assert rep.verdict == expected == shifted_verdict


# ------------------------------------------------------------------- profile


def test_profile_vanishes_for_constant_b():
    seq = make_pair("1", "0.5", 40)
    profile, lower = column_norm_profile(seq, 24)
    assert np.max(profile) < 1e-14
    assert np.max(lower) < 1e-28


def test_profile_alternating_lower_bound():
    seq = make_pair("1", "0.5*(-1)^n", 48)
    profile, _ = column_norm_profile(seq, 32)
    assert np.all(profile[2:] >= 1.0 - 1e-12)


def test_profile_dominates_lower_bound():
    rng = np.random.default_rng(43)
    for _ in range(8):
        seq = random_pair(rng, 48)
        profile, lower = column_norm_profile(seq, 32)
        assert np.min(profile**2 - lower) >= -1e-12
    for fam in CORPUS:
        seq = family_pair(fam, 72)
        profile, lower = column_norm_profile(seq, 48)
        assert np.min(profile**2 - lower) >= -1e-12


# -------------------------------------------------------------- equivalence


def test_equivalence_unilateral_shift():
    seq = make_pair("1", "0", 40)
    diag = equivalence_diagnostics(seq, 16)
    assert np.max(diag.tails_itt) < 1e-14
    assert np.max(diag.tails_ltstar) < 1e-14
    assert diag.tails_ittstar[0] == 1.0
    assert np.max(diag.tails_ittstar[1:]) < 1e-14
    assert (diag.index_data.dim_ker, diag.index_data.dim_coker) == (0, 1)
    assert diag.index_data.index == -1


def test_equivalence_bergman_tail():
    seq = make_pair("sqrt(n+1)", "0", 96)
    N = 64
    diag = equivalence_diagnostics(seq, N)
    n = np.arange(N)
    assert np.max(np.abs(diag.tails_itt - 1.0 / (n + 2.0))) < 1e-12


def test_index_is_minus_one_across_orders():
    rng = np.random.default_rng(47)
    for N in (8, 16, 32):
        for _ in range(3):
            seq = random_pair(rng, N + 16)
            data = index_data(seq, N)
            assert (data.dim_ker, data.dim_coker, data.index) == (0, 1, -1)


def test_index_on_corpus_members():
    for fam in CORPUS[::5]:
        seq = family_pair(fam, 48)
        data = index_data(seq, 32)
        assert (data.dim_ker, data.dim_coker, data.index) == (0, 1, -1)


# ------------------------------------------------------------------- polar


def test_polar_positive_diagonal():
    diag = np.diag(np.array([1.0, 0.5, 3.0], dtype=complex))
    V, P = polar_decompose(TruncatedOperator(diag))
    assert np.max(np.abs(P.entries - diag)) < 1e-12
    assert np.max(np.abs(V.entries - np.eye(3))) < 1e-12


def test_polar_isometric_section():
    # column-exact tall section of the unilateral shift is isometric
    seq = make_pair("1", "0", 24)
    tall = TruncatedOperator(build_shift(seq, 20).entries[:, :16])
    V, P = polar_decompose(tall)
    assert np.max(np.abs(P.entries - np.eye(16))) < 1e-12
    assert np.max(np.abs(V.entries - tall.entries)) < 1e-12


def test_polar_positive_scaling():
    seq = make_pair("1", "0", 24)
    tall = TruncatedOperator(2.0 * build_shift(seq, 20).entries[:, :16])
    V, P = polar_decompose(tall)
    assert np.max(np.abs(P.entries - 2.0 * np.eye(16))) < 1e-12
    assert np.max(np.abs(V.entries - tall.entries / 2.0)) < 1e-12


def test_polar_rejects_singular_square_section():
    # square N-section of a shift has a zero last column
    seq = make_pair("1", "0", 16)
    with pytest.raises(NearSingularError):
        polar_decompose(build_shift(seq, 12))


def test_polar_reconstructs_input():
    rng = np.random.default_rng(53)
    seq = random_pair(rng, 40)
    tall = TruncatedOperator(build_shift(seq, 40).entries[:, :24])
    V, P = polar_decompose(tall)
    assert np.max(np.abs(V.entries @ P.entries - tall.entries)) < 1e-10
    vtv = V.entries.conj().T @ V.entries
    assert np.max(np.abs(vtv - np.eye(24))) < 1e-10


def test_polar_factor_positive_with_ratio_floor():
    # P is Hermitian positive; for diagonal families its least eigenvalue is
    # exactly the smallest consecutive ratio measured by eps_hat
    from trishift import validate_assumptions

    seq = make_pair("sqrt(n+1)", "0", 48)
    tall = TruncatedOperator(build_shift(seq, 48).entries[:, :32])
    _, P = polar_decompose(tall)
    assert np.array_equal(P.entries, P.entries.conj().T)
    eigs = np.linalg.eigvalsh(P.entries)
    eps_hat = validate_assumptions(seq).eps_hat
    assert eigs[0] >= eps_hat - 1e-12
    rng = np.random.default_rng(61)
    seq2 = random_pair(rng, 40)
    tall2 = TruncatedOperator(build_shift(seq2, 40).entries[:, :24])
    _, P2 = polar_decompose(tall2)
    assert np.linalg.eigvalsh(P2.entries)[0] > 0.0


def _conditioned_matrix(n, s_min, seed=7):
    # Q1 diag(s) Q2^T with s log-spaced from 1 down to s_min
    rng = np.random.default_rng(seed)
    q1, _ = np.linalg.qr(rng.standard_normal((n, n)))
    q2, _ = np.linalg.qr(rng.standard_normal((n, n)))
    s = np.logspace(0.0, np.log10(s_min), n)
    return (q1 * s) @ q2.T


def test_polar_isometric_when_least_singular_value_is_resolved():
    for s_min in (1e-6, 1e-8):
        A = _conditioned_matrix(200, s_min)
        V, _ = polar_decompose(TruncatedOperator(A))
        vtv = V.entries.conj().T @ V.entries
        assert np.max(np.abs(vtv - np.eye(200))) <= 1e-12, s_min


def test_polar_reports_resolved_least_singular_value():
    A = _conditioned_matrix(200, 1e-11)
    with pytest.raises(NearSingularError) as info:
        polar_decompose(TruncatedOperator(A))
    assert abs(info.value.least_singular - 1e-11) <= 1e-2 * 1e-11


# --------------------------------------------------------------------- split


def test_split_exact_isometry():
    seq = make_pair("1", "0.5", 96)
    deco = compact_isometry_split(seq, 64)
    assert np.max(deco.column_decay) < 1e-10
    assert deco.isometry_defect < 1e-10


def test_split_bergman_rate():
    seq = make_pair("sqrt(n+1)", "0", 96)
    N = 64
    deco = compact_isometry_split(seq, N)
    w = np.abs(seq.a[:N] / seq.a[1 : N + 1])
    assert np.max(np.abs(deco.column_decay - (1.0 - w))) < 1e-10


def test_split_alternating_stays_large():
    seq = make_pair("1", "0.5*(-1)^n", 96)
    deco = compact_isometry_split(seq, 64)
    assert np.min(deco.column_decay[:48]) > 0.1


def _gram_reference(seq, N, rank_tol=1e-8):
    """Dense reference: I - T*T from the column Gram matrix, the polar factor
    from a full Hermitian eigendecomposition of it, ranks from two SVDs."""
    full = build_shift(seq, seq.horizon).entries
    tall = full[:, :N]
    square = full[:N, :N]
    eye = np.eye(N)
    gram = tall.conj().T @ tall
    tails_itt = np.linalg.norm(eye - gram, axis=0)
    tails_ittstar = np.linalg.norm(eye - square @ square.conj().T, axis=0)
    eigvals, U = np.linalg.eigh((gram + gram.conj().T) / 2.0)
    s = np.sqrt(np.clip(eigvals, 0.0, None))
    V = tall @ ((U * (1.0 / s)) @ U.conj().T)
    column_decay = np.linalg.norm(tall - V, axis=0)
    isometry_defect = float(np.linalg.norm(V.conj().T @ V - eye, axis=0).max())

    def rank(m):
        sv = np.linalg.svd(m, compute_uv=False)
        return int(np.count_nonzero(sv > rank_tol * sv[0]))

    dim_ker = N - rank(tall)
    dim_coker = N - rank(square)
    return (tails_itt, tails_ittstar, column_decay, isometry_defect,
            (dim_ker, dim_coker, dim_ker - dim_coker))


def test_single_svd_core_matches_gram_reference():
    N, pad = 48, 16
    rng = np.random.default_rng(67)
    real = SequencePair(
        a=rng.uniform(0.5, 2.0, N + pad + 1) * rng.choice([-1.0, 1.0], N + pad + 1),
        b=0.2 * rng.uniform(-1, 1, N + pad + 1),
    )
    for seq in (real, random_pair(rng, N + pad)):
        itt, ittstar, decay, defect, index = _gram_reference(seq, N)
        diag = equivalence_diagnostics(seq, N)
        deco = compact_isometry_split(seq, N)
        assert np.max(np.abs(diag.tails_itt - itt)) <= 1e-12
        assert np.max(np.abs(diag.tails_ittstar - ittstar)) <= 1e-12
        assert np.max(np.abs(deco.column_decay - decay)) <= 1e-12
        assert abs(deco.isometry_defect - defect) <= 1e-12
        d = diag.index_data
        assert (d.dim_ker, d.dim_coker, d.index) == index
        # the split and the profile floor of the same SVD and section
        assert diag.decomposition.column_decay.tobytes() == deco.column_decay.tobytes()
        assert diag.decomposition.isometry_defect.hex() == deco.isometry_defect.hex()
        profile, lower_sq = column_norm_profile(seq, N)
        assert diag.tails_ltstar.tobytes() == profile.tobytes()
        assert diag.ltstar_lower_sq.tobytes() == lower_sq.tobytes()
        d = index_data(seq, N)
        assert (d.dim_ker, d.dim_coker, d.index) == index


def _index_tuple(d):
    return (d.dim_ker, d.dim_coker, d.index)


@pytest.mark.parametrize("N", [64, 256])
def test_certified_ranks_match_gram_reference_on_corpus(N):
    pad = 64
    for fam in CORPUS:
        seq = family_pair(fam, N + pad)
        want = _gram_reference(seq, N)[4]
        for d in (index_data(seq, N), equivalence_diagnostics(seq, N).index_data):
            assert (d.ker_route, d.coker_route) == ("certified", "certified"), fam.name
            assert 0.0 < d.ker_margin < 1.0 and 0.0 < d.coker_margin < 1.0
            assert _index_tuple(d) == want, fam.name


def test_certified_ranks_match_gram_reference_on_random_families():
    rng = np.random.default_rng(83)
    for _ in range(6):
        N = int(rng.integers(16, 96))
        seq = random_pair(rng, N + 16)
        want = _gram_reference(seq, N)[4]
        for d in (index_data(seq, N), equivalence_diagnostics(seq, N).index_data):
            assert (d.ker_route, d.coker_route) == ("certified", "certified")
            assert _index_tuple(d) == want


def _growing_left_inverse_pair(k, H):
    # |b_n/a_{n+1}| = 10 with alternating signs for n < k: the running
    # products of both sections reach 10^k before the ratio drops to 1/2
    b = [10.0 * (-1) ** n for n in range(k)] + [0.5] * (H + 1 - k)
    return materialize(CoefficientSpec([1.0] * (H + 1), b, "grow"), H)


@pytest.mark.parametrize("k", [4, 20])
def test_rank_fallback_matches_gram_reference(k):
    N = 64
    seq = _growing_left_inverse_pair(k, N + 32)
    with np.errstate(divide="ignore", invalid="ignore"):  # singular at k = 20
        want = _gram_reference(seq, N)[4]
    for d in (index_data(seq, N), equivalence_diagnostics(seq, N).index_data):
        assert (d.ker_route, d.coker_route) == ("svd", "svd")
        assert d.ker_margin >= 1.0 and d.coker_margin >= 1.0
        assert _index_tuple(d) == want
    if k == 4:  # the SVD still resolves the full ranks
        assert want == (0, 1, -1)


def test_kernel_rank_falls_back_without_a_row_past_the_window():
    # on horizon N the tall section is the square one: its last column is
    # cut, no left inverse exists, and the SVD counts the kernel
    seq = make_pair("sqrt(n+1)", "0.5", 32)
    d = index_data(seq, 32)
    assert (d.ker_route, d.ker_margin) == ("svd", None)
    assert d.coker_route == "certified"
    with np.errstate(divide="ignore", invalid="ignore"):
        want = _gram_reference(seq, 32)[4]
    assert _index_tuple(d) == want == (1, 1, 0)


def test_index_rejects_order_past_horizon():
    with pytest.raises(ValueError, match="exceeds the materialized horizon"):
        index_data(make_pair("1", "0", 32), 40)


def test_index_svd_calls_only_on_fallback(monkeypatch):
    calls = []
    svd = np.linalg.svd

    def counting_svd(*args, **kwargs):
        calls.append(kwargs.get("compute_uv", True))
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    d = index_data(make_pair("sqrt(n+1)", "0.5", 128), 64)
    assert _index_tuple(d) == (0, 1, -1)
    assert calls == []
    diag = equivalence_diagnostics(_growing_left_inverse_pair(4, 96), 64)
    assert diag.decomposition.route == "svd"
    assert calls == [True, False]  # the thin SVD, then the square's values


# --------------------------------------------------------------- polar route

ROUTE_TOL = 1e-12  # absolute agreement of the Gram route with the SVD formulas


def _svd_reference(seq, N):
    """The split from the tall section's thin SVD, as the SVD route forms it:
    ``(tails_itt, column_decay, isometry_defect, s_min)``."""
    tall = build_shift(seq, seq.horizon).entries[:, :N]
    u, s, wh = np.linalg.svd(tall, full_matrices=False)
    tails_itt = np.linalg.norm((1.0 - s * s)[:, None] * wh, axis=0)
    column_decay = np.linalg.norm((s - 1.0)[:, None] * wh, axis=0)
    V = u @ wh
    defect = float(np.linalg.norm(V.conj().T @ V - np.eye(N), axis=0).max())
    return tails_itt, column_decay, defect, float(s[-1])


def _assert_routes_agree(seq, N, label, route="gram", itt_from_gram=False):
    """The split agrees with :func:`_svd_reference` within ``ROUTE_TOL``.
    With ``itt_from_gram`` the ``I - T*T`` tails are held against the
    column norms of ``I - tall^H tall`` instead: ``(1 - s^2) W^H`` carries
    an absolute error of about ``eps s_max^2``, above ``ROUTE_TOL`` once
    the Gram's entries reach the thousands."""
    diag = equivalence_diagnostics(seq, N)
    deco = diag.decomposition
    tails_itt, decay, defect, s_min = _svd_reference(seq, N)
    if itt_from_gram:
        tall = build_shift(seq, seq.horizon).entries[:, :N]
        tails_itt = np.linalg.norm(np.eye(N) - tall.conj().T @ tall, axis=0)
    assert deco.route == route, label
    assert 0.0 < deco.margin < 1.0, label
    assert np.max(np.abs(diag.tails_itt - tails_itt)) <= ROUTE_TOL, label
    assert np.max(np.abs(deco.column_decay - decay)) <= ROUTE_TOL, label
    assert abs(deco.isometry_defect - defect) <= ROUTE_TOL, label
    assert deco.isometry_defect <= 1e-12, label
    assert abs(deco.s_min - s_min) <= ROUTE_TOL, label
    # polar_decompose's isometry, through the remainder T - V it leaves
    tall = build_shift(seq, seq.horizon).entries[:, :N]
    V, _ = polar_decompose(TruncatedOperator(tall.copy()))
    remainder = np.linalg.norm(tall - V.entries, axis=0)
    assert np.max(np.abs(deco.column_decay - remainder)) <= ROUTE_TOL, label


def test_gram_route_matches_svd_reference_on_corpus():
    N, pad = 256, 64
    families = [(fam.name, family_pair(fam, N + pad)) for fam in CORPUS]
    families.append(("baseline", make_pair("sqrt(n+1)", "0.5", N + pad)))
    for name, seq in families:
        _assert_routes_agree(seq, N, name)


@pytest.mark.parametrize("k", [4, 20])
def test_svd_fallback_is_the_svd_route(k):
    N = 64
    seq = _growing_left_inverse_pair(k, N + 32)
    tails_itt, decay, defect, s_min = _svd_reference(seq, N)
    diag = equivalence_diagnostics(seq, N)
    for deco in (diag.decomposition, compact_isometry_split(seq, N)):
        assert deco.route == "svd"
        assert deco.margin >= 1.0
        assert deco.column_decay.tobytes() == decay.tobytes()
        assert deco.isometry_defect.hex() == defect.hex()
        assert deco.s_min.hex() == s_min.hex()
    assert diag.tails_itt.tobytes() == tails_itt.tobytes()


TINY = 2.0**-511


def test_svd_route_flushes_its_factors_without_moving_a_bit(monkeypatch):
    # a third of U's and W^H's entries lie below 2^-511 on this family, so
    # U W^H ran in subnormal arithmetic; flushed, every reported number is
    # still that of the unflushed formulas, bit for bit
    N = 1024
    seq = _growing_left_inverse_pair(6, N + 64)
    tails_itt, decay, defect, s_min = _svd_reference(seq, N)
    flushed = []
    flush = analysis._flush_tiny

    def counting(x):
        count = flush(x)
        flushed.append((x.shape, count))
        return count

    monkeypatch.setattr(analysis, "_flush_tiny", counting)
    diag = equivalence_diagnostics(seq, N)
    deco = diag.decomposition
    assert deco.route == "svd" and deco.margin >= 1.0
    # U, then W^H, then V before V^H V
    assert [shape for shape, _ in flushed] == [(N + 64, N), (N, N), (N + 64, N)]
    assert flushed[0][1] > N * N // 4 and flushed[1][1] > N * N // 4
    assert deco.column_decay.tobytes() == decay.tobytes()
    assert deco.isometry_defect.hex() == defect.hex()
    assert deco.s_min.hex() == s_min.hex()
    assert diag.tails_itt.tobytes() == tails_itt.tobytes()


@pytest.mark.parametrize("dtype", [np.float64, np.complex128])
def test_flush_tiny_zeroes_exactly_the_sub_resolution_entries(dtype):
    rng = np.random.default_rng(17)
    shape = (300, 70)  # more rows than one block, and a ragged last block
    x = rng.standard_normal(shape) * 2.0 ** rng.integers(-560, 4, shape)
    if dtype is np.complex128:
        x = x + 1j * rng.standard_normal(shape) * 2.0 ** rng.integers(-560, 4, shape)
    # entries on both sides of the threshold, and at it
    x.flat[:6] = [TINY, -TINY, np.nextafter(TINY, 0), -np.nextafter(TINY, 0), 0.0, 1.0]
    if dtype is np.complex128:
        # both parts below 2^-511: |z| below it, then above it
        x.flat[6] = TINY * 0.7 * (1 + 1j)
        x.flat[7] = TINY * 0.75 * (1 + 1j)
    x = x.astype(dtype)
    small = np.abs(x) < TINY
    assert small.any() and not small.all()
    want = np.where(small, 0, x)
    _flush_tiny(x)
    assert x.dtype == dtype
    assert x.tobytes() == want.tobytes()


def test_flush_tiny_allocates_no_array_sized_temporary():
    x = np.full((1024, 1024), 2.0**-600)
    tracemalloc.start()
    try:
        _flush_tiny(x)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert not x.any()
    assert peak < x.nbytes / 8


def test_flush_tiny_counts_what_it_zeroes_on_a_stack_as_on_its_rows():
    rng = np.random.default_rng(23)
    shape = (3, 9, 8, 8)
    x = rng.standard_normal(shape) * 2.0 ** rng.integers(-560, 4, shape)
    x[0, 0] = 0.0
    rows = x.reshape(-1, 8).copy()
    want = int(np.count_nonzero((np.abs(x) < TINY) & (x != 0.0)))
    assert want and _flush_tiny(x) == want
    assert _flush_tiny(rows) == want
    assert x.tobytes() == rows.tobytes()
    assert _flush_tiny(x) == 0  # a flushed array holds no tiny entry


def test_flush_tiny_on_a_stack_allocates_no_stack_sized_temporary():
    # the band route's (p + 1, nb, b, b) stacks, p + 1 from 2 to 4, are
    # flushed through their rows: a stack whose first axis is short is not
    # one block of temporaries
    x = np.full((3, 64, _BAND, _BAND), 2.0**-600)
    tracemalloc.start()
    try:
        flushed = _flush_tiny(x)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < x.nbytes / 4
    assert not x.any() and flushed == x.size


def _unflushed_gram_split(seq, N):
    """The Gram route's formulas, ``G`` and ``T W`` by the shift's
    recurrences, with no entry flushed: ``(column_decay, isometry_defect,
    s_min)``."""
    shift = _ShiftRecurrence(seq, N)
    lam, W = np.linalg.eigh(shift.gram())
    s = np.sqrt(lam)
    column_decay = np.linalg.norm(W * (s - 1.0), axis=1)
    V = shift.apply(W)
    V /= s
    V = V @ W.conj().T
    vtv = V.conj().T @ V
    vtv.flat[:: N + 1] -= 1.0
    defect = float(np.linalg.norm(vtv, axis=0).max())
    # the flush has something to do on these families
    assert np.count_nonzero(np.abs(W) < TINY) > N
    return column_decay, defect, math.sqrt(max(float(lam[0]), 0.0))


def test_flushed_split_is_bit_identical_to_the_unflushed_formulas():
    N, pad = 512, 64
    H = N + pad
    for seq in (make_pair("sqrt(n+1)", "0.5", H), complex_baseline_pair(29, H)):
        decay, defect, s_min = _unflushed_gram_split(seq, N)
        # both families take the band route at this order: call the dense
        # Gram route itself
        shift = _ShiftRecurrence(seq, N)
        deco = _gram_split(shift, shift.gram(), 0.5)[0]
        assert deco.route == "gram"
        assert deco.column_decay.tobytes() == decay.tobytes()
        assert deco.isometry_defect.hex() == defect.hex()
        assert deco.s_min.hex() == s_min.hex()


def _random_admissible_pair(rng, H):
    # ratios |a_n/a_{n+1}| in [1/4, 4] and |b_n/a_{n+1}| <= 0.85
    mags = rng.uniform(0.5, 2.0, H + 1)
    b = rng.uniform(0.0, 0.3) * (rng.uniform(-1, 1, H + 1) + 1j * rng.uniform(-1, 1, H + 1))
    if rng.random() < 0.5:
        return SequencePair(a=mags * rng.choice([-1.0, 1.0], H + 1), b=b.real)
    return SequencePair(a=mags * np.exp(2j * np.pi * rng.uniform(0.0, 1.0, H + 1)), b=b)


def test_split_is_isometric_or_raises_on_random_families():
    # pad 0 leaves no row past the window: the last column of the tall
    # section is cut, the split is singular and must raise
    rng = np.random.default_rng(101)
    outcomes = {"gram": 0, "raised": 0}
    for _ in range(16):
        N = int(rng.integers(8, 97))
        pad = int(rng.choice([0, 1, 4, 16]))
        seq = _random_admissible_pair(rng, N + pad)
        try:
            deco = compact_isometry_split(seq, N)
        except NearSingularError as err:
            assert pad == 0 and err.least_singular <= 1e-10
            outcomes["raised"] += 1
            continue
        _assert_routes_agree(seq, N, (N, pad))
        assert deco.isometry_defect <= 1e-12
        outcomes["gram"] += 1
    assert outcomes["gram"] and outcomes["raised"]


def _growing_ratio_pair(H):
    # |r_n| = |b_n/a_{n+1}| is 3 for n < 4 and 1/2 after: the running
    # products reach 81 and decay again, and the margin stays below 1
    b = [3.0, -3.0, 3.0, -3.0] + [0.5] * (H - 3)
    return SequencePair(a=np.ones(H + 1), b=np.array(b))


def test_gram_route_refines_the_isometry_of_ill_conditioned_families():
    # kappa(T) near 100 (the alternating family) or running products up to
    # 81 (the explicit list, whose Gram entries reach about 4200) leave V^H
    # V - I near 1e-11 after the Gram formulas; one Newton-Schulz step
    # brings it to rounding
    cases = [
        ("alternating", make_pair("3^((-1)^n)", "0.3*(-1)^n", 512 + 64), 512, False),
        ("growing", _growing_ratio_pair(80), 64, True),
    ]
    for label, seq, N, itt_from_gram in cases:
        _assert_routes_agree(seq, N, label, itt_from_gram=itt_from_gram)
        assert compact_isometry_split(seq, N).isometry_defect <= 1e-13, label


def _dense_recurrence_reference(seq, N):
    """The quantities :class:`_ShiftRecurrence` reads off its recurrences,
    from the dense horizon sections."""
    H = seq.horizon
    full = build_shift(seq, H).entries
    L = build_left_inverse(seq, H).entries
    tall, square = full[:, :N], full[:N, :N]
    gram = tall.conj().T @ tall
    a, c = seq.a, c_coefficients(seq)
    rv_sq = np.zeros(N)
    rv_sq[1:] = np.abs(a[1:N] / a[: N - 1] - np.conj(a[: N - 1] / a[1:N])) ** 2
    lower = rv_sq.copy()
    lower[2:] += np.abs(c[: N - 2]) ** 2
    return {
        "tall": tall,
        "gram": gram,
        "fro": float(np.linalg.norm(tall)),
        "itt": np.linalg.norm(np.eye(N) - gram, axis=0),
        "ittstar": np.linalg.norm(np.eye(N) - square @ square.conj().T, axis=0),
        "ltstar": np.linalg.norm(L[:, :N] - full[:N].conj().T, axis=0),
        "ltstar_lower": lower,
        "fro_tall": float(np.linalg.norm(L[:N])) if H > N else math.inf,
        "fro_square": float(np.linalg.norm(L[: N - 1, 1:])),
    }


def _assert_recurrence_matches_dense(seq, N, label, rng):
    want = _dense_recurrence_reference(seq, N)
    shift = _ShiftRecurrence(seq, N)
    tol = 1e-12
    X = rng.standard_normal((N, 5))
    if np.iscomplexobj(seq.a):
        X = X + 1j * rng.standard_normal((N, 5))
    assert np.max(np.abs(shift.apply(X) - want["tall"] @ X)) <= tol, label
    gram = shift.gram()
    assert np.array_equal(gram, gram.conj().T), label
    panels = [(r0, rows.tobytes()) for r0, rows in shift.gram_panels()]
    assert panels == [
        (r0, gram[r0 : r0 + _BAND, : r0 + _BAND].tobytes()) for r0 in range(0, N, _BAND)
    ], label
    assert np.max(np.abs(gram - want["gram"])) <= tol, label
    assert abs(math.sqrt(shift.fro_sq()) - want["fro"]) <= tol, label
    itt = np.linalg.norm(np.eye(N) - gram, axis=0)
    assert np.max(np.abs(itt - want["itt"])) <= tol, label
    assert np.max(np.abs(shift.ittstar_norms() - want["ittstar"])) <= tol, label
    profile, lower = shift.ltstar_profile()
    assert np.max(np.abs(profile - want["ltstar"])) <= tol, label
    assert lower.tobytes() == want["ltstar_lower"].tobytes(), label
    fro_tall, fro_square = shift.left_inverse_norms()
    if math.isinf(want["fro_tall"]):
        assert fro_tall == math.inf, label
    else:
        assert abs(fro_tall - want["fro_tall"]) <= tol, label
    assert abs(fro_square - want["fro_square"]) <= tol, label


def test_shift_recurrence_matches_dense_sections():
    rng = np.random.default_rng(131)
    kinds = set()
    for _ in range(16):
        N = int(rng.integers(8, 97))
        pad = int(rng.choice([0, 1, 4, 16]))
        seq = _random_admissible_pair(rng, N + pad)
        kinds.add(seq.a.dtype.kind)
        _assert_recurrence_matches_dense(seq, N, (N, pad), rng)
    assert kinds == {"f", "c"}
    # G over several panels, the last one ragged
    for N, pad in ((200, 16), (257, 1)):
        for seq in (make_pair("sqrt(n+1)", "0.5", N + pad), complex_baseline_pair(N, N + pad)):
            _assert_recurrence_matches_dense(seq, N, ("panels", N, seq.a.dtype.kind), rng)
    # running products above 1 at the start: the recurrences stay stable
    seq = _growing_ratio_pair(80)
    for N in (8, 64, 79, 80):
        _assert_recurrence_matches_dense(seq, N, ("growing", N), rng)
    assert compact_isometry_split(seq, 64).route == "gram"


@pytest.mark.parametrize("b_text", ["1.2 + 0.3*(-1)^n", "1.1 + 1/(n+2)", "1.02*(-1)^n"])
def test_route_margin_matches_the_dense_sections(b_text):
    # families whose running products grow: the margin from the recurrences
    # agrees with the dense sections' and sends them to the SVD
    N, pad = 512, 64
    seq = make_pair("1", b_text, N + pad)
    H = seq.horizon
    tall = build_shift(seq, H).entries[:, :N]
    fro_tall = np.linalg.norm(build_left_inverse(seq, H).entries[:N])
    want = H * np.finfo(float).eps * np.linalg.norm(tall) ** 2 * fro_tall**2
    deco = compact_isometry_split(seq, N)
    assert deco.route == "svd"
    assert 1.0 <= want and abs(deco.margin - want) <= 1e-12 * want


def _outputs(seq, N):
    """Every number the four analysis entry points return, as bytes."""
    def deco_bytes(d):
        return (d.column_decay.tobytes(), d.isometry_defect.hex(), d.route,
                d.margin.hex(), d.s_min.hex())

    def index_tuple(d):
        return (d.dim_ker, d.dim_coker, d.ker_route, d.coker_route,
                d.ker_margin.hex(), d.coker_margin.hex())

    diag = equivalence_diagnostics(seq, N)
    arrays = (diag.tails_itt, diag.tails_ltstar, diag.tails_ittstar, diag.ltstar_lower_sq)
    return (
        tuple(x.tobytes() for x in arrays),
        deco_bytes(diag.decomposition),
        index_tuple(diag.index_data),
        deco_bytes(compact_isometry_split(seq, N)),
        tuple(x.tobytes() for x in column_norm_profile(seq, N)),
        index_tuple(index_data(seq, N)),
    )


def test_gram_route_builds_no_dense_section(monkeypatch):
    from trishift import analysis, operators

    N, pad = 256, 64
    H = N + pad
    pairs = (make_pair("sqrt(n+1)", "0.5", H), complex_baseline_pair(37, H))
    before = [_outputs(seq, N) for seq in pairs]
    for before_seq in before:
        assert before_seq[1][2] == "gram"
        assert before_seq[2][2:4] == ("certified", "certified")

    def refuse(*args, **kwargs):
        raise AssertionError("a dense section was built")

    for owner in (analysis, operators):
        for name in ("build_shift", "build_left_inverse"):
            monkeypatch.setattr(owner, name, refuse, raising=False)
    assert [_outputs(seq, N) for seq in pairs] == before


# --------------------------------------------------------------- band route

BAND_N, BAND_PAD = 512, 64
# the corpus families with b/a constant, whose coupling coefficients vanish
WEIGHTED_SHIFTS = (
    "szego", "bergman", "dirichlet", "const-half-b", "high-const-b",
    "alt-a-2", "alt-a-3", "alt-a-15",
)


def _band_families():
    """The corpus, the Baseline and a complex pair with the Baseline's
    moduli, at order ``BAND_N``."""
    H = BAND_N + BAND_PAD
    families = [(fam.name, family_pair(fam, H)) for fam in CORPUS]
    families.append(("baseline", make_pair("sqrt(n+1)", "0.5", H)))
    families.append(("complex", complex_baseline_pair(41, H)))
    return families


def test_band_route_matches_svd_reference():
    taken = set()
    for name, seq in _band_families():
        if compact_isometry_split(seq, BAND_N).route == "band":
            _assert_routes_agree(seq, BAND_N, name, route="band")
            taken.add(name)
    # every passing family whose Gram is banded, the Baseline, its complex
    # twin and the failing weighted shifts, which split in closed form
    passing = {fam.name for fam in PASSING} - {"drifting-b"}
    assert taken == passing | {"baseline", "complex", "alt-a-2", "alt-a-3", "alt-a-15"}


def test_band_route_bounds_the_largest_singular_value_as_the_dense_route():
    # s_up enters the index margins 2 * 1e-8 * s_up * ||X||_F
    for name, seq in _band_families():
        diag = equivalence_diagnostics(seq, BAND_N)
        if diag.decomposition.route != "band":
            continue
        shift = _ShiftRecurrence(seq, BAND_N)
        s_up = _gram_split(shift, shift.gram(), diag.decomposition.margin)[2]
        data = diag.index_data
        for margin, fro in zip((data.ker_margin, data.coker_margin), shift.left_inverse_norms()):
            want = 2.0 * DEFAULT_RANK_TOL * s_up * fro
            assert abs(margin - want) <= 1e-12 * want, name


def test_band_route_leaves_wide_and_indefinite_grams_to_the_dense_route():
    # drifting-b has 1e-2 of its Gram outside the band; the failing families
    # with b != 0 have a Gershgorin lower bound at or below 0
    H = BAND_N + BAND_PAD
    names = ["drifting-b"] + [fam.name for fam in FAILING if fam.b != "0"]
    assert len(names) == 8
    for fam in CORPUS:
        if fam.name not in names:
            continue
        seq = family_pair(fam, H)
        deco = compact_isometry_split(seq, BAND_N)
        assert deco.route == "gram", fam.name
        # the declined band route left the Gram as it was
        shift = _ShiftRecurrence(seq, BAND_N)
        dense = _gram_split(shift, shift.gram(), deco.margin)[0]
        assert deco.column_decay.tobytes() == dense.column_decay.tobytes(), fam.name
        assert deco.isometry_defect == dense.isometry_defect, fam.name


def _counting_block_iterations(monkeypatch):
    """Replace ``_newton_schulz`` by a wrapper that counts its calls in the
    returned list."""
    calls = []
    iterate = analysis._newton_schulz

    def counting(G, scale, eye):
        calls.append(G.shape)
        return iterate(G, scale, eye)

    monkeypatch.setattr(analysis, "_newton_schulz", counting)
    return calls


def test_band_route_reads_a_diagonal_grams_fate_off_its_diagonal(monkeypatch):
    # the corpus weighted shifts (b/a constant, so every c_j = 0) have an
    # exactly diagonal Gram: each takes the band route in closed form,
    # without reading the band, iterating or bracketing
    calls = {}
    for name in ("_band_blocks", "_newton_schulz", "_edge_bracket", "_block_cholesky"):
        def counting(*args, _name=name, _routine=getattr(analysis, name)):
            calls[_name] = calls.get(_name, 0) + 1
            return _routine(*args)

        monkeypatch.setattr(analysis, name, counting)
    H = BAND_N + BAND_PAD
    routes = {
        fam.name: compact_isometry_split(family_pair(fam, H), BAND_N).route
        for fam in CORPUS
        if fam.name in WEIGHTED_SHIFTS
    }
    assert routes == dict.fromkeys(WEIGHTED_SHIFTS, "band")
    assert calls == {}


def _weighted_shift_pairs(H):
    """The corpus weighted shifts and a complex one, the Baseline's moduli
    with seeded phases and ``b = 0``, on horizon ``H``."""
    pairs = [(fam.name, family_pair(fam, H)) for fam in CORPUS if fam.name in WEIGHTED_SHIFTS]
    phased = complex_baseline_pair(2024, H)
    pairs.append(("complex", SequencePair(a=phased.a, b=np.zeros_like(phased.b))))
    return pairs


@pytest.mark.parametrize("N", [512, 1024])
def test_weighted_shifts_split_in_closed_form(monkeypatch, N):
    # |T| = diag|a_j / a_{j+1}|: no eigensolver, SVD, Gram panel or
    # iteration runs, and s_min is the least weight modulus, bit for bit
    H = N + BAND_PAD
    zero_c = {fam.name for fam in CORPUS if not c_coefficients(family_pair(fam, H)).any()}
    assert zero_c == set(WEIGHTED_SHIFTS)
    pairs = _weighted_shift_pairs(H)
    references = [_svd_reference(seq, N)[1] for _, seq in pairs]

    def refuse(*args, **kwargs):
        raise AssertionError("the closed form ran a dense or iterative routine")

    monkeypatch.setattr(np.linalg, "eigh", refuse)
    monkeypatch.setattr(np.linalg, "svd", refuse)
    monkeypatch.setattr(_ShiftRecurrence, "gram_panels", refuse)
    monkeypatch.setattr(analysis, "_newton_schulz", refuse)
    for (name, seq), decay in zip(pairs, references):
        deco = compact_isometry_split(seq, N)
        assert deco.route == "band", name
        assert np.max(np.abs(deco.column_decay - decay)) <= 1e-15, name
        assert deco.s_min == float(np.abs(seq.a[:N] / seq.a[1 : N + 1]).min()), name


def test_one_coupling_coefficient_keeps_the_block_iteration(monkeypatch):
    # b/a steps from 0 to 0.25 inside the window, so c_300 = -0.25 is the one
    # nonzero coupling coefficient and the Gram is not diagonal
    calls = _counting_block_iterations(monkeypatch)
    H = BAND_N + BAND_PAD
    b = np.zeros(H + 1)
    b[301:] = 0.25
    seq = SequencePair(a=np.ones(H + 1), b=b)
    assert np.flatnonzero(c_coefficients(seq)).tolist() == [300]
    assert compact_isometry_split(seq, BAND_N).route == "band"
    assert len(calls) == 1


def _random_stack(rng, offsets, nb, b, dtype, hermitian=False):
    """A random block-banded stack with blocks of order ``b`` at offsets from
    ``-offsets`` up to ``offsets``, zero where a block row does not exist;
    with ``hermitian`` the lower half of a matrix that is Hermitian, bit for
    bit (see :func:`analysis._band_product`)."""
    low = 0 if hermitian else -offsets
    S = rng.standard_normal((offsets - low + 1, nb, b, b))
    if dtype is np.complex128:
        S = S + 1j * rng.standard_normal(S.shape)
    for d in range(low, offsets + 1):
        S[d - low, max(0, nb - d) :] = 0.0  # block row j + d >= nb
        S[d - low, : max(0, -d)] = 0.0  # block row j + d < 0
    if hermitian:
        S[0] += np.conj(S[0].swapaxes(-1, -2))
    return S


def _dense_band(S, low=None):
    """The matrix of the block-banded stack ``S`` whose ``S[k]`` holds offset
    ``low + k``, or of the Hermitian matrix whose lower half it is when
    ``low`` is ``None``."""
    nb, b = S.shape[1], S.shape[2]
    M = np.zeros((nb * b, nb * b), S.dtype)
    for k in range(S.shape[0]):
        d = k if low is None else low + k
        for j in range(max(0, -d), min(nb, nb - d)):
            M[(j + d) * b : (j + d + 1) * b, j * b : (j + 1) * b] = S[k, j]
            if low is None and d:
                M[j * b : (j + 1) * b, (j + d) * b : (j + d + 1) * b] = np.conj(S[k, j].T)
    return M


def _full_stack(S):
    """The ``(2p + 1, nb, b, b)`` stack of all offsets of the Hermitian
    matrix whose lower half is ``S``, ``[p + d]`` holding offset ``d``: the
    layout the band route kept before it stored lower halves."""
    p, nb = S.shape[0] - 1, S.shape[1]
    full = np.zeros((2 * p + 1,) + S.shape[1:], S.dtype)
    full[p:] = S
    for d in range(1, min(p, nb - 1) + 1):  # block (j - d, j) is (j, j - d)^H
        np.conjugate(S[d, : nb - d].swapaxes(-1, -2), out=full[p - d, d:])
    return full


def _within_offsets(M, b, low, high):
    blocks = np.arange(M.shape[0]) // b
    offsets = blocks[:, None] - blocks[None, :]
    return np.where((offsets >= low) & (offsets <= high), M, 0.0)


def _assert_product_matches_dense(out, X, Y, keep, y_low=0, low=None, hermitian=False):
    b = X.shape[2]
    q = Y.shape[0] - 1 + y_low
    r = X.shape[0] - 1 + q if keep is None else keep
    first = 0 if hermitian else -r if low is None else low
    assert out.shape == (r - first + 1,) + X.shape[1:]
    assert out.dtype == np.result_type(X, Y)
    product = _dense_band(X) @ _dense_band(Y, None if y_low == 0 else y_low)
    if hermitian:  # the lower half, and above it its mirror
        want = _within_offsets(product, b, -r, r)
        got = _dense_band(out)
    else:
        want = _within_offsets(product, b, first, r)
        got = _dense_band(out, first)
    assert np.linalg.norm(got - want) <= 1e-15 * np.linalg.norm(want)
    # nothing is written where a block row does not exist
    for k in range(out.shape[0]):
        d = first + k
        assert not out[k, max(0, out.shape[1] - d) :].any()
        assert not out[k, : max(0, -d)].any()


@pytest.mark.parametrize("dtype", [np.float64, np.complex128])
@pytest.mark.parametrize("nb", [1, 2, 9])
def test_band_product_matches_the_dense_product(dtype, nb):
    # a Hermitian X times a general Y, or times a Hermitian Y read through
    # its mirror above the diagonal, with every offset of the product kept,
    # offsets up to 1 kept, or offsets from -1 up kept, as G_b Z keeps them
    rng = np.random.default_rng(nb)
    b = 8
    for p in (1, 2):
        for q in (1, 2):
            X = _random_stack(rng, p, nb, b, dtype, hermitian=True)
            for y_low in (-q, 0):
                Y = _random_stack(rng, q, nb, b, dtype, hermitian=y_low == 0)
                for keep, low in ((None, None), (1, None), (None, -1)):
                    out = _band_product(X, Y, keep, low=low, y_low=y_low)
                    _assert_product_matches_dense(out, X, Y, keep, y_low, low)


def _hermitian_factors(rng, p, q, nb, b, dtype):
    """A Hermitian ``X`` with offsets up to ``p`` and a ``Y`` with offsets up
    to ``q`` and its lowest stored offset, whose product is Hermitian: ``B
    B`` when ``p = q``, ``Z (A Z)`` or ``(T T) T`` otherwise, for Hermitian
    block-tridiagonal ``A``, ``Z`` and ``T``."""
    if p == q:
        B = _random_stack(rng, p, nb, b, dtype, hermitian=True)
        return B, B, 0
    A, Z = (_random_stack(rng, 1, nb, b, dtype, hermitian=True) for _ in range(2))
    if p < q:
        return Z, _band_product(A, Z), -2
    return _band_product(Z, Z, hermitian=True), Z, 0


@pytest.mark.parametrize("dtype", [np.float64, np.complex128])
@pytest.mark.parametrize("nb", [1, 2, 9])
def test_hermitian_band_product_matches_the_dense_product_and_is_exactly_hermitian(dtype, nb):
    rng = np.random.default_rng(10 + nb)
    b = 8
    for p in (1, 2):
        for q in (1, 2):
            X, Y, y_low = _hermitian_factors(rng, p, q, nb, b, dtype)
            for keep in (None, 1):
                out = _band_product(X, Y, keep, hermitian=True, y_low=y_low)
                _assert_product_matches_dense(out, X, Y, keep, y_low, hermitian=True)
                # equal, not the same bytes: conj turns the +0.0 imaginary
                # parts of the diagonal entries into -0.0
                assert np.array_equal(out[0], np.conj(out[0].swapaxes(-1, -2)))
                M = _dense_band(out)
                assert np.array_equal(M, M.conj().T)


@pytest.mark.parametrize("dtype", [np.float64, np.complex128])
@pytest.mark.parametrize("p", [1, 3])
@pytest.mark.parametrize("nb", [1, 2, 9])
def test_band_column_norms_from_lower_stacks_match_the_full_stack_formula(dtype, p, nb):
    # the formula over all 2p + 1 offsets, as the band route applied it
    # before it stored lower halves; blocks of 64 make several chunks of
    # block columns at nb = 9, and moduli over 2^+-30 make the summation
    # order show in the last bits
    rng = np.random.default_rng(100 * p + nb)
    S = _random_stack(rng, p, nb, _BAND, dtype, hermitian=True)
    S *= 2.0 ** rng.integers(-30, 31, S.shape)
    S[0] += np.conj(S[0].swapaxes(-1, -2))  # Hermitian again
    squares = np.abs(_full_stack(S))
    squares *= squares
    want = np.sqrt(np.sum(squares, axis=(0, 2))).ravel()
    got = analysis._band_column_norms(S)
    assert got.shape == (nb * _BAND,) and got.dtype == np.float64
    assert got.tobytes() == want.tobytes()


def _newton_schulz_from_the_identity(G, scale, eye):
    """``_newton_schulz`` as written before its first step skipped the two
    products with ``Z = I``: every product is formed."""
    product = functools.partial(_band_product, keep=1, hermitian=True)
    Y = G / scale
    Z = np.zeros_like(Y)
    Z[0] += eye
    polished = False
    for _ in range(analysis._BAND_STEPS):
        P = product(Z, Y)
        P[0] -= eye
        delta = analysis._band_norm(P)
        if polished:
            return (Y, Z) if delta <= analysis._BAND_SETTLED else None
        polished = delta <= 2.0 * analysis._BAND_POLISH
        P *= -0.5
        P[0] += eye
        _flush_tiny(P)
        Y = product(Y, P)
        Z = product(P, Z)
        _flush_tiny(Y)
        _flush_tiny(Z)
    return None


def test_newton_schulz_skips_the_identity_products_without_moving_a_bit():
    H = BAND_N + BAND_PAD
    for seq in (make_pair("sqrt(n+1)", "0.5", H), complex_baseline_pair(2024, H)):
        shift = _ShiftRecurrence(seq, BAND_N)
        S, _, lo, hi, _ = _band_blocks(shift, -(-BAND_N // _BAND))
        scale = (min(lo, 1.0) + max(hi, 1.0)) / 2.0
        eye = np.eye(_BAND)
        skipped = _newton_schulz(S, scale, eye)
        full = _newton_schulz_from_the_identity(S, scale, eye)
        assert skipped is not None and full is not None
        for x, y in zip(skipped, full):
            assert x.shape == S.shape
            assert x.tobytes() == y.tobytes()


def test_band_blocks_match_the_dense_gram():
    # several panels, the last one ragged at N = 200 and 257: the diagonal
    # and subdiagonal blocks are stored, and the superdiagonal blocks, which
    # are their mirrors, are the dense Gram's bit for bit; the right-hand
    # halves of the row sums are taken from later panels by symmetry
    b = _BAND
    for N in (200, 257, 1024):
        nb = -(-N // b)
        for seq in (make_pair("sqrt(n+1)", "0.5", N + 64), complex_baseline_pair(2024, N + 64)):
            label = (N, seq.a.dtype.kind)
            shift = _ShiftRecurrence(seq, N)
            S, tails, lo, hi, dropped = _band_blocks(shift, nb)
            G = shift.gram()
            padded = np.eye(nb * b, dtype=G.dtype)
            padded[:N, :N] = G
            padded[np.abs(padded) < TINY] = 0.0
            assert S.shape == (2, nb, b, b)
            full = _full_stack(S)
            want = np.zeros_like(full)
            for j in range(nb):
                block = slice(j * b, (j + 1) * b)
                want[1, j] = padded[block, block]
                if j + 1 < nb:
                    want[2, j] = padded[(j + 1) * b : (j + 2) * b, block]
                if j:
                    want[0, j] = padded[(j - 1) * b : j * b, block]
            for k in range(3):
                # equal, not the same bytes: a mirrored zero's imaginary
                # part is -0.0
                assert np.array_equal(full[k], want[k]), (label, k)
            for k in range(1, 3):
                assert full[k].tobytes() == want[k].tobytes(), (label, k)
            itt = np.linalg.norm(np.eye(N) - G, axis=1)
            assert np.max(np.abs(tails - itt)) <= 1e-15, label
            diag = G.diagonal().real
            off = np.abs(G)
            np.fill_diagonal(off, 0.0)
            radius = off.sum(axis=1)
            tol = 1e-14 * max(abs(hi), 1.0)
            assert abs(lo - float((diag - radius).min())) <= tol, label
            assert abs(hi - float((diag + radius).max())) <= tol, label
            blocks = np.arange(N) // b
            outside = np.abs(blocks[:, None] - blocks[None, :]) > 1
            assert dropped >= np.linalg.norm(G[outside]) * (1.0 - 1e-12), label


@pytest.mark.parametrize("spoiled", [0, 1], ids=["Y", "Z"])
def test_band_certificates_refuse_a_wrong_iterate(monkeypatch, spoiled):
    # Y off by 1e-9 fails the Y^2 - G_b residual; Z off by 1e-9 fails only
    # the isometry defect of Z G_b Z - I
    from trishift import analysis

    iterate = analysis._newton_schulz

    def spoiling(*args):
        roots = list(iterate(*args))
        roots[spoiled] = roots[spoiled] * (1.0 + 1e-9)
        return tuple(roots)

    seq = make_pair("sqrt(n+1)", "0.5", BAND_N + BAND_PAD)
    assert compact_isometry_split(seq, BAND_N).route == "band"
    monkeypatch.setattr(analysis, "_newton_schulz", spoiling)
    deco = compact_isometry_split(seq, BAND_N)
    shift = _ShiftRecurrence(seq, BAND_N)
    dense = _gram_split(shift, shift.gram(), deco.margin)[0]
    assert deco.route == "gram"
    assert deco.column_decay.tobytes() == dense.column_decay.tobytes()
    assert (deco.isometry_defect, deco.s_min) == (dense.isometry_defect, dense.s_min)


def test_band_route_leaves_a_block_iteration_past_the_step_cap_to_the_dense_route(
    monkeypatch,
):
    # a Gram that is banded but not diagonal, with Gershgorin lo > 0, whose
    # eigenvalue ratio the step cap cannot bridge
    calls = _counting_block_iterations(monkeypatch)
    seq = make_pair("1 + 0.5*(-1)^n", "0.02", BAND_N + BAND_PAD)
    deco = compact_isometry_split(seq, BAND_N)
    assert deco.route == "gram" and len(calls) == 1
    shift = _ShiftRecurrence(seq, BAND_N)
    dense = _gram_split(shift, shift.gram(), deco.margin)[0]
    assert deco.column_decay.tobytes() == dense.column_decay.tobytes()
    assert (deco.isometry_defect, deco.s_min) == (dense.isometry_defect, dense.s_min)


def test_band_route_takes_no_dense_factorization(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a dense factorization ran")

    monkeypatch.setattr(np.linalg, "eigh", refuse)
    monkeypatch.setattr(np.linalg, "svd", refuse)
    H = BAND_N + BAND_PAD
    for seq in (make_pair("sqrt(n+1)", "0.5", H), complex_baseline_pair(41, H)):
        diag = equivalence_diagnostics(seq, BAND_N)
        assert diag.decomposition.route == "band"
        assert diag.decomposition.isometry_defect <= 1e-13
        data = diag.index_data
        assert (data.ker_route, data.coker_route, data.index) == ("certified", "certified", -1)


def test_band_route_forms_no_dense_gram(monkeypatch):
    # the band route reads G's panels; only a declined band route forms G
    calls = []
    gram = _ShiftRecurrence.gram

    def counting(self):
        calls.append(self.N)
        return gram(self)

    monkeypatch.setattr(_ShiftRecurrence, "gram", counting)
    fam = next(fam for fam in CORPUS if fam.name == "alt-b-half")
    assert compact_isometry_split(family_pair(fam, BAND_N + BAND_PAD), BAND_N).route == "gram"
    assert calls == [BAND_N]

    def refuse(self):
        raise AssertionError("the dense Gram was formed")

    monkeypatch.setattr(_ShiftRecurrence, "gram", refuse)
    N = 1024
    seq = make_pair("sqrt(n+1)", "0.5", N + BAND_PAD)
    assert compact_isometry_split(seq, N).route == "band"
    assert equivalence_diagnostics(seq, N).decomposition.route == "band"


def test_band_split_allocates_less_than_the_dense_gram():
    # G alone is 8 N^2 bytes; the band route holds O(N _BAND) at a time
    N = 4096
    seq = make_pair("sqrt(n+1)", "0.5", N + BAND_PAD)
    tracemalloc.start()
    try:
        deco = compact_isometry_split(seq, N)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert deco.route == "band"
    assert peak < 8 * N * N


def test_band_split_peaks_within_four_point_four_stacks_of_its_band():
    # the Baseline at order 2048: one block-tridiagonal stack of G_b, in
    # the three-offset unit, is 3 * 32 * 64 * 64 * 8 bytes, 3.1 MB; every
    # Hermitian stack keeps its lower half, the products read the stacks in
    # place and G_b Z keeps only the offsets that Z (G_b Z) reads
    N = 2048
    seq = make_pair("sqrt(n+1)", "0.5", N + BAND_PAD)
    stack = 3 * (N // _BAND) * _BAND * _BAND * 8
    tracemalloc.start()
    try:
        deco = compact_isometry_split(seq, N)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert deco.route == "band"
    assert peak <= 4.4 * stack, peak / stack


def test_band_route_is_bitwise_invariant_under_exact_rescaling():
    H = BAND_N + BAND_PAD
    base = make_pair("1", "1/2^n", H)
    scaled = make_pair("3", "3/2^n", H)
    assert np.array_equal(scaled.a, 3.0 * base.a)
    assert np.array_equal(scaled.b, 3.0 * base.b)
    first = _outputs(base, BAND_N)
    assert first[1][2] == "band"
    assert _outputs(base, BAND_N) == first  # repeats byte for byte
    assert _outputs(scaled, BAND_N) == first


# ------------------------------------------------------------------- neumann


def test_neumann_error_within_bound():
    # with no slack: the Baseline's and the complex family's tail blocks at
    # order 512 (K = 256), where the rounded difference A2 - S_m of two
    # matrices read above the bound on 12 and 14 rows
    inputs = [
        (make_pair("1", "1/(n+1)", 140), 1, 120),
        (make_pair("sqrt(n+1)", "0.5", 512 + 64), 0, 258),
        (complex_baseline_pair(2024, 512 + 64), 0, 258),
    ]
    for seq, n0, N in inputs:
        curve = neumann_error_curve(seq, n0, N, 40)
        for m, err, bound in curve:
            assert err <= bound, (N, m, err, bound)


def test_neumann_error_ratio_geometric():
    seq = make_pair("1", "1/(n+1)", 140)
    curve = neumann_error_curve(seq, 1, 120, 40)
    weights = np.abs(seq.b[3:-1] / seq.a[4:])
    r = float(weights.max())
    for (_, e0, _), (_, e1, _) in zip(curve, curve[1:]):
        assert e1 <= r * e0 * (1 + 1e-8)


def test_neumann_errors_match_dense_norms_of_the_remainder(monkeypatch):
    # each row against two dense references: the norm of A2's part below its
    # m-th subdiagonal, and the norm of the rounded difference A2 - S_m that
    # the curve used to report; the dense fallback runs only where Lanczos
    # does not certify, which on alt-b-half (a flat top spectrum) is every
    # row, and pulsed-b's remainders exhaust their Krylov space in two steps,
    # which proves their Ritz values.
    # The piecewise pair's b/a changes only 5 rows before the block's end, so
    # c vanishes above that and A2's rows there are zero: every remainder
    # past m = 4 is zero
    H = 512 + 64
    families = {f.name: f for f in CORPUS}
    piecewise = np.where(np.arange(H + 1) < 256 - 5, 0.5, 0.25)
    inputs = {
        "baseline": make_pair("sqrt(n+1)", "0.5", H),
        "complex": complex_baseline_pair(2024, H),
        **{name: family_pair(families[name], H)
           for name in ("harmonic-b", "alt-b-half", "pulsed-b")},
        "piecewise": materialize(CoefficientSpec([1.0] * (H + 1), piecewise.tolist()), H),
    }
    calls = []
    dense = analysis._spectral_norm

    def counted(E):
        calls.append(E.shape)
        return dense(E)

    for label, seq in inputs.items():
        calls.clear()
        with monkeypatch.context() as patch:
            patch.setattr(analysis, "_spectral_norm", counted)
            curve = neumann_error_curve(seq, 0, 258, 40)
        fallbacks = len(calls)
        W, D, A2 = build_tail_blocks(seq, 0, 258)
        scale = dense(A2.entries)
        for m, err, _ in curve:
            exact = dense(np.tril(A2.entries, -(m + 1)))
            assert abs(err - exact) <= 1e-13 * exact, (label, m, err, exact)
            rounded = dense(A2.entries - neumann_partial_sum(W, D, m).entries)
            assert abs(err - rounded) <= 1e-15 * scale, (label, m, err, rounded)
        if label == "baseline":
            assert fallbacks == 0
        if label == "alt-b-half":
            assert fallbacks > 0


def test_remainder_norms_accept_an_invariant_krylov_space(monkeypatch):
    # A2 = I: B_m is |g_m|^2 on its first K-1-m diagonal entries, a top
    # eigenvalue of multiplicity K-1-m that no trace test separates, but the
    # all-ones start spans an invariant space after two steps
    K = 64
    monkeypatch.setattr(analysis, "_spectral_norm", None)  # any call fails
    norms = analysis._remainder_norms(np.eye(K), np.full(K - 1, 0.5), 40)
    for m, norm in enumerate(norms):
        assert abs(norm - 0.5 ** (m + 1)) <= 1e-15 * 0.5 ** (m + 1), (m, norm)


def test_neumann_zero_for_constant_b():
    seq = make_pair("1", "0.5", 60)
    curve = neumann_error_curve(seq, 1, 40, 10)
    assert all(err == 0.0 and bound == 0.0 for _, err, bound in curve)


def test_neumann_exact_after_nilpotency():
    seq = make_pair("1", "1/(n+1)", 40)
    N = 20
    K = N - 1 - 2
    curve = neumann_error_curve(seq, 1, N, K + 4)
    for m, err, _ in curve:
        if m >= K:
            assert err < 1e-15


@pytest.mark.parametrize("dtype", [np.float64, np.complex128])
def test_spectral_norm_matches_the_svd_norm(dtype):
    # the Neumann curve's norms come from the Gram's largest eigenvalue after
    # an exact power-of-two scaling: the SVD's 2-norm to a few ulps, at
    # magnitudes whose squares would leave the double range
    rng = np.random.default_rng(53)
    for exponent in (-600, 0, 600):
        E = rng.standard_normal((40, 40))
        if dtype is np.complex128:
            E = E + 1j * rng.standard_normal((40, 40))
        E = E.astype(dtype) * 2.0**exponent
        want = float(np.linalg.norm(E, 2))
        assert abs(_spectral_norm(E) - want) <= 64 * np.finfo(float).eps * want
    assert _spectral_norm(np.zeros((8, 8), dtype)) == 0.0


def test_neumann_bound_unavailable():
    seq = make_pair("1", "1.2", 60)
    with pytest.raises(BoundUnavailableError):
        neumann_error_curve(seq, 1, 40, 10)


# ----------------------------------------------------------- scaling covariance


def test_scaling_covariance_bitwise():
    # 3x a dyadic family is exact in floating point, so every ratio-derived
    # quantity must agree bit for bit
    N, pad = 64, 16
    base = make_pair("1", "1/2^n", N + pad)
    scaled = make_pair("3", "3/2^n", N + pad)
    assert np.array_equal(scaled.a, 3.0 * base.a)
    assert np.array_equal(scaled.b, 3.0 * base.b)

    m_base = build_shift(base, N).entries
    m_scaled = build_shift(scaled, N).entries
    assert np.array_equal(m_base, m_scaled)

    crit_base = check_main_criterion(base.trimmed(N), tol=1e-2)
    crit_scaled = check_main_criterion(scaled.trimmed(N), tol=1e-2)
    assert crit_base.verdict == crit_scaled.verdict
    assert crit_base.trailing_max_ratio_dev == crit_scaled.trailing_max_ratio_dev
    assert crit_base.trailing_max_diff_dev == crit_scaled.trailing_max_diff_dev
    assert np.array_equal(crit_base.ratio_dev, crit_scaled.ratio_dev)
    assert np.array_equal(crit_base.diff_dev, crit_scaled.diff_dev)

    p_base, lb_base = column_norm_profile(base, N)
    p_scaled, lb_scaled = column_norm_profile(scaled, N)
    assert np.array_equal(p_base, p_scaled)
    assert np.array_equal(lb_base, lb_scaled)

    d_base = compact_isometry_split(base, N)
    d_scaled = compact_isometry_split(scaled, N)
    assert np.array_equal(d_base.column_decay, d_scaled.column_decay)
    assert d_base.isometry_defect == d_scaled.isometry_defect
