import numpy as np
import pytest

from trishift import (
    CoefficientSpec,
    SequencePair,
    SequenceSpecError,
    ZeroCoefficientError,
    c_coefficients,
    d_coefficients,
    materialize,
    parse_sequence_expr,
    spec_from_document,
    validate_assumptions,
)

from corpus_families import make_pair


def test_materialize_constant():
    seq = make_pair("1", "0", 4)
    assert np.array_equal(seq.a, np.ones(5, dtype=complex))
    assert np.array_equal(seq.b, np.zeros(5, dtype=complex))


def test_materialize_sqrt_family():
    seq = make_pair("sqrt(n+1)", "0", 2)
    assert np.allclose(seq.a, [1.0, np.sqrt(2.0), np.sqrt(3.0)], rtol=0, atol=1e-15)


def test_zero_coefficient_error_names_index():
    spec = CoefficientSpec([1.0, 0.0, 1.0], [0.0, 0.0, 0.0])
    with pytest.raises(ZeroCoefficientError) as exc:
        materialize(spec, 2)
    assert exc.value.index == 1


def test_explicit_list_too_short():
    spec = CoefficientSpec([1.0, 1.0], [0.0, 0.0])
    with pytest.raises(SequenceSpecError):
        materialize(spec, 4)


def test_explicit_list_min_length():
    with pytest.raises(SequenceSpecError):
        CoefficientSpec([1.0], [0.0, 0.0])


def test_small_horizon_rejected():
    spec = CoefficientSpec(parse_sequence_expr("1"), parse_sequence_expr("0"))
    with pytest.raises(ValueError):
        materialize(spec, 1)


def test_assumptions_trivial_family():
    rep = validate_assumptions(make_pair("1", "0", 16))
    assert rep.eps_hat == rep.m_hat == 1.0
    assert rep.r_hat == 0.0
    assert rep.n0_hat == 0
    assert all(rep.flags().values())


def test_assumptions_geometric_family():
    rep = validate_assumptions(make_pair("2^(-n)", "0", 16))
    assert rep.eps_hat == 2.0
    assert rep.m_hat == 2.0


def test_assumptions_n0():
    rep = validate_assumptions(make_pair("1", "1/(n+1)", 16), r_target=0.5)
    assert rep.n0_hat == 1
    assert rep.tail_ratio_below_target


def test_assumptions_n0_not_attained():
    rep = validate_assumptions(make_pair("1", "2 + (-1)^n", 16), r_target=0.5)
    assert rep.n0_hat == -1
    assert not rep.tail_ratio_below_target


def test_assumptions_diagonal_reduction():
    for a_text in ("1", "sqrt(n+1)", "2 + 1/(n+1)"):
        rep = validate_assumptions(make_pair(a_text, "0", 32))
        assert rep.r_hat == 0.0
        assert rep.n0_hat == 0


def test_r_target_validated():
    seq = make_pair("1", "0", 8)
    with pytest.raises(ValueError):
        validate_assumptions(seq, r_target=1.0)


def test_c_vanishes_for_constant_ratio():
    seq = make_pair("1", "0.7", 12)
    assert np.max(np.abs(c_coefficients(seq))) == 0.0


def test_c_harmonic_family():
    seq = make_pair("1", "1/(n+1)", 12)
    c = c_coefficients(seq)
    n = np.arange(11)
    assert np.allclose(c, 1.0 / ((n + 1.0) * (n + 2.0)), rtol=1e-14, atol=0)
    assert c[0] == 0.5


def test_c_alternating_family():
    seq = make_pair("1", "0.5*(-1)^n", 12)
    c = c_coefficients(seq)
    assert np.array_equal(c.real, (-1.0) ** np.arange(11))
    assert np.max(np.abs(c.imag)) == 0.0


def test_d_vanishes_for_constant_ratio():
    seq = make_pair("1", "0.3", 12)
    assert np.max(np.abs(d_coefficients(seq))) == 0.0


def test_d_geometric_family():
    seq = make_pair("2^n", "1", 20)
    d = d_coefficients(seq)
    n = np.arange(20)
    assert np.array_equal(d.real, -(2.0 ** (-n - 1.0)))


def test_d_harmonic_family():
    seq = make_pair("1", "1/(n+1)", 12)
    assert d_coefficients(seq)[0] == -0.5


def test_c_d_identity_on_random_families():
    rng = np.random.default_rng(90125)
    for _ in range(25):
        N = int(rng.integers(4, 40))
        mags = rng.uniform(0.5, 2.0, N + 1)
        phases = np.exp(2j * np.pi * rng.uniform(0.0, 1.0, N + 1))
        a = mags * phases
        b = rng.uniform(-0.6, 0.6, N + 1) + 1j * rng.uniform(-0.6, 0.6, N + 1)
        seq = SequencePair(a=a, b=b)
        c = c_coefficients(seq)
        d = d_coefficients(seq)
        dev = np.abs(d[: N - 1] + (seq.a[2:] / seq.a[:-2]) * c)
        scale = np.maximum(1.0, np.abs(d[: N - 1]))
        assert np.max(dev / scale) < 1e-12


def test_assumption_ordering_invariant():
    # 0 < eps_hat <= M_hat on arbitrary admissible families
    rng = np.random.default_rng(97)
    for _ in range(20):
        N = int(rng.integers(4, 64))
        a = rng.uniform(0.5, 2.0, N + 1) * np.exp(2j * np.pi * rng.uniform(0, 1, N + 1))
        b = 0.2 * rng.standard_normal(N + 1)
        rep = validate_assumptions(SequencePair(a=a, b=b + 0j))
        assert 0.0 < rep.eps_hat <= rep.m_hat
        if rep.tail_ratio_below_target:
            assert 0 <= rep.n0_hat <= N


def test_pure_functions_are_deterministic():
    seq = make_pair("sqrt(n+1)", "1/(n+2)", 24)
    assert np.array_equal(c_coefficients(seq), c_coefficients(seq))
    assert np.array_equal(d_coefficients(seq), d_coefficients(seq))


def test_arrays_are_frozen():
    seq = make_pair("1", "0", 8)
    with pytest.raises(ValueError):
        seq.a[0] = 2.0


def test_trimmed_restriction():
    seq = make_pair("sqrt(n+1)", "1/(n+1)", 20)
    sub = seq.trimmed(10)
    assert sub.horizon == 10
    assert np.array_equal(sub.a, seq.a[:11])


def test_spec_from_document_expression_and_list():
    doc = {"label": "demo", "a": "sqrt(n+1)", "b": [[0.5, 0.0], [0.5, 0.0], [0.5, 0.0]]}
    spec = spec_from_document(doc)
    assert spec.label == "demo"
    seq = materialize(spec, 2)
    assert seq.b[1] == 0.5 + 0j


def test_spec_from_document_rejects_bad_shapes():
    with pytest.raises(SequenceSpecError):
        spec_from_document({"a": "1"})  # missing b
    with pytest.raises(SequenceSpecError):
        spec_from_document({"a": "1", "b": [[1.0]]})
    with pytest.raises(SequenceSpecError):
        spec_from_document({"a": "1", "b": [["x", 0.0], [0.0, 0.0]]})
    with pytest.raises(SequenceSpecError):
        spec_from_document({"a": 3, "b": "0"})
    with pytest.raises(SequenceSpecError):
        spec_from_document([1, 2])
    with pytest.raises(SequenceSpecError):
        spec_from_document({"label": 7, "a": "1", "b": "0"})


def test_available_horizon():
    spec = CoefficientSpec(parse_sequence_expr("1"), [0.0] * 9)
    assert spec.available_horizon() == 8
    spec2 = CoefficientSpec(parse_sequence_expr("1"), parse_sequence_expr("0"))
    assert spec2.available_horizon() is None
