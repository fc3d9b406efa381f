"""Acceptance suite: one test per criterion, one pass/fail line per test.

The corpus (tests/corpus_families.py) holds ten criterion-passing and ten
criterion-failing families, all satisfying the standing assumptions at every
horizon used here.
"""

import json
import math

import numpy as np

from trishift import (
    PointSet,
    adjoint_residual_grid,
    build_adjoint,
    build_blocks,
    build_left_inverse,
    build_shift,
    c_coefficients,
    check_main_criterion,
    column_norm_profile,
    compact_isometry_split,
    d_coefficients,
    defect_matrix,
    equivalence_diagnostics,
    eval_kernel,
    gram_matrix,
    index_data,
    neumann_error_curve,
)
from trishift.cli import main as cli_main

from corpus_families import CORPUS, family_pair, make_pair


def _report(num: int, text: str) -> None:
    print(f"ACCEPTANCE {num}: PASS - {text}")


def test_criterion_1_identity_suite():
    """d/c identity, adjoint, left inverse, defect projection, block split."""
    N = 512
    tol = 1e-10
    for fam in CORPUS:
        seq = family_pair(fam, N)
        c = c_coefficients(seq)
        d = d_coefficients(seq)
        dev_dc = np.max(np.abs(d[: N - 1] + (seq.a[2:] / seq.a[:-2]) * c))
        assert dev_dc < tol, f"{fam.name}: d/c identity deviation {dev_dc:.2e}"

        M = build_shift(seq, N).entries
        A = build_adjoint(seq, N).entries
        dev_adj = np.max(np.abs(A - M.conj().T))
        assert dev_adj < tol, f"{fam.name}: adjoint deviation {dev_adj:.2e}"

        L = build_left_inverse(seq, N).entries
        w = N - 1
        dev_lm = np.max(np.abs((L @ M)[:w, :w] - np.eye(w)))
        assert dev_lm < tol, f"{fam.name}: L*M identity deviation {dev_lm:.2e}"

        defect = np.eye(N) - M @ L
        rank_one = np.zeros((N, N), dtype=complex)
        rank_one[0, 0] = 1.0
        dev_ml = np.max(np.abs((defect - rank_one)[:w, :w]))
        assert dev_ml < tol, f"{fam.name}: I-M*L projection deviation {dev_ml:.2e}"

        blocks = build_blocks(seq, N)
        ustar = blocks.u.entries.conj().T
        recon = (
            blocks.b1.entries @ ustar
            + blocks.b2.entries.conj().T @ (ustar @ ustar)
            + blocks.b3.entries
        )
        target = (L - A)[1:, 1:]
        wb = N - 3
        dev_b = np.max(np.abs((target - recon)[:wb, :wb]))
        assert dev_b < tol, f"{fam.name}: block reconstruction deviation {dev_b:.2e}"
    _report(1, f"five exact identities on 20 families at N={N}, deviations < {tol:g}")


def test_criterion_2_verdict_decay_linkage():
    """Verdicts match the criterion and link to the difference-column decay."""
    N, pad, tol = 1024, 64, 1e-2
    for fam in CORPUS:
        seq = family_pair(fam, N + pad)
        rep = check_main_criterion(seq.trimmed(N), tol=tol, window=N // 4)
        assert rep.verdict == fam.expected, (
            f"{fam.name}: verdict {rep.verdict}, expected {fam.expected}"
        )
        profile, _ = column_norm_profile(seq, N)
        trailing_quarter = float(profile[3 * N // 4 :].max())
        if rep.verdict == "holds":
            assert trailing_quarter < 5 * tol, (
                f"{fam.name}: holds but trailing profile {trailing_quarter:.3e}"
            )
        else:
            assert trailing_quarter > tol, (
                f"{fam.name}: fails but trailing profile {trailing_quarter:.3e}"
            )
    _report(2, f"zero misclassifications on 20 families at N={N}, tol={tol:g}")


def test_criterion_3_weighted_shift_reduction():
    """Diagonal families: ||(I - T*T) f_n|| equals |1 - |w_n|^2| exactly."""
    N, pad = 512, 64
    diagonal = [fam for fam in CORPUS if fam.b == "0"]
    assert len(diagonal) >= 4
    for fam in diagonal:
        seq = family_pair(fam, N + pad)
        diag = equivalence_diagnostics(seq, N)
        w = np.abs(seq.a[:N] / seq.a[1 : N + 1])
        target = np.abs(1.0 - w**2)
        dev = np.max(np.abs(diag.tails_itt - target))
        assert dev < 1e-12, f"{fam.name}: weighted-shift reduction deviation {dev:.2e}"
    seq = family_pair([f for f in CORPUS if f.name == "bergman"][0], N + pad)
    diag = equivalence_diagnostics(seq, N)
    n = np.arange(N)
    dev = np.max(np.abs(diag.tails_itt - 1.0 / (n + 2.0)))
    assert dev < 1e-12, f"bergman profile vs 1/(n+2): {dev:.2e}"
    _report(3, f"{len(diagonal)} diagonal families reduce exactly; bergman tail = 1/(n+2)")


def test_criterion_4_decomposition_oracle():
    """Polar split: exactly isometric family vs uniformly non-compact one."""
    N, pad = 512, 64
    interior = N - pad
    iso = make_pair("1", "0.5", N + pad)
    deco = compact_isometry_split(iso, N)
    worst = float(deco.column_decay[:interior].max())
    assert worst < 1e-10, f"isometric family decay {worst:.2e}"

    alt = make_pair("1", "0.5*(-1)^n", N + pad)
    deco_alt = compact_isometry_split(alt, N)
    floor = float(deco_alt.column_decay[:interior].min())
    assert floor > 0.5, f"alternating family decay floor {floor:.3f}"
    _report(4, f"split oracle: isometric max {worst:.1e} < 1e-10, alternating min {floor:.2f} > 0.5")


def test_criterion_5_neumann_bound():
    """Partial-sum errors stay below the geometric bound and decay at rate r."""
    seq = make_pair("1", "1/(n+1)", 160)
    n0, N, m_max = 1, 140, 40
    curve = neumann_error_curve(seq, n0, N, m_max)
    weights = np.abs(seq.b[n0 + 2 : -1] / seq.a[n0 + 3 :])
    r_hat = float(weights.max())
    for m, err, bound in curve:
        if 1 <= m <= 40:
            assert err <= bound, f"m={m}: error {err:.3e} > bound {bound:.3e}"
    for (_, e0, _), (_, e1, _) in zip(curve, curve[1:]):
        assert e1 <= r_hat * e0 * (1 + 1e-8)
    _report(5, f"measured errors below M0 r^(m+1)/(1-r) for m <= {m_max}, ratio <= {r_hat:.2f}")


def test_criterion_6_lower_bound_inequality():
    """||(L - M*) f_{n+2}||^2 >= |c_n|^2 + |ratio difference|^2 on the corpus."""
    N, pad = 512, 64
    worst = np.inf
    for fam in CORPUS:
        seq = family_pair(fam, N + pad)
        profile, lower_sq = column_norm_profile(seq, N)
        gap = float(np.min(profile**2 - lower_sq))
        worst = min(worst, gap)
        assert gap >= -1e-12, f"{fam.name}: lower-bound gap {gap:.2e}"
    _report(6, f"squared profile dominates the term floor; worst gap {worst:.2e} >= -1e-12")


def test_criterion_7_index():
    """(dim ker, dim coker, index) = (0, 1, -1) at N in {64, 256, 1024}."""
    pad = 64
    for N in (64, 256, 1024):
        for fam in CORPUS:
            seq = family_pair(fam, N + pad)
            data = index_data(seq, N)
            assert (data.dim_ker, data.dim_coker, data.index) == (0, 1, -1), (
                f"{fam.name} at N={N}: {data}"
            )
    _report(7, "index data (0, 1, -1) for 20 families at N in {64, 256, 1024}")


def test_criterion_8_kernel_suite():
    """Closed form, Gram positivity, eigenvector residuals, defect identity."""
    szego = make_pair("1", "0", 512)
    rng = np.random.default_rng(20240813)
    # 25-point polar grid with |z|, |w| <= 0.9
    grid = [
        r * np.exp(2j * np.pi * k / 5.0)
        for r in (0.1, 0.3, 0.5, 0.7, 0.9)
        for k in range(5)
    ]
    worst_closed_form = 0.0
    for z in grid:
        for w in grid:
            kv = eval_kernel(szego, z, w, 1e-10)
            assert kv.converged
            worst_closed_form = max(
                worst_closed_form, abs(kv.value - 1.0 / (1.0 - z * np.conj(w)))
            )
    assert worst_closed_form < 1e-8

    least = np.inf
    for fam_a, fam_b in (("1", "0"), ("sqrt(n+1)", "0"), ("1", "1/(n+1)")):
        seq = make_pair(fam_a, fam_b, 256)
        pts = PointSet(
            tuple(
                0.6 * rng.uniform() * np.exp(2j * np.pi * rng.uniform())
                for _ in range(8)
            )
        )
        G = gram_matrix(seq, pts, 1e-10)
        least = min(least, float(np.linalg.eigvalsh(G)[0]))
        assert least >= -1e-8

    residual_pts = PointSet(
        tuple(0.9 * np.exp(2j * np.pi * k / 8) for k in range(8)) + (0.0, 0.45j)
    )
    for fam_a, fam_b in (("1", "0"), ("sqrt(n+1)", "0"), ("1", "1/(n+1)")):
        seq = make_pair(fam_a, fam_b, 512)
        for residual, certificate in adjoint_residual_grid(seq, residual_pts, 512):
            assert residual <= certificate

    for fam in CORPUS[::4]:
        seq = family_pair(fam, 128)
        N = 96
        C = defect_matrix(seq, N).entries
        M = build_shift(seq, N).entries
        dev = np.max(np.abs(C - (np.eye(N) - M @ M.conj().T)))
        assert dev < 1e-12
    _report(8, f"kernel suite: closed form within {worst_closed_form:.1e}, "
               f"Gram least eigenvalue {least:.1e}, residuals certified")


def test_criterion_8_residuals_certified_with_padding():
    """Criterion 8's residual loop at horizon N + 64: finite certificates."""
    residual_pts = PointSet(
        tuple(0.9 * np.exp(2j * np.pi * k / 8) for k in range(8)) + (0.0, 0.45j)
    )
    for fam_a, fam_b in (("1", "0"), ("sqrt(n+1)", "0"), ("1", "1/(n+1)")):
        seq = make_pair(fam_a, fam_b, 512 + 64)
        for residual, certificate in adjoint_residual_grid(seq, residual_pts, 512):
            assert math.isfinite(certificate)
            assert residual <= certificate
    _report(8, "residuals certified by finite bounds at horizon N + 64")


def test_criterion_9_scaling_invariance(tmp_path):
    """Reports for (a, b) and (3a, 3b) agree to the last serialized byte."""
    N = 256
    specs = {
        "base": {"label": "scaling-check", "a": "1", "b": "1/2^n"},
        "scaled": {"label": "scaling-check", "a": "3", "b": "3/2^n"},
    }
    dyadic = [2.0**-k for k in range(N + 65)]
    list_specs = {
        "base": {
            "label": "scaling-list",
            "a": [[1.0, 0.0]] * (N + 65),
            "b": [[v, 0.0] for v in dyadic],
        },
        "scaled": {
            "label": "scaling-list",
            "a": [[3.0, 0.0]] * (N + 65),
            "b": [[3.0 * v, 0.0] for v in dyadic],
        },
    }
    # real division is correctly rounded, so a real family is invariant under
    # any exactly representable factor, not only under powers of two
    affine_specs = {
        "base": {"label": "scaling-affine", "a": "n+1", "b": "0.5"},
        "scaled": {"label": "scaling-affine", "a": "3*(n+1)", "b": "1.5"},
    }
    groups = (("expr", specs), ("list", list_specs), ("affine", affine_specs))
    for group, pair in groups:
        outputs = {}
        for tag, doc in pair.items():
            spec_path = tmp_path / f"{group}-{tag}.json"
            spec_path.write_text(json.dumps(doc), encoding="utf-8")
            out = tmp_path / f"{group}-{tag}-out"
            for command in ("check", "decompose", "profile"):
                code = cli_main(
                    [command, "--spec", str(spec_path), "--order", str(N),
                     "--pad", "64", "--tol", "1e-2", "--out", str(out)]
                )
                assert code == 0
            outputs[tag] = {
                p.name: p.read_bytes() for p in sorted(out.iterdir())
            }
        assert outputs["base"].keys() == outputs["scaled"].keys()
        for name in outputs["base"]:
            assert outputs["base"][name] == outputs["scaled"][name], (
                f"{group}: {name} differs between (a,b) and (3a,3b)"
            )
    _report(9, "check/decompose/profile outputs byte-identical under exact 3x scaling")
