import json
import math

import numpy as np

from trishift import (
    SequencePair,
    check_main_criterion,
    compact_isometry_split,
    equivalence_diagnostics,
    validate_assumptions,
)
from trishift.reporting import (
    _cell,
    check_report,
    decompose_report,
    flatten_scalars,
    full_report,
    render_json,
    sanitize,
    write_csv,
    write_report,
)


def test_to_jsonable_handles_numpy_and_complex():
    # sanitize turns numpy values and complex numbers into plain Python
    # values in the same walk that replaces non-finite entries
    tree = {
        "x": np.float64(1.5),
        "k": np.int64(7),
        "flag": np.bool_(True),
        "z": np.complex128(1 + 2j),
        "zs": np.array([1 - 1j, 0.5j]),
        "w": 3 + 4j,
        "t": (1, 2.5),
        "v": np.array([0.5, np.inf, 2.0]),
    }
    clean, errors = sanitize(tree)
    assert clean == {
        "x": 1.5, "k": 7, "flag": True, "z": [1.0, 2.0],
        "zs": [[1.0, -1.0], [0.0, 0.5]], "w": [3.0, 4.0], "t": [1, 2.5],
        "v": [0.5, None, 2.0],
    }
    assert errors == ["v[1]"]
    assert [type(clean[k]) for k in ("x", "k", "flag")] == [float, int, bool]
    assert all(type(x) is float for x in clean["z"] + clean["zs"][0])
    json.dumps(clean)


def test_sanitize_replaces_nonfinite_and_records_paths():
    tree = {"a": 1.0, "b": math.inf, "c": [0.5, math.nan, {"d": -math.inf}]}
    clean, errors = sanitize(tree)
    assert clean == {"a": 1.0, "b": None, "c": [0.5, None, {"d": None}]}
    assert sorted(errors) == ["b", "c[1]", "c[2].d"]


def test_render_json_is_finite_and_deterministic():
    tree = {"value": math.inf, "name": "x"}
    text1, errors = render_json(tree)
    text2, _ = render_json(tree)
    assert text1 == text2
    assert errors == ["value"]
    parsed = json.loads(text1)
    assert parsed["value"] is None
    assert parsed["errors"] == ["non-finite value at value"]
    assert "Infinity" not in text1 and "NaN" not in text1


def test_flatten_scalars_skips_arrays():
    tree = {"b": {"y": 2, "x": 1}, "a": 0.5, "arr": [1, 2, 3]}
    rows = flatten_scalars(tree)
    assert rows == [("a", 0.5), ("b.x", 1), ("b.y", 2)]


def test_write_csv_cells(tmp_path):
    path = tmp_path / "t.csv"
    write_csv(path, ["k", "v"],
              [("a", 0.5), ("b", True), ("c", math.inf), ("d", 3), ("e", None)])
    lines = path.read_text().splitlines()
    assert lines == ["k,v", "a,0.5", "b,1", "c,", "d,3", "e,"]


def test_cell_strings():
    cases = [
        (0.5, "0.5"), (1.0 / 3.0, "0.3333333333333333"), (1e300, "1e+300"),
        (np.float64(0.25), "0.25"), (np.float64(np.inf), ""), (np.float64(np.nan), ""),
        (-0.0, "-0.0"), (math.nan, ""), (math.inf, ""), (-math.inf, ""),
        (True, "1"), (False, "0"), (3, "3"), (np.int64(-7), "-7"), (None, ""),
        ("band", "band"),
    ]
    for value, text in cases:
        cell = _cell(value)
        assert type(cell) is str and cell == text, (value, cell)


def test_repr_float_roundtrip(tmp_path):
    value = 1.0 / 3.0
    path = tmp_path / "r.csv"
    write_csv(path, ["v"], [(value,)])
    text = path.read_text().splitlines()[1]
    assert float(text) == value


def test_write_report_lists_nonfinite_paths_in_both_formats(tmp_path):
    tree = {"n": np.int64(3), "v": np.array([1.0, np.nan]), "x": np.float64(np.inf)}
    write_report(tree, tmp_path / "r.json", "json")
    write_report(tree, tmp_path / "r.csv", "csv")
    doc = json.loads((tmp_path / "r.json").read_text())
    assert doc == {"n": 3, "v": [1.0, None], "x": None,
                   "errors": ["non-finite value at v[1]", "non-finite value at x"]}
    assert (tmp_path / "r.csv").read_text().splitlines() == [
        "key,value", "n,3", "x,",
        "errors.0,non-finite value at v[1]", "errors.1,non-finite value at x",
    ]


def _rendered_reports(seq: SequencePair, N: int) -> list[str]:
    # the reports as the command line assembles them from a padded horizon
    rep_seq = seq.trimmed(N)
    rep = validate_assumptions(rep_seq)
    crit = check_main_criterion(rep_seq, 1e-2)
    pad = seq.horizon - N
    reports = (
        check_report("fam", N, rep, crit),
        decompose_report("fam", N, pad, rep, compact_isometry_split(seq, N)),
        full_report("fam", N, pad, rep, crit, equivalence_diagnostics(seq, N)),
    )
    return [render_json(tree)[0] for tree in reports]


def test_reports_are_bytewise_invariant_under_exact_rescaling():
    # real families drawn as integers times 2^-k scale exactly by 3, and
    # every derived quantity is a ratio of correctly rounded divisions;
    # complex families keep that only for powers of two
    rng = np.random.default_rng(59)
    for _ in range(4):
        N, pad, k = int(rng.integers(24, 80)), 16, int(rng.integers(7, 12))
        H = N + pad + 1
        n = np.arange(H)
        scale = 2.0**-k
        # i.i.d. draws, and a slowly drifting family on which the criterion
        # can hold
        draws = (
            (rng.integers(2 ** (k - 1), 2 ** (k + 1), H) * rng.choice([-1, 1], H),
             rng.integers(-(2 ** (k - 2)), 2 ** (k - 2) + 1, H)),
            (int(rng.integers(2**k, 2 ** (k + 1))) + n,
             np.full(H, int(rng.integers(1, 2 ** (k - 1))))),
        )
        for a_int, b_int in draws:
            a, b = a_int * scale, b_int * scale
            seq = SequencePair(a=a, b=b)
            assert _rendered_reports(SequencePair(a=3.0 * a, b=3.0 * b), N) == (
                _rendered_reports(seq, N)
            )
            phase = np.exp(2j * np.pi * rng.uniform(0.0, 1.0, (2, H)))
            cseq = SequencePair(a=a * phase[0], b=b * phase[1])
            lam = 2.0 ** int(rng.integers(-20, 21))
            assert _rendered_reports(
                SequencePair(a=lam * cseq.a, b=lam * cseq.b), N
            ) == _rendered_reports(cseq, N)
