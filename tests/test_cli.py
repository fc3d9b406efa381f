import ast
import csv
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from trishift import cli, eval_kernel, kernels, load_spec_file, materialize
from trishift.reporting import flatten_scalars
from trishift.cli import (
    EXIT_FAILS,
    EXIT_HOLDS,
    EXIT_INCONCLUSIVE,
    EXIT_IO,
    EXIT_NEAR_SINGULAR,
    EXIT_VALIDATION,
    main,
)


def write_spec(tmp_path: Path, name: str, doc: dict) -> Path:
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


def bergman_spec(tmp_path):
    return write_spec(
        tmp_path, "bergman.json", {"label": "bergman", "a": "sqrt(n+1)", "b": "0"}
    )


def read_csv(path: Path):
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        return header, list(reader)


# -------------------------------------------------------------------- check


def test_check_bergman_holds(tmp_path):
    spec = bergman_spec(tmp_path)
    out = tmp_path / "out"
    code = main(
        ["check", "--spec", str(spec), "--order", "512", "--tol", "1e-2",
         "--out", str(out)]
    )
    assert code == EXIT_HOLDS
    report = json.loads((out / "check_report.json").read_text())
    assert report["criterion"]["verdict"] == "holds"
    assert report["label"] == "bergman"
    assert report["N"] == 512
    assert set(report["assumptions"]) == {
        "eps_hat", "M_hat", "r_hat", "n0_hat", "tail_window", "flags"
    }


def test_check_geometric_fails(tmp_path):
    spec = write_spec(tmp_path, "geo.json", {"label": "geo", "a": "2^n", "b": "1"})
    out = tmp_path / "out"
    code = main(
        ["check", "--spec", str(spec), "--order", "64", "--tol", "1e-2",
         "--out", str(out)]
    )
    assert code == EXIT_FAILS


def test_check_inconclusive(tmp_path):
    spec = write_spec(
        tmp_path, "mid.json", {"label": "mid", "a": "1", "b": "0.03*(-1)^n"}
    )
    code = main(
        ["check", "--spec", str(spec), "--order", "64", "--tol", "1e-2",
         "--out", str(tmp_path / "out")]
    )
    assert code == EXIT_INCONCLUSIVE


def test_check_malformed_json(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    code = main(["check", "--spec", str(bad), "--out", str(tmp_path / "out")])
    assert code == EXIT_VALIDATION
    assert "malformed JSON" in capsys.readouterr().err


def test_check_missing_file(tmp_path):
    code = main(
        ["check", "--spec", str(tmp_path / "nope.json"), "--out", str(tmp_path)]
    )
    assert code == EXIT_IO


def test_check_zero_coefficient(tmp_path, capsys):
    spec = write_spec(
        tmp_path, "zero.json",
        {"label": "zero", "a": [[1.0, 0.0]] * 4 + [[0.0, 0.0]] + [[1.0, 0.0]] * 20,
         "b": "0"},
    )
    code = main(["check", "--spec", str(spec), "--order", "8",
                 "--out", str(tmp_path / "out")])
    assert code == EXIT_VALIDATION
    assert "a[4]" in capsys.readouterr().err


def snapshots_of_two_runs(tmp_path, argv, code=None):
    """The bytes of every file that two runs of ``argv`` write, by name;
    each run must exit with ``code``, or as the other one when it is None."""
    codes, snapshots = [], []
    for sub in ("one", "two"):
        out = tmp_path / sub
        codes.append(main(argv + ["--out", str(out)]))
        snapshots.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
    assert codes[0] == codes[1] == (codes[0] if code is None else code)
    return snapshots


def test_reports_are_byte_identical_across_runs(tmp_path):
    spec = bergman_spec(tmp_path)
    for command in ("check", "decompose"):
        for fmt in ("json", "csv"):
            one, two = snapshots_of_two_runs(
                tmp_path / f"{command}-{fmt}",
                [command, "--spec", str(spec), "--order", "64", "--format", fmt],
            )
            assert f"{command}_report.{fmt}" in one
            assert one == two, (command, fmt)


def _csv_text(value):
    # the text a CSV cell holds for a JSON report value
    if value is None:
        return ""
    if isinstance(value, bool):
        return "1" if value else "0"
    return repr(value) if isinstance(value, float) else str(value)


@pytest.mark.parametrize("command,family", [
    ("check", "bergman"), ("decompose", "bergman"), ("profile", "bergman"),
    ("kernel", "bergman"), ("kernel", "hot"),
])
def test_csv_report_holds_the_json_reports_scalars(tmp_path, command, family):
    docs = {
        "bergman": {"label": "bergman", "a": "sqrt(n+1)", "b": "0"},
        "hot": {"label": "hot", "a": "1", "b": "1.2"},  # a null eigenvalue
    }
    spec = write_spec(tmp_path, f"{family}.json", docs[family])
    reports = {}
    for fmt in ("json", "csv"):
        out = tmp_path / fmt
        argv = [command, "--spec", str(spec), "--order", "64", "--format", fmt,
                "--out", str(out)]
        main(argv + (["--grid", "0.9:3"] if command == "kernel" else []))
        reports[fmt] = out / f"{command}_report.{fmt}"
    doc = json.loads(reports["json"].read_text())
    notes = doc.pop("errors", [])
    expected = [[key, _csv_text(value)] for key, value in flatten_scalars(doc)]
    expected += [[f"errors.{i}", note] for i, note in enumerate(notes)]
    header, rows = read_csv(reports["csv"])
    assert header == ["key", "value"]
    assert rows == expected
    assert len(rows) > 8


def test_check_csv_format(tmp_path):
    spec = bergman_spec(tmp_path)
    out = tmp_path / "out"
    code = main(["check", "--spec", str(spec), "--order", "128", "--tol", "1e-2",
                 "--format", "csv", "--out", str(out)])
    assert code == EXIT_HOLDS
    header, rows = read_csv(out / "check_report.csv")
    assert header == ["key", "value"]
    keys = {row[0] for row in rows}
    assert "criterion.verdict" in keys
    assert "assumptions.eps_hat" in keys


# ------------------------------------------------------------- config errors


def test_order_and_pad_invariants(tmp_path):
    spec = bergman_spec(tmp_path)
    assert main(["decompose", "--spec", str(spec), "--order", "4",
                 "--pad", "64", "--out", str(tmp_path)]) == EXIT_VALIDATION
    assert main(["check", "--spec", str(spec), "--order", "16",
                 "--pad", "64", "--out", str(tmp_path)]) == EXIT_VALIDATION
    assert main(["check", "--spec", str(spec), "--tol", "2.0",
                 "--out", str(tmp_path)]) == EXIT_VALIDATION
    assert main(["check", "--spec", str(spec), "--order", "16",
                 "--window", "12", "--out", str(tmp_path)]) == EXIT_VALIDATION
    assert main(["check", "--out", str(tmp_path)]) == EXIT_VALIDATION


# ---------------------------------------------------------------- decompose


def test_decompose_exact_isometry(tmp_path):
    spec = write_spec(tmp_path, "iso.json", {"label": "iso", "a": "1", "b": "0.5"})
    out = tmp_path / "out"
    code = main(["decompose", "--spec", str(spec), "--order", "64",
                 "--pad", "16", "--out", str(out)])
    assert code == 0
    report = json.loads((out / "decompose_report.json").read_text())
    decay = report["decomposition"]["column_decay"]
    assert max(decay) < 1e-10
    header, rows = read_csv(out / "column_decay.csv")
    assert header == ["n", "value"]
    assert len(rows) == 64


def test_decompose_near_singular_without_padding(tmp_path):
    # explicit lists leave no room to pad, so the Gram matrix is singular
    values = [[1.0, 0.0]] * 65
    spec = write_spec(tmp_path, "flat.json", {"label": "flat", "a": values, "b": "0"})
    code = main(["decompose", "--spec", str(spec), "--order", "64",
                 "--pad", "16", "--out", str(tmp_path / "out")])
    assert code == EXIT_NEAR_SINGULAR


# ------------------------------------------------------------------ profile


def test_profile_outputs(tmp_path):
    spec = write_spec(
        tmp_path, "harm.json", {"label": "harm", "a": "1", "b": "1/(n+1)"}
    )
    out = tmp_path / "out"
    code = main(["profile", "--spec", str(spec), "--order", "64",
                 "--pad", "16", "--tol", "1e-2", "--out", str(out)])
    assert code == 0
    header, rows = read_csv(out / "l_minus_mstar.csv")
    assert header == ["n", "value", "lower_bound"]
    assert len(rows) == 64
    for name in ("i_minus_tstar_t.csv", "i_minus_t_tstar.csv",
                 "column_decay.csv", "neumann_error.csv"):
        assert (out / name).exists()
    report = json.loads((out / "profile_report.json").read_text())
    assert report["index"] == -1
    assert set(report["profiles"]) == {
        "L_minus_Mstar", "I_minus_TstarT", "I_minus_TTstar"
    }
    values = [float(r[1]) for r in read_csv(out / "l_minus_mstar.csv")[1]]
    bounds = [float(r[2]) for r in read_csv(out / "l_minus_mstar.csv")[1]]
    assert all(v >= b - 1e-12 for v, b in zip(values, bounds))


def test_profile_takes_no_svd_when_the_index_is_certified(tmp_path, monkeypatch):
    spec = write_spec(
        tmp_path, "base.json", {"label": "baseline", "a": "sqrt(n+1)", "b": "0.5"}
    )
    calls = []
    svd = np.linalg.svd

    def counting_svd(*args, **kwargs):
        calls.append(kwargs.get("compute_uv", True))
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    out = tmp_path / "out"
    code = main(["profile", "--spec", str(spec), "--order", "64", "--out", str(out)])
    assert code == 0
    assert calls == []  # the split takes the Gram route
    report = json.loads((out / "profile_report.json").read_text())
    assert report["index"] == -1
    deco = report["decomposition"]
    assert deco["route"] == "gram" and 0.0 < deco["margin"] < 1.0
    data = report["index_data"]
    assert (data["dim_ker"], data["dim_coker"]) == (0, 1)
    assert (data["ker_route"], data["coker_route"]) == ("certified", "certified")
    assert 0.0 < data["ker_margin"] < 1.0 and 0.0 < data["coker_margin"] < 1.0


def test_reports_record_the_polar_route(tmp_path):
    # the Baseline takes the Gram route; a family whose running products
    # reach 10^4 (|b_n/a_{n+1}| = 10 for n < 4) falls back to the SVD
    grow = [[10.0 * (-1) ** n, 0.0] for n in range(4)] + [[0.5, 0.0]] * 93
    cases = {
        "base": ({"a": "sqrt(n+1)", "b": "0.5"}, "gram"),
        "grow": ({"a": [[1.0, 0.0]] * 97, "b": grow}, "svd"),
    }
    for label, (doc, route) in cases.items():
        spec = write_spec(tmp_path, f"{label}.json", {"label": label, **doc})
        out = tmp_path / label
        assert main(["decompose", "--spec", str(spec), "--order", "64",
                     "--pad", "32", "--out", str(out)]) == 0
        deco = json.loads((out / "decompose_report.json").read_text())["decomposition"]
        assert deco["route"] == route, label
        assert (deco["margin"] < 1.0) == (route == "gram"), label
        assert deco["s_min"] > 1e-10, label
        assert main(["profile", "--spec", str(spec), "--order", "64", "--pad", "32",
                     "--format", "csv", "--out", str(out)]) == 0
        rows = dict(read_csv(out / "profile_report.csv")[1])
        assert rows["decomposition.route"] == route, label
        assert float(rows["decomposition.margin"]) == deco["margin"], label
        assert float(rows["decomposition.s_min"]) == deco["s_min"], label


def test_reports_record_the_band_route_without_dense_factorizations(tmp_path, monkeypatch):
    # from 8 blocks of 64 on, the Baseline's banded Gram takes the band
    # route: neither command runs eigh or an SVD
    def refuse(*args, **kwargs):
        raise AssertionError("a dense factorization ran")

    for name in ("eigh", "svd"):
        monkeypatch.setattr(np.linalg, name, refuse)
    spec = write_spec(
        tmp_path, "base.json", {"label": "baseline", "a": "sqrt(n+1)", "b": "0.5"}
    )
    out = tmp_path / "out"
    for command in ("decompose", "profile"):
        assert main([command, "--spec", str(spec), "--order", "512", "--out", str(out)]) == 0
    decompose = json.loads((out / "decompose_report.json").read_text())["decomposition"]
    report = json.loads((out / "profile_report.json").read_text())
    assert report["decomposition"] == decompose
    assert decompose["route"] == "band" and 0.0 < decompose["margin"] < 1.0
    assert decompose["isometry_defect"] <= 1e-13
    assert report["index"] == -1
    data = report["index_data"]
    assert (data["ker_route"], data["coker_route"]) == ("certified", "certified")


def test_profile_constant_b_is_flat_zero(tmp_path):
    spec = write_spec(tmp_path, "iso.json", {"label": "iso", "a": "1", "b": "0.5"})
    out = tmp_path / "out"
    assert main(["profile", "--spec", str(spec), "--order", "32",
                 "--pad", "8", "--out", str(out)]) == 0
    _, rows = read_csv(out / "l_minus_mstar.csv")
    assert all(float(r[1]) < 1e-12 for r in rows)


def test_profile_factors_tall_section_once(tmp_path, monkeypatch):
    # one real eigendecomposition of the N x N Gram; no SVD of the (H, N)
    # tall section
    calls = []
    for name in ("svd", "eigh"):
        original = getattr(np.linalg, name)

        def recording(a, *args, _name=name, _original=original, **kwargs):
            calls.append((_name, a.shape, a.dtype.kind))
            return _original(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, recording)
    spec = write_spec(
        tmp_path, "harm.json", {"label": "harm", "a": "1", "b": "1/(n+1)"}
    )
    assert main(["profile", "--spec", str(spec), "--order", "64",
                 "--pad", "16", "--out", str(tmp_path / "out")]) == 0
    assert [c for c in calls if c[0] == "eigh"] == [("eigh", (64, 64), "f")]
    assert not [c for c in calls if c[1] == (80, 64)]


def test_profile_skips_neumann_when_unbounded(tmp_path, capsys):
    one, half, hot = [1.0, 0.0], [0.5, 0.0], [1.5, 0.0]
    cases = {
        "hot": ({"a": "1", "b": "1.2"}, "tail ratio never drops below r-target"),
        # the tail ratio drops at index 30, too late for a block below order 32
        "late": ({"a": [one] * 41, "b": [one] * 30 + [half] * 11},
                 "horizon too small for tail blocks"),
        # it drops at once, but |b/a| = 1.5 in the pad leaves no tail bound
        "hot-pad": ({"a": [one] * 41, "b": [half] * 32 + [hot] * 9},
                    "no geometric bound exists"),
    }
    for label, (doc, reason) in cases.items():
        spec = write_spec(tmp_path, f"{label}.json", {"label": label, **doc})
        out = tmp_path / label
        code = main(["profile", "--spec", str(spec), "--order", "32",
                     "--pad", "8", "--out", str(out)])
        assert code == 0, label
        assert not (out / "neumann_error.csv").exists(), label
        err = capsys.readouterr().err
        assert reason in err and "Neumann curve not emitted" in err, label


def test_profile_neumann_csv_contract(tmp_path):
    spec = write_spec(
        tmp_path, "harm.json", {"label": "harm", "a": "1", "b": "1/(n+1)"}
    )
    out = tmp_path / "out"
    main(["profile", "--spec", str(spec), "--order", "64", "--pad", "16",
          "--out", str(out)])
    header, rows = read_csv(out / "neumann_error.csv")
    assert header == ["m", "error", "bound"]
    assert len(rows) == 41
    for row in rows:
        assert float(row[1]) <= float(row[2])


# ------------------------------------------------------------------- kernel


def test_kernel_szego_grid(tmp_path):
    spec = write_spec(tmp_path, "szego.json", {"label": "szego", "a": "1", "b": "0"})
    out = tmp_path / "out"
    code = main(["kernel", "--spec", str(spec), "--order", "128",
                 "--grid", "0.5:8", "--tol", "1e-10", "--out", str(out)])
    assert code == 0
    header, rows = read_csv(out / "kernel_sweep.csv")
    assert header == ["re_z", "im_z", "re_w", "im_w", "re_k", "im_k",
                      "terms_used", "tail_estimate", "converged"]
    assert len(rows) == 64
    for row in rows:
        z = complex(float(row[0]), float(row[1]))
        w = complex(float(row[2]), float(row[3]))
        k = complex(float(row[4]), float(row[5]))
        assert abs(k - 1.0 / (1.0 - z * np.conj(w))) < 1e-8
        assert row[8] == "1"
    report = json.loads((out / "kernel_report.json").read_text())
    assert report["gram_least_eigenvalue"] >= -1e-8
    assert report["pairs_converged"] == 64
    header, rows = read_csv(out / "kernel_residuals.csv")
    assert header == ["re_w", "im_w", "residual", "certificate"]
    assert len(rows) == 8


def test_kernel_report_max_terms_used(tmp_path):
    out = tmp_path / "out"
    assert main(["kernel", "--spec", str(bergman_spec(tmp_path)), "--order", "128",
                 "--grid", "0.7:6", "--tol", "1e-10", "--out", str(out)]) == 0
    _, rows = read_csv(out / "kernel_sweep.csv")
    report = json.loads((out / "kernel_report.json").read_text())
    assert report["max_terms_used"] == max(int(row[6]) for row in rows)


def test_kernel_csv_cells_parse_as_numbers(tmp_path):
    spec = write_spec(tmp_path, "harm.json", {"label": "harm", "a": "1", "b": "1/(n+1)"})
    out = tmp_path / "out"
    assert main(["kernel", "--spec", str(spec), "--order", "128",
                 "--grid", "0.5:4", "--tol", "1e-10", "--out", str(out)]) == 0
    names = sorted(p.name for p in out.glob("*.csv"))
    assert names == ["kernel_residuals.csv", "kernel_sweep.csv"]
    for name in names:
        _, rows = read_csv(out / name)
        assert rows
        for row in rows:
            for cell in row:
                float(cell)


def test_kernel_evaluates_each_unordered_pair_once(tmp_path, monkeypatch):
    # k(w, z) = conj(k(z, w)) term by term, so the mirrored rows equal a
    # direct evaluation bit for bit
    original = kernels._pair_sum
    calls = []

    def counting(*args, **kwargs):
        calls.append(args[2])
        return original(*args, **kwargs)

    monkeypatch.setattr(kernels, "_pair_sum", counting)
    spec = write_spec(
        tmp_path, "alt.json", {"label": "alt", "a": "sqrt(n+1)", "b": "0.5*(-1)^n"}
    )
    out = tmp_path / "out"
    count = 8
    assert main(["kernel", "--spec", str(spec), "--order", "128",
                 "--grid", f"0.6:{count}", "--tol", "1e-10", "--out", str(out)]) == 0
    assert len(calls) == count * (count + 1) // 2
    seq = materialize(load_spec_file(spec), 128)
    _, rows = read_csv(out / "kernel_sweep.csv")
    assert len(rows) == count * count
    for row in rows:
        z = complex(float(row[0]), float(row[1]))
        w = complex(float(row[2]), float(row[3]))
        kv = eval_kernel(seq, z, w, 1e-10)
        assert row[4:] == [repr(kv.value.real), repr(kv.value.imag),
                           str(kv.terms_used), repr(kv.tail_estimate), "1"]


def test_kernel_forms_basis_values_once_per_point_in_each_route(tmp_path, monkeypatch):
    # the sweep forms one set per point on the order's horizon, then the
    # residual grid one per point on the padded pair
    original = kernels._basis_parts
    calls = []

    def counting(seq, z, count):
        calls.append(count)
        return original(seq, z, count)

    monkeypatch.setattr(kernels, "_basis_parts", counting)
    out = tmp_path / "out"
    assert main(["kernel", "--spec", str(bergman_spec(tmp_path)), "--order", "128",
                 "--pad", "16", "--grid", "0.6:8", "--out", str(out)]) == 0
    assert calls == [128 + 1] * 8 + [128 + 16 + 1] * 8


def test_kernel_csv_report_writes_a_null_as_an_empty_cell(tmp_path):
    # no pair converges, so the Gram least eigenvalue is null
    spec = write_spec(tmp_path, "hot.json", {"label": "hot", "a": "1", "b": "1.2"})
    out = tmp_path / "out"
    assert main(["kernel", "--spec", str(spec), "--order", "32", "--grid", "0.9:3",
                 "--format", "csv", "--out", str(out)]) == 0
    _, rows = read_csv(out / "kernel_report.csv")
    assert ["gram_least_eigenvalue", ""] in rows
    assert not [row for row in rows if "None" in row]


def test_kernel_outputs_byte_identical_across_runs(tmp_path):
    spec = write_spec(
        tmp_path, "alt.json", {"label": "alt", "a": "sqrt(n+1)", "b": "0.5*(-1)^n"}
    )
    for fmt in ("json", "csv"):
        one, two = snapshots_of_two_runs(
            tmp_path / fmt,
            ["kernel", "--spec", str(spec), "--order", "128", "--grid", "0.9:12",
             "--format", fmt],
            code=0,
        )
        assert sorted(one) == sorted(
            [f"kernel_report.{fmt}", "kernel_sweep.csv", "kernel_residuals.csv"]
        )
        assert one == two, fmt


def test_kernel_grid_validation(tmp_path):
    spec = write_spec(tmp_path, "s.json", {"label": "s", "a": "1", "b": "0"})
    base = ["kernel", "--spec", str(spec), "--out", str(tmp_path / "o")]
    assert main(base + ["--grid", "0.5:0"]) == EXIT_VALIDATION
    assert main(base + ["--grid", "0.5"]) == EXIT_VALIDATION
    assert main(base + ["--grid", "1.5:4"]) == EXIT_VALIDATION
    assert main(base) == EXIT_VALIDATION  # --grid required


def test_kernel_batch_with_a_malformed_grid_runs_no_member(tmp_path, capsys):
    spec = write_spec(tmp_path, "s.json", {"label": "s", "a": "1", "b": "0"})
    batch = tmp_path / "batch.json"
    batch.write_text(json.dumps([
        {"spec": str(spec), "order": 32, "grid": "0.5:4", "out": str(tmp_path / "first")},
        {"spec": str(spec), "order": 32, "grid": "2:8", "out": str(tmp_path / "second")},
    ]), encoding="utf-8")
    assert main(["kernel", "--batch", str(batch)]) == EXIT_VALIDATION
    assert capsys.readouterr().err.startswith("trishift: error: grid ")
    assert not (tmp_path / "first").exists()
    assert not (tmp_path / "second").exists()


def test_usage_errors_exit_as_validation_errors(capsys):
    # argparse's own exit status 2 is the inconclusive verdict's code
    cases = (
        (["check", "--bogus"], "unrecognized arguments: --bogus"),
        ([], "the following arguments are required: command"),
        (["frobnicate"], "argument command: invalid choice: 'frobnicate'"),
        (["check", "--grid", "0.5:4"], "unrecognized arguments: --grid"),
        (["check", "--spec"], "argument --spec: expected one argument"),
    )
    for argv, message in cases:
        assert main(argv) == EXIT_VALIDATION, argv
        err = capsys.readouterr().err
        assert err.startswith("usage: trishift"), argv
        assert f"trishift: error: {message}" in err, argv


def test_flags_convert_as_batch_values(tmp_path, capsys):
    # a malformed flag is reported as a malformed batch value is
    spec = str(write_spec(tmp_path, "s.json", {"label": "s", "a": "1", "b": "0"}))
    out = str(tmp_path / "o")
    cases = (
        (["--order", "abc"], "order must be an integer, got 'abc'"),
        (["--order", "100.7"], "order must be an integer, got '100.7'"),
        (["--tol", "x"], "tol must be a number, got 'x'"),
        (["--window", "4.5"], "window must be an integer, got '4.5'"),
        (["--format", "xml"], "format must be json or csv, got 'xml'"),
    )
    for flags, message in cases:
        assert main(["check", "--spec", spec, "--out", out, *flags]) == EXIT_VALIDATION, flags
        assert capsys.readouterr().err == f"trishift: error: {message}\n", flags
    assert not (tmp_path / "o").exists()
    assert main(["check", "--spec", spec, "--out", out, "--order", "64",
                 "--window", "8", "--r-target", "0.9", "--format", "csv"]) == EXIT_HOLDS
    assert (tmp_path / "o" / "check_report.csv").exists()


def test_cli_imports_only_public_names():
    # the command line reaches the library through exported names only
    tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
    imported = []
    for node in ast.walk(tree):
        assert not (isinstance(node, ast.Import)
                    and any(a.name.startswith("trishift") for a in node.names))
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.level:
            name = "trishift" + (f".{node.module}" if node.module else "")
        elif (node.module or "").startswith("trishift"):
            name = node.module
        else:
            continue
        exported = importlib.import_module(name).__all__
        for alias in node.names:
            assert alias.name in exported, f"{name}.{alias.name}"
            imported.append(alias.name)
    assert "kernel_sweep" in imported and "equivalence_diagnostics" in imported


def test_pad_help_states_the_default(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["profile", "--help"])
    assert exc.value.code == 0
    assert "min(64, N/4)" in " ".join(capsys.readouterr().out.split())


def test_kernel_flags_nonconvergent_points(tmp_path, capsys):
    spec = write_spec(tmp_path, "grow.json", {"label": "grow", "a": "2^n", "b": "0"})
    out = tmp_path / "out"
    code = main(["kernel", "--spec", str(spec), "--order", "16",
                 "--grid", "0.99:2", "--out", str(out)])
    assert code == 0
    _, rows = read_csv(out / "kernel_sweep.csv")
    assert any(row[8] == "0" for row in rows)
    err = capsys.readouterr().err
    assert "not certified" in err
    report = json.loads((out / "kernel_report.json").read_text())
    assert report["gram_least_eigenvalue"] is None


def test_kernel_sweep_independent_of_pad(tmp_path):
    # the pad serves the residual certificate only
    spec = write_spec(tmp_path, "base.json", {"label": "base", "a": "sqrt(n+1)", "b": "0.5"})
    outs = {}
    for pad in (0, 64):
        outs[pad] = tmp_path / f"pad{pad}"
        assert main(["kernel", "--spec", str(spec), "--order", "128", "--pad", str(pad),
                     "--grid", "0.98:6", "--tol", "1e-10", "--out", str(outs[pad])]) == 0
    sweeps = [(out / "kernel_sweep.csv").read_bytes() for out in outs.values()]
    assert sweeps[0] == sweeps[1]
    (_, unpadded), (_, padded) = (read_csv(out / "kernel_residuals.csv") for out in outs.values())
    assert [row[:3] for row in unpadded] == [row[:3] for row in padded]
    # a non-finite certificate is written as an empty cell
    assert [row[3] for row in unpadded] == [""] * 6
    assert all(float(row[2]) <= float(row[3]) for row in padded)
    for pad, out in outs.items():
        assert json.loads((out / "kernel_report.json").read_text())["pad"] == pad


def test_kernel_report_records_reduced_pad(tmp_path, capsys):
    values = [[1.0, 0.0]] * 75  # explicit lists end at index 74
    spec = write_spec(tmp_path, "flat.json", {"label": "flat", "a": values, "b": "0"})
    out = tmp_path / "out"
    assert main(["kernel", "--spec", str(spec), "--order", "64", "--pad", "16",
                 "--grid", "0.5:4", "--out", str(out)]) == 0
    assert "padding reduced to 10 rows" in capsys.readouterr().err
    report = json.loads((out / "kernel_report.json").read_text())
    assert report["pad"] == 10


@pytest.mark.parametrize("command", ["decompose", "profile"])
def test_split_reports_record_the_effective_pad(tmp_path, capsys, command):
    stem = f"{command}_report"
    spec = write_spec(tmp_path, "harm.json", {"label": "harm", "a": "1", "b": "1/(n+1)"})
    # an explicit list ending at index 74 cuts the pad of 16 to 10
    values = [[1.0, 0.0]] * 75
    flat = write_spec(tmp_path, "flat.json", {"label": "flat", "a": values, "b": "0.5"})
    runs = [(spec, [], 16), (spec, ["--pad", "5"], 5), (flat, ["--pad", "16"], 10)]
    for i, (path, flags, pad) in enumerate(runs):
        for fmt in ("json", "csv"):
            out = tmp_path / f"{i}-{fmt}"
            assert main([command, "--spec", str(path), "--order", "64", *flags,
                         "--tol", "1e-2", "--format", fmt, "--out", str(out)]) == 0
            if fmt == "json":
                assert json.loads((out / f"{stem}.json").read_text())["pad"] == pad
            else:
                assert ["pad", str(pad)] in read_csv(out / f"{stem}.csv")[1]
    assert "padding reduced to 10 rows" in capsys.readouterr().err


def test_kernel_takes_no_factorization_but_the_gram_eigenvalues(tmp_path, monkeypatch):
    # every numpy.linalg call is recorded; vector 2-norms factor nothing
    calls = []
    for name in dir(np.linalg):
        original = getattr(np.linalg, name)
        if name.startswith("_") or name == "test" or not callable(original) or isinstance(original, type):
            continue

        def recording(*args, _name=name, _original=original, **kwargs):
            calls.append((_name, np.shape(args[0]), kwargs.get("ord", args[1:2])))
            return _original(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, recording)
    out = tmp_path / "out"
    assert main(["kernel", "--spec", str(bergman_spec(tmp_path)), "--order", "256",
                 "--grid", "0.7:8", "--tol", "1e-10", "--out", str(out)]) == 0
    norms = [c for c in calls if c[0] == "norm"]
    assert [c for c in calls if c[0] != "norm"] == [("eigvalsh", (8, 8), ())]
    assert norms and all(len(shape) == 1 and ord in ((), None) for _, shape, ord in norms)


# -------------------------------------------------------------------- batch


def test_batch_runs_all_entries(tmp_path):
    holds = bergman_spec(tmp_path)
    fails = write_spec(tmp_path, "alt.json",
                       {"label": "alt", "a": "1", "b": "0.5*(-1)^n"})
    batch = tmp_path / "batch.json"
    batch.write_text(json.dumps([
        {"spec": str(holds), "order": 128, "out": str(tmp_path / "h")},
        {"spec": str(fails), "order": 64, "out": str(tmp_path / "f")},
    ]), encoding="utf-8")
    code = main(["check", "--batch", str(batch), "--tol", "1e-2"])
    assert code == EXIT_FAILS  # max of member exit codes
    assert (tmp_path / "h" / "check_report.json").exists()
    assert (tmp_path / "f" / "check_report.json").exists()
    holds_report = json.loads((tmp_path / "h" / "check_report.json").read_text())
    assert holds_report["criterion"]["verdict"] == "holds"


def test_batch_flag_overrides_entries(tmp_path):
    spec = bergman_spec(tmp_path)
    batch = tmp_path / "batch.json"
    batch.write_text(json.dumps([
        {"spec": str(spec), "order": 512, "out": str(tmp_path / "o")},
    ]), encoding="utf-8")
    code = main(["check", "--batch", str(batch), "--order", "128", "--tol", "1e-2"])
    assert code == EXIT_HOLDS
    report = json.loads((tmp_path / "o" / "check_report.json").read_text())
    assert report["N"] == 128  # flag wins over the batch entry


def test_profile_outputs_byte_identical_across_runs(tmp_path):
    spec = write_spec(
        tmp_path, "harm.json", {"label": "harm", "a": "1", "b": "1/(n+1)"}
    )
    for fmt in ("json", "csv"):
        one, two = snapshots_of_two_runs(
            tmp_path / fmt,
            ["profile", "--spec", str(spec), "--order", "48", "--pad", "8",
             "--tol", "1e-2", "--format", fmt],
            code=0,
        )
        assert f"profile_report.{fmt}" in one and "neumann_error.csv" in one
        assert one == two, fmt


def test_complex_list_spec_end_to_end(tmp_path):
    # complex coefficients enter through explicit [re, im] lists
    n_vals = 48 + 9
    a = [[0.0, 1.0]] * n_vals   # a_n = i
    b = [[0.1, 0.05]] * n_vals  # constant complex b: coupling vanishes
    spec = write_spec(tmp_path, "cplx.json", {"label": "cplx", "a": a, "b": b})
    out = tmp_path / "out"
    code = main(["check", "--spec", str(spec), "--order", "48", "--tol", "1e-2",
                 "--pad", "8", "--out", str(out)])
    assert code == EXIT_HOLDS  # |a_n/a_{n+1}| = 1 and the ratio b/a is constant
    code = main(["decompose", "--spec", str(spec), "--order", "48",
                 "--pad", "8", "--out", str(out)])
    assert code == 0
    report = json.loads((out / "decompose_report.json").read_text())
    assert max(report["decomposition"]["column_decay"]) < 1e-10


def test_module_invocation_runs_the_cli(tmp_path):
    # `python -m trishift.cli` runs the same entry point as the console script
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    cases = (
        ("szego", {"label": "szego", "a": "1", "b": "0"}, EXIT_HOLDS),
        ("alt", {"label": "alt-a-2", "a": "2^((-1)^n)", "b": "0"}, EXIT_FAILS),
    )
    for name, doc, expected in cases:
        spec = write_spec(tmp_path, f"{name}.json", doc)
        out = tmp_path / name
        done = subprocess.run(
            [sys.executable, "-m", "trishift.cli", "check", "--spec", str(spec),
             "--order", "64", "--out", str(out)],
            env=env, capture_output=True, text=True,
        )
        assert done.returncode == expected, done.stderr
        assert (out / "check_report.json").exists()


def test_band_route_profile_imports_no_numpy_random(tmp_path):
    # a fresh process: neither the import nor `profile` on the Baseline at
    # order 1024, whose split takes the band route and brackets both edges
    # of the spectrum, loads numpy.random and the libraries behind it
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    spec = write_spec(tmp_path, "base.json", {"label": "baseline", "a": "sqrt(n+1)", "b": "0.5"})
    out = tmp_path / "out"
    script = "\n".join([
        "import json, sys",
        "import trishift",
        "imported = 'numpy.random' in sys.modules",
        "from trishift import analysis, cli",
        "signs, bracket = [], analysis._edge_bracket",
        "def counting(S, N, sign, bound):",
        "    signs.append(sign)",
        "    return bracket(S, N, sign, bound)",
        "analysis._edge_bracket = counting",
        f"code = cli.main(['profile', '--spec', {str(spec)!r}, '--order', '1024', "
        f"'--out', {str(out)!r}])",
        "print(json.dumps([imported, code, 'numpy.random' in sys.modules, signs]))",
    ])
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    imported, code, after, signs = json.loads(done.stdout.splitlines()[-1])
    assert code == 0 and signs == [1.0, -1.0]
    assert json.loads((out / "profile_report.json").read_text())["decomposition"]["route"] == "band"
    assert not imported and not after


def test_batch_validation(tmp_path, capsys):
    bad = tmp_path / "batch.json"
    bad.write_text(json.dumps({"spec": "x"}), encoding="utf-8")
    assert main(["check", "--batch", str(bad)]) == EXIT_VALIDATION
    bad.write_text(json.dumps([{"spec": "x", "bogus": 1}]), encoding="utf-8")
    assert main(["check", "--batch", str(bad)]) == EXIT_VALIDATION
    bad.write_text("[]", encoding="utf-8")
    assert main(["check", "--batch", str(bad)]) == EXIT_VALIDATION
    # a malformed value is a validation error naming its key, not a traceback;
    # booleans and non-integral numbers are not integers
    spec = write_spec(tmp_path, "szego.json", {"label": "szego", "a": "1", "b": "0"})
    capsys.readouterr()
    for entry in (
        {"order": "big"}, {"spec": 5}, {"window": "x"}, {"order": 100.7},
        {"pad": 2.9}, {"window": 4.5}, {"order": True}, {"pad": False},
        {"tol": "x"}, {"r_target": None}, {"out": 3},
    ):
        bad.write_text(json.dumps([{"spec": str(spec), **entry}]), encoding="utf-8")
        assert main(["check", "--batch", str(bad)]) == EXIT_VALIDATION, entry
        (key,) = entry
        assert capsys.readouterr().err.startswith(f"trishift: error: {key} must be ")
    # a malformed grid fails the batch up front, in every command
    for entry in ({"grid": "2:8"}, {"grid": "0.5"}, {"grid": 5}):
        bad.write_text(json.dumps([{"spec": str(spec), **entry}]), encoding="utf-8")
        assert main(["check", "--batch", str(bad)]) == EXIT_VALIDATION, entry
        assert capsys.readouterr().err.startswith("trishift: error: grid "), entry
    # an integral number is an integer
    good = [{"spec": str(spec), "order": 64.0, "pad": 8.0, "out": str(tmp_path / "ok")}]
    bad.write_text(json.dumps(good), encoding="utf-8")
    assert main(["check", "--batch", str(bad)]) == EXIT_HOLDS
