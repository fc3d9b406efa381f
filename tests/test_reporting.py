import json
import math

import numpy as np

from trishift.reporting import (
    flatten_scalars,
    render_json,
    sanitize,
    to_jsonable,
    write_csv,
)


def test_to_jsonable_handles_numpy_and_complex():
    tree = {
        "x": np.float64(1.5),
        "k": np.int64(7),
        "flag": np.bool_(True),
        "vec": np.array([1.0, 2.0]),
        "z": 1 + 2j,
    }
    out = to_jsonable(tree)
    assert out == {"x": 1.5, "k": 7, "flag": True, "vec": [1.0, 2.0], "z": [1.0, 2.0]}
    json.dumps(out)


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


def test_repr_float_roundtrip(tmp_path):
    value = 1.0 / 3.0
    path = tmp_path / "r.csv"
    write_csv(path, ["v"], [(value,)])
    text = path.read_text().splitlines()[1]
    assert float(text) == value
