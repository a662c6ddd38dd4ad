import json
import re
import struct

import numpy as np
import pytest

from bodyframe_io.errors import DataError, ParseError
from bodyframe_io.weights_io import load_weights, save_weights


def test_roundtrip(tmp_path):
    rng = np.random.default_rng(40)
    arrays = {
        "w1": rng.normal(size=(4, 3)),
        "b1": rng.normal(size=3),
        "scalar": np.array(2.5),
    }
    path = tmp_path / "model.bfw"
    save_weights(path, "test-variant", arrays, meta={"layers": 2})
    variant, meta, back = load_weights(path)
    assert variant == "test-variant"
    assert meta == {"layers": 2}
    assert set(back) == set(arrays)
    for name in arrays:
        np.testing.assert_array_equal(back[name], np.asarray(arrays[name], dtype=float))


def test_variant_check(tmp_path):
    path = tmp_path / "model.bfw"
    save_weights(path, "variant-a", {"x": np.zeros(2)})
    with pytest.raises(DataError, match="variant"):
        load_weights(path, expected_variant="variant-b")


def test_bad_magic(tmp_path):
    path = tmp_path / "junk.bfw"
    path.write_bytes(b"NOPE" + b"\x00" * 32)
    with pytest.raises(ParseError, match="magic"):
        load_weights(path)


def test_truncated_payload(tmp_path):
    path = tmp_path / "model.bfw"
    save_weights(path, "v", {"x": np.zeros(10)})
    blob = path.read_bytes()
    path.write_bytes(blob[:-8])
    with pytest.raises(ParseError, match="payload"):
        load_weights(path)


@pytest.mark.parametrize("field", ["variant", "meta", "arrays"])
def test_header_missing_a_field(tmp_path, field):
    path = tmp_path / "model.bfw"
    save_weights(path, "v", {"x": np.zeros(2)}, meta={"k": 1})
    blob = path.read_bytes()
    (header_len,) = struct.unpack_from("<I", blob, 8)
    header = json.loads(blob[12 : 12 + header_len])
    del header[field]
    text = json.dumps(header).encode("utf-8")
    path.write_bytes(blob[:8] + struct.pack("<I", len(text)) + text + blob[12 + header_len :])
    with pytest.raises(ParseError, match="corrupt header"):
        load_weights(path)


def test_header_with_ill_formed_entries(tmp_path):
    path = tmp_path / "model.bfw"
    for header in ({"variant": "v", "meta": [], "arrays": []},
                   {"variant": "v", "meta": {}, "arrays": [{"name": "x"}]},
                   {"variant": "v", "meta": {}, "arrays": [{"name": "x", "shape": [-2, 3]}]},
                   {"variant": "v", "meta": {}, "arrays": [{"name": "x", "shape": [1.5]}]},
                   ["not", "an", "object"]):
        text = json.dumps(header).encode("utf-8")
        path.write_bytes(b"BFWT" + struct.pack("<HHI", 1, 0, len(text)) + text)
        with pytest.raises(ParseError, match="corrupt header"):
            load_weights(path)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_non_finite_value_rejected_naming_file_and_array(tmp_path, value):
    path = tmp_path / "model.bfw"
    arrays = {"ok": np.zeros(2), "w": np.ones((2, 3))}
    arrays["w"][1, 0] = value
    save_weights(path, "v", arrays)
    with pytest.raises(DataError, match=re.escape(f"{path}: array w must be finite")):
        load_weights(path)
