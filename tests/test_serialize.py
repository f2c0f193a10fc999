import numpy as np
import pytest

from partfield.errors import FormatError
from partfield.serialize import load_arrays, save_arrays

MAGIC = b"TST1"


def test_roundtrip(tmp_path):
    arrays = [np.arange(6.0).reshape(2, 3), np.array([1.5]),
              np.zeros((3, 1, 2))]
    meta = {"alpha": 1, "name": "x"}
    path = tmp_path / "a.bin"
    save_arrays(path, MAGIC, meta, arrays)
    meta2, back = load_arrays(path, MAGIC)
    assert meta2 == meta
    assert len(back) == 3
    for a, b in zip(arrays, back):
        assert b.dtype == np.float64
        np.testing.assert_array_equal(a, b)


def test_write_determinism(tmp_path):
    arrays = [np.linspace(0, 1, 10)]
    p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
    save_arrays(p1, MAGIC, {"k": 2}, arrays)
    save_arrays(p2, MAGIC, {"k": 2}, arrays)
    assert p1.read_bytes() == p2.read_bytes()


def test_magic_mismatch(tmp_path):
    path = tmp_path / "a.bin"
    save_arrays(path, MAGIC, {}, [np.zeros(2)])
    with pytest.raises(FormatError):
        load_arrays(path, b"OTHR")


def test_truncation(tmp_path):
    path = tmp_path / "a.bin"
    save_arrays(path, MAGIC, {}, [np.zeros(100)])
    data = path.read_bytes()
    (tmp_path / "t.bin").write_bytes(data[:-16])
    with pytest.raises(FormatError):
        load_arrays(tmp_path / "t.bin", MAGIC)


def test_trailing_bytes(tmp_path):
    path = tmp_path / "a.bin"
    save_arrays(path, MAGIC, {}, [np.zeros(4)])
    path.write_bytes(path.read_bytes() + b"\x00" * 8)
    with pytest.raises(FormatError):
        load_arrays(path, MAGIC)


def test_garbage(tmp_path):
    path = tmp_path / "g.bin"
    path.write_bytes(b"\x00\x01")
    with pytest.raises(FormatError):
        load_arrays(path, MAGIC)
