import sys

import numpy as np
import pytest

import framec as fc
from framec.matio import (_decode_entries, matrix_from_jsonable,
                          matrix_to_jsonable)


def test_csv_round_trip_is_exact(tmp_path):
    rng = np.random.default_rng(139)
    m = rng.uniform(-10, 10, (3, 5))  # full 17-digit reprs
    path = tmp_path / "m.csv"
    fc.write_matrix(m, str(path))
    back = fc.read_matrix(str(path))
    assert back.dtype == np.float64
    assert np.array_equal(back, m)


def test_json_round_trip_real_and_complex(tmp_path):
    rng = np.random.default_rng(149)
    real = rng.uniform(-1, 1, (2, 4))
    cplx = real + 1j * rng.uniform(-1, 1, (2, 4))
    for m in (real, cplx):
        path = tmp_path / "m.json"
        fc.write_matrix(m, str(path))
        back = fc.read_matrix(str(path))
        assert back.dtype == m.dtype
        assert np.array_equal(back, m)


def test_format_inference_and_override(tmp_path):
    m = np.array([[1.0, 2], [3, 4]])
    path = tmp_path / "m.txt"
    fc.write_matrix(m, str(path))  # no .json extension, defaults to csv
    assert np.array_equal(fc.read_matrix(str(path)), m)
    # the name alone decides, so a file cannot contradict it
    with pytest.raises(TypeError):
        fc.write_matrix(m, str(tmp_path / "j.dat"), fmt="json")
    with pytest.raises(TypeError):
        fc.read_matrix(str(path), fmt="json")


def test_csv_rejections(tmp_path):
    cases = {
        "ragged.csv": "1,2\n3\n",
        "words.csv": "1,two\n",
        "empty.csv": "\n\n",
    }
    for name, text in cases.items():
        path = tmp_path / name
        path.write_text(text)
        with pytest.raises(fc.ParseError):
            fc.read_matrix(str(path))
    cpath = tmp_path / "cplx.csv"
    cpath.write_text("1,2j\n")
    with pytest.raises(fc.MixedField):
        fc.read_matrix(str(cpath))


def test_csv_accepts_whitespace_and_blank_lines(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text(" 1 , 2 \n\n 3 , 4 \n")
    assert np.array_equal(fc.read_matrix(str(path)), [[1, 2], [3, 4]])


def test_json_rejections(tmp_path):
    cases = [
        "not json at all",
        "[1, 2, 3]",
        '{"rows": 2, "cols": 2}',
        '{"rows": 2, "cols": 2, "data": [1, 2, 3]}',
        '{"rows": 0, "cols": 2, "data": []}',
        '{"rows": 1, "cols": 2, "data": [1, "x"]}',
        '{"rows": 1, "cols": 2, "data": [1, [2, 3, 4]]}',
        '{"rows": 1, "cols": 2, "data": [1, true]}',
    ]
    for text in cases:
        path = tmp_path / "bad.json"
        path.write_text(text)
        with pytest.raises(fc.ParseError):
            fc.read_matrix(str(path))


@pytest.mark.parametrize("rows, cols", [
    (2.9, 1), (2.0, 1), (True, 2), (2, True), ("2", 1), (None, 2), (2, [1]),
], ids=["float", "integral-float", "bool-rows", "bool-cols", "string",
        "null", "list"])
def test_jsonable_rejects_non_integer_shape(rows, cols):
    # int() would read 2.9 as 2, True as 1 and "2" as 2
    with pytest.raises(fc.ParseError, match="integer 'rows', 'cols'"):
        matrix_from_jsonable({"rows": rows, "cols": cols, "data": [1, 2]})


def test_jsonable_accepts_numpy_integer_shape():
    got = matrix_from_jsonable({"rows": np.int64(1), "cols": np.int32(2),
                                "data": [1, 2]})
    assert np.array_equal(got, [[1.0, 2.0]])


def test_read_rejects_non_finite(tmp_path):
    # CSV reads a literal beyond the float range as inf, JSON as an int
    big = "1" + "0" * 400
    for name, text in (("m.csv", "1,nan\n2,3\n"), ("m.csv", f"{big},2\n"),
                       ("m.json", '{"rows": 1, "cols": 2, '
                                  f'"data": [{big}, 2]}}')):
        path = tmp_path / name
        path.write_text(text)
        with pytest.raises(fc.NonFinite):
            fc.read_matrix(str(path))


def test_complex_csv_write_refused(tmp_path):
    with pytest.raises(fc.MixedField):
        fc.write_matrix(np.array([[1j, 0]]), str(tmp_path / "m.csv"))


def test_jsonable_round_trip():
    m = np.array([[1.0, -2.5], [0.125, 9e-7]])
    obj = matrix_to_jsonable(m)
    assert obj["rows"] == 2 and obj["cols"] == 2
    assert np.array_equal(matrix_from_jsonable(obj), m)
    c = np.array([[1 + 2j, 0], [0, -1j]])
    cobj = matrix_to_jsonable(c)
    assert cobj["data"][0] == [1.0, 2.0]
    back = matrix_from_jsonable(cobj)
    assert back.dtype == np.complex128
    assert np.array_equal(back, c)


def test_jsonable_real_when_no_pairs():
    obj = {"rows": 1, "cols": 3, "data": [1, 2.5, -3]}
    back = matrix_from_jsonable(obj)
    assert back.dtype == np.float64
    # a single [re, im] pair promotes the whole matrix
    obj = {"rows": 1, "cols": 2, "data": [1, [0, 1]]}
    assert matrix_from_jsonable(obj).dtype == np.complex128


def test_jsonable_mixed_and_subclassed_entries():
    # scalars next to pairs decode as complex with zero imaginary part
    obj = {"rows": 1, "cols": 3, "data": [1, [0.5, -2], 3.0]}
    back = matrix_from_jsonable(obj)
    assert back.dtype == np.complex128
    assert np.array_equal(back, [[1, 0.5 - 2j, 3]])
    for data, want in (([[1, 2], 3], [1 + 2j, 3]),
                       ([-0.0, [0, -1]], [complex(-0.0, 0), complex(0, -1)]),
                       ([[np.float64(0.5), 1], [2, 3]], [0.5 + 1j, 2 + 3j])):
        back = matrix_from_jsonable({"rows": 1, "cols": 2, "data": data})
        assert back.dtype == np.complex128
        assert back.tobytes() == np.array(want).tobytes()  # signed zeros
    # float subclasses are numbers; without pairs the result stays real
    obj = {"rows": 1, "cols": 2, "data": [np.float64(1.5), 2]}
    back = matrix_from_jsonable(obj)
    assert back.dtype == np.float64
    assert np.array_equal(back, [[1.5, 2.0]])


def test_jsonable_rejects_bad_pairs():
    for data in ([[1, True], [0, 0]], [[1, "2"], [0, 0]], [[1, 2], [3]],
                 [[1, [2]], [0, 0]], [[1, 2, 3], [4, 5, 6]], [1, None],
                 [[True, 1.0], [0.5, 1]], [[0.5, 1], [True, 1.0]],
                 [[1.0], [0.5, 1]], [[0.5, 1], [1, 2, 3]],
                 [["1", 2], [0.5, 1]], [[0.5, 1], ["1", 2]],
                 [[None, 0], [0.5, 1]]):
        with pytest.raises(fc.ParseError, match="bad matrix entry"):
            matrix_from_jsonable({"rows": 1, "cols": 2, "data": data})
    with pytest.raises(fc.ParseError):
        matrix_from_jsonable([1, 2])


def test_jsonable_pairs_keep_signed_zeros():
    c = np.array([[-0.0 + 1j, 2 - 0.0j]])
    back = matrix_from_jsonable(matrix_to_jsonable(c))
    assert np.array_equal(np.signbit(back.real), np.signbit(c.real))
    assert np.array_equal(np.signbit(back.imag), np.signbit(c.imag))


@pytest.mark.parametrize("data", [
    [0.25, -1.5, 3e300, 7.0],
    [[0.25, -1.5], [3e300, 7.0]],
    [1, 2.5, -3, 2 ** 70],
    [[1, 2.5], [-3, 0], [2 ** 70, 0.125]],
    [-0.0, 0.0, -0.0, 1],
    [[-0.0, 0.0], [0.0, -0.0]],
    [5e-324, -2.2e-310, 1e-308],
    [[5e-324, -2.2e-310], [1e-308, -5e-324]],
], ids=["real", "complex", "int-float", "int-float-pairs", "signed-zero",
        "signed-zero-pairs", "subnormal", "subnormal-pairs"])
def test_decoded_entries_are_numpy_bitwise(data):
    got = _decode_entries(data)
    want = np.array(data, dtype=np.float64)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("data", [
    [10 ** 400, 2], [-(10 ** 400), 2], [[10 ** 400, 0], [1, 2]],
    [[1, 2], 10 ** 400], [1, [0, -(10 ** 400)]],
], ids=["real", "negative", "pair", "fallback-number", "fallback-pair"])
def test_integer_beyond_float_range_is_non_finite(data):
    with pytest.raises(fc.NonFinite):
        matrix_from_jsonable({"rows": 1, "cols": 2, "data": data})


@pytest.mark.parametrize("name", ["m.csv", "m.json"])
def test_read_rejects_bytes_that_are_not_utf8(tmp_path, name):
    path = tmp_path / name
    path.write_bytes(b"\xff\xfe\x00bad")
    with pytest.raises(fc.ParseError, match="not UTF-8"):
        fc.read_matrix(str(path))


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                    reason="this Python reads integers of any length")
def test_read_rejects_integer_too_long_to_read(tmp_path):
    path = tmp_path / "m.json"
    path.write_text('{"rows": 1, "cols": 1, "data": [1%s]}' % ("0" * 5000))
    with pytest.raises(fc.ParseError, match="invalid JSON"):
        fc.read_matrix(str(path))
