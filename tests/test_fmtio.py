"""Deterministic emission: the CSV writer against fmt_float."""

import re

import numpy as np
import pytest

from slicealg.fmtio import CSV_BLOCK, csv_chunks, fmt_float, write_csv

SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 1e-300, 1e17, -1e17, 3.0, -12.0,
           2.0 ** 52, 2.0 ** 53 + 2.0, 0.1, 1.0 / 3.0, 1.7976931348623157e308]


def _expected(header, rows):
    lines = [",".join(header)]
    lines += [",".join(fmt_float(v) for v in row) for row in rows]
    return ("\n".join(lines) + "\n").encode("utf-8")


def test_write_csv_bytes_match_fmt_float(tmp_path):
    # special values, and random magnitudes over more than one block
    rng = np.random.default_rng(541)
    rand = rng.standard_normal((CSV_BLOCK + 5, 3)) \
        * 10.0 ** rng.integers(-300, 300, (CSV_BLOCK + 5, 3))
    rows = np.vstack([np.reshape(SPECIAL[:12], (4, 3)), rand])
    header = ["a", "b", "c"]
    path = tmp_path / "out.csv"
    write_csv(path, header, rows)
    assert path.read_bytes() == _expected(header, rows)
    # a list of tuples, as well as an array
    small = [tuple(SPECIAL[i:i + 2]) for i in range(0, len(SPECIAL), 2)]
    write_csv(path, ["x", "y"], small)
    assert path.read_bytes() == _expected(["x", "y"], small)
    write_csv(path, ["x", "y"], np.empty((0, 2)))
    assert path.read_bytes() == b"x,y\n"


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_write_csv_rejects_non_finite(tmp_path, bad):
    rows = np.ones((CSV_BLOCK + 2, 2))
    rows[-1, 1] = bad
    path = tmp_path / "bad.csv"
    with pytest.raises(ValueError, match="non-finite"):
        write_csv(path, ["x", "y"], rows)
    assert not path.exists()


def test_write_csv_repeated_values_match_fmt_float(tmp_path):
    # grid-like columns: a constant x0, coordinates that repeat, values
    # symmetric under x1 <-> x2 and signs, over more than one block
    axis = np.linspace(-1.0, 1.0, 21)
    x1, x2, x3 = (a.ravel() for a in np.meshgrid(axis, axis, axis, indexing="ij"))
    assert len(x1) > 2 * CSV_BLOCK
    rng = np.random.default_rng(557)
    rows = np.column_stack([np.full_like(x1, 0.1), x1, x2, x3,
                            np.exp(-(x1 * x1 + x2 * x2)), np.abs(x1 * x2) / 3.0,
                            np.sin(x3) * 1e-300, rng.standard_normal(len(x1))])
    header = ["x0", "x1", "x2", "x3", "a", "b", "c", "d"]
    path = tmp_path / "grid.csv"
    write_csv(path, header, rows)
    assert path.read_bytes() == _expected(header, rows)
    # still streamed CSV_BLOCK rows at a time
    assert len(list(csv_chunks(header, rows))) == 1 + -(-len(rows) // CSV_BLOCK)


def test_write_csv_keeps_the_sign_of_zero(tmp_path):
    # values are matched by bit pattern: -0.0 == 0.0, but they print apart
    col = np.tile([0.0, -0.0, 0.0, 1.0, -0.0], CSV_BLOCK // 2)
    rows = np.column_stack([col, -col])
    path = tmp_path / "zeros.csv"
    write_csv(path, ["a", "b"], rows)
    assert path.read_bytes() == _expected(["a", "b"], rows)
    assert path.read_text().splitlines()[1:4] == ["0,-0", "-0,0", "0,-0"]


def test_write_csv_repeating_beside_distinct_columns(tmp_path):
    rng = np.random.default_rng(563)
    n = CSV_BLOCK + 7
    distinct = rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n)
    repeats = rng.choice(SPECIAL, n)
    for rows in (np.column_stack([distinct, repeats, distinct[::-1]]),
                 np.column_stack([repeats, distinct]),
                 np.column_stack([distinct, repeats])[::2]):
        header = [f"c{j}" for j in range(rows.shape[1])]
        path = tmp_path / "mixed.csv"
        write_csv(path, header, rows)
        assert path.read_bytes() == _expected(header, rows)


def test_write_csv_single_row_and_empty_body(tmp_path):
    path = tmp_path / "one.csv"
    for rows in ([[-0.0, 0.1, 5e-324]], [[2.0, 2.0, 2.0]], [[7.0]]):
        header = ["h"] * len(rows[0])
        write_csv(path, header, rows)
        assert path.read_bytes() == _expected(header, rows)
    for rows in (np.empty((0, 3)), []):
        write_csv(path, ["a", "b", "c"], rows)
        assert path.read_bytes() == b"a,b,c\n"


@pytest.mark.parametrize("column", [0, 1])
def test_write_csv_rejects_non_finite_in_any_column(tmp_path, column):
    # column 0 repeats one value, column 1 has no repeats
    rows = np.column_stack([np.full(CSV_BLOCK + 3, 0.5),
                            np.arange(CSV_BLOCK + 3.0)])
    rows[CSV_BLOCK + 1, column] = float("nan")
    path = tmp_path / "bad.csv"
    with pytest.raises(ValueError, match="non-finite value in output: nan"):
        write_csv(path, ["x", "y"], rows)
    assert not path.exists()


def test_load_json_errors_name_the_path(tmp_path):
    from slicealg.errors import IoError, ParseError
    from slicealg.fmtio import load_json
    missing = tmp_path / "missing.json"
    with pytest.raises(IoError, match="cannot read .*missing.json") as info:
        load_json(missing)
    assert isinstance(info.value, OSError)
    for name, data in (("text.json", b"{not json"), ("latin1.json", b"[\xff]")):
        path = tmp_path / name
        path.write_bytes(data)
        with pytest.raises(ParseError, match=name) as info:
            load_json(path)
        assert isinstance(info.value, ValueError)


def test_read_text_errors_name_the_path(tmp_path):
    from slicealg.errors import IoError, ParseError
    from slicealg.fmtio import read_text
    path = tmp_path / "points.txt"
    path.write_bytes(b"1+i\r\n# x\n")
    assert read_text(path) == "1+i\n# x\n"
    with pytest.raises(IoError, match="cannot read .*missing.txt") as info:
        read_text(tmp_path / "missing.txt")
    assert isinstance(info.value, OSError)
    path.write_bytes(b"0.5\n\xff\n")
    with pytest.raises(ParseError, match="points.txt.*can't decode") as info:
        read_text(path)
    assert isinstance(info.value, ValueError)


def test_write_text_creates_directories(tmp_path):
    from slicealg.errors import IoError
    from slicealg.fmtio import write_text
    path = tmp_path / "a" / "b" / "out.txt"
    write_text(path, ["one\n", "two\n"])
    assert path.read_bytes() == b"one\ntwo\n"
    blocker = tmp_path / "file"
    blocker.write_text("")
    with pytest.raises(IoError, match="cannot write .*file/out.txt") as info:
        write_text(blocker / "out.txt", ["x"])
    assert isinstance(info.value, OSError)
    # the CSV writer goes through write_text as well
    with pytest.raises(IoError):
        write_csv(blocker / "out.csv", ["x"], [[1.0]])


def test_series_records_round_trip(tmp_path):
    import json
    from slicealg import MonogenicSeries, PowerSeries, Quaternion
    from slicealg.errors import ParseError
    from slicealg.fmtio import dumps_json
    rng = np.random.default_rng(547)
    coeffs = [Quaternion(*q) for q in rng.standard_normal((7, 4))]
    f = PowerSeries(coeffs)
    back = PowerSeries.from_record(json.loads(dumps_json(f.to_record())), "f")
    assert back.coeffs == f.coeffs and not back.exact
    g = MonogenicSeries(coeffs)
    rec = g.to_record()
    assert rec["basis"] == "P"
    assert MonogenicSeries.from_record(json.loads(dumps_json(rec)), "g").coeffs \
        == g.coeffs
    for bad, cls, message in (
            ({"basis": "P"}, PowerSeries,
             "bad data: expected a JSON array, got an object"),
            ([[1, 2, 3]], PowerSeries,
             "bad data[0]: expected a JSON array of 4 entries, got 3 entries"),
            ([[1, 0, 0, 0], [1, 2, 3, 4, 5]], PowerSeries,
             "bad data[1]: expected a JSON array of 4 entries, got 5 entries"),
            ([[0, 0, True, 0]], PowerSeries,
             "data[0][2] must be a number, got true"),
            ([[0, 0, 0, -10 ** 400]], PowerSeries,
             "bad data[0][3]: integer beyond the float range"),
            ([[1, 0, 0, 0]], MonogenicSeries,
             "data: expected a JSON object with keys basis, coeffs"),
            ({"basis": "P", "coeffs": 5}, MonogenicSeries,
             "bad data coeffs: expected a JSON array, got a number"),
            ({"basis": "P", "coeffs": [[1, 0, 0]]}, MonogenicSeries,
             "bad data coeffs[0]: expected a JSON array of 4 entries, got 3 entries")):
        with pytest.raises(ParseError, match=f"^{re.escape(message)}$"):
            cls.from_record(bad, "data")


def test_json_number_converters_take_numbers_only():
    # int() and float() read the string "2" as 2; a record holds numbers
    from slicealg.errors import ParseError
    from slicealg.fmtio import float_from_json, int_from_json
    assert int_from_json(3, "n") == 3 and int_from_json(3.0, "n") == 3
    assert float_from_json(2, "n") == 2.0 and float_from_json(-0.5, "n") == -0.5
    for convert in (int_from_json, float_from_json):
        for value in ("2", None, [2], {"n": 2}):
            with pytest.raises(ParseError, match="^bad n: expected a JSON number"):
                convert(value, "n")


def test_array_from_json_names_the_entry_it_refuses():
    # one reader for every JSON array: anything else is named by its JSON
    # type, and a refused entry by its index
    from slicealg.errors import ParseError
    from slicealg.fmtio import array_from_json, float_from_json
    from slicealg.quaternion import quaternion_from_json
    assert array_from_json([1, 2.5], "a", float_from_json) == (1.0, 2.5)
    assert array_from_json([], "a", float_from_json) == ()
    for value, got in (({"0": 1}, "an object"), ("12", "a string"),
                       (5, "a number"), (2.5, "a number"), (True, "a boolean"),
                       (None, "null")):
        with pytest.raises(ParseError, match=f"^bad a: expected a JSON array, "
                                             f"got {got}$"):
            array_from_json(value, "a", float_from_json)
    with pytest.raises(ParseError, match=r"^bad a: expected a JSON array of "
                                         r"3 entries, got 2 entries$"):
        array_from_json([1, 2], "a", float_from_json, 3)
    quads = [[1, 0, 0, 0], [0, 1, 0, 0], [0, "1", 0, 0]]
    with pytest.raises(ParseError, match=r'^bad f\.json\[2\]\[1\]: expected a '
                                         r'JSON number, got a string$'):
        array_from_json(quads, "f.json", quaternion_from_json)


def test_refusals_name_the_json_type_not_the_value():
    # a wrong-typed value of any size is named by its JSON type; a 300-
    # character string and a 200-entry array used to be echoed whole
    from slicealg.errors import ParseError
    from slicealg.fmtio import float_from_json, int_from_json
    from slicealg.quaternion import parse_quaternion
    for convert, value, message in (
            (lambda v: float_from_json(v, "lambda"), "x" * 300,
             "bad lambda: expected a JSON number, got a string"),
            (lambda v: int_from_json(v, "degree"), [7] * 200,
             "bad degree: expected a JSON number, got an array"),
            (parse_quaternion, ["i"] * 200,
             "quaternion literal must be a string, got an array"),
            (parse_quaternion, {"a": 1},
             "quaternion literal must be a string, got an object"),
            (parse_quaternion, True,
             "quaternion literal must be a string, got a boolean"),
            (parse_quaternion, None, "quaternion literal must be a string, got null")):
        with pytest.raises(ParseError, match=f"^{re.escape(message)}$"):
            convert(value)


def test_record_fields_refuses_what_it_does_not_read():
    # one reader for every JSON record: the object, its required keys, no
    # unknown key, and each present key converted to its field
    from slicealg.errors import ParseError
    from slicealg.fmtio import float_from_json, record_fields
    fields = {"n": ("count", int), "x": ("x", lambda v: float_from_json(v, "x"))}
    assert record_fields({"n": 3}, fields, "rec", required=("n",)) == {"count": 3}
    assert record_fields({}, fields, "rec") == {}
    for rec, required, message in (
            ([3], (), "^rec: expected a JSON object$"),
            ({"x": 1.0}, ("n",), "^rec: expected a JSON object with keys n$"),
            ({"n": 3, "m": 4}, (), "^rec: unknown key 'm'; accepted keys: n, x$"),
            ({"n": "three"}, (), "^rec: invalid literal"),
            ({"x": "1"}, (), "^bad x: expected a JSON number, got a string$")):
        with pytest.raises(ParseError, match=message):
            record_fields(rec, fields, "rec", required=required)
