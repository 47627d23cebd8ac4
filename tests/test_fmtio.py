"""Deterministic emission: the CSV writer against fmt_float."""

import numpy as np
import pytest

from slicealg.fmtio import CSV_BLOCK, fmt_float, write_csv

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
