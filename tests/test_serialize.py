import csv
import math

import numpy as np

from grig.serialize import write_csv


def test_write_csv_cells_read_back_exactly(tmp_path):
    # numpy and Python scalars, non-finite floats, a header of floats and
    # a parent directory that does not exist yet; rows come from a generator.
    # A float32 cell is written as the float64 it widens to, not as str()
    floats = [np.float64(0.1), 1.0 / 3.0, np.float32(0.1), -2.5e-300, math.nan, math.inf, -math.inf]
    ints = [np.int64(7), 0, np.int32(-3), 2**40, np.int64(1), 5, np.int64(2**62)]
    path = tmp_path / "new" / "dir" / "table.csv"
    rows = ((s, i, x) for s, i, x in zip("abcdefg", ints, floats))
    write_csv(path, ["label", np.float64(0.25), 1e-17], rows)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert path.read_bytes().endswith(b"\r\n")
    assert rows[0] == ["label", "0.25", "1e-17"]
    assert len(rows) == 1 + len(floats)
    for (label, i, x), s, n, f in zip(rows[1:], "abcdefg", ints, floats):
        assert label == s and int(i) == int(n) and i == str(int(n))
        assert x == repr(float(f))
        back = float(x)
        assert back == f if math.isfinite(f) else repr(back) == repr(float(f))
