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


def test_write_csv_bytes_of_edge_cells(tmp_path):
    # json_sanitize passes Python ints and finite floats straight through;
    # signed zeros, subnormals, the float range's ends, non-finite floats,
    # bools and numpy scalars of each kind keep these exact bytes
    rows = [
        [-0.0, 5e-324, 1e-310, 1e308, -1e308],
        [math.nan, math.inf, -math.inf, True, False],
        [np.float64(-0.0), np.float64(5e-324), np.float64(math.nan), np.float64(-math.inf), np.bool_(True)],
        [np.float32(1.5), np.int64(-7), np.int32(3), 2**70, np.bool_(False)],
    ]
    path = tmp_path / "edge.csv"
    write_csv(path, ["a", "b", "c", "d", "e"], rows)
    assert path.read_bytes() == (
        b"a,b,c,d,e\r\n"
        b"-0.0,5e-324,1e-310,1e+308,-1e+308\r\n"
        b"nan,inf,-inf,True,False\r\n"
        b"-0.0,5e-324,nan,-inf,True\r\n"
        b"1.5,-7,3,1180591620717411303424,False\r\n"
    )
