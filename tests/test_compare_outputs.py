"""The byte-identity checker ``tests/compare_outputs.py``: its ulp distance
and relative difference, its per-value diff of CSV and JSON files and its drift table, on synthetic
bytes and without a subprocess."""

import json
import math

from compare_outputs import _relative, _ulps, drift_table, value_diffs


def test_ulps_counts_the_doubles_between_two_numbers():
    assert _ulps(0.0, -0.0) == 0
    assert _ulps(1.0, math.nextafter(1.0, 2.0)) == 1
    assert _ulps(1.0, math.nextafter(1.0, 0.0)) == 1
    assert _ulps(3, 3.0) == 0
    # across zero: the smallest subnormals either side are two steps apart
    assert _ulps(5e-324, -5e-324) == 2
    assert _ulps(-1.0, 1.0) == 2 * _ulps(0.0, 1.0)
    for other in (math.inf, math.nan, "1.0", True, None):
        assert _ulps(1.0, other) is None


def test_value_diffs_of_csv_cells():
    old = b"n,width,label\n8,0.5,a\n9,0.25,b\n"
    new = b"n,width,label\n8,0.5,a\n9,0.25000000000000006,c\n"
    assert value_diffs("rects.csv", old, new) == [
        ("label[1]", "b", "c", None),
        ("width[1]", 0.25, 0.25000000000000006, 1),
    ]
    assert value_diffs("rects.csv", old, old) == []


def test_value_diffs_of_json_leaves():
    old = {"cascade": {"widths": [1.0, 2.0], "ok": True}, "failed": []}
    new = {"cascade": {"widths": [1.0, 2.0000000000000004], "ok": True}, "failed": ["x"], "extra": 1.5}
    assert value_diffs("report.json", json.dumps(old).encode(), json.dumps(new).encode()) == [
        ("cascade.widths[1]", 2.0, 2.0000000000000004, 1),
        ("extra", None, 1.5, None),
        ("failed", "list", None, None),
        ("failed[0]", None, "x", None),
    ]


def test_value_diffs_of_other_and_one_sided_files():
    whole = [("<file>", None, None, None)]
    assert value_diffs("<stdout>", b"a", b"b") == whole
    assert value_diffs("cascade.svg", b"<svg/>", b"<svg />") == whole
    assert value_diffs("report.json", None, b"{}") == whole
    assert value_diffs("rects.csv", b"n\n1\n", None) == whole


def test_relative_difference_ranks_moves_from_zero_as_one():
    assert _relative(0.0, -0.0) == _relative(0, 0.0) == 0.0
    assert _relative(1.0, math.nextafter(1.0, 2.0)) == 2.0**-52 / (1.0 + 2.0**-52)
    assert _relative(-2.0, 2.0) == 2.0
    # the ulp distance of a move to or from 0.0 counts every double between
    for tiny in (1e-300, 1e-20, 0.5):
        assert _relative(0.0, tiny) == _relative(tiny, 0.0) == 1.0
        assert _ulps(0.0, tiny) > 1e17
    for other in (math.inf, math.nan, "1.0", True, None):
        assert _relative(1.0, other) is None


def test_drift_table_groups_by_file_and_key():
    rows = [
        ("report.json", "cascade.widths[1]", 1, 1e-16),
        ("report.json", "cascade.widths[3]", 5, 4e-16),
        ("cascade.csv", "width[0]", None, None),
        ("report.json", "rects.rho", 2, 3e-16),
        ("rects.csv", "y_lo[0]", 4607182418800017408, 1.0),
    ]
    lines = drift_table(rows)
    assert lines[0].split() == ["file", "column", "or", "key", "values", "max", "ulps", "max", "rel"]
    assert [line.split() for line in lines[1:]] == [
        ["cascade.csv", "width[]", "1", "text", "text"],
        ["rects.csv", "y_lo[]", "1", "4607182418800017408", "1"],
        ["report.json", "cascade.widths[]", "2", "5", "4e-16"],
        ["report.json", "rects.rho", "1", "2", "3e-16"],
        ["cascade.csv", "(whole", "file)", "1", "text", "text"],
        ["rects.csv", "(whole", "file)", "1", "4607182418800017408", "1"],
        ["report.json", "(whole", "file)", "3", "5", "4e-16"],
    ]
    assert drift_table([]) == lines[:1]
