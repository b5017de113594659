"""The CSV writer and reader against a reference formatter: each formats a
distinct cell, or parses a distinct text, once per file, which must not
change a byte, a parsed row or an error, and the file's bytes move in
loops of low-level reads and writes."""

import math
import os
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bpskrx import sweepio
from bpskrx.core import CsvFormatError
from bpskrx.sweepio import CsvRow, read_csv, write_csv

HEADER = ",".join(CsvRow._fields)


def _reference_bytes(rows, metadata=None) -> bytes:
    """What `write_csv` wrote when every cell was formatted on its own."""
    lines = [f"# {key}={value}" for key, value in (metadata or {}).items()]
    lines.append(HEADER)
    lines += [
        ",".join(["" if x is None else x if isinstance(x, str) else repr(float(x)) for x in row])
        for row in rows
    ]
    return ("\n".join(lines) + "\n").encode("utf-8")


def _row(alpha_sq=0.5, p_error=0.1, eta=None, nu=None, beta_opt=None, r_opt=None,
         gamma_opt=None, receiver="type1", std_err=None, provenance="analytic"):
    return CsvRow(alpha_sq, receiver, eta, nu, None, None, p_error, beta_opt, r_opt,
                  gamma_opt, provenance, std_err)


def _signs(rows):
    """Each row with every float cell keyed by its repr, so 0.0 != -0.0."""
    return [tuple(repr(x) if isinstance(x, float) else x for x in row) for row in rows]


def _round_trip(tmp_path, rows, metadata=None):
    path = tmp_path / "t.csv"
    write_csv(path, rows, metadata)
    assert path.read_bytes() == _reference_bytes(rows, metadata)
    meta, back = read_csv(path)
    assert meta == {k: str(v) for k, v in (metadata or {}).items()}
    assert _signs(back) == _signs(rows)
    return path.read_bytes()


@pytest.mark.parametrize("first, second", [(0.0, -0.0), (-0.0, 0.0)], ids=["pos-neg", "neg-pos"])
def test_signed_zeros_keep_their_signs(tmp_path, first, second):
    """0.0 and -0.0 are one dict key but two texts: in one column over two
    rows, in two columns of one row, and beside the same zero repeated."""
    rows = [
        _row(nu=first, r_opt=first),
        _row(nu=second, r_opt=first),
        _row(nu=first, r_opt=second, beta_opt=second),
        _row(p_error=second, nu=second, gamma_opt=first),
    ]
    data = _round_trip(tmp_path, rows)
    assert data.count(b"-0.0") == 5


def test_equal_cells_of_other_types_write_as_float(tmp_path):
    """An int, a bool, a Decimal and a numpy float beside the float they
    equal, in either order, each write ``repr(float(x))``."""
    pairs = [(1, 1.0), (True, 1.0), (Decimal("0.5"), 0.5), (np.float64(0.25), 0.25),
             (np.float64(-0.0), 0.0), (False, -0.0)]
    rows = []
    for other, value in pairs:
        rows += [_row(eta=other, nu=value), _row(eta=value, nu=other)]
    path = tmp_path / "t.csv"
    write_csv(path, rows)
    assert path.read_bytes() == _reference_bytes(rows)
    assert b",1.0,1.0," in path.read_bytes() and b",-0.0,0.0," in path.read_bytes()


def test_unhashable_cell_is_refused(tmp_path):
    """A cell is a float, a str or None: a 0-d numpy array raises TypeError,
    as a list does, and no file is written."""
    path = tmp_path / "t.csv"
    with pytest.raises(TypeError, match="unhashable"):
        write_csv(path, [_row(eta=0.9), _row(eta=np.array(0.9), nu=np.array(-0.0))])
    assert not path.exists()


def test_non_numeric_cell_raises_as_before(tmp_path):
    with pytest.raises(TypeError):
        write_csv(tmp_path / "t.csv", [_row(), _row(eta=[0.5])])
    with pytest.raises(TypeError, match="float"):
        write_csv(tmp_path / "t.csv", [_row(), _row(eta=object())])


def test_non_finite_cells_written_and_refused_at_their_first_line(tmp_path):
    """NaN and inf are written as ``repr`` writes them; the reader refuses
    the first line holding one, in that line's column, however often the
    text repeats below."""
    rows = [_row(), _row(beta_opt=math.nan), _row(r_opt=math.inf, gamma_opt=math.nan),
            _row(beta_opt=-math.inf)]
    path = tmp_path / "t.csv"
    write_csv(path, rows)
    assert path.read_bytes() == _reference_bytes(rows)
    with pytest.raises(CsvFormatError) as err:
        read_csv(path)
    assert str(err.value) == "line 3: column 'beta_opt' is not finite: 'nan'"
    write_csv(path, [rows[0], rows[2], rows[3]])
    with pytest.raises(CsvFormatError) as err:
        read_csv(path)
    assert str(err.value) == "line 3: column 'r_opt' is not finite: 'inf'"


def test_bad_text_on_two_lines_raises_at_the_first(tmp_path):
    good = "0.5,type1,0.9,,,,0.1,0.2,0.3,,analytic,"
    bad = "0.5,type1,0.9,,,,0.1,x1,0.3,,analytic,"
    path = tmp_path / "t.csv"
    path.write_text("\n".join(["# a=1", HEADER, good, bad, good, bad, ""]))
    with pytest.raises(CsvFormatError) as err:
        read_csv(path)
    assert str(err.value) == "line 4: column 'beta_opt' is not a number: 'x1'"
    assert err.value.line == 4


_POOL = [0.0, -0.0, 0.5, -0.5, 1.0, 1e-300, 5e-324, 0.1 + 0.2, 1.7976931348623157e308, None]


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.lists(st.tuples(*[st.sampled_from(_POOL[:-1])] * 2, *[st.sampled_from(_POOL)] * 8),
                max_size=12))
def test_cached_cells_match_the_reference_formatter(tmp_path_factory, cells):
    """Rows drawn from a small pool with signed zeros write the reference
    bytes and read back sign for sign."""
    rows = [CsvRow(a, "type2", eta, nu, tau, xi, p, beta, r, gamma, "montecarlo", se)
            for a, p, eta, nu, tau, xi, beta, r, gamma, se in cells]
    _round_trip(tmp_path_factory.getbasetemp(), rows, {"tool": "test"})


def test_reads_and_writes_loop_over_short_transfers(tmp_path, monkeypatch):
    """Seven bytes per ``os.write`` and ``os.read`` call leave the file's
    bytes and the parsed rows as they are."""
    rows = [_row(alpha_sq=0.1 * k, p_error=0.3 / (k + 1), eta=0.9, nu=-0.0) for k in range(1, 30)]
    meta = {"note": "η = 0.9"}
    expected = _reference_bytes(rows, meta)
    real_write, real_read = os.write, os.read
    calls = {"write": 0, "read": 0}

    def write7(fd, data):
        calls["write"] += 1
        return real_write(fd, data[:7])

    def read7(fd, n):
        calls["read"] += 1
        return real_read(fd, min(n, 7))

    monkeypatch.setattr(os, "write", write7)
    monkeypatch.setattr(os, "read", read7)
    path = tmp_path / "t.csv"
    write_csv(path, rows, meta)
    back = read_csv(path)
    monkeypatch.undo()
    assert path.read_bytes() == expected
    assert back == ({"note": "η = 0.9"}, rows)
    assert calls == {"write": -(-len(expected) // 7), "read": -(-len(expected) // 7) + 1}


def test_read_of_a_directory_raises_as_open_does(tmp_path):
    with pytest.raises(IsADirectoryError) as opened:
        open(tmp_path, "rb")
    with pytest.raises(IsADirectoryError) as err:
        read_csv(tmp_path)
    assert str(err.value) == str(opened.value)


def test_new_file_mode_is_open_default(tmp_path):
    """A new file gets the mode ``open(path, "w")`` gives it."""
    open(tmp_path / "by_open", "w").close()
    sweepio.write_text(tmp_path / "by_write_text", "x\n")
    assert (tmp_path / "by_write_text").stat().st_mode == (tmp_path / "by_open").stat().st_mode
