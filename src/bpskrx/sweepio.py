"""CSV schema for sweep results.

One fixed column set for every emitter (analytic sweeps, Monte Carlo runs):

    alpha_sq,receiver,eta,nu,tau,xi,p_error,beta_opt,r_opt,gamma_opt,provenance,std_err

Numbers are written with ``repr``, Python's shortest round-trip decimal. A
blank field means "this quantity does not enter that receiver's formula"
(never NaN); each tag's entry in `receivers.RECEIVERS` lists the detector
columns it keeps. ``std_err`` is filled only on Monte Carlo rows. Every
number is finite; the reader rejects ``inf`` and ``nan``. A row is an
immutable named tuple, written and parsed column by column in one pass.

Metadata travels in ``#``-prefixed ``key=value`` lines before the header;
readers skip any ``#`` line. No timestamps are written anywhere, so equal
inputs give byte-equal files: UTF-8 with LF endings. The reader takes CRLF
and lone CR endings as LF.

Within one call each distinct cell is formatted, and each distinct text
parsed, once: a file repeats alpha^2 on every row of a point and the
detector values on most of them. The tables live only for that call. Two
cells that compare equal share a text, except the zeros: 0.0 and -0.0 are
one key but two texts, so a zero is never stored. A cell is a float, a str
or None, as `CsvRow` annotates; an unhashable cell, such as a 0-d numpy
array, raises TypeError. A file's bytes move in ``os.write`` and ``os.read``
calls on a descriptor, with no buffered file object between.
"""

from __future__ import annotations

import math
import os
from typing import NamedTuple

from .core import PROVENANCES, CsvFormatError, ReceiverResult
from .receivers import RECEIVERS

__all__ = ["CsvRow", "row_from_result", "write_csv", "read_csv", "write_text"]


class CsvRow(NamedTuple):
    alpha_sq: float
    receiver: str
    eta: float | None
    nu: float | None
    tau: float | None
    xi: float | None
    p_error: float
    beta_opt: float | None
    r_opt: float | None
    gamma_opt: float | None
    provenance: str
    std_err: float | None


_FIELDS = CsvRow._fields
_CSV_HEADER = ",".join(_FIELDS)
_O_BINARY = getattr(os, "O_BINARY", 0)  # Windows translates newlines without it
_NUMERIC = tuple(i for i, col in enumerate(_FIELDS) if col not in ("receiver", "provenance"))
#: Per receiver tag, whether its rows keep the eta, nu, tau and xi columns.
_KEEP = {
    tag: tuple(col in rec.detector_cols for col in ("eta", "nu", "tau", "xi"))
    for tag, rec in RECEIVERS.items()
}


def row_from_result(
    alpha_sq: float, result: ReceiverResult, std_err: float | None = None
) -> CsvRow:
    """Serialize a receiver evaluation, blanking the detector columns its
    entry in the receiver table does not keep."""
    receiver, p_error, provenance, beta_opt, r_opt, gamma_opt, det = result
    eta, nu, tau, xi = det
    keep_eta, keep_nu, keep_tau, keep_xi = _KEEP[receiver]
    return tuple.__new__(CsvRow, (
        alpha_sq, receiver, eta if keep_eta else None, nu if keep_nu else None,
        tau if keep_tau else None, xi if keep_xi else None,
        p_error, beta_opt, r_opt, gamma_opt, provenance, std_err,
    ))


class _CellTexts(dict):
    """One call's cell -> text table: a cell it lacks is formatted and
    stored, except a zero, whose sign its key cannot hold."""

    __slots__ = ()

    def __missing__(self, cell):
        text = cell if isinstance(cell, str) else repr(float(cell))
        if cell:
            self[cell] = text
        return text


def write_csv(path, rows, metadata: dict | None = None) -> None:
    """Write rows of float, str or None cells (UTF-8, LF endings), ``#`` metadata first."""
    lines = [f"# {key}={value}" for key, value in (metadata or {}).items()]
    lines.append(_CSV_HEADER)
    text_of = _CellTexts({None: ""}).__getitem__
    lines += [",".join(map(text_of, row)) for row in rows]
    write_text(path, "\n".join(lines) + "\n")


def write_text(path, text: str) -> None:
    """Write ``text`` as UTF-8, newlines as given, creating or truncating
    ``path`` as ``open(path, "w")`` does."""
    data = memoryview(text.encode("utf-8"))
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC | _O_BINARY, 0o666)
    try:
        while data:
            data = data[os.write(fd, data):]
    finally:
        os.close(fd)


def _read_bytes(path) -> bytes:
    fd = os.open(path, os.O_RDONLY | _O_BINARY)
    try:
        chunks = []
        while chunk := os.read(fd, 1 << 16):
            chunks.append(chunk)
    except OSError as exc:  # a directory fails here; name it as open() does
        raise OSError(exc.errno, exc.strerror, os.fspath(path)) from None
    finally:
        os.close(fd)
    return b"".join(chunks)


def _parse_float(text: str, line_no: int, col: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise CsvFormatError(f"column {col!r} is not a number: {text!r}", line_no)
    if not math.isfinite(value):
        raise CsvFormatError(f"column {col!r} is not finite: {text!r}", line_no)
    return value


def read_csv(path) -> tuple[dict, list[CsvRow]]:
    """Parse a sweep CSV back into rows.

    Raises CsvFormatError naming the offending 1-based line on any schema
    violation: bytes that are not UTF-8, wrong header, wrong column count,
    non-numeric or non-finite values, blank required fields, unknown receiver
    tags or provenance.
    """
    try:
        text = _read_bytes(path).decode("utf-8")
    except UnicodeDecodeError as exc:  # exc.object holds the whole file's bytes
        bad = exc.object[exc.start]
        line = len(exc.object[: exc.start + 1].splitlines())
        raise CsvFormatError(f"not UTF-8: {exc.reason} {bad:#04x}", line) from None
    raw = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")  # as text mode reads
    metadata: dict = {}
    rows: list[CsvRow] = []
    header_seen = False
    values: dict = {"": None}  # text -> value, for this file
    for idx, line in enumerate(raw, start=1):
        if line == "" and idx == len(raw):
            break  # trailing newline
        if line.startswith("#"):
            body = line[1:].strip()
            if "=" in body:
                key, _, value = body.partition("=")
                metadata[key.strip()] = value.strip()
            continue
        if not header_seen:
            if line != _CSV_HEADER:
                raise CsvFormatError(
                    f"expected header {_CSV_HEADER!r}, got {line!r}", idx
                )
            header_seen = True
            continue
        parts = line.split(",")
        if len(parts) != len(_FIELDS):
            raise CsvFormatError(
                f"expected {len(_FIELDS)} columns, got {len(parts)}", idx
            )
        if parts[1] not in RECEIVERS:
            raise CsvFormatError(f"unknown receiver {parts[1]!r}", idx)
        if parts[10] not in PROVENANCES:
            raise CsvFormatError(f"unknown provenance {parts[10]!r}", idx)
        for i in _NUMERIC:  # the two text columns stay as read
            text = parts[i]
            if text in values:
                parts[i] = values[text]
            else:
                parts[i] = values[text] = _parse_float(text, idx, _FIELDS[i])
        if parts[0] is None or parts[6] is None:
            raise CsvFormatError("alpha_sq and p_error must not be blank", idx)
        rows.append(tuple.__new__(CsvRow, parts))
    if not header_seen:
        raise CsvFormatError("no header line found", max(len(raw), 1))
    return metadata, rows
