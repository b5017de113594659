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
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .core import PROVENANCES, CsvFormatError, ReceiverResult
from .receivers import RECEIVERS

__all__ = ["CSV_HEADER", "CsvRow", "row_from_result", "write_csv", "read_csv"]


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
CSV_HEADER = ",".join(_FIELDS)
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


def write_csv(path, rows, metadata: dict | None = None) -> None:
    """Write rows (UTF-8, LF endings) with ``#`` metadata lines up front."""
    lines = []
    for key, value in (metadata or {}).items():
        lines.append(f"# {key}={value}")
    lines.append(CSV_HEADER)
    lines += [
        ",".join(["" if x is None else x if isinstance(x, str) else repr(float(x)) for x in row])
        for row in rows
    ]
    data = ("\n".join(lines) + "\n").encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(data)


def _parse_float(text: str, line_no: int, col: str) -> float | None:
    if text == "":
        return None
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
        with open(path, "rb") as fh:
            text = fh.read().decode("utf-8")
    except UnicodeDecodeError as exc:  # exc.object holds the whole file's bytes
        bad = exc.object[exc.start]
        line = len(exc.object[: exc.start + 1].splitlines())
        raise CsvFormatError(f"not UTF-8: {exc.reason} {bad:#04x}", line) from None
    raw = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")  # as text mode reads
    metadata: dict = {}
    rows: list[CsvRow] = []
    header_seen = False
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
            if line != CSV_HEADER:
                raise CsvFormatError(
                    f"expected header {CSV_HEADER!r}, got {line!r}", idx
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
            parts[i] = _parse_float(parts[i], idx, _FIELDS[i])
        if parts[0] is None or parts[6] is None:
            raise CsvFormatError("alpha_sq and p_error must not be blank", idx)
        rows.append(tuple.__new__(CsvRow, parts))
    if not header_seen:
        raise CsvFormatError("no header line found", max(len(raw), 1))
    return metadata, rows
