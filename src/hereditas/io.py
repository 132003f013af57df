"""CSV/JSON file handling and atomic writes."""

from __future__ import annotations

import csv
import hashlib
import io as _io
import json
import os
from dataclasses import MISSING, fields, is_dataclass

import numpy as np

from .errors import InvalidConfigError, InvalidDimensionError
from .standardize import CoefficientVector

INPUT_CODEC = "utf-8-sig"  # every input file: UTF-8 whatever the locale, a leading BOM skipped


def atomic_write_text(path, text: str) -> None:
    """Write via a temp file in the same directory + rename, so a crashed
    run never leaves a partial report.  The file gets mode 0o666 less the
    umask, as ``open(path, "w")`` would create it."""
    path = os.fspath(path)
    tmp = f"{path}.{os.urandom(6).hex()}.tmp"
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def dump_json(obj) -> str:
    """Canonical JSON: sorted keys, fixed separators, trailing newline."""
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def to_json(obj):
    """obj as a JSON value, the mirror of from_json_fields.  An object that
    defines ``to_json_dict`` is encoded by that method (its layout is not its
    fields); a dataclass becomes an object of its fields; dicts are encoded
    value by value, tuples and lists become lists, and numpy arrays their
    ``tolist()``.  Anything else is returned as it is."""
    if hasattr(obj, "to_json_dict"):
        return obj.to_json_dict()
    if is_dataclass(obj):
        return {f.name: to_json(getattr(obj, f.name)) for f in fields(obj)}
    if isinstance(obj, dict):
        return {key: to_json(value) for key, value in obj.items()}
    if isinstance(obj, (tuple, list)):
        return [to_json(value) for value in obj]
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    return obj


# The field annotations each JSON value type may fill: an int also fills a
# float field, a bool only a bool field, null only a "| None" one, and a
# list of numbers an array field (whose class makes it an array).
_JSON_KINDS = {bool: {"bool"}, int: {"int", "float"}, float: {"float"}, str: {"str"},
               type(None): {"None"}, list: {"np.ndarray"}}


def from_json_fields(cls, doc, what: str):
    """The dataclass cls built from a JSON object of its fields.  Raises
    InvalidConfigError, naming ``what`` (e.g. "lasso option"), when doc is
    not an object, names an unknown field, lacks a required one, or holds a
    value of another type.  The annotations are read as written, so cls's
    module must use ``from __future__ import annotations``."""
    if not isinstance(doc, dict):
        raise InvalidConfigError(f"expected a JSON object of {what}s, got {type(doc).__name__}")
    annotations = {f.name: f.type for f in fields(cls)}
    unknown = set(doc) - set(annotations)
    if unknown:
        raise InvalidConfigError(f"unknown {what}s: {sorted(unknown)}")
    missing = [f.name for f in fields(cls) if f.name not in doc
               and f.default is MISSING and f.default_factory is MISSING]
    if missing:
        raise InvalidConfigError(f"missing {what}s: {missing}")
    for name, value in doc.items():
        fits = _JSON_KINDS.get(type(value), set()) & set(annotations[name].split(" | "))
        if not fits or (isinstance(value, list) and not all(type(v) in (int, float) for v in value)):
            raise InvalidConfigError(f"{what} {name!r} must be {annotations[name]}, got {value!r}")
    return cls(**doc)


def read_json(path):
    """The parsed JSON file at path, decoded as INPUT_CODEC; None for no path."""
    if not path:
        return None
    with open(path, encoding=INPUT_CODEC) as fh:
        return json.load(fh)


def read_table(path) -> tuple[list[str], np.ndarray, str]:
    """(header, values, sha256) of the table at ``path``.  The file is read
    once: the sha256 of its bytes, BOM included, names the data in a run's
    manifest, and the same bytes are decoded as INPUT_CODEC and split into
    lines as ``open(path, newline="")`` would split them.  The header is
    csv-parsed and must hold unique names; the values are parsed by numpy's
    ``loadtxt``.  A body that numpy rejects, or that holds a non-finite
    value or a row of the wrong width, is read again row by row with
    ``csv`` only to name the first bad cell; blank lines are skipped."""
    with open(path, "rb") as fh:
        raw = fh.read()
    sha256 = hashlib.sha256(raw).hexdigest()
    lines = _io.TextIOWrapper(_io.BytesIO(raw), encoding=INPUT_CODEC, newline="").readlines()
    del raw  # decoded into lines: the bytes are not read again
    reader = csv.reader(lines)
    try:
        header = next(reader)
    except StopIteration:
        raise InvalidDimensionError(f"{path}: empty file") from None
    header = [h.strip() for h in header]
    if len(set(header)) != len(header):
        raise InvalidDimensionError(f"{path}: duplicate column names in header")
    body = lines[reader.line_num:]
    data, rejected = None, None
    # On a body of blank lines numpy would warn that it read no data.
    if any(line.strip("\r\n") for line in body):
        try:
            data = np.loadtxt(body, delimiter=",", comments=None, ndmin=2, quotechar='"')
        except ValueError as err:
            rejected = err
    if data is None or data.shape[1] != len(header) or not np.all(np.isfinite(data)):
        _name_bad_cell(path, header, body, rejected)
    return header, data, sha256


def _name_bad_cell(path, header: list[str], body: list[str], rejected) -> None:
    """Raise InvalidDimensionError naming the first bad cell of ``body``, the
    lines after the header, numbered from 2: a row of the wrong width or a
    non-numeric cell, else a non-finite value.  ``rejected`` is numpy's
    error, reported when csv finds no cell at fault."""
    linenos, rows = [], []
    for lineno, row in enumerate(csv.reader(body), start=2):
        if not row:
            continue
        if len(row) != len(header):
            raise InvalidDimensionError(
                f"{path}: row {lineno} has {len(row)} cells, expected {len(header)}"
            )
        for name, cell in zip(header, row):
            if not _is_number(cell):
                raise InvalidDimensionError(
                    f"{path}: row {lineno}, column {name!r}: non-numeric cell {cell!r}")
        rows.append([float(cell.strip()) for cell in row])
        linenos.append(lineno)
    if not rows:
        raise InvalidDimensionError(f"{path}: no data rows")
    bad = np.argwhere(~np.isfinite(np.asarray(rows, dtype=np.float64)))
    if bad.size:
        i, j = bad[0]
        raise InvalidDimensionError(
            f"{path}: row {linenos[i]}, column {header[j]!r}: non-finite value"
        )
    raise InvalidDimensionError(f"{path}: {rejected}")


def _is_number(cell: str) -> bool:
    """Whether numpy's parser reads cell as a number: once stripped of
    Unicode whitespace, as numpy strips it (float() keeps "\\x1c"-"\\x1f"),
    float() reads the cell and it holds no underscore ("1_000") or
    non-ASCII digit."""
    cell = cell.strip()
    try:
        float(cell)
    except ValueError:
        return False
    return cell.isascii() and "_" not in cell


def _write_csv(path, header: list[str], rows) -> None:
    buf = _io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    atomic_write_text(path, buf.getvalue())


def write_matrix_csv(path, header: list[str], matrix: np.ndarray) -> None:
    _write_csv(path, header, ([repr(float(v)) for v in row] for row in np.asarray(matrix)))


def write_coefficients_csv(path, coefs: CoefficientVector) -> None:
    """One row per coefficient, the intercept first: term label, value, scale tag."""
    labels = ["(Intercept)", *coefs.terms.labels()]
    values = [coefs.intercept, *coefs.values]
    _write_csv(path, ["term", "value", "scale"],
               ([label, repr(float(v)), coefs.scale_tag] for label, v in zip(labels, values)))


def config_hash(config_dict: dict) -> str:
    return hashlib.sha256(dump_json(config_dict).encode()).hexdigest()

