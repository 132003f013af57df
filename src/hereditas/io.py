"""CSV/JSON file handling, atomic writes, and the run manifest."""

from __future__ import annotations

import csv
import hashlib
import io as _io
import json
import os
import tempfile
from dataclasses import dataclass

import numpy as np

from .errors import InvalidDimensionError
from .standardize import CoefficientVector


def atomic_write_text(path, text: str) -> None:
    """Write via a temp file in the same directory + rename, so a crashed
    run never leaves a partial report."""
    path = os.fspath(path)
    d = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=d, prefix=os.path.basename(path) + ".", suffix=".tmp")
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


@dataclass(frozen=True)
class TabularFile:
    """A rectangular numeric table with a mandatory unique header row."""

    columns: tuple[str, ...]
    data: np.ndarray

    def column(self, name: str) -> np.ndarray:
        return self.data[:, self.columns.index(name)]

    def drop(self, name: str) -> "TabularFile":
        j = self.columns.index(name)
        keep = [k for k in range(len(self.columns)) if k != j]
        return TabularFile(tuple(c for c in self.columns if c != name), self.data[:, keep])


def read_table(path) -> TabularFile:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise InvalidDimensionError(f"{path}: empty file") from None
        header = [h.strip() for h in header]
        if len(set(header)) != len(header):
            raise InvalidDimensionError(f"{path}: duplicate column names in header")
        rows = []
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(header):
                raise InvalidDimensionError(
                    f"{path}: row {lineno} has {len(row)} cells, expected {len(header)}"
                )
            parsed = []
            for name, cell in zip(header, row):
                try:
                    v = float(cell)
                except ValueError:
                    raise InvalidDimensionError(
                        f"{path}: row {lineno}, column {name!r}: non-numeric cell {cell!r}"
                    ) from None
                if not np.isfinite(v):
                    raise InvalidDimensionError(
                        f"{path}: row {lineno}, column {name!r}: non-finite value"
                    )
                parsed.append(v)
            rows.append(parsed)
    if not rows:
        raise InvalidDimensionError(f"{path}: no data rows")
    return TabularFile(tuple(header), np.asarray(rows, dtype=np.float64))


def write_matrix_csv(path, header: list[str], matrix: np.ndarray) -> None:
    buf = _io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in np.asarray(matrix):
        writer.writerow([repr(float(v)) for v in row])
    atomic_write_text(path, buf.getvalue())


def write_coefficients_csv(path, coefs: CoefficientVector) -> None:
    buf = _io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["term", "value", "scale"])
    for label, value, tag in coefs.to_csv_rows():
        writer.writerow([label, repr(float(value)), tag])
    atomic_write_text(path, buf.getvalue())


def config_hash(config_dict: dict) -> str:
    return hashlib.sha256(dump_json(config_dict).encode()).hexdigest()


def file_sha256(path) -> str:
    """SHA-256 of a file's bytes, so a manifest names the data, not its path."""
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 16), b""):
            digest.update(block)
    return digest.hexdigest()


@dataclass(frozen=True)
class RunManifest:
    """Enough provenance to byte-reproduce a run (timestamps excluded from
    the report files themselves, so reports stay byte-stable)."""

    command: str
    config_hash: str
    master_seed: int
    tool_version: str
    started: str
    finished: str
    outputs: tuple[str, ...]

    def to_json_dict(self) -> dict:
        return {
            "command": self.command,
            "config_hash": self.config_hash,
            "master_seed": self.master_seed,
            "tool_version": self.tool_version,
            "started": self.started,
            "finished": self.finished,
            "outputs": list(self.outputs),
        }
