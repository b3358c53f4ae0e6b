"""Shared plumbing: seed derivation, bounded parallelism, stable serialization, input reads and artifact writes."""

from __future__ import annotations

import csv
import hashlib
import io
import json
import logging
import math
import os
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Callable, Iterable, Sequence

import numpy as np

from .errors import DataError

logger = logging.getLogger("adselect")


def seed_from(*parts: Any) -> int:
    """Derive a 63-bit seed from a tuple of ints/strings.

    The derivation is a pure function of the parts, so any worker that knows
    its stable key (dataset id, detector index, chunk number, ...) regenerates
    the same stream regardless of scheduling order.
    """
    h = hashlib.sha256()
    for p in parts:
        h.update(repr(p).encode("utf-8"))
        h.update(b"\x1f")
    return int.from_bytes(h.digest()[:8], "little") >> 1


def rng_from(*parts: Any) -> np.random.Generator:
    return np.random.default_rng(seed_from(*parts))


def pmap(fn: Callable[[Any], Any], items: Sequence[Any], jobs: int = 1) -> list:
    """Map fn over items on a bounded worker pool, preserving input order.

    Results must not depend on execution order; callers guarantee that by
    deriving per-item seeds from stable keys.
    """
    if jobs <= 1 or len(items) <= 1:
        return [fn(it) for it in items]
    with ThreadPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(fn, items))


def fmt_float(x: float) -> str:
    """Shortest decimal string that round-trips to the same float64."""
    return repr(float(x))


def write_text(path: str, text: str) -> None:
    """Write an output file whole or not at all: the one writer of every artifact.

    The text goes to ``<path>.tmp`` in the same directory, which then replaces
    ``path`` by ``os.replace`` (an atomic rename); a missing parent directory
    is created first. A process killed midway leaves the previous file as it
    was; an exception also removes the temporary file. Nothing is fsynced, so
    a power loss is not covered.
    """
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    tmp = path + ".tmp"
    try:
        with open(tmp, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def _cell(value: Any) -> Any:
    if isinstance(value, float):
        return "" if math.isnan(value) else fmt_float(value)
    return value  # csv writes None as an empty cell


def csv_text(rows: Iterable[Sequence[Any]]) -> str:
    """CSV text with "\n" line ends. A float cell is written with fmt_float,
    NaN and None as an empty cell, any other value as csv writes it."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows([_cell(v) for v in row] for row in rows)
    return buf.getvalue()


def json_text(obj: Any) -> str:
    """JSON with sorted keys and stable float formatting (byte-reproducible)."""
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def dump_json(obj: Any, path: str) -> None:
    write_text(path, json_text(obj))


def sha256_text(text: str) -> str:
    """The sha256 hex digest of text's UTF-8 bytes, the bytes write_text writes and read_text reads back."""
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def read_text(path: str, error: type[Exception], what: str) -> str:
    """Read an input file whole as UTF-8: the one reader of every input.

    Line ends are kept as written (``newline=""``), so the text encodes back
    to the file's bytes. A file that cannot be opened or is not UTF-8 raises
    ``error``, naming ``what`` the file is.
    """
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise error(f"cannot read {what} file {path!r}: {exc}") from exc


def read_json(path: str, error: type[Exception], what: str, text: str | None = None) -> Any:
    """The JSON value of an input file, or of ``text`` already read from it;
    an unreadable file or invalid JSON raises ``error``."""
    if text is None:
        text = read_text(path, error, what)
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise error(f"{path}: corrupt {what} file ({exc})") from exc


def read_csv(path: str, what: str, text: str | None = None) -> tuple[list[str], list[tuple[int, list[str]]]]:
    """The header of a CSV input, or of ``text`` already read from it, and the
    (row number, cells) of each non-empty row.

    Raises DataError for an unreadable file, text the csv module rejects, a
    missing header, no data row or a row whose width differs from the
    header's. Row numbers count records from 1, the header's.
    """
    try:
        if text is None:
            text = read_text(path, DataError, what)
        records = list(csv.reader(io.StringIO(text, newline="")))
    except csv.Error as exc:
        raise DataError(f"{path}: malformed CSV ({exc})") from exc
    if not records or not records[0]:
        raise DataError(f"{path}: empty file, header row required")
    header = records[0]
    rows = [(row_no, row) for row_no, row in enumerate(records[1:], start=2) if row]
    for row_no, row in rows:
        if len(row) != len(header):
            raise DataError(f"{path}: row {row_no} has {len(row)} cells, expected {len(header)}")
    if not rows:
        raise DataError(f"{path}: no data rows")
    return header, rows


def log_event(event: str, **fields: Any) -> None:
    """Emit one structured JSON log line (timeouts, replacements, skips)."""
    record = {"event": event}
    record.update(fields)
    logger.info(json.dumps(record, sort_keys=True, default=str))


def chunk_ranges(n: int, chunk: int) -> Iterable[tuple[int, int]]:
    """Yield (chunk_index, size) pairs covering n items in fixed-size chunks."""
    i = 0
    start = 0
    while start < n:
        size = min(chunk, n - start)
        yield i, size
        start += size
        i += 1
