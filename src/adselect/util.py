"""Shared plumbing: seed derivation, bounded parallelism, stable serialization, artifact writes."""

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
    ``path`` by ``os.replace`` (an atomic rename). A process killed midway
    leaves the previous file as it was; an exception also removes the
    temporary file. Nothing is fsynced, so a power loss is not covered.
    """
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


def dump_json(obj: Any, path: str) -> None:
    """Write JSON with sorted keys and stable float formatting (byte-reproducible)."""
    write_text(path, json.dumps(obj, sort_keys=True, indent=2) + "\n")


def load_json(path: str) -> Any:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


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
