"""Run-artifact I/O: matrix CSVs, row reports and sorted-key JSON documents.

Every writer renders into a temp file next to its target and moves it into
place with `os.replace`, so a reader sees either the previous file or the
complete new one, never a partial write. Floats are written with `repr`, the
shortest representation that round-trips, so reading a matrix back gives the
same bits. `write_matrix` formats a large matrix on every CPU: forked workers
(`workers.run`) write their row blocks into part files `<file>.<pid>.tmp`
beside the target, which are appended to this process's temp file in row
order before it moves into place.
"""

from __future__ import annotations

import csv
import glob
import hashlib
import json
import os
import shutil
from contextlib import contextmanager

import numpy as np

from . import workers


@contextmanager
def _replacing(path):
    """Text handle on a temp file that replaces `path` when the block succeeds."""
    path = os.fspath(path)
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", newline="") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def remove_temps(directory) -> None:
    """Delete the <file>.<pid>.tmp files of killed writers; no writer may be live there."""
    for path in glob.glob(os.path.join(glob.escape(os.fspath(directory)), "*.[0-9]*.tmp")):
        os.remove(path)


def write_rows(path, header, rows) -> None:
    """CSV with a header row; rows may be any iterable of cell lists."""
    with _replacing(path) as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


# a matrix of at least this many cells is formatted on every CPU: on 2 cores,
# two CPUs won only half the alternated pairs at 10,000 and 15,000 cells, and
# about 5 in 6 from 16,000 up
SPLIT_MIN_CELLS = 20_000


def _write_rows(fh, block) -> None:
    # a float repr never needs csv quoting, so the rows skip the (slower) csv writer
    fh.writelines(",".join(map(repr, row.tolist())) + "\r\n" for row in block)


def write_matrix(path, arr, names) -> None:
    """Header of column names, then one row of `repr` floats per matrix row.

    A matrix of at least `SPLIT_MIN_CELLS` cells is cut into one block of
    rows per CPU (one per row when it has fewer rows), and `workers.run`
    formats the blocks: this process writes the header and block 0 into its
    temp file, and each worker its block into its own
    `<path>.<worker pid>.tmp`. The parts are then appended in row order and
    removed, so the bytes are the same at any CPU count. A failed write
    removes every part; a killed worker's part is left for the next
    command's `remove_temps`.
    """
    path = os.fspath(path)
    arr = np.atleast_2d(np.asarray(arr, dtype=float))
    n_blocks = min(workers.cpus(), len(arr)) if arr.size >= SPLIT_MIN_CELLS else 1
    blocks = np.array_split(arr, n_blocks)
    try:
        with _replacing(path) as fh:
            csv.writer(fh).writerow(names)

            def write_block(k):
                if k == 0:   # in this process: workers.run runs item 0 here
                    return _write_rows(fh, blocks[0])
                part = f"{path}.{os.getpid()}.tmp"
                with open(part, "w", newline="") as out:
                    _write_rows(out, blocks[k])
                return part

            parts = workers.run(write_block, range(len(blocks)), "matrix writer worker")[1:]
            fh.flush()
            for part in parts:
                with open(part, "rb") as src:
                    shutil.copyfileobj(src, fh.buffer)
                os.remove(part)
    except BaseException:
        for part in glob.glob(glob.escape(path) + ".[0-9]*.tmp"):
            os.remove(part)
        raise


def read_matrix(path):
    """Read a `write_matrix` file: (values, column names).

    Raises ValueError on an empty file, a row whose width differs from the
    header, or a non-numeric cell (named by 1-based data row and column).
    Rows are parsed as they are read, so memory stays near the array's size.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            names = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty file") from None
        m = len(names)
        rows = []
        for r, row in enumerate(reader, start=1):
            if len(row) != m:
                raise ValueError(f"{path}: row {r} has {len(row)} fields, expected {m}")
            try:
                rows.append(np.fromiter(map(float, row), dtype=float, count=m))
            except ValueError:
                for c, cell in enumerate(row, start=1):
                    try:
                        float(cell)
                    except ValueError:
                        raise ValueError(
                            f"{path}: non-numeric cell at (row {r}, column {c}): {cell!r}"
                        ) from None
                raise
    return (np.array(rows) if rows else np.zeros((0, m))), names


def json_sha256(doc):
    """A sha256 hash object fed the canonical JSON of doc: sorted keys, no whitespace."""
    return hashlib.sha256(json.dumps(doc, sort_keys=True, separators=(",", ":")).encode())


def write_json(path, doc) -> None:
    """Sorted keys, one-space indent, trailing newline."""
    with _replacing(path) as fh:
        json.dump(doc, fh, sort_keys=True, indent=1)
        fh.write("\n")


def read_json(path, what: str, required=()) -> dict:
    """Parse a JSON object, naming `what` and the path when it is corrupt or incomplete."""
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"corrupt {what} {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise ValueError(f"corrupt {what} {path}: not a JSON object")
    for key in required:
        if key not in doc:
            raise ValueError(f"corrupt {what} {path}: missing {key!r}")
    return doc
