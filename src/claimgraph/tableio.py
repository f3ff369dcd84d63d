"""CSV reading and writing with deterministic formatting.

All output tables are UTF-8, carry a header row and use RFC-style quoting.
The `csv` module formats every cell: None as an empty field (a missing
value) and a float as its shortest repr, so reruns are byte-identical.
"""

from __future__ import annotations

import contextlib
import csv
import os
from itertools import dropwhile
from typing import Iterable, Iterator, Sequence, TextIO

from .errors import SchemaError


def format_cell(value) -> str:
    """A cell as `write_rows` writes it: None as empty, else `str`."""
    return "" if value is None else str(value)


def write_rows(fh: TextIO, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    writer = csv.writer(fh, quoting=csv.QUOTE_MINIMAL, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)


def write_csv(path: str, header: Sequence[str], rows: Iterable[Sequence],
              comment: str | None = None) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        if comment:
            fh.write(f"# {comment}\n")
        write_rows(fh, header, rows)


def write_csv_dicts(path: str, header: Sequence[str], rows: Iterable[dict]) -> None:
    write_csv(path, header, ([row.get(col) for col in header] for row in rows))


@contextlib.contextmanager
def open_text(path: str, newline: str | None = None) -> Iterator[TextIO]:
    """`path` opened to read UTF-8 text. A byte that does not decode raises
    SchemaError naming the file. The decoder's byte position is left out: it
    counts from the chunk being decoded, not from the start of the file."""
    with open(path, encoding="utf-8", newline=newline) as fh:
        try:
            yield fh
        except UnicodeDecodeError as exc:
            raise SchemaError(f"{path}: not UTF-8 text ({exc.reason})") from None


def read_csv_dicts(path: str) -> list[dict[str, str]]:
    """A CSV as header-keyed rows, after blank and '#' lines before the
    header. A short row's missing cells are empty; a longer row raises."""
    with open_text(path, newline="") as fh:
        lines = dropwhile(lambda line: not line.strip() or line.startswith("#"), fh)
        rows = list(csv.DictReader(lines, restval=""))
    for row in rows:
        if None in row:  # DictReader's key for the cells past the header
            raise SchemaError(f"{path}: row {next(iter(row.values()))!r} "
                              "has more cells than the header")
    return rows


def parse_float(cell: str) -> float | None:
    return None if cell == "" else float(cell)


def parse_int(cell: str) -> int | None:
    return None if cell == "" else int(cell)


@contextlib.contextmanager
def replace_on_success(path: str) -> Iterator[TextIO]:
    """A temporary file beside `path` that replaces it only when the block
    ends without error, so a failed save leaves the previous file intact."""
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise
