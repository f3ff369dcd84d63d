"""CSV reading and writing with deterministic formatting.

All output tables are UTF-8, carry a header row and use RFC-style quoting.
The `csv` module formats every cell: None as an empty field (a missing
value) and a float as its shortest repr, so reruns are byte-identical.
"""

from __future__ import annotations

import contextlib
import csv
import os
from itertools import chain, zip_longest
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


def read_table(path: str) -> tuple[list[str], list[tuple[int, dict[str, str]]]]:
    """A header CSV's header, and each row keyed by it with the file line the
    row ends on. Blank and '#' lines count only before the header; a short
    row's missing cells are empty, and a longer row raises."""
    with open_text(path, newline="") as fh:
        skipped = 0
        for line in fh:
            if line.strip() and not line.startswith("#"):
                break
            skipped += 1
        else:
            return [], []
        reader = csv.reader(chain([line], fh))
        header, rows = next(reader), []
        for cells in filter(None, reader):  # blank lines read as []
            if len(cells) > len(header):
                raise SchemaError(f"{path}: row {cells[0]!r} has more cells "
                                  "than the header")
            rows.append((skipped + reader.line_num,
                         dict(zip_longest(header, cells, fillvalue=""))))
    return header, rows


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
