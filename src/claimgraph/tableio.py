"""CSV reading and writing with deterministic formatting.

All output tables are UTF-8, carry a header row, use RFC-style quoting, and
encode missing values as empty fields. Floats are written with repr-shortest
formatting so reruns are byte-identical.
"""

from __future__ import annotations

import contextlib
import csv
import io
import os
from typing import Iterable, Iterator, Sequence, TextIO

from .errors import SchemaError


# Cell formatters by exact type, for the types tables hold; any other type,
# numpy scalars included, is written with `str`.
_FORMATTERS = {
    type(None): lambda value: "",
    bool: lambda value: "1" if value else "0",
    float: float.__repr__,
    int: int.__repr__,
    str: str,
}


def format_cell(value) -> str:
    return _FORMATTERS.get(type(value), str)(value)


def write_rows(fh: TextIO, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    writer = csv.writer(fh, quoting=csv.QUOTE_MINIMAL, lineterminator="\n")
    writer.writerow(header)
    formatter = _FORMATTERS.get
    for row in rows:
        writer.writerow([formatter(type(v), str)(v) for v in row])


def write_csv(path: str, header: Sequence[str], rows: Iterable[Sequence],
              comment: str | None = None) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        if comment:
            fh.write(f"# {comment}\n")
        write_rows(fh, header, rows)


def write_csv_dicts(path: str, header: Sequence[str], rows: Iterable[dict],
                    comment: str | None = None) -> None:
    write_csv(path, header, ([row.get(col) for col in header] for row in rows),
              comment=comment)


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
    """A CSV written by this module as header-keyed rows; '#' lines skipped."""
    with open_text(path, newline="") as fh:
        text = fh.read()
    lines = [ln for ln in text.splitlines() if not ln.startswith("#")]
    reader = csv.reader(io.StringIO("\n".join(lines)))
    header, *rows = [row for row in reader if row] or [[]]
    return [dict(zip(header, row)) for row in rows]


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
