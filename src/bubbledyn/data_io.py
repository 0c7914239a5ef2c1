"""CSV/JSON ingestion and emission for series, grids, and fit reports.

All data arrives as local files; monthly dates are ISO "YYYY-MM" and annual
dates are "YYYY" (or "YYYY-01").  Series must be gap-free at their declared
frequency; nothing is ever resampled implicitly.
"""

from __future__ import annotations

import csv
import json
import math
import re
from itertools import islice
from pathlib import Path
from typing import Union

from .errors import DataError, DomainError
from .timeseries import Frequency, TimeSeries, align, ordinal

_MONTHLY_RE = re.compile(r"^(\d{4})-(\d{2})$")
_ANNUAL_RE = re.compile(r"^(\d{4})(?:-01)?$")


def _parse_date(raw: str, frequency: Frequency, path: Path, row: int) -> tuple[int, int]:
    raw = raw.strip()
    if frequency is Frequency.MONTHLY:
        m = _MONTHLY_RE.match(raw)
        if not m:
            raise DataError(f"{path} row {row}: bad monthly date {raw!r} "
                            "(want YYYY-MM)")
        year, month = int(m.group(1)), int(m.group(2))
        if not 1 <= month <= 12:
            raise DataError(f"{path} row {row}: month out of range in {raw!r}")
        return year, month
    m = _ANNUAL_RE.match(raw)
    if not m:
        raise DataError(f"{path} row {row}: bad annual date {raw!r} (want YYYY)")
    return int(m.group(1)), 1


def load_series(path: Union[str, Path], frequency: Frequency, label: str = "",
                inverse: bool = False) -> TimeSeries:
    """Parse the ``date`` and ``value`` columns of a CSV file into a gap-free
    TimeSeries; other columns are ignored.  ``inverse`` loads 1/value, which
    requires every value to be positive."""
    path = Path(path)
    if not path.exists():
        raise DataError(f"no such file: {path}")
    values = []
    try:
        # utf-8-sig drops the byte-order mark that some editors write first
        with path.open(newline="", encoding="utf-8-sig") as fh:
            reader = csv.reader(fh)
            header = next(reader, [])
            # a repeated name keeps its last column, as csv.DictReader does
            column = {name: i for i, name in enumerate(header)}
            if "date" not in column or "value" not in column:
                raise DataError(f"{path}: missing column(s) 'date'/'value'")
            for fields in filter(None, reader):  # a blank line gives []
                row_no = reader.line_num  # the row's last file line
                if len(fields) != len(header):
                    raise DataError(f"{path} row {row_no}: field count differs "
                                    "from the header's")
                date = _parse_date(fields[column["date"]], frequency, path, row_no)
                cell = fields[column["value"]]
                try:
                    value = float(cell)
                except ValueError:
                    value = math.nan
                # float() also takes the digit separators of Python literals
                if "_" in cell or not math.isfinite(value):
                    raise DataError(f"{path} row {row_no}: non-finite or "
                                    f"non-numeric value {cell!r}")
                at = ordinal(date, frequency)
                if not values:
                    start = date
                elif at != previous + 1:
                    raise DataError(f"{path} row {row_no}: " + (
                        "duplicate date" if at == previous else
                        "dates not increasing" if at < previous else
                        "gap before this date"))
                previous = at
                values.append(value)
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    if not values:
        raise DataError(f"{path}: no data rows")
    if inverse:
        if any(v <= 0 for v in values):
            raise DomainError(f"{path}: inverse transform requires positive values")
        values = [1.0 / v for v in values]
    return TimeSeries(start, frequency, tuple(values), label)


def derive_surplus(production: TimeSeries, consumption: TimeSeries) -> TimeSeries:
    """Production minus consumption, aligned by calendar year."""
    pv, cv, start = align(production, consumption)
    return TimeSeries(start, production.frequency,
                      [p - c for p, c in zip(pv, cv)], "surplus")


#: Rows joined into one string per write of a CSV emit; joining the whole
#: output at once would add its size to the peak memory.
_CHUNK_ROWS = 4096


def _write(obj, fmt: str, fh) -> None:
    if fmt == "json":
        if not (isinstance(obj, dict) or hasattr(obj, "to_dict")):
            raise TypeError(f"cannot serialize {type(obj).__name__}")
        json.dump(obj if isinstance(obj, dict) else obj.to_dict(), fh, indent=2)
        fh.write("\n")
    elif fmt == "csv":
        if not hasattr(obj, "csv_layout"):
            raise TypeError(f"no CSV layout for {type(obj).__name__}; use json")
        # the bytes csv.writer would write, streamed a chunk of rows at a time
        header, rows = obj.csv_layout()
        fh.write(",".join(header) + "\r\n")
        lines = map(",".join, rows)
        while chunk := list(islice(lines, _CHUNK_ROWS)):
            fh.write("\r\n".join(chunk) + "\r\n")
    else:
        raise ValueError(f"unknown format {fmt!r}")


def emit(obj, fmt: str, destination) -> None:
    """Write a dict or a result as JSON (its ``to_dict()``), or a result
    that has a ``csv_layout()`` (series, phase grids, lag scans) as CSV.

    ``destination`` may be a path or an open text stream.
    """
    if hasattr(destination, "write"):
        _write(obj, fmt, destination)
        return
    path = Path(destination)
    try:
        with path.open("w", newline="") as fh:
            _write(obj, fmt, fh)
    except OSError as exc:
        raise DataError(f"cannot write {path}: {exc}") from exc
