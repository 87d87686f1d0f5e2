"""JSON Lines files (jsonlines.org): one JSON object per line.

The plan library and the chat transcript are stored this way.  Every record
is an object with a fixed set of string fields, one of which is its unique
key.
"""
from __future__ import annotations

import json
import os

from .errors import MalformedRecord


def read_records(path, fields, key):
    """Yield each line of `path` as a dict with exactly the string `fields`
    (sorted), whose `key` no earlier line has.  Raises MalformedRecord
    naming the line for any other line."""
    seen = set()
    with open(path, "rb") as fh:
        for lineno, line in enumerate(fh, 1):
            try:
                record = json.loads(line)
            except (ValueError, RecursionError):  # bad JSON, UTF-8 or nesting
                record = None
            if not (isinstance(record, dict) and sorted(record) == fields
                    and all(isinstance(v, str) for v in record.values())):
                raise MalformedRecord("expected a JSON object with the string fields "
                                      + ", ".join(fields), lineno)
            if record[key] in seen:
                raise MalformedRecord(f"repeated {key} {record[key]!r}", lineno)
            seen.add(record[key])
            yield record


def write_records(path, records):
    """Write one sorted-key JSON object per line to a file beside `path`,
    then move it into place: `path` holds either its old records or all the
    new ones, and no temporary file is left behind."""
    tmp = f"{os.fspath(path)}.tmp"
    try:
        with open(tmp, "w") as fh:
            for record in records:
                fh.write(json.dumps(record, sort_keys=True) + "\n")
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)
