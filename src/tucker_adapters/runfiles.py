"""The checked readers of a run directory's files: each failure to read one
as expected is a ValueError that names the file."""

import contextlib
import json
import zipfile
from pathlib import Path

import numpy as np


def read_json(path: Path, expect: type):
    """The JSON value of type ``expect``, ``dict`` or ``list``, in ``path``."""
    try:
        value = json.loads(path.read_text())
    except ValueError as exc:   # a JSONDecodeError or UnicodeDecodeError
        raise ValueError(f"{path}: invalid JSON ({exc})") from exc
    if not isinstance(value, expect):
        kind = "object" if expect is dict else "array"
        raise ValueError(f"{path}: expected a JSON {kind}, got {type(value).__name__}")
    return value


def check_record(path: Path, found: dict, expected: dict) -> None:
    """Raise a ValueError naming ``path`` and each key whose value in ``found``,
    read from ``path``, and in ``expected`` differ as JSON text (or is missing)."""
    text = {k: [json.dumps(r[k]) if k in r else "no such key" for r in (expected, found)]
            for k in {**expected, **found}}
    wrong = [f"{k}: expected {e}, got {f}" for k, (e, f) in text.items() if e != f]
    if wrong:
        raise ValueError(f"{path}: {'; '.join(wrong)}")


def int_list(value, n: int | None = None) -> bool:
    """Whether ``value`` is a list of ints (bools excluded), ``n`` of them
    unless ``n`` is None."""
    return (isinstance(value, list) and n in (None, len(value))
            and all(type(v) is int for v in value))


@contextlib.contextmanager
def open_npz(path: Path):
    """The npz archive ``path``, for a ``with`` block that reads its arrays
    by name. A missing array, a damaged member and a ValueError, TypeError
    or AttributeError raised in the block are raised again as a ValueError
    naming ``path``."""
    try:
        archive = np.load(path, allow_pickle=False)
    except (EOFError, ValueError, zipfile.BadZipFile) as exc:
        raise ValueError(f"{path}: not an npz archive") from exc
    with archive:
        try:
            yield archive
        except (KeyError, ValueError, TypeError, AttributeError,
                zipfile.BadZipFile) as exc:
            raise ValueError(f"{path}: {exc}") from exc
