"""Atomic artifact writes: a reader sees the previous file or the new one,
never a half-written one."""

from __future__ import annotations

import os
from pathlib import Path
from typing import BinaryIO, Callable


def write_atomic(path: str | Path, write: Callable[[BinaryIO], object]) -> Path:
    """Write ``path`` through ``write``, which fills an open binary file: a
    temporary file in the same directory, which then replaces ``path`` by
    ``os.replace``. If ``write`` raises, ``path`` keeps its previous content
    and the temporary file is removed."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as handle:
            write(handle)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    return path


def write_text_atomic(path: str | Path, text: Callable[[], str]) -> Path:
    """:func:`write_atomic` of the UTF-8 encoding of ``text()``."""
    return write_atomic(path, lambda handle: handle.write(text().encode("utf-8")))
