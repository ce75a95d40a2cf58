"""Atomic output files: a reader sees the old file or the new one, never part of one."""

from __future__ import annotations

import os
from collections.abc import Iterable
from pathlib import Path


def write_text(path: str | Path, text: str | Iterable[str]) -> None:
    """Write ``text``, or its pieces one after another, as UTF-8 to a
    temporary file beside ``path``, then move it over ``path``; on failure
    ``path`` keeps its old content. Pieces let a large file be written
    without ever holding all of it."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.writelines([text] if isinstance(text, str) else text)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_lines(path: str | Path, lines: list[str]) -> None:
    """``lines`` joined with newlines, plus a final newline."""
    write_text(path, "\n".join(lines) + "\n")
