"""Atomic output files: a reader sees the old file or the new one, never part of one."""

from __future__ import annotations

import os
from pathlib import Path


def write_text(path: str | Path, text: str) -> None:
    """Write ``text`` as UTF-8 to a temporary file beside ``path``, then move
    it over ``path``; on failure ``path`` keeps its old content."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_lines(path: str | Path, lines: list[str]) -> None:
    """``lines`` joined with newlines, plus a final newline."""
    write_text(path, "\n".join(lines) + "\n")
