"""Crash-safe file I/O shared by the persistence layers.

The engine shard store in :mod:`repro.engine.storage` and the bench
trajectory writers promise that a save which dies mid-write cannot
destroy the previous on-disk state.  The mechanism is the classic
same-directory temp file + ``os.replace`` swap, centralised here so the
crash-safety logic has exactly one implementation.
"""

from __future__ import annotations

import os
import tempfile
from contextlib import contextmanager
from pathlib import Path
from typing import IO, Iterator


@contextmanager
def atomic_replace(path: str | Path, mode: str = "wb",
                   encoding: str | None = None) -> Iterator[IO]:
    """Write-then-rename: yields a temp file that replaces ``path`` on
    clean exit and is deleted (leaving ``path`` untouched) on error.

    The temp file lives in the target's directory so the final
    ``os.replace`` is an atomic same-filesystem rename.
    """
    path = Path(path)
    handle = tempfile.NamedTemporaryFile(
        mode, encoding=encoding, dir=path.parent,
        prefix=path.name + ".", suffix=".tmp", delete=False,
    )
    try:
        with handle:
            yield handle
        os.replace(handle.name, path)
    except BaseException:
        os.unlink(handle.name)
        raise
