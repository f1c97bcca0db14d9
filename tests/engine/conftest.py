"""Shared fixtures for the engine tests."""

from __future__ import annotations

import json

import numpy as np
import pytest


def _write_legacy_layout(store, rows, store_format: int) -> None:
    """Rewrite a saved store's shards in the format 1-3 layout, from raw
    bytes.

    Each shard's sketches file becomes the row-major ``(count, n)``
    little-endian int32 matrix of its rows: ``rows`` holds every stored
    row's movements in global row order, picked per shard through the
    shard's row-id file.  The manifest is relabelled ``store_format``;
    a format-1 store also loses the lifecycle keys and the status
    sidecar, which that format predates.
    """
    manifest_path = store / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    for index in range(manifest["shards"]):
        ids = np.fromfile(store / f"shard-{index:04d}.rows", dtype="<i8")
        (store / f"shard-{index:04d}.sketches").write_bytes(
            np.asarray(rows)[ids].astype("<i4").tobytes())
    manifest["format"] = store_format
    if store_format == 1:
        del manifest["journal_seq"], manifest["journal"]
        (store / "status.bin").unlink()
    manifest_path.write_text(json.dumps(manifest))


@pytest.fixture
def write_legacy_layout():
    """The legacy-layout rewriter: ``write_legacy_layout(store, rows,
    store_format)``."""
    return _write_legacy_layout
