"""The one writer of every file oodkit produces."""

from __future__ import annotations

import os
from pathlib import Path


def write_atomic(path, data) -> None:
    """Write one file (str or bytes) through a sibling temporary file, so a
    reader sees the previous file or the whole new one, never a torn one."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    if isinstance(data, str):
        tmp.write_text(data)
    else:
        tmp.write_bytes(data)
    os.replace(tmp, path)
