"""Atomic file writes shared by the binary formats and the CLI.

Writes go to a temp file in the destination directory followed by
os.replace, so a failed run never leaves a partial artifact behind.
"""

import os
import tempfile
from pathlib import Path


def atomic_write_chunks(path, chunks):
    """Write the byte chunks of an iterable to path, in order; returns the
    byte count.

    The chunks may be made while the file is written: an error from the
    iterable, as from writing, removes the temp file and leaves path as it
    was.
    """
    path = Path(path)
    fd, tmp = tempfile.mkstemp(dir=path.parent or ".", prefix=path.name + ".")
    size = 0
    try:
        with os.fdopen(fd, "wb") as fh:
            for chunk in chunks:
                size += fh.write(chunk)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
    return size


def atomic_write_bytes(path, data):
    atomic_write_chunks(path, (data,))


def atomic_write_text(path, text):
    atomic_write_bytes(path, text.encode("utf-8"))
