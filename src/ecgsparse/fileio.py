"""Atomic file writes shared by the binary formats and the CLI.

Writes go to a temp file in the destination directory followed by
os.replace, so a failed run never leaves a partial artifact behind.
"""

import os
import secrets
from pathlib import Path


def atomic_write_chunks(path, chunks):
    """Write the byte chunks of an iterable to path, in order; returns the
    byte count.

    The chunks may be made while the file is written: an error from the
    iterable, as from writing, removes the temp file and leaves path as it
    was.  The file's mode is 0666 less the umask, as open(path, "w") gives.
    """
    path = Path(path)
    # a fresh name, created exclusively: an existing file is never opened
    tmp = path.parent / f"{path.name}.{secrets.token_hex(8)}"
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
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
