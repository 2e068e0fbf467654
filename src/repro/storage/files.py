"""Whole-file writes: a persisted file is either the old one or the new one.

A writer that fails part-way (an error, a full disk, a killed process)
must not leave a truncated table or p-mapping behind for the next load.
:func:`replace_atomically` writes into a temporary file in the target's
directory, ``fsync``\\ s it, and moves it onto the target with
:func:`os.replace`, which is atomic on POSIX and Windows.
"""

from __future__ import annotations

import contextlib
import os
import secrets
import stat
from collections.abc import Iterator
from pathlib import Path
from typing import IO


@contextlib.contextmanager
def replace_atomically(
    path: str | Path, *, newline: str | None = None
) -> Iterator[IO[str]]:
    """A UTF-8 text handle whose contents replace ``path`` on a clean exit.

    On an exception inside the ``with`` block the temporary file is
    removed and ``path`` keeps its previous contents (or stays absent).
    A symlinked ``path`` keeps its link: the file it points to is the one
    replaced.  A new file gets the permissions a plain ``open(path, "w")``
    would give (``0o666`` less the umask), a replaced one keeps its
    permission bits; its owner becomes the writing user, as for any file
    created anew.
    """
    path = Path(path).resolve()
    temporary = path.with_name(f".{path.name}.{secrets.token_hex(6)}.tmp")
    descriptor = os.open(temporary, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with open(descriptor, "w", encoding="utf-8", newline=newline) as handle:
            with contextlib.suppress(FileNotFoundError):
                os.chmod(temporary, stat.S_IMODE(os.stat(path).st_mode))
            yield handle
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(temporary, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(temporary)
        raise
