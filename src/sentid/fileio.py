"""Atomic artifact writes.

Every artifact (models, probability files, span files, corpora, reports and
aggregates) is written to a hidden temporary file in its target directory
and moved over the target with ``os.replace`` only after the last byte is
written.  A run that fails or is killed mid-write therefore leaves either
the previous file or none, never a truncated one that a later run would
load.  The temporary file is not synced to disk, so this guards against a
failing process, not against power loss.
"""

import contextlib
import json
import os


@contextlib.contextmanager
def atomic_open(path, binary: bool = False):
    """Open a file object whose contents replace `path` when the block exits cleanly.

    If the block raises, the temporary file is removed and `path` is left as
    it was.  The temporary name starts with a dot and ends in ``.tmp``, so
    globs such as ``report_*.json`` never match it.
    """
    path = os.fspath(path)
    head, tail = os.path.split(path)
    tmp = os.path.join(head, f".{tail}.{os.urandom(6).hex()}.tmp")
    try:
        f = open(tmp, "xb") if binary else open(tmp, "x", encoding="utf-8")
    except OSError as exc:
        # name the target, not the temporary file, as a direct open() would
        raise type(exc)(exc.errno, exc.strerror, path) from None
    try:
        with f:
            yield f
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise


def write_json(path, obj) -> None:
    """Reports and aggregates: sorted keys, two-space indent, final newline."""
    with atomic_open(path) as f:
        json.dump(obj, f, sort_keys=True, indent=2)
        f.write("\n")
