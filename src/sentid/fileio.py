"""Atomic artifact writes, and the JSON-lines record reader.

Every artifact (models, probability files, span files, corpora, reports and
aggregates) is written to a hidden temporary file in its target directory
and moved over the target with ``os.replace`` only after the last byte is
written.  A run that fails or is killed mid-write therefore leaves either
the previous file or none, never a truncated one that a later run would
load.  The temporary file is not synced to disk, so this guards against a
failing process, not against power loss.

Corpora and span files are JSON lines, one record per line; both are read by
`read_json_lines`.  `check_types` is the type rule for config values, as
pipeline configs, command-line flags and model headers give them.
"""

import contextlib
import gc
import json
import os
from dataclasses import fields

# JSON types that a config field of each scalar annotation accepts; a bool is no number here
_SCALAR_TYPES = {bool: (bool,), int: (int,), float: (int, float), str: (str,)}

# The C scanner that json.loads calls, without json.loads's checks around it.
_scan_once = json.JSONDecoder().scan_once


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


def check_types(cls, values: dict) -> None:
    """Raise ValueError if `values` gives a field of dataclass `cls` a value of the wrong type."""
    for f in fields(cls):
        value, types = values.get(f.name), _SCALAR_TYPES.get(f.type)
        if f.name in values and types and type(value) not in types:
            raise ValueError(f"{f.name}: expected {f.type.__name__}, got {value!r}")


def write_json(path, obj) -> None:
    """Reports and aggregates: sorted keys, two-space indent, final newline."""
    with atomic_open(path) as f:
        json.dump(obj, f, sort_keys=True, indent=2)
        f.write("\n")


def _parse_line(line: str):
    """json.loads(line), with the common case taken straight from the scanner.

    The scanner's value is taken when it starts at the line's first character
    and ends at its newline or at its end.  json.loads would return the same
    value then: it would skip no whitespace before the value and only the
    newline after it.  Every other line (leading or trailing whitespace, a
    BOM, extra data, nesting too deep, a scanner error) goes through
    json.loads, so it yields json.loads's value or error.
    """
    try:
        value, end = _scan_once(line, 0)
        # text mode reads CRLF and a lone CR as "\n", which a line holds only at its end
        if end == len(line) or line[end] == "\n":
            return value
    except (StopIteration, ValueError, RecursionError):
        pass
    return json.loads(line)


def read_json_lines(path, what: str, build) -> list:
    """`build(record)` of each JSON line of a UTF-8 file, in order; blank lines are skipped.

    A line that does not parse, or whose record `build` rejects with a
    KeyError, ValueError, TypeError, OverflowError or RecursionError (JSON
    nested too deeply), raises ValueError naming the path, `what` and the
    1-based line number; a file that is not UTF-8 raises ValueError naming
    the path.  The garbage collector is paused while records are parsed and
    built: they hold no reference cycles, so a collection would only walk
    the growing result again and again.  It is a plain function returning
    a list, not a generator, so the pause ends when it returns or raises.

    Once every record is built, `gc.freeze()` moves them, with every other
    object the collector tracks at that moment, out of its reach, so no
    later collection walks the loaded file again.  That is safe because the
    records hold no reference cycles: they are still freed by reference
    counting once the caller drops them.  Cyclic garbage made before the
    freeze is kept until the process exits, which the commands, short-lived
    batch processes, barely notice.  A rejected record freezes nothing.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        out = []
        with open(path, encoding="utf-8") as f:
            for lineno, line in enumerate(f, start=1):
                if not line.strip():
                    continue
                try:
                    out.append(build(_parse_line(line)))
                except (KeyError, ValueError, TypeError, OverflowError, RecursionError) as exc:
                    message = f"{path}: bad {what} record on line {lineno}: {exc}"
                    raise ValueError(message) from exc
        gc.freeze()
        return out
    except UnicodeDecodeError as exc:  # from reading the file; a record's errors are wrapped above
        raise ValueError(f"{path}: {exc}") from exc
    finally:
        if was_enabled:
            gc.enable()
