"""The package's cache of derived files, kept in its ``__pycache__``.

Three kinds of entry live there, next to the bytecode: the native
``_pmap`` build, the parsed polynomial asset and the compiled tables of
``p``.  An entry is named ``<kind>-<key><suffix>``, the key being the
first 16 hex digits of a SHA-256 of everything the entry is derived
from, so that a changed input is a new name and a miss.  A data entry
(``cached``, suffix ``DATA_SUFFIX``) is keyed by a SHA-256 over the
bytes it is made from (the asset text, or a system's term words), the
digest of every package source file, the interpreter's bytecode tag
and the byte order; it begins with the SHA-256 of its payload, which
every read checks, and holds a plain array: nothing in it is ever
executed.

An entry is written under a temporary name of its own process and
thread and renamed into place, so a reader never sees a partial file;
writing one removes the other entries of its kind and suffix.  An
absent, unreadable or corrupted data entry is a miss, and a data entry
that cannot be written only says why in the caller's debug log, so a
read-only install works, rebuilding on every start what it cannot
store.
"""

from __future__ import annotations

import hashlib
import os
import sys
import threading
from contextlib import suppress
from functools import lru_cache
from pathlib import Path
from time import perf_counter

_PACKAGE = Path(__file__).parent
DIR = _PACKAGE / "__pycache__"
DATA_SUFFIX = f".{sys.implementation.cache_tag}.bin"
_CHECKSUM_BYTES = hashlib.sha256().digest_size


@lru_cache(maxsize=None)
def sources_sha256() -> str:
    """SHA-256 over the names and bytes of the package's ``*.py`` and
    ``*.c`` files, in name order: an edit to any of them changes it."""
    h = hashlib.sha256()
    for source in sorted([*_PACKAGE.glob("*.py"), *_PACKAGE.glob("*.c")]):
        data = source.read_bytes()
        h.update(f"{source.name}\0{len(data)}\0".encode())
        h.update(data)
    return h.hexdigest()


def path(kind: str, key: str, suffix: str = DATA_SUFFIX) -> Path:
    return DIR / f"{kind}-{key}{suffix}"


def publish(kind: str, key: str, write, suffix: str = DATA_SUFFIX) -> None:
    """Make the entry by ``write(tmp)`` into a temporary file, rename it
    into place and remove the other entries of ``kind`` and ``suffix``.

    Raises OSError, or what ``write`` raises; the temporary file is
    removed either way.
    """
    target = path(kind, key, suffix)
    DIR.mkdir(exist_ok=True)
    tmp = target.with_name(f"{target.name}.{os.getpid()}-{threading.get_ident()}.tmp")
    try:
        write(tmp)
        os.replace(tmp, target)
    finally:
        tmp.unlink(missing_ok=True)
    for stale in DIR.glob(f"{kind}-*{suffix}"):
        if stale != target:
            with suppress(OSError):
                stale.unlink()


def _store(kind: str, key: str, payload) -> None:
    """Publish the bytes-like ``payload`` as a data entry behind its
    checksum.  Raises OSError."""
    def write(tmp):
        with open(tmp, "wb") as f:
            f.write(hashlib.sha256(payload).digest())
            f.write(payload)

    publish(kind, key, write)


def _read(kind: str, key: str) -> memoryview | None:
    """The payload of a data entry, read-only, or None when the entry is
    absent, unreadable or fails its checksum."""
    try:
        data = path(kind, key).read_bytes()
    except OSError:
        return None
    payload = memoryview(data)[_CHECKSUM_BYTES:]
    if hashlib.sha256(payload).digest() != data[:_CHECKSUM_BYTES]:
        return None
    return payload


def cached(kind: str, source, build, decode):
    """A value derived from the bytes-like ``source`` and this package,
    and a note for the caller's debug log.

    On a hit the value is ``decode(payload)`` of the entry of ``kind``;
    on a miss it is ``build()``, a bytes-like value stored as it is.
    The note names the entry, says which it was and how long it took,
    and why a miss was not stored.  Raises what ``build`` raises.
    """
    t0 = perf_counter()
    parts = (sources_sha256(), sys.implementation.cache_tag, sys.byteorder, "")
    h = hashlib.sha256("\0".join(parts).encode())
    h.update(source)  # no concatenated copy of a source that may be the whole asset
    key = h.hexdigest()[:16]
    name = path(kind, key).name
    payload = _read(kind, key)
    if payload is not None:
        value = decode(payload)
        return value, f"{name}: hit in {(perf_counter() - t0) * 1e3:.1f} ms"
    value = build()
    note = f"{name}: miss, built in {(perf_counter() - t0) * 1e3:.1f} ms"
    try:
        _store(kind, key, value)
    except OSError as exc:
        note += f", not stored: {exc}"
    return value, note
