"""Shared object store.

The analog of a cloud bucket: immutable byte blobs keyed by flat strings,
readable from every worker context. Two interchangeable backings exist, an
in-memory map (used with the simulated backend) and a directory on disk
(lets remote worker processes share data). Blobs carry a 64-bit content
digest that is verified on every read.

On-disk layout: ``<root>/<urlencoded-key>`` holds the bytes and
``<root>/<urlencoded-key>.sha`` holds ``"<hex digest> <byte length>\\n"``.
"""

from __future__ import annotations

import errno
import hashlib
import os
import tempfile
import threading
import urllib.parse
from pathlib import Path

from .errors import CorruptionError, KeyExistsError, NotFoundError, StorageFullError

_SIDE_SUFFIX = ".sha"


def content_digest(data: bytes) -> str:
    """64-bit content digest as 16 hex characters."""
    return hashlib.blake2b(data, digest_size=8).hexdigest()


class MemoryObjectStore:
    """Dict-backed store; safe for concurrent readers, single writer per key."""

    def __init__(self) -> None:
        self._objects: dict[str, tuple[bytes, str]] = {}
        self._lock = threading.Lock()

    def put(self, key: str, data: bytes) -> str:
        data = bytes(data)
        with self._lock:
            if key in self._objects:
                raise KeyExistsError(f"key {key!r} already written")
            digest = content_digest(data)
            self._objects[key] = (data, digest)
        return digest

    def get(self, key: str) -> bytes:
        with self._lock:
            try:
                data, digest = self._objects[key]
            except KeyError:
                raise NotFoundError(f"key {key!r} not found") from None
        if content_digest(data) != digest:
            raise CorruptionError(f"digest mismatch for key {key!r}")
        return data


class DirectoryObjectStore:
    """One file per key under ``root``, plus a digest sidecar.

    Writes go to a temp file and are published with an atomic link, so
    concurrent readers never observe partial writes.
    """

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    def path(self, key: str) -> Path:
        """The file that holds the bytes of ``key``."""
        return self.root / urllib.parse.quote(key, safe="")

    def put(self, key: str, data: bytes) -> str:
        data = bytes(data)
        target = self.path(key)
        side = target.with_name(target.name + _SIDE_SUFFIX)
        digest = content_digest(data)
        try:
            self._publish(target, data)
            try:
                self._publish(side, f"{digest} {len(data)}\n".encode("ascii"))
            except FileExistsError:
                pass
            except OSError:
                target.unlink()  # else the key reads as absent yet cannot be put again
                raise
        except FileExistsError:
            raise KeyExistsError(f"key {key!r} already written") from None
        except OSError as exc:
            if exc.errno == errno.ENOSPC:
                raise StorageFullError(str(exc)) from exc
            raise
        return digest

    def _publish(self, target: Path, data: bytes) -> None:
        fd, tmp = tempfile.mkstemp(dir=self.root, prefix=".tmp-")
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.write(data)
            os.link(tmp, target)
        finally:
            os.unlink(tmp)

    def get(self, key: str) -> bytes:
        target = self.path(key)
        side = target.with_name(target.name + _SIDE_SUFFIX)
        try:
            data = target.read_bytes()
            recorded = side.read_bytes()
        except FileNotFoundError:
            raise NotFoundError(f"key {key!r} not found") from None
        try:
            digest, _, size = recorded.decode("ascii").strip().partition(" ")
            intact = content_digest(data) == digest and int(size) == len(data)
        except ValueError:  # a sidecar that is not ASCII or has no integer size
            intact = False
        if not intact:
            raise CorruptionError(f"digest mismatch for key {key!r}")
        return data
