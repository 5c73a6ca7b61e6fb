"""Pluggable cache backends for the sweep result store.

:class:`~repro.harness.sweep.SweepCache` used to *be* a directory of
files; the benchmark service needs the same content-addressed store to
be shareable between workers and hosts, so the storage mechanics are
extracted here behind a minimal byte-oriented protocol:

* :class:`CacheBackend` — the contract: opaque blobs addressed by
  ``(kind, key)`` where ``kind`` is ``"result"`` (per-cell
  :class:`~repro.harness.runner.RunResult` entries) or ``"artifact"``
  (per-shape analysis artifacts) and ``key`` is the SHA-256
  content address.  Backends move bytes; *encoding* (npz layout,
  format stamps, corruption handling) stays in ``SweepCache`` so every
  backend serves byte-identical entries.
* :class:`LocalCacheBackend` — the on-disk layout: sharded
  ``<root>/<key[:2]>/<key>.npz`` entries (``docs/formats.md``) with
  atomic writes.
* :class:`RemoteCacheBackend` — a client of a ``repro serve
  --cache-only`` instance, so multiple worker hosts share one store
  (the GEMMbench collaborative-repository topology).  Stateless: one
  short-lived TCP connection per operation, which keeps it trivially
  robust to server restarts.

``parse_backend_spec`` maps the CLI's ``--cache-dir`` argument to a
backend: ``remote://host:port`` goes remote, anything else is a local
path.
"""

from __future__ import annotations

import os
import socket
import uuid
from pathlib import Path
from typing import Iterator, Protocol, runtime_checkable

from .protocol import (
    CACHE_KINDS,
    ProtocolError,
    blob_from_wire,
    blob_to_wire,
    decode_record,
    encode_record,
)


class CacheBackendError(OSError):
    """A backend operation failed (I/O, network, or protocol trouble).

    ``SweepCache`` treats read failures as misses, so a flaky remote
    store degrades to recomputation, never to a crash.
    """


def _check_kind(kind: str) -> str:
    if kind not in CACHE_KINDS:
        raise ValueError(f"unknown cache kind {kind!r} "
                         f"(expected one of {CACHE_KINDS})")
    return kind


@runtime_checkable
class CacheBackend(Protocol):
    """What a sweep-cache storage backend must provide.

    All methods address opaque blobs by ``(kind, key)``.  ``read``
    returns ``None`` on a plain miss and raises
    :class:`CacheBackendError` on infrastructure failure; callers that
    want miss-on-failure semantics catch the latter.
    """

    def read(self, kind: str, key: str) -> bytes | None:
        """The blob for ``(kind, key)``, or ``None`` when absent."""
        ...

    def write(self, kind: str, key: str, blob: bytes) -> None:
        """Store ``blob`` under ``(kind, key)``, atomically."""
        ...

    def keys(self, kind: str) -> list[str]:
        """Every key currently stored under ``kind`` (sorted)."""
        ...

    def delete(self, kind: str, key: str) -> bool:
        """Remove one entry; returns whether it existed."""
        ...

    def describe(self) -> str:
        """Human-readable location (shown in sweep summaries)."""
        ...


# ----------------------------------------------------------------------
# Local filesystem backend
# ----------------------------------------------------------------------
class LocalCacheBackend:
    """Sharded on-disk blob store (the default backend).

    Canonical entry paths::

        result   <root>/<key[:2]>/<key>.npz
        artifact <root>/analysis/<key[:2]>/<key>.npz

    Nothing else under the root is an entry: a stray file in another
    layout is neither read nor listed.

    Writes are atomic: parent directories are created race-tolerantly
    (``exist_ok=True`` — two processes sharing a store may shard
    concurrently), the blob lands in a temp file of its own, and
    ``os.replace`` publishes it.  Concurrent writers of one key
    therefore never share a temp file, and a reader can never observe
    a torn entry under this backend; torn *content* (e.g. a file
    truncated by a full disk) is the decoder's to treat as a miss.
    """

    def __init__(self, root: str | Path):
        self.root = Path(root).expanduser()
        self.root.mkdir(parents=True, exist_ok=True)

    # ------------------------------------------------------------------
    def path_for(self, kind: str, key: str) -> Path:
        """The canonical (npz) path for ``(kind, key)``."""
        _check_kind(kind)
        base = self.root / "analysis" if kind == "artifact" else self.root
        return base / key[:2] / f"{key}.npz"

    # ------------------------------------------------------------------
    def read(self, kind: str, key: str) -> bytes | None:
        path = self.path_for(kind, key)
        try:
            return path.read_bytes()
        except FileNotFoundError:
            return None
        except OSError as exc:
            raise CacheBackendError(
                f"cannot read cache entry {path}: {exc}") from exc

    def write(self, kind: str, key: str, blob: bytes) -> None:
        path = self.path_for(kind, key)
        tmp = path.with_name(f"{key}.{uuid.uuid4().hex}.tmp")
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            tmp.write_bytes(blob)
            os.replace(tmp, path)
        except OSError as exc:
            tmp.unlink(missing_ok=True)
            raise CacheBackendError(
                f"cannot write cache entry {path}: {exc}") from exc

    def keys(self, kind: str) -> list[str]:
        _check_kind(kind)
        return sorted(path.stem for path in self._entry_paths(kind))

    def delete(self, kind: str, key: str) -> bool:
        try:
            self.path_for(kind, key).unlink()
        except FileNotFoundError:
            return False
        return True

    def describe(self) -> str:
        return str(self.root)

    # ------------------------------------------------------------------
    def _entry_paths(self, kind: str) -> Iterator[Path]:
        if kind == "artifact":
            yield from (self.root / "analysis").glob("*/*.npz")
            return
        # the analysis/ subtree is a different key space and is excluded.
        for path in self.root.glob("*/*.npz"):
            if path.parent.name != "analysis":
                yield path

    def __repr__(self) -> str:
        return f"<LocalCacheBackend {self.root}>"


# ----------------------------------------------------------------------
# Remote backend: client of a `repro serve --cache-only` instance
# ----------------------------------------------------------------------
class RemoteCacheBackend:
    """Blob store served by another ``repro serve --cache-only`` process.

    Topology (``docs/service.md``): one host runs a cache-only
    instance over a :class:`LocalCacheBackend`; every worker host
    points its ``SweepCache`` at ``remote://host:port`` and the whole
    fleet shares one content-addressed store — a cell computed
    anywhere is a hit everywhere.

    Each operation opens a fresh TCP connection, sends one request
    line, reads one response line and disconnects.  Failures raise
    :class:`CacheBackendError`; ``SweepCache`` maps read failures to
    misses, so losing the cache host costs recomputation, not
    correctness.
    """

    def __init__(self, host: str, port: int, timeout_s: float = 10.0):
        self.host = host
        self.port = int(port)
        self.timeout_s = float(timeout_s)

    # ------------------------------------------------------------------
    def _roundtrip(self, request: dict) -> dict:
        try:
            with socket.create_connection((self.host, self.port),
                                          timeout=self.timeout_s) as sock:
                with sock.makefile("rwb") as stream:
                    greeting = stream.readline()  # discard the hello
                    if not greeting:
                        raise CacheBackendError(
                            f"cache server {self.host}:{self.port} closed "
                            "the connection before greeting")
                    stream.write(encode_record(request))
                    stream.flush()
                    line = stream.readline()
        except OSError as exc:
            raise CacheBackendError(
                f"cache server {self.host}:{self.port} unreachable: "
                f"{exc}") from exc
        if not line:
            raise CacheBackendError(
                f"cache server {self.host}:{self.port} closed the "
                "connection mid-request")
        try:
            response = decode_record(line)
        except ProtocolError as exc:
            raise CacheBackendError(str(exc)) from exc
        if response.get("type") == "error":
            raise CacheBackendError(
                f"cache server refused {request.get('type')}: "
                f"{response.get('error')}")
        return response

    # ------------------------------------------------------------------
    def read(self, kind: str, key: str) -> bytes | None:
        _check_kind(kind)
        response = self._roundtrip(
            {"type": "cache_get", "kind": kind, "key": key})
        try:
            return blob_from_wire(response.get("data"))
        except ProtocolError as exc:
            raise CacheBackendError(str(exc)) from exc

    def write(self, kind: str, key: str, blob: bytes) -> None:
        _check_kind(kind)
        self._roundtrip({"type": "cache_put", "kind": kind, "key": key,
                         "data": blob_to_wire(blob)})

    def keys(self, kind: str) -> list[str]:
        _check_kind(kind)
        response = self._roundtrip({"type": "cache_keys", "kind": kind})
        return sorted(str(k) for k in response.get("keys", []))

    def delete(self, kind: str, key: str) -> bool:
        _check_kind(kind)
        response = self._roundtrip(
            {"type": "cache_delete", "kind": kind, "key": key})
        return bool(response.get("deleted"))

    def describe(self) -> str:
        return f"remote://{self.host}:{self.port}"

    def __repr__(self) -> str:
        return f"<RemoteCacheBackend {self.host}:{self.port}>"


# ----------------------------------------------------------------------
def parse_backend_spec(spec) -> CacheBackend:
    """Turn a ``--cache-dir`` argument into a backend.

    ``remote://host:port`` builds a :class:`RemoteCacheBackend`;
    an existing backend instance passes through; anything else is a
    local path.
    """
    if isinstance(spec, (LocalCacheBackend, RemoteCacheBackend)):
        return spec
    text = str(spec)
    if text.startswith("remote://"):
        rest = text[len("remote://"):]
        host, sep, port = rest.rpartition(":")
        if not sep or not host or not port.isdigit():
            raise ValueError(
                f"bad remote cache spec {text!r} "
                "(expected remote://host:port)")
        return RemoteCacheBackend(host, int(port))
    return LocalCacheBackend(spec)
