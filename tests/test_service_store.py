"""Cache backends and the wire protocol (repro.service)."""

import socket
import socketserver
import threading

import pytest

from repro.service.protocol import (
    PROTOCOL_VERSION,
    ProtocolError,
    blob_from_wire,
    blob_to_wire,
    decode_record,
    encode_record,
    validate_request,
)
from repro.service import store
from repro.service.store import (
    CacheBackend,
    CacheBackendError,
    LocalCacheBackend,
    RemoteCacheBackend,
    parse_backend_spec,
)


# ----------------------------------------------------------------------
# Protocol
# ----------------------------------------------------------------------
class TestProtocol:
    def test_encode_decode_roundtrip(self):
        record = {"type": "submit", "benchmark": "fft", "size": "tiny",
                  "device": "i7-6700K", "v": PROTOCOL_VERSION}
        line = encode_record(record)
        assert line.endswith(b"\n") and line.count(b"\n") == 1
        assert decode_record(line) == record

    def test_decode_rejects_non_object(self):
        with pytest.raises(ProtocolError):
            decode_record(b"[1, 2, 3]\n")
        with pytest.raises(ProtocolError):
            decode_record(b"not json at all\n")

    def test_decode_rejects_oversized_line(self):
        from repro.service.protocol import MAX_LINE_BYTES
        with pytest.raises(ProtocolError):
            decode_record(b"x" * (MAX_LINE_BYTES + 1))

    def test_validate_submit(self):
        good = {"type": "submit", "benchmark": "fft", "size": "tiny",
                "device": "i7-6700K"}
        assert validate_request(good) is None
        assert validate_request({"type": "submit"}) is not None
        assert validate_request({"type": "nonsense"}) is not None

    def test_validate_version_gate(self):
        record = {"type": "ping", "v": PROTOCOL_VERSION + 1}
        assert "version" in validate_request(record)

    def test_validate_cache_only_mode(self):
        submit = {"type": "submit", "benchmark": "fft", "size": "tiny",
                  "device": "i7-6700K"}
        assert validate_request(submit, cache_only=True) is not None
        get = {"type": "cache_get", "kind": "result", "key": "ab" * 32}
        assert validate_request(get, cache_only=True) is None

    def test_validate_cache_fields(self):
        assert validate_request(
            {"type": "cache_get", "kind": "bogus", "key": "k"}) is not None
        assert validate_request(
            {"type": "cache_put", "kind": "result", "key": "k"}) is not None

    def test_blob_wire_roundtrip(self):
        blob = bytes(range(256))
        assert blob_from_wire(blob_to_wire(blob)) == blob
        assert blob_to_wire(None) is None
        assert blob_from_wire(None) is None
        with pytest.raises(ProtocolError):
            blob_from_wire("!!! not base64 !!!")


# ----------------------------------------------------------------------
# Local backend
# ----------------------------------------------------------------------
class TestLocalCacheBackend:
    def test_sharded_npz_layout(self, tmp_path):
        backend = LocalCacheBackend(tmp_path)
        key = "abcdef" + "0" * 58
        backend.write("result", key, b"result-bytes")
        assert (tmp_path / "ab" / f"{key}.npz").read_bytes() == b"result-bytes"
        backend.write("artifact", key, b"artifact-bytes")
        assert (tmp_path / "analysis" / "ab" /
                f"{key}.npz").read_bytes() == b"artifact-bytes"

    def test_read_miss_returns_none(self, tmp_path):
        backend = LocalCacheBackend(tmp_path)
        assert backend.read("result", "ff" * 32) is None

    def test_no_tmp_droppings(self, tmp_path):
        backend = LocalCacheBackend(tmp_path)
        backend.write("result", "aa" * 32, b"x")
        assert not list(tmp_path.rglob("*.tmp"))

    def test_concurrent_writers_of_one_key(self, tmp_path, monkeypatch):
        """A second write of the key lands between the first write's
        temp file and its publish: both succeed, the entry is one
        whole blob, and no temp file is left behind."""
        backend = LocalCacheBackend(tmp_path)
        key = "ab" + "7" * 62
        first, second = b"first" * 100, b"second" * 100
        real_replace = store.os.replace
        calls = []

        def replace(src, dst):
            calls.append(src)
            if len(calls) == 1:
                backend.write("result", key, second)
            real_replace(src, dst)

        monkeypatch.setattr(store.os, "replace", replace)
        backend.write("result", key, first)
        monkeypatch.undo()
        assert len(calls) == 2 and calls[0] != calls[1]
        assert backend.read("result", key) in (first, second)
        assert not list(tmp_path.rglob("*.tmp"))

    def test_failed_publish_removes_temp_file(self, tmp_path, monkeypatch):
        backend = LocalCacheBackend(tmp_path)

        def replace(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(store.os, "replace", replace)
        with pytest.raises(CacheBackendError):
            backend.write("result", "ab" + "8" * 62, b"x")
        monkeypatch.undo()
        assert not list(tmp_path.rglob("*.tmp"))

    def test_stray_json_neither_served_nor_listed(self, tmp_path):
        backend = LocalCacheBackend(tmp_path)
        key = "ab" + "1" * 62
        (tmp_path / "ab").mkdir()
        (tmp_path / "ab" / f"{key}.json").write_text("stray")
        (tmp_path / f"{key}.json").write_text("stray")
        assert backend.read("result", key) is None
        assert backend.keys("result") == []

    def test_delete_covers_all_layouts(self, tmp_path):
        backend = LocalCacheBackend(tmp_path)
        key = "ab" + "4" * 62
        backend.write("result", key, b"new")
        assert backend.delete("result", key) is True
        assert backend.read("result", key) is None
        assert backend.delete("result", key) is False

    def test_keys_excludes_artifacts(self, tmp_path):
        backend = LocalCacheBackend(tmp_path)
        backend.write("result", "aa" + "5" * 62, b"r")
        backend.write("artifact", "bb" + "6" * 62, b"a")
        assert backend.keys("result") == ["aa" + "5" * 62]
        assert backend.keys("artifact") == ["bb" + "6" * 62]

    def test_kind_checked(self, tmp_path):
        backend = LocalCacheBackend(tmp_path)
        with pytest.raises(ValueError):
            backend.path_for("bogus", "aa")

    def test_satisfies_protocol(self, tmp_path):
        assert isinstance(LocalCacheBackend(tmp_path), CacheBackend)
        assert isinstance(RemoteCacheBackend("localhost", 1), CacheBackend)


# ----------------------------------------------------------------------
# Backend spec parsing
# ----------------------------------------------------------------------
class TestParseBackendSpec:
    def test_path_goes_local(self, tmp_path):
        backend = parse_backend_spec(tmp_path / "cache")
        assert isinstance(backend, LocalCacheBackend)

    def test_remote_spec(self):
        backend = parse_backend_spec("remote://cachehost:7077")
        assert isinstance(backend, RemoteCacheBackend)
        assert (backend.host, backend.port) == ("cachehost", 7077)

    def test_bad_remote_spec(self):
        with pytest.raises(ValueError):
            parse_backend_spec("remote://no-port")

    def test_instance_passthrough(self, tmp_path):
        backend = LocalCacheBackend(tmp_path)
        assert parse_backend_spec(backend) is backend


# ----------------------------------------------------------------------
# Remote backend against a stub cache server
# ----------------------------------------------------------------------
class _StubCacheHandler(socketserver.StreamRequestHandler):
    """Minimal in-memory speaker of the cache protocol."""

    def handle(self):
        self.wfile.write(encode_record(
            {"type": "hello", "v": PROTOCOL_VERSION, "mode": "cache-only",
             "jobs": 0}))
        line = self.rfile.readline()
        if not line:
            return
        record = decode_record(line)
        store = self.server.store  # type: ignore[attr-defined]
        rtype = record["type"]
        if rtype == "cache_get":
            blob = store.get((record["kind"], record["key"]))
            reply = {"type": "cache_blob", "data": blob_to_wire(blob)}
        elif rtype == "cache_put":
            store[(record["kind"], record["key"])] = blob_from_wire(
                record["data"])
            reply = {"type": "cache_ok"}
        elif rtype == "cache_keys":
            reply = {"type": "cache_keys",
                     "keys": sorted(k for kind, k in store
                                    if kind == record["kind"])}
        elif rtype == "cache_delete":
            deleted = store.pop((record["kind"], record["key"]),
                                None) is not None
            reply = {"type": "cache_ok", "deleted": deleted}
        else:
            reply = {"type": "error", "id": record.get("id"),
                     "error": f"stub does not speak {rtype!r}"}
        self.wfile.write(encode_record(reply))


@pytest.fixture()
def stub_cache_server():
    server = socketserver.ThreadingTCPServer(
        ("127.0.0.1", 0), _StubCacheHandler)
    server.store = {}
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield server
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)


class TestRemoteCacheBackend:
    def test_roundtrip(self, stub_cache_server):
        host, port = stub_cache_server.server_address
        backend = RemoteCacheBackend(host, port, timeout_s=5.0)
        key = "ab" * 32
        assert backend.read("result", key) is None
        backend.write("result", key, b"remote-bytes")
        assert backend.read("result", key) == b"remote-bytes"
        assert backend.keys("result") == [key]
        assert backend.delete("result", key) is True
        assert backend.read("result", key) is None

    def test_unreachable_raises_backend_error(self):
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            dead_port = probe.getsockname()[1]
        backend = RemoteCacheBackend("127.0.0.1", dead_port, timeout_s=1.0)
        with pytest.raises(CacheBackendError):
            backend.read("result", "ab" * 32)

    def test_server_error_raises_backend_error(self, stub_cache_server):
        host, port = stub_cache_server.server_address
        backend = RemoteCacheBackend(host, port, timeout_s=5.0)
        with pytest.raises(CacheBackendError):
            backend._roundtrip({"type": "ping"})

    def test_dead_store_degrades_to_uncached_run(self, caplog):
        """A sweep pointed at an unreachable store still completes:
        reads miss, writes are logged and swallowed."""
        import logging

        from repro.harness.runner import RunConfig
        from repro.harness.sweep import SweepCache, run_sweep

        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            dead_port = probe.getsockname()[1]
        cache = SweepCache(f"remote://127.0.0.1:{dead_port}")
        cache.backend.timeout_s = 1.0
        config = RunConfig("fft", "tiny", "i7-6700K", samples=4)
        with caplog.at_level(logging.WARNING, logger="repro.harness.sweep"):
            outcome = run_sweep([config], jobs=1, cache=cache)
        assert (outcome.computed, outcome.cached) == (1, 0)
        assert any("failed to store" in r.message for r in caplog.records)

    def test_sweepcache_over_remote_backend(self, stub_cache_server, tmp_path):
        """SweepCache end-to-end over the remote backend: identical
        results, zero recomputation on the second worker."""
        from repro.harness.runner import RunConfig
        from repro.harness.sweep import SweepCache, run_sweep

        host, port = stub_cache_server.server_address
        spec = f"remote://{host}:{port}"
        config = RunConfig("fft", "tiny", "i7-6700K", samples=4)

        first = SweepCache(spec)
        warm = run_sweep([config], jobs=1, cache=first)
        assert (warm.computed, warm.cached) == (1, 0)

        second = SweepCache(spec)  # a different worker, same store
        hit = run_sweep([config], jobs=1, cache=second)
        assert (hit.computed, hit.cached) == (0, 1)
        import numpy as np
        np.testing.assert_array_equal(
            warm.results[0].times_s, hit.results[0].times_s)
