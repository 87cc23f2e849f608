import hashlib
import json
import os
import socket
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer
from pathlib import Path
from types import SimpleNamespace

import pytest

from conftest import make_tgz
from pkgwatch.artifact import load_tarball
from pkgwatch.errors import IntegrityMismatch, MalformedDocument, NotFound, TransportError
from pkgwatch.registry import FixtureRegistry, HttpRegistry, open_registry
from pkgwatch.versioning import parse_iso8601

T0 = "2019-08-01T12:00:00.000Z"
T1 = "2019-08-01T12:00:00.001Z"


def test_fixture_document_two_versions(registry_builder):
    registry_builder.add_version("mgdb", "3.1.8", published=T0)
    registry_builder.add_version("mgdb", "3.1.9", published=T1)
    registry = FixtureRegistry(registry_builder.root)
    document = registry.fetch_document("mgdb")
    assert set(document.versions) == {"3.1.8", "3.1.9"}
    assert len(document.time) == 2
    assert document.time["3.1.9"] == pytest.approx(parse_iso8601(T1))


def test_fixture_unknown_package(registry_builder):
    registry = FixtureRegistry(registry_builder.root)
    with pytest.raises(NotFound):
        registry.fetch_document("ghost")
    with pytest.raises(NotFound):
        registry.fetch_tarball("ghost", "1.0.0", None)


def test_fixture_malformed_document(registry_builder):
    (registry_builder.root).mkdir(parents=True, exist_ok=True)
    (registry_builder.root / "bad.meta").write_text("{nope")
    with pytest.raises(MalformedDocument):
        FixtureRegistry(registry_builder.root).fetch_document("bad")


def test_document_time_map_skips_pseudo_keys(registry_builder):
    registry_builder.root.mkdir(parents=True)
    (registry_builder.root / "p.meta").write_text(json.dumps({
        "name": "p",
        "versions": {"1.0.0": {}, "1.0.1": {}},
        "time": {
            "created": "2021-07-01T00:00:00.000Z",
            "modified": "2021-08-01T00:00:00.000Z",
            "1.0.0": "2021-07-01T12:00:00.000Z",
            "1.0.1": "2021-07-02T12:00:00.000Z",
        },
    }))
    document = FixtureRegistry(registry_builder.root).fetch_document("p")
    assert [v for v, _ in document.timeline().entries] == ["1.0.0", "1.0.1"]
    assert document.warnings == ()


@pytest.mark.parametrize("time_map, malformed", [
    ({"1.0.0": 1704067200}, False),
    ({"1.0.0": None, "1.0.1": ["2024-01-01T00:00:00Z"]}, False),
    (["2024-01-01T00:00:00Z"], True),
    ("2024-01-01T00:00:00Z", True),
], ids=["epoch-number", "null-and-list", "list", "string"])
def test_bad_time_map_costs_only_its_document(registry_builder, time_map, malformed):
    registry_builder.add_version("good", "1.0.0", published="2024-01-02T00:00:00Z")
    (registry_builder.root / "bad.meta").write_text(json.dumps({
        "name": "bad", "versions": {"1.0.0": {}, "1.0.1": {}}, "time": time_map,
    }))
    registry = FixtureRegistry(registry_builder.root)
    if malformed:
        with pytest.raises(MalformedDocument):
            registry.fetch_document("bad")
    else:
        document = registry.fetch_document("bad")
        assert document.time == {}
        assert any("unparseable timestamp for 1.0.0" in w for w in document.warnings)
    window = registry.list_new_versions(0.0, 2e9)
    assert [(n, v) for n, v, _ in window] == [("good", "1.0.0")]


def test_fixture_tarball_loads(registry_builder):
    registry_builder.add_version("pkg", "1.0.0", published=T0,
                                 files={"index.js": "1"})
    registry = FixtureRegistry(registry_builder.root)
    dist = registry.fetch_document("pkg").dist["1.0.0"]
    artifact = load_tarball(registry.fetch_tarball("pkg", "1.0.0", dist))
    assert artifact.name == "pkg"


def test_fixture_integrity_mismatch(registry_builder):
    registry_builder.add_version("pkg", "1.0.0", published=T0,
                                 declared_shasum="0" * 40)
    registry = FixtureRegistry(registry_builder.root)
    dist = registry.fetch_document("pkg").dist["1.0.0"]
    with pytest.raises(IntegrityMismatch):
        registry.fetch_tarball("pkg", "1.0.0", dist)


def test_fixture_scoped_package(registry_builder):
    registry_builder.add_version("@scope/pkg", "1.0.0", published=T0)
    registry = FixtureRegistry(registry_builder.root)
    document = registry.fetch_document("@scope/pkg")
    assert document.name == "@scope/pkg"
    assert registry.fetch_tarball("@scope/pkg", "1.0.0", document.dist["1.0.0"])


def test_list_new_versions_window(registry_builder):
    registry_builder.add_version("a", "1.0.0", published="2021-07-29T00:00:00Z")
    registry_builder.add_version("a", "1.0.1", published="2021-07-30T00:00:00Z")
    registry_builder.add_version("b", "0.1.0", published="2021-07-31T00:00:00Z")
    registry = FixtureRegistry(registry_builder.root)

    window = registry.list_new_versions(
        parse_iso8601("2021-07-30T00:00:00Z"), parse_iso8601("2021-08-01T00:00:00Z")
    )
    assert [(n, v) for n, v, _ in window] == [("a", "1.0.1"), ("b", "0.1.0")]

    empty = registry.list_new_versions(0.0, 1.0)
    assert empty == []

    with pytest.raises(ValueError):
        registry.list_new_versions(2.0, 1.0)


def test_fixture_mode_performs_no_network_io(registry_builder, monkeypatch):
    registry_builder.add_version("pkg", "1.0.0", published=T0)

    def explode(*args, **kwargs):
        raise AssertionError("network touched in fixture mode")

    monkeypatch.setattr(socket, "socket", explode)
    monkeypatch.setattr(socket, "create_connection", explode)

    registry = FixtureRegistry(registry_builder.root)
    document = registry.fetch_document("pkg")
    registry.fetch_tarball("pkg", "1.0.0", document.dist["1.0.0"])
    registry.list_new_versions(0.0, 1e12)


def test_open_registry_dispatch(registry_builder, tmp_path):
    registry_builder.add_version("pkg", "1.0.0", published=T0)
    assert isinstance(open_registry(str(registry_builder.root)), FixtureRegistry)
    assert isinstance(open_registry("https://registry.invalid"), HttpRegistry)
    with pytest.raises(ValueError):
        open_registry(str(tmp_path / "missing"))


# --- HTTP mode against a local server ---

class _Handler(BaseHTTPRequestHandler):
    documents: dict[str, dict] = {}
    tarballs: dict[str, bytes] = {}
    failures_left = 0
    requests_seen: list[str] = []

    def do_GET(self):
        _Handler.requests_seen.append(self.path)
        if _Handler.failures_left > 0:
            _Handler.failures_left -= 1
            self.send_response(503)
            self.end_headers()
            return
        path = self.path.lstrip("/")
        if path in self.tarballs:
            body = self.tarballs[path]
            self.send_response(200)
            self.end_headers()
            self.wfile.write(body)
        elif path in self.documents:
            body = json.dumps(self.documents[path]).encode()
            self.send_response(200)
            self.end_headers()
            self.wfile.write(body)
        else:
            self.send_response(404)
            self.end_headers()

    def log_message(self, *args):
        pass


@pytest.fixture
def http_registry():
    server = HTTPServer(("127.0.0.1", 0), _Handler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    base = f"http://127.0.0.1:{server.server_port}"

    tarball = make_tgz(name="web-pkg", version="1.0.0")
    _Handler.documents = {
        "web-pkg": {
            "name": "web-pkg",
            "versions": {
                "1.0.0": {
                    "name": "web-pkg", "version": "1.0.0",
                    "dist": {
                        "tarball": f"{base}/tarballs/web-pkg-1.0.0.tgz",
                        "shasum": hashlib.sha1(tarball).hexdigest(),
                    },
                },
            },
            "time": {"created": T0, "1.0.0": T0},
        },
        "@scope%2Fweb": {
            "name": "@scope/web", "versions": {"1.0.0": {}},
            "time": {"1.0.0": T0},
        },
    }
    _Handler.tarballs = {"tarballs/web-pkg-1.0.0.tgz": tarball}
    _Handler.failures_left = 0
    _Handler.requests_seen = []
    yield HttpRegistry(base, timeout=5, retries=3, backoff=0.01)
    server.shutdown()
    server.server_close()
    thread.join()


def test_http_fetch_document(http_registry):
    document = http_registry.fetch_document("web-pkg")
    assert document.versions == ("1.0.0",)
    assert document.time["1.0.0"] == pytest.approx(parse_iso8601(T0))


def test_http_scoped_name_url_encoded(http_registry):
    document = http_registry.fetch_document("@scope/web")
    assert document.name == "@scope/web"
    assert any("%2F" in p for p in _Handler.requests_seen)


def test_http_not_found(http_registry):
    with pytest.raises(NotFound):
        http_registry.fetch_document("absent")


def test_http_retries_on_transient_failure(http_registry):
    _Handler.failures_left = 2
    document = http_registry.fetch_document("web-pkg")
    assert document.name == "web-pkg"


def test_http_transport_error_after_retries(http_registry):
    _Handler.failures_left = 99
    with pytest.raises(TransportError):
        http_registry.fetch_document("web-pkg")
    _Handler.failures_left = 0


def test_http_tarball_with_cache(http_registry, tmp_path):
    http_registry.cache_dir = tmp_path / "cache"
    dist = http_registry.fetch_document("web-pkg").dist["1.0.0"]
    data = http_registry.fetch_tarball("web-pkg", "1.0.0", dist)
    assert load_tarball(data).name == "web-pkg"
    tarball_requests = [p for p in _Handler.requests_seen if "tarballs" in p]
    assert len(tarball_requests) == 1

    # Second fetch comes from the cache.
    http_registry.fetch_tarball("web-pkg", "1.0.0", dist)
    tarball_requests = [p for p in _Handler.requests_seen if "tarballs" in p]
    assert len(tarball_requests) == 1


def test_http_unknown_version(http_registry):
    with pytest.raises(NotFound):
        http_registry.fetch_tarball(
            "web-pkg", "9.9.9", http_registry.fetch_document("web-pkg").dist.get("9.9.9")
        )


def test_http_list_new_versions_requires_names(http_registry, caplog):
    rows = http_registry.list_new_versions(0.0, 1e12, names=["web-pkg", "absent"])
    assert [(n, v) for n, v, _ in rows] == [("web-pkg", "1.0.0")]
    assert "skipping absent: 404" in caplog.text


def test_fixture_and_http_list_the_same_window(http_registry, tmp_path):
    documents = {
        "alpha": {"name": "alpha", "versions": {"1.0.0": {}, "1.1.0": {}},
                  "time": {"1.0.0": "2021-07-01T00:00:00Z",
                           "1.1.0": "2021-07-30T00:00:00Z"}},
        "beta": {"name": "beta", "versions": {"0.1.0": {}},
                 "time": {"created": "2021-07-29T00:00:00Z",
                          "0.1.0": "2021-07-29T00:00:00Z"}},
        "broken": {"name": "broken", "versions": "none"},
    }
    root = tmp_path / "fixture"
    root.mkdir()
    for name, document in documents.items():
        (root / f"{name}.meta").write_text(json.dumps(document))
    _Handler.documents = documents
    since, until = parse_iso8601("2021-07-15T00:00:00Z"), 2e9

    fixture = FixtureRegistry(root).list_new_versions(since, until)
    http = http_registry.list_new_versions(since, until, [*documents, "ghost"])
    assert fixture == http
    assert [(n, v) for n, v, _ in fixture] == [("beta", "0.1.0"), ("alpha", "1.1.0")]


UNSAFE_VERSIONS = ("", "1.0.0/../../../escaped", "1.0.0\\..\\escaped")


def test_fixture_rejects_unsafe_names(registry_builder):
    registry = FixtureRegistry(registry_builder.root)
    for bad in ("../escape", "/abs/path", "a/../../b", ""):
        with pytest.raises(ValueError):
            registry.fetch_document(bad)
        with pytest.raises(ValueError):
            registry.fetch_tarball(bad, "1.0.0", None)
    for bad in UNSAFE_VERSIONS:
        with pytest.raises(ValueError):
            registry.fetch_tarball("pkg", bad, None)


def test_http_cache_rejects_unsafe_versions(tmp_path):
    tarball = make_tgz(name="web-pkg", version="1.0.0")

    class Session:
        def get(self, url, timeout):
            return SimpleNamespace(status_code=200, content=tarball)

    cache_dir = tmp_path / "a" / "b" / "cache"
    registry = HttpRegistry("https://registry.invalid", session=Session(),
                            cache_dir=cache_dir)
    dist = {"tarball": "https://registry.invalid/web-pkg.tgz",
            "shasum": hashlib.sha1(tarball).hexdigest()}
    for bad in UNSAFE_VERSIONS:
        with pytest.raises(ValueError):
            registry.fetch_tarball("web-pkg", bad, dist)
    assert list(tmp_path.rglob("*")) == []
    # The same session and dist with a plain version fill the cache.
    assert registry.fetch_tarball("web-pkg", "1.0.0", dist) == tarball
    assert [p.relative_to(tmp_path) for p in tmp_path.rglob("*.tgz")] == \
        [Path("a/b/cache/web-pkg-1.0.0.tgz")]


def test_http_session_is_per_process_unless_supplied():
    own = HttpRegistry("https://registry.invalid")
    supplied = object()
    given = HttpRegistry("https://registry.invalid", session=supplied)
    parent = own.session
    assert own.session is parent and given.session is supplied
    read, write = os.pipe()
    pid = os.fork()
    if pid == 0:  # the child reports through the pipe and never returns to pytest
        try:
            child = own.session
            ok = child is not parent and own.session is child and given.session is supplied
            os.write(write, b"1" if ok else b"0")
        finally:
            os._exit(0)
    os.close(write)
    _, status = os.waitpid(pid, 0)
    with os.fdopen(read, "rb") as fh:
        assert fh.read() == b"1"
    assert os.waitstatus_to_exitcode(status) == 0
    assert own.session is parent
