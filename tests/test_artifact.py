import pytest

from conftest import make_manifest, make_tgz, raw_tgz
from pkgwatch.artifact import load_tarball, source_files
from pkgwatch.errors import CorruptArchive, ManifestParseError, MissingManifest


def test_minimal_valid_package():
    data = raw_tgz([("package/package.json",
                     b'{"name":"a","version":"1.0.0"}', "file")])
    artifact = load_tarball(data)
    assert artifact.name == "a"
    assert artifact.version == "1.0.0"
    assert len(artifact.files) == 1
    assert artifact.files[0].path == "package.json"


def test_files_sorted_lexicographically():
    manifest = make_manifest("a", "1.0.0")
    data = raw_tgz([
        ("package/b.js", b"b", "file"),
        ("package/a.js", b"a", "file"),
        ("package/package.json", manifest, "file"),
    ])
    artifact = load_tarball(data)
    assert [f.path for f in artifact.files] == ["a.js", "b.js", "package.json"]


def test_path_traversal_rejected():
    data = raw_tgz([
        ("package/package.json", make_manifest("a", "1.0.0"), "file"),
        ("package/../evil", b"x", "file"),
    ])
    with pytest.raises(CorruptArchive):
        load_tarball(data)


def test_absolute_path_rejected():
    data = raw_tgz([("/etc/owned", b"x", "file")])
    with pytest.raises(CorruptArchive):
        load_tarball(data)


def test_not_gzip_rejected():
    with pytest.raises(CorruptArchive):
        load_tarball(b"definitely not a tarball")


def test_truncated_archive_rejected():
    data = make_tgz()
    with pytest.raises(CorruptArchive):
        load_tarball(data[: len(data) // 2])


def test_symlink_rejected():
    data = raw_tgz([
        ("package/package.json", make_manifest("a", "1.0.0"), "file"),
        ("package/link.js", b"package.json", "symlink"),
    ])
    with pytest.raises(CorruptArchive):
        load_tarball(data)


def test_hardlink_rejected():
    data = raw_tgz([
        ("package/package.json", make_manifest("a", "1.0.0"), "file"),
        ("package/link.js", b"package/package.json", "hardlink"),
    ])
    with pytest.raises(CorruptArchive):
        load_tarball(data)


def test_missing_manifest():
    data = raw_tgz([("package/index.js", b"42", "file")])
    with pytest.raises(MissingManifest):
        load_tarball(data)


def test_manifest_parse_error():
    data = raw_tgz([("package/package.json", b"{nope", "file")])
    with pytest.raises(ManifestParseError):
        load_tarball(data)


# Deeper than the JSON decoder's recursion limit.
DEEP_MANIFEST = b"[" * 200_000 + b"]" * 200_000


def test_manifest_nesting_too_deep():
    data = raw_tgz([("package/package.json", DEEP_MANIFEST, "file")])
    with pytest.raises(ManifestParseError):
        load_tarball(data)


def test_directories_ignored():
    data = raw_tgz([
        ("package/lib", None, "dir"),
        ("package/package.json", make_manifest("a", "1.0.0"), "file"),
    ])
    artifact = load_tarball(data)
    assert [f.path for f in artifact.files] == ["package.json"]


def test_round_trip_determinism():
    data = make_tgz(files={"index.js": "module.exports = 1;"})
    assert load_tarball(data) == load_tarball(data)


def test_entry_order_does_not_matter():
    files = {"index.js": "x", "lib/util.js": "y"}
    a = make_tgz(files=files, order=["package.json", "index.js", "lib/util.js"])
    b = make_tgz(files=files, order=["lib/util.js", "package.json", "index.js"])
    assert load_tarball(a).files == load_tarball(b).files


def test_nonstandard_prefix_stripped():
    data = raw_tgz([
        ("weird-0.1.0/package.json", make_manifest("weird", "0.1.0"), "file"),
        ("weird-0.1.0/main.js", b"1", "file"),
    ])
    artifact = load_tarball(data)
    assert [f.path for f in artifact.files] == ["main.js", "package.json"]


def test_duplicate_path_last_wins():
    data = raw_tgz([
        ("package/package.json", make_manifest("a", "1.0.0"), "file"),
        ("package/x.js", b"first", "file"),
        ("package/x.js", b"second", "file"),
    ])
    artifact = load_tarball(data)
    assert artifact.file_map()["x.js"] == b"second"


def test_manifest_fields_parsed():
    artifact = load_tarball(make_tgz(
        name="pkg", version="2.0.0",
        scripts={"postinstall": "node x.js", "test": "jest"},
        manifest_extra={
            "repository": {"type": "git", "url": "git+https://example.com/r.git"},
            "gitHead": "abc123",
            "dependencies": {"left-pad": "^1.0.0"},
        },
    ))
    m = artifact.manifest
    assert m.scripts["postinstall"] == "node x.js"
    assert m.repository_url == "git+https://example.com/r.git"
    assert m.repository_commit == "abc123"
    assert m.dependencies == {"left-pad": "^1.0.0"}


def test_repository_as_plain_string():
    artifact = load_tarball(make_tgz(
        manifest_extra={"repository": "https://example.com/r.git"}
    ))
    assert artifact.manifest.repository_url == "https://example.com/r.git"


def test_missing_name_warns_not_errors():
    data = raw_tgz([("package/package.json", b'{"version":"1.0.0"}', "file")])
    artifact = load_tarball(data)
    assert artifact.name == ""
    assert artifact.warnings


def test_source_files_filtering():
    artifact = load_tarball(make_tgz(files={
        "index.js": "x", "README.md": "hi", "types.d.ts": "t",
        "mod.mjs": "m", "comp.jsx": "c", "style.css": "s",
    }))
    assert [f.path for f in source_files(artifact)] == [
        "comp.jsx", "index.js", "mod.mjs", "types.d.ts",
    ]


def test_source_files_empty():
    artifact = load_tarball(make_tgz(files={"README.md": "hi"}))
    assert source_files(artifact) == []


def test_manifest_json_but_not_object():
    data = raw_tgz([("package/package.json", b"[1,2]", "file")])
    with pytest.raises(ManifestParseError):
        load_tarball(data)
