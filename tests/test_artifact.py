import logging

import pytest
from hypothesis import given, settings, strategies as st

from conftest import make_manifest, make_tgz, raw_tgz
from oracles import reference_load_tarball
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
    assert m.raw["dependencies"] == {"left-pad": "^1.0.0"}


def test_repository_as_plain_string():
    artifact = load_tarball(make_tgz(
        manifest_extra={"repository": "https://example.com/r.git"}
    ))
    assert artifact.manifest.repository_url == "https://example.com/r.git"


def test_missing_name_warns_not_errors(caplog):
    data = raw_tgz([("package/package.json", b'{"version":"1.0.0"}', "file")])
    with caplog.at_level(logging.WARNING, logger="pkgwatch.artifact"):
        artifact = load_tarball(data)
    assert artifact.name == ""
    assert [r.getMessage() for r in caplog.records] == ["manifest missing name/version"]


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


def mostly(common, rare):
    """`common` three times in four, else `rare`."""
    return st.tuples(st.sampled_from([False, False, False, True]), common, rare).map(
        lambda pick: pick[2] if pick[0] else pick[1])


# Entry names: common npm shapes, or names built from these components, with
# or without a leading "/", "./" or "//", which reach every branch of the
# prefix guess and of the path checks.
name_parts = st.lists(st.sampled_from(
    ["package", "pkg", "other", ".", "..", "", "package.json", "index.js", "c:"]),
    min_size=1, max_size=4)
entry_names = mostly(
    st.sampled_from(["package/package.json", "package/index.js", "./package/package.json",
                     "package//lib/./a.js", "pkg/package.json", "pkg/index.js",
                     "other/package.json", "other/index.js", "package.json", "index.js"]),
    st.tuples(st.sampled_from(["", "/", "./", "//"]), name_parts).map(
        lambda lead_parts: lead_parts[0] + "/".join(lead_parts[1])))
contents = st.sampled_from([
    make_manifest("a", "1.0.0"), b'{"version": "1.0.0"}', b"{nope", b"[1]",
    b"module.exports = 1;", b"",
])
entry = st.tuples(entry_names, contents, st.sampled_from(["file"] * 8 + ["dir"])).map(
    lambda e: (e[0], None, "dir") if e[2] == "dir" else e)
link = st.tuples(entry_names, st.just(b"package/index.js"),
                 st.sampled_from(["symlink", "hardlink"]))
# Duplicate names come from the small name pool; one list in four holds a link.
tarballs = mostly(
    st.lists(entry, max_size=6),
    st.tuples(st.lists(entry, max_size=5), st.integers(0, 5), link).map(
        lambda at: at[0][:at[1]] + [at[2]] + at[0][at[1]:]),
).map(raw_tgz)
# Archives: whole, truncated, or bytes that are not gzip at all.
archives = mostly(tarballs, st.one_of(
    st.tuples(tarballs, st.integers(0, 400)).map(lambda cut: cut[0][:cut[1]]),
    st.binary(max_size=64),
))


def decoded(decode, data):
    """The artifact `decode` gives, or the type and text of what it raises."""
    try:
        return decode(data)
    except Exception as exc:
        return type(exc), str(exc)


@settings(max_examples=500, deadline=None, derandomize=True)
@given(archives)
def test_load_tarball_matches_the_reference_decode(data):
    assert decoded(load_tarball, data) == decoded(reference_load_tarball, data)
