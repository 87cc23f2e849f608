"""Golden scan report: a fixed fixture registry, scanned with the committed
models in tests/data/parent-models, must give tests/data/golden-report.jsonl
byte for byte, at one job and at two.

A change that alters verdicts on purpose rewrites the file with
``PYTHONPATH=src python tests/test_golden.py`` and names each changed line.
The registry holds no input whose error text comes from the standard library
(a corrupt gzip stream, say), since that text differs between Python
versions, and no input whose verdict text would name its directory.
"""

from __future__ import annotations

import hashlib
import sys
import tempfile
from pathlib import Path

import numpy as np

from conftest import (
    FixtureRegistryBuilder,
    _benign_first_edge,
    _benign_module,
    _benign_patch,
    _exfil_script,
    _harvester_script,
    make_manifest,
    make_tgz,
    raw_tgz,
)
from pkgwatch.artifact import load_tarball
from pkgwatch.clones import ALGORITHMS, MalwareHashSet, canonical_digest
from pkgwatch.pipeline import ModelStore, ScanReport, scan
from pkgwatch.registry import FixtureRegistry

DATA = Path(__file__).parent / "data"
GOLDEN = DATA / "golden-report.jsonl"
MODELS = DATA / "parent-models"

DAY1 = "2021-08-01T00:00:00.000Z"
DAY2 = "2021-08-02T00:00:00.000Z"
DAY2_PLUS_MS = "2021-08-02T00:00:00.001Z"


def build_registry(root: Path) -> MalwareHashSet:
    """Write the golden registry under `root`; the hash set, in memory,
    holds the known malware `known-bad@1.0.0` in both algorithms."""
    builder = FixtureRegistryBuilder(root)
    rng = np.random.default_rng(2021)

    for i in range(8):  # benign first versions, half of them patched a day later
        files = _benign_first_edge(rng) if i % 3 == 2 else _benign_module(rng)
        builder.add_version(f"benign-{i}", "1.0.0", published=DAY1, files=files)
        if i % 2:
            builder.add_version(f"benign-{i}", "1.0.1", published=DAY2,
                                files=_benign_patch(files, rng))

    for i in range(3):  # malicious updates of benign packages
        files = _benign_module(rng)
        builder.add_version(f"target-{i}", "2.4.0", published=DAY1, files=files)
        if i < 2:
            builder.add_version(f"target-{i}", "2.4.1", published=DAY2_PLUS_MS,
                                files={**files, "test.js": _exfil_script(rng)},
                                scripts={"postinstall": "node test.js"})
        else:
            builder.add_version(f"target-{i}", "2.4.1", published=DAY2_PLUS_MS,
                                files={**files, "component.js": _harvester_script(rng)})

    payload = {"index.js": "module.exports = 1;\n", "test.js": _exfil_script(rng)}
    known = builder.add_version("known-bad", "1.0.0", published=DAY1, files=payload,
                                scripts={"postinstall": "node test.js"})
    # The same files republished under new coordinates.
    builder.add_version("fresh-name", "4.2.0", published=DAY2, files=payload,
                        scripts={"postinstall": "node test.js"})

    # Manifest coordinates that differ from the registry's.
    builder.add_version("renamed", "1.0.0", published=DAY2, tarball=make_tgz(
        name="other-name", version="9.9.9", files=_benign_module(rng)))
    # Entries under a prefix other than package/.
    builder.add_version("prefixed", "1.0.0", published=DAY2, tarball=raw_tgz([
        ("pkgroot/package.json", make_manifest("prefixed", "1.0.0"), "file"),
        ("pkgroot/index.js", b"module.exports = 2;\n", "file"),
        ("pkgroot/lib/a.js", b"exports.a = 1;\n", "file"),
    ]))
    # Duplicate entry names: the later entry wins.
    builder.add_version("duplicated", "1.0.0", published=DAY2, tarball=raw_tgz([
        ("package/package.json", make_manifest("duplicated", "1.0.0"), "file"),
        ("package/index.js", _exfil_script(rng).encode(), "file"),
        ("package/index.js", b"module.exports = 3;\n", "file"),
    ]))

    hostile = {
        "linked": raw_tgz([
            ("package/package.json", make_manifest("linked", "1.0.0"), "file"),
            ("package/index.js", b"/etc/passwd", "symlink"),
        ]),
        "traversal": raw_tgz([
            ("package/package.json", make_manifest("traversal", "1.0.0"), "file"),
            ("package/../../evil.js", b"require('child_process');\n", "file"),
        ]),
        "no-manifest": raw_tgz([("package/index.js", b"module.exports = 4;\n", "file")]),
    }
    for name, tarball in hostile.items():
        builder.add_version(name, "1.0.0", published=DAY2,
                            declared_shasum=hashlib.sha1(tarball).hexdigest())
        (root / f"{name}-1.0.0.tgz").write_bytes(tarball)

    builder.add_version("tampered", "1.0.0", published=DAY2,
                        files={"index.js": "module.exports = 5;\n"},
                        declared_shasum="0" * 40)
    builder.add_version("vanished", "1.0.0", published=DAY2,
                        files={"index.js": "module.exports = 6;\n"})
    (root / "vanished-1.0.0.tgz").unlink()

    hash_set = MalwareHashSet()
    for algorithm in ALGORITHMS:
        hash_set.register(canonical_digest(load_tarball(known), algorithm),
                          "known-bad", "1.0.0", "2021-07-15")
    return hash_set


def golden_report(tmp: Path, jobs: int) -> bytes:
    """The report bytes of a scan of the golden registry built under `tmp`."""
    root = tmp / "registry"
    hash_set = build_registry(root)
    registry = FixtureRegistry(root)
    batch = [(name, version) for name, version, _ in registry.list_new_versions(0.0, 2e9)]
    outcome = scan(registry, batch, ModelStore(MODELS).load(), hash_set, jobs=jobs)
    out = tmp / "report.jsonl"
    ScanReport(outcome.verdicts).write(out)
    return out.read_bytes()


def test_scan_report_matches_the_golden_file(tmp_path):
    assert GOLDEN.is_file(), f"{GOLDEN} is missing"
    expected = GOLDEN.read_bytes()
    for jobs in (1, 2):
        work = tmp_path / f"jobs-{jobs}"
        work.mkdir()
        report = golden_report(work, jobs)
        assert str(tmp_path) not in report.decode()
        assert report.decode().splitlines() == expected.decode().splitlines()
        assert report == expected


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        GOLDEN.write_bytes(golden_report(Path(tmp), jobs=1))
    sys.stdout.write(f"wrote {GOLDEN}\n")
