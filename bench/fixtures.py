"""Seeded inputs for the benchmark: fixture registry, corpus, models, hashes.

Everything is generated from the workload seed with the shared builders in
``tests/conftest.py``; only the hostile archives have no generator
there. Generation runs in its own process (see
``main``) so that the measuring process's peak memory is the program's.

Layout of a generated directory::

    registry/      {name}.meta documents and {name}-{version}.tgz tarballs
    repos/         file:// git repositories of the rebuildable items
    hashes.txt     known-malware hash set, md5 and blake2b-128 digests
    truth.json     window, and each window item with its expected verdict

and of the reference directory, which is the same for every seed and is
built once per source tree::

    corpus.jsonl   90k-row corpus store (the reset point of every repetition)
    models/        model store trained on the pool the corpus was drawn from

The corpus does not follow the seed because the one-class SVM's iteration
count depends on it sharply (one seeded corpus took 33,804 coordinate
steps and 25 s to fit, others 300-1,000 steps), which would make retrain
time a property of the seed rather than of the code.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import sys
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]

DAY = datetime(2021, 8, 2, tzinfo=timezone.utc).timestamp()
WINDOW = (DAY, DAY + 86399.999)
CORPUS_ROWS = 90_000
CORPUS_SEED = 0
HASH_SET_FILLER = 2_000

# Expected final verdict per item kind; ADVERSARIAL kinds are the evasive
# and hostile inputs the program is expected to handle but may not yet.
BENIGN_KIND = "benign"
EXPECTED_FINAL = {
    "benign": None,  # tree and NB must not flag it; the SVM may
    "malicious": "flagged",
    "clone": "flagged",
    "rebuild": "auto-cleared",
    "evasive": "flagged",
    "hostile": "error",
}
ADVERSARIAL = ("evasive", "hostile")


@dataclass(frozen=True)
class Spec:
    """Shape of one workload's generated inputs."""

    benign: int          # micro packages in the window (first, patch, minor)
    malicious: int       # exfiltrators and harvesters
    clones: int          # verbatim clones of hash-set entries
    rebuilds: int        # flagged first versions that rebuild from git
    evasive: int         # malicious copies with a backtick or a bad byte
    hostile: bool        # the five hostile archives


SPECS = {
    "micro-feed": Spec(benign=560, malicious=18, clones=6, rebuilds=3,
                       evasive=6, hostile=True),
    # A small day next to the 90k-row corpus, so that a round is mostly
    # the write side: label appends, corpus load, retrain, hash and save.
    "triage-retrain": Spec(benign=120, malicious=18, clones=6, rebuilds=2,
                           evasive=0, hostile=False),
}


def iso(ts: float) -> str:
    return datetime.fromtimestamp(ts, tz=timezone.utc).strftime(
        "%Y-%m-%dT%H:%M:%S.%f")[:-3] + "Z"


def import_generators():
    """The shared test builders; fails when src/ or tests/ is absent."""
    for sub in ("src", "tests"):
        path = str(ROOT / sub)
        if path not in sys.path:
            sys.path.insert(0, path)
    import conftest  # noqa: F401  (tests/conftest.py)
    import test_reproduce  # noqa: F401

    return conftest, test_reproduce


# --- registry ----------------------------------------------------------------


class FeedWriter:
    """Adds versions through FixtureRegistryBuilder and records the truth."""

    def __init__(self, conftest, root: Path, rng):
        self.conftest = conftest
        self.builder = conftest.FixtureRegistryBuilder(root / "registry")
        self.root = root
        self.rng = rng
        self.items: list[dict] = []

    def publish_time(self, after: float = 60.0) -> float:
        """A time in the window at least `after` seconds past its start."""
        return DAY + float(self.rng.uniform(after, 86_000.0))

    def add(self, name, version, ts, kind=None, clone_of=None, **kwargs) -> None:
        """Publish a version; one with a `kind` is a window item with a truth."""
        self.builder.add_version(name, version, published=iso(ts), **kwargs)
        if kind is not None:
            self.items.append({"package": name, "version": version, "ts": ts,
                               "kind": kind, "clone_of": clone_of})

    def add_hostile(self, name: str, ts: float, data: bytes, declared: bytes | None = None):
        """Publish `data` as the tarball of a valid-looking document."""
        valid = self.conftest.make_tgz(name=name, version="1.0.0",
                                       files={"index.js": "module.exports = 1;"})
        self.add(name, "1.0.0", ts, kind="hostile", tarball=valid,
                 declared_shasum=hashlib.sha1(declared or data).hexdigest())
        (self.builder.root / f"{name}-1.0.0.tgz").write_bytes(data)


def predecessor_time(rng, ts: float, low: float, high: float) -> float:
    """A predecessor published `low`..`high` seconds earlier, before the window."""
    return ts - float(rng.uniform(max(low, ts - DAY + 60.0), high))


class Release(NamedTuple):
    """A malicious release: its payload file, and the clean version before it."""

    path: str
    files: dict
    scripts: dict | None
    base: dict | None        # clean predecessor's files; None for a first version
    lead: tuple | None       # predecessor published this many seconds earlier


def add_release(feed: FeedWriter, name: str, release: Release, kind: str,
                payload: bytes | None = None) -> None:
    # Late enough that the clean predecessor, if any, is in the window too.
    ts = feed.publish_time(60.0 + release.lead[1] if release.lead else 60.0)
    files = release.files if payload is None else {**release.files, release.path: payload}
    if release.base is None:
        feed.add(name, "1.0.0", ts, kind=kind, files=files, scripts=release.scripts)
        return
    feed.add(name, "1.0.0", ts - float(feed.rng.uniform(*release.lead)),
             kind=BENIGN_KIND, files=release.base)
    feed.add(name, "1.0.1", ts, kind=kind, files=files, scripts=release.scripts)


def add_micro_feed(feed: FeedWriter, spec: Spec, hash_sources: list, test_reproduce) -> None:
    c, rng = feed.conftest, feed.rng
    for i in range(spec.benign):
        name = f"micro-{i:04d}"
        ts = feed.publish_time()
        base = c._benign_module(rng)
        style = i % 3
        if style == 0:
            feed.add(name, "1.0.0", ts, kind=BENIGN_KIND, files=base)
        elif style == 1:
            feed.add(name, "1.0.0", predecessor_time(rng, ts, 2e4, 8e5), files=base)
            feed.add(name, "1.0.1", ts, kind=BENIGN_KIND, files=c._benign_patch(base, rng))
        else:
            feed.add(name, "1.0.0", predecessor_time(rng, ts, 2e4, 5e6), files=base)
            feed.add(name, "1.1.0", ts, kind=BENIGN_KIND,
                     files=c._benign_patch(c._grow(base, rng), rng))

    postinstall = {"postinstall": "node test.js"}
    templates = []
    for i in range(spec.malicious):
        base = c._benign_module(rng)
        style = i % 3
        if style == 0:  # malicious from the first version
            templates.append(Release("test.js", {**base, "test.js": c._exfil_script(rng)},
                                     postinstall, None, None))
        elif style == 1:  # rushed update moments after a clean version
            templates.append(Release("test.js", {**base, "test.js": c._exfil_script(rng)},
                                     postinstall, base, (0.01, 0.9)))
        else:  # harvester injected into a patch
            templates.append(Release("component.js",
                                     {**base, "component.js": c._harvester_script(rng)},
                                     None, base, (1.0, 300.0)))
    for i, template in enumerate(templates):
        add_release(feed, f"mal-{i:03d}", template, "malicious")
    for i in range(spec.evasive):
        template = templates[i % len(templates)]
        payload = template.files[template.path].encode()
        # A trailing unmatched backtick, or one byte that is not UTF-8.
        payload = payload + b"`\n" if i % 2 == 0 else payload[:20] + b"\xff" + payload[20:]
        add_release(feed, f"evasive-{i:03d}", template, "evasive", payload)

    for i in range(spec.clones):
        files = {"index.js": f"module.exports = {i};", "test.js": c._exfil_script(rng)}
        source = (f"known-bad-{i:03d}", "1.0.0")
        algorithm = "md5" if i % 2 == 0 else "blake2b-128"
        hash_sources.append((source, files, postinstall, algorithm))
        feed.add(f"clone-{i:03d}", "2.0.0", feed.publish_time(), kind="clone",
                 clone_of=list(source), files=files, scripts=postinstall)

    for i in range(spec.rebuilds):
        name = f"rebuild-{i:03d}"
        files = {"index.js": "module.exports = 1;", "test.js": c._exfil_script(rng)}
        repo = feed.root / "repos" / name
        url = f"file://{repo}"
        test_reproduce.init_git_repo(repo, {
            "package.json": c.make_manifest("upstream", "1.0.0", postinstall,
                                            {"repository": url}),
            **files,
        }, tag="v1.0.0")
        feed.add(name, "1.0.0", feed.publish_time(), kind="rebuild", files=files,
                 scripts=postinstall, manifest_extra={"repository": url})

    if spec.hostile:
        add_hostile_archives(feed)


def add_hostile_archives(feed: FeedWriter) -> None:
    c = feed.conftest
    corrupt = bytearray(c.make_tgz(name="hostile-corrupt", files={"index.js": "x = 1;"}))
    corrupt[len(corrupt) // 2:] = bytes(len(corrupt) - len(corrupt) // 2)
    feed.add_hostile("hostile-corrupt", feed.publish_time(), bytes(corrupt))

    good = c.make_tgz(name="hostile-integrity", files={"index.js": "x = 2;"})
    feed.add_hostile("hostile-integrity", feed.publish_time(), good,
                     declared=good + b"tampered")

    no_manifest = c.raw_tgz([("package/index.js", b"x = 3;", "file")])
    feed.add_hostile("hostile-no-manifest", feed.publish_time(), no_manifest)

    link = c.raw_tgz([
        ("package/package.json", c.make_manifest("hostile-link", "1.0.0"), "file"),
        ("package/index.js", b"/etc/passwd", "symlink"),
    ])
    feed.add_hostile("hostile-link", feed.publish_time(), link)

    # 4 MiB of zeros: a ratio near 1000:1 that stays small enough to scan.
    ratio = c.make_tgz(name="hostile-ratio", files={
        "index.js": "module.exports = 4;", "assets/blank.bin": bytes(4 << 20),
    })
    feed.add_hostile("hostile-ratio", feed.publish_time(), ratio)


# --- stores ------------------------------------------------------------------


def build_corpus(conftest, path: Path, seed: int):
    """90k labeled rows resampled from a generated pool with fixed per-row jitter."""
    import numpy as np

    from pkgwatch.pipeline import CorpusStore
    from pkgwatch.vectorize import ChangeVector

    pool = conftest.build_training_vectors(100, 300, seed=seed)
    rng = np.random.default_rng(seed + 1)
    picks = rng.integers(0, len(pool), CORPUS_ROWS)
    jitter = rng.uniform(0.9, 1.1, CORPUS_ROWS)
    store = CorpusStore(path)
    for row, (pick, scale) in enumerate(zip(picks, jitter)):
        base = pool[int(pick)]
        store.add_vector(ChangeVector(
            package=f"corpus-{row:05d}", version=base.version, deltas=base.deltas,
            update_type=base.update_type,
            time_since_prev=round(base.time_since_prev * float(scale), 3),
            label=base.label,
        ))
    return pool


def build_models(pool, directory: Path) -> None:
    """Scan-time models: trained on the pool the corpus was resampled from."""
    from pkgwatch.pipeline import CorpusStore, ModelStore, retrain

    path = directory.parent / "pool.jsonl"
    store = CorpusStore(path)
    for vector in pool:
        store.add_vector(vector)
    models, skipped = retrain(store)
    if skipped:
        raise RuntimeError(f"pool did not train every model: {skipped}")
    ModelStore(directory).save(models, store.corpus_hash())
    path.unlink()


def build_hash_set(conftest, path: Path, sources: list, rng) -> None:
    from pkgwatch.clones import ContentDigest, MalwareHashSet, canonical_digest

    hashes = MalwareHashSet(path)
    for (package, version), files, scripts, algorithm in sources:
        artifact = conftest.make_artifact(name=package, version=version,
                                          files=files, scripts=scripts)
        hashes.register(canonical_digest(artifact, algorithm), package, version,
                        date_added="2021-07-01")
    for i in range(HASH_SET_FILLER):
        algorithm = "md5" if i % 2 == 0 else "blake2b-128"
        hashes.register(ContentDigest(rng.bytes(16).hex(), algorithm),
                        f"filler-{i:04d}", "1.0.0", date_added="2021-07-01")


# --- entry point -------------------------------------------------------------


def source_digest() -> str:
    """Digest of everything the reference directory is built from."""
    digest = hashlib.sha256()
    paths = [Path(__file__), ROOT / "tests" / "conftest.py"]
    paths += sorted((ROOT / "src").rglob("*.py"))
    for path in paths:
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def ensure_reference(directory: Path) -> None:
    """Build the seed-independent corpus and models unless already there.

    References built from other source trees are removed, so that only the
    current one stays on disk.
    """
    if (directory / "models" / "manifest.json").is_file():
        return
    conftest, _ = import_generators()
    staging = directory.with_name(f"{directory.name}.tmp-{os.getpid()}")
    staging.mkdir(parents=True)
    pool = build_corpus(conftest, staging / "corpus.jsonl", CORPUS_SEED)
    build_models(pool, staging / "models")
    try:
        staging.rename(directory)
    except OSError:  # another run finished it first
        shutil.rmtree(staging)
    for stale in directory.parent.glob("reference-*"):
        if stale.name != directory.name and "." not in stale.name:
            shutil.rmtree(stale, ignore_errors=True)


def generate(workload: str, seed: int, out: Path) -> dict:
    """Write the seeded inputs of one workload run under `out`; returns the truth."""
    import numpy as np

    conftest, test_reproduce = import_generators()
    spec = SPECS[workload]
    out.mkdir(parents=True, exist_ok=True)
    # Fixed commit dates keep the rebuild repositories' history reproducible.
    for var in ("GIT_AUTHOR_DATE", "GIT_COMMITTER_DATE"):
        os.environ[var] = "2021-07-01T00:00:00Z"

    rng = np.random.default_rng(seed)
    feed = FeedWriter(conftest, out, rng)
    hash_sources: list = []
    add_micro_feed(feed, spec, hash_sources, test_reproduce)
    build_hash_set(conftest, out / "hashes.txt", hash_sources, rng)

    items = sorted(feed.items, key=lambda it: (it["ts"], it["package"], it["version"]))
    truth = {"workload": workload, "seed": seed, "window": list(WINDOW), "items": items}
    (out / "truth.json").write_text(json.dumps(truth, indent=1, sort_keys=True) + "\n")
    return truth


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(SPECS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--reference", type=Path, required=True)
    args = parser.parse_args(argv)
    ensure_reference(args.reference)
    generate(args.workload, args.seed, args.out)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
