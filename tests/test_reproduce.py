import os
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import pytest

from conftest import PACK, make_manifest, make_tgz
from pkgwatch.artifact import load_tarball
from pkgwatch.reproduce import (
    ADDED,
    BUILD_FAILED,
    CHANGED,
    MISMATCH,
    NO_REPO,
    REF_NOT_FOUND,
    REMOVED,
    REPRODUCED,
    TIMEOUT,
    ReproducePlan,
    ReproducerConfig,
    _run,
    compare_artifacts,
    make_plan,
    normalize_repo_url,
    reproduce,
)

FIXTURE_CONFIG = ReproducerConfig(
    install_command="true",
    pack_command=PACK,
    build_scripts=(),
    timeout=60.0,
)


def manifest_of(**kwargs):
    return load_tarball(make_tgz(**kwargs)).manifest


# --- planning ---

def test_no_repository_means_no_plan():
    assert make_plan(manifest_of(), "1.0.0") is None


def test_unfetchable_scheme_means_no_plan():
    m = manifest_of(manifest_extra={"repository": "github:user/repo"})
    assert make_plan(m, "1.0.0") is None


def test_ref_order_without_sha():
    m = manifest_of(manifest_extra={"repository": "https://host/org/pkg.git"})
    plan = make_plan(m, "1.2.3")
    assert plan.refs == ("v1.2.3", "1.2.3")


def test_explicit_commit_sha_first():
    m = manifest_of(manifest_extra={
        "repository": "https://host/org/pkg.git",
        "gitHead": "deadbeef",
    })
    plan = make_plan(m, "1.2.3")
    assert plan.refs == ("deadbeef", "v1.2.3", "1.2.3")


def test_git_plus_prefix_normalized():
    assert normalize_repo_url("git+https://h/r.git") == "https://h/r.git"
    assert normalize_repo_url("file:///tmp/repo") == "file:///tmp/repo"
    assert normalize_repo_url("github:u/r") is None


def test_plan_includes_declared_build_scripts():
    m = manifest_of(scripts={"build": "tsc", "prepare": "husky"})
    assert make_plan(m, "1.0.0") is None  # no repository declared

    m = manifest_of(scripts={"build": "tsc"},
                    manifest_extra={"repository": "https://h/r.git"})
    plan = make_plan(m, "1.0.0")
    assert plan.build_commands == ("npm install", "npm run build", "npm pack")


def test_plan_validation():
    with pytest.raises(ValueError):
        ReproducePlan(repo_url="x", refs=(), build_commands=("b",), timeout=1)
    with pytest.raises(ValueError):
        ReproducePlan(repo_url="x", refs=("r",), build_commands=(), timeout=1)


# --- artifact diffing ---

def test_compare_identical():
    a = load_tarball(make_tgz(files={"x.js": "1"}))
    b = load_tarball(make_tgz(name="other", version="2.0.0", files={"x.js": "1"}))
    assert compare_artifacts(a, b) == []


def test_compare_added_file():
    a = load_tarball(make_tgz(files={"x.js": "1"}))
    b = load_tarball(make_tgz(files={"x.js": "1", "evil.js": "boom"}))
    assert compare_artifacts(a, b) == [("evil.js", ADDED)]


def test_compare_removed_and_changed():
    a = load_tarball(make_tgz(files={"x.js": "1", "y.js": "2"}))
    b = load_tarball(make_tgz(files={"x.js": "CHANGED"}))
    assert compare_artifacts(a, b) == [("x.js", CHANGED), ("y.js", REMOVED)]


def test_compare_manifest_canonical():
    a = load_tarball(make_tgz(scripts={"postinstall": "node x"}))
    b = load_tarball(make_tgz(name="o", version="9.9.9"))
    assert compare_artifacts(a, b) == [("package.json", CHANGED)]


# --- full rebuild flow (real git fixtures) ---

def init_git_repo(path, files: dict[str, bytes | str], tag: str) -> str:
    path.mkdir(parents=True)
    for rel, content in files.items():
        target = path / rel
        target.parent.mkdir(parents=True, exist_ok=True)
        data = content.encode() if isinstance(content, str) else content
        target.write_bytes(data)
    run = lambda *args: subprocess.run(
        ["git", "-c", "user.name=t", "-c", "user.email=t@invalid", *args],
        cwd=path, check=True, capture_output=True,
    )
    run("init", "-q")
    run("add", ".")
    run("commit", "-q", "-m", "release")
    run("tag", tag)
    return f"file://{path}"


def repo_manifest(version: str = "1.2.3") -> bytes:
    return make_manifest("upstream-name", version,
                         extra={"repository": "https://example.invalid/r.git"})


def test_reproduced_when_content_matches(tmp_path):
    source = {"package.json": repo_manifest(), "index.js": "module.exports = 7;\n"}
    url = init_git_repo(tmp_path / "repo", source, tag="v1.2.3")

    registry_tarball = make_tgz(
        name="registry-name", version="1.2.3",
        files={"index.js": "module.exports = 7;\n"},
        manifest_extra={"repository": "https://example.invalid/r.git"},
    )
    original = load_tarball(registry_tarball)
    plan = ReproducePlan(url, ("v1.2.3", "1.2.3"), ("true", PACK), timeout=60.0)
    result = reproduce(plan, original, FIXTURE_CONFIG)
    assert result.status == REPRODUCED, result.logs
    assert result.diff == []


def test_mismatch_lists_injected_file(tmp_path):
    source = {"package.json": repo_manifest(), "index.js": "ok\n"}
    url = init_git_repo(tmp_path / "repo", source, tag="v1.2.3")

    original = load_tarball(make_tgz(
        name="x", version="1.2.3",
        files={"index.js": "ok\n", "stealer.js": "exfil()"},
        manifest_extra={"repository": "https://example.invalid/r.git"},
    ))
    plan = ReproducePlan(url, ("v1.2.3",), ("true", PACK), timeout=60.0)
    result = reproduce(plan, original, FIXTURE_CONFIG)
    assert result.status == MISMATCH, result.logs
    assert ("stealer.js", "removed") in result.diff  # rebuilt lacks it


def test_unreachable_repo(tmp_path):
    plan = ReproducePlan(f"file://{tmp_path}/nope", ("v1.0.0",), ("true",), 30.0)
    original = load_tarball(make_tgz())
    result = reproduce(plan, original, FIXTURE_CONFIG)
    assert result.status == NO_REPO


def test_ref_not_found(tmp_path):
    url = init_git_repo(tmp_path / "repo",
                        {"package.json": repo_manifest()}, tag="v1.0.0")
    plan = ReproducePlan(url, ("v9.9.9", "9.9.9"), ("true", PACK), 30.0)
    result = reproduce(plan, load_tarball(make_tgz()), FIXTURE_CONFIG)
    assert result.status == REF_NOT_FOUND


def test_build_failure(tmp_path):
    url = init_git_repo(tmp_path / "repo",
                        {"package.json": repo_manifest()}, tag="v1.0.0")
    plan = ReproducePlan(url, ("v1.0.0",), ("exit 3",), 30.0)
    result = reproduce(plan, load_tarball(make_tgz()), FIXTURE_CONFIG)
    assert result.status == BUILD_FAILED
    assert any("exit 3" in line for line in result.logs)


def test_timeout(tmp_path):
    url = init_git_repo(tmp_path / "repo",
                        {"package.json": repo_manifest()}, tag="v1.0.0")
    plan = ReproducePlan(url, ("v1.0.0",), ("sleep 30",), timeout=2.0)
    result = reproduce(plan, load_tarball(make_tgz()), FIXTURE_CONFIG)
    assert result.status == TIMEOUT


def test_missing_pack_output(tmp_path):
    url = init_git_repo(tmp_path / "repo",
                        {"package.json": repo_manifest()}, tag="v1.0.0")
    plan = ReproducePlan(url, ("v1.0.0",), ("true",), 30.0)
    result = reproduce(plan, load_tarball(make_tgz()), FIXTURE_CONFIG)
    assert result.status == BUILD_FAILED


def test_commands_logged_verbatim(tmp_path):
    url = init_git_repo(tmp_path / "repo",
                        {"package.json": repo_manifest()}, tag="v1.0.0")
    plan = ReproducePlan(url, ("v1.0.0",), ("echo building", PACK), 30.0)
    result = reproduce(plan, load_tarball(make_tgz()), FIXTURE_CONFIG)
    assert any(line == "$ echo building" for line in result.logs)
    assert f"$ {PACK}" in result.logs
    assert result.status != BUILD_FAILED, result.logs


def _gone_or_zombie(pid: int, wait: float = 2.0) -> bool:
    """True once `pid` has exited: SIGKILL lands asynchronously, so allow
    it `wait` seconds, far less than the 30 s the sleepers below ask for."""
    stop = time.monotonic() + wait
    while True:
        try:
            stat = Path(f"/proc/{pid}/stat").read_text()
        except FileNotFoundError:
            return True
        if stat.rsplit(")", 1)[1].split()[0] == "Z":
            return True
        if time.monotonic() > stop:
            return False
        time.sleep(0.02)


@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="needs /proc")
@pytest.mark.parametrize("command, status", [
    ("sleep 30 & echo $! > {pid}; wait", TIMEOUT),
    ("sleep 30 > /dev/null 2>&1 & echo $! > {pid}", BUILD_FAILED),
], ids=["timed-out", "exited"])
def test_no_step_child_outlives_reproduce(tmp_path, command, status):
    url = init_git_repo(tmp_path / "repo",
                        {"package.json": repo_manifest()}, tag="v1.0.0")
    pid_file = tmp_path / "pid"
    plan = ReproducePlan(url, ("v1.0.0",), (command.format(pid=pid_file),),
                         timeout=2.0 if status == TIMEOUT else 30.0)
    result = reproduce(plan, load_tarball(make_tgz()), FIXTURE_CONFIG)
    assert result.status == status, result.logs
    assert _gone_or_zombie(int(pid_file.read_text()))


def test_no_step_starts_after_the_deadline(tmp_path, monkeypatch):
    def start(*args, **kwargs):
        raise AssertionError("a step started after the deadline")

    monkeypatch.setattr(subprocess, "Popen", start)
    logs = []
    with pytest.raises(subprocess.TimeoutExpired):
        _run("true", tmp_path, {}, time.monotonic(), logs)
    assert logs == ["$ true", "! timed out"]


def test_step_output_costs_no_memory(tmp_path):
    # In a fresh interpreter, whose peak RSS is then the one `_run` reached.
    script = textwrap.dedent("""
        import resource, sys, time
        from pathlib import Path
        from pkgwatch.reproduce import _run
        before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        logs = []
        _run("yes 0123456789 | head -c 50000000", Path(sys.argv[1]), {"PATH": "/usr/bin:/bin"},
             time.monotonic() + 60, logs)
        grown = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before
        print(grown, len(logs[1]))
    """)
    src = Path(__file__).resolve().parents[1] / "src"
    out = subprocess.run([sys.executable, "-c", script, str(tmp_path)], check=True,
                         capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(src)})
    grown_kb, logged = map(int, out.stdout.split())
    assert grown_kb < 20_000
    assert logged <= 2000


def test_output_that_is_not_utf8_is_logged_with_replacements(tmp_path):
    url = init_git_repo(tmp_path / "repo", {"package.json": repo_manifest()}, tag="v1.0.0")
    plan = ReproducePlan(url, ("v1.0.0",), ("printf 'a\\377b'", "exit 3"), 30.0)
    result = reproduce(plan, load_tarball(make_tgz()), FIXTURE_CONFIG)
    assert result.status == BUILD_FAILED
    assert "a\ufffdb" in result.logs
