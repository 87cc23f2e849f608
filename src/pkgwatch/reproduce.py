"""Rebuild flagged packages from their declared source repository.

A successful rebuild whose canonical file set matches the registry artifact's
downgrades a classifier flag; every other outcome leaves the flag alone.
The build runs in a throwaway working directory with a scrubbed
environment, and command lines plus the tail of their output are logged
into the result for auditability.
"""

from __future__ import annotations

import logging
import os
import shutil
import signal
import subprocess
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from .artifact import Manifest, PackageArtifact, load_tarball
from .clones import canonical_file_sequence
from .errors import PkgwatchError

logger = logging.getLogger(__name__)

REPRODUCED = "reproduced"
MISMATCH = "mismatch"
NO_REPO = "no-repo"
REF_NOT_FOUND = "ref-not-found"
BUILD_FAILED = "build-failed"
TIMEOUT = "timeout"
#: Every status `reproduce` returns.
STATUSES = (REPRODUCED, MISMATCH, NO_REPO, REF_NOT_FOUND, BUILD_FAILED, TIMEOUT)

_FETCHABLE_SCHEMES = ("https://", "http://", "git://", "ssh://", "file://")

ADDED = "added"
REMOVED = "removed"
CHANGED = "changed"


@dataclass(frozen=True)
class ReproducerConfig:
    """External tools and build steps; all of it is configuration, not code."""

    git_executable: str = "git"
    install_command: str = "npm install"
    script_command: str = "npm run {script}"
    pack_command: str = "npm pack"
    pack_output: str = "*.tgz"
    build_scripts: tuple[str, ...] = ("prepare", "prepack", "build")
    timeout: float = 300.0

    def __post_init__(self) -> None:
        """ValueError ``<field> must be <what>, got <value>`` for a field no
        rebuild can use; a list of build scripts becomes a tuple."""
        for name, value in vars(self).items():
            if name == "build_scripts":
                expected = "a list of strings"
                valid = isinstance(value, (list, tuple)) and all(isinstance(s, str) for s in value)
            elif name == "timeout":
                expected = "a positive number"
                valid = (isinstance(value, (int, float)) and not isinstance(value, bool)
                         and 0 < value < float("inf"))
            elif name == "script_command":
                expected = "a string that formats with {script} alone"
                try:  # as make_plan formats it
                    valid = isinstance(value.format(script="x"), str)
                except (AttributeError, LookupError, TypeError, ValueError):
                    valid = False
            else:
                expected, valid = "a string", isinstance(value, str)
            if not valid:
                raise ValueError(f"{name} must be {expected}, got {value!r}")
        object.__setattr__(self, "build_scripts", tuple(self.build_scripts))


@dataclass(frozen=True)
class ReproducePlan:
    repo_url: str
    refs: tuple[str, ...]
    build_commands: tuple[str, ...]
    timeout: float

    def __post_init__(self) -> None:
        if not self.refs:
            raise ValueError("plan needs at least one candidate ref")
        if not self.build_commands:
            raise ValueError("plan needs at least one build command")


@dataclass
class ReproduceResult:
    status: str
    diff: list[tuple[str, str]] = field(default_factory=list)
    logs: list[str] = field(default_factory=list)


def normalize_repo_url(url: str) -> str | None:
    """Strip the git+ prefix; None for schemes we cannot fetch."""
    cleaned = url.strip()
    if cleaned.startswith("git+"):
        cleaned = cleaned[4:]
    if cleaned.startswith(_FETCHABLE_SCHEMES):
        return cleaned
    return None


def make_plan(
    manifest: Manifest,
    version: str,
    config: ReproducerConfig = ReproducerConfig(),
) -> ReproducePlan | None:
    """Plan a rebuild, or None when the manifest names no fetchable repo.

    Candidate refs in order: the explicit commit SHA when published with
    one, then the v-prefixed and bare version tags.
    """
    if not manifest.repository_url:
        return None
    repo_url = normalize_repo_url(manifest.repository_url)
    if repo_url is None:
        return None

    refs: list[str] = []
    if manifest.repository_commit:
        refs.append(manifest.repository_commit)
    refs += [f"v{version}", version]

    commands = [config.install_command]
    commands += [
        config.script_command.format(script=s)
        for s in config.build_scripts
        if manifest.scripts.get(s)
    ]
    commands.append(config.pack_command)
    return ReproducePlan(
        repo_url=repo_url,
        refs=tuple(refs),
        build_commands=tuple(commands),
        timeout=config.timeout,
    )


def compare_artifacts(
    a: PackageArtifact, b: PackageArtifact
) -> list[tuple[str, str]]:
    """Canonical file-set diff from a to b: added/removed/changed paths.

    Manifests compare in canonical form (name/version stripped), so the
    diff is empty exactly when the canonical digests agree.
    """
    files_a = dict(canonical_file_sequence(a))
    files_b = dict(canonical_file_sequence(b))
    diff = []
    for path in sorted(set(files_a) | set(files_b)):
        if path not in files_a:
            diff.append((path, ADDED))
        elif path not in files_b:
            diff.append((path, REMOVED))
        elif files_a[path] != files_b[path]:
            diff.append((path, CHANGED))
    return diff


def _scrubbed_env(home: Path) -> dict[str, str]:
    # No inherited credentials: fresh HOME, minimal variables.
    return {
        "PATH": os.environ.get("PATH", "/usr/bin:/bin"),
        "HOME": str(home),
        "LANG": os.environ.get("LANG", "C.UTF-8"),
        "GIT_TERMINAL_PROMPT": "0",
        "NPM_CONFIG_FUND": "false",
        "NPM_CONFIG_AUDIT": "false",
    }


def _run(
    cmd: list[str] | str,
    cwd: Path,
    env: dict[str, str],
    deadline: float,
    logs: list[str],
) -> int:
    """Run one step, a str through the shell and a list without it, in its
    own process group, which is killed when the step exits or times out;
    TimeoutExpired once the monotonic `deadline` has passed. Its stdout and
    stderr go to one temporary file, of which the last 2,000 bytes are logged."""
    shown = cmd if isinstance(cmd, str) else " ".join(cmd)
    logs.append(f"$ {shown}")
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        logs.append("! timed out")
        raise subprocess.TimeoutExpired(cmd, 0)
    with tempfile.TemporaryFile() as output, subprocess.Popen(
            cmd, cwd=str(cwd), env=env, shell=isinstance(cmd, str), stdin=subprocess.DEVNULL,
            stdout=output, stderr=output, start_new_session=True) as proc:
        # A thread's blocking wait wakes at the exit; Popen.wait(timeout)
        # polls, sleeping up to 50 ms between checks.
        waiter = threading.Thread(target=proc.wait)
        waiter.start()
        try:
            waiter.join(timeout)
            if waiter.is_alive():
                logs.append("! timed out")
                raise subprocess.TimeoutExpired(cmd, timeout)
        finally:
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass  # the group is already gone
            waiter.join()
        output.seek(max(0, output.seek(0, os.SEEK_END) - 2000))
        tail = output.read().decode("utf-8", errors="replace").strip()
    if tail:
        logs.append(tail)
    logs.append(f"exit {proc.returncode}")
    return proc.returncode


def reproduce(
    plan: ReproducePlan,
    original: PackageArtifact,
    config: ReproducerConfig = ReproducerConfig(),
) -> ReproduceResult:
    """Clone, check out the first resolvable ref, build, pack, and compare.

    Failures surface as statuses, never exceptions; only a rebuild whose
    canonical file set equals the original's yields REPRODUCED.
    """
    logs: list[str] = []
    sandbox = Path(tempfile.mkdtemp(prefix="pkgwatch-rebuild-"))
    deadline = time.monotonic() + plan.timeout
    try:
        workdir = sandbox / "src"
        env = _scrubbed_env(sandbox)
        git = config.git_executable
        try:
            if _run([git, "clone", "--quiet", plan.repo_url, str(workdir)],
                    sandbox, env, deadline, logs):
                return ReproduceResult(status=NO_REPO, logs=logs)
            if all(_run([git, "checkout", "--quiet", "--detach", ref],
                        workdir, env, deadline, logs) for ref in plan.refs):
                return ReproduceResult(status=REF_NOT_FOUND, logs=logs)
            for command in plan.build_commands:
                if _run(command, workdir, env, deadline, logs):
                    return ReproduceResult(status=BUILD_FAILED, logs=logs)
        except subprocess.TimeoutExpired:
            return ReproduceResult(status=TIMEOUT, logs=logs)

        tarballs = sorted(
            workdir.glob(config.pack_output), key=lambda p: p.stat().st_mtime
        )
        if not tarballs:
            logs.append(f"! no pack output matching {config.pack_output!r}")
            return ReproduceResult(status=BUILD_FAILED, logs=logs)
        try:
            rebuilt = load_tarball(tarballs[-1].read_bytes())
        except PkgwatchError as exc:
            logs.append(f"! pack output unreadable: {exc}")
            return ReproduceResult(status=BUILD_FAILED, logs=logs)

        diff = compare_artifacts(original, rebuilt)
        return ReproduceResult(status=MISMATCH if diff else REPRODUCED, diff=diff, logs=logs)
    finally:
        shutil.rmtree(sandbox, ignore_errors=True)
