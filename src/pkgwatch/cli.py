"""Command-line interface for the scan/triage/retrain workflow.

Exit codes: 0 clean, 1 flags present, 2 operational error.
"""

from __future__ import annotations

import json
import logging
import sys
from dataclasses import dataclass, fields
from pathlib import Path

import click

from .artifact import load_tarball
from .classifiers import MODEL_IDS, LabeledDataset, calibrate_nu, cross_validate
from .clones import MalwareHashSet, canonical_digest, find_clone
from .errors import PkgwatchError
from .features import extract_features
from .patterns import DEFAULT_PATTERN_TABLE, load_pattern_table
from .pipeline import (
    FLAGGED,
    CorpusStore,
    ModelStore,
    ScanReport,
    label as triage_label,
    record_scan,
    retrain as retrain_models,
    scan as run_scan,
)
from .registry import FixtureRegistry, open_registry
from .reproduce import ReproducerConfig, make_plan, reproduce as run_reproduce
from .versioning import parse_iso8601

logger = logging.getLogger(__name__)


@dataclass
class Settings:
    registry_spec: str | None
    models_dir: str
    corpus_path: str
    hashes_path: str
    pattern_table_path: str | None
    seed: int
    jobs: int

    def registry(self):
        if not self.registry_spec:
            raise click.UsageError("--registry is required for this command")
        return open_registry(self.registry_spec)

    def pattern_table(self):
        if self.pattern_table_path:
            return load_pattern_table(self.pattern_table_path)
        return DEFAULT_PATTERN_TABLE

    def model_store(self) -> ModelStore:
        return ModelStore(self.models_dir)

    def corpus(self) -> CorpusStore:
        return CorpusStore(self.corpus_path)

    def hashes(self) -> MalwareHashSet:
        return MalwareHashSet(self.hashes_path)


def parse_spec(spec: str) -> tuple[str, str]:
    """Split name@version, honoring scoped names like @scope/pkg@1.0.0."""
    name, sep, version = spec.rpartition("@")
    if not sep or not name or not version:
        raise click.UsageError(f"expected name@version, got {spec!r}")
    return name, version


_CONFIG_KEYS = frozenset(f.name for f in fields(ReproducerConfig))


def _reproducer_config(build_config: str | None, no_reproduce: bool) -> ReproducerConfig | None:
    if no_reproduce:
        return None
    if build_config is None:
        return ReproducerConfig()
    try:
        doc = json.loads(Path(build_config).read_text(encoding="utf-8"))
        if not isinstance(doc, dict):
            raise ValueError("build config must be a JSON object")
        for key in doc:
            if key not in _CONFIG_KEYS:
                raise ValueError(f"unknown key {key!r}")
        return ReproducerConfig(**doc)
    except (ValueError, RecursionError) as exc:
        raise ValueError(f"{build_config}: {exc}") from exc


@click.group()
@click.option("--registry", "registry_spec", default=None,
              help="Registry URL or fixture directory.")
@click.option("--models", "models_dir", default="models",
              help="Directory holding trained model files.")
@click.option("--corpus", "corpus_path", default="corpus.jsonl",
              help="Corpus store (append-only change-vector log).")
@click.option("--hashes", "hashes_path", default="malware-hashes.txt",
              help="Known-malware hash list (append-only).")
@click.option("--pattern-table", "pattern_table_path", default=None,
              help="JSON pattern-table overriding the built-in rules.")
@click.option("--seed", default=0, show_default=True, help="RNG seed.")
@click.option("--jobs", type=click.IntRange(min=1), default=1, show_default=True,
              help="Scan worker processes, forked and capped at the usable cores "
                   "(POSIX); 1 scans in this process.")
@click.option("-v", "--verbose", is_flag=True, help="Debug logging.")
@click.pass_context
def cli(ctx, registry_spec, models_dir, corpus_path, hashes_path,
        pattern_table_path, seed, jobs, verbose):
    """Detect potentially malicious npm package versions."""
    logging.basicConfig(format="%(levelname)s %(name)s: %(message)s")
    logging.getLogger().setLevel(logging.DEBUG if verbose else logging.WARNING)
    ctx.obj = Settings(
        registry_spec=registry_spec,
        models_dir=models_dir,
        corpus_path=corpus_path,
        hashes_path=hashes_path,
        pattern_table_path=pattern_table_path,
        seed=seed,
        jobs=jobs,
    )


@cli.command()
@click.argument("specs", nargs=-1)
@click.option("--batch", "batch_file", default=None,
              help="File with one name@version per line.")
@click.option("--since", default=None, help="Window start (ISO-8601 or epoch).")
@click.option("--until", default=None, help="Window end (ISO-8601 or epoch).")
@click.option("--out", "out_path", default=None, help="Write the report here.")
@click.option("--build-config", default=None,
              help="JSON file with reproducer settings (commands, timeout).")
@click.option("--no-reproduce", is_flag=True, help="Skip the rebuild stage.")
@click.option("--no-record", is_flag=True,
              help="Do not persist scanned vectors into the corpus.")
@click.pass_obj
def scan(settings: Settings, specs, batch_file, since, until, out_path,
         build_config, no_reproduce, no_record):
    """Scan package versions and report verdicts."""
    registry = settings.registry()
    batch = [parse_spec(s) for s in specs]
    if batch_file:
        lines = Path(batch_file).read_text(encoding="utf-8").splitlines()
        batch += [parse_spec(line.strip()) for line in lines if line.strip()]
    if since is not None or until is not None:
        if since is None or until is None:
            raise click.UsageError("--since and --until go together")
        if not isinstance(registry, FixtureRegistry):
            # Over HTTP a window needs package names, and the CLI takes none.
            raise click.UsageError(
                "--since/--until needs a fixture registry; over HTTP pass "
                "name@version specs or --batch"
            )
        window = registry.list_new_versions(_as_epoch(since), _as_epoch(until))
        batch += [(name, version) for name, version, _ in window]
    if not batch:
        raise click.UsageError("nothing to scan: pass specs, --batch, or a window")

    models = settings.model_store().load()
    hash_set = settings.hashes()
    outcome = run_scan(
        registry, batch, models, hash_set,
        pattern_table=settings.pattern_table(),
        reproducer_config=_reproducer_config(build_config, no_reproduce),
        jobs=settings.jobs,
    )
    if not no_record:
        record_scan(settings.corpus(), outcome)

    report = ScanReport(outcome.verdicts)
    if out_path:
        report.write(out_path)
    click.echo(report.render_text())
    if any(v.final == FLAGGED for v in outcome.verdicts):
        raise SystemExit(1)


def _as_epoch(text: str) -> float:
    try:
        return float(text)
    except ValueError:
        return parse_iso8601(text)


@cli.command()
@click.argument("spec", required=False)
@click.option("--tarball", default=None, help="Local .tgz instead of a registry fetch.")
@click.pass_obj
def extract(settings: Settings, spec, tarball):
    """Print the feature vector of one package version."""
    artifact = _resolve_artifact(settings, spec, tarball)
    features = extract_features(artifact, settings.pattern_table())
    click.echo(json.dumps(
        {"package": artifact.name, "version": artifact.version,
         **{k: v for k, v in zip(
             features.__dataclass_fields__, features.as_tuple())}},
        indent=1,
    ))


def _resolve_artifact(settings: Settings, spec, tarball):
    if tarball:
        return load_tarball(Path(tarball).read_bytes())
    if not spec:
        raise click.UsageError("pass name@version or --tarball")
    return _fetch_artifact(settings, *parse_spec(spec))


def _fetch_artifact(settings: Settings, name: str, version: str):
    registry = settings.registry()
    dist = registry.fetch_document(name).dist.get(version)
    return load_tarball(registry.fetch_tarball(name, version, dist))


@cli.command()
@click.option("--nu", default=0.001, show_default=True)
@click.pass_obj
def train(settings: Settings, nu):
    """Train all models on the labeled corpus and persist them."""
    _train(settings, assume_unflagged_benign=False, nu=nu)


@cli.command()
@click.option("--assume-unflagged-benign", is_flag=True,
              help="Let unlabeled scanned versions count as benign.")
@click.option("--nu", default=0.001, show_default=True)
@click.pass_obj
def retrain(settings: Settings, assume_unflagged_benign, nu):
    """Retrain on the corpus including triaged scan results."""
    _train(settings, assume_unflagged_benign=assume_unflagged_benign, nu=nu)


def _train(settings: Settings, assume_unflagged_benign: bool, nu: float):
    corpus = settings.corpus()
    models, skipped = retrain_models(
        corpus, assume_unflagged_benign=assume_unflagged_benign, nu=nu
    )
    for model_id, reason in skipped.items():
        click.echo(f"skipped {model_id}: {reason}", err=True)
    store = settings.model_store()
    version = store.save(models, corpus.corpus_hash(assume_unflagged_benign))
    click.echo(f"saved {sorted(models)} as version {version} in {store.directory}")


@cli.command()
@click.argument("spec")
@click.pass_obj
def predict(settings: Settings, spec):
    """Classify one package version with all models."""
    name, version = parse_spec(spec)
    registry = settings.registry()
    models = settings.model_store().load()
    hash_set = settings.hashes()
    outcome = run_scan(
        registry, [(name, version)], models, hash_set,
        pattern_table=settings.pattern_table(),
        reproducer_config=None,
    )
    verdict = outcome.verdicts[0]
    click.echo(json.dumps(verdict.to_record(), indent=1, sort_keys=True))
    if verdict.error:
        raise SystemExit(2)
    if verdict.final == FLAGGED:
        raise SystemExit(1)


@cli.command(name="label")
@click.argument("package")
@click.argument("version")
@click.argument("triage", type=click.Choice(["true-positive", "false-positive"]))
@click.pass_obj
def label_cmd(settings: Settings, package, version, triage):
    """Record a triage decision for a scanned version."""
    entry = triage_label(settings.corpus(), settings.hashes(), package, version, triage)
    click.echo(f"{package}@{version} labeled {entry.vector.label}")


@cli.command(name="clone-check")
@click.argument("spec", required=False)
@click.option("--tarball", default=None)
@click.pass_obj
def clone_check(settings: Settings, spec, tarball):
    """Match one package version against the known-malware hash set."""
    artifact = _resolve_artifact(settings, spec, tarball)
    digest = canonical_digest(artifact)
    match = find_clone(artifact, settings.hashes(), known=digest)
    if match is None:
        click.echo(f"no clone match ({digest})")
    else:
        click.echo(
            f"clone of {match.package}@{match.version} "
            f"(added {match.date_added}; {digest})"
        )
        raise SystemExit(1)


@cli.command(name="reproduce")
@click.argument("spec")
@click.option("--build-config", default=None)
@click.pass_obj
def reproduce_cmd(settings: Settings, spec, build_config):
    """Rebuild one package version from its declared repository."""
    name, version = parse_spec(spec)
    artifact = _fetch_artifact(settings, name, version)
    config = _reproducer_config(build_config, no_reproduce=False)
    plan = make_plan(artifact.manifest, version, config)
    if plan is None:
        click.echo("no fetchable repository declared; nothing to rebuild")
        return
    result = run_reproduce(plan, artifact, config)
    click.echo(f"status: {result.status}")
    for path, kind in result.diff:
        click.echo(f"  {kind}: {path}")
    for line in result.logs:
        click.echo(f"  | {line}")


@cli.command(name="cross-validate")
@click.option("--k", default=10, show_default=True)
@click.option("--nu", default=0.001, show_default=True)
@click.pass_obj
def cross_validate_cmd(settings: Settings, k, nu):
    """Stratified k-fold cross-validation on the labeled corpus."""
    data = _labeled_dataset(settings)
    results = cross_validate(data, k=k, seed=settings.seed, nu=nu)
    for model_id in MODEL_IDS:
        r = results[model_id]
        click.echo(
            f"{model_id}: precision={r.precision:.3f} recall={r.recall:.3f} "
            f"(tp={r.totals.tp} fp={r.totals.fp} tn={r.totals.tn} fn={r.totals.fn})"
        )


@cli.command(name="calibrate-nu")
@click.option("--grid", default="0.0005,0.001,0.005,0.01,0.05,0.1",
              show_default=True, help="Comma-separated nu values.")
@click.option("--k", default=10, show_default=True)
@click.pass_obj
def calibrate_nu_cmd(settings: Settings, grid, k):
    """Sweep the SVM nu parameter and report precision/recall per value."""
    data = _labeled_dataset(settings)
    nus = tuple(float(x) for x in grid.split(","))
    for nu, result in calibrate_nu(data, nus=nus, k=k, seed=settings.seed):
        click.echo(
            f"nu={nu:g}: precision={result.precision:.3f} recall={result.recall:.3f}"
        )


def _labeled_dataset(settings: Settings) -> LabeledDataset:
    data = settings.corpus().training_set()
    if not len(data.labels):
        raise click.UsageError("corpus has no labeled vectors")
    return data


@cli.command(name="report")
@click.argument("report_file")
def report_cmd(report_file):
    """Summarize a previously written scan report."""
    click.echo(ScanReport.read(report_file).render_text())


@cli.group()
def hashes():
    """Import/export the known-malware hash list."""


@hashes.command(name="import")
@click.argument("source")
@click.pass_obj
def hashes_import(settings: Settings, source):
    """Merge entries from another hash list file."""
    target = settings.hashes()
    incoming = MalwareHashSet(source)
    added = sum(
        target.register(digest, p.package, p.version, p.date_added)
        for digest, p in incoming.entries()
    )
    click.echo(f"imported {added} new digests ({len(incoming)} read)")


@hashes.command(name="export")
@click.argument("destination")
@click.pass_obj
def hashes_export(settings: Settings, destination):
    """Write the current hash list to a file."""
    out = MalwareHashSet(destination)
    count = sum(
        out.register(digest, p.package, p.version, p.date_added)
        for digest, p in settings.hashes().entries()
    )
    click.echo(f"exported {count} digests to {destination}")


def main(argv: list[str] | None = None) -> None:
    try:
        cli.main(args=argv, standalone_mode=False)
    except click.ClickException as exc:
        exc.show()
        sys.exit(2)
    except click.exceptions.Abort:
        sys.exit(2)
    except SystemExit:
        raise
    except (PkgwatchError, OSError, ValueError) as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(2)
    except Exception as exc:  # a crash must not exit 1, "flags present"
        logger.debug("unexpected error", exc_info=True)
        click.echo(f"error: {type(exc).__name__}: {exc}", err=True)
        sys.exit(2)


if __name__ == "__main__":
    main()
