"""pkgwatch: flag potentially malicious npm package versions.

Lightweight syntactic features feed three anomaly classifiers; rebuilds
from source clear false positives; canonical content hashing catches
verbatim clones of known malware.
"""

from .artifact import FileEntry, Manifest, PackageArtifact, load_tarball, source_files
from .classifiers import (
    BernoulliNaiveBayes,
    DecisionTreeClassifier,
    LabeledDataset,
    LinearOneClassSvm,
    Metrics,
    cross_validate,
    load_model,
    save_model,
)
from .clones import ContentDigest, MalwareHashSet, canonical_digest, find_clone
from .features import FEATURE_FIELDS, FeatureVector, extract_features, shannon_entropy
from .patterns import DEFAULT_PATTERN_TABLE, PatternRule, PatternTable, load_pattern_table
from .pipeline import CorpusStore, ModelStore, ScanReport, Verdict, retrain, scan
from .registry import FixtureRegistry, HttpRegistry, open_registry
from .reproduce import ReproducePlan, ReproducerConfig, compare_artifacts, make_plan, reproduce
from .vectorize import BENIGN, MALICIOUS, ChangeVector, build_change_vector, encode
from .versioning import SemVer, UpdateType, VersionTimeline, classify_update

__version__ = "0.1.0"

__all__ = [
    "BENIGN",
    "BernoulliNaiveBayes",
    "ChangeVector",
    "ContentDigest",
    "CorpusStore",
    "DEFAULT_PATTERN_TABLE",
    "DecisionTreeClassifier",
    "FEATURE_FIELDS",
    "FeatureVector",
    "FileEntry",
    "FixtureRegistry",
    "HttpRegistry",
    "LabeledDataset",
    "LinearOneClassSvm",
    "MALICIOUS",
    "MalwareHashSet",
    "Manifest",
    "Metrics",
    "ModelStore",
    "PackageArtifact",
    "PatternRule",
    "PatternTable",
    "ReproducePlan",
    "ReproducerConfig",
    "ScanReport",
    "SemVer",
    "UpdateType",
    "Verdict",
    "VersionTimeline",
    "build_change_vector",
    "canonical_digest",
    "classify_update",
    "compare_artifacts",
    "cross_validate",
    "encode",
    "extract_features",
    "find_clone",
    "load_model",
    "load_pattern_table",
    "load_tarball",
    "make_plan",
    "open_registry",
    "reproduce",
    "retrain",
    "save_model",
    "scan",
    "shannon_entropy",
    "source_files",
]
