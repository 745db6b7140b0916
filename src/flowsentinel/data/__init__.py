"""Flow-record ingestion, labeling, splitting, scaling, and caching."""

from . import schema
from .cache import meta_path, read_cache, write_cache
from .ingest import FlowRecord, IngestReport, load_csv
from .labels import ClassificationMode, LabelVocabulary, build_vocabulary, map_labels
from .normalize import FeatureStats, apply_normalizer, fit_normalizer
from .splits import SplitIndices, stratified_split, subsample_indices
from .synthetic import generate_fixture, write_fixture_csv

__all__ = [
    "ClassificationMode",
    "FeatureStats",
    "FlowRecord",
    "IngestReport",
    "LabelVocabulary",
    "SplitIndices",
    "apply_normalizer",
    "build_vocabulary",
    "fit_normalizer",
    "generate_fixture",
    "load_csv",
    "map_labels",
    "meta_path",
    "read_cache",
    "schema",
    "stratified_split",
    "subsample_indices",
    "write_cache",
    "write_fixture_csv",
]
