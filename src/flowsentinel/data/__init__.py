"""Flow data: one CSV reader (``iter_flows``, block by block) for ingest and
predict, the cell quoting of the CSV writers (``csv_cell``), the cleaning
report, labeling, subsampling, splitting, scaling and caching."""

from . import schema
from .cache import read_cache, write_cache
from .ingest import IngestReport, csv_cell, iter_flows, load_csv
from .labels import ClassificationMode, LabelVocabulary, build_vocabulary, map_labels
from .normalize import FeatureStats, apply_normalizer, fit_normalizer
from .splits import SplitIndices, stratified_split, subsample_indices
from .synthetic import generate_fixture, write_fixture_csv

__all__ = [
    "ClassificationMode",
    "FeatureStats",
    "IngestReport",
    "LabelVocabulary",
    "SplitIndices",
    "apply_normalizer",
    "build_vocabulary",
    "csv_cell",
    "fit_normalizer",
    "generate_fixture",
    "iter_flows",
    "load_csv",
    "map_labels",
    "read_cache",
    "schema",
    "stratified_split",
    "subsample_indices",
    "write_cache",
    "write_fixture_csv",
]
