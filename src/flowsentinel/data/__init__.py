"""Flow data: one CSV reader (``iter_flows``, block by block) for ingest and
predict, the cell quoting of the CSV writers (``csv_cell``), the cleaning
report, the classification modes (``ClassificationMode``, which names each
mode's classes) and labeling, subsampling, splitting, scaling, and caching
(``write_cache`` and ``read_cache``, the one writer and reader of a cache and
its sidecar)."""

from . import schema
from .cache import read_cache, write_cache
from .ingest import IngestReport, csv_cell, iter_flows, load_csv
from .labels import ClassificationMode, map_labels
from .normalize import FeatureStats, apply_normalizer, fit_normalizer
from .splits import SplitIndices, stratified_split, subsample_indices
from .synthetic import generate_fixture, write_fixture_csv

__all__ = [
    "ClassificationMode",
    "FeatureStats",
    "IngestReport",
    "SplitIndices",
    "apply_normalizer",
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
