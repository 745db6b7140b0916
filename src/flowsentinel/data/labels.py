"""Classification regimes and the raw-label -> class-index vocabulary."""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import schema


class ClassificationMode(str, Enum):
    BINARY = "binary"
    GROUPED = "grouped"
    MULTI = "multi"

    @property
    def class_count(self) -> int:
        return len(build_vocabulary(self).classes)


@dataclass(frozen=True)
class LabelVocabulary:
    classes: tuple  # class names, index order
    raw_to_class: dict  # raw label string -> class index


def build_vocabulary(mode: ClassificationMode) -> LabelVocabulary:
    """Vocabulary for one regime, from the shipped canonical label table.

    Binary is the fixed pair (Benign=0, Attack=1); grouped and multi classes
    are sorted lexicographically so indices are stable across runs and
    platforms. Labels outside the canonical table are dropped at mapping
    time, not at vocabulary construction.
    """
    fam = schema.family_map()
    if mode is ClassificationMode.BINARY:
        classes = schema.BINARY_CLASSES
        raw_to_class = {raw: (0 if raw == schema.BENIGN_LABEL else 1) for raw in fam}
    elif mode is ClassificationMode.GROUPED:
        classes = tuple(schema.attack_families())
        index = {name: i for i, name in enumerate(classes)}
        raw_to_class = {raw: index[family] for raw, family in fam.items()}
    else:
        classes = tuple(schema.raw_labels())
        index = {name: i for i, name in enumerate(classes)}
        raw_to_class = {raw: index[raw] for raw in fam}
    return LabelVocabulary(classes=classes, raw_to_class=raw_to_class)


def map_labels(labels, vocab: LabelVocabulary):
    """Map raw label strings to class indices, dropping labels with no class.

    Returns (kept row indices, their int64 class indices, dropped count).
    """
    raw_to_class = vocab.raw_to_class
    index = np.fromiter((raw_to_class.get(label, -1) for label in labels),
                        dtype=np.int64, count=len(labels))
    kept = np.flatnonzero(index >= 0)
    return kept, index[kept], len(labels) - kept.size
