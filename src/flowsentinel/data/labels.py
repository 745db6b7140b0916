"""Classification regimes: each mode's class names, and the raw-label -> class-index map."""

from __future__ import annotations

from enum import Enum

import numpy as np

from . import schema


class ClassificationMode(str, Enum):
    BINARY = "binary"
    GROUPED = "grouped"
    MULTI = "multi"

    @property
    def classes(self) -> tuple:
        """The mode's class names in index order, from the shipped label table.

        Binary is the fixed pair (Benign=0, Attack=1); grouped classes (the
        table's families) and multi classes (its raw labels) are sorted
        lexicographically, so indices are stable across runs and platforms.
        """
        if self is ClassificationMode.BINARY:
            return schema.BINARY_CLASSES
        if self is ClassificationMode.GROUPED:
            return tuple(sorted(set(schema.family_map().values())))
        return tuple(sorted(schema.family_map()))


def map_labels(labels, mode: ClassificationMode):
    """Map raw label strings to ``mode``'s class indices, dropping labels
    outside the shipped table.

    Returns (kept row indices, their int64 class indices, dropped count).
    """
    table = schema.family_map()
    if mode is ClassificationMode.BINARY:
        class_of = {raw: int(raw != schema.BENIGN_LABEL) for raw in table}
    else:
        at = {name: i for i, name in enumerate(mode.classes)}
        class_of = {raw: at[family if mode is ClassificationMode.GROUPED else raw]
                    for raw, family in table.items()}
    index = np.fromiter((class_of.get(label, -1) for label in labels),
                        dtype=np.int64, count=len(labels))
    kept = np.flatnonzero(index >= 0)
    return kept, index[kept], len(labels) - kept.size
