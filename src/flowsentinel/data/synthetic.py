"""Seeded synthetic flow-record fixture.

The real corpus is a multi-gigabyte download, so CI and the examples run on
a generated stand-in: ~5,000 rows covering all 34 classes with a skew that
mimics the original (flood traffic dominates, web attacks are rare, every
class keeps at least ~20 rows so stratified splitting stays valid).

Each class gets a signature over the 20 canonical features: per feature one
of three well-separated levels in signal space, drawn from a fixed-seed
stream and kept only if every class pair differs on at least 8 features.
Rows are the class signature plus Gaussian noise, mapped into plausible
physical ranges per feature. The 26 non-canonical features are
uninformative noise.
"""

from __future__ import annotations

import csv

import numpy as np

from ..features import canonical_top20
from ..rng import Rng
from . import schema
from .ingest import csv_cell
from .labels import ClassificationMode

# rows write_fixture_csv formats at once: its peak RSS stays below the
# generator's at 256, and rose above it at 512 and 1,024 (30,000 rows)
WRITE_CHUNK_ROWS = 256

# The fewest rows generate_fixture accepts. Below it the 34 classes' rounded
# shares, at least 2 rows each, can take more rows than there are (at 171 and
# 199, and at every value up to 168); from 200 up they always fit.
MIN_ROWS = 200

# Relative class weights (percent-ish). Floods dominate; rare families sit
# near the floor that keeps ~20 rows per class at the 5,000-row default.
_CLASS_WEIGHTS = {
    "DDoS-ICMP_Flood": 9.0,
    "DDoS-UDP_Flood": 8.5,
    "DDoS-TCP_Flood": 8.0,
    "DDoS-PSHACK_Flood": 7.5,
    "DDoS-SYN_Flood": 7.0,
    "DDoS-RSTFINFlood": 6.5,
    "DDoS-SynonymousIP_Flood": 6.0,
    "DDoS-ICMP_Fragmentation": 5.5,
    "DDoS-UDP_Fragmentation": 3.0,
    "DDoS-ACK_Fragmentation": 2.5,
    "DDoS-HTTP_Flood": 2.0,
    "DDoS-SlowLoris": 1.5,
    "DoS-UDP_Flood": 4.5,
    "DoS-TCP_Flood": 4.0,
    "DoS-SYN_Flood": 3.5,
    "DoS-HTTP_Flood": 3.0,
    "Mirai-greeth_flood": 2.5,
    "Mirai-udpplain": 2.0,
    "Mirai-greip_flood": 1.8,
    "BenignTraffic": 6.0,
    "MITM-ArpSpoofing": 1.2,
    "DNS_Spoofing": 1.0,
    "Recon-HostDiscovery": 0.6,
    "Recon-OSScan": 0.55,
    "Recon-PortScan": 0.5,
    "Recon-PingSweep": 0.45,
    "VulnerabilityScan": 0.45,
    "DictionaryBruteForce": 0.45,
    "BrowserHijacking": 0.45,
    "Backdoor_Malware": 0.45,
    "XSS": 0.45,
    "Uploading_Attack": 0.45,
    "SqlInjection": 0.45,
    "CommandInjection": 0.45,
}

# Plausible physical ranges for the informative features; everything else
# draws noise from a generic positive range.
_FEATURE_RANGES = {
    "Srate": (0.0, 9000.0),
    "Rate": (0.0, 10000.0),
    "Duration": (0.0, 255.0),
    "syn_count": (0.0, 12.0),
    "Weight": (38.0, 250.0),
    "ack_flag_number": (0.0, 1.0),
    "Number": (2.0, 15.0),
    "Header_Length": (0.0, 80000.0),
    "flow_duration": (0.0, 120.0),
    "Max": (42.0, 1500.0),
    "HTTP": (0.0, 1.0),
    "Protocol Type": (0.0, 17.0),
    "urg_count": (0.0, 300.0),
    "ack_count": (0.0, 10.0),
    "syn_flag_number": (0.0, 1.0),
    "rst_count": (0.0, 8000.0),
    "UDP": (0.0, 1.0),
    "fin_count": (0.0, 5.0),
    "Variance": (0.0, 2500.0),
    "IAT": (0.0, 1.7e8),
}

_LEVELS = np.array([0.1, 0.5, 0.9])
_NOISE_SIGMA = 0.02
_MIN_DIFFERING_FEATURES = 8
_TAIL_WINDOW = 10
_MIN_DIFFERING_TAIL = 5
_SIGNATURE_SEED = 0x5EED_F00D


def class_signatures(class_names) -> np.ndarray:
    """[n_classes, 20] signal-space signatures with guaranteed separation.

    Codes are drawn per class from a fixed-seed stream and redrawn until they
    differ from every accepted code on at least ``_MIN_DIFFERING_FEATURES``
    positions overall and ``_MIN_DIFFERING_TAIL`` of the last ``_TAIL_WINDOW``
    positions. The tail constraint keeps classes distinguishable from the end
    of the feature sequence as well as the start, so neither input framing
    (signal vs. sequence) is starved of signal.
    """
    rng = Rng(_SIGNATURE_SEED)
    codes = []
    for _ in class_names:
        while True:
            candidate = rng.integers(len(_LEVELS), 20)
            ok = all(
                int(np.sum(candidate != got)) >= _MIN_DIFFERING_FEATURES
                and int(np.sum(candidate[-_TAIL_WINDOW:] != got[-_TAIL_WINDOW:])) >= _MIN_DIFFERING_TAIL
                for got in codes
            )
            if ok:
                codes.append(candidate)
                break
    return _LEVELS[np.stack(codes)]


def _class_counts(rows: int) -> dict:
    names = sorted(_CLASS_WEIGHTS)
    total_weight = sum(_CLASS_WEIGHTS.values())
    counts = {name: max(2, int(np.floor(rows * _CLASS_WEIGHTS[name] / total_weight + 0.5)))
              for name in names}
    # Force the exact row count by adjusting the most populous class.
    biggest = max(names, key=lambda n: counts[n])
    counts[biggest] += rows - sum(counts.values())
    if counts[biggest] < 1:
        raise ValueError(f"rows={rows} is too small: the other {len(names) - 1} classes take "
                         f"{rows - counts[biggest]} rows (their weighted shares, at least 2 each), "
                         f"which leaves none for {biggest}")
    return counts


def generate_fixture(rows: int = 5000, seed: int = 0):
    """Returns (X [rows, 46] float64 in schema column order, labels list[str]).

    ``rows`` must be at least ``MIN_ROWS`` (200); fewer raise ``ValueError``.
    """
    if rows < MIN_ROWS:
        raise ValueError(f"rows={rows} is too small: the fixture needs at least {MIN_ROWS} rows")
    class_names = ClassificationMode.MULTI.classes
    assert set(class_names) == set(_CLASS_WEIGHTS)
    signatures = class_signatures(class_names)
    canonical = canonical_top20()
    all_features = list(schema.FEATURE_COLUMNS)
    canon_pos = {name: all_features.index(name) for name in canonical}

    counts = _class_counts(rows)
    class_of_row = np.concatenate(
        [np.full(counts[name], i, dtype=np.int64) for i, name in enumerate(class_names)]
    )
    rng = Rng(seed).spawn("fixture")
    class_of_row = class_of_row[rng.permutation(rows)]

    X = np.empty((rows, len(all_features)), dtype=np.float64)
    # Uninformative columns: class-independent noise in [0, 1) signal space.
    noise_cols = [j for j, name in enumerate(all_features) if name not in canonical]
    for j in noise_cols:
        X[:, j] = rng.uniform(size=rows)
    # Informative columns: signature level + Gaussian jitter.
    for k, name in enumerate(canonical):
        base = signatures[class_of_row, k]
        X[:, canon_pos[name]] = base + rng.normal(size=rows, std=_NOISE_SIGMA)
    # Map signal space into plausible physical ranges.
    for j, name in enumerate(all_features):
        lo, hi = _FEATURE_RANGES.get(name, (0.0, 100.0))
        X[:, j] = lo + np.clip(X[:, j], 0.0, 1.0) * (hi - lo)
    labels = [class_names[c] for c in class_of_row]
    return X, labels


def write_fixture_csv(path, rows: int = 5000, seed: int = 0) -> None:
    """Write the fixture as a schema-complete CSV with a label column."""
    X, labels = generate_fixture(rows=rows, seed=seed)
    cells = {label: csv_cell(label) for label in set(labels)}
    line = "%.9g," * X.shape[1] + "%s\r\n"  # as csv.writer writes f"{v:.9g}" cells
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerow(list(schema.FEATURE_COLUMNS) + [schema.LABEL_COLUMN])
        for start in range(0, rows, WRITE_CHUNK_ROWS):
            stop = start + WRITE_CHUNK_ROWS
            fh.writelines([line % (*values, cells[label])
                           for values, label in zip(X[start:stop].tolist(), labels[start:stop])])
