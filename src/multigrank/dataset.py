"""Labeled feature-vector databases: ingestion, relevance matrices, synthetic data.

A dataset is an ordered list of records, each carrying a string id, a
hierarchical label path (e.g. ``("c.1", "c.1.12", "c.1.12.7")``) and a fixed-
dimension feature vector.  Dataset files are CSV, ``id,label,f1,...,fd``,
with ``/`` as the level separator of labels.  The JSON helpers here check the
fields of the pool, model and config files.
"""

from __future__ import annotations

import csv
import hashlib
import types
import typing
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

LABEL_SEP = "/"


@dataclass(frozen=True, eq=False)
class DomainRecord:
    """One database item: id, hierarchical label path, feature vector.

    The features are stored as a read-only float64 copy, so a record, and any
    fingerprint or matrix cached from it, cannot change after construction.
    """

    id: str
    label: tuple[str, ...]
    features: np.ndarray

    def __post_init__(self):
        features = np.array(self.features, dtype=np.float64)
        features.setflags(write=False)
        object.__setattr__(self, "features", features)

    def label_prefix(self, level: int) -> tuple[str, ...]:
        """First ``level`` components of the label path."""
        if level < 1 or level > len(self.label):
            raise ValueError(
                f"record {self.id!r} has label depth {len(self.label)}, "
                f"cannot take level {level}"
            )
        return self.label[:level]


def _require_two(records) -> None:
    if len(records) < 2:
        raise ValueError("a dataset needs at least 2 records")


@dataclass(eq=False)
class Dataset:
    """Ordered collection of records sharing one feature dimension."""

    records: tuple[DomainRecord, ...]
    dim: int

    @classmethod
    def from_records(cls, records) -> "Dataset":
        """Build a validated dataset; raises ValueError on any invariant breach."""
        records = tuple(records)
        _require_two(records)
        dim = records[0].features.shape[0]
        seen: set[str] = set()
        for row, rec in enumerate(records, start=1):
            if rec.features.ndim != 1 or rec.features.shape[0] != dim:
                raise ValueError(f"dimension mismatch at row {row}")
            if not np.all(np.isfinite(rec.features)):
                raise ValueError(f"non-finite feature at row {row} (id {rec.id!r})")
            if not rec.label or any(not part for part in rec.label):
                raise ValueError(f"empty label component at row {row} (id {rec.id!r})")
            if "\t" in rec.id or "\n" in rec.id or "\r" in rec.id:
                raise ValueError(f"id {rec.id!r} at row {row} contains a tab or line break")
            if rec.id in seen:
                raise ValueError(f"duplicate id {rec.id!r} at row {row}")
            seen.add(rec.id)
        return cls(records=records, dim=dim)

    def _subset(self, indices) -> "Dataset":
        """The records at ``indices``, in that order.  They were checked
        together when this dataset was built, so any subset of them passes
        every check of ``from_records`` but its size."""
        records = tuple(self.records[i] for i in indices)
        _require_two(records)
        return Dataset(records=records, dim=self.dim)

    @property
    def n(self) -> int:
        return len(self.records)

    @cached_property
    def ids(self) -> tuple[str, ...]:
        """Record ids in order, built once per dataset."""
        return tuple(rec.id for rec in self.records)

    @cached_property
    def fingerprint(self) -> str:
        """Short stable hash of every record's id, label and features."""
        h = hashlib.sha256()
        for rec in self.records:
            h.update(rec.id.encode("utf-8"))
            h.update(b"\x1f")
            h.update(LABEL_SEP.join(rec.label).encode("utf-8"))
            h.update(b"\x1f")
            h.update(rec.features.tobytes())
            h.update(b"\x1e")
        return h.hexdigest()[:16]

    @cached_property
    def feature_matrix(self) -> np.ndarray:
        """N x d float64 matrix of all feature vectors (read-only)."""
        mat = np.array([rec.features for rec in self.records], dtype=np.float64)
        mat.setflags(write=False)
        return mat


@dataclass(eq=False)
class RelevanceMatrix:
    """Label agreement at one depth, stored as one integer group id per record.

    Records i and q are relevant to each other iff ``gid[i] == gid[q]``; groups
    are numbered 0..C-1 in order of first appearance.  The binary N x N matrix
    this stands for is ``Z[:, gid]`` with ``Z`` the N x C class indicator, so it
    holds only C distinct columns and is kept in O(N) memory.
    """

    gid: np.ndarray


def _parse_features(values, row: int) -> np.ndarray:
    feats = np.empty(len(values), dtype=np.float64)
    for col, raw in enumerate(values):
        try:
            feats[col] = float(raw)
        except ValueError:
            raise ValueError(f"unparseable number {raw!r} at row {row}") from None
    return feats


def _parse_label(raw: str) -> tuple[str, ...]:
    return tuple(raw.split(LABEL_SEP))


# float(int) rounds to nearest, ties to even: from this value up, halfway
# between the largest finite float64 and 2**1024, it overflows
_FLOAT_OVERFLOW = 2**1024 - 2**970


def json_fits(value, hint) -> bool:
    """Whether a parsed JSON value fits a type hint (an int is a float when it
    converts without overflow; a list is a tuple; a bool is neither an int
    nor a float)."""
    if typing.get_origin(hint) in (types.UnionType, typing.Union):
        return any(json_fits(value, h) for h in typing.get_args(hint))
    if typing.get_origin(hint) is tuple:
        item = typing.get_args(hint)[0]
        return isinstance(value, (list, tuple)) and all(json_fits(v, item) for v in value)
    if isinstance(value, bool):
        return hint is bool
    if hint is float:
        if isinstance(value, int):
            return abs(value) < _FLOAT_OVERFLOW
        return isinstance(value, float)
    return isinstance(value, hint)


def json_text(value) -> str:
    """repr of a parsed JSON value for a message, with each integer longer
    than 20 characters cut to its first 20 plus its digit count: an integer
    out of float range has hundreds of digits."""
    if isinstance(value, list):
        return "[" + ", ".join(map(json_text, value)) + "]"
    text = repr(value)
    if isinstance(value, int) and len(text) > 20:
        return f"{text[:20]}... ({len(text.lstrip('-'))} digits)"
    return text


_HINT_NAMES = {int: "an integer", float: "a number", float | None: "a number or null",
               str: "a string", list: "a list", dict: "an object",
               tuple[float, ...]: "a list of numbers"}


def json_field(doc, key: str, hint, where: str):
    """``doc[key]`` of a parsed JSON object, checked to fit ``hint`` (one of
    ``_HINT_NAMES``) by ``json_fits``.  Raises ValueError, prefixed by
    ``where``, when ``doc`` is not an object, lacks ``key`` or holds a value
    of another type there."""
    if not isinstance(doc, dict):
        raise ValueError(f"{where}: expected a JSON object, got {type(doc).__name__}")
    if key not in doc:
        raise ValueError(f"{where}: missing field {key!r}")
    if not json_fits(doc[key], hint):
        raise ValueError(f"{where}: {key} must be {_HINT_NAMES[hint]}, got {doc[key]!r}")
    return doc[key]


def load_dataset(path) -> Dataset:
    """Load a dataset from CSV (``id,label,f1,...,fd``); a path without the
    ``.csv`` suffix raises ValueError.

    Row order is preserved; all dataset invariants are validated.
    """
    return Dataset.from_records(_load_csv(_csv_path(path)))


def _csv_path(path) -> Path:
    path = Path(path)
    if path.suffix.lower() != ".csv":
        raise ValueError(
            f"unknown dataset format {path.suffix!r} of {path}: datasets are CSV files (.csv)"
        )
    return path


def _load_csv(path: Path) -> list[DomainRecord]:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = [row for row in csv.reader(fh) if row]
    if not rows:
        raise ValueError(f"empty dataset file: {path}")
    header = rows[0]
    if len(header) < 3 or header[0] != "id" or header[1] != "label":
        raise ValueError(f"{path}: expected header 'id,label,f1,...,fd'")
    dim = len(header) - 2
    records = []
    for row, cells in enumerate(rows[1:], start=1):
        if len(cells) - 2 != dim:
            raise ValueError(f"dimension mismatch at row {row}")
        records.append(
            DomainRecord(cells[0], _parse_label(cells[1]), _parse_features(cells[2:], row))
        )
    if not records:
        raise ValueError(f"empty dataset file: {path}")
    return records


def save_dataset(ds: Dataset, path) -> None:
    """Write a dataset as CSV; inverse of load_dataset.  A path without the
    ``.csv`` suffix raises ValueError before any file is opened."""
    with open(_csv_path(path), "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["id", "label"] + [f"f{i}" for i in range(1, ds.dim + 1)])
        for rec in ds.records:
            writer.writerow(
                [rec.id, LABEL_SEP.join(rec.label)] + [repr(float(v)) for v in rec.features]
            )


def relevance_matrix(ds: Dataset, level: int) -> RelevanceMatrix:
    """Pairwise label agreement at the given depth.

    Requires every record's label path to reach ``level``.
    """
    if level < 1:
        raise ValueError("level must be >= 1")
    gid = group_ids(ds.records, level)
    gid.setflags(write=False)
    return RelevanceMatrix(gid=gid)


def group_ids(records, level: int) -> np.ndarray:
    """One integer code per record for its label prefix at ``level``,
    numbered in order of first appearance; checks every label's depth."""
    codes: dict[tuple[str, ...], int] = {}
    return np.array(
        [codes.setdefault(rec.label_prefix(level), len(codes)) for rec in records],
        dtype=np.int64,
    )


def generate_synthetic(
    n_classes: int,
    per_class: int,
    dim: int,
    spread: float,
    separation: float,
    seed: int,
) -> Dataset:
    """Deterministic labeled blobs: one isotropic Gaussian per class.

    Class means are drawn so their expected pairwise distance is roughly
    ``separation``; points scatter with standard deviation ``spread``.  The
    whole cloud is then shifted into the nonnegative orthant so that every
    edge-weighting scheme (including the ones that reject negative features)
    applies to the result.  Labels are single-level class names.
    """
    if n_classes < 1 or per_class < 1 or dim < 1:
        raise ValueError("n_classes, per_class and dim must all be >= 1")
    if spread <= 0:
        raise ValueError("spread must be > 0")
    if separation < 0:
        raise ValueError("separation must be >= 0")
    rng = np.random.default_rng(seed)
    centers = rng.standard_normal((n_classes, dim)) * (separation / np.sqrt(2.0 * dim))
    points = np.vstack(
        [centers[c] + spread * rng.standard_normal((per_class, dim)) for c in range(n_classes)]
    )
    low = points.min()
    if low < 0:
        points -= low
    records = []
    for c in range(n_classes):
        for j in range(per_class):
            records.append(
                DomainRecord(
                    id=f"c{c}_r{j:03d}",
                    label=(f"class{c}",),
                    features=points[c * per_class + j],
                )
            )
    return Dataset.from_records(records)


def split_queries(ds: Dataset, per_label: int, mode: str, seed: int = 0):
    """Split a dataset into (database, query set) grouped by first label level.

    ``disjoint`` carves the last ``per_label`` records of each group out of the
    database; ``overlapping`` samples queries that also stay in the database.
    Returns ``(database, queries)``.
    """
    if per_label < 1:
        raise ValueError("per_label must be >= 1")
    if mode not in ("disjoint", "overlapping"):
        raise ValueError(f"unknown query mode {mode!r}")
    groups: dict[str, list[int]] = {}
    for idx, rec in enumerate(ds.records):
        groups.setdefault(rec.label[0], []).append(idx)
    query_idx: list[int] = []
    if mode == "disjoint":
        for label, members in groups.items():
            if len(members) <= per_label:
                raise ValueError(
                    f"group {label!r} has {len(members)} records; cannot carve "
                    f"{per_label} disjoint queries"
                )
            query_idx.extend(members[-per_label:])
    else:
        rng = np.random.default_rng(seed)
        for members in groups.values():
            if len(members) < per_label:
                raise ValueError("group smaller than requested query count")
            picked = rng.choice(len(members), size=per_label, replace=False)
            query_idx.extend(members[i] for i in sorted(picked))
    query_set = set(query_idx)
    queries = ds._subset(sorted(query_set))
    if mode == "disjoint":
        database = ds._subset(i for i in range(ds.n) if i not in query_set)
    else:
        database = ds
    return database, queries


def dataset_fingerprint(ds: Dataset) -> str:
    """Short stable hash binding derived artifacts (pools, models) to a dataset;
    computed once per dataset (``Dataset.fingerprint``)."""
    return ds.fingerprint
