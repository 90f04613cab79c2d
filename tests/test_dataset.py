import re

import numpy as np
import pytest

from helpers import dataset_from_arrays, dense_relevance

from multigrank.dataset import (
    Dataset,
    DomainRecord,
    dataset_fingerprint,
    generate_synthetic,
    load_dataset,
    relevance_matrix,
    save_dataset,
    split_queries,
)
from multigrank.evaluation import evaluate_queries
from multigrank.ranker import rank_pairwise_baseline

CSV_3X4 = (
    "id,label,f1,f2,f3,f4\n"
    "a,x/y,0.5,1.0,2.0,3.0\n"
    "b,x/z,1.5,-1.0,0.25,0.125\n"
    "c,w,2.5,3.5,4.5,5.5\n"
)


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


class TestLoad:
    def test_csv_basic(self, tmp_path):
        ds = load_dataset(_write(tmp_path, "db.csv", CSV_3X4))
        assert ds.n == 3 and ds.dim == 4
        assert ds.ids == ("a", "b", "c")
        assert ds.records[0].label == ("x", "y")
        assert np.array_equal(ds.records[1].features, [1.5, -1.0, 0.25, 0.125])

    def test_dotted_hierarchy_label(self, tmp_path):
        text = "id,label,f1\nd1,c.1/c.1.12/c.1.12.7,0.0\nd2,c.1/c.1.12/c.1.12.8,1.0\n"
        ds = load_dataset(_write(tmp_path, "db.csv", text))
        assert ds.records[0].label == ("c.1", "c.1.12", "c.1.12.7")

    def test_dimension_mismatch_row_2(self, tmp_path):
        text = "id,label,f1,f2,f3,f4\na,x,1,2,3,4\nb,x,1,2,3\nc,x,1,2,3,4\n"
        with pytest.raises(ValueError, match="dimension mismatch at row 2"):
            load_dataset(_write(tmp_path, "db.csv", text))

    def test_duplicate_id(self, tmp_path):
        text = "id,label,f1\na,x,1\na,y,2\n"
        with pytest.raises(ValueError, match="duplicate id"):
            load_dataset(_write(tmp_path, "db.csv", text))

    @pytest.mark.parametrize("bad_id", ["a\tb0", "a\nb0", "a\rb0"])
    def test_id_with_tab_or_line_break(self, tmp_path, bad_id):
        # quoted, the CSV round trip keeps such an id, and a rank TSV row
        # written with it would split into more than three fields
        text = f'id,label,f1\nok,x,1\n"{bad_id}",x,2\n'
        with pytest.raises(ValueError, match=re.escape(f"id {bad_id!r} at row 2")):
            load_dataset(_write(tmp_path, "db.csv", text))

    def test_unparseable_number(self, tmp_path):
        text = "id,label,f1\na,x,1.0\nb,x,oops\n"
        with pytest.raises(ValueError, match="unparseable number"):
            load_dataset(_write(tmp_path, "db.csv", text))

    def test_empty_file(self, tmp_path):
        with pytest.raises(ValueError, match="empty"):
            load_dataset(_write(tmp_path, "db.csv", ""))

    def test_unknown_format(self, tmp_path):
        with pytest.raises(ValueError, match="format"):
            load_dataset(_write(tmp_path, "db.xml", "<x/>"))

    def test_csv_cells_still_read_as_floats(self, tmp_path):
        ds = load_dataset(_write(tmp_path, "db.csv", "id,label,f1\na,x,2.5\nb,x,1e3\n"))
        assert ds.feature_matrix.ravel().tolist() == [2.5, 1000.0]
        # a cell past float range reads as inf, which validation rejects
        with pytest.raises(ValueError, match="non-finite feature at row 2"):
            load_dataset(_write(tmp_path, "db.csv", "id,label,f1\na,x,1\nb,x,-1e400\n"))


@pytest.mark.parametrize("fmt", ["csv"])
def test_round_trip_identity(tmp_path, fmt):
    ds = generate_synthetic(3, 4, 5, 1.0, 4.0, 11)
    path = tmp_path / f"db.{fmt}"
    save_dataset(ds, path)
    back = load_dataset(path)
    assert back.ids == ds.ids
    assert [r.label for r in back.records] == [r.label for r in ds.records]
    assert np.array_equal(back.feature_matrix, ds.feature_matrix)
    # fingerprints bind derived artifacts, so the round trip must preserve them
    assert dataset_fingerprint(back) == dataset_fingerprint(ds)


def test_save_refuses_what_load_refuses(tmp_path):
    # a dataset saved under a suffix load_dataset rejects could not be read
    # back: save raises load's error, before any file is opened
    ds = generate_synthetic(2, 3, 4, 1.0, 2.0, 5)
    path = tmp_path / "db.json"
    with pytest.raises(ValueError) as saving:
        save_dataset(ds, path)
    assert not path.exists()
    path.write_text("{}")
    with pytest.raises(ValueError) as loading:
        load_dataset(path)
    assert str(saving.value) == str(loading.value)
    assert "unknown dataset format '.json'" in str(saving.value)
    save_dataset(ds, tmp_path / "db.CSV")
    assert load_dataset(tmp_path / "db.CSV").ids == ds.ids


def test_save_is_byte_stable(tmp_path):
    ds = generate_synthetic(2, 3, 4, 1.0, 2.0, 5)
    save_dataset(ds, tmp_path / "a.csv")
    save_dataset(ds, tmp_path / "b.csv")
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


class TestRelevance:
    def test_flat_labels(self):
        ds = dataset_from_arrays(np.eye(3), ["a", "a", "b"])
        rel = relevance_matrix(ds, 1)
        assert np.array_equal(dense_relevance(rel), [[1, 1, 0], [1, 1, 0], [0, 0, 1]])

    def test_single_record(self):
        rec = DomainRecord("solo", ("a",), np.array([1.0]))
        rel = relevance_matrix(Dataset(records=(rec,), dim=1), 1)
        assert np.array_equal(dense_relevance(rel), [[1.0]])

    def test_prefix_depth(self):
        ds = dataset_from_arrays(np.eye(3), ["x/p", "x/q", "x/p"])
        assert np.array_equal(
            dense_relevance(relevance_matrix(ds, 2)), [[1, 0, 1], [0, 1, 0], [1, 0, 1]]
        )
        assert np.array_equal(dense_relevance(relevance_matrix(ds, 1)), np.ones((3, 3)))

    def test_level_beyond_depth(self):
        ds = dataset_from_arrays(np.eye(2), ["x/p", "y"])
        with pytest.raises(ValueError, match="depth"):
            relevance_matrix(ds, 2)

    def test_symmetric_unit_diagonal(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            n = int(rng.integers(2, 9))
            labels = [
                "/".join(rng.choice(["a", "b"], size=rng.integers(1, 4)))
                for _ in range(n)
            ]
            ds = dataset_from_arrays(rng.normal(size=(n, 2)), labels)
            dense = dense_relevance(relevance_matrix(ds, 1))
            assert np.array_equal(dense, dense.T)
            assert np.array_equal(np.diag(dense), np.ones(n))


    def test_stored_as_group_ids(self):
        # O(N) storage: one group id per record, no N x N array
        n = 500
        ds = dataset_from_arrays(np.zeros((n, 1)), [f"c{i % 7}" for i in range(n)])
        rel = relevance_matrix(ds, 1)
        arrays = [v for v in vars(rel).values() if hasattr(v, "nbytes")]
        assert sum(v.nbytes for v in arrays) <= 8 * n
        assert np.array_equal(rel.gid[:8], [0, 1, 2, 3, 4, 5, 6, 0])


class TestSynthetic:
    def test_shape_and_blobs(self):
        ds = generate_synthetic(2, 5, 3, 1.0, 10.0, 42)
        assert ds.n == 10 and ds.dim == 3
        X = ds.feature_matrix
        m0, m1 = X[:5].mean(axis=0), X[5:].mean(axis=0)
        # well separated: inter-mean gap dwarfs the within-class scatter
        assert np.linalg.norm(m0 - m1) > 3 * X[:5].std()

    def test_deterministic(self, tmp_path):
        a = generate_synthetic(2, 5, 3, 1.0, 10.0, 42)
        b = generate_synthetic(2, 5, 3, 1.0, 10.0, 42)
        assert np.array_equal(a.feature_matrix, b.feature_matrix)
        save_dataset(a, tmp_path / "a.csv")
        save_dataset(b, tmp_path / "b.csv")
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    def test_nonnegative_features(self):
        # all five weighting schemes must apply to generated data
        ds = generate_synthetic(4, 10, 6, 2.0, 5.0, 0)
        assert ds.feature_matrix.min() >= 0

    def test_coincident_means_give_chance_auc(self):
        aucs = []
        for seed in range(10):
            full = generate_synthetic(2, 12, 3, 1.0, 0.0, seed)
            db, queries = split_queries(full, 2, "disjoint")
            report = evaluate_queries(
                lambda q: rank_pairwise_baseline(db, q.features, q.id),
                db, queries, 1,
            )
            aucs.append(report.mean_auc)
        assert 0.4 <= float(np.mean(aucs)) <= 0.6

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n_classes": 0},
            {"per_class": 0},
            {"dim": 0},
            {"spread": 0.0},
            {"separation": -1.0},
        ],
    )
    def test_invalid_arguments(self, kwargs):
        base = dict(n_classes=2, per_class=3, dim=2, spread=1.0, separation=1.0, seed=0)
        base.update(kwargs)
        with pytest.raises(ValueError):
            generate_synthetic(**base)


class TestSplitQueries:
    def test_disjoint(self):
        full = generate_synthetic(3, 6, 2, 1.0, 5.0, 1)
        db, queries = split_queries(full, 2, "disjoint")
        assert db.n == 12 and queries.n == 6
        assert not set(db.ids) & set(queries.ids)
        for c in range(3):
            assert sum(1 for r in queries.records if r.label[0] == f"class{c}") == 2

    def test_overlapping(self):
        full = generate_synthetic(3, 6, 2, 1.0, 5.0, 1)
        db, queries = split_queries(full, 2, "overlapping", seed=9)
        assert db is full and queries.n == 6
        assert set(queries.ids) <= set(db.ids)

    @pytest.mark.parametrize("mode", ["disjoint", "overlapping"])
    def test_halves_reuse_checked_records(self, mode, monkeypatch):
        full = generate_synthetic(3, 6, 2, 1.0, 5.0, 1)

        def refuse(records):
            raise AssertionError("split re-checked records already checked")

        monkeypatch.setattr(Dataset, "from_records", refuse)
        db, queries = split_queries(full, 2, mode, seed=9)
        by_id = {rec.id: rec for rec in full.records}
        for half in (db, queries):
            assert half.dim == full.dim
            assert all(rec is by_id[rec.id] for rec in half.records)
        # both halves keep the full dataset's order
        order = {rec.id: i for i, rec in enumerate(full.records)}
        assert [order[i] for i in queries.ids] == sorted(order[i] for i in queries.ids)
        assert [order[i] for i in db.ids] == sorted(order[i] for i in db.ids)

    def test_half_of_one_record_rejected(self):
        full = generate_synthetic(1, 3, 2, 1.0, 5.0, 1)
        with pytest.raises(ValueError, match="at least 2 records"):
            split_queries(full, 1, "disjoint")

    def test_disjoint_rejects_tiny_groups(self):
        full = generate_synthetic(2, 2, 2, 1.0, 5.0, 1)
        with pytest.raises(ValueError, match="carve"):
            split_queries(full, 2, "disjoint")


def test_fingerprint_tracks_content():
    a = generate_synthetic(2, 4, 3, 1.0, 2.0, 0)
    b = generate_synthetic(2, 4, 3, 1.0, 2.0, 1)
    assert dataset_fingerprint(a) == dataset_fingerprint(a)
    assert dataset_fingerprint(a) != dataset_fingerprint(b)


def test_fingerprint_value_is_stable():
    # values written by the per-call hash before it was cached on the dataset
    assert dataset_fingerprint(generate_synthetic(3, 8, 4, 1.0, 6.0, 0)) == "5d8d32a8a6376e6b"
    assert dataset_fingerprint(generate_synthetic(5, 120, 32, 1.0, 5.0, 0)) == "7a533fe941f5acac"


def test_ids_are_built_once_and_shared_by_rankings():
    ds = generate_synthetic(2, 4, 3, 1.0, 2.0, 0)
    assert ds.ids == tuple(rec.id for rec in ds.records)
    assert ds.ids is ds.ids
    assert rank_pairwise_baseline(ds, ds.records[0].features).item_ids is ds.ids


def test_record_features_are_a_read_only_float64_copy():
    source = np.array([1, 2, 3])
    rec = DomainRecord("a", ("x",), source)
    assert rec.features.dtype == np.float64
    with pytest.raises(ValueError, match="read-only"):
        rec.features[0] = 5.0
    source[0] = 7
    assert rec.features.tolist() == [1.0, 2.0, 3.0]
    ds = generate_synthetic(2, 4, 3, 1.0, 2.0, 0)
    before = dataset_fingerprint(ds)
    with pytest.raises(ValueError, match="read-only"):
        ds.records[0].features += 1.0
    assert dataset_fingerprint(ds) == before


def test_validation_rejects_small_and_broken_inputs():
    rec = DomainRecord("a", ("x",), np.array([1.0]))
    with pytest.raises(ValueError, match="at least 2"):
        Dataset.from_records([rec])
    bad = DomainRecord("b", ("x",), np.array([np.nan]))
    with pytest.raises(ValueError, match="non-finite"):
        Dataset.from_records([rec, bad])
