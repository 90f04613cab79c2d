import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from helpers import dataset_from_arrays, ranked_top_ids, trapezoid_auc

import multigrank
from multigrank.dataset import generate_synthetic, relevance_matrix, split_queries
from multigrank.evaluation import (
    auc_from_scores,
    evaluate_queries,
    roc_curve,
    save_report,
    write_curve_csv,
    write_curves_svg,
)
from multigrank.graphs import build_pool
from multigrank.ranker import HyperParams, make_ranked, rank_online, train_offline


def ranking(ids, scores):
    return make_ranked("q", scores, ids)


IDS5 = ("a", "b", "c", "d", "e")
AB = np.array([True, True, False, False, False])  # relevant: a and b


def roc_oracle(ranked, mask):
    """Exhaustive threshold enumeration from the confusion counts."""
    relevant = {ranked.item_ids[i] for i in np.flatnonzero(mask)}
    n = len(ranked.item_ids)
    p = len(relevant)
    pts = []
    for k in range(n + 1):
        top = set(ranked_top_ids(ranked, k))
        tp = len(top & relevant)
        pts.append((tp / p, (k - tp) / (n - p)))
    return pts


def random_mask(rng, n):
    """A mask over n items with both classes present."""
    mask = np.zeros(n, dtype=bool)
    mask[rng.choice(n, size=int(rng.integers(1, n)), replace=False)] = True
    return mask


class TestRocCurve:
    def test_perfect_ranking_hits_corner(self):
        ranked = ranking(IDS5, [5, 4, 3, 2, 1])
        curve = roc_curve(ranked, AB)
        assert np.any((curve.fpr == 0.0) & (curve.tpr == 1.0))
        assert trapezoid_auc(curve) == 1.0

    def test_inverted_ranking(self):
        ranked = ranking(IDS5, [1, 2, 3, 4, 5])
        curve = roc_curve(ranked, AB)
        assert np.any((curve.fpr == 1.0) & (curve.tpr == 0.0))
        assert trapezoid_auc(curve) == 0.0

    def test_matches_threshold_enumeration(self):
        rng = np.random.default_rng(1)
        ids = tuple(f"x{i}" for i in range(10))
        ranked = ranking(ids, rng.normal(size=10))
        mask = np.isin(np.arange(10), [0, 3, 7])
        curve = roc_curve(ranked, mask)
        assert list(zip(curve.tpr, curve.fpr)) == roc_oracle(ranked, mask)

    def test_monotone_and_endpoints(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            n = int(rng.integers(3, 12))
            ids = tuple(f"x{i}" for i in range(n))
            curve = roc_curve(ranking(ids, rng.normal(size=n)), random_mask(rng, n))
            assert all(a.shape == (n + 1,) for a in curve)
            assert (curve.fpr[0], curve.tpr[0]) == (0.0, 0.0)
            assert (curve.fpr[-1], curve.tpr[-1]) == (1.0, 1.0)
            assert np.all(np.diff(curve.fpr) >= 0)
            assert np.all(np.diff(curve.tpr) >= 0)

    def test_tpr_equals_recall_and_precision_conventions(self):
        # recall is tpr: TP = tpr * P = precision * k at every k >= 1
        ranked = ranking(IDS5, [5, 1, 4, 3, 0])
        curve = roc_curve(ranked, AB)
        k = np.arange(1, 6)
        np.testing.assert_allclose(curve.precision[1:] * k, curve.tpr[1:] * 2, rtol=0, atol=1e-12)
        assert np.isnan(curve.precision[0])
        assert curve.precision[1] == 1.0
        # top-3 is {a, c, d}: one of the two relevant, two of three false alarms
        assert ranked_top_ids(ranked, 3) == ("a", "c", "d")
        assert (curve.tpr[3], curve.fpr[3], curve.precision[3]) == (0.5, 2 / 3, 1 / 3)

    def test_degenerate_relevance(self):
        ranked = ranking(IDS5, [5, 4, 3, 2, 1])
        with pytest.raises(ValueError, match="degenerate"):
            roc_curve(ranked, np.ones(5, dtype=bool))

    def test_mask_length_must_match(self):
        ranked = ranking(IDS5, [5, 4, 3, 2, 1])
        with pytest.raises(ValueError, match="mask of 4 items"):
            roc_curve(ranked, AB[:4])


def pair_count_auc(scores, mask):
    """O(N^2) concordant-pair statistic with half credit for ties."""
    pos = [s for s, m in zip(scores, mask) if m]
    neg = [s for s, m in zip(scores, mask) if not m]
    total = 0.0
    for sp in pos:
        for sn in neg:
            if sp > sn:
                total += 1.0
            elif sp == sn:
                total += 0.5
    return total / (len(pos) * len(neg))


class TestAuc:
    def test_trapezoid_equals_pair_counting(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            n = int(rng.integers(4, 15))
            ids = tuple(f"x{i}" for i in range(n))
            scores = rng.normal(size=n)
            mask = random_mask(rng, n)
            value = trapezoid_auc(roc_curve(ranking(ids, scores), mask))
            assert abs(value - pair_count_auc(scores, mask)) <= 1e-12

    def test_rank_statistic_handles_ties(self):
        scores = np.array([1.0, 1.0, 0.0, 0.0])
        mask = np.array([True, False, True, False])
        # one concordant pair, two ties, one discordant-free: (1 + 2*0.5)/4
        assert auc_from_scores(scores, mask) == 0.5
        assert auc_from_scores(scores, mask) == pair_count_auc(scores, mask)
        # heavy ties: a few distinct levels over many items
        rng = np.random.default_rng(9)
        for levels in (1, 2, 3, 5):
            scores = rng.integers(0, levels, size=40).astype(float)
            mask = rng.random(40) < 0.4
            mask[:2] = (True, False)
            assert auc_from_scores(scores, mask) == pair_count_auc(scores, mask)

    def test_invariant_under_monotone_transform(self):
        rng = np.random.default_rng(4)
        ids = tuple(f"x{i}" for i in range(12))
        scores = rng.normal(size=12)
        mask = np.isin(np.arange(12), rng.choice(12, size=5, replace=False))
        base = trapezoid_auc(roc_curve(ranking(ids, scores), mask))
        warped = trapezoid_auc(roc_curve(ranking(ids, np.exp(scores)), mask))
        assert base == warped


class TestEvaluateQueries:
    def _multig(self, seed=0):
        from multigrank.graphs import default_spec_grid

        full = generate_synthetic(2, 12, 8, 1.0, 12.0, seed)
        db, queries = split_queries(full, 2, "disjoint")
        pool = build_pool(db, default_spec_grid(db, k_values=(4,), sigma_multipliers=(1.0,)))
        model = train_offline(pool, relevance_matrix(db, 1), HyperParams(max_iters=5))
        arm = lambda q: rank_online(model, pool, db, q.features, query_id=q.id)
        return arm, db, queries

    def test_two_blob_quality(self):
        arm, db, queries = self._multig()
        report = evaluate_queries(arm, db, queries, 1)
        assert report.mean_auc >= 0.95
        assert len(report.per_query) == queries.n and report.skipped == 0

    def test_deterministic_reports(self):
        arm, db, queries = self._multig()
        a = evaluate_queries(arm, db, queries, 1)
        b = evaluate_queries(arm, db, queries, 1)
        assert a.to_dict() == b.to_dict()

    def test_level_beyond_labels(self):
        arm, db, queries = self._multig()
        with pytest.raises(ValueError, match="depth"):
            evaluate_queries(arm, db, queries, 2)

    def test_unmatched_query_skipped(self):
        db = dataset_from_arrays(np.eye(4) + 0.1, ["a", "a", "b", "b"])
        queries = dataset_from_arrays([[1.0, 0.1, 0.1, 0.1], [0.1, 0.1, 1.0, 0.1]], ["a", "zzz"])
        from multigrank.ranker import rank_pairwise_baseline

        report = evaluate_queries(
            lambda q: rank_pairwise_baseline(db, q.features, q.id), db, queries, 1
        )
        assert report.skipped == 1
        assert [qid for qid, _ in report.per_query] == ["r0"]

    def test_ranking_in_another_order_rejected(self):
        arm, db, queries = self._multig()

        def reordered(q):
            ranked = arm(q)
            perm = np.arange(db.n)[::-1]
            return make_ranked(ranked.query_id, ranked.scores[perm],
                               [ranked.item_ids[i] for i in perm])

        query = queries.records[0].id
        with pytest.raises(ValueError, match=f"query {query!r}: ranking is not over"):
            evaluate_queries(reordered, db, queries, 1)

    def test_report_schema_and_save(self, tmp_path):
        arm, db, queries = self._multig()
        report = evaluate_queries(arm, db, queries, 1)
        path = tmp_path / "report.json"
        save_report(report, path)
        doc = json.loads(path.read_text())
        assert set(doc) == {"mean_auc", "per_query", "roc", "pr", "level", "skipped"}
        assert doc["level"] == 1 and doc["skipped"] == 0
        assert all(set(entry) == {"id", "auc"} for entry in doc["per_query"])
        assert len(doc["roc"]) == 101 and len(doc["pr"]) == 101
        assert doc["mean_auc"] == pytest.approx(
            float(np.mean([e["auc"] for e in doc["per_query"]]))
        )


def test_curve_csv_round_trip(tmp_path):
    points = [(0.0, 0.0), (0.25, 0.75), (1.0, 1.0)]
    path = tmp_path / "roc.csv"
    write_curve_csv(points, path, "fpr", "tpr")
    lines = path.read_text().splitlines()
    assert lines[0] == "fpr,tpr"
    parsed = [tuple(float(v) for v in line.split(",")) for line in lines[1:]]
    assert parsed == points


def test_curves_svg_emitter(tmp_path):
    path = tmp_path / "curves.svg"
    pts = [(i / 10, (i / 10) ** 2) for i in range(11)]
    write_curves_svg([("one", pts), ("two", pts[::-1])], path, title="t")
    text = path.read_text()
    assert text.startswith("<svg") and text.rstrip().endswith("</svg>")
    assert text.count("<polyline") == 2 and "one" in text and "two" in text
    write_curves_svg([("one", pts), ("two", pts[::-1])], tmp_path / "again.svg", title="t")
    assert (tmp_path / "again.svg").read_bytes() == path.read_bytes()


_CLI = "from multigrank import cli; assert cli.main({argv!r} + ['--out', '.']) == 0"
_DATA = ["--dataset", "database.csv", "--pool", "pool.bin"]

# what a fresh process runs, in order and in one working directory, and the
# modules it must not load
_IMPORT_CONTRACT = [
    # scipy.stats alone costs most of a CLI call's start-up time, and
    # scipy.sparse.linalg is needed only by the ridge-0 component check
    ("import multigrank; [getattr(multigrank, name) for name in multigrank.__all__]",
     ("scipy.stats", "scipy.sparse.linalg")),
    ("import multigrank; assert set(multigrank.__all__) <= set(dir(multigrank))", ("scipy",)),
    (_CLI.format(argv=["gen", "--classes", "2", "--per-class", "6", "--dim", "3"]), ("scipy",)),
    (_CLI.format(argv=["pool", *_DATA, "--k", "2"]), ("scipy",)),
    (_CLI.format(argv=["train", *_DATA, "--model", "model.json", "--iters", "2"]),
     ("scipy.linalg",)),
]


def test_import_skips_scipy_stats(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(Path(multigrank.__file__).parents[1]))
    for code, forbidden in _IMPORT_CONTRACT:
        check = (f"\nloaded = [m for m in {forbidden!r} if m in sys.modules]"
                 "\nsys.exit(f'loaded {loaded}' if loaded else 0)")
        proc = subprocess.run([sys.executable, "-c", "import sys\n" + code + check],
                              cwd=tmp_path, env=env, capture_output=True, text=True)
        assert proc.returncode == 0, f"{code}: {proc.stderr}"
