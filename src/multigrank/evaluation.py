"""Retrieval evaluation: ROC / recall-precision curves and AUC on arrays.

Relevance is a boolean mask over the database in its own order.  Per-query
curves enumerate every returned-list length k = 0..N.  AUC is reported from
the rank statistic (ties get half credit), which coincides with the
trapezoidal area under the ROC curve whenever scores are tie-free.
Query-set aggregation averages tpr (resp. precision) vertically on a fixed
fpr (resp. recall) grid.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, NamedTuple

import numpy as np

from .dataset import Dataset, DomainRecord, group_ids

if TYPE_CHECKING:  # annotations only: importing ranker would load scipy
    from .ranker import RankedList

GRID_POINTS = 101


class Curve(NamedTuple):
    """Rates at every returned-list length k = 0..N, one array each.

    ``tpr`` is also the recall; ``precision[0]`` is NaN (0/0).
    """

    fpr: np.ndarray
    tpr: np.ndarray
    precision: np.ndarray


@dataclass(eq=False)
class EvalReport:
    """Per-query AUCs plus vertically averaged ROC / recall-precision curves."""

    level: int
    per_query: list[tuple[str, float]]
    mean_auc: float
    roc: list[tuple[float, float]]
    pr: list[tuple[float, float]]
    skipped: int

    def to_dict(self) -> dict:
        return {
            "mean_auc": self.mean_auc,
            "per_query": [{"id": qid, "auc": auc} for qid, auc in self.per_query],
            "roc": [[x, y] for x, y in self.roc],
            "pr": [[x, y] for x, y in self.pr],
            "level": self.level,
            "skipped": self.skipped,
        }


def save_report(report: EvalReport, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report.to_dict(), fh, indent=1)
        fh.write("\n")


def roc_curve(ranked: RankedList, relevant_mask) -> Curve:
    """Curve over every list length k = 0..N; the mask is in database order.

    Needs both classes present: 1 <= mask.sum() <= N-1.
    """
    mask = np.asarray(relevant_mask, dtype=bool)
    n = mask.size
    if ranked.order.shape != mask.shape:
        raise ValueError(f"relevance mask of {n} items for a {ranked.order.size}-item ranking")
    p = int(mask.sum())
    if not 1 <= p <= n - 1:
        raise ValueError("degenerate relevance: need at least one relevant and one irrelevant item")
    tp = np.concatenate([[0], np.cumsum(mask[ranked.order])])
    k = np.arange(n + 1)
    precision = np.empty(n + 1)
    precision[0] = np.nan
    precision[1:] = tp[1:] / k[1:]
    return Curve(fpr=(k - tp) / (n - p), tpr=tp / p, precision=precision)


def auc(curve: Curve) -> float:
    """Trapezoidal area under the ROC curve."""
    return float(np.trapezoid(curve.tpr, curve.fpr))


def _average_ranks(a: np.ndarray) -> np.ndarray:
    """1-based ranks of ``a`` ascending; each tied run gets the mean of its positions."""
    order = np.argsort(a, kind="stable")
    sorted_a = a[order]
    starts = np.flatnonzero(np.r_[True, sorted_a[1:] != sorted_a[:-1]])
    ends = np.r_[starts[1:], a.size]
    ranks = np.empty(a.size)
    ranks[order] = np.repeat((starts + 1 + ends) / 2.0, ends - starts)
    return ranks


def auc_from_scores(scores: np.ndarray, relevant_mask: np.ndarray) -> float:
    """Rank-statistic AUC: fraction of (relevant, irrelevant) pairs scored in
    the right order, counting ties as half."""
    scores = np.asarray(scores, dtype=np.float64)
    mask = np.asarray(relevant_mask, dtype=bool)
    p = int(mask.sum())
    neg = mask.size - p
    if p == 0 or neg == 0:
        raise ValueError("degenerate relevance: need both classes present")
    ranks = _average_ranks(scores)
    return float((ranks[mask].sum() - p * (p + 1) / 2.0) / (p * neg))


def _roc_on_grid(curve: Curve, grid: np.ndarray) -> np.ndarray:
    fpr, tpr = curve.fpr, curve.tpr
    keep = np.r_[fpr[1:] != fpr[:-1], True]  # last point at each fpr
    return np.interp(grid, fpr[keep], tpr[keep])


def _pr_on_grid(curve: Curve, grid: np.ndarray) -> np.ndarray:
    recall, precision = curve.tpr[1:], curve.precision[1:]
    keep = np.r_[True, recall[1:] != recall[:-1]]  # best precision at each recall
    return np.interp(grid, recall[keep], precision[keep])


def evaluate_queries(
    ranker: Callable[[DomainRecord], RankedList],
    ds: Dataset,
    queries: Dataset,
    level: int,
) -> EvalReport:
    """Run the ranker over a query set and aggregate ROC/AUC at a label depth.

    A query is relevant to the database records that share its label prefix.
    A query with no such record (or with every record, which leaves no
    negatives to rank against) is skipped and counted in the report.  The
    ranker must score the database in its own order: ``item_ids == ds.ids``.
    """
    gid = group_ids(ds.records + queries.records, level)
    db_gid, query_gid = gid[: ds.n], gid[ds.n :]
    sizes = np.bincount(db_gid, minlength=gid.size)  # codes are < gid.size
    grid = np.linspace(0.0, 1.0, GRID_POINTS)
    per_query: list[tuple[str, float]] = []
    tpr_rows: list[np.ndarray] = []
    prec_rows: list[np.ndarray] = []
    skipped = 0
    for query, code in zip(queries.records, query_gid):
        if not 1 <= sizes[code] <= ds.n - 1:
            skipped += 1
            continue
        ranked = ranker(query)
        if ranked.item_ids != ds.ids:
            raise ValueError(
                f"query {query.id!r}: ranking is not over the database ids in database order"
            )
        mask = db_gid == code
        per_query.append((query.id, auc_from_scores(ranked.scores, mask)))
        curve = roc_curve(ranked, mask)
        tpr_rows.append(_roc_on_grid(curve, grid))
        prec_rows.append(_pr_on_grid(curve, grid))
    if not per_query:
        raise ValueError(f"no evaluable queries at label depth {level}")
    mean_tpr = np.mean(tpr_rows, axis=0)
    mean_prec = np.mean(prec_rows, axis=0)
    return EvalReport(
        level=level,
        per_query=per_query,
        mean_auc=float(np.mean([a for _, a in per_query])),
        roc=[(float(x), float(y)) for x, y in zip(grid, mean_tpr)],
        pr=[(float(x), float(y)) for x, y in zip(grid, mean_prec)],
        skipped=skipped,
    )


def write_curve_csv(points, path, xlabel: str, ylabel: str) -> None:
    """Two-column CSV of curve points for external plotting."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"{xlabel},{ylabel}\n")
        for x, y in points:
            fh.write(f"{float(x)!r},{float(y)!r}\n")


_SVG_COLORS = ("#1f6fb2", "#d1495b", "#3a7d44", "#8d6b94", "#c77d2e")


def write_curves_svg(curves, path, title: str = "", xlabel: str = "", ylabel: str = "") -> None:
    """Minimal standalone SVG line plot: unit-square axes, the curves, a legend.

    ``curves`` is a sequence of (label, points) with points in [0, 1] x [0, 1].
    Hand-rolled so output bytes depend only on the inputs.
    """
    width, height = 480, 400
    left, top, right, bottom = 60, 40, 170, 50
    px = width - left - right
    py = height - top - bottom

    def sx(x: float) -> str:
        return f"{left + x * px:.2f}"

    def sy(y: float) -> str:
        return f"{top + (1.0 - y) * py:.2f}"

    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<rect x="{left}" y="{top}" width="{px}" height="{py}" fill="none" stroke="#333"/>',
    ]
    for tick in (0.0, 0.5, 1.0):
        lines.append(
            f'<text x="{sx(tick)}" y="{height - bottom + 16}" font-size="10" '
            f'text-anchor="middle">{tick:g}</text>'
        )
        lines.append(
            f'<text x="{left - 6}" y="{sy(tick)}" font-size="10" '
            f'text-anchor="end" dominant-baseline="middle">{tick:g}</text>'
        )
    if title:
        lines.append(
            f'<text x="{left + px / 2:.0f}" y="20" font-size="13" text-anchor="middle">{title}</text>'
        )
    if xlabel:
        lines.append(
            f'<text x="{left + px / 2:.0f}" y="{height - 8}" font-size="11" '
            f'text-anchor="middle">{xlabel}</text>'
        )
    if ylabel:
        lines.append(
            f'<text x="14" y="{top + py / 2:.0f}" font-size="11" text-anchor="middle" '
            f'transform="rotate(-90 14 {top + py / 2:.0f})">{ylabel}</text>'
        )
    for idx, (label, points) in enumerate(curves):
        color = _SVG_COLORS[idx % len(_SVG_COLORS)]
        coords = " ".join(f"{sx(float(x))},{sy(float(y))}" for x, y in points)
        lines.append(f'<polyline points="{coords}" fill="none" stroke="{color}" stroke-width="1.5"/>')
        ly = top + 14 + 16 * idx
        lines.append(
            f'<line x1="{width - right + 10}" y1="{ly}" x2="{width - right + 34}" y2="{ly}" '
            f'stroke="{color}" stroke-width="1.5"/>'
        )
        lines.append(
            f'<text x="{width - right + 40}" y="{ly + 4}" font-size="11">{label}</text>'
        )
    lines.append("</svg>")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines))
        fh.write("\n")
