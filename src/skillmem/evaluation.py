"""Metrics and the k-fold student-level evaluation protocol.

Cross-validation splits at the student level: all rows of a student land in
one fold, so test students are never seen at training time. History counters
are per-student, so encoding the full dataset once yields exactly the rows
each fold needs.

The ablation study is data: `ABLATION_PAIRS` names pairs of families that
differ in one feature block, and `MetricsTable.paired_deltas` compares the
per-fold AUCs of each pair that ran at the same dim on the same folds.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import fm as fm_mod
from . import glm
from .corpus import student_kfold
from .encoder import encode_dataset
from .errors import MetricError

EPS = 1e-12

# name -> (a, b): a's per-fold AUC minus b's isolates one feature block
ABLATION_PAIRS = {
    "windowed_vs_plain": ("das3h", "das3h_plaincounts"),
    "per_skill_vs_shared": ("das3h", "das3h_1p"),
    "items_vs_kc": ("dash_items", "dash_kc"),
}


def _average_ranks(x):
    """`scipy.stats.rankdata(x)`: a run of ties shares its mean rank."""
    order = np.argsort(x)  # any kind: runs of ties do not depend on it
    xs = x[order]
    starts = np.flatnonzero(np.r_[True, xs[1:] != xs[:-1]])
    counts = np.diff(starts, append=len(x))
    ranks = np.empty(len(x))
    ranks[order] = np.repeat(starts + (counts + 1) / 2, counts)  # exact
    return ranks


def auc(scores, labels):
    """P(random positive ranked above random negative), from tie-averaged
    ranks: ties count 1/2 and +-inf rank as values; a NaN score has no rank
    and is a MetricError."""
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels)
    n_pos = int(np.sum(labels == 1))
    n_neg = int(np.sum(labels == 0))
    if n_pos == 0 or n_neg == 0:
        raise MetricError("AUC undefined: only one class present")
    if np.isnan(scores).any():
        raise MetricError("AUC undefined: NaN score")
    ranks = _average_ranks(scores)
    return float((np.sum(ranks[labels == 1]) - n_pos * (n_pos + 1) / 2)
                 / (n_pos * n_neg))


def nll(probs, labels):
    """Mean negative log-likelihood; probabilities clipped to [eps, 1-eps]."""
    p = np.clip(np.asarray(probs, dtype=float), EPS, 1 - EPS)
    y = np.asarray(labels, dtype=float)
    return float(-np.mean(y * np.log(p) + (1 - y) * np.log(1 - p)))


def accuracy(probs, labels, threshold=0.5):
    """Thresholded agreement rate; ties at the threshold predict positive."""
    pred = np.asarray(probs, dtype=float) >= threshold
    return float(np.mean(pred == (np.asarray(labels) == 1)))


@dataclass
class FoldResult:
    fold: int
    auc: float | None
    nll: float
    acc: float
    n_test: int
    converged: bool | None = None  # L-BFGS only; None for Gibbs folds
    n_iter: int | None = None
    final_loss: float | None = None
    grad_norm: float | None = None


@dataclass
class MetricsTable:
    """Per-(family, dim) fold metrics plus mean/std aggregates."""

    results: dict[str, list[FoldResult]] = field(default_factory=dict)
    k: int = 5
    seed: int = 0

    def add(self, label, fold_result):
        self.results.setdefault(label, []).append(fold_result)

    def aggregate(self):
        out = {}
        for label, folds in self.results.items():
            aucs = [f.auc for f in folds if f.auc is not None]
            nlls = [f.nll for f in folds]
            accs = [f.acc for f in folds]
            out[label] = {
                "auc_mean": float(np.mean(aucs)) if aucs else None,
                "auc_std": float(np.std(aucs)) if aucs else None,
                "nll_mean": float(np.mean(nlls)),
                "nll_std": float(np.std(nlls)),
                "acc_mean": float(np.mean(accs)),
                "acc_std": float(np.std(accs)),
                "folds_with_auc": len(aucs),
            }
        return out

    def paired_deltas(self):
        """Per-fold AUC deltas, a minus b, of every `ABLATION_PAIRS` pair
        whose two families ran at the same dim, keyed `name(d=dim)`; folds
        where either AUC is undefined are skipped."""
        out = {}
        for name, (a, b) in ABLATION_PAIRS.items():
            for label, results_a in self.results.items():
                family, _, dim = label.partition("(")
                results_b = self.results.get(f"{b}({dim}")
                if family != a or results_b is None:
                    continue
                folds_a = {f.fold: f.auc for f in results_a}
                folds_b = {f.fold: f.auc for f in results_b}
                ds = [folds_a[i] - folds_b[i] for i in sorted(folds_a)
                      if folds_a[i] is not None and folds_b.get(i) is not None]
                out[f"{name}({dim}"] = {
                    "per_fold": ds,
                    "mean": float(np.mean(ds)) if ds else None,
                    "std": float(np.std(ds)) if ds else None,
                }
        return out

    def to_json(self):
        return json.dumps({
            "k": self.k, "seed": self.seed,
            "aggregate": self.aggregate(),
            "folds": {label: [f.__dict__ for f in folds]
                      for label, folds in self.results.items()},
            "paired_deltas": self.paired_deltas(),
        }, indent=2)

    def format_table(self):
        agg = self.aggregate()
        lines = [f"{'model':<24} {'AUC':>16} {'NLL':>16} {'ACC':>16}"]
        order = sorted(agg, key=lambda l: -(agg[l]["auc_mean"] or 0.0))
        for label in order:
            a = agg[label]
            auc_s = ("--" if a["auc_mean"] is None
                     else f"{a['auc_mean']:.3f} +/- {a['auc_std']:.3f}")
            lines.append(
                f"{label:<24} {auc_s:>16} "
                f"{a['nll_mean']:.3f} +/- {a['nll_std']:.3f} "
                f"{a['acc_mean']:.3f} +/- {a['acc_std']:.3f}")
        return "\n".join(lines)


def fit_model(dm, rows, glm_config, gibbs_config, eval_rows=None):
    """Fit `dm`'s `rows` (None: all) at its spec's dim, by L-BFGS at dim 0
    and Gibbs sampling above; returns the `LinearParams` or `FMFit` and the
    predicted probabilities of the `eval_rows` (None without them)."""
    X, y = (dm.X, dm.y) if rows is None else (dm.X[rows], dm.y[rows])
    eval_X = None if eval_rows is None else dm.X[eval_rows]
    if dm.spec.dim == 0:
        params = glm.fit_logistic(X, y, glm_config)
        return params, (None if eval_X is None
                        else glm.predict_proba(params, eval_X))
    fit = fm_mod.fit_fm_gibbs(X, y, dm.spec.dim, gibbs_config,
                              groups=dm.layout.group_of_feature(),
                              eval_X=eval_X)
    return fit, fit.eval_probs


def cross_validate(dataset, specs, k=5, seed=0, glm_config=None,
                   gibbs_config=None, model_sink=None):
    """Student-level k-fold CV over a list of ModelSpec; returns MetricsTable.

    `model_sink(label, fold, fitted, dm)` receives every fitted model when
    given, along with the design matrix it was trained on.
    """
    folds = student_kfold(dataset, k, seed)
    fold_of_row = np.array([folds.fold_of_student[s]
                            for s in dataset.students])[dataset.student]
    table = MetricsTable(k=k, seed=seed)
    for spec in specs:
        dm = encode_dataset(dataset, spec)
        for fold in range(k):
            test_mask = fold_of_row == fold
            fitted, probs = fit_model(dm, ~test_mask, glm_config,
                                      gibbs_config, eval_rows=test_mask)
            if fitted.converged is False:
                warnings.warn(
                    f"{spec.label} fold {fold}: L-BFGS stopped after "
                    f"{fitted.n_iter} iterations without converging")
            y_test = dm.y[test_mask]
            try:
                fold_auc = auc(probs, y_test)
            except MetricError:
                warnings.warn(
                    f"{spec.label} fold {fold}: single-class test labels, "
                    "AUC undefined; excluded from the mean")
                fold_auc = None
            table.add(spec.label, FoldResult(
                fold=fold, auc=fold_auc, nll=nll(probs, y_test),
                acc=accuracy(probs, y_test), n_test=int(test_mask.sum()),
                converged=fitted.converged, n_iter=fitted.n_iter,
                final_loss=fitted.final_loss, grad_norm=fitted.grad_norm))
            if model_sink is not None:
                model_sink(spec.label, fold, fitted, dm)
    return table
