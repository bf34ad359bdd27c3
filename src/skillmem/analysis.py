"""Post-fit interpretation: forgetting-curve slopes and recall queries.

Both are read-only over fitted models and score rows of window counts
through `ModelFile.probability`. Slopes read linear (dim=0) das3h weights:
the probability drop when a single past win ages out of one time window,
everything else held at a documented reference operating point. Recall
scores the window counts (`ModelFile.counts`) of one student's `_Counter`s,
the state the encoder, the truth and the simulator keep; `history_counters`
builds them from a one-student history `Dataset`.
"""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .corpus import atomic_open
from .encoder import FAMILY_TABLE, ModelSpec, record
from .errors import ConfigError
from .glm import LinearParams
from .modelio import ModelFile


@dataclass
class SlopeEntry:
    skill: str
    mean_drop_pct: float
    std_pct: float
    n_folds: int
    n_pairs: int
    unseen: bool = False


@dataclass
class SlopeReport:
    entries: list[SlopeEntry] = field(default_factory=list)

    def write_csv(self, path):
        with atomic_open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["skill_id", "mean_drop_pct", "std", "n_folds",
                        "n_pairs", "unseen"])
            for e in self.entries:
                w.writerow([e.skill, e.mean_drop_pct, e.std_pct, e.n_folds,
                            e.n_pairs, int(e.unseen)])


def _slope_folds(models, layouts):
    """Per fold model, what its slope readout needs for any skill: (layout
    skills, das3h `probability`, offset = mean user bias + mean item bias,
    the window counts of the base point and of each transition)."""
    family, folds = FAMILY_TABLE["das3h"], []
    for params, layout in zip(models, layouts):
        if not isinstance(params, LinearParams):
            raise ConfigError("forgetting_slope needs dim=0 (linear) models")
        probability = ModelFile(ModelSpec("das3h"), layout, params,
                                {}).probability
        offset = sum(float(np.mean(params.weights[family.columns(layout, b)]))
                     for b in ("users", "items"))
        W = family.columns(layout, "wins").shape[1]
        counts = [[1] * W] + [[int(v != w) for v in range(W)]
                              for w in range(W - 1)]
        folds.append((layout.skills, probability, offset, counts))
    return folds


def _slope(folds, skill):
    """`forgetting_slope` of `skill` over `_slope_folds`' folds."""
    per_fold = []
    for skills, probability, offset, counts in folds:
        if skill not in skills:
            continue
        base, *aged = [probability([(n, n)], None, None, [skill], offset)
                       for n in counts]
        drops = [base - q for q in aged]
        per_fold.append(100.0 * float(np.mean(drops)))
    if not per_fold:
        warnings.warn(f"skill {skill!r} unseen in training; slope undefined")
        return SlopeEntry(skill, float("nan"), float("nan"), 0, 0, unseen=True)
    return SlopeEntry(
        skill=skill,
        mean_drop_pct=float(np.mean(per_fold)),
        std_pct=float(np.std(per_fold)),
        n_folds=len(per_fold),
        n_pairs=len(drops),
    )


def forgetting_slope(models, layouts, skill):
    """Mean correctness-probability drop (percentage points) when one win
    ages from window w into w+1, for one skill, averaged over the adjacent
    window transitions and over the per-fold models.

    Reference operating point: one win / one attempt present in every window,
    user and item biases at their fitted means, the skill's own easiness bias
    active; a transition is the point with window w's counts at zero.
    """
    return _slope(_slope_folds(models, layouts), skill)


def slope_report(models, layouts):
    """`forgetting_slope` of every skill of the layouts, each fold's readout
    set up once for all skills."""
    skills = sorted({k for lay in layouts for k in lay.skills})
    folds = _slope_folds(models, layouts)
    return SlopeReport(entries=[_slope(folds, k) for k in skills])


def history_counters(model, history, query_time):
    """(counters, student) of a one-student `history` Dataset: its rows at or
    before `query_time`, recorded in time order to `model`'s family keys (the
    item's skills in `history.qmatrix`, or the item). The student is the
    history's own whenever it has rows, even if none is that early, and None
    for an empty history. A history of several students, or a query time
    that is not finite, is an error."""
    students = history.students
    if len(students) > 1:
        raise ConfigError(f"history spans several students: {students}")
    if not math.isfinite(query_time):
        raise ConfigError(f"query time must be finite, got {query_time}")
    family, h = FAMILY_TABLE[model.spec.family], history
    tags = [h.qmatrix.skills_of(j) for j in h.items]
    prior = np.flatnonzero(h.timestamp <= query_time)
    prior = prior[np.argsort(h.timestamp[prior], kind="stable")]
    counters = {}
    for j, t, c in zip(h.item[prior].tolist(), h.timestamp[prior].tolist(),
                       h.correct[prior].tolist()):
        record(counters, family.history_keys(h.items[j], tags[j]), t, c)
    return counters, (students[0] if students else None)


def recall_probability(model, counters, skills, query_time, item=None,
                       student=None, *, qmatrix):
    """Probability of answering correctly a virtual item over `skills` at
    `query_time`, given one student's `counters` (family key -> `_Counter`
    of answers at or before `query_time`).

    The row is scored by `model.probability`, which reads it by the
    family's table entry as batch encoding does. A `student` outside the
    layout (or None) has no user bias. An `item` that `qmatrix` tags must be
    queried over its tagged skills, or ConfigError. When `item` is None, the
    item bias is proxied by the mean fitted bias over the layout items that
    `qmatrix` tags with the queried skills, pooled once per model and
    q-matrix in `model.item_proxies`, and is the score's `offset`; a family
    without item biases has a proxy of 0. A family whose history is keyed by
    item (dash_items) needs an `item`: without one, ConfigError. An FM model
    answers with the probit of its posterior-mean score, whereas
    cross-validation scores held-out rows by the probit probabilities
    averaged over the kept chain; the two differ when the posterior is
    spread out.

    The query's state is what `model.counts` counts: the window counts of
    each history key the row reads, and the row is built from them alone.
    `model.recalls` keeps, per distinct query (student, item, skills,
    proxy), its last state and answer, so it holds one entry per distinct
    query however many times are asked. When the state is unchanged the
    stored float is returned, which is the float the row would score to;
    otherwise `model.probability` scores the row from the counts taken.
    """
    skills = sorted(set(skills))
    if not skills:
        raise ConfigError("empty skill set")
    if not model.skill_ids.issuperset(skills):
        unknown = [k for k in skills if k not in model.skill_ids]
        raise ConfigError(f"skills not in model: {unknown}")

    key = tuple(skills)
    if item is not None:
        if item not in model.item_ids:
            raise ConfigError(f"item {item!r} not in model")
        tagged = qmatrix.skills_of(item)
        if tagged and tagged != key:
            raise ConfigError(f"item {item!r} is tagged {list(tagged)} in the "
                              f"q-matrix, not {skills}")
        proxy = 0.0
    else:
        proxy = model.item_proxies.get((key, qmatrix))
        if proxy is None:
            proxy = model.item_proxies[key, qmatrix] = _item_proxy(
                model, skills, qmatrix)

    state = model.counts(counters, query_time, item, skills)
    query = student, item, key, proxy
    last = model.recalls.get(query)
    if last is not None and last[0] == state:
        return last[1]
    p = model.probability(state, student, item, skills, offset=proxy)
    model.recalls[query] = state, p
    return p


def _item_proxy(model, skills, qmatrix):
    """Mean fitted bias of the layout items `qmatrix` tags with `skills`;
    0.0 when the family has no item biases (afm, pfa). ConfigError when
    the family counts practice by item, as the query would read none."""
    family = FAMILY_TABLE[model.spec.family]
    if family.key == "items" and family.history:
        raise ConfigError(f"{model.spec.family} counts practice by item: "
                          "a recall query needs an item")
    if "items" not in family.indicators:
        return 0.0
    tagged = set().union(*map(qmatrix.items_of, skills))
    pool = [i for i, it in enumerate(model.layout.items) if it in tagged]
    cols = family.columns(model.layout, "items")
    return float(np.mean(model.linear_weights[cols[pool]])) if pool else 0.0
