"""Post-fit interpretation: forgetting-curve slopes and recall queries.

Both are read-only over fitted models. Slopes are closed-form readouts of
linear (dim=0) das3h weights: the probability drop when a single past win
ages out of one time window, everything else held at a documented reference
operating point. Recall scores, by the fitted model's `ModelFile.score`, the
row built from the window counts (`ModelFile.counts`) of one student's
`_Counter`s, the state the encoder, the truth and the simulator keep;
`history_counters` builds them from a one-student history `Dataset`.
"""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .corpus import atomic_open
from .encoder import FAMILY_TABLE, _Counter
from .errors import ConfigError
from .fm import probit
from .glm import LinearParams, sigmoid

LOG2 = math.log(2.0)


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


def forgetting_slope(models, layouts, skill):
    """Mean correctness-probability drop (percentage points) when one win
    ages from window w into w+1, for one skill, averaged over the adjacent
    window transitions and over the per-fold models.

    Reference operating point: one win / one attempt present in every window,
    user and item biases at their fitted means, the skill's own easiness bias
    active.
    """
    per_fold = []
    seen = False
    for params, layout in zip(models, layouts):
        if not isinstance(params, LinearParams):
            raise ConfigError("forgetting_slope needs dim=0 (linear) models")
        if skill not in layout.skills:
            continue
        seen = True
        k = layout.skills.index(skill)
        w = {name: params.weights[FAMILY_TABLE["das3h"].columns(layout, name)]
             for name in layout.blocks}
        pair_w = w["wins"][k] + w["attempts"][k]  # per window
        user_mean = float(np.mean(w["users"]))
        item_mean = float(np.mean(w["items"]))
        beta = w["skills"][k]
        z = (params.intercept + user_mean + item_mean + beta
             + LOG2 * sum(pair_w))
        drops = [sigmoid(z) - sigmoid(z - LOG2 * pw) for pw in pair_w[:-1]]
        n_pairs = len(drops)
        per_fold.append(100.0 * float(np.mean(drops)))
    if not seen:
        warnings.warn(f"skill {skill!r} unseen in training; slope undefined")
        return SlopeEntry(skill, float("nan"), float("nan"), 0, 0, unseen=True)
    return SlopeEntry(
        skill=skill,
        mean_drop_pct=float(np.mean(per_fold)),
        std_pct=float(np.std(per_fold)),
        n_folds=len(per_fold),
        n_pairs=n_pairs,
    )


def slope_report(models, layouts):
    skills = sorted({k for lay in layouts for k in lay.skills})
    return SlopeReport(
        entries=[forgetting_slope(models, layouts, k) for k in skills])


def history_counters(model, history, query_time):
    """(counters, student) of a one-student `history` Dataset: its rows at or
    before `query_time`, pushed in time order to `model`'s family keys (the
    item's skills in `history.qmatrix`, or the item). The student is the
    history's own whenever it has rows, even if none is that early, and None
    for an empty history. A history of several students is an error."""
    students = history.students
    if len(students) > 1:
        raise ConfigError(f"history spans several students: {students}")
    family, h = FAMILY_TABLE[model.spec.family], history
    tags = [h.qmatrix.skills_of(j) for j in h.items]
    prior = np.flatnonzero(h.timestamp <= query_time)
    prior = prior[np.argsort(h.timestamp[prior], kind="stable")]
    counters = {}
    for j, t, c in zip(h.item[prior].tolist(), h.timestamp[prior].tolist(),
                       h.correct[prior].tolist()):
        for key in family.history_keys(h.items[j], tags[j]):
            counters.setdefault(key, _Counter()).push(t, c)
    return counters, (students[0] if students else None)


def recall_probability(model, counters, skills, query_time, item=None,
                       student=None, *, qmatrix):
    """Probability of answering correctly a virtual item over `skills` at
    `query_time`, given one student's `counters` (family key -> `_Counter`
    of answers at or before `query_time`).

    The row is scored by `model.score`, which builds it by the family's
    table entry as batch encoding does. A `student` outside the layout (or
    None) has no user bias. When `item` is None, the item bias is proxied
    by the mean fitted bias over the layout items that `qmatrix` tags with
    the queried skills, pooled once per model and q-matrix in
    `model.item_proxies`; a family without item biases has a proxy of 0.
    A family whose history is keyed by item (dash_items) needs an `item`:
    without one, ConfigError. An FM model answers with the
    probit of its posterior-mean score, whereas cross-validation scores
    held-out rows by the probit probabilities averaged over the kept chain;
    the two differ when the posterior is spread out.

    The query's state is what `model.counts` counts: the window counts of
    each history key the row reads, and the row is built from them alone.
    `model.recalls` keeps, per distinct query (student, item, skills,
    proxy), its last state and answer, so it holds one entry per distinct
    query however many times are asked. When the state is unchanged the
    stored float is returned, which is the float the row would score to;
    otherwise `model.score` scores the row from the counts already taken.
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
    z = model.score(state, student, item, skills) + proxy
    p = float(sigmoid(z) if model.kind == "linear" else probit(z))
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
    layout, params = model.layout, model.params
    tagged = set().union(*map(qmatrix.items_of, skills))
    pool = [i for i, it in enumerate(layout.items) if it in tagged]
    cols = family.columns(layout, "items")
    weights = (params.weights if model.kind == "linear"
               else params.posterior_mean.linear_weights)
    return float(np.mean(weights[cols[pool]])) if pool else 0.0
