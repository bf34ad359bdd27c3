"""Synthetic interaction generator with known ground-truth parameters.

The generator draws labels from a linear (dim=0) das3h scorer with genuine
forgetting: win weights are largest for the shortest windows, so recent
practice helps more than old practice. The truth's probabilities come from
its own das3h model file (`ModelFile.probability`), over per-skill
`_Counter`s pushed as answers are drawn, as any fitted model's do. It is used
for the bundled fixture, recovery tests and scheduler simulations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .corpus import Dataset, QMatrix
from .encoder import (DEFAULT_WINDOWS, FAMILY_TABLE, ModelSpec, _Counter,
                      build_layout)
from .glm import LinearParams
from .modelio import ModelFile


@dataclass
class SynthConfig:
    n_students: int = 20
    n_items: int = 12
    n_skills: int = 3
    interactions_per_student: int = 12
    horizon_days: float = 60.0
    multi_skill_fraction: float = 0.25
    user_sd: float = 0.3
    item_sd: float = 0.3
    skill_mean: float = 0.2
    skill_sd: float = 0.2
    # per-window win weights, shortest window first; jittered per skill
    win_weights: tuple = (1.2, 0.9, 0.6, 0.3, 0.1)
    win_jitter: float = 0.3
    attempt_weights: tuple = (-0.1, -0.1, -0.1, -0.1, -0.1)
    # optional non-uniform primary-skill assignment probabilities for items
    item_skill_probs: tuple | None = None
    seed: int = 0


@dataclass
class SyntheticModel:
    """Ground-truth linear das3h parameters in weight space. A row is scored
    by the truth's own model file (`to_model_file` over its students and
    items), as any fitted das3h model scores it."""

    user_w: dict
    item_w: dict
    skill_w: dict
    win_w: dict      # skill -> per-window weight list
    att_w: dict
    qmatrix: QMatrix

    def __post_init__(self):
        # the truth's own layout: its students and items, no rows
        model = self.to_model_file(
            Dataset.from_rows((), self.qmatrix, self.user_w))
        self._counts, self._probability = model.counts, model.probability

    def prob(self, student, item, counters, t, skills=None):
        """True probability of a correct answer to `item` at time `t`, given
        a `_Counter` per skill of the student's past answers. A virtual item
        over `skills` (`item` None) has no item bias."""
        skills = (self.qmatrix.skills_of(item) if skills is None
                  else sorted(skills))
        return self._probability(self._counts(counters, t, item, skills),
                                 student, item, skills)

    def respond(self, student, item, counters, t, rng):
        """Draw the answer to `item` at `t` from `prob`, push it to the
        counters of the item's skills and return it."""
        correct = int(rng.uniform() < self.prob(student, item, counters, t))
        for k in self.qmatrix.skills_of(item):
            counters.setdefault(k, _Counter()).push(t, correct)
        return correct

    def to_model_file(self, dataset):
        """Pack the true parameters as a fitted-model container."""
        spec = ModelSpec("das3h", 0)
        layout = build_layout(spec, dataset)
        weights, skills = np.zeros(layout.n_features), layout.skills
        for name, values in (
                ("users", [self.user_w.get(s, 0.0) for s in layout.students]),
                ("items", [self.item_w.get(j, 0.0) for j in layout.items]),
                ("skills", [self.skill_w[k] for k in skills]),
                ("wins", [self.win_w[k] for k in skills]),
                ("attempts", [self.att_w[k] for k in skills])):
            weights[FAMILY_TABLE["das3h"].columns(layout, name)] = values
        params = LinearParams(weights=weights, intercept=0.0, l2_strength=0.0)
        return ModelFile(spec=spec, layout=layout, params=params,
                         training_config={"generator": "synthetic-truth"})


def _draw_session_times(rng, n, horizon):
    """Practice times mixing within-session minutes and multi-day gaps."""
    gaps = np.where(
        rng.uniform(size=n) < 0.6,
        rng.exponential(0.02, size=n),   # ~30 min within a session
        rng.exponential(3.0, size=n),    # days between sessions
    )
    t = np.concatenate([[0.0], np.cumsum(gaps)[:-1]])
    scale = horizon / max(t[-1], 1e-9) if t[-1] > horizon else 1.0
    return t * scale


def make_synthetic(config=None):
    """Generate (Dataset, SyntheticModel) from known parameters."""
    config = config or SynthConfig()
    rng = np.random.default_rng(config.seed)
    W = len(DEFAULT_WINDOWS)
    students = [f"s{i:03d}" for i in range(config.n_students)]
    items = [f"i{j:03d}" for j in range(config.n_items)]
    skills = [f"k{k}" for k in range(config.n_skills)]

    entries = set()
    for j, item in enumerate(items):
        if config.item_skill_probs is not None and j >= config.n_skills:
            primary = skills[int(rng.choice(config.n_skills,
                                            p=config.item_skill_probs))]
        else:
            primary = skills[j % config.n_skills]  # every skill covered once
        entries.add((item, primary))
        if rng.uniform() < config.multi_skill_fraction and config.n_skills > 1:
            other = skills[int(rng.integers(config.n_skills))]
            entries.add((item, other))
    qm = QMatrix(entries)

    win_base = np.asarray(config.win_weights[:W], dtype=float)
    att_base = np.asarray(config.attempt_weights[:W], dtype=float)
    truth = SyntheticModel(
        user_w={s: float(rng.normal(0, config.user_sd)) for s in students},
        item_w={j: float(rng.normal(0, config.item_sd)) for j in items},
        skill_w={k: float(rng.normal(config.skill_mean, config.skill_sd))
                 for k in skills},
        win_w={k: (win_base * np.exp(rng.normal(0, config.win_jitter, W))).tolist()
               for k in skills},
        att_w={k: att_base.tolist() for k in skills},
        qmatrix=qm,
    )

    rows = []
    for s in students:
        times = _draw_session_times(rng, config.interactions_per_student,
                                    config.horizon_days)
        counters = {}
        for t in times.tolist():
            item = items[int(rng.integers(config.n_items))]
            rows.append((s, item, t, truth.respond(s, item, counters, t, rng)))
    return Dataset.from_rows(rows, qm), truth
