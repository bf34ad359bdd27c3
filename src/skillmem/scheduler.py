"""Threshold-based practice recommendation and a batch policy simulator.

The heuristic: practice the skill whose predicted recall is closest to a
target threshold, then pick the covering item whose skill-combination score
(mean distance of its skills' recalls from the threshold) is smallest. This
is plumbing around the fitted model, not a learned policy.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

from .analysis import recall_probability
from .errors import ConfigError, SchedulingError


@dataclass
class SchedulerConfig:
    threshold: float = 0.5
    skills: list = field(default_factory=list)
    qmatrix: object = None

    def __post_init__(self):
        if not 0.0 < self.threshold < 1.0:
            raise ConfigError(f"threshold must be in (0,1), got {self.threshold}")


def _skill_recalls(model, history, skills, config, now):
    return {
        k: recall_probability(model, history, [k], now, item=None,
                              qmatrix=config.qmatrix)
        for k in skills
    }


def next_skill(model, history, config, now):
    """Skill whose recall is closest to the threshold; ties -> lowest id."""
    if not config.skills:
        raise SchedulingError("empty skill pool")
    recalls = _skill_recalls(model, history, config.skills, config, now)
    best = None
    for k in sorted(config.skills):
        dist = abs(recalls[k] - config.threshold)
        if best is None or dist < best[0]:
            best = (dist, k)
    return best[1]


def next_item(model, skill, item_pool, history, config, now):
    """Among items covering `skill`, minimize the mean distance of the item's
    skills' recalls from the threshold; ties -> lowest item id."""
    if config.qmatrix is None:
        raise ConfigError("scheduler needs a q-matrix for item selection")
    eligible = [j for j in item_pool if skill in config.qmatrix.skills_of(j)]
    if not eligible:
        raise SchedulingError(f"no item covers skill {skill!r}")
    needed = set()
    for j in eligible:
        needed |= config.qmatrix.skills_of(j)
    recalls = _skill_recalls(model, history, sorted(needed), config, now)
    best = None
    for j in sorted(eligible):
        dists = [abs(recalls[k] - config.threshold)
                 for k in config.qmatrix.skills_of(j)]
        score = float(np.mean(dists))
        if best is None or score < best[0]:
            best = (score, j)
    return best[1]


def threshold_policy(model, config):
    """Policy closure: pick skill at threshold distance, then covering item."""

    def pick(history, now, rng):
        skill = next_skill(model, history, config, now)
        return next_item(model, skill, config.qmatrix.items, history, config,
                         now)

    return pick


def random_policy(item_pool):
    def pick(history, now, rng):
        return item_pool[int(rng.integers(len(item_pool)))]

    return pick


@dataclass
class SimulationResult:
    """End-of-horizon mean true recall per policy, per seed."""

    per_seed: dict            # policy -> list of mean recalls
    session_times: list
    horizon: float

    def mean_recall(self, policy):
        return float(np.mean(self.per_seed[policy]))

    def write_csv(self, path):
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["policy", "seed_index", "mean_end_recall"])
            for policy, vals in self.per_seed.items():
                for i, v in enumerate(vals):
                    w.writerow([policy, i, v])


def simulate_policy(generator, policies, session_times, horizon, seeds,
                    student="sim"):
    """Run each policy on synthetic students answering from the ground truth.

    `generator` is a SyntheticModel; answers are sampled from its true
    probability, over per-skill `_Counter`s of the student's past answers
    that each answer is pushed to. For each seed every policy sees the same
    student; the report holds the mean true recall over all skills at the
    horizon.
    """
    from .corpus import Interaction

    skills = generator.qmatrix.skills
    per_seed = {name: [] for name in policies}
    for seed in seeds:
        for name, policy in policies.items():
            rng = np.random.default_rng((seed, hash(name) & 0xFFFF))
            history, counters = [], {}
            for t in session_times:
                item = policy(history, t, rng)
                correct, row_skills = generator.respond(
                    student, item, counters, float(t), rng)
                history.append(
                    Interaction(student, item, float(t), correct, row_skills))
            end_recalls = [
                generator.prob(student, None, counters, horizon, skills=[k])
                for k in skills
            ]
            per_seed[name].append(float(np.mean(end_recalls)))
    return SimulationResult(per_seed=per_seed,
                            session_times=list(session_times),
                            horizon=horizon)
