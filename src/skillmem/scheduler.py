"""Threshold-based practice recommendation and a batch policy simulator.

The heuristic: practice the skill whose predicted recall is closest to a
target threshold, then pick the covering item whose skill-combination score
(mean distance of its skills' recalls from the threshold) is smallest. This
is plumbing around the fitted model, not a learned policy. A policy is
`pick(counters, now, rng)`, over the simulated student's per-skill counters.
A threshold pick asks the model once for each skill's recall, into one
dict of each skill's distance from the threshold, and both steps read that
dict's `__getitem__`; each skill's covering items and their skills are read
from the q-matrix once per config (`SchedulerConfig.covering`).
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .analysis import recall_probability
from .corpus import atomic_open
from .errors import ConfigError, SchedulingError


@dataclass
class SchedulerConfig:
    threshold: float = 0.5
    skills: list = field(default_factory=list)
    qmatrix: object = None

    def __post_init__(self):
        if not 0.0 < self.threshold < 1.0:
            raise ConfigError(f"threshold must be in (0,1), got {self.threshold}")
        self.skills = sorted(self.skills)  # once, not on every pick

    @cached_property
    def covering(self):
        """Skill -> the (item, item's skills) pairs of the q-matrix items
        tagged with it, in item order; read from the q-matrix once."""
        qm = self.qmatrix
        return {k: tuple((j, qm.skills_of(j)) for j in qm.items_of(k))
                for k in qm.skills}


def next_skill(distance, config):
    """Skill whose `distance(skill)` from the threshold is smallest; ties ->
    lowest id."""
    if not config.skills:
        raise SchedulingError("empty skill pool")
    return min(config.skills, key=distance)


def next_item(skill, distance, config):
    """Among the q-matrix items covering `skill`, minimize the mean
    `distance` of the item's skills from the threshold; ties -> lowest id."""
    covering = config.covering.get(skill)
    if not covering:
        raise SchedulingError(f"no item covers skill {skill!r}")
    means = [sum([distance(k) for k in skills]) / len(skills)
             for _, skills in covering]
    return covering[means.index(min(means))][0]


def threshold_policy(model, config):
    """Policy closure: skill at threshold distance, then a covering item."""
    if config.qmatrix is None:
        raise ConfigError("threshold policy needs a q-matrix")
    # the skills either step reads: the pool and every covering item's
    skills = sorted(set(config.skills).union(config.qmatrix.skills))
    threshold, qmatrix = config.threshold, config.qmatrix

    def pick(counters, now, rng):
        distance = {k: abs(recall_probability(model, counters, [k], now,
                                              qmatrix=qmatrix) - threshold)
                    for k in skills}.__getitem__
        return next_item(next_skill(distance, config), distance, config)

    return pick


def random_policy(item_pool):
    def pick(counters, now, rng):
        return item_pool[int(rng.integers(len(item_pool)))]

    return pick


@dataclass
class SimulationResult:
    """End-of-horizon mean true recall per policy, per seed."""

    per_seed: dict            # policy -> list of mean recalls

    def mean_recall(self, policy):
        return float(np.mean(self.per_seed[policy]))

    def write_csv(self, path):
        with atomic_open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["policy", "seed_index", "mean_end_recall"])
            for policy, vals in self.per_seed.items():
                for i, v in enumerate(vals):
                    w.writerow([policy, i, v])


def simulate_policy(generator, policies, session_times, horizon, seeds):
    """Run each policy on synthetic students answering from the ground truth.

    `generator` is a SyntheticModel; answers are sampled from its true
    probability and pushed to the per-skill `_Counter`s that the policy
    reads. The student is in no layout, so has no user bias. For each seed
    every policy sees the same student; the report holds the mean true
    recall over all skills at the horizon. Raises ConfigError for no seeds,
    a time that is not finite, decreasing session times or a horizon before
    the last session.
    """
    seeds = list(seeds)
    if not seeds:
        raise ConfigError("no seeds to simulate")
    if not np.all(np.isfinite([*session_times, horizon])):
        raise ConfigError(f"horizon {horizon} and session times must be "
                          "finite")
    if np.any(np.diff(session_times) < 0):
        raise ConfigError("session times must not decrease")
    if len(session_times) and horizon < session_times[-1]:
        raise ConfigError(f"horizon {horizon} is before the last session "
                          f"at {session_times[-1]}")
    skills = generator.qmatrix.skills
    per_seed = {name: [] for name in policies}
    for seed in seeds:
        for name, policy in policies.items():
            rng = np.random.default_rng((seed, hash(name) & 0xFFFF))
            counters = {}
            for t in session_times:
                item = policy(counters, t, rng)
                generator.respond(None, item, counters, float(t), rng)
            end_recalls = [
                generator.prob(None, None, counters, horizon, skills=[k])
                for k in skills
            ]
            per_seed[name].append(float(np.mean(end_recalls)))
    return SimulationResult(per_seed=per_seed)
