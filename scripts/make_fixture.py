#!/usr/bin/env python3
"""Regenerate the bundled synthetic fixture dataset (data/fixture_small.csv).

The fixture has 3 skills, 20 students and known generating parameters; tests
and the CLI demo rely on it. Deterministic for a fixed seed.
"""

import json
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from skillmem.corpus import save_dataset
from skillmem.synth import SynthConfig, make_synthetic

OUT = os.path.join(os.path.dirname(__file__), "..", "data", "fixture_small.csv")


def write_fixture(out):
    """Write the fixture CSV to `out` and its generating truth to
    `out + ".truth.json"`."""
    config = SynthConfig(seed=12345)
    dataset, truth = make_synthetic(config)
    save_dataset(dataset, out)
    with open(out + ".truth.json", "w") as fh:
        json.dump({
            "seed": config.seed,
            "user_w": truth.user_w,
            "item_w": truth.item_w,
            "skill_w": truth.skill_w,
            "win_w": truth.win_w,
            "att_w": truth.att_w,
        }, fh, indent=2)
    print(f"wrote {dataset.n_interactions} interactions to {out}")


if __name__ == "__main__":
    write_fixture(OUT)
