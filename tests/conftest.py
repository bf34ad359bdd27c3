import hashlib
import json
import os
from collections import namedtuple

import numpy as np
import pytest

from skillmem.corpus import load_prepared
from skillmem.synth import SynthConfig, make_synthetic

FIXTURE_PATH = os.path.join(os.path.dirname(__file__), "..", "data",
                            "fixture_small.csv")

Row = namedtuple("Row", "student item timestamp correct")


def rows_of(dataset, student=None):
    """The dataset's rows as `Row`s in row order, all or one student's."""
    rows = [Row(dataset.students[s], dataset.items[j], t, c) for s, j, t, c
            in zip(dataset.student.tolist(), dataset.item.tolist(),
                   dataset.timestamp.tolist(), dataset.correct.tolist())]
    return [r for r in rows if student in (None, r.student)]


def rewrite_design(path, family=None, dim=None, **first):
    """Re-save the design archive at `path` with the first entry of each
    array named in `first` set to its value and, given a `family` or a
    `dim`, its sidecar's spec holding them, the archive's digest of the
    sidecar recomputed."""
    with np.load(path, allow_pickle=False) as npz:
        arrays = dict(npz)
    for name, value in first.items():
        arrays[name][0] = value
    spec = {k: v for k, v in (("family", family), ("dim", dim))
            if v is not None}
    if spec:
        with open(path + ".json") as fh:
            sidecar = json.load(fh)
        sidecar["spec"].update(spec)
        raw = json.dumps(sidecar).encode()
        with open(path + ".json", "wb") as fh:
            fh.write(raw)
        arrays["sidecar_sha256"] = np.asarray(hashlib.sha256(raw).hexdigest())
    with open(path, "wb") as fh:
        np.savez(fh, **arrays)


@pytest.fixture(scope="session")
def fixture_dataset():
    return load_prepared(FIXTURE_PATH)


@pytest.fixture(scope="session")
def small_synth():
    return make_synthetic(SynthConfig(seed=99))
