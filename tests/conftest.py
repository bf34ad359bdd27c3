import os
from collections import namedtuple

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


@pytest.fixture(scope="session")
def fixture_dataset():
    return load_prepared(FIXTURE_PATH)


@pytest.fixture(scope="session")
def small_synth():
    return make_synthetic(SynthConfig(seed=99))
