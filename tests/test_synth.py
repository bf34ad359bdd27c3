import numpy as np
import pytest

from conftest import rows_of
from skillmem.encoder import ModelSpec, _Counter, encode_dataset
from skillmem.glm import sigmoid
from skillmem.synth import SynthConfig, make_synthetic

MULTI_SKILL = SynthConfig(seed=5, n_students=30, n_items=40, n_skills=6,
                          interactions_per_student=80,
                          multi_skill_fraction=0.6)


@pytest.fixture(params=["small_synth", "multi_skill"])
def generated(request):
    if request.param == "small_synth":
        return request.getfixturevalue("small_synth")
    return make_synthetic(MULTI_SKILL)


def test_truth_scores_rows_as_the_encoder_does(generated):
    ds, truth = generated
    streamed = []
    for s in ds.students:
        counters = {}
        for r in rows_of(ds, s):
            streamed.append(truth.prob(s, r.item, counters, r.timestamp))
            for k in ds.qmatrix.skills_of(r.item):
                counters.setdefault(k, _Counter()).push(r.timestamp,
                                                        r.correct)
    dm = encode_dataset(ds, ModelSpec("das3h", 0))
    encoded = sigmoid(dm.X @ truth.to_model_file(ds).params.weights)
    assert len(streamed) == dm.n_rows
    assert np.max(np.abs(np.asarray(streamed) - encoded)) <= 1e-12
