"""The model file: `modelio._FIELDS` is the one list of its fields, which
`save_model` writes and `load_model` reads, each value through
`encoder.json_value`."""

import json
import math

import numpy as np
import pytest

from skillmem import fm, glm
from skillmem.encoder import ModelSpec, encode_dataset, json_value
from skillmem.errors import ConfigError
from skillmem.modelio import ModelFile, load_model, save_model


@pytest.fixture(scope="module")
def model_files(tmp_path_factory, fixture_dataset):
    """A fitted linear das3h model and a dim-2 FM one of the fixture."""
    tmp, paths = tmp_path_factory.mktemp("models"), {}
    for kind, dim in (("linear", 0), ("fm", 2)):
        dm = encode_dataset(fixture_dataset, ModelSpec("das3h", dim))
        params = (glm.fit_logistic(dm.X, dm.y, glm.FitConfig(l2_strength=0.01))
                  if dim == 0 else fm.fit_fm_gibbs(
                      dm.X, dm.y, dim, fm.GibbsConfig(iterations=10, seed=0)))
        paths[kind] = str(tmp / f"{kind}.json")
        save_model(ModelFile(spec=dm.spec, layout=dm.layout, params=params,
                             training_config={"fold": 0}), paths[kind])
    return paths


def edited(model_files, tmp_path, kind, edit):
    """The path of a copy of the `kind` model whose document `edit` changed
    in place."""
    with open(model_files[kind]) as fh:
        doc = json.load(fh)
    edit(doc)
    path = tmp_path / "m.json"
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.mark.parametrize("kind", ["linear", "fm"])
def test_saving_a_loaded_model_gives_back_its_bytes(model_files, tmp_path,
                                                    kind):
    again = str(tmp_path / "again.json")
    save_model(load_model(model_files[kind]), again)
    with open(model_files[kind], "rb") as a, open(again, "rb") as b:
        assert a.read() == b.read()


@pytest.mark.parametrize("kind,field,index", [
    ("linear", "weights", (3,)), ("fm", "linear_weights", (3,)),
    ("fm", "embeddings", (3, 1))])
@pytest.mark.parametrize("value", [True, False])
def test_a_boolean_in_a_weight_array_is_refused(model_files, tmp_path, kind,
                                                field, index, value):
    def edit(doc):
        block = doc["linear"] if kind == "linear" else \
            doc["fm"]["posterior_mean"]
        at = block[field]
        for i in index[:-1]:
            at = at[i]
        at[index[-1]] = value

    path = edited(model_files, tmp_path, kind, edit)
    with pytest.raises(ConfigError, match="m.json") as info:
        load_model(path)
    assert f"a value of {field} is not a number" in str(info.value)


@pytest.mark.parametrize("kind,where,reason", [
    # an integer past the largest float is not finite as a float
    ("linear", ("linear", "intercept"), "intercept is not finite"),
    ("linear", ("linear", "weights", 0), "weights is not finite"),
    ("fm", ("fm", "posterior_mean", "embeddings", 0, 0),
     "embeddings is not finite")])
def test_an_integer_too_large_for_a_float_is_refused(model_files, tmp_path,
                                                     kind, where, reason):
    def edit(doc):
        for key in where[:-1]:
            doc = doc[key]
        doc[where[-1]] = 10 ** 400

    with pytest.raises(ConfigError, match=reason):
        load_model(edited(model_files, tmp_path, kind, edit))


@pytest.mark.parametrize("kind,edit,reason", [
    ("linear", lambda d: d["spec"]["windows"].__setitem__(-1, math.inf),
     "a window width is not finite"),
    ("linear", lambda d: d["linear"].__setitem__("l2_strength", math.inf),
     "l2_strength is not finite"),
    ("linear", lambda d: d["linear"].__setitem__("n_iter", 3.0),
     "n_iter is 3.0, not a number written as an integer"),
    ("linear", lambda d: d["layout"].__setitem__("skills", "k0"),
     'skills is "k0", not a list'),
    ("linear", lambda d: d["layout"]["items"].__setitem__(0, 7),
     "a value of items is not a string"),
    ("fm", lambda d: d["fm"]["posterior_mean"].pop("hyperparams"),
     "KeyError: 'hyperparams'"),
    ("fm", lambda d: d["fm"]["posterior_mean"].__setitem__("hyperparams", []),
     "hyperparams is [], not an object"),
], ids=["numeric-infinite-window", "infinite-l2", "float-n_iter",
        "ids-not-a-list", "id-not-a-string", "no-hyperparams",
        "hyperparams-not-an-object"])
def test_a_field_not_of_its_json_kind_is_refused(model_files, tmp_path, kind,
                                                 edit, reason):
    with pytest.raises(ConfigError, match="m.json") as info:
        load_model(edited(model_files, tmp_path, kind, edit))
    assert reason in str(info.value)


@pytest.mark.parametrize("value,kind,want", [
    (3, "int", 3), (3, "float", 3.0), (0.5, "float", 0.5),
    (False, "bool", False), ({"a": 1}, "dict", {"a": 1}),
    ("x", "str", "x"), (["a", "b"], "strs", ["a", "b"]),
    ([], "floats", []), ([1, 2.5], "floats", [1.0, 2.5]),
    ([[1, 2], [3, 4.5]], "floats", [[1.0, 2.0], [3.0, 4.5]])])
def test_json_value_gives_back_a_value_of_its_kind(value, kind, want):
    got = json_value(value, kind, "v")
    assert (got.tolist() if kind == "floats" else got) == want
    assert type(got) is (np.ndarray if kind == "floats" else type(want))


@pytest.mark.parametrize("value,kind", [
    (True, "int"), (True, "float"), (1, "bool"), (2.0, "int"),
    (math.nan, "float"), (-math.inf, "float"), (10 ** 400, "float"),
    ("1.5", "float"), (None, "float"), ([], "dict"), (1, "str"),
    ("ab", "strs"), (["a", None], "strs"), (1.5, "floats"),
    ([0.5, True], "floats"), ([[0.5], [False]], "floats"),
    (["1.5"], "floats"), ([None], "floats"), ([[1], [1, 2]], "floats"),
    ([1, [2]], "floats"), ([{}], "floats"), ([[0.5], [{}]], "floats"),
    ([math.inf], "floats"), ([1, 10 ** 400], "floats")])
def test_json_value_refuses_a_value_of_another_kind(value, kind):
    with pytest.raises(ValueError):
        json_value(value, kind, "v")
