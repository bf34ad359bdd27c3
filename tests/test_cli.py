import json
import math
import os
import re
import stat
import subprocess
import sys
import time
import warnings

import numpy as np
import pytest
from click.testing import CliRunner

from skillmem import corpus, evaluation, fm, glm
from skillmem.analysis import recall_probability, slope_report
from skillmem.cli import main, run
from skillmem.corpus import save_dataset
from skillmem.encoder import (ModelSpec, WindowSet, build_layout,
                              encode_dataset, load_design, save_design,
                              spec_to_dict)
from skillmem.errors import ConfigError, EncodingError
from skillmem.modelio import ModelFile, atomic_open, load_model, save_model
from skillmem.scheduler import SimulationResult
from conftest import FIXTURE_PATH, rewrite_design

REPO = os.path.join(os.path.dirname(__file__), "..")


@pytest.fixture()
def runner():
    return CliRunner()


def test_help_exits_zero(runner):
    result = runner.invoke(main, ["--help"])
    assert result.exit_code == 0
    assert "prepare" in result.output
    assert "schedule-sim" in result.output


def test_missing_required_flag_exits_two():
    assert run(["cv"]) == 2


def test_unknown_subcommand_exits_two():
    assert run(["frobnicate"]) == 2


def test_stats_command(runner):
    result = runner.invoke(main, ["stats", "--in", FIXTURE_PATH])
    assert result.exit_code == 0
    doc = json.loads(result.output)
    assert doc["users"] == 20
    assert doc["skills"] == 3


def test_end_to_end_pipeline(runner, tmp_path):
    """prepare -> encode -> train -> cv on the bundled fixture, < 10 s."""
    started = time.time()
    prepared = str(tmp_path / "prepared.csv")
    r = runner.invoke(main, ["prepare", "--in", FIXTURE_PATH,
                             "--format", "generic", "--min-interactions", "5",
                             "--out", prepared])
    assert r.exit_code == 0, r.output
    assert os.path.exists(prepared)
    assert os.path.exists(os.path.join(tmp_path, "manifest.json"))

    encoded = str(tmp_path / "design.npz")
    r = runner.invoke(main, ["encode", "--in", prepared, "--model", "das3h",
                             "--dim", "0", "--out", encoded])
    assert r.exit_code == 0, r.output

    model = str(tmp_path / "model.json")
    r = runner.invoke(main, ["train", "--encoded", encoded, "--l2", "0.01",
                             "--out", model])
    assert r.exit_code == 0, r.output
    assert json.load(open(model))["kind"] == "linear"

    out_dir = str(tmp_path / "cv_out")
    r = runner.invoke(main, ["cv", "--in", prepared, "--models", "irt,das3h",
                             "--dims", "0", "--folds", "3", "--seed", "1",
                             "--l2", "0.01", "--out", out_dir])
    assert r.exit_code == 0, r.output
    metrics = json.load(open(os.path.join(out_dir, "metrics.json")))
    assert "das3h(d=0)" in metrics["aggregate"]
    manifest = json.load(open(os.path.join(out_dir, "manifest.json")))
    assert manifest["command"] == "cv"
    assert manifest["seed"] == 1
    assert prepared in manifest["input_hashes"]
    assert time.time() - started < 10.0


def test_slopes_from_cv_models(runner, tmp_path):
    prepared = str(tmp_path / "prepared.csv")
    runner.invoke(main, ["prepare", "--in", FIXTURE_PATH, "--format",
                         "generic", "--min-interactions", "5",
                         "--out", prepared])
    out_dir = str(tmp_path / "cv_out")
    r = runner.invoke(main, ["cv", "--in", prepared, "--models", "das3h",
                             "--dims", "0", "--folds", "3", "--seed", "1",
                             "--l2", "0.01", "--out", out_dir])
    assert r.exit_code == 0, r.output
    slopes = str(tmp_path / "slopes.csv")
    r = runner.invoke(main, ["analyze", "slopes", "--model-dir",
                             os.path.join(out_dir, "models"),
                             "--out", slopes])
    assert r.exit_code == 0, r.output
    assert open(slopes).readline().startswith("skill_id")


def test_recall_command(runner, tmp_path):
    prepared = str(tmp_path / "prepared.csv")
    runner.invoke(main, ["prepare", "--in", FIXTURE_PATH, "--format",
                         "generic", "--min-interactions", "5",
                         "--out", prepared])
    encoded = str(tmp_path / "design.npz")
    runner.invoke(main, ["encode", "--in", prepared, "--out", encoded])
    model = str(tmp_path / "model.json")
    runner.invoke(main, ["train", "--encoded", encoded, "--l2", "0.01",
                         "--out", model])
    # one student's history in generic format
    hist = str(tmp_path / "student.csv")
    with open(FIXTURE_PATH) as fh, open(hist, "w") as out:
        lines = fh.readlines()
        out.write(lines[0])
        out.writelines(l for l in lines[1:] if l.startswith("s000,"))
    r = runner.invoke(main, ["analyze", "recall", "--model", model,
                             "--history", hist, "--skills", "k0,k1",
                             "--at-day", "14"])
    assert r.exit_code == 0, r.output
    doc = json.loads(r.output)
    assert 0.0 < doc["recall_probability"] < 1.0


def test_recall_without_item_on_an_afm_model(tmp_path, capsys):
    # afm has no item biases: a query without --item has a proxy of 0
    encoded = str(tmp_path / "design.npz")
    assert run(["encode", "--in", FIXTURE_PATH, "--model", "afm",
                "--out", encoded]) == 0
    model = str(tmp_path / "model.json")
    assert run(["train", "--encoded", encoded, "--l2", "0.01",
                "--out", model]) == 0
    hist = str(tmp_path / "student.csv")
    with open(FIXTURE_PATH) as fh, open(hist, "w") as out:
        lines = fh.readlines()
        out.write(lines[0])
        out.writelines(l for l in lines[1:] if l.startswith("s000,"))
    capsys.readouterr()
    assert run(["analyze", "recall", "--model", model, "--history", hist,
                "--skills", "k0,k1", "--at-day", "14"]) == 0
    p = json.loads(capsys.readouterr().out)["recall_probability"]
    assert 0.0 < p < 1.0


def test_recall_without_item_on_a_dash_items_model_fails_typed(tmp_path,
                                                               capsys):
    # dash_items counts practice by item: without --item the query would
    # read none of the history, so it is refused
    encoded = str(tmp_path / "design.npz")
    assert run(["encode", "--in", FIXTURE_PATH, "--model", "dash_items",
                "--out", encoded]) == 0
    model = str(tmp_path / "model.json")
    assert run(["train", "--encoded", encoded, "--l2", "0.01",
                "--out", model]) == 0
    hist = str(tmp_path / "student.csv")
    with open(FIXTURE_PATH) as fh, open(hist, "w") as out:
        lines = fh.readlines()
        out.write(lines[0])
        out.writelines(l for l in lines[1:] if l.startswith("s000,"))
    capsys.readouterr()
    assert run(["analyze", "recall", "--model", model, "--history", hist,
                "--skills", "k0", "--at-day", "14"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "needs an item" in err
    assert "Traceback" not in err
    assert run(["analyze", "recall", "--model", model, "--history", hist,
                "--skills", "k0", "--item", "i000", "--at-day", "14"]) == 0


def test_recall_rejects_history_of_several_students(tmp_path, capsys):
    encoded = str(tmp_path / "design.npz")
    assert run(["encode", "--in", FIXTURE_PATH, "--out", encoded]) == 0
    model = str(tmp_path / "model.json")
    assert run(["train", "--encoded", encoded, "--l2", "0.01",
                "--out", model]) == 0
    capsys.readouterr()
    assert run(["analyze", "recall", "--model", model,
                "--history", FIXTURE_PATH, "--skills", "k0",
                "--at-day", "14"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "several students" in err and "s000" in err


@pytest.fixture(scope="module")
def recall_inputs(tmp_path_factory):
    """A das3h model of the prepared fixture and student s000's history."""
    tmp = tmp_path_factory.mktemp("recall")
    prepared, encoded = str(tmp / "prepared.csv"), str(tmp / "design.npz")
    model, hist = str(tmp / "model.json"), str(tmp / "student.csv")
    assert run(["prepare", "--in", FIXTURE_PATH, "--min-interactions", "5",
                "--out", prepared]) == 0
    assert run(["encode", "--in", prepared, "--out", encoded]) == 0
    assert run(["train", "--encoded", encoded, "--l2", "0.01",
                "--out", model]) == 0
    with open(prepared) as fh, open(hist, "w") as out:
        lines = fh.readlines()
        out.write(lines[0])
        out.writelines(l for l in lines[1:] if l.startswith("s000,"))
    return ["analyze", "recall", "--model", model, "--history", hist]


def test_recall_of_an_item_over_skills_it_is_not_tagged_with_fails_typed(
        recall_inputs, capsys):
    # s000's history tags i002 with k2 alone
    assert run([*recall_inputs, "--item", "i002", "--skills", "k2",
                "--at-day", "14"]) == 0
    capsys.readouterr()
    assert run([*recall_inputs, "--item", "i002", "--skills", "k1",
                "--at-day", "14"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "'i002'" in err
    assert "['k2']" in err and "['k1']" in err and "Traceback" not in err


def test_recall_at_a_day_that_is_not_a_number_fails_typed(recall_inputs,
                                                          capsys):
    capsys.readouterr()
    assert run([*recall_inputs, "--skills", "k0", "--at-day", "nan"]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and "finite" in captured.err
    assert captured.out == "" and "Traceback" not in captured.err


@pytest.mark.parametrize("field,value", [("weights", "NaN"),
                                         ("intercept", "Infinity")])
def test_recall_and_schedule_sim_on_a_non_finite_model_fail_typed(
        recall_inputs, tmp_path, capsys, field, value):
    # the das3h model with its first weight or its intercept not finite
    source = recall_inputs[recall_inputs.index("--model") + 1]
    doc = json.load(open(source))
    if field == "weights":
        doc["linear"]["weights"][0] = float(value)
    else:
        doc["linear"]["intercept"] = float(value)
    model = tmp_path / "model.json"
    model.write_text(json.dumps(doc))
    inputs = [str(model) if a == source else a for a in recall_inputs]
    out = tmp_path / "sim.csv"
    for argv in ([*inputs, "--skills", "k0", "--at-day", "14"],
                 ["schedule-sim", "--model", str(model), "--sessions", "5",
                  "--seeds", "2", "--out", str(out)]):
        capsys.readouterr()
        assert run(argv) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error:")
        assert "model.json" in captured.err
        assert f"{field} is not finite" in captured.err
        assert captured.out == "" and "Traceback" not in captured.err
    assert not out.exists()


def test_prepare_of_a_log_with_a_timestamp_that_is_not_finite_fails_typed(
        tmp_path, capsys):
    with open(FIXTURE_PATH) as fh:
        lines = fh.readlines()
    fields = lines[5].split(",")
    fields[2] = "nan"
    lines[5] = ",".join(fields)
    raw = tmp_path / "raw.csv"
    raw.write_text("".join(lines))
    prepared = tmp_path / "out" / "prepared.csv"
    assert run(["prepare", "--in", str(raw), "--out", str(prepared)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: line 6: ")
    assert "not finite" in captured.err and "Traceback" not in captured.err
    assert captured.out == "" and not prepared.exists()


def test_family_names_from_table(runner, tmp_path):
    encoded = str(tmp_path / "design.npz")
    r = runner.invoke(main, ["encode", "--in", FIXTURE_PATH,
                             "--model", "DAS3H-1p", "--out", encoded])
    assert r.exit_code == 0, r.output
    assert json.load(open(encoded + ".json"))["spec"]["family"] == "das3h_1p"
    assert run(["cv", "--in", FIXTURE_PATH, "--models", "irt,bogus",
                "--out", str(tmp_path / "cv_out")]) == 2


def test_schedule_sim_command(runner, tmp_path):
    out = str(tmp_path / "sim.csv")
    r = runner.invoke(main, ["schedule-sim", "--policy", "threshold,random",
                             "--threshold", "0.7", "--horizon", "30",
                             "--sessions", "10", "--seeds", "3",
                             "--out", out])
    assert r.exit_code == 0, r.output
    assert os.path.exists(out)
    assert "threshold" in r.output


def test_atomic_outputs_no_tmp_left(runner, tmp_path):
    prepared = str(tmp_path / "prepared.csv")
    runner.invoke(main, ["prepare", "--in", FIXTURE_PATH, "--format",
                         "generic", "--min-interactions", "5",
                         "--out", prepared])
    leftovers = [f for f in os.listdir(tmp_path) if f.endswith(".tmp")]
    assert leftovers == []


class _FailingFile:
    """A file whose first write stores half of its data, then raises."""

    def __init__(self, fh):
        self._fh = fh

    def write(self, data):
        self._fh.write(data[:len(data) // 2])
        raise OSError("disk full")

    def __getattr__(self, name):
        return getattr(self._fh, name)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._fh.close()


def _writers(dataset):
    """name -> (file the failing write targets, write of the artifact to a
    path) for each writer of an artifact."""
    das3h = encode_dataset(dataset, ModelSpec("das3h", 0))
    params = glm.LinearParams(np.zeros(das3h.layout.n_features), 0.0, 0.0)
    model = ModelFile(spec=das3h.spec, layout=das3h.layout, params=params,
                      training_config={})
    return {
        "save_dataset": ("", lambda p: save_dataset(dataset, p)),
        "save_design": ("", lambda p: save_design(das3h, p)),
        "design_sidecar": (".json", lambda p: save_design(das3h, p)),
        "save_model": ("", lambda p: save_model(model, p)),
        "slopes_csv": ("", lambda p: slope_report(
            [params], [das3h.layout]).write_csv(p)),
        "simulation_csv": ("", lambda p: SimulationResult(
            {"random": [0.5, 0.25]}).write_csv(p)),
    }


@pytest.mark.parametrize("writer", ["save_dataset", "save_design",
                                    "design_sidecar", "save_model",
                                    "slopes_csv", "simulation_csv"])
def test_a_write_raising_midway_keeps_the_old_file(tmp_path, monkeypatch,
                                                   fixture_dataset, writer):
    suffix, write = _writers(fixture_dataset)[writer]
    path = str(tmp_path / "artifact")
    write(path)
    old = {f: (tmp_path / f).read_bytes() for f in os.listdir(tmp_path)}

    def failing_open(file, *args, **kwargs):
        fh = open(file, *args, **kwargs)
        return _FailingFile(fh) if file.startswith(path + suffix + ".") else fh

    monkeypatch.setattr(corpus, "open", failing_open, raising=False)
    with pytest.raises(OSError, match="disk full"):
        write(path)
    assert {f: (tmp_path / f).read_bytes()
            for f in os.listdir(tmp_path)} == old


def test_a_torn_design_pair_fails_to_load(tmp_path, monkeypatch,
                                          fixture_dataset):
    # the archive of a dim-1 design lands, then its sidecar write raises
    # and leaves the dim-0 sidecar beside it; the shapes agree
    path = str(tmp_path / "design.npz")
    dm = encode_dataset(fixture_dataset, ModelSpec("das3h", 0))
    save_design(dm, path)
    dm.spec = ModelSpec("das3h", 1)

    def failing_open(file, *args, **kwargs):
        fh = open(file, *args, **kwargs)
        return _FailingFile(fh) if file.startswith(path + ".json.") else fh

    monkeypatch.setattr(corpus, "open", failing_open, raising=False)
    with pytest.raises(OSError, match="disk full"):
        save_design(dm, path)
    assert json.load(open(path + ".json"))["spec"]["dim"] == 0
    with pytest.raises(EncodingError, match="not written with it"):
        load_design(path)


def test_encode_writes_the_default_spec(tmp_path):
    # encode's windows are DEFAULT_WINDOWS, as cv's, the truth's and
    # schedule-sim's are: the first one is exactly 1/24 day
    out = str(tmp_path / "design.npz")
    assert run(["encode", "--in", FIXTURE_PATH, "--out", out]) == 0
    sidecar = json.load(open(out + ".json"))
    assert sidecar["spec"] == spec_to_dict(ModelSpec("das3h", 0))


def _corrupt(doc, how):
    """A model document of `doc` with one part no longer its layout's, or
    one value not finite."""
    point = doc.get("fm", {}).get("posterior_mean")
    if how == "truncated-weights":
        doc["linear"]["weights"] = doc["linear"]["weights"][:10]
    elif how == "one-item-too-few":
        doc["layout"]["items"] = doc["layout"]["items"][:-1]
    elif how == "fm-embedding-width":
        point["embeddings"] = [row[:1] for row in point["embeddings"]]
    elif how == "nan-weight":
        doc["linear"]["weights"][0] = float("nan")
    elif how == "inf-intercept":
        doc["linear"]["intercept"] = float("inf")
    elif how == "fm-nan-bias":
        point["global_bias"] = float("nan")
    elif how == "fm-inf-weight":
        point["linear_weights"][-1] = float("-inf")
    else:
        point["embeddings"][3][1] = float("nan")
    return doc


@pytest.mark.parametrize("how,dim,reason", [
    ("truncated-weights", 0, "weights of shape (10,)"),
    ("one-item-too-few", 0, "layout blocks"),
    ("fm-embedding-width", 2, "embeddings of shape"),
    ("nan-weight", 0, "weights is not finite"),
    ("inf-intercept", 0, "intercept is not finite"),
    ("fm-nan-bias", 2, "global_bias is not finite"),
    ("fm-inf-weight", 2, "linear_weights is not finite"),
    ("fm-nan-embedding", 2, "embeddings is not finite"),
])
def test_load_model_rejects_weights_that_disagree_with_the_layout(
        tmp_path, fixture_dataset, how, dim, reason):
    spec = ModelSpec("das3h", dim)
    layout = build_layout(spec, fixture_dataset)
    n = layout.n_features
    params = (glm.LinearParams(weights=np.zeros(n), intercept=0.0,
                               l2_strength=0.0) if dim == 0 else
              fm.FMFit(fm.FMParams(global_bias=0.0, linear_weights=np.zeros(n),
                                   embeddings=np.zeros((n, dim)))))
    path = tmp_path / "m.json"
    save_model(ModelFile(spec=spec, layout=layout, params=params,
                         training_config={}), str(path))
    load_model(str(path))
    path.write_text(json.dumps(_corrupt(json.loads(path.read_text()), how)))
    with pytest.raises(ConfigError, match="m.json") as info:
        load_model(str(path))
    assert reason in str(info.value)


def test_load_model_rejects_a_zero_window(tmp_path, fixture_dataset):
    dm = encode_dataset(fixture_dataset, ModelSpec("das3h", 0))
    params = glm.fit_logistic(dm.X, dm.y, glm.FitConfig(l2_strength=0.01))
    path = tmp_path / "m.json"
    save_model(ModelFile(spec=dm.spec, layout=dm.layout, params=params,
                         training_config={}), str(path))
    doc = json.loads(path.read_text())
    doc["spec"]["windows"] = [0, "inf"]
    path.write_text(json.dumps(doc))
    with pytest.raises(ConfigError, match="m.json.*positive"):
        load_model(str(path))


@pytest.mark.parametrize("field", [
    "spec.dim", "spec.windows", "linear.intercept", "linear.l2_strength",
    "linear.n_iter", "fm.global_bias"])
def test_load_model_rejects_a_boolean_where_a_number_is_stored(
        tmp_path, fixture_dataset, field):
    # each stored number is 1, so `true` in its place read as 1 would load
    kind, name = field.split(".")
    dim = 1 if field in ("spec.dim", "fm.global_bias") else 0
    spec = ModelSpec("das3h", dim, WindowSet((1.0, math.inf)))
    layout = build_layout(spec, fixture_dataset)
    n = layout.n_features
    params = (glm.LinearParams(weights=np.zeros(n), intercept=1.0,
                               l2_strength=1.0, n_iter=1) if dim == 0 else
              fm.FMFit(fm.FMParams(global_bias=1.0, linear_weights=np.zeros(n),
                                   embeddings=np.zeros((n, dim)))))
    path = tmp_path / "m.json"
    save_model(ModelFile(spec=spec, layout=layout, params=params,
                         training_config={}), str(path))
    load_model(str(path))
    doc = json.loads(path.read_text())
    part = doc["fm"]["posterior_mean"] if kind == "fm" else doc[kind]
    if name == "windows":
        part[name][0] = True
    else:
        part[name] = True
    path.write_text(json.dumps(doc))
    with pytest.raises(ConfigError, match="m.json") as info:
        load_model(str(path))
    assert "is true, not a number" in str(info.value)


@pytest.mark.parametrize("value", [1, 0, "true", None])
def test_load_model_rejects_converged_that_is_not_a_boolean(
        tmp_path, fixture_dataset, value):
    spec = ModelSpec("das3h", 0)
    layout = build_layout(spec, fixture_dataset)
    params = glm.LinearParams(np.zeros(layout.n_features), 0.0, 0.0)
    path = tmp_path / "m.json"
    save_model(ModelFile(spec=spec, layout=layout, params=params,
                         training_config={}), str(path))
    doc = json.loads(path.read_text())
    doc["linear"]["converged"] = value
    path.write_text(json.dumps(doc))
    with pytest.raises(ConfigError, match="m.json.*converged"):
        load_model(str(path))


def test_atomic_open_creates_files_as_open_does(tmp_path):
    with open(tmp_path / "plain", "w") as fh:
        fh.write("x")
    with atomic_open(str(tmp_path / "atomic")) as fh:
        fh.write("x")
    modes = [stat.S_IMODE(os.stat(tmp_path / f).st_mode)
             for f in ("plain", "atomic")]
    assert modes[0] == modes[1]


def test_model_roundtrip(tmp_path, fixture_dataset):
    from skillmem import glm
    from skillmem.encoder import ModelSpec, encode_dataset
    from skillmem.modelio import ModelFile, load_model, save_model
    dm = encode_dataset(fixture_dataset, ModelSpec("das3h", 0))
    params = glm.fit_logistic(dm.X, dm.y, glm.FitConfig(l2_strength=0.01))
    path = str(tmp_path / "m.json")
    save_model(ModelFile(spec=dm.spec, layout=dm.layout, params=params,
                         training_config={"l2": 0.01}), path)
    back = load_model(path)
    assert back.kind == "linear"
    assert np.allclose(back.params.weights, params.weights)
    assert back.spec.family == "das3h"
    assert back.layout.blocks == dm.layout.blocks
    # fit diagnostics go to metrics.json, not into the model file
    with open(path) as fh:
        assert sorted(json.load(fh)["linear"]) == [
            "converged", "intercept", "l2_strength", "n_iter", "weights"]


def test_fm_model_roundtrip(tmp_path, fixture_dataset):
    from skillmem import fm as fm_mod
    from skillmem.encoder import ModelSpec, encode_dataset
    from skillmem.modelio import ModelFile, load_model, save_model
    dm = encode_dataset(fixture_dataset, ModelSpec("mirtb", 2))
    fit = fm_mod.fit_fm_gibbs(dm.X, dm.y, 2,
                              fm_mod.GibbsConfig(iterations=10, seed=0),
                              groups=dm.layout.group_of_feature())
    path = tmp_path / "m.json"
    save_model(ModelFile(spec=dm.spec, layout=dm.layout, params=fit,
                         training_config={}), str(path))
    back = load_model(str(path))
    assert back.kind == "fm"
    assert np.allclose(back.params.posterior_mean.embeddings,
                       fit.posterior_mean.embeddings)
    doc = json.loads(path.read_text())
    assert list(doc["fm"]) == ["posterior_mean"]
    # a file that also holds a final sample (as older versions wrote) loads,
    # and its final sample is ignored
    legacy = tmp_path / "legacy.json"
    final = dict(doc["fm"]["posterior_mean"], global_bias=5.0)
    legacy.write_text(json.dumps(
        dict(doc, fm=dict(doc["fm"], final_sample=final))))
    qm = fixture_dataset.qmatrix
    p = [recall_probability(load_model(str(f)), {}, qm.skills[:1], 3.0,
                            qmatrix=qm) for f in (path, legacy)]
    assert p[0] == p[1] and 0.0 < p[0] < 1.0


@pytest.mark.parametrize("options,reason", [
    (["--dims", "0,abc"], "dims must be integers"),
    (["--l2", "nan"], "l2 strength must be finite"),
    (["--l2", "-1"], "l2 strength must be finite"),
], ids=["dims-abc", "l2-nan", "l2-negative"])
def test_cv_rejects_bad_fit_options(tmp_path, capsys, options, reason):
    out = tmp_path / "cv"
    assert run(["cv", "--in", FIXTURE_PATH, *options, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and reason in err
    assert "Traceback" not in err and not out.exists()


@pytest.mark.parametrize("options,reason", [
    (["--seeds", "0"], "no seeds"),
    (["--horizon", "-5", "--seeds", "2"], "session times must not decrease"),
    (["--horizon", "nan", "--seeds", "2"], "must be finite"),
    (["--horizon", "inf", "--sessions", "5", "--seeds", "2"],
     "must be finite"),
], ids=["no-seeds", "negative-horizon", "nan-horizon", "inf-horizon"])
def test_schedule_sim_rejects_impossible_runs(tmp_path, capsys, options,
                                              reason):
    out = tmp_path / "sim.csv"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run(["schedule-sim", *options, "--out", str(out)]) == 1
    assert [str(w.message) for w in caught] == []
    err = capsys.readouterr().err
    assert err.startswith("error:") and reason in err
    assert "Traceback" not in err and not out.exists()


def test_schedule_sim_rejects_an_unknown_policy(tmp_path, capsys):
    out = tmp_path / "sim.csv"
    assert run(["schedule-sim", "--policy", "bogus", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage-error:") and "'bogus'" in err
    assert "Traceback" not in err and not out.exists()


def test_schedule_sim_rejects_negative_sessions(tmp_path, capsys):
    out = tmp_path / "sim.csv"
    assert run(["schedule-sim", "--sessions", "-1", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage-error:") and "--sessions" in err
    assert "Traceback" not in err and not out.exists()


def test_cv_iters_caps_the_lbfgs_iterations(tmp_path):
    # at a tiny l2 no fold converges in 5 iterations
    out = tmp_path / "cv"
    with pytest.warns(UserWarning, match="without converging"):
        assert run(["cv", "--in", FIXTURE_PATH, "--models", "das3h",
                    "--folds", "2", "--l2", "1e-5", "--iters", "5",
                    "--out", str(out)]) == 0
    folds = json.load(open(out / "metrics.json"))["folds"]["das3h(d=0)"]
    assert len(folds) == 2 and all(f["n_iter"] <= 5 for f in folds)
    assert json.load(open(out / "manifest.json"))["flags"]["iters"] == 5


def test_cv_without_iters_keeps_the_lbfgs_default_cap(tmp_path):
    # unset, --iters leaves L-BFGS its own cap of 500, not the sampler's
    # 300 sweeps: at the paper's l2 a fixture fold runs past 300 iterations,
    # and the metrics are those of a cross-validation at FitConfig's default
    out = tmp_path / "cv"
    with pytest.warns(UserWarning, match="without converging"):
        assert run(["cv", "--in", FIXTURE_PATH, "--models", "das3h",
                    "--folds", "2", "--l2", "1e-5", "--out", str(out)]) == 0
        direct = evaluation.cross_validate(
            corpus.load_prepared(FIXTURE_PATH), [ModelSpec("das3h")], k=2,
            seed=42, glm_config=glm.FitConfig(l2_strength=1e-5))
    assert (out / "metrics.json").read_text() == direct.to_json()
    folds = json.loads(direct.to_json())["folds"]["das3h(d=0)"]
    assert max(f["n_iter"] for f in folds) > 300
    assert "iters" not in json.load(open(out / "manifest.json"))["flags"]


@pytest.mark.parametrize("text,reason", [
    ("prepared,csv\n1,2\n", "JSONDecodeError"),
    ('{"rows": 3}', "'kind'"),
    ('[1, 2]', "TypeError"),
    ('{"kind": "tree"}', "unknown kind 'tree'"),
], ids=["not-json", "no-model-keys", "not-an-object", "unknown-kind"])
def test_load_model_rejects_a_non_model_file(tmp_path, text, reason):
    path = tmp_path / "stray.json"
    path.write_text(text)
    with pytest.raises(ConfigError, match="stray.json") as info:
        load_model(str(path))
    assert reason in str(info.value)


def test_slopes_over_a_stray_json_fails_typed(tmp_path, capsys):
    models = tmp_path / "models"
    models.mkdir()
    (models / "notes.json").write_text("not json")
    assert run(["analyze", "slopes", "--model-dir", str(models),
                "--out", str(tmp_path / "slopes.csv")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "notes.json" in err


def test_slopes_skip_other_files_and_need_a_linear_das3h_model(
        tmp_path, fitted_inputs, capsys):
    models = tmp_path / "models"
    models.mkdir()
    (models / "notes.txt").write_text("not a model")
    (models / "manifest.json").write_text('{"command": "cv"}')
    fold = "das3h_d0_fold0.json"
    with open(os.path.join(fitted_inputs[1], fold)) as fh:
        (models / fold).write_text(fh.read())
    slopes = str(tmp_path / "slopes.csv")
    assert run(["analyze", "slopes", "--model-dir", str(models),
                "--out", slopes]) == 0
    assert len(open(slopes).readlines()) == 1 + 3
    (models / fold).unlink()
    capsys.readouterr()
    assert run(["analyze", "slopes", "--model-dir", str(models),
                "--out", slopes]) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage-error:") and "no linear das3h" in err


def test_console_script_reports_typed_errors(tmp_path):
    # the installed `skillmem` command runs the target pyproject.toml names
    with open(os.path.join(REPO, "pyproject.toml")) as fh:
        scripts = fh.read().split("[project.scripts]")[1]
    module, attr = re.search(r'^skillmem\s*=\s*"([\w.]+):(\w+)"', scripts,
                             re.M).groups()
    code = (f"import sys; from {module} import {attr} as target; "
            f"sys.exit(target())")
    argv = ["train", "--encoded", FIXTURE_PATH,
            "--out", str(tmp_path / "model.json")]
    env = dict(os.environ, PYTHONPATH=os.path.join(REPO, "src"))
    proc = subprocess.run([sys.executable, "-c", code, *argv], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 1
    assert "error:" in proc.stderr and "Traceback" not in proc.stderr


def test_cli_import_leaves_scipy_stats_and_optimize_unloaded():
    # only a fit imports scipy.optimize, and nothing imports scipy.stats
    code = ("import sys, skillmem.cli; print(sorted(m for m in sys.modules "
            "if m in ('scipy.stats', 'scipy.optimize')))")
    env = dict(os.environ, PYTHONPATH=os.path.join(REPO, "src"))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_train_records_seed_only_for_gibbs(tmp_path):
    for dim, recorded in (("0", None), ("1", 7)):
        os.makedirs(tmp_path / f"dim{dim}")
        encoded = str(tmp_path / f"dim{dim}" / "design.npz")
        assert run(["encode", "--in", FIXTURE_PATH, "--dim", dim,
                    "--out", encoded]) == 0
        model = str(tmp_path / f"dim{dim}" / "model.json")
        assert run(["train", "--encoded", encoded, "--iters",
                    "4", "--seed", "7", "--out", model]) == 0
        config = json.load(open(model))["training_config"]
        manifest = json.load(open(os.path.join(os.path.dirname(model),
                                               "manifest.json")))
        assert config.get("seed") == recorded
        assert manifest["seed"] == recorded


@pytest.mark.parametrize("dim", [0, 1])
def test_train_writes_the_model_of_a_direct_fit(tmp_path, dim):
    # the file `train` writes holds the bytes of the design's direct fit
    # by the family's solver, saved with the same training config
    design = str(tmp_path / "design.npz")
    assert run(["encode", "--in", FIXTURE_PATH, "--dim", str(dim),
                "--out", design]) == 0
    model = str(tmp_path / "model.json")
    assert run(["train", "--encoded", design, "--l2", "0.01", "--iters", "6",
                "--seed", "3", "--out", model]) == 0
    dm = load_design(design)
    if dim == 0:
        params = glm.fit_logistic(dm.X, dm.y, glm.FitConfig(
            l2_strength=0.01, max_iterations=6))
        config = {"l2": 0.01, "converged": params.converged}
    else:
        params = fm.fit_fm_gibbs(dm.X, dm.y, dim,
                                 fm.GibbsConfig(iterations=6, seed=3),
                                 groups=dm.layout.group_of_feature())
        config = {"iterations": 6, "seed": 3}
    direct = str(tmp_path / "direct.json")
    save_model(ModelFile(spec=dm.spec, layout=dm.layout, params=params,
                         training_config=config), direct)
    with open(model, "rb") as a, open(direct, "rb") as b:
        assert a.read() == b.read()


def test_cv_and_slopes_write_only_their_outputs(tmp_path):
    cv = tmp_path / "cv"
    assert run(["cv", "--in", FIXTURE_PATH, "--models", "das3h",
                "--folds", "2", "--l2", "0.01", "--out", str(cv)]) == 0
    assert sorted(os.listdir(cv)) == ["manifest.json", "metrics.json",
                                      "models"]
    slopes = tmp_path / "slopes"
    assert run(["analyze", "slopes", "--model-dir", str(cv / "models"),
                "--out", str(slopes / "slopes.csv")]) == 0
    assert sorted(os.listdir(slopes)) == ["manifest.json", "slopes.csv"]


def test_train_has_no_dim_override(tmp_path, fitted_inputs):
    # the dim is the design's: `encode --dim` sets it
    assert run(["train", "--encoded", fitted_inputs[0], "--dim", "2",
                "--out", str(tmp_path / "model.json")]) == 2
    assert not (tmp_path / "model.json").exists()


def test_train_on_a_non_design_fails_typed(tmp_path, capsys):
    assert run(["train", "--encoded", FIXTURE_PATH,
                "--out", str(tmp_path / "model.json")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "fixture_small.csv" in err
    assert "pickle" not in err


@pytest.mark.parametrize("change,reason", [
    ({"family": "das3h_1p"}, "layout blocks"),
    ({"y": 2}, "not 0 or 1"),
], ids=["das3h_1p-spec", "label-2"])
def test_train_on_an_invalid_design_fails_typed(tmp_path, capsys, change,
                                                  reason):
    design = str(tmp_path / "design.npz")
    assert run(["encode", "--in", FIXTURE_PATH, "--out", design]) == 0
    rewrite_design(design, **change)
    capsys.readouterr()
    model = tmp_path / "train" / "model.json"
    assert run(["train", "--encoded", design, "--out", str(model)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "design.npz" in err and reason in err
    assert "Traceback" not in err
    assert not model.exists()


def test_prepare_writes_the_qmatrix_file_tags(tmp_path, capsys):
    # the --qmatrix file tags i1 with k3, which no row of the log does
    raw, qm = tmp_path / "raw.csv", tmp_path / "extra.csv"
    raw.write_text("user,item,timestamp,correct,skills\n"
                   "u1,i1,0,1,k1\n"
                   "u1,i2,1,0,k2\n"
                   "u1,i1,2,1,k1\n"
                   "u1,i3,3,0,k1~k2\n"
                   "u1,i2,4,1,k2\n")
    qm.write_text("item,skill\ni1,k3\n")
    prepared = str(tmp_path / "out" / "prepared.csv")
    assert run(["prepare", "--in", str(raw), "--qmatrix", str(qm),
                "--min-interactions", "1", "--out", prepared]) == 0
    printed = json.loads(capsys.readouterr().out)
    assert run(["stats", "--in", prepared]) == 0
    stats = json.loads(capsys.readouterr().out)
    assert stats["skills"] == printed["skills"] == 3
    with open(prepared) as fh:
        tags = {line.split(",")[4].strip() for line in fh
                if line.split(",")[1] == "i1"}
    assert tags == {"k1~k3"}


@pytest.fixture(scope="module")
def fitted_inputs(tmp_path_factory):
    """A fixture design and a directory of per-fold das3h models."""
    d = tmp_path_factory.mktemp("inputs")
    design = str(d / "design.npz")
    assert run(["encode", "--in", FIXTURE_PATH, "--out", design]) == 0
    assert run(["cv", "--in", FIXTURE_PATH, "--models", "das3h",
                "--folds", "2", "--l2", "0.01", "--out", str(d / "cv")]) == 0
    return design, str(d / "cv" / "models")


@pytest.mark.parametrize("command", ["prepare", "encode", "train",
                                     "analyze slopes", "schedule-sim"])
def test_output_into_missing_directory(tmp_path, fitted_inputs, command):
    design, models = fitted_inputs
    argv = {
        "prepare": ["prepare", "--in", FIXTURE_PATH,
                    "--min-interactions", "5"],
        "encode": ["encode", "--in", FIXTURE_PATH],
        "train": ["train", "--encoded", design, "--l2", "0.01"],
        "analyze slopes": ["analyze", "slopes", "--model-dir", models],
        "schedule-sim": ["schedule-sim", "--horizon", "30",
                         "--sessions", "5", "--seeds", "2"],
    }[command]
    out_dir = tmp_path / "a" / "b"
    assert run(argv + ["--out", str(out_dir / "out")]) == 0
    assert (out_dir / "out").exists()
    assert (out_dir / "manifest.json").exists()


def test_manifests_record_every_option_and_input(tmp_path, fitted_inputs):
    qm = tmp_path / "qm.csv"
    qm.write_text("item,skill\ni000,k9\n")
    prepared = str(tmp_path / "prep" / "prepared.csv")
    assert run(["prepare", "--in", FIXTURE_PATH, "--qmatrix", str(qm),
                "--min-interactions", "5", "--out", prepared]) == 0
    manifest = json.load(open(tmp_path / "prep" / "manifest.json"))
    assert manifest["command"] == "prepare"
    assert manifest["flags"] == {"in": FIXTURE_PATH, "format": "generic",
                                 "min_interactions": 5, "qmatrix": str(qm),
                                 "out": prepared}
    assert sorted(manifest["input_hashes"]) == sorted([FIXTURE_PATH, str(qm)])

    model = os.path.join(fitted_inputs[1], "das3h_d0_fold0.json")
    sim = str(tmp_path / "sim" / "sim.csv")
    assert run(["schedule-sim", "--model", model, "--horizon", "30",
                "--sessions", "4", "--seeds", "1", "--seed", "3",
                "--out", sim]) == 0
    manifest = json.load(open(tmp_path / "sim" / "manifest.json"))
    assert manifest["command"] == "schedule-sim"
    assert manifest["flags"]["sessions"] == 4
    assert manifest["flags"]["model"] == model
    assert "seed" not in manifest["flags"] and manifest["seed"] == 3
    assert list(manifest["input_hashes"]) == [model]


def test_slopes_manifest_hashes_the_fold_models(tmp_path, fitted_inputs):
    models = fitted_inputs[1]
    slopes = str(tmp_path / "slopes.csv")
    assert run(["analyze", "slopes", "--model-dir", models,
                "--out", slopes]) == 0
    manifest = json.load(open(tmp_path / "manifest.json"))
    folds = [os.path.join(models, f"das3h_d0_fold{f}.json") for f in (0, 1)]
    assert sorted(manifest["input_hashes"]) == folds
    assert manifest["flags"]["model_dir"] == models


def test_cv_writes_paired_deltas(tmp_path):
    out_dir = tmp_path / "cv"
    assert run(["cv", "--in", FIXTURE_PATH, "--models", "das3h,das3h_1p,irt",
                "--folds", "2", "--l2", "0.01", "--out", str(out_dir)]) == 0
    metrics = json.load(open(out_dir / "metrics.json"))
    deltas = metrics["paired_deltas"]
    assert list(deltas) == ["per_skill_vs_shared(d=0)"]
    aucs = {label: [f["auc"] for f in folds]
            for label, folds in metrics["folds"].items()}
    assert deltas["per_skill_vs_shared(d=0)"]["per_fold"] == [
        a - b for a, b in zip(aucs["das3h(d=0)"], aucs["das3h_1p(d=0)"])]


def test_overwritten_manifest_warns_naming_the_replaced_command(tmp_path,
                                                                 capsys):
    out = tmp_path / "d"
    assert run(["prepare", "--in", FIXTURE_PATH, "--min-interactions", "5",
                "--out", str(out / "prepared.csv")]) == 0
    assert "warning" not in capsys.readouterr().err
    assert run(["schedule-sim", "--horizon", "30", "--sessions", "3",
                "--seeds", "1", "--out", str(out / "sim.csv")]) == 0
    err = capsys.readouterr().err
    assert "warning:" in err and "`prepare`" in err and "`schedule-sim`" in err
    assert json.load(open(out / "manifest.json"))["command"] == "schedule-sim"
    # the same command again replaces its own record without a warning
    assert run(["schedule-sim", "--horizon", "30", "--sessions", "3",
                "--seeds", "1", "--out", str(out / "sim.csv")]) == 0
    assert "warning" not in capsys.readouterr().err


def _with_byte(path, out, line, byte):
    """`path` with `byte` put first on its `line` (1-based), written to
    `out`."""
    with open(path, "rb") as fh:
        lines = fh.read().split(b"\n")
    lines[line - 1] = byte + lines[line - 1]
    with open(out, "wb") as fh:
        fh.write(b"\n".join(lines))
    return str(out)


@pytest.mark.parametrize("where", ["log", "qmatrix", "history"])
def test_a_byte_that_is_not_utf8_fails_typed_naming_its_line(
        recall_inputs, tmp_path, capsys, where):
    qmatrix = tmp_path / "q.csv"
    qmatrix.write_text("item,skill\ni001,k0\ni002,k2\n")
    if where == "history":
        hist = recall_inputs[recall_inputs.index("--history") + 1]
        argv = [*recall_inputs[:-1], _with_byte(hist, tmp_path / "h.csv", 2,
                                                b"\xff"),
                "--skills", "k0", "--at-day", "14"]
    else:
        log = (_with_byte(FIXTURE_PATH, tmp_path / "raw.csv", 7, b"\xff")
               if where == "log" else FIXTURE_PATH)
        argv = ["prepare", "--in", log, "--out", str(tmp_path / "p.csv")]
        if where == "qmatrix":
            argv += ["--qmatrix", _with_byte(qmatrix, tmp_path / "bad.csv",
                                             3, b"\xff")]
    assert run(argv) == 1
    captured = capsys.readouterr()
    line = {"log": 7, "qmatrix": 3, "history": 2}[where]
    assert captured.err.startswith(f"error: line {line}: byte 0xff is not "
                                   "UTF-8")
    assert captured.out == "" and "Traceback" not in captured.err


def test_a_stray_quote_in_a_long_log_fails_typed(tmp_path, capsys):
    # the quote opens a field that runs past csv's field limit (128 KiB)
    with open(FIXTURE_PATH, "rb") as fh:
        header, *rows = fh.read().splitlines(keepends=True)
    rows = rows * 20
    rows[9] = b'"' + rows[9]
    raw = tmp_path / "raw.csv"
    raw.write_bytes(header + b"".join(rows))
    assert raw.stat().st_size > 131072
    assert run(["prepare", "--in", str(raw),
                "--out", str(tmp_path / "p.csv")]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: line ")
    assert "field limit" in captured.err and "Traceback" not in captured.err
