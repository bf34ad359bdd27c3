import json
import os
import time

import numpy as np
import pytest
from click.testing import CliRunner

from skillmem.cli import main, run
from conftest import FIXTURE_PATH


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

    encoded = str(tmp_path / "design.txt")
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
    encoded = str(tmp_path / "design.txt")
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


def test_recall_rejects_history_of_several_students(tmp_path, capsys):
    encoded = str(tmp_path / "design.txt")
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


def test_family_names_from_table(runner, tmp_path):
    encoded = str(tmp_path / "design.txt")
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


def test_fm_model_roundtrip(tmp_path, fixture_dataset):
    from skillmem import fm as fm_mod
    from skillmem.encoder import ModelSpec, encode_dataset
    from skillmem.modelio import ModelFile, load_model, save_model
    dm = encode_dataset(fixture_dataset, ModelSpec("mirtb", 2))
    fit = fm_mod.fit_fm_gibbs(dm.X, dm.y, 2,
                              fm_mod.GibbsConfig(iterations=10, seed=0),
                              groups=dm.layout.group_of_feature())
    path = str(tmp_path / "m.json")
    save_model(ModelFile(spec=dm.spec, layout=dm.layout, params=fit,
                         training_config={}), path)
    back = load_model(path)
    assert back.kind == "fm"
    assert np.allclose(back.params.posterior_mean.embeddings,
                       fit.posterior_mean.embeddings)


def test_train_records_seed_only_for_gibbs(tmp_path):
    encoded = str(tmp_path / "design.txt")
    assert run(["encode", "--in", FIXTURE_PATH, "--out", encoded]) == 0
    for dim, recorded in (("0", None), ("1", 7)):
        os.makedirs(tmp_path / f"dim{dim}")
        model = str(tmp_path / f"dim{dim}" / "model.json")
        assert run(["train", "--encoded", encoded, "--dim", dim, "--iters",
                    "4", "--seed", "7", "--out", model]) == 0
        config = json.load(open(model))["training_config"]
        manifest = json.load(open(os.path.join(os.path.dirname(model),
                                               "manifest.json")))
        assert config.get("seed") == recorded
        assert manifest["seed"] == recorded
