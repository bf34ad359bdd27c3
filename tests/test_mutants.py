"""Structural mutants of the fixture's artifacts: each loads or fails typed.

Every field of a model file or a design sidecar, and the first and last
element of each list, is replaced by each of `VALUES` or deleted. A model
file mutant goes through `load_model` and, when it loads, one recall query
as `analyze recall` runs it; a sidecar mutant, its digest in the archive
recomputed so that the sidecar itself is read, goes through `load_design`.
Each must either load or raise a `SkillmemError`, never another exception.

The CSV readers get byte mutants of the fixture log, written in each
format, and of its q-matrix file: cut short, or given a stray quote, a lone
CR or a byte that is not UTF-8; each loads or fails typed as well.
"""

import csv
import hashlib
import json
import math

import numpy as np
import pytest

from skillmem.analysis import history_counters, recall_probability
from skillmem.cli import run
from skillmem.corpus import load_interactions, load_qmatrix_triplets
from skillmem.encoder import load_design
from skillmem.errors import SkillmemError
from skillmem.modelio import load_model
from conftest import FIXTURE_PATH

DELETE = object()
VALUES = (None, "x", [], {}, [[1]], math.inf, math.nan, -1, 0, 1.5, True,
          1e30, DELETE)


def places(doc, path=()):
    """Paths to every field of `doc` and to the first and last element of
    each of its lists, with the places inside those."""
    if isinstance(doc, dict):
        keys = list(doc)
    elif isinstance(doc, list):
        keys = sorted({0, len(doc) - 1}) if doc else []
    else:
        return
    for key in keys:
        yield path + (key,)
        yield from places(doc[key], path + (key,))


def at(doc, path):
    """The value at `path` in `doc`."""
    for key in path:
        doc = doc[key]
    return doc


def mutants(doc):
    """(path, value, mutated copy of `doc`) for each place and value."""
    for path in places(doc):
        for value in VALUES:
            *parent, last = path
            mutant = json.loads(json.dumps(doc))
            at = mutant
            for key in parent:
                at = at[key]
            if value is DELETE:
                del at[last]
            else:
                at[last] = value
            yield path, value, mutant


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory):
    """The das3h design of the prepared fixture, its linear model and its
    dim-1 FM model, and student s000's history."""
    tmp = tmp_path_factory.mktemp("mutants")
    prepared, design = str(tmp / "prepared.csv"), str(tmp / "design.npz")
    fm_design = str(tmp / "fm_design.npz")
    linear, fm = str(tmp / "linear.json"), str(tmp / "fm.json")
    hist = str(tmp / "student.csv")
    assert run(["prepare", "--in", FIXTURE_PATH, "--min-interactions", "5",
                "--out", prepared]) == 0
    assert run(["encode", "--in", prepared, "--out", design]) == 0
    assert run(["encode", "--in", prepared, "--dim", "1",
                "--out", fm_design]) == 0
    assert run(["train", "--encoded", design, "--l2", "0.01",
                "--out", linear]) == 0
    assert run(["train", "--encoded", fm_design, "--iters", "20",
                "--out", fm]) == 0
    with open(prepared) as fh, open(hist, "w") as out:
        lines = fh.readlines()
        out.write(lines[0])
        out.writelines(l for l in lines[1:] if l.startswith("s000,"))
    return tmp, design, (linear, fm), hist


def recall(path, history):
    """`analyze recall --skills k0 --at-day 14` of the model at `path`."""
    model = load_model(path)
    counters, student = history_counters(model, history, 14.0)
    return recall_probability(model, counters, ["k0"], 14.0, student=student,
                              qmatrix=history.qmatrix)


def outcome(call, *args):
    """"loaded" or "typed" (a SkillmemError) for `call(*args)`, or the
    repr of any other exception it raised."""
    try:
        call(*args)
    except SkillmemError:
        return "typed"
    except Exception as exc:  # an escape: kept, so that each one is listed
        return repr(exc)
    return "loaded"


def test_model_file_mutants_load_or_fail_typed(artifacts):
    tmp, _, models, hist = artifacts
    history = load_interactions(hist, fmt="generic")
    path, outcomes, numbers = str(tmp / "mutant.json"), [], []
    for source in models:
        assert 0 < recall(source, history) < 1
        with open(source) as fh:
            doc = json.load(fh)
        for place, value, mutant in mutants(doc):
            with open(path, "w") as fh:
                json.dump(mutant, fh)
            outcomes.append((source, place, value,
                             outcome(recall, path, history)))
            if type(at(doc, place)) in (int, float) and value is True:
                numbers.append(outcomes[-1])
    assert len(outcomes) == 1378
    assert [o for o in outcomes if o[-1] not in ("loaded", "typed")] == []
    assert {o[-1] for o in outcomes} == {"loaded", "typed"}
    # `true` in place of a stored number never loads as 1, but in the
    # free-form records that no reader checks
    free = [o for o in numbers
            if {"training_config", "hyperparams"} & set(o[1])]
    assert len(numbers) - len(free) == 36
    assert [o for o in numbers if o[-1] != "typed" and o not in free] == []


def test_model_file_mutants_through_the_command(artifacts, capsys):
    # a seeded sample of the linear model's mutants, through `cli.run`:
    # exit 0 or 1, and no traceback
    tmp, _, (linear, _), hist = artifacts
    with open(linear) as fh:
        every = list(mutants(json.load(fh)))
    path = str(tmp / "sampled.json")
    rng = np.random.default_rng(0)
    for i in rng.choice(len(every), 24, replace=False):
        with open(path, "w") as fh:
            json.dump(every[i][2], fh)
        capsys.readouterr()
        status = run(["analyze", "recall", "--model", path, "--history", hist,
                      "--skills", "k0", "--at-day", "14"])
        err = capsys.readouterr().err
        assert status in (0, 1) and "Traceback" not in err
        assert status == 0 or err.startswith("error:")


def test_design_sidecar_mutants_load_or_fail_typed(artifacts):
    tmp, design, _, _ = artifacts
    with np.load(design, allow_pickle=False) as npz:
        arrays = dict(npz)
    with open(design + ".json") as fh:
        doc = json.load(fh)
    path, outcomes = str(tmp / "mutant.npz"), []
    for place, value, mutant in mutants(doc):
        raw = json.dumps(mutant).encode()
        arrays["sidecar_sha256"] = np.asarray(hashlib.sha256(raw).hexdigest())
        with open(path, "wb") as fh:
            np.savez(fh, **arrays)
        with open(path + ".json", "wb") as fh:
            fh.write(raw)
        outcomes.append((place, value, outcome(load_design, path)))
    assert len(outcomes) == 429
    assert [o for o in outcomes if o[-1] not in ("loaded", "typed")] == []
    assert {o[-1] for o in outcomes} == {"loaded", "typed"}


def text_files(tmp):
    """The fixture log in each format and its q-matrix file, as
    (loader, path): assist12 tab-separated, kddcup with each item split
    into a problem and a step and its skills joined by "~~"."""
    with open(FIXTURE_PATH, newline="") as fh:
        header, *rows = list(csv.reader(fh))
    kdd = [["user", "problem", "step", "timestamp", "correct", "skills"]] + [
        [u, item, "step1", t, c, k.replace("~", "~~")]
        for u, item, t, c, k in rows]
    pairs = sorted({(r[1], k) for r in rows for k in r[4].split("~") if k})
    files = {"generic": ([header] + rows, ","), "assist12": (
        [header] + rows, "\t"), "kddcup": (kdd, ","),
        "qmatrix": ([["item", "skill"]] + pairs, ",")}
    loaders = []
    for name, (table, delimiter) in files.items():
        path = str(tmp / f"{name}.csv")
        with open(path, "w", newline="") as fh:
            csv.writer(fh, delimiter=delimiter).writerows(table)
        loaders.append(((load_qmatrix_triplets,) if name == "qmatrix" else
                        (load_interactions, name), path))
    return loaders


def test_csv_byte_mutants_load_or_fail_typed(tmp_path):
    # 4 files x 4 mutations x 6 seeded offsets: 96 mutants
    rng, path, outcomes = np.random.default_rng(0), str(tmp_path / "m"), []
    for (load, *fmt), source in text_files(tmp_path):
        with open(source, "rb") as fh:
            raw = fh.read()
        assert outcome(load, source, *fmt) == "loaded"
        for kind, piece in (("cut", None), ("quote", b'"'), ("cr", b"\r"),
                            ("byte", b"\xff")):
            for at in rng.integers(1, len(raw), 6).tolist():
                with open(path, "wb") as fh:
                    fh.write(raw[:at] if piece is None
                             else raw[:at] + piece + raw[at:])
                outcomes.append((source, kind, at,
                                 outcome(load, path, *fmt)))
    assert len(outcomes) == 96
    assert [o for o in outcomes if o[-1] not in ("loaded", "typed")] == []
    assert {o[-1] for o in outcomes} == {"loaded", "typed"}
    assert {o[-1] for o in outcomes if o[1] == "byte"} == {"typed"}
