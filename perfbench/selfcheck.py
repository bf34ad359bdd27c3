"""Fast self-check of the harness on the bundled fixture.

    python3 perfbench/selfcheck.py
    python3 -m pytest perfbench/selfcheck.py

Every workload runs at a small size on the corpus of `data/fixture_small.csv`
(the generator at seed 12345 rewrites that file byte for byte), untraced and
traced. The check asserts that each run passes its own checks, prints every
metric with its unit, reports exactly the metrics BENCHMARK.json names, and
that the traced run records a span for every module the workload exercises.
It also asserts that the benchmark fails, without a result, in a directory
that holds no program source.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402

FIXTURE = os.path.join(run.ROOT, "data", "fixture_small.csv")
FIXTURE_SEED = 12345  # the seed scripts/make_fixture.py generates it with
CV = {"synth": {}, "families": ["irt", "pfa", "dash_kc", "das3h"], "dim": 0,
      "folds": 2, "l2": 1.0, "max_iterations": 500, "gibbs_iterations": 0}
SMALL = {
    "cv_linear": CV,
    "cv_fm": dict(CV, families=["das3h"], dim=2, gibbs_iterations=4),
    "ingest_encode": {"synth": {},
                      "families": ["das3h", "das3h_plaincounts", "das3h_1p",
                                   "dash_items", "dash_kc"]},
    # 1000 timed picks leave 10 above the p99.
    "schedule_online": {"synth": {}, "threshold": 0.7, "sessions": 250,
                        "horizon": 60.0, "generators": 1, "students": 4},
}
CORPUS = ["corpus.load_interactions", "corpus.preprocess",
          "corpus.save_dataset", "corpus.load_prepared",
          "encoder.encode_dataset"]
CV_SPANS = CORPUS + ["evaluation.cross_validate", "modelio.save_model",
                     "modelio.load_model"]
SPANS = {
    "cv_linear": CV_SPANS + ["glm.fit_logistic", "analysis.slope_report"],
    "cv_fm": CV_SPANS + ["fm.fit_fm_gibbs"],
    "ingest_encode": CORPUS + ["encoder.save_design", "encoder.load_design"],
    "schedule_online": ["modelio.load_model", "scheduler.simulate_policy",
                        "scheduler.next_skill", "scheduler.next_item",
                        "analysis.recall_probability"],
}
EXTRA = {"error_rate": "ratio", "heldout_auc": "auc", "step_p50_ms": "ms",
         "step_p99_ms": "ms", "setup_raw_s": "s", "wall_raw_s": "s",
         "cpu_raw_s": "s", "host.ref_ms": "ms"}


def _benchmark():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def _sha256(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _printed(lines, prefix):
    out = {}
    for line in lines:
        if line.startswith(prefix + " "):
            name, rest = line[len(prefix) + 1:].split(" = ")
            value, unit = rest.split()[:2]
            out[name] = (float(value), unit)
    return out


def check_workload(name):
    end_to_end, per_layer = _benchmark()
    fixture = _sha256(FIXTURE)
    for trace in (False, True):
        lines, result = run.run_workload(name, FIXTURE_SEED, 0.001, trace,
                                         sizes=SMALL[name])
        assert result["correct"], "\n".join(lines)
        assert result["failed"] == 0 and result["attempted"] >= 1
        assert f"input raw.csv sha256={fixture}" in lines
        wanted = per_layer if trace else end_to_end
        assert {k: v["unit"] for k, v in result["metrics"].items()} == wanted
        printed = _printed(lines, "metric")
        for key, unit in {**end_to_end, **EXTRA}.items():
            assert printed[key][1] == unit, (key, printed.get(key))
        if trace:
            layer = _printed(lines, "layer")
            assert {k: u for k, (_, u) in layer.items()} == per_layer
            path = os.path.join(run.WORK,
                                f"trace-{name}-s{FIXTURE_SEED}.json")
            with open(path) as fh:
                spans = json.load(fh)
            seen = {s["name"] for s in spans["pass"]}
            missing = set(SPANS[name]) - seen
            assert not missing, f"{name}: no span for {sorted(missing)}"
            assert all(s["name"] == "synth.make_synthetic"
                       for setup in spans["setup"] for s in setup)
            assert spans["setup"][0]


def test_cv_linear():
    check_workload("cv_linear")


def test_cv_fm():
    check_workload("cv_fm")


def test_ingest_encode():
    check_workload("ingest_encode")


def test_schedule_online():
    check_workload("schedule_online")


def test_self_times_and_percentile():
    spans = [{"name": "evaluation.cross_validate", "parent": -1,
              "start": 0.0, "end": 10.0},
             {"name": "encoder.encode_dataset", "parent": 0,
              "start": 1.0, "end": 3.0},
             {"name": "glm.fit_logistic", "parent": 0,
              "start": 3.0, "end": 8.0}]
    assert run.tracing.self_times(spans) == {"evaluation": 3.0,
                                             "encoder": 2.0, "glm": 5.0}
    assert run.percentile(list(range(1, 1001)), 99) == (990, 10)
    assert run.percentile(list(range(1, 1001)), 50) == (500, 500)


def test_host_scaling_and_pin_comparison():
    half = run.REF_S / 2
    first, second = run.scales([half, half, run.REF_S])
    assert math.isclose(first, 2.0) and math.isclose(second, 2.0 / 1.5)
    span = {"name": "glm.fit_logistic", "parent": -1, "start": 1.0,
            "end": 3.0, "cpu0": 0.5, "cpu1": 2.5, "nit": 7}
    assert run.scale_spans([span], 2.0) == [dict(span, start=2.0, end=6.0,
                                                 cpu0=1.0, cpu1=5.0)]
    pinned = {"auc": {"irt(d=0)": 0.7}, "per_seed": [0.5, 0.25]}
    assert run.close(pinned, {"auc": {"irt(d=0)": 0.7 + 1e-9},
                              "per_seed": [0.5, 0.25]})
    assert not run.close(pinned, {"auc": {"irt(d=0)": 0.71},
                                  "per_seed": [0.5, 0.25]})
    assert not run.close(pinned, {"auc": {}, "per_seed": [0.5, 0.25]})


def test_fails_without_program_source():
    bare = os.path.join(run.WORK, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
    try:
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "cv_linear",
             "--seed", "0", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=60)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


if __name__ == "__main__":
    for test in (test_cv_linear, test_cv_fm, test_ingest_encode,
                 test_schedule_online, test_self_times_and_percentile,
                 test_host_scaling_and_pin_comparison,
                 test_fails_without_program_source):
        test()
        print(f"ok {test.__name__}", flush=True)
