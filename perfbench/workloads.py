"""The four benchmark workloads: the inputs each one sets up, and one pass.

Every pass is closed-loop, with a single caller in one process. It reads only
what its set-up wrote (a raw `generic` CSV, and for schedule_online a model
file) and calls the library functions in the order the CLI does. The CLI is
thin glue over these calls, so it is not measured as a module of its own.

- cv_linear: raw CSV -> prepare -> student-level CV of irt, pfa, dash_kc and
  das3h at dim 0 (a sink saves every fold model) -> load the models ->
  forgetting slopes. Long histories and few features make L-BFGS the main
  cost; fm and the scheduler are idle. Every fit but irt's stops at
  `max_iterations` (150) at l2=1e-5, which `glm.unconverged` shows; the cap
  keeps the work of a pass the same from seed to seed.
- cv_fm: raw CSV -> prepare -> CV of das3h at dim 5 by Gibbs sampling on a
  wide feature set (about 1,010 features from 600 students and 300 items).
  The per-column sampler loop costs grow with the feature count, not with
  nnz; glm is idle.
- ingest_encode: raw CSV -> prepare -> encode the five ablation families ->
  save and load the das3h design. Corpus and encoder do all the work.
- schedule_online: the threshold and random policies of `simulate_policy`
  on the ground-truth das3h models of six generators, one simulated student
  each. The encoder runs one row at a time through `recall_probability`;
  each threshold pick is timed. The cost of a pick depends on the
  generator's q-matrix, so a pass spreads over six of them to keep its work
  about the same from seed to seed.

Library functions are bound as names of this module, or looked up through
the library module that calls them, so that `SITES` can trace them where
they are looked up.
"""

from __future__ import annotations

import os
import sys
import time

import numpy as np

from skillmem import evaluation, fm, glm, scheduler
from skillmem.analysis import slope_report
from skillmem.corpus import (load_interactions, load_prepared, preprocess,
                             save_dataset)
from skillmem.encoder import (ModelSpec, encode_dataset, load_design,
                              save_design)
from skillmem.evaluation import cross_validate
from skillmem.modelio import ModelFile, load_model, save_model
from skillmem.scheduler import (SchedulerConfig, random_policy,
                                simulate_policy, threshold_policy)
from skillmem.synth import SynthConfig, make_synthetic

# Sizes as the workloads use them. A pass is kept to about a second, so that
# a run repeats it many times between reference units (see worker.py); the
# self-check replaces them with smaller ones.
SIZES = {
    "cv_linear": {
        "synth": {"n_students": 10, "n_items": 60, "n_skills": 10,
                  "interactions_per_student": 420},
        "families": ["irt", "pfa", "dash_kc", "das3h"], "dim": 0,
        "folds": 5, "l2": 1e-5, "max_iterations": 150, "gibbs_iterations": 0,
    },
    "cv_fm": {
        "synth": {"n_students": 600, "n_items": 300, "n_skills": 10,
                  "interactions_per_student": 12},
        "families": ["das3h"], "dim": 5, "folds": 2, "l2": 1.0,
        "max_iterations": 500, "gibbs_iterations": 4,
    },
    "ingest_encode": {
        "synth": {"n_students": 12, "n_items": 60, "n_skills": 10,
                  "interactions_per_student": 420},
        "families": ["das3h", "das3h_plaincounts", "das3h_1p", "dash_items",
                     "dash_kc"],
    },
    "schedule_online": {
        "synth": {"n_items": 60, "n_skills": 10},
        "threshold": 0.7, "sessions": 100, "horizon": 60.0, "generators": 6,
        "students": 1,
    },
}

# Headline model of the CV workloads, whose mean held-out AUC is reported.
HEADLINE = "das3h"


class Ops:
    """Operations a pass completed: encodes, fold fits, recommendations."""

    def __init__(self):
        self.done = 0


def generator_seeds(sizes, seed):
    """Seeds of the generators whose models schedule_online schedules on."""
    n = sizes["generators"]
    return range(n * seed, n * (seed + 1))


def _suffix(index):
    return "" if index == 0 else f"-{index}"


def setup(name, sizes, seed, work):
    """Generate the workload's inputs into `work`; return the files written."""
    if name != "schedule_online":
        ds = make_synthetic(SynthConfig(seed=seed, **sizes["synth"]))[0]
        files = [os.path.join(work, "raw.csv")]
        save_dataset(ds, files[0])
        return files
    files = []
    for g, gseed in enumerate(generator_seeds(sizes, seed)):
        ds, truth = make_synthetic(SynthConfig(seed=gseed, **sizes["synth"]))
        files += [os.path.join(work, f"raw{_suffix(g)}.csv"),
                  os.path.join(work, f"model{_suffix(g)}.json")]
        save_dataset(ds, files[-2])
        save_model(truth.to_model_file(ds), files[-1])
    return files


def model_sink(models_dir, label, fold, fitted, dm):
    """The CLI's `cv` sink: one model file per (model, fold)."""
    name = label.replace("(", "_").replace(")", "").replace("=", "")
    save_model(ModelFile(spec=dm.spec, layout=dm.layout, params=fitted,
                         training_config={"fold": fold}),
               os.path.join(models_dir, f"{name}_fold{fold}.json"))


def _prepare(work):
    """raw CSV -> load -> preprocess -> save -> load, as `skillmem prepare`
    followed by a command reading the prepared file."""
    prepared = os.path.join(work, "prepared.csv")
    save_dataset(preprocess(load_interactions(os.path.join(work, "raw.csv"),
                                              "generic")), prepared)
    return load_prepared(prepared)


def _design(dm):
    return [int(dm.X.shape[0]), int(dm.X.shape[1]), int(dm.X.nnz)]


def run_cv(sizes, seed, work, ops, clock):
    with clock:
        return _cv(sizes, seed, work, ops)


def _cv(sizes, seed, work, ops):
    ds = _prepare(work)
    models_dir = os.path.join(work, "models")
    os.makedirs(models_dir, exist_ok=True)
    designs = {}

    def sink(label, fold, fitted, dm):
        model_sink(models_dir, label, fold, fitted, dm)
        ops.done += 1 + (dm.spec.family not in designs)
        designs[dm.spec.family] = _design(dm)

    table = cross_validate(
        ds, [ModelSpec(f, sizes["dim"]) for f in sizes["families"]],
        k=sizes["folds"], seed=seed,
        glm_config=glm.FitConfig(l2_strength=sizes["l2"],
                                 max_iterations=sizes["max_iterations"]),
        gibbs_config=fm.GibbsConfig(iterations=sizes["gibbs_iterations"],
                                    seed=seed),
        model_sink=sink)
    models = [load_model(os.path.join(models_dir, f))
              for f in sorted(os.listdir(models_dir))]
    linear = [m for m in models
              if m.kind == "linear" and m.spec.family == HEADLINE]
    slopes = (slope_report([m.params for m in linear],
                           [m.layout for m in linear]) if linear else None)
    return {"table": table, "designs": designs, "slopes": slopes,
            "dim": sizes["dim"]}


def summarize_cv(state):
    agg = state["table"].aggregate()
    auc = {label: a["auc_mean"] for label, a in agg.items()}
    headline = auc[f"{HEADLINE}(d={state['dim']})"]
    checks = {"auc_defined": (all(a is not None for a in auc.values()),
                              f"mean AUC per model {auc}")}
    if state["dim"] == 0:
        irt = auc["irt(d=0)"]
        checks["das3h_auc_gt_irt"] = (headline > irt,
                                      f"das3h {headline} > irt {irt}")
    else:
        checks["auc_gt_chance"] = (headline > 0.5,
                                   f"{HEADLINE} {headline} > 0.5")
    if state["slopes"] is not None:
        drops = [e.mean_drop_pct for e in state["slopes"].entries]
        checks["slopes_finite"] = (bool(np.all(np.isfinite(drops))),
                                   f"{len(drops)} skill slopes")
    return {"heldout_auc": headline, "designs": state["designs"],
            "pinned": {"auc": auc}, "checks": checks}


def run_ingest(sizes, seed, work, ops, clock):
    with clock:
        return _ingest(sizes, work, ops)


def _ingest(sizes, work, ops):
    ds = _prepare(work)
    designs, kept = {}, None
    for family in sizes["families"]:
        dm = encode_dataset(ds, ModelSpec(family, 0))
        ops.done += 1
        designs[family] = _design(dm)
        if family == "das3h":
            kept = dm
    path = os.path.join(work, "das3h.design")
    save_design(kept, path)
    return {"designs": designs, "saved": kept, "loaded": load_design(path)}


def summarize_ingest(state):
    a, b = state["saved"].X, state["loaded"].X
    exact = (a.shape == b.shape
             and np.array_equal(a.indptr, b.indptr)
             and np.array_equal(a.indices, b.indices)
             and np.array_equal(a.data, b.data)
             and np.array_equal(state["saved"].y, state["loaded"].y))
    return {"designs": state["designs"], "pinned": {},
            "checks": {"design_roundtrip_exact": (
                bool(exact), f"das3h CSR {list(a.shape)}, nnz {a.nnz}")}}


def run_schedule(sizes, seed, work, ops, clock):
    # The simulated students answer from each generator's truth, rebuilt
    # here from its seed before timing; the policy sees only the model file.
    truths = [make_synthetic(SynthConfig(seed=gseed, **sizes["synth"]))[1]
              for gseed in generator_seeds(sizes, seed)]
    with clock:
        return _schedule(sizes, seed, work, ops, truths)


def _schedule(sizes, seed, work, ops, truths):
    latencies = []

    def client(policy, timed):
        def pick(history, now, rng):
            start = time.perf_counter()
            item = policy(history, now, rng)
            if timed:
                latencies.append(time.perf_counter() - start)
            ops.done += 1
            return item
        return pick

    horizon = sizes["horizon"]
    times = np.linspace(0, horizon * 0.8, sizes["sessions"]).tolist()
    n = sizes["students"]
    per_seed = {"threshold": [], "random": []}
    for g, gseed in enumerate(generator_seeds(sizes, seed)):
        truth = truths[g]
        mf = load_model(os.path.join(work, f"model{_suffix(g)}.json"))
        config = SchedulerConfig(threshold=sizes["threshold"],
                                 skills=truth.qmatrix.skills,
                                 qmatrix=truth.qmatrix)
        policies = {
            "threshold": client(threshold_policy(mf, config), True),
            "random": client(random_policy(truth.qmatrix.items), False)}
        result = simulate_policy(truth, policies, times, horizon,
                                 seeds=range(n * gseed, n * (gseed + 1)))
        for policy, recalls in result.per_seed.items():
            per_seed[policy] += recalls
    return {"per_seed": per_seed, "step_s": latencies}


def summarize_schedule(state):
    per_seed = state["per_seed"]
    recall = {p: float(np.mean(v)) for p, v in per_seed.items()}
    return {"mean_end_recall": recall,
            "pinned": {"per_seed_recall": per_seed},
            "step_s": state["step_s"],
            "checks": {
                "recall_in_range": (
                    all(0.0 < v < 1.0 for vals in per_seed.values()
                        for v in vals),
                    "every simulated end recall lies in (0, 1)"),
                "threshold_beats_random": (
                    recall["threshold"] > recall["random"],
                    f"mean end recall threshold {recall['threshold']:.4f} "
                    f"> random {recall['random']:.4f}")}}


def _rows(args, kwargs, result):
    return {"rows": result.n_interactions}


def _encoded(args, kwargs, result):
    return {"family": result.spec.family, "nnz": int(result.X.nnz)}


def _fit(args, kwargs, result):
    return {"nit": result.n_iter, "converged": result.converged}


def _gibbs(args, kwargs, result):
    config = args[3] if len(args) > 3 else kwargs["config"]
    return {"features": int(args[0].shape[1]), "sweeps": config.iterations}


def _model_bytes(args, kwargs, result):
    return {"bytes": os.path.getsize(args[1])}


def _design_bytes(args, kwargs, result):
    path = args[1]
    return {"bytes": os.path.getsize(path) + os.path.getsize(path + ".json")}


PASSES = {
    "cv_linear": (run_cv, summarize_cv),
    "cv_fm": (run_cv, summarize_cv),
    "ingest_encode": (run_ingest, summarize_ingest),
    "schedule_online": (run_schedule, summarize_schedule),
}

_HERE = sys.modules[__name__]
SETUP_SITES = [(_HERE, "make_synthetic", "synth.make_synthetic", None)]
# (module the caller looks the function up in, attribute, span name, info)
SITES = [
    (_HERE, "load_interactions", "corpus.load_interactions", _rows),
    (_HERE, "preprocess", "corpus.preprocess", None),
    (_HERE, "save_dataset", "corpus.save_dataset", None),
    (_HERE, "load_prepared", "corpus.load_prepared", None),
    (_HERE, "encode_dataset", "encoder.encode_dataset", _encoded),
    (evaluation, "encode_dataset", "encoder.encode_dataset", _encoded),
    (_HERE, "save_design", "encoder.save_design", _design_bytes),
    (_HERE, "load_design", "encoder.load_design", None),
    (glm, "fit_logistic", "glm.fit_logistic", _fit),
    (fm, "fit_fm_gibbs", "fm.fit_fm_gibbs", _gibbs),
    (_HERE, "cross_validate", "evaluation.cross_validate", None),
    (_HERE, "model_sink", "perfbench.model_sink", None),
    (_HERE, "save_model", "modelio.save_model", _model_bytes),
    (_HERE, "load_model", "modelio.load_model", None),
    (_HERE, "slope_report", "analysis.slope_report", None),
    (_HERE, "simulate_policy", "scheduler.simulate_policy", None),
    (scheduler, "next_skill", "scheduler.next_skill", None),
    (scheduler, "next_item", "scheduler.next_item", None),
    (scheduler, "recall_probability", "analysis.recall_probability", None),
]
