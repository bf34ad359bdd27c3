#!/usr/bin/env python3
"""Scale ladder of the corpus, encode and fit layers, source trees alternated.

For each row count the script writes one synthetic corpus (seed 0, 420 rows
a student, 60 items, 10 skills) into a temporary directory. Each layer is
then timed in a fresh child process of every source tree: the corpus layers
`load_interactions`, `preprocess` (of the loaded file), `save_dataset` (of
the preprocessed corpus) and `load_prepared`, and `encode_dataset` of each
ablation family on the loaded corpus, and `glm.fit_logistic` of das3h on
the training rows of fold 0 (5 student folds, seed 0) at l2=1e-5 with the
default iteration cap, and `fm.fit_fm_gibbs` of das3h at d=5 on the same
rows for 4 sweeps (seed 0), whose record adds `s_per_sweep`. The layer
`fm.fit_fm_gibbs.das3h.skills100` is the same fit on a second corpus of as
many rows with 100 skills, 300 items and one skill per item, as in
ASSISTments 2012, where most sampler levels hold one column per skill. Two
online layers follow: `synth.make_synthetic` of
the ladder's corpus itself, and the ten recalls of one threshold pick (one
per skill, no item, no student, a day after the last answer) on the
corpus's ground-truth model, for a student whose counters replay the
corpus's longest history. A recall layer's record holds the time of 2,000
such picks after one untimed pick, with `pick_ms` and `recalls_per_s` in
place of rows/s, and `states`: in `analysis.recall_probability` ("new")
the model's recall memo is emptied before every pick, so every query is
scored from its counts and the layer compares with trees that have no
memo; in `analysis.recall_probability.unchanged` the counters do not
change between picks, so every query is answered from the memo. The
layer `cli.import` times `import skillmem.cli` in a fresh child, before
it has loaded anything of numpy, scipy or the package: every command's
start-up cost, whatever the row count. A layer's
inputs are built untimed in its child first, and for the GLM fit
`scipy.optimize`, which `glm.fit_logistic` imports on its first call, is
imported with them; the fits' design is encoded
once per row count, in a child of the first tree, and saved, so that a
fit's child holds only the design it fits. A
record holds wall and CPU seconds, rows/s, nnz and the child's peak RSS from
`resource.getrusage`, so a layer's peak includes the inputs it was handed; a
GLM fit's record adds its iterations, `converged` and the norm of the full
gradient at its result. Linux carries a process's RSS high-water mark over
`exec`, so the parent process imports neither numpy nor the package: a
child starts from that small footprint, not from the generator's.

    python scripts/bench_scale.py --rows 50400 504000 --rounds 3 \
        --src parent=../parent/src --src change=src --out BENCH_scale.json

`--src LABEL=PATH` names a source tree to measure (default: this
checkout's `src`, labelled `change`). Rounds alternate which tree runs
first; the file holds every record and, per tree and layer, the median,
minimum and maximum of wall and CPU seconds and peak RSS over the rounds.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from importlib.metadata import version

HERE = os.path.dirname(os.path.abspath(__file__))
ROWS_PER_STUDENT = 420
SEED = 0
CORPUS_LAYERS = ("load_interactions", "preprocess", "save_dataset",
                 "load_prepared")
FIT_LAYER = "glm.fit_logistic.das3h"
FIT_L2 = 1e-5
FM_LAYER = "fm.fit_fm_gibbs.das3h"
FM_DIM = 5
FM_SWEEPS = 4
# second corpus: ladder generator settings in place of n_items and n_skills
MANY_SKILLS = {"n_items": 300, "n_skills": 100, "multi_skill_fraction": 0.0}
FM_SKILLS_LAYER = f"{FM_LAYER}.skills{MANY_SKILLS['n_skills']}"
SYNTH_LAYER = "synth.make_synthetic"
# recall layer -> whether every pick's queried states are new to the memo
RECALL_LAYERS = {"analysis.recall_probability": True,
                 "analysis.recall_probability.unchanged": False}
PICKS = 2000
CLI_LAYER = "cli.import"


def ladder_config(rows, many_skills=False):
    """The generator of the ladder's corpus of `rows` rows, or with
    `many_skills` of its `MANY_SKILLS` corpus."""
    from skillmem.synth import SynthConfig

    shape = MANY_SKILLS if many_skills else {"n_items": 60, "n_skills": 10}
    return SynthConfig(
        seed=SEED, n_students=max(1, int(rows) // ROWS_PER_STUDENT),
        interactions_per_student=ROWS_PER_STUDENT, **shape)


def make_corpus(path, rows, many_skills=""):
    """Write the corpus of `rows` rows (the `MANY_SKILLS` one when
    `many_skills` is non-empty) to `path`; print the ablation families as
    JSON."""
    from skillmem.corpus import save_dataset
    from skillmem.evaluation import ABLATION_PAIRS
    from skillmem.synth import make_synthetic

    ds, _ = make_synthetic(ladder_config(rows, bool(many_skills)))
    save_dataset(ds, path)
    print(json.dumps(sorted({f for pair in ABLATION_PAIRS.values()
                             for f in pair})))


def fit_design(path):
    """Save the das3h design of fold 0's training rows of the corpus at
    `path`, with its feature groups, to `path + ".fit.npz"`; print its shape
    and nnz as JSON."""
    import numpy as np

    from skillmem.corpus import load_prepared, student_kfold
    from skillmem.encoder import ModelSpec, encode_dataset

    ds = load_prepared(path)
    dm = encode_dataset(ds, ModelSpec("das3h", 0))
    folds = student_kfold(ds, 5, SEED)
    train = np.array([folds.fold_of_student[s]
                      for s in ds.students])[ds.student] != 0
    X = dm.X[train]
    np.savez(path + ".fit.npz", data=X.data, indices=X.indices,
             indptr=X.indptr, shape=X.shape, y=dm.y[train],
             groups=dm.layout.group_of_feature())
    print(json.dumps({"shape": X.shape, "nnz": int(X.nnz)}))


def pick_inputs(rows, new_states):
    """(one threshold pick's ten recalls as a function, its skill count) on
    the ground truth of the corpus of `rows` rows, the counters replaying
    its longest history; with `new_states` each pick first empties the
    model's recall memo."""
    import numpy as np

    from skillmem.analysis import recall_probability
    from skillmem.encoder import _Counter
    from skillmem.synth import make_synthetic

    ds, truth = make_synthetic(ladder_config(rows))
    model, qmatrix = truth.to_model_file(ds), truth.qmatrix
    longest = ds.student == np.bincount(ds.student).argmax()
    counters = {}
    for j, t, c in zip(ds.item[longest].tolist(),
                       ds.timestamp[longest].tolist(),
                       ds.correct[longest].tolist()):
        for k in qmatrix.skills_of(ds.items[j]):
            counters.setdefault(k, _Counter()).push(t, c)
    now, skills = float(ds.timestamp[longest].max()) + 1.0, qmatrix.skills
    memo = getattr(model, "recalls", {})  # source trees before it have none

    def pick():
        if new_states:
            memo.clear()
        for k in skills:
            recall_probability(model, counters, [k], now, qmatrix=qmatrix)

    pick()  # pools the item proxies and fills the memo, as a first pick does
    return pick, len(skills)


def peak_rss_mb():
    return round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1)


def measure_cli_import():
    """Time `import skillmem.cli` in this child, which has not loaded it
    or numpy yet; print the record as JSON."""
    wall, cpu = time.perf_counter(), time.process_time()
    import skillmem.cli  # noqa: F401
    wall, cpu = time.perf_counter() - wall, time.process_time() - cpu
    print(json.dumps({"layer": CLI_LAYER, "wall_s": round(wall, 4),
                      "cpu_s": round(cpu, 4), "peak_rss_mb": peak_rss_mb()}))


def measure(path, layer, rows):
    """Time `layer` ("corpus.<function>", "encoder.encode_dataset.<family>",
    `FIT_LAYER`, `FM_LAYER`, `FM_SKILLS_LAYER`, `SYNTH_LAYER`, one of
    `RECALL_LAYERS` or `CLI_LAYER`) on the corpus of `rows` rows at `path`;
    print the record as JSON."""
    if layer == CLI_LAYER:
        return measure_cli_import()
    import numpy as np
    from scipy import sparse

    from skillmem import corpus, fm, glm
    from skillmem.encoder import ModelSpec, encode_dataset
    from skillmem.synth import make_synthetic

    def raw():
        return corpus.load_interactions(path)

    def fit_inputs():
        with np.load(path + ".fit.npz") as z:
            return (sparse.csr_matrix((z["data"], z["indices"], z["indptr"]),
                                      shape=tuple(z["shape"])),
                    z["y"], z["groups"])

    def glm_fit_inputs():
        import scipy.optimize  # noqa: F401 -- the first fit's one-off import

        return fit_inputs()

    def fm_fit(a):
        return fm.fit_fm_gibbs(
            *a[:2], FM_DIM, fm.GibbsConfig(iterations=FM_SWEEPS, seed=SEED),
            groups=a[2])

    family = layer.rpartition(".")[2]
    setup, run = {
        "corpus.load_interactions": (lambda: path, corpus.load_interactions),
        "corpus.preprocess": (raw, corpus.preprocess),
        "corpus.save_dataset": (lambda: corpus.preprocess(raw()),
                                lambda ds: corpus.save_dataset(ds, path + ".out")),
        "corpus.load_prepared": (lambda: path, corpus.load_prepared),
        FIT_LAYER: (glm_fit_inputs, lambda a: glm.fit_logistic(
            *a[:2], glm.FitConfig(l2_strength=FIT_L2))),
        FM_LAYER: (fit_inputs, fm_fit),
        FM_SKILLS_LAYER: (fit_inputs, fm_fit),
        SYNTH_LAYER: (lambda: ladder_config(rows), make_synthetic),
        **{name: (lambda new=new: pick_inputs(rows, new),
                  lambda inputs: [inputs[0]() for _ in range(PICKS)])
           for name, new in RECALL_LAYERS.items()},
    }.get(layer, (lambda: corpus.load_prepared(path),
                  lambda ds: encode_dataset(ds, ModelSpec(family, 0))))
    arg = setup()
    wall, cpu = time.perf_counter(), time.process_time()
    out = run(arg)
    wall, cpu = time.perf_counter() - wall, time.process_time() - cpu
    record = {"layer": layer, "wall_s": round(wall, 4), "cpu_s": round(cpu, 4)}
    if layer.startswith("encoder."):
        record.update(nnz=int(out.X.nnz), features=out.layout.n_features)
    if layer == FIT_LAYER:
        _, grad_w, grad_b = glm.loss_and_gradient(out, *arg[:2])
        record.update(nnz=int(arg[0].nnz), features=arg[0].shape[1],
                      n_iter=out.n_iter, converged=out.converged,
                      grad_norm=float(np.linalg.norm(np.append(grad_w,
                                                               grad_b))))
    if layer in (FM_LAYER, FM_SKILLS_LAYER):
        record.update(nnz=int(arg[0].nnz), features=arg[0].shape[1],
                      sweeps=FM_SWEEPS, s_per_sweep=round(wall / FM_SWEEPS, 4))
    if layer in RECALL_LAYERS:
        record.update(picks=PICKS, pick_ms=round(1e3 * wall / PICKS, 4),
                      recalls_per_s=round(PICKS * arg[1] / wall),
                      states="new" if RECALL_LAYERS[layer] else "unchanged")
    else:
        record["rows_per_s"] = round(int(rows) / wall)
    record["peak_rss_mb"] = peak_rss_mb()
    print(json.dumps(record))


def child(src, *args):
    """Run one step of this script in a fresh interpreter; its JSON output."""
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--child", src, *args],
        capture_output=True, text=True)
    if proc.returncode:
        sys.exit(f"{' '.join(args)} failed:\n{proc.stderr}")
    return json.loads(proc.stdout)


def spread(values):
    return {"median": statistics.median(values), "min": min(values),
            "max": max(values)}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--rows", type=int, nargs="+", default=[50400, 504000])
    ap.add_argument("--rounds", type=int, default=3)
    ap.add_argument("--src", action="append", metavar="LABEL=PATH")
    ap.add_argument("--out", help="JSON file the run is written to")
    ap.add_argument("--child", nargs="+", help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.child:
        src, step, *rest = args.child
        sys.path.insert(0, os.path.abspath(src))
        return {"corpus": make_corpus, "fit_design": fit_design,
                "measure": measure}[step](*rest)
    if not args.out:
        ap.error("--out is required")
    trees = [s.split("=", 1) for s in
             args.src or [f"change={os.path.join(HERE, '..', 'src')}"]]

    records = {label: [] for label, _ in trees}
    with tempfile.TemporaryDirectory() as tmp:
        for rows in args.rows:
            path = os.path.join(tmp, f"corpus_{rows}.csv")
            families = child(trees[0][1], "corpus", path, str(rows))
            child(trees[0][1], "fit_design", path)
            skills_path = os.path.join(tmp, f"corpus_{rows}_skills.csv")
            child(trees[0][1], "corpus", skills_path, str(rows), "many")
            child(trees[0][1], "fit_design", skills_path)
            layers = ([CLI_LAYER]
                      + [f"corpus.{fn}" for fn in CORPUS_LAYERS]
                      + [f"encoder.encode_dataset.{f}" for f in families]
                      + [FIT_LAYER, FM_LAYER, FM_SKILLS_LAYER, SYNTH_LAYER,
                         *RECALL_LAYERS])
            for r in range(args.rounds):
                for label, src in trees[::1 if r % 2 == 0 else -1]:
                    for layer in layers:
                        record = child(
                            src, "measure",
                            skills_path if layer == FM_SKILLS_LAYER else path,
                            layer, str(rows))
                        record.update(rows=rows, round=r)
                        records[label].append(record)
                        print(label, json.dumps(record), flush=True)

    summary = {}
    for label, recs in records.items():
        groups = {}
        for rec in recs:
            groups.setdefault(f"{rec['layer']}@{rec['rows']}", []).append(rec)
        summary[label] = {key: {m: spread([rec[m] for rec in group])
                                for m in ("wall_s", "cpu_s", "peak_rss_mb")}
                          for key, group in groups.items()}
    doc = {"host": {"machine": platform.machine(), "cpus": os.cpu_count(),
                    "python": platform.python_version(),
                    "numpy": version("numpy"), "scipy": version("scipy")},
           "seed": SEED, "rounds": args.rounds, "summary": summary,
           "records": records}
    with open(args.out, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
