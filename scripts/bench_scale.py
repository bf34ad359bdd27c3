#!/usr/bin/env python3
"""Scale ladder of the corpus and encode layers, source trees alternated.

For each row count the script writes one synthetic corpus (seed 0, 420 rows
a student, 60 items, 10 skills) into a temporary directory. Each layer is
then timed in a fresh child process of every source tree: the corpus layers
`load_interactions`, `preprocess` (of the loaded file), `save_dataset` (of
the preprocessed corpus) and `load_prepared`, and `encode_dataset` of each
ablation family on the loaded corpus. A layer's inputs are built untimed in
its child first. A record holds wall and CPU seconds, rows/s, nnz and the
child's peak RSS from `resource.getrusage`, so a layer's peak includes the
inputs it was handed. Linux carries a process's RSS high-water mark over
`exec`, so the parent process imports neither numpy nor the package: a
child starts from that small footprint, not from the generator's.

    python scripts/bench_scale.py --rows 50400 504000 --rounds 3 \
        --src parent=../parent/src --src change=src --out BENCH_scale.json

`--src LABEL=PATH` names a source tree to measure (default: this
checkout's `src`, labelled `change`). Rounds alternate which tree runs
first; the file holds every record and, per tree and layer, the median,
minimum and maximum over the rounds.
"""

import argparse
import json
import os
import platform
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


def make_corpus(path, rows):
    """Write the corpus of `rows` rows to `path`; print the ablation
    families as JSON."""
    from skillmem.corpus import save_dataset
    from skillmem.evaluation import ABLATION_PAIRS
    from skillmem.synth import SynthConfig, make_synthetic

    ds, _ = make_synthetic(SynthConfig(
        seed=SEED, n_students=max(1, int(rows) // ROWS_PER_STUDENT),
        n_items=60, n_skills=10, interactions_per_student=ROWS_PER_STUDENT))
    save_dataset(ds, path)
    print(json.dumps(sorted({f for pair in ABLATION_PAIRS.values()
                             for f in pair})))


def measure(path, layer):
    """Time `layer` ("corpus.<function>" or "encoder.encode_dataset.<family>")
    on the corpus at `path`; print the record as JSON."""
    import resource

    from skillmem import corpus
    from skillmem.encoder import ModelSpec, encode_dataset

    def raw():
        return corpus.load_interactions(path)

    family = layer.rpartition(".")[2]
    setup, run = {
        "corpus.load_interactions": (lambda: path, corpus.load_interactions),
        "corpus.preprocess": (raw, corpus.preprocess),
        "corpus.save_dataset": (lambda: corpus.preprocess(raw()),
                                lambda ds: corpus.save_dataset(ds, path + ".out")),
        "corpus.load_prepared": (lambda: path, corpus.load_prepared),
    }.get(layer, (lambda: corpus.load_prepared(path),
                  lambda ds: encode_dataset(ds, ModelSpec(family, 0))))
    arg = setup()
    wall, cpu = time.perf_counter(), time.process_time()
    out = run(arg)
    wall, cpu = time.perf_counter() - wall, time.process_time() - cpu
    record = {"layer": layer, "wall_s": round(wall, 4), "cpu_s": round(cpu, 4)}
    if layer.startswith("encoder."):
        record.update(nnz=int(out.X.nnz), features=out.layout.n_features)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    record["peak_rss_mb"] = round(peak_kb / 1024, 1)
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
        return {"corpus": make_corpus, "measure": measure}[step](*rest)
    if not args.out:
        ap.error("--out is required")
    trees = [s.split("=", 1) for s in
             args.src or [f"change={os.path.join(HERE, '..', 'src')}"]]

    records = {label: [] for label, _ in trees}
    with tempfile.TemporaryDirectory() as tmp:
        for rows in args.rows:
            path = os.path.join(tmp, f"corpus_{rows}.csv")
            families = child(trees[0][1], "corpus", path, str(rows))
            layers = ([f"corpus.{fn}" for fn in CORPUS_LAYERS]
                      + [f"encoder.encode_dataset.{f}" for f in families])
            for r in range(args.rounds):
                for label, src in trees[::1 if r % 2 == 0 else -1]:
                    for layer in layers:
                        record = child(src, "measure", path, layer)
                        record.update(rows=rows, round=r,
                                      rows_per_s=round(rows / record["wall_s"]))
                        records[label].append(record)
                        print(label, json.dumps(record), flush=True)

    summary = {}
    for label, recs in records.items():
        groups = {}
        for rec in recs:
            groups.setdefault(f"{rec['layer']}@{rec['rows']}", []).append(rec)
        summary[label] = {key: {m: spread([rec[m] for rec in group])
                                for m in ("wall_s", "peak_rss_mb")}
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
