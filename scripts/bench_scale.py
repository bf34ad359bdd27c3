#!/usr/bin/env python3
"""Scale ladder of the encode layer: corpus load and batch encoding.

For each row count the script writes one synthetic prepared corpus (seed 0,
420 rows a student, 60 items, 10 skills) into a temporary directory, then
times it in fresh child processes:
`load_prepared` alone, and `load_prepared` followed by `encode_dataset` for
each ablation family. A record holds wall and CPU seconds, rows/s, nnz and
the child's peak RSS from `resource.getrusage` (so an encode record's peak
includes the loaded corpus). Linux carries a process's RSS high-water mark
over `exec`, so the parent process imports neither numpy nor the package:
a child starts from that small footprint, not from the generator's.

    python scripts/bench_scale.py --rows 50400 504000 --label change \
        --out BENCH_scale.json

`--src` picks the source tree to measure (default: this checkout's `src`),
so another checkout can be timed by the same harness; runs under other
labels already in `--out` are kept.
"""

import argparse
import json
import os
import platform
import subprocess
import sys
import tempfile
import time
from importlib.metadata import version

HERE = os.path.dirname(os.path.abspath(__file__))
ROWS_PER_STUDENT = 420
SEED = 0


def make_corpus(path, rows):
    """Write the prepared corpus of `rows` rows to `path`; print the
    ablation families as JSON."""
    from skillmem.corpus import save_dataset
    from skillmem.evaluation import ABLATION_PAIRS
    from skillmem.synth import SynthConfig, make_synthetic

    ds, _ = make_synthetic(SynthConfig(
        seed=SEED, n_students=max(1, int(rows) // ROWS_PER_STUDENT),
        n_items=60, n_skills=10, interactions_per_student=ROWS_PER_STUDENT))
    save_dataset(ds, path)
    print(json.dumps(sorted({f for pair in ABLATION_PAIRS.values()
                             for f in pair})))


def measure(path, family):
    """Load the corpus at `path` and encode it as `family` ("-": load only);
    print the record as JSON."""
    import resource

    from skillmem.corpus import load_prepared
    from skillmem.encoder import ModelSpec, encode_dataset

    def timed(fn, *args):
        wall, cpu = time.perf_counter(), time.process_time()
        out = fn(*args)
        return out, time.perf_counter() - wall, time.process_time() - cpu

    ds, wall, cpu = timed(load_prepared, path)
    rows = ds.n_interactions
    record = {"layer": "corpus.load_prepared", "rows": rows}
    if family != "-":
        dm, wall, cpu = timed(encode_dataset, ds, ModelSpec(family, 0))
        record = {"layer": f"encoder.encode_dataset.{family}", "rows": rows,
                  "nnz": int(dm.X.nnz), "features": dm.layout.n_features}
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    record.update(wall_s=round(wall, 4), cpu_s=round(cpu, 4),
                  rows_per_s=round(rows / wall),
                  peak_rss_mb=round(peak_kb / 1024, 1))
    print(json.dumps(record))


def child(src, *args):
    """Run one step of this script in a fresh interpreter; its JSON output."""
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--src", src, "--child",
         *args], capture_output=True, text=True)
    if proc.returncode:
        sys.exit(f"{' '.join(args)} failed:\n{proc.stderr}")
    return json.loads(proc.stdout)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--rows", type=int, nargs="+", default=[50400, 504000])
    ap.add_argument("--label", default="change")
    ap.add_argument("--out", help="JSON file the run is written into")
    ap.add_argument("--src", default=os.path.join(HERE, "..", "src"))
    ap.add_argument("--child", nargs="+", help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.child:
        sys.path.insert(0, os.path.abspath(args.src))
        step, *rest = args.child
        return {"corpus": make_corpus, "measure": measure}[step](*rest)
    if not args.out:
        ap.error("--out is required")

    records = []
    with tempfile.TemporaryDirectory() as tmp:
        for rows in args.rows:
            path = os.path.join(tmp, f"corpus_{rows}.csv")
            families = child(args.src, "corpus", path, str(rows))
            for family in ["-"] + families:
                records.append(child(args.src, "measure", path, family))
                print(json.dumps(records[-1]), flush=True)

    try:
        with open(args.out) as fh:
            doc = json.load(fh)
    except FileNotFoundError:
        doc = {"runs": {}}
    doc["runs"][args.label] = {
        "host": {"machine": platform.machine(), "cpus": os.cpu_count(),
                 "python": platform.python_version(),
                 "numpy": version("numpy"), "scipy": version("scipy")},
        "seed": SEED, "records": records}
    with open(args.out, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
