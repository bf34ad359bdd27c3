"""One phase of one workload in a fresh process; `run.py` starts it.

    python3 perfbench/worker.py '<request JSON>'

The request names the phase (`setup` or `pass`), the workload, the seed, the
work directory, the seconds to measure, whether to trace, the sizes and the
file to write the result to.

A set-up phase generates the inputs several times. A pass phase runs one
warm-up pass and then timed passes until `seconds` have gone by, and with
`trace` one more, traced, pass. It reports each pass's wall and CPU time, the
peak RSS of this process, the operations attempted and the outputs `run.py`
checks.

Every timed repetition is followed by one run of a fixed reference unit that
uses no program code, so `run.py` can express each repetition in seconds of
a host of fixed speed: the host this was built on slows down by up to 2x for
tens of seconds at a time, and a reference unit run between the repetitions,
in the same thread, slows down with them.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import sys
import time
import traceback

import numpy as np
import scipy
from scipy import sparse

import tracing
import workloads

MIN_SETUPS = 5
MAX_SETUPS = 50
SETUP_SECONDS = 2.0
MIN_TIMED_PASSES = 3


class Clock:
    """Wall and process CPU time (user + sys, all threads) of a block."""

    wall = cpu = 0.0

    def __enter__(self):
        self._t, self._c = time.perf_counter(), time.process_time()
        return self

    def __exit__(self, *exc):
        self.wall = time.perf_counter() - self._t
        self.cpu = time.process_time() - self._c
        return False


def reference_unit(vec, mat, col):
    """Fixed single-threaded work resembling the program's mix (building and
    sorting a dict, elementwise numpy, sparse products both ways, many numpy
    calls on tiny arrays), so that it leaves no BLAS threads spinning; 0.06
    to 0.3 s on the shared 2-vCPU x86 VM this was built on, as the host's
    load varies. Returns its wall time."""
    start = time.perf_counter()
    table = {}
    for i in range(40_000):
        table[(i * 7919) % 10007, i & 15] = i
    sorted(table.items())
    float(np.log1p(np.exp(-vec)).sum())
    for _ in range(40):
        mat.T @ (mat @ col)
    tiny = col[:50]
    for _ in range(4_000):
        float(tiny @ tiny + np.exp(tiny).sum())
    return time.perf_counter() - start


class Reference:
    """Runs one reference unit per call, in this process and thread, so that
    it measures the CPU the work before and after it ran on: the two vCPUs of
    the VM this was built on differ in speed by up to 1.5x at a time, and a
    unit run in another process measured the other one as often as not. Its
    data and the dict it builds add a constant part to the peak RSS."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self._vec, self._col = rng.random(200_000), rng.random(300)
        rows = np.repeat(np.arange(20_000), 9)
        self._mat = sparse.csr_matrix(
            (rng.random(rows.size), (rows, rng.integers(0, 300, rows.size))),
            shape=(20_000, 300))

    def __call__(self):
        return reference_unit(self._vec, self._mat, self._col)


def sha256(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def run_setup(req, sizes, reference):
    """Set up at least `MIN_SETUPS` times, and on until `SETUP_SECONDS`
    have been spent or `MAX_SETUPS` reached, with a reference unit after
    each."""
    start = time.perf_counter()
    times, refs, digests, spans = [], [reference()], [], []
    while (len(times) < MIN_SETUPS
           or (time.perf_counter() - start < SETUP_SECONDS
               and len(times) < MAX_SETUPS)):
        tracer = tracing.Tracer()
        sites = workloads.SETUP_SITES if req["trace"] else []
        with tracer.installed(sites), Clock() as clock:
            files = workloads.setup(req["workload"], sizes, req["seed"],
                                    req["work"])
        times.append(clock.wall)
        refs.append(reference())
        digests.append({os.path.basename(f): sha256(f) for f in files})
        spans.append(tracer.spans)
    return {"setup_s": times, "ref_s": refs, "digests": digests,
            "spans": spans,
            "versions": {"numpy": np.__version__, "scipy": scipy.__version__}}


def one_pass(req, sizes, sites):
    run, summarize = workloads.PASSES[req["workload"]]
    ops, clock, tracer = workloads.Ops(), Clock(), tracing.Tracer()
    out = {"error": None, "outputs": None}
    try:
        with tracer.installed(sites):
            state = run(sizes, req["seed"], req["work"], ops, clock)
        out["outputs"] = summarize(state)
    except Exception:  # a failed operation is reported, not raised
        out["error"] = traceback.format_exc()
    failed = int(out["error"] is not None)
    out.update(wall_s=clock.wall, cpu_s=clock.cpu,
               attempted=ops.done + failed, failed=failed, spans=tracer.spans)
    return out


def run_passes(req, sizes, reference):
    """A warm-up pass, timed passes for `seconds`, then with `trace` a traced
    pass; a reference unit runs before the first and after every pass."""
    refs, passes = [reference()], []
    start = None
    while True:
        passes.append(one_pass(req, sizes, []))
        refs.append(reference())
        if passes[-1]["error"] is not None:
            break
        if start is None:  # the warm-up pass is over
            start = time.perf_counter()
        elif (len(passes) > MIN_TIMED_PASSES
              and time.perf_counter() - start >= req["seconds"]):
            break
    traced = None
    if req["trace"] and passes[-1]["error"] is None:
        traced = one_pass(req, sizes, workloads.SITES)
        refs.append(reference())
    return {"passes": passes, "traced": traced, "ref_s": refs,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            / 1024.0}


def main(argv):
    req = json.loads(argv[1])
    sizes = req["sizes"] or workloads.SIZES[req["workload"]]
    phase = run_setup if req["phase"] == "setup" else run_passes
    result = phase(req, sizes, Reference())
    with open(req["out"], "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv)
